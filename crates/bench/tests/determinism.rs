//! Determinism regression tests.
//!
//! The simulator must be a pure function of (topology, seed): two runs of
//! the same scenario produce identical `RunReport`s down to the f64 bit
//! patterns, and the parallel table runner must render exactly what the
//! serial one does. These locked in the engine-optimization work (cached
//! geometry, incremental interference sums, out-of-heap timers): any
//! change that perturbs event order or floating-point folds shows up here
//! before it can silently move the paper tables.

use macaw_bench::faults::all_faults_with;
use macaw_bench::{run_specs_with, TableSpec, TABLE_SPECS};
use macaw_core::figures;
use macaw_core::prelude::{MacKind, SimDuration, SimTime};
use macaw_core::Executor;

/// Same topology + seed → byte-identical report. `Debug` for f64 prints
/// the shortest round-trippable decimal, so string equality here is bit
/// equality (and the `PartialEq` check catches it structurally first).
#[test]
fn same_seed_same_report_bitwise() {
    let dur = SimDuration::from_secs(20);
    let warm = SimDuration::from_secs(4);
    for seed in [1, 7] {
        let a = figures::figure10(MacKind::Macaw, seed).run(dur, warm).unwrap();
        let b = figures::figure10(MacKind::Macaw, seed).run(dur, warm).unwrap();
        assert_eq!(a, b, "figure10 seed {seed}: reports differ structurally");
        assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "figure10 seed {seed}: reports differ in f64 bit patterns"
        );
    }
}

/// Different seeds must actually change the trajectory — otherwise the
/// test above would pass vacuously on a seed-blind engine.
#[test]
fn different_seed_different_report() {
    let dur = SimDuration::from_secs(20);
    let warm = SimDuration::from_secs(4);
    let a = figures::figure10(MacKind::Macaw, 1).run(dur, warm).unwrap();
    let b = figures::figure10(MacKind::Macaw, 2).run(dur, warm).unwrap();
    assert_ne!(a, b, "seeds 1 and 2 produced identical reports");
}

/// Mobility/noise scenario (Figure 11) is deterministic too — it exercises
/// position invalidation and the noise model.
#[test]
fn mobility_scenario_deterministic() {
    let dur = SimDuration::from_secs(30);
    let warm = SimDuration::from_secs(5);
    let arrive = SimTime::ZERO + SimDuration::from_secs(10);
    let a = figures::figure11(MacKind::Macaw, 3, arrive).run(dur, warm).unwrap();
    let b = figures::figure11(MacKind::Macaw, 3, arrive).run(dur, warm).unwrap();
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
}

/// The table runner on a two-worker executor must be observationally
/// identical to the one-worker (inline, serial) run: same tables, same
/// renders, byte for byte.
#[test]
fn parallel_tables_match_serial() {
    let dur = SimDuration::from_secs(10);
    let specs: Vec<&TableSpec> = TABLE_SPECS.iter().collect();
    let serial = run_specs_with(&Executor::new(1), &specs, &[1], dur)
        .unwrap()
        .remove(0);
    let parallel = run_specs_with(&Executor::new(2), &specs, &[1], dur)
        .unwrap()
        .remove(0);
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.id, p.id);
        assert_eq!(
            s.render(),
            p.render(),
            "{}: parallel render differs from serial",
            s.id
        );
    }
}

/// The fault runner on a two-worker executor — one job per (class,
/// protocol) cell — must be observationally identical to the one-worker
/// (inline, serial) run: same classes, same renders, byte for byte.
#[test]
fn parallel_faults_match_serial() {
    let dur = SimDuration::from_secs(10);
    let serial = all_faults_with(&Executor::new(1), 7, dur).unwrap();
    let parallel = all_faults_with(&Executor::new(2), 7, dur).unwrap();
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.class, p.class);
        assert_eq!(
            s.render(),
            p.render(),
            "{}: parallel render differs from serial",
            s.class
        );
    }
}

/// Same-seed runs of the scale-topology floor are bitwise stable, and the
/// cube-grid medium retraces the reference oracle exactly end to end — the
/// `RunReport`s (every f64 included) must be equal, not merely close.
#[test]
fn scale_topology_sparse_matches_reference_bitwise() {
    use macaw_core::prelude::{scale_topology, ScaleConfig};
    use macaw_phy::{ReferenceMedium, SparseMedium};
    use macaw_sim::LadderFel;
    let dur = SimDuration::from_secs(3);
    let warm = SimDuration::from_millis(500);
    for seed in [1, 13] {
        let cfg = ScaleConfig::with_stations(48);
        let run = |sc: macaw_core::Scenario| {
            let mut net = sc.build_with_queue::<SparseMedium, LadderFel>().unwrap();
            net.set_warmup(SimTime::ZERO + warm);
            net.run_until(SimTime::ZERO + dur).unwrap();
            net.report(SimTime::ZERO + dur)
        };
        let a = run(scale_topology(&cfg, MacKind::Macaw, seed));
        let b = run(scale_topology(&cfg, MacKind::Macaw, seed));
        assert_eq!(a, b, "scale seed {seed}: sparse runs differ");
        assert_eq!(format!("{a:?}"), format!("{b:?}"));

        let mut reference = scale_topology(&cfg, MacKind::Macaw, seed)
            .build_with_queue::<ReferenceMedium, LadderFel>()
            .unwrap();
        reference.set_warmup(SimTime::ZERO + warm);
        reference.run_until(SimTime::ZERO + dur).unwrap();
        let r = reference.report(SimTime::ZERO + dur);
        assert_eq!(
            a, r,
            "scale seed {seed}: sparse and reference reports differ"
        );
        assert_eq!(
            format!("{a:?}"),
            format!("{r:?}"),
            "scale seed {seed}: sparse and reference differ in f64 bit patterns"
        );
    }
}

/// The ladder-queue FEL is unobservable: every scenario family behind the
/// paper tables, run under the ladder queue and under the plain 4-ary
/// heap oracle, produces bitwise-identical `RunReport`s — every f64 bit
/// pattern, every counter, the FEL operation stats included. Each table's
/// published numbers are pure functions of these reports (each
/// `TableSpec`'s `assemble` only reads stream throughputs out of them), so
/// report equality here is full-table equality under both queues.
#[test]
fn ladder_and_heap_queue_reports_are_bitwise_identical() {
    use macaw_core::Scenario;
    use macaw_phy::SparseMedium;
    use macaw_sim::{HeapFel, LadderFel};
    let dur = SimDuration::from_secs(15);
    let warm = SimDuration::from_secs(3);
    let arrive = SimTime::ZERO + SimDuration::from_secs(5);
    let off_at = SimTime::ZERO + SimDuration::from_secs(5);
    type Mk = Box<dyn Fn() -> Scenario>;
    let cases: Vec<(&str, Mk)> = vec![
        ("figure1-csma", Box::new(|| figures::figure1_hidden(MacKind::Csma(Default::default()), 1))),
        ("figure2-maca", Box::new(|| figures::figure2(MacKind::Maca, 1))),
        ("figure3-macaw", Box::new(|| figures::figure3(MacKind::Macaw, 1))),
        ("figure4-macaw", Box::new(|| figures::figure4(MacKind::Macaw, 1))),
        ("table4-noise", Box::new(|| figures::table4(MacKind::Macaw, 1, 0.01))),
        ("figure5-macaw", Box::new(|| figures::figure5(MacKind::Macaw, 1))),
        ("figure6-macaw", Box::new(|| figures::figure6(MacKind::Macaw, 1))),
        ("figure7-macaw", Box::new(|| figures::figure7(MacKind::Macaw, 1))),
        ("figure9-macaw", Box::new(move || figures::figure9(MacKind::Macaw, 1, off_at))),
        ("figure10-maca", Box::new(|| figures::figure10(MacKind::Maca, 1))),
        ("figure10-macaw", Box::new(|| figures::figure10(MacKind::Macaw, 1))),
        ("figure11-macaw", Box::new(move || figures::figure11(MacKind::Macaw, 1, arrive))),
    ];
    for (name, mk) in &cases {
        let ladder = mk().run_with_queue::<SparseMedium, LadderFel>(dur, warm).unwrap();
        let heap = mk().run_with_queue::<SparseMedium, HeapFel>(dur, warm).unwrap();
        assert_eq!(ladder, heap, "{name}: reports differ structurally across FEL backends");
        assert_eq!(
            format!("{ladder:?}"),
            format!("{heap:?}"),
            "{name}: reports differ in f64 bit patterns across FEL backends"
        );
        assert!(
            ladder.queue_stats.popped > 0,
            "{name}: queue stats empty — the comparison would be vacuous"
        );
    }
}

/// Queue-backend equivalence holds at scale too (the cube-grid medium and
/// hundreds of stations drive the ladder's bucket resizing much harder
/// than the paper figures do).
#[test]
fn ladder_and_heap_agree_on_the_scale_floor() {
    use macaw_core::prelude::{scale_topology, ScaleConfig};
    use macaw_phy::SparseMedium;
    use macaw_sim::{HeapFel, LadderFel};
    let dur = SimDuration::from_secs(3);
    let warm = SimDuration::from_millis(500);
    let cfg = ScaleConfig::with_stations(96);
    let ladder = scale_topology(&cfg, MacKind::Macaw, 11)
        .run_with_queue::<SparseMedium, LadderFel>(dur, warm)
        .unwrap();
    let heap = scale_topology(&cfg, MacKind::Macaw, 11)
        .run_with_queue::<SparseMedium, HeapFel>(dur, warm)
        .unwrap();
    assert_eq!(ladder, heap, "scale-96: reports differ across FEL backends");
    assert_eq!(format!("{ladder:?}"), format!("{heap:?}"));
}

/// A chaos run is still a pure function of (topology, seed): the same
/// random faults declared on the same scenario produce a bitwise-identical
/// report, crashes and corruption windows included.
#[test]
fn fault_plan_runs_are_bitwise_deterministic() {
    use macaw_core::prelude::{add_random_faults, FaultPlanConfig};
    let dur = SimDuration::from_secs(20);
    let warm = SimDuration::from_secs(4);
    let cfg = FaultPlanConfig {
        duration: dur,
        ..FaultPlanConfig::default()
    };
    for seed in [2, 9] {
        let go = || {
            let mut sc = figures::figure10(MacKind::Macaw, seed);
            add_random_faults(&mut sc, seed, &cfg);
            sc.run(dur, warm).unwrap()
        };
        let a = go();
        let b = go();
        assert_eq!(a, b, "faulted figure10 seed {seed}: reports differ");
        assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "faulted figure10 seed {seed}: reports differ in f64 bit patterns"
        );
    }
}

/// The faults must actually bite: a faulted run differs from the clean
/// run of the same scenario and seed, so the test above is not vacuous.
#[test]
fn fault_plan_changes_the_trajectory() {
    use macaw_core::prelude::{add_random_faults, FaultPlanConfig};
    let dur = SimDuration::from_secs(20);
    let warm = SimDuration::from_secs(4);
    let cfg = FaultPlanConfig {
        duration: dur,
        crashes: 2,
        corruption_windows: 6,
        ..FaultPlanConfig::default()
    };
    let clean = figures::figure10(MacKind::Macaw, 5).run(dur, warm).unwrap();
    let mut sc = figures::figure10(MacKind::Macaw, 5);
    add_random_faults(&mut sc, 5, &cfg);
    let faulted = sc.run(dur, warm).unwrap();
    assert_ne!(clean, faulted, "random faults had no observable effect");
}

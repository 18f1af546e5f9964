//! Shard-count invariance: the sharded engine is bitwise unobservable.
//!
//! `Scenario::run_with_shards` decomposes a scenario into coupling islands
//! and runs whole islands on parallel event loops (see `macaw_core::partition`
//! and DESIGN.md "Parallel DES"). Exactly like the reference-vs-sparse media
//! and the heap-vs-ladder FELs before it, the serial engine is the oracle:
//! every shard count must reproduce the serial `RunReport` down to the f64
//! bit patterns — every paper-table family, the scale-floor topology, and a
//! hand-built boundary-straddling stress case.

use macaw_core::figures;
use macaw_core::prelude::{
    scale_topology, MacKind, Point, ScaleConfig, Scenario, SimDuration, SimTime,
};

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Run serial and at every shard count; assert structural and f64-bitwise
/// report equality throughout.
fn assert_shard_invariant(name: &str, mk: &dyn Fn() -> Scenario, dur: SimDuration, warm: SimDuration) {
    let serial = mk().run(dur, warm).unwrap();
    for shards in SHARD_COUNTS {
        let (sharded, stats) = mk().run_with_shards(dur, warm, shards).unwrap();
        assert_eq!(
            serial, sharded,
            "{name}: {shards}-shard report differs structurally from serial"
        );
        assert_eq!(
            format!("{serial:?}"),
            format!("{sharded:?}"),
            "{name}: {shards}-shard report differs from serial in f64 bit patterns"
        );
        assert_eq!(stats.shards, shards.max(1));
        assert_eq!(
            stats.per_shard.iter().map(|s| s.events).sum::<u64>(),
            serial.events_processed,
            "{name}: per-shard event counts must sum to the serial total"
        );
    }
    assert!(
        serial.queue_stats.popped > 0,
        "{name}: queue stats empty — the comparison would be vacuous"
    );
}

/// All twelve paper-table scenario families (the exact list the FEL
/// equivalence test locks), serial vs shards ∈ {1, 2, 4, 8}.
#[test]
fn paper_table_families_are_shard_count_invariant() {
    let dur = SimDuration::from_secs(10);
    let warm = SimDuration::from_secs(2);
    let arrive = SimTime::ZERO + SimDuration::from_secs(4);
    let off_at = SimTime::ZERO + SimDuration::from_secs(4);
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
        assert_shard_invariant(name, mk, dur, warm);
    }
}

/// The scale-floor topology (96 stations, cube-grid medium working hard)
/// is shard-count invariant too. The default floor couples room to room at
/// the edges, so it is few large islands — the parallel path must cope
/// with islands ≫ shards *and* shards ≫ islands.
#[test]
fn scale_floor_is_shard_count_invariant() {
    let cfg = ScaleConfig::with_stations(96);
    assert_shard_invariant(
        "scale-96",
        &|| scale_topology(&cfg, MacKind::Macaw, 11),
        SimDuration::from_secs(3),
        SimDuration::from_millis(500),
    );
}

/// The cellular variant (pads inset 6 ft, no walkers) decomposes into one
/// island per room — the regime sharding actually accelerates. Check the
/// partition does decompose, then check invariance.
#[test]
fn cellular_floor_decomposes_and_is_shard_count_invariant() {
    let cfg = ScaleConfig {
        room_inset_ft: 6.0,
        walker_share: 0.0,
        ..ScaleConfig::with_stations(96)
    };
    let part = scale_topology(&cfg, MacKind::Macaw, 11).partition().unwrap();
    assert_eq!(
        part.n_islands,
        96 / 8,
        "6 ft inset + no walkers must decouple the 12 rooms into 12 islands"
    );
    assert_shard_invariant(
        "scale-96-cellular",
        &|| scale_topology(&cfg, MacKind::Macaw, 11),
        SimDuration::from_secs(3),
        SimDuration::from_millis(500),
    );
}

/// Boundary stress: a hand-built floor of station pairs whose links all
/// straddle cube-grid cell boundaries (fractional positions, ~9.7 ft
/// spans — dozens of 1 ft³ cells apart), decorated with every coupling the
/// partition models: receiver noise, a spatial noise emitter, mobility,
/// link-gain and power faults, and a corruption window. Multiple islands
/// by construction; every shard count must retrace the serial run.
#[test]
fn boundary_straddling_pairs_are_shard_count_invariant() {
    let mk = || {
        let mut sc = Scenario::new(23);
        let mut pairs = Vec::new();
        for i in 0..6 {
            let x = i as f64 * 30.0;
            // Base at ceiling height, pad 7.6 ft away horizontally with
            // fractional coordinates: the 3D span is ~9.7 ft, crossing many
            // cube-cell boundaries, and cube-center snapping moves both
            // endpoints.
            let b = sc.add_station(
                &format!("B{i}"),
                Point::new(x + 0.3, 0.3, 6.0),
                MacKind::Macaw,
            );
            let p = sc.add_station(
                &format!("P{i}"),
                Point::new(x + 7.9, 0.6, 0.0),
                MacKind::Macaw,
            );
            sc.add_udp_stream(&format!("up{i}"), p, b, 24, 512);
            if i % 2 == 0 {
                sc.add_udp_stream(&format!("down{i}"), b, p, 12, 512);
            }
            pairs.push((b, p));
        }
        // Pair 0: intermittent receiver noise (§3.3.1 model).
        sc.set_rx_error_rate(pairs[0].1, 0.02);
        // Pair 1: a noise emitter toggling halfway between the endpoints.
        let hum = sc.add_noise_source(Point::new(34.0, 0.5, 3.0), 2.0, false);
        sc.set_noise_at(SimTime::ZERO + SimDuration::from_secs(3), hum, true);
        sc.set_noise_at(SimTime::ZERO + SimDuration::from_secs(6), hum, false);
        // Pair 2: the pad wanders within its island mid-run.
        sc.move_station_at(
            SimTime::ZERO + SimDuration::from_secs(4),
            pairs[2].1,
            Point::new(66.4, 2.6, 0.0),
        );
        // Pair 3: link asymmetry fault.
        sc.set_link_gain_at(
            SimTime::ZERO + SimDuration::from_secs(5),
            pairs[3].0,
            pairs[3].1,
            0.2,
        );
        // Pair 4: a deterministic corruption window on the uplink.
        sc.corrupt_link(
            pairs[4].1,
            pairs[4].0,
            SimTime::ZERO + SimDuration::from_secs(2),
            SimTime::ZERO + SimDuration::from_secs(7),
            SimDuration::from_millis(4),
        );
        // Pair 5: a loud base (tx-power extension).
        sc.set_tx_power(pairs[5].0, 2.0);
        sc
    };
    let part = mk().partition().unwrap();
    assert!(
        part.n_islands >= 5,
        "the pairs must form separate islands, got {}",
        part.n_islands
    );
    assert_shard_invariant(
        "boundary-pairs",
        &mk,
        SimDuration::from_secs(10),
        SimDuration::from_secs(2),
    );
}

/// A generated fault plan (crashes, bursts, corruption, asymmetry, jitter)
/// on a paper topology stays shard-count invariant — faults schedule
/// actions and corruption windows, which every shard builds and only the
/// shard that owns their station's island ever fires.
#[test]
fn faulted_runs_are_shard_count_invariant() {
    use macaw_core::prelude::{FaultPlan, FaultPlanConfig};
    let dur = SimDuration::from_secs(10);
    let warm = SimDuration::from_secs(2);
    let cfg = FaultPlanConfig {
        duration: dur,
        crashes: 2,
        corruption_windows: 4,
        ..FaultPlanConfig::default()
    };
    let mk = || {
        let mut sc = figures::figure10(MacKind::Macaw, 9);
        let plan = FaultPlan::generate(9, &cfg, sc.station_count());
        plan.apply(&mut sc).unwrap();
        sc
    };
    assert_shard_invariant("faulted-figure10", &mk, dur, warm);
}

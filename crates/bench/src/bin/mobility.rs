//! Mobility harness: motion as a fast path, measured.
//!
//! A campus ([`macaw_core::mobility`]) is a scale-topology floor whose
//! ground stations roam under seeded random-waypoint motion, emitted as
//! batched move actions. This bench prices that motion against the static
//! floor of `BENCH_scale.json`:
//!
//! 1. **Sweep** — N ∈ {256, 4096, 16384} × mobile share ∈ {0%, 10%, 50%}
//!    × walking speed ∈ {4, 16} ft/s, MACAW on the [`SparseMedium`],
//!    reporting events/s, moves applied, moves/s, the same-cube no-op
//!    share, grid-cell hops, fold-term counters, and the coupling
//!    partition's time on the cell's scenario (minimum of three timed
//!    [`Scenario::partition`] calls). Costs come from op counts and timed
//!    calls, never from differences of two run walls.
//!    The 10%-mobile cells must hold ≥ 0.5x the static floor's events/s —
//!    the "motion is a fast path, not a rebuild" acceptance bar.
//! 2. **Ablation** — BEB (MACA) vs MILD + per-destination backoff (MACAW)
//!    across walking speeds on a 25%-mobile N = 256 campus: aggregate
//!    throughput and Jain fairness per cell, the mobility counterpart of
//!    the paper's Table 2 comparison (cf. arXiv:1007.0410's BEB-vs-MILD
//!    mobility study).
//!
//! Results land in `BENCH_mobility.json`.
//!
//! `--smoke` (wired into `scripts/verify.sh`) is the deterministic guard
//! set, no JSON:
//!
//! * **Per-move fold terms stay O(k)** — a medium-level drill (no MAC, no
//!   event loop) applies identical per-tick move batches to floors of 256
//!   and 4096 stations with live flights in the air and compares fold
//!   terms per move. Pure op counts: immune to machine load. A regression
//!   to O(N)-per-move (the pre-pipeline full rebuild) fails the ratio.
//! * **Moving runs stay bit-identical** — the same moving campus on the
//!   sparse medium and the reference oracle must produce equal reports.
//!
//! [`SparseMedium`]: macaw_phy::SparseMedium
//! [`Scenario::partition`]: macaw_core::scenario::Scenario::partition

use macaw_bench::stopwatch::time_once;
use macaw_core::mobility::CampusConfig;
use macaw_core::prelude::*;
use macaw_core::stats::RunReport;
use macaw_phy::{Medium as PhyMedium, Propagation, ReferenceMedium, SparseMedium, StationId};
use macaw_sim::SimRng;

fn die(e: &dyn std::fmt::Display) -> ! {
    eprintln!("simulation failed: {e}");
    std::process::exit(1);
}

fn usage_and_exit(msg: &str) -> ! {
    eprintln!("{msg}");
    eprintln!("usage: mobility [--smoke] [--seed N] [--out PATH]");
    std::process::exit(2);
}

/// Peak resident set size (`VmHWM`) in kilobytes; 0 without procfs.
/// Process-wide and monotone, exactly as in the `scale` bench.
fn peak_rss_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Same per-stream offered-load taper as the `scale` bench, so the static
/// (0% mobile) cells here are directly comparable to `BENCH_scale.json`'s
/// floor rows.
fn floor_pps(n: usize) -> u64 {
    if n >= 16384 {
        1
    } else if n >= 4096 {
        2
    } else if n >= 1024 {
        4
    } else if n >= 256 {
        8
    } else {
        16
    }
}

/// The campus for one sweep cell. `speed <= 0` or `share <= 0` yields the
/// static floor (no batches are scheduled).
fn campus_config(n: usize, share: f64, speed: f64) -> CampusConfig {
    let mut cfg = CampusConfig::with_stations(n);
    cfg.floor.pps = floor_pps(n);
    cfg.mobile_share = share;
    cfg.waypoint.speed_fps = speed;
    cfg
}

/// Minimum wall time of three [`Scenario::partition`] calls on one sweep
/// cell's campus: the coupling partition every build computes over every
/// move target.
fn partition_secs(n: usize, share: f64, speed: f64, seed: u64, dur: SimDuration) -> f64 {
    let sc = macaw_core::mobility::campus_topology(
        &campus_config(n, share, speed),
        MacKind::Macaw,
        dur,
        seed,
    );
    (0..3)
        .map(|_| {
            let (part, secs) = time_once(|| sc.partition());
            part.unwrap_or_else(|e| die(&e));
            secs
        })
        .fold(f64::INFINITY, f64::min)
}

/// Build the campus and run it on medium `M`: report, run-loop wall time
/// (excluding build), stream count and medium op counters.
fn run_campus<M: PhyMedium>(
    n: usize,
    share: f64,
    speed: f64,
    mac: MacKind,
    seed: u64,
    dur: SimDuration,
    warm: SimDuration,
) -> (RunReport, f64, usize, MediumStats) {
    let sc = macaw_core::mobility::campus_topology(&campus_config(n, share, speed), mac, dur, seed);
    let mut net = sc.build_with::<M>().unwrap_or_else(|e| die(&e));
    let streams = net.stream_count();
    let end = SimTime::ZERO + dur;
    net.set_warmup(SimTime::ZERO + warm);
    let (res, wall_secs) = time_once(|| net.run_until(end));
    res.unwrap_or_else(|e| die(&e));
    let medium = net.medium().medium_stats();
    (net.report(end), wall_secs, streams, medium)
}

struct Cell {
    stations: usize,
    share: f64,
    speed: f64,
    streams: usize,
    report: RunReport,
    wall_secs: f64,
    partition_secs: f64,
    rss_kb: u64,
    medium: MediumStats,
}

impl Cell {
    fn events_per_sec(&self) -> f64 {
        self.report.events_processed as f64 / self.wall_secs
    }
}

/// Deterministic medium-level drill for the `--smoke` fold-term guard:
/// build an `n`-station floor's positions into a bare [`SparseMedium`],
/// key up every 16th station, then walk every 10th station through
/// `ticks` batched moves — short 2 ft steps (often same grid cell, never
/// same cube) plus a periodic cross-floor hop (leaves every old neighbor,
/// gains a fresh set: the reach-bound crossing). Returns fold terms per
/// applied move — a pure op count.
fn per_move_fold_terms(n: usize, ticks: usize, seed: u64) -> (f64, MediumStats) {
    let sc = macaw_core::mobility::campus_topology(
        &campus_config(n, 0.0, 0.0),
        MacKind::Macaw,
        SimDuration::from_secs(1),
        seed,
    );
    let prop = Propagation::new(PropagationConfig::default());
    let mut m = SparseMedium::new(prop, SimRng::new(seed));
    let ids: Vec<StationId> = (0..n)
        .map(|i| m.add_station(sc.station_position(i).expect("floor station")))
        .collect();
    let mut clock = 0u64;
    let mut at = || {
        clock += 7;
        SimTime::ZERO + SimDuration::from_micros(clock)
    };
    // Live flights so movers reconcile against real interference state.
    for &id in ids.iter().step_by(16) {
        m.start_tx(id, at());
    }
    let movers: Vec<StationId> = ids.iter().copied().step_by(10).collect();
    let origin: Vec<Point> = movers.iter().map(|&id| m.position(id)).collect();
    let floor_w = (n as f64).sqrt() * 8.0; // rough campus width, feet
    let before = m.medium_stats();
    let mut batch: Vec<(StationId, Point)> = Vec::with_capacity(movers.len());
    for t in 1..=ticks {
        batch.clear();
        for (k, &id) in movers.iter().enumerate() {
            let o = origin[k];
            let p = if t % 4 == 0 {
                // Cross-floor hop: out of reach of the old neighborhood.
                let dx = ((k * 83 + t * 131) % floor_w as usize) as f64;
                Point::new(dx, (o.y + 40.0) % floor_w, 0.0)
            } else {
                // Short leg: 2 ft per tick, the common waypoint stride.
                Point::new(o.x + 2.0 * (t % 4) as f64, o.y, o.z)
            };
            batch.push((id, p));
        }
        m.set_positions(&batch);
    }
    let after = m.medium_stats();
    let moves = after.set_position_ops - before.set_position_ops;
    let terms = after.fold_terms - before.fold_terms;
    assert!(moves > 0, "the drill must apply moves");
    (terms as f64 / moves as f64, after)
}

fn smoke(seed: u64) {
    // 1. Per-move fold terms must stay flat as the floor grows 16x. The
    //    mover pipeline does O(k) work per move (k = neighborhood size,
    //    fixed by the cutoff radius and room density); the pre-pipeline
    //    full rebuild did O(N). Pure op counts — deterministic.
    let ticks = 32;
    let (small, _) = per_move_fold_terms(256, ticks, seed);
    let (big, stats) = per_move_fold_terms(4096, ticks, seed);
    println!(
        "mobility --smoke: fold terms/move N=256 {small:.2}  N=4096 {big:.2}  \
         (noop share {:.2}, cell hops {})",
        stats.move_noop_ops as f64 / stats.set_position_ops.max(1) as f64,
        stats.move_cell_hops
    );
    assert!(
        big <= small * 3.0 + 8.0,
        "per-move fold work regressed: {big:.1} terms/move at N=4096 vs {small:.1} at N=256 \
         — an O(N) rebuild is back in the move path"
    );

    // 2. Moving campus: sparse == reference bitwise, end to end.
    let dur = SimDuration::from_secs(2);
    let warm = SimDuration::from_millis(500);
    let (sparse, _, _, med) =
        run_campus::<SparseMedium>(64, 0.25, 8.0, MacKind::Macaw, seed, dur, warm);
    let (reference, _, _, _) =
        run_campus::<ReferenceMedium>(64, 0.25, 8.0, MacKind::Macaw, seed, dur, warm);
    assert_eq!(
        sparse, reference,
        "moving sparse and reference runs must agree exactly"
    );
    assert_eq!(
        format!("{sparse:?}"),
        format!("{reference:?}"),
        "moving sparse and reference runs must agree in f64 bit patterns"
    );
    assert!(med.set_position_ops > 0, "the campus must actually move");

    println!("mobility --smoke: sparse == reference on a moving campus");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke_mode = false;
    let mut seed = 1u64;
    let mut out_path = "BENCH_mobility.json".to_string();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" => smoke_mode = true,
            "--seed" => {
                i += 1;
                seed = match args.get(i).map(|s| s.parse()) {
                    Some(Ok(n)) => n,
                    _ => usage_and_exit("--seed takes an integer"),
                };
            }
            "--out" => {
                i += 1;
                out_path = match args.get(i) {
                    Some(p) => p.clone(),
                    None => usage_and_exit("--out takes a path"),
                };
            }
            other => usage_and_exit(&format!("unknown argument {other}")),
        }
        i += 1;
    }

    if smoke_mode {
        smoke(seed);
        return;
    }

    let dur = SimDuration::from_secs(5);
    let warm = SimDuration::from_secs(1);
    let sizes = [256usize, 4096, 16384];
    let shares = [0.1f64, 0.5];
    let speeds = [4.0f64, 16.0];

    println!("mobility sweep: campus floor, {sizes:?} stations, 5 s runs with 1 s warm-up");
    let mut cells: Vec<Cell> = Vec::new();
    let run_one = |n: usize, share: f64, speed: f64, cells: &mut Vec<Cell>| {
        let (report, wall_secs, streams, medium) =
            run_campus::<SparseMedium>(n, share, speed, MacKind::Macaw, seed, dur, warm);
        let moves = medium.set_position_ops;
        println!(
            "  N={n:<5} mobile {:>3.0}% @ {speed:>4.1} ft/s  {streams:>5} streams  \
             {:>9} events  {:>8.1} ms  {:>6.2} Mev/s  {:>7} moves ({:>5.1}% noop, {} hops)  \
             fairness {:.3}",
            share * 100.0,
            report.events_processed,
            wall_secs * 1e3,
            report.events_processed as f64 / wall_secs / 1e6,
            moves,
            100.0 * medium.move_noop_ops as f64 / moves.max(1) as f64,
            medium.move_cell_hops,
            report.jain_fairness()
        );
        assert!(
            report.total_throughput().is_finite() && report.total_throughput() > 0.0,
            "N={n} share={share}: non-finite or zero throughput"
        );
        // Read the peak before the partition timing builds its own campus.
        let rss_kb = peak_rss_kb();
        cells.push(Cell {
            stations: n,
            share,
            speed,
            streams,
            report,
            wall_secs,
            partition_secs: partition_secs(n, share, speed, seed, dur),
            rss_kb,
            medium,
        });
    };
    for &n in &sizes {
        run_one(n, 0.0, 0.0, &mut cells);
        for &share in &shares {
            for &speed in &speeds {
                run_one(n, share, speed, &mut cells);
            }
        }
    }

    // The acceptance bar: a 10%-mobile campus keeps at least half the
    // static floor's event rate at every size (measured against this run's
    // own static cell, so the bar is machine-independent).
    let static_evps = |n: usize| {
        cells
            .iter()
            .find(|c| c.stations == n && c.share == 0.0)
            .map(Cell::events_per_sec)
            .expect("every size has a static cell")
    };
    println!("\nmobility tax (10% mobile, events/s vs this run's static floor):");
    for &n in &sizes {
        let floor = static_evps(n);
        for c in cells.iter().filter(|c| c.stations == n && c.share == 0.1) {
            let ratio = c.events_per_sec() / floor;
            println!(
                "  N={n:<5} @ {:>4.1} ft/s  {:>6.2} Mev/s vs {:>6.2} Mev/s static  ({ratio:.2}x)",
                c.speed,
                c.events_per_sec() / 1e6,
                floor / 1e6
            );
            assert!(
                ratio >= 0.5,
                "mobility tax too high at N={n} speed={}: {:.0} ev/s is {ratio:.2}x of the \
                 static floor's {floor:.0} ev/s (bar: 0.5x)",
                c.speed,
                c.events_per_sec()
            );
        }
    }

    // BEB vs MILD under mobility: the paper's backoff comparison, in
    // motion. 25%-mobile N = 256 campus across walking speeds; speed 0 is
    // the static control.
    println!("\nablation: BEB (MACA) vs MILD+per-dest (MACAW), N=256, 25% mobile:");
    struct AbRow {
        algo: &'static str,
        speed: f64,
        throughput: f64,
        fairness: f64,
        delivered: u64,
        offered: u64,
    }
    let mut ablation: Vec<AbRow> = Vec::new();
    for (algo, mac) in [("BEB", MacKind::Maca), ("MILD", MacKind::Macaw)] {
        for &speed in &[0.0f64, 2.0, 8.0, 32.0] {
            let (report, _, _, _) =
                run_campus::<SparseMedium>(256, 0.25, speed, mac, seed, dur, warm);
            let (delivered, offered) = report
                .streams
                .iter()
                .fold((0u64, 0u64), |(d, o), s| (d + s.delivered, o + s.offered));
            println!(
                "  {algo:<5} @ {speed:>4.1} ft/s  {:>8.1} pps  fairness {:.3}  ({}/{} delivered)",
                report.total_throughput(),
                report.jain_fairness(),
                delivered,
                offered
            );
            ablation.push(AbRow {
                algo,
                speed,
                throughput: report.total_throughput(),
                fairness: report.jain_fairness(),
                delivered,
                offered,
            });
        }
    }

    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut sweep_json = String::new();
    for c in &cells {
        let floor = static_evps(c.stations);
        let moves = c.medium.set_position_ops;
        sweep_json.push_str(&format!(
            "    {{ \"stations\": {}, \"mobile_share\": {}, \"speed_fps\": {}, \"streams\": {}, \
             \"events\": {}, \"wall_secs\": {:.6}, \"partition_secs\": {:.6}, \
             \"events_per_sec\": {:.0}, \"events_per_sec_vs_static\": {:.4}, \
             \"total_throughput_pps\": {:.3}, \"jain_fairness\": {:.4}, \"moves\": {}, \
             \"moves_per_sec\": {:.0}, \"move_noop_ops\": {}, \"move_cell_hops\": {}, \
             \"medium_fold_terms\": {}, \"fold_terms_per_end_tx\": {:.2}, \
             \"peak_rss_kb\": {} }},\n",
            c.stations,
            c.share,
            c.speed,
            c.streams,
            c.report.events_processed,
            c.wall_secs,
            c.partition_secs,
            c.events_per_sec(),
            c.events_per_sec() / floor,
            c.report.total_throughput(),
            c.report.jain_fairness(),
            moves,
            moves as f64 / c.wall_secs,
            c.medium.move_noop_ops,
            c.medium.move_cell_hops,
            c.medium.fold_terms,
            if c.medium.end_tx_ops == 0 {
                0.0
            } else {
                c.medium.fold_terms as f64 / c.medium.end_tx_ops as f64
            },
            c.rss_kb
        ));
    }
    sweep_json.pop();
    sweep_json.pop();
    sweep_json.push('\n');

    let mut ablation_json = String::new();
    for r in &ablation {
        ablation_json.push_str(&format!(
            "    {{ \"backoff\": \"{}\", \"speed_fps\": {}, \"total_throughput_pps\": {:.3}, \
             \"jain_fairness\": {:.4}, \"delivered\": {}, \"offered\": {} }},\n",
            r.algo, r.speed, r.throughput, r.fairness, r.delivered, r.offered
        ));
    }
    ablation_json.pop();
    ablation_json.pop();
    ablation_json.push('\n');

    let json = format!(
        "{{\n  \"workload\": \"random-waypoint campus (mobility::campus_topology), seed {seed}, 5 s sim with 1 s warm-up, one move batch per 500 ms tick\",\n  \
           \"host_cores\": {host_cores},\n  \
           \"workers\": 1,\n  \
           \"shards\": 1,\n  \
           \"sweep_note\": \"static (0%) cells share the scale bench's pps taper, so they are comparable to BENCH_scale.json's MACAW floor rows; partition_secs is the minimum of 3 timed Scenario::partition() calls on the cell's scenario (the coupling partition every build computes over every move target); move_noop_ops counts same-cube early-outs (paused movers); costs come from op counts and timed calls, never from differences of two run walls\",\n  \
           \"sweep\": [\n{sweep_json}  ],\n  \
           \"ablation_note\": \"BEB (MACA) vs MILD+per-destination backoff (MACAW) on a 25%-mobile N=256 campus across walking speeds; speed 0 is the static control (cf. arXiv:1007.0410)\",\n  \
           \"ablation\": [\n{ablation_json}  ]\n}}\n"
    );
    if let Err(e) = std::fs::write(&out_path, json) {
        eprintln!("cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    println!("wrote {out_path}");
}

//! Mobility harness: motion as a fast path, counted.
//!
//! A campus ([`macaw_core::mobility`]) is a scale-topology floor whose
//! ground stations roam under seeded random-waypoint motion, emitted as
//! batched move actions. This bench prices that motion against the static
//! floor of `BENCH_scale.json`:
//!
//! 1. **Sweep** — N ∈ {256, 4096, 16384} × mobile share ∈ {0%, 10%, 50%}
//!    × walking speed ∈ {4, 16} ft/s, MACAW on the [`SparseMedium`],
//!    reporting throughput, fairness, moves applied, the same-cube no-op
//!    count, grid-cell hops and fold-term counters. Costs come from op
//!    counts; perfbench's `campus_walk` workload is the clock for mobile
//!    runs.
//! 2. **Ablation** — BEB (MACA) vs MILD + per-destination backoff (MACAW)
//!    across walking speeds on a 25%-mobile N = 256 campus: aggregate
//!    throughput and Jain fairness per cell, the mobility counterpart of
//!    the paper's Table 2 comparison (cf. arXiv:1007.0410's BEB-vs-MILD
//!    mobility study).
//!
//! Results land in `BENCH_mobility.json`. Every number is a pure function
//! of the code and the seed: each cell is one job on
//! [`Executor::per_core`], and `scripts/verify.sh` regenerates the file
//! and compares it with the committed one byte for byte.
//!
//! Usage:
//!   mobility [--seed N] [--out PATH]
//!
//! [`SparseMedium`]: macaw_phy::SparseMedium

use macaw_bench::executor::Executor;
use macaw_core::mobility::CampusConfig;
use macaw_core::prelude::*;
use macaw_core::stats::RunReport;
use macaw_phy::Medium;

fn die(e: &dyn std::fmt::Display) -> ! {
    eprintln!("simulation failed: {e}");
    std::process::exit(1);
}

fn usage_and_exit(msg: &str) -> ! {
    eprintln!("{msg}");
    eprintln!("usage: mobility [--seed N] [--out PATH]");
    std::process::exit(2);
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

/// One campus run: `stations` × `share` mobile at `speed` ft/s under `mac`.
#[derive(Clone, Copy)]
struct Job {
    stations: usize,
    share: f64,
    speed: f64,
    mac: MacKind,
}

struct Cell {
    job: Job,
    streams: usize,
    report: RunReport,
    medium: MediumStats,
}

/// Build the campus on the sparse medium, run it and collect its cell.
fn run_campus(job: Job, seed: u64, dur: SimDuration, warm: SimDuration) -> Cell {
    let sc = macaw_core::mobility::campus_topology(
        &campus_config(job.stations, job.share, job.speed),
        job.mac,
        dur,
        seed,
    );
    let mut net = sc.build().unwrap_or_else(|e| die(&e));
    let end = SimTime::ZERO + dur;
    net.set_warmup(SimTime::ZERO + warm);
    net.run_until(end).unwrap_or_else(|e| die(&e));
    Cell {
        job,
        streams: net.stream_count(),
        report: net.report(end),
        medium: net.medium().medium_stats(),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut seed = 1u64;
    let mut out_path = "BENCH_mobility.json".to_string();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
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

    let dur = SimDuration::from_secs(5);
    let warm = SimDuration::from_secs(1);
    let sizes = [256usize, 4096, 16384];
    let shares = [0.1f64, 0.5];
    let speeds = [4.0f64, 16.0];

    // The sweep cells, static control first at each size, then the BEB
    // (MACA) vs MILD + per-destination backoff (MACAW) ablation on a
    // 25%-mobile N = 256 campus across walking speeds (speed 0 is the
    // static control).
    let mut jobs: Vec<Job> = Vec::new();
    for &stations in &sizes {
        let cell = |share, speed| Job {
            stations,
            share,
            speed,
            mac: MacKind::Macaw,
        };
        jobs.push(cell(0.0, 0.0));
        for &share in &shares {
            for &speed in &speeds {
                jobs.push(cell(share, speed));
            }
        }
    }
    let sweep_len = jobs.len();
    for mac in [MacKind::Maca, MacKind::Macaw] {
        for speed in [0.0, 2.0, 8.0, 32.0] {
            jobs.push(Job {
                stations: 256,
                share: 0.25,
                speed,
                mac,
            });
        }
    }
    let mut cells = Executor::per_core().run(jobs.len(), |i| run_campus(jobs[i], seed, dur, warm));
    let ablation = cells.split_off(sweep_len);

    println!("mobility sweep: campus floor, {sizes:?} stations, 5 s runs with 1 s warm-up");
    let mut sweep_json: Vec<String> = Vec::new();
    for c in &cells {
        let (j, m) = (c.job, &c.medium);
        println!(
            "  N={:<5} mobile {:>3.0}% @ {:>4.1} ft/s  {:>5} streams  {:>9} events  \
             {:>7} moves ({:>5.1}% noop, {} hops)  fairness {:.3}",
            j.stations,
            j.share * 100.0,
            j.speed,
            c.streams,
            c.report.events_processed,
            m.set_position_ops,
            100.0 * m.move_noop_ops as f64 / m.set_position_ops.max(1) as f64,
            m.move_cell_hops,
            c.report.jain_fairness()
        );
        assert!(
            c.report.total_throughput().is_finite() && c.report.total_throughput() > 0.0,
            "N={} share={}: non-finite or zero throughput",
            j.stations,
            j.share
        );
        sweep_json.push(format!(
            "    {{ \"stations\": {}, \"mobile_share\": {}, \"speed_fps\": {}, \"streams\": {}, \
             \"events\": {}, \"total_throughput_pps\": {:.3}, \"jain_fairness\": {:.4}, \
             \"moves\": {}, \"move_noop_ops\": {}, \"move_cell_hops\": {}, \
             \"medium_fold_terms\": {}, \"fold_terms_per_end_tx\": {:.2} }}",
            j.stations,
            j.share,
            j.speed,
            c.streams,
            c.report.events_processed,
            c.report.total_throughput(),
            c.report.jain_fairness(),
            m.set_position_ops,
            m.move_noop_ops,
            m.move_cell_hops,
            m.fold_terms,
            if m.end_tx_ops == 0 {
                0.0
            } else {
                m.fold_terms as f64 / m.end_tx_ops as f64
            }
        ));
    }

    println!("\nablation: BEB (MACA) vs MILD+per-dest (MACAW), N=256, 25% mobile:");
    let mut ablation_json: Vec<String> = Vec::new();
    for c in &ablation {
        let algo = if matches!(c.job.mac, MacKind::Maca) {
            "BEB"
        } else {
            "MILD"
        };
        let (delivered, offered) = c
            .report
            .streams
            .iter()
            .fold((0u64, 0u64), |(d, o), s| (d + s.delivered, o + s.offered));
        println!(
            "  {algo:<5} @ {:>4.1} ft/s  {:>8.1} pps  fairness {:.3}  ({delivered}/{offered} delivered)",
            c.job.speed,
            c.report.total_throughput(),
            c.report.jain_fairness()
        );
        ablation_json.push(format!(
            "    {{ \"backoff\": \"{algo}\", \"speed_fps\": {}, \"total_throughput_pps\": {:.3}, \
             \"jain_fairness\": {:.4}, \"delivered\": {delivered}, \"offered\": {offered} }}",
            c.job.speed,
            c.report.total_throughput(),
            c.report.jain_fairness()
        ));
    }

    let json = format!(
        "{{\n  \"workload\": \"random-waypoint campus (mobility::campus_topology), seed {seed}, 5 s sim with 1 s warm-up, one move batch per 500 ms tick\",\n  \
           \"sweep_note\": \"static (0%) cells share the scale bench's pps taper, so they are comparable to BENCH_scale.json's MACAW floor rows; move_noop_ops counts same-cube early-outs (paused movers); costs are op counts — perfbench's campus_walk workload is the clock for mobile runs\",\n  \
           \"sweep\": [\n{}\n  ],\n  \
           \"ablation_note\": \"BEB (MACA) vs MILD+per-destination backoff (MACAW) on a 25%-mobile N=256 campus across walking speeds; speed 0 is the static control (cf. arXiv:1007.0410)\",\n  \
           \"ablation\": [\n{}\n  ]\n}}\n",
        sweep_json.join(",\n"),
        ablation_json.join(",\n")
    );
    if let Err(e) = std::fs::write(&out_path, json) {
        eprintln!("cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    println!("wrote {out_path}");
}

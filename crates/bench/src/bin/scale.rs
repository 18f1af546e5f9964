//! Medium-scaling sweep on the synthetic office floor
//! ([`macaw_core::topology`]), written to `BENCH_scale.json`:
//!
//! 1. **Sweep** — N ∈ {16, 64, 256, 1024} × {CSMA, MACA, MACAW}, extended
//!    MACAW-only to N ∈ {4096, 16384, 65536}, on the cube-grid
//!    [`SparseMedium`]: throughput, Jain fairness, medium bytes and the
//!    medium's op counters. Fold terms per `end_tx` staying flat across N
//!    is the direct evidence the per-event medium cost is O(k), not
//!    O(active).
//! 2. **Reference vs sparse** — the N = 256 MACAW cell on the naive
//!    [`ReferenceMedium`] oracle. The [`RunReport`]s must be *equal* (the
//!    media are bit-identical by construction; this is the end-to-end
//!    check).
//! 3. **Memory** — [`Medium::memory_footprint`] of the built sparse medium.
//!    A 16x station growth (64 → 1024) must cost well under 256x the bytes
//!    (sub-quadratic; the cube grid is O(N·k)).
//! 4. **Sharded sweep** — the *cellular* floor variant (pads inset 6 ft,
//!    no corridor walkers, so the partition decomposes into one island
//!    per room — see `macaw_core::partition`) at N ∈ {4096, 16384},
//!    MACAW, run serially and via [`Scenario::run_with_shards`] on
//!    [`SHARDS`] shards. The two reports must be bitwise identical; the
//!    JSON records island counts and the per-shard split.
//!
//! Every number in the file is a pure function of the code and the seed.
//! Each cell is one executor job, `--jobs N` (default: one worker per
//! core) changes no byte, and `scripts/verify.sh` regenerates the file and
//! compares it with the committed one byte for byte.
//!
//! `--timing` measures instead the three speeds perfbench does not: MACAW
//! events/s of the run loop at every N, the sparse-vs-reference speed-up
//! at N = 256, and the serial-vs-sharded speed-up at N ∈ {4096, 16384}.
//! It runs one simulation at a time on the calling thread, [`K`] times
//! each (pairs in alternating order), and writes min/median/max under a
//! host header to `BENCH_scale_timing.json`. It asserts that repeats and
//! pairs give identical reports, never a speed. It takes several minutes
//! and is run by hand.
//!
//! Usage:
//!   scale [--timing] [--seed N] [--out PATH] [--jobs N]
//!
//! [`SparseMedium`]: macaw_phy::SparseMedium
//! [`ReferenceMedium`]: macaw_phy::ReferenceMedium
//! [`Medium::memory_footprint`]: macaw_phy::Medium::memory_footprint
//! [`RunReport`]: macaw_core::stats::RunReport

use macaw_bench::executor::{parse_jobs_arg, Executor};
use macaw_bench::stopwatch::{time_once, Spread};
use macaw_core::prelude::*;
use macaw_core::stats::RunReport;
use macaw_phy::{Medium as PhyMedium, ReferenceMedium, SparseMedium};

/// Shards of the serial-vs-sharded rows, fixed so `per_shard` does not
/// depend on the host.
const SHARDS: usize = 2;
/// Repeats of every `--timing` measurement.
const K: usize = 10;
/// Station counts of the three-protocol sweep.
const SIZES: [usize; 4] = [16, 64, 256, 1024];
/// Station counts of the MACAW-only sweep cells. N = 65536 is the
/// stamp-ordered slab's headline: before it, the O(active) scans in
/// `end_tx` made this size untenable.
const LARGE_SIZES: [usize; 3] = [4096, 16384, 65536];
/// Station counts of the sharded rows.
const SHARD_SIZES: [usize; 2] = [4096, 16384];
/// Simulated length of every run, and its warm-up.
const DUR: SimDuration = SimDuration::from_secs(5);
const WARM: SimDuration = SimDuration::from_secs(1);

fn die(e: &dyn std::fmt::Display) -> ! {
    eprintln!("simulation failed: {e}");
    std::process::exit(1);
}

fn usage_and_exit(msg: &str) -> ! {
    eprintln!("{msg}");
    eprintln!("usage: scale [--timing] [--seed N] [--out PATH] [--jobs N]");
    std::process::exit(2);
}

fn write_or_exit(path: &str, json: String) {
    if let Err(e) = std::fs::write(path, json) {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(1);
    }
    println!("wrote {path}");
}

/// The protocols the sweep compares, in paper order.
fn protocols() -> Vec<(&'static str, MacKind)> {
    vec![
        ("CSMA", MacKind::Csma(Default::default())),
        ("MACA", MacKind::Maca),
        ("MACAW", MacKind::Macaw),
    ]
}

/// The office floor for `n` stations. Offered load per stream shrinks as
/// the floor grows so the largest cells stay bounded in wall time while
/// every cell still runs thousands of frames.
fn floor_config(n: usize) -> ScaleConfig {
    let mut cfg = ScaleConfig::with_stations(n);
    cfg.pps = if n >= 16384 {
        1
    } else if n >= 4096 {
        2
    } else if n >= 1024 {
        4
    } else if n >= 256 {
        8
    } else {
        16
    };
    cfg
}

/// The cellular large-floor variant: pads pulled 6 ft into their rooms,
/// no corridor walkers, so rooms stop coupling and the partition yields
/// one island per room — the regime `run_with_shards` accelerates.
fn cellular_config(n: usize) -> ScaleConfig {
    let mut cfg = floor_config(n);
    cfg.room_inset_ft = 6.0;
    cfg.walker_share = 0.0;
    cfg
}

/// The `n`-station floor built on medium `M` with its warm-up set, ready
/// for `run_until`.
fn build<M: PhyMedium>(n: usize, mac: MacKind, seed: u64) -> Network<M> {
    let mut net = scale_topology(&floor_config(n), mac, seed)
        .build_with::<M>()
        .unwrap_or_else(|e| die(&e));
    net.set_warmup(SimTime::ZERO + WARM);
    net
}

struct Cell {
    protocol: &'static str,
    stations: usize,
    streams: usize,
    footprint: usize,
    report: RunReport,
    medium: MediumStats,
}

/// Build the floor on medium `M`, run it and collect its cell. The
/// footprint is the built medium's, read before the run.
fn run_cell<M: PhyMedium>(protocol: &'static str, n: usize, mac: MacKind, seed: u64) -> Cell {
    let mut net = build::<M>(n, mac, seed);
    let footprint = net.medium().memory_footprint();
    let end = SimTime::ZERO + DUR;
    net.run_until(end).unwrap_or_else(|e| die(&e));
    Cell {
        protocol,
        stations: n,
        streams: net.stream_count(),
        footprint,
        report: net.report(end),
        medium: net.medium().medium_stats(),
    }
}

/// Fold terms visited per `end_tx` — the per-event medium cost the slab
/// keeps flat as N grows (0.0 when the medium saw no traffic).
fn terms_per_end(m: &MediumStats) -> f64 {
    if m.end_tx_ops == 0 {
        0.0
    } else {
        m.fold_terms as f64 / m.end_tx_ops as f64
    }
}

/// One row of the serial-vs-sharded large-floor sweep.
struct ShardCell {
    stations: usize,
    streams: usize,
    /// Coupling islands of the cellular floor actually run.
    islands: usize,
    /// Islands the *default* (coupled) floor would decompose into at the
    /// same size — context for why the cellular variant is the one that
    /// scales.
    default_floor_islands: usize,
    events: u64,
    stats: ShardRunStats,
}

/// The cellular floor at `n` stations, serial and on [`SHARDS`] shards;
/// asserts the reports bitwise identical.
fn run_shard_cell(n: usize, seed: u64) -> ShardCell {
    let mk = || scale_topology(&cellular_config(n), MacKind::Macaw, seed);
    let islands = mk().partition().unwrap_or_else(|e| die(&e)).n_islands;
    let default_floor_islands = scale_topology(&floor_config(n), MacKind::Macaw, seed)
        .partition()
        .unwrap_or_else(|e| die(&e))
        .n_islands;
    let serial = mk().run(DUR, WARM).unwrap_or_else(|e| die(&e));
    let (sharded, stats) = mk()
        .run_with_shards(DUR, WARM, SHARDS)
        .unwrap_or_else(|e| die(&e));
    assert_eq!(
        format!("{serial:?}"),
        format!("{sharded:?}"),
        "N={n}: sharded report must be bitwise identical to serial"
    );
    ShardCell {
        stations: n,
        streams: serial.streams.len(),
        islands,
        default_floor_islands,
        events: serial.events_processed,
        stats,
    }
}

/// One executor job of the science run.
#[derive(Clone, Copy)]
enum Job {
    /// A sweep cell on the sparse medium.
    Sweep(&'static str, MacKind, usize),
    /// The N = 256 MACAW cell on the reference oracle.
    Reference,
    /// A serial-vs-sharded row.
    Sharded(usize),
}

enum Done {
    Cell(Cell),
    Sharded(ShardCell),
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut timing_mode = false;
    let mut seed = 1u64;
    let mut out_path: Option<String> = None;
    let mut jobs: Option<usize> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--timing" => timing_mode = true,
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
                    Some(p) => Some(p.clone()),
                    None => usage_and_exit("--out takes a path"),
                };
            }
            "--jobs" => {
                i += 1;
                jobs = match args.get(i).map(|s| parse_jobs_arg(s)) {
                    Some(Ok(n)) => Some(n),
                    Some(Err(e)) => usage_and_exit(&e),
                    None => usage_and_exit("--jobs takes a worker count"),
                };
            }
            other => usage_and_exit(&format!("unknown argument {other}")),
        }
        i += 1;
    }

    if timing_mode {
        timing(
            seed,
            out_path.as_deref().unwrap_or("BENCH_scale_timing.json"),
        );
        return;
    }
    let out_path = out_path.as_deref().unwrap_or("BENCH_scale.json");

    // Largest first: the N = 65536 cell alone takes about as long as every
    // other job together, so it starts at once and the rest fill the other
    // workers around it. Results are sorted back into report order below.
    let mut job_list: Vec<Job> = LARGE_SIZES
        .iter()
        .rev()
        .map(|&n| Job::Sweep("MACAW", MacKind::Macaw, n))
        .collect();
    job_list.extend(SHARD_SIZES.iter().rev().map(|&n| Job::Sharded(n)));
    job_list.push(Job::Reference);
    for &n in SIZES.iter().rev() {
        for (name, mac) in protocols() {
            job_list.push(Job::Sweep(name, mac, n));
        }
    }
    let ex = jobs.map(Executor::new).unwrap_or_else(Executor::per_core);
    let done = ex.run(job_list.len(), |i| match job_list[i] {
        Job::Sweep(name, mac, n) => Done::Cell(run_cell::<SparseMedium>(name, n, mac, seed)),
        Job::Reference => Done::Cell(run_cell::<ReferenceMedium>(
            "MACAW",
            256,
            MacKind::Macaw,
            seed,
        )),
        Job::Sharded(n) => Done::Sharded(run_shard_cell(n, seed)),
    });
    let mut cells: Vec<Cell> = Vec::new();
    let mut reference: Option<Cell> = None;
    let mut shard_cells: Vec<ShardCell> = Vec::new();
    for (job, d) in job_list.iter().zip(done) {
        match (job, d) {
            (Job::Reference, Done::Cell(c)) => reference = Some(c),
            (_, Done::Cell(c)) => cells.push(c),
            (_, Done::Sharded(s)) => shard_cells.push(s),
        }
    }
    // Protocol names sort in paper order (CSMA < MACA < MACAW).
    cells.sort_by_key(|c| (c.stations, c.protocol));
    shard_cells.sort_by_key(|c| c.stations);
    let reference = reference.expect("the reference job ran");

    println!(
        "scale sweep: office floor, {SIZES:?} stations x {{CSMA, MACA, MACAW}} and MACAW at \
         {LARGE_SIZES:?}, 5 s runs"
    );
    let mut sweep_json: Vec<String> = Vec::new();
    for c in &cells {
        let (r, m) = (&c.report, &c.medium);
        println!(
            "  {:<6} N={:<5} {:>5} streams  {:>9} events  {:>8.1} pps  fairness {:.3}  \
             medium {:>8.1} KiB  {:>5.1} terms/end  slab hw {}",
            c.protocol,
            c.stations,
            c.streams,
            r.events_processed,
            r.total_throughput(),
            r.jain_fairness(),
            c.footprint as f64 / 1024.0,
            terms_per_end(m),
            m.slab_high_water
        );
        assert!(
            r.total_throughput().is_finite() && r.total_throughput() > 0.0,
            "{} N={}: non-finite or zero throughput",
            c.protocol,
            c.stations
        );
        sweep_json.push(format!(
            "    {{ \"protocol\": \"{}\", \"stations\": {}, \"streams\": {}, \"events\": {}, \
             \"total_throughput_pps\": {:.3}, \"jain_fairness\": {:.4}, \"medium_bytes\": {}, \
             \"medium_end_tx_ops\": {}, \"medium_folds\": {}, \"medium_fold_terms\": {}, \
             \"fold_terms_per_end_tx\": {:.2}, \"slab_high_water\": {} }}",
            c.protocol,
            c.stations,
            c.streams,
            r.events_processed,
            r.total_throughput(),
            r.jain_fairness(),
            c.footprint,
            m.end_tx_ops,
            m.folds,
            m.fold_terms,
            terms_per_end(m),
            m.slab_high_water
        ));
    }
    let macaw = |n: usize| {
        cells
            .iter()
            .find(|c| c.stations == n && c.protocol == "MACAW")
            .expect("sweep covers this size")
    };

    // Reference oracle vs sparse at N = 256: identical report.
    let sparse = macaw(256);
    assert_eq!(
        format!("{:?}", sparse.report),
        format!("{:?}", reference.report),
        "sparse and reference N=256 runs must produce identical reports"
    );
    println!(
        "\nreference vs sparse, N=256 MACAW: sparse {:.1} KiB, reference {:.1} KiB, reports identical",
        sparse.footprint as f64 / 1024.0,
        reference.footprint as f64 / 1024.0
    );

    // Sub-quadratic memory: 16x stations must cost far less than 256x bytes.
    let (m64, m1024) = (macaw(64).footprint, macaw(1024).footprint);
    let growth = m1024 as f64 / m64 as f64;
    println!(
        "medium memory: N=64 {:.1} KiB -> N=1024 {:.1} KiB ({growth:.1}x for 16x stations; quadratic would be 256x)",
        m64 as f64 / 1024.0,
        m1024 as f64 / 1024.0
    );
    assert!(
        growth < 256.0,
        "medium memory grew quadratically: {growth:.1}x"
    );

    // Serial vs sharded at large N, on the cellular floor (one island per
    // room). The default floor's edge coupling welds almost everything
    // into one island — recorded per row as `default_floor_islands` — so
    // it cannot parallelize; the cellular variant is the decomposable
    // regime. Reports are asserted bitwise identical inside each job.
    println!("\nsharded sweep: cellular floor, MACAW, serial == {SHARDS} shards");
    let mut shard_json: Vec<String> = Vec::new();
    for c in &shard_cells {
        let per_shard: Vec<String> = c
            .stats
            .per_shard
            .iter()
            .map(|s| {
                format!(
                    "        {{ \"islands\": {}, \"stations\": {}, \"streams\": {}, \"events\": {} }}",
                    s.islands, s.stations, s.streams, s.events
                )
            })
            .collect();
        println!(
            "  N={:<6} {:>5} streams  {:>5} islands (default floor: {})  {} events",
            c.stations, c.streams, c.islands, c.default_floor_islands, c.events
        );
        shard_json.push(format!(
            "    {{\n      \"stations\": {}, \"streams\": {}, \"events\": {},\n      \
             \"islands\": {}, \"default_floor_islands\": {}, \"largest_island\": {},\n      \
             \"shards\": {}, \"reports_identical\": true,\n      \
             \"per_shard\": [\n{}\n      ]\n    }}",
            c.stations,
            c.streams,
            c.events,
            c.islands,
            c.default_floor_islands,
            c.stats.largest_island,
            c.stats.shards,
            per_shard.join(",\n")
        ));
    }

    let json = format!(
        "{{\n  \"workload\": \"random office floor (topology::scale_topology), seed {seed}, 5 s sim with 1 s warm-up\",\n  \
           \"sweep\": [\n{}\n  ],\n  \
           \"reference_vs_sparse_n256_macaw\": {{\n    \
             \"sparse_medium_bytes\": {},\n    \
             \"reference_medium_bytes\": {},\n    \
             \"reports_identical\": true\n  }},\n  \
           \"memory_growth_64_to_1024\": {{\n    \
             \"bytes_n64\": {m64},\n    \
             \"bytes_n1024\": {m1024},\n    \
             \"growth_factor\": {growth:.2},\n    \
             \"quadratic_reference\": 256.0\n  }},\n  \
           \"sharded_sweep_note\": \"cellular floor (room_inset_ft 6, walker_share 0) under MACAW: one coupling island per room, run serially and via run_with_shards on a fixed {SHARDS} shards — bitwise-identical reports; whole islands are the unit of parallelism (DESIGN.md 'Parallel DES'); the speed-ups are in BENCH_scale_timing.json (scale --timing)\",\n  \
           \"sharded_sweep\": [\n{}\n  ]\n}}\n",
        sweep_json.join(",\n"),
        sparse.footprint,
        reference.footprint,
        shard_json.join(",\n")
    );
    write_or_exit(out_path, json);
}

/// Keep the first report of a measurement and assert every later one is
/// bitwise identical to it (`Debug` renders every f64 exactly).
fn check_same(first: &mut Option<String>, report: &RunReport, what: &str) {
    let text = format!("{report:?}");
    match first {
        Some(f) => assert!(
            *f == text,
            "{what}: every run must give the identical report"
        ),
        None => *first = Some(text),
    }
}

/// Wall time of the run loop of the `n`-station MACAW floor on medium `M`,
/// scenario build excluded.
fn timed_run_loop<M: PhyMedium>(n: usize, seed: u64) -> (RunReport, f64) {
    let mut net = build::<M>(n, MacKind::Macaw, seed);
    let end = SimTime::ZERO + DUR;
    let (res, secs) = time_once(|| net.run_until(end));
    res.unwrap_or_else(|e| die(&e));
    (net.report(end), secs)
}

/// [`K`] alternating pairs of `a` and `b` (pair i runs `a` first when i is
/// even, `b` first when odd). Returns each side's walls; every report must
/// be identical to the first.
fn alternating_pairs(
    what: &str,
    a: &dyn Fn() -> (RunReport, f64),
    b: &dyn Fn() -> (RunReport, f64),
) -> (Vec<f64>, Vec<f64>) {
    let mut first = None;
    let (mut walls_a, mut walls_b) = (Vec::with_capacity(K), Vec::with_capacity(K));
    for pair in 0..K {
        for a_turn in [pair % 2 == 0, pair % 2 == 1] {
            let (report, secs) = if a_turn { a() } else { b() };
            check_same(&mut first, &report, what);
            if a_turn {
                walls_a.push(secs);
            } else {
                walls_b.push(secs);
            }
        }
    }
    (walls_a, walls_b)
}

/// `--timing`: the three speeds perfbench does not measure, K runs each.
fn timing(seed: u64, out_path: &str) {
    println!("scale --timing: K={K} runs per quantity, one simulation at a time");

    // 1. MACAW events/s of the run loop (build excluded) at every N, in K
    //    passes over the sizes: a slow spell of the host spreads over all
    //    of them, and the process's cold start costs one sample.
    let sizes: Vec<usize> = SIZES.iter().chain(&LARGE_SIZES).copied().collect();
    let mut first = vec![None; sizes.len()];
    let mut rates = vec![Vec::with_capacity(K); sizes.len()];
    let mut events = vec![0u64; sizes.len()];
    for _ in 0..K {
        for (i, &n) in sizes.iter().enumerate() {
            let (report, secs) = timed_run_loop::<SparseMedium>(n, seed);
            check_same(&mut first[i], &report, &format!("MACAW N={n}"));
            events[i] = report.events_processed;
            rates[i].push(events[i] as f64 / secs);
        }
    }
    let mut trajectory: Vec<(usize, u64, Spread)> = Vec::new();
    for (i, &n) in sizes.iter().enumerate() {
        let rate = Spread::of(&rates[i]);
        println!(
            "  MACAW N={n:<6} {:>9} events  {:.2} Mev/s median ({:.2}–{:.2})",
            events[i],
            rate.median / 1e6,
            rate.min / 1e6,
            rate.max / 1e6
        );
        trajectory.push((n, events[i], rate));
    }
    let base = trajectory
        .iter()
        .find(|t| t.0 == 1024)
        .expect("trajectory covers N=1024")
        .2
        .median;

    // 2. Sparse vs reference at N = 256, run loop only.
    let (sparse, reference) = alternating_pairs(
        "sparse vs reference N=256",
        &|| timed_run_loop::<SparseMedium>(256, seed),
        &|| timed_run_loop::<ReferenceMedium>(256, seed),
    );
    let (sparse, reference) = (Spread::of(&sparse), Spread::of(&reference));
    let ref_speedup = reference.median / sparse.median;
    println!(
        "  N=256 sparse {:.1} ms vs reference {:.1} ms median: {ref_speedup:.2}x",
        sparse.median * 1e3,
        reference.median * 1e3
    );

    // 3. Serial vs sharded on the cellular floor, scenario generation and
    //    build included.
    let mut sharded_rows: Vec<String> = Vec::new();
    for &n in &SHARD_SIZES {
        let mk = || scale_topology(&cellular_config(n), MacKind::Macaw, seed);
        let (serial, sharded) = alternating_pairs(
            &format!("serial vs {SHARDS} shards N={n}"),
            &|| time_once(|| mk().run(DUR, WARM).unwrap_or_else(|e| die(&e))),
            &|| {
                time_once(|| {
                    mk().run_with_shards(DUR, WARM, SHARDS)
                        .unwrap_or_else(|e| die(&e))
                        .0
                })
            },
        );
        let wins = serial.iter().zip(&sharded).filter(|(s, p)| p < s).count();
        let (serial, sharded) = (Spread::of(&serial), Spread::of(&sharded));
        let speedup = serial.median / sharded.median;
        println!(
            "  N={n:<6} serial {:.1} ms vs {SHARDS} shards {:.1} ms median: {speedup:.2}x, \
             sharded won {wins} of {K} pairs",
            serial.median * 1e3,
            sharded.median * 1e3
        );
        sharded_rows.push(format!(
            "    {{ \"stations\": {n}, \"serial_wall_secs\": {}, \"sharded_wall_secs\": {}, \
             \"speedup\": {speedup:.2}, \"sharded_wins\": {wins}, \"reports_identical\": true }}",
            serial.to_json(6),
            sharded.to_json(6)
        ));
    }

    let trajectory_json: Vec<String> = trajectory
        .iter()
        .map(|(n, events, rate)| {
            format!(
                "    {{ \"stations\": {n}, \"events\": {events}, \"events_per_sec\": {}, \
                 \"relative_to_n1024\": {:.4} }}",
                rate.to_json(0),
                rate.median / base
            )
        })
        .collect();
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let json = format!(
        "{{\n  \"workload\": \"random office floor (topology::scale_topology), seed {seed}, 5 s sim with 1 s warm-up, MACAW; one simulation at a time on the calling thread\",\n  \
           \"host_cores\": {host_cores},\n  \
           \"shards\": {SHARDS},\n  \
           \"k\": {K},\n  \
           \"note\": \"each quantity is min/median/max over k runs; relative_to_n1024 and every speedup are ratios of medians; pairs run in alternating order and sharded_wins counts the pairs the sharded run won; events/s and the N=256 walls time the run loop only, the sharded rows include scenario generation and build\",\n  \
           \"macaw_events_per_sec\": [\n{}\n  ],\n  \
           \"reference_vs_sparse_n256_macaw\": {{ \"sparse_wall_secs\": {}, \"reference_wall_secs\": {}, \"speedup\": {ref_speedup:.2}, \"reports_identical\": true }},\n  \
           \"sharded_sweep\": [\n{}\n  ]\n}}\n",
        trajectory_json.join(",\n"),
        sparse.to_json(6),
        reference.to_json(6),
        sharded_rows.join(",\n")
    );
    write_or_exit(out_path, json);
}

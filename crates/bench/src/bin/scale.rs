//! Medium-scaling harness: events/sec, wall time, peak RSS, medium memory
//! and medium op counters across station counts N ∈ {16, 64, 256, 1024}
//! per protocol (CSMA / MACA / MACAW) on the synthetic office floor
//! ([`macaw_core::topology`]), extended MACAW-only to
//! N ∈ {4096, 16384, 65536}, plus a serial-vs-sharded sweep at
//! N ∈ {4096, 16384}, written to `BENCH_scale.json`.
//!
//! Usage:
//!   scale [--quick] [--smoke] [--seed N] [--out PATH] [--jobs N]
//!
//! `--jobs N` (default: one worker per core) sizes the executor used by
//! the quick smoke's sparse/reference pair; the timed sweep always runs
//! serially so its wall-clock numbers measure one simulation at a time.
//! The large sharded sweep runs at the host's available parallelism (at
//! least 2 shards); the quick smoke's serial-vs-sharded assertion at a
//! fixed 4 shards.
//!
//! Four measurements:
//!
//! 1. **Sweep** — every (N, protocol) cell runs the same randomized floor
//!    on the cube-grid [`SparseMedium`], reporting processed events per
//!    wall-clock second, throughput and Jain fairness.
//! 2. **Reference vs sparse** — the N = 256 MACAW cell runs on both the
//!    cube grid and the naive [`ReferenceMedium`] oracle, best wall time
//!    of three runs each, on a fresh heap before the sweep. The
//!    [`RunReport`]s must be *equal* (the media are bit-identical by
//!    construction; this is the end-to-end check) and the sparse run must
//!    be ≥ 5x faster.
//! 3. **Memory** — [`Medium::memory_footprint`] of the built sparse medium
//!    at each N. A 16x station growth (64 → 1024) must cost well under
//!    256x the bytes (sub-quadratic; the cube grid is O(N·k)). Each sweep
//!    cell also records `peak_rss_kb` (process-wide `VmHWM`, monotone
//!    across cells) and, under `--features alloc-stats`, the true
//!    *per-cell* live-bytes peak from the counting allocator.
//! 4. **Sharded sweep** — the *cellular* floor variant (pads inset 6 ft,
//!    no corridor walkers, so the partition decomposes into one island
//!    per room — see `macaw_core::partition`) at N ∈ {4096, 16384},
//!    MACAW, run serially and via [`Scenario::run_with_shards`]. The two
//!    reports must be bitwise identical; the JSON records the speedup,
//!    island counts, per-shard event totals and the barrier-wait share.
//!
//! `--quick` is a smoke mode for CI (`scripts/verify.sh`): one short
//! N = 64 run plus a miniature reference-equivalence check and a
//! serial-vs-sharded bitwise assertion, no JSON output. `--smoke` is the
//! per-event-cost guard: events/s and fold-terms-per-end_tx at N = 4096
//! must stay within a fixed factor of the N = 256 rates, so an O(active)
//! scan creeping back into the medium's per-event path fails CI instead
//! of quietly re-bending the scaling curve.
//!
//! [`SparseMedium`]: macaw_phy::SparseMedium
//! [`ReferenceMedium`]: macaw_phy::ReferenceMedium
//! [`Medium::memory_footprint`]: macaw_phy::Medium::memory_footprint
//! [`RunReport`]: macaw_core::stats::RunReport

use macaw_bench::alloc_stats;
use macaw_bench::executor::{parse_jobs_arg, Executor};
use macaw_bench::stopwatch::time_once;
use macaw_core::prelude::*;
use macaw_core::stats::RunReport;
use macaw_phy::{Medium as PhyMedium, ReferenceMedium, SparseMedium};

/// Shard count of the `--quick` serial-vs-sharded assertion, fixed so the
/// smoke checks the same split on every host.
const QUICK_SHARDS: usize = 4;

fn die(e: &dyn std::fmt::Display) -> ! {
    eprintln!("simulation failed: {e}");
    std::process::exit(1);
}

fn usage_and_exit(msg: &str) -> ! {
    eprintln!("{msg}");
    eprintln!("usage: scale [--quick] [--smoke] [--seed N] [--out PATH] [--jobs N]");
    std::process::exit(2);
}

/// Peak resident set size of this process so far, in kilobytes
/// (`VmHWM` from `/proc/self/status`; 0 where procfs is unavailable).
/// **Process-wide and monotone** over the process lifetime, so per-cell
/// readings record the high-water mark *up to and including* that cell —
/// the reference-vs-sparse N = 256 check runs first and sets the floor every
/// smaller cell then repeats. Per-cell peaks come from
/// [`alloc_stats`] when the feature is on.
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

struct Cell {
    protocol: &'static str,
    stations: usize,
    streams: usize,
    footprint: usize,
    report: RunReport,
    wall_secs: f64,
    rss_kb: u64,
    /// Per-cell live-bytes peak (counting allocator), `None` without
    /// `--features alloc-stats`.
    alloc_peak_live: Option<u64>,
    /// Medium-layer op counters — the perf-attribution side channel. The
    /// fold-terms-per-end_tx ratio staying flat across N is the direct
    /// evidence the per-event medium cost is O(k), not O(active).
    medium: MediumStats,
}

/// Build the floor and run it on medium `M`, returning the report, wall
/// time of the run loop (excluding scenario build), medium footprint,
/// stream count and the medium's op counters.
fn run_cell<M: PhyMedium>(
    n: usize,
    mac: MacKind,
    seed: u64,
    dur: SimDuration,
    warm: SimDuration,
) -> (RunReport, f64, usize, usize, MediumStats) {
    let sc = scale_topology(&floor_config(n), mac, seed);
    let mut net = sc.build_with::<M>().unwrap_or_else(|e| die(&e));
    let footprint = net.medium().memory_footprint();
    let streams = net.stream_count();
    let end = SimTime::ZERO + dur;
    net.set_warmup(SimTime::ZERO + warm);
    let (res, wall_secs) = time_once(|| net.run_until(end));
    res.unwrap_or_else(|e| die(&e));
    let medium = net.medium().medium_stats();
    (net.report(end), wall_secs, footprint, streams, medium)
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
    serial_secs: f64,
    sharded_secs: f64,
    events: u64,
    stats: ShardRunStats,
}

/// Run the cellular floor at `n` stations serially and sharded; assert
/// the reports bitwise identical and return the timings.
fn run_shard_cell(
    n: usize,
    seed: u64,
    dur: SimDuration,
    warm: SimDuration,
    shards: usize,
) -> ShardCell {
    let cfg = cellular_config(n);
    let mk = || scale_topology(&cfg, MacKind::Macaw, seed);
    let islands = mk().partition().unwrap_or_else(|e| die(&e)).n_islands;
    let default_floor_islands = scale_topology(&floor_config(n), MacKind::Macaw, seed)
        .partition()
        .unwrap_or_else(|e| die(&e))
        .n_islands;
    let (serial, serial_secs) = time_once(|| mk().run(dur, warm).unwrap_or_else(|e| die(&e)));
    let ((sharded, stats), sharded_secs) =
        time_once(|| mk().run_with_shards(dur, warm, shards).unwrap_or_else(|e| die(&e)));
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
        serial_secs,
        sharded_secs,
        events: serial.events_processed,
        stats,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut smoke = false;
    let mut seed = 1u64;
    let mut out_path = "BENCH_scale.json".to_string();
    let mut jobs: Option<usize> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => quick = true,
            "--smoke" => smoke = true,
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

    if smoke {
        // Per-event-cost guard for CI (`scripts/verify.sh`): the medium
        // must not regress to O(active) per event. Two checks, one noisy
        // and one deterministic:
        //
        // 1. events/s at N = 4096 must stay within 5x of the N = 256 rate.
        //    Pre-slab, the O(active) scans made the 16x-station cell pay
        //    ~10x+ per event; with the slab both cells do O(k) work per
        //    event and the ratio rides well under the guard. 5x leaves
        //    headroom for a loaded CI host.
        // 2. fold terms visited per end_tx must stay within 4x across the
        //    same pair. This is a pure op count — deterministic, immune to
        //    machine load — and is the direct signature of an O(active)
        //    scan creeping back into the per-event path.
        // Best of two timed runs per cell: the first run in a fresh
        // process pays page-fault and cache-warmup costs that can triple
        // its wall time on a contended CI host, which is exactly the noise
        // a ratio guard must not trip on. Repeats are deterministic, so
        // the reports must agree exactly.
        let dur = SimDuration::from_secs(2);
        let warm = SimDuration::from_millis(500);
        let best_of_2 = |n: usize| {
            let (r1, s1, _, _, m) = run_cell::<SparseMedium>(n, MacKind::Macaw, seed, dur, warm);
            let (r2, s2, _, _, _) = run_cell::<SparseMedium>(n, MacKind::Macaw, seed, dur, warm);
            assert_eq!(r1, r2, "repeated smoke runs at N={n} must agree exactly");
            (r1, s1.min(s2), m)
        };
        let (r_small, s_small, m_small) = best_of_2(256);
        let (r_big, s_big, m_big) = best_of_2(4096);
        let evps_small = r_small.events_processed as f64 / s_small;
        let evps_big = r_big.events_processed as f64 / s_big;
        let (t_small, t_big) = (terms_per_end(&m_small), terms_per_end(&m_big));
        println!(
            "scale --smoke: N=256 {:.2} Mev/s ({t_small:.1} terms/end, slab hw {})  \
             N=4096 {:.2} Mev/s ({t_big:.1} terms/end, slab hw {})",
            evps_small / 1e6,
            m_small.slab_high_water,
            evps_big / 1e6,
            m_big.slab_high_water
        );
        assert!(
            evps_big * 5.0 >= evps_small,
            "per-event cost regressed: N=4096 ran at {evps_big:.0} ev/s vs {evps_small:.0} ev/s \
             at N=256 ({:.1}x slower; guard is 5x)",
            evps_small / evps_big
        );
        assert!(
            t_big <= t_small * 4.0 + 1.0,
            "medium fold work regressed: {t_big:.1} fold terms per end_tx at N=4096 vs \
             {t_small:.1} at N=256 — an O(active) scan is back in the per-event path"
        );
        println!(
            "scale --smoke: per-event cost flat (events/s ratio {:.2}x, terms/end ratio {:.2}x)",
            evps_small / evps_big,
            if t_small > 0.0 { t_big / t_small } else { 0.0 }
        );
        return;
    }

    if quick {
        // Smoke mode: one short N = 64 floor per medium, both cells on the
        // work-stealing executor; the reports must agree exactly and every
        // total must be finite.
        let dur = SimDuration::from_secs(2);
        let warm = SimDuration::from_millis(500);
        let ex = jobs.map(Executor::new).unwrap_or_else(Executor::per_core);
        let mut pair = ex.run(2, |i| {
            if i == 0 {
                run_cell::<SparseMedium>(64, MacKind::Macaw, seed, dur, warm)
            } else {
                run_cell::<ReferenceMedium>(64, MacKind::Macaw, seed, dur, warm)
            }
        });
        let (reference, _, _, _, _) = pair.pop().expect("two cells");
        let (sparse, secs, footprint, streams, _) = pair.pop().expect("two cells");
        assert_eq!(
            sparse, reference,
            "sparse and reference runs must agree exactly"
        );
        assert!(
            sparse.total_throughput().is_finite() && sparse.total_throughput() > 0.0,
            "non-finite or zero total throughput"
        );
        // Sharded smoke: the same floor through the island-sharded engine
        // must retrace the serial run down to the f64 bit patterns.
        let (sharded, _) = scale_topology(&floor_config(64), MacKind::Macaw, seed)
            .run_with_shards(dur, warm, QUICK_SHARDS)
            .unwrap_or_else(|e| die(&e));
        assert_eq!(
            format!("{sparse:?}"),
            format!("{sharded:?}"),
            "{QUICK_SHARDS}-shard run must be bitwise identical to serial"
        );
        println!(
            "scale --quick: N=64 MACAW, {streams} streams, {} events in {:.1} ms, \
             {:.1} KiB medium, sparse == reference, serial == {QUICK_SHARDS}-shard",
            sparse.events_processed,
            secs * 1e3,
            footprint as f64 / 1024.0
        );
        return;
    }

    let dur = SimDuration::from_secs(5);
    let warm = SimDuration::from_secs(1);
    let sizes = [16usize, 64, 256, 1024];

    // Reference oracle vs sparse at N = 256: identical report, much slower
    // medium. Measured before the sweep, on a fresh heap, taking the best
    // of three runs per medium — the runs are deterministic, so repeats
    // must agree exactly and differ only in wall time.
    println!("reference vs sparse, N=256 MACAW (best of 3):");
    let best_of_3 = |run: &dyn Fn() -> (RunReport, f64, usize, usize, MediumStats)| {
        let (report, mut secs, bytes, streams, _) = run();
        for _ in 0..2 {
            let (again, s, _, _, _) = run();
            assert_eq!(report, again, "repeated runs of one cell must agree exactly");
            secs = secs.min(s);
        }
        (report, secs, bytes, streams)
    };
    let (sp_report, sp_secs, sp_bytes, _) =
        best_of_3(&|| run_cell::<SparseMedium>(256, MacKind::Macaw, seed, dur, warm));
    let (ref_report, ref_secs, ref_bytes, _) =
        best_of_3(&|| run_cell::<ReferenceMedium>(256, MacKind::Macaw, seed, dur, warm));
    assert_eq!(
        sp_report, ref_report,
        "sparse and reference N=256 runs must produce identical reports"
    );
    let speedup = ref_secs / sp_secs;
    println!(
        "  sparse {:>8.1} ms ({:>8.1} KiB)   reference {:>8.1} ms ({:>8.1} KiB)   speedup {speedup:.2}x, reports identical",
        sp_secs * 1e3,
        sp_bytes as f64 / 1024.0,
        ref_secs * 1e3,
        ref_bytes as f64 / 1024.0
    );
    assert!(
        speedup >= 5.0,
        "sparse N=256 run must be >= 5x faster than the reference oracle, got {speedup:.2}x"
    );

    println!("\nscale sweep: office floor, {sizes:?} stations x {{CSMA, MACA, MACAW}}, 5 s runs");
    // Above 1024 stations only MACAW runs — the point of the large cells
    // is per-event medium cost, and one protocol pins it down at a third
    // of the wall time. N = 65536 is the stamp-ordered slab's headline:
    // before it, the O(active) scans in `end_tx` made this size untenable.
    let large_sizes = [4096usize, 16384, 65536];
    let mut cells: Vec<Cell> = Vec::new();
    let run_sweep_cell = |n: usize, name: &'static str, mac: MacKind, cells: &mut Vec<Cell>| {
        alloc_stats::reset_peak();
        let (report, wall_secs, footprint, streams, medium) =
            run_cell::<SparseMedium>(n, mac, seed, dur, warm);
        let alloc_peak_live = alloc_stats::snapshot().map(|s| s.peak_bytes);
        let evps = report.events_processed as f64 / wall_secs;
        println!(
            "  {name:<6} N={n:<5} {streams:>5} streams  {:>9} events  {:>8.1} ms  \
             {:>6.2} Mev/s  {:>8.1} pps  fairness {:.3}  medium {:>8.1} KiB  \
             {:>5.1} terms/end  slab hw {}",
            report.events_processed,
            wall_secs * 1e3,
            evps / 1e6,
            report.total_throughput(),
            report.jain_fairness(),
            footprint as f64 / 1024.0,
            terms_per_end(&medium),
            medium.slab_high_water
        );
        assert!(
            report.total_throughput().is_finite() && report.total_throughput() > 0.0,
            "{name} N={n}: non-finite or zero throughput"
        );
        cells.push(Cell {
            protocol: name,
            stations: n,
            streams,
            footprint,
            report,
            wall_secs,
            rss_kb: peak_rss_kb(),
            alloc_peak_live,
            medium,
        });
    };
    for &n in &sizes {
        for (name, mac) in protocols() {
            run_sweep_cell(n, name, mac, &mut cells);
        }
    }
    for &n in &large_sizes {
        run_sweep_cell(n, "MACAW", MacKind::Macaw, &mut cells);
    }

    // The per-event-cost trajectory the slab was built for: events/s for
    // MACAW across the whole size range, normalized to the N = 1024 rate.
    let macaw_evps = |n: usize| {
        cells
            .iter()
            .find(|c| c.stations == n && c.protocol == "MACAW")
            .map(|c| c.report.events_processed as f64 / c.wall_secs)
            .expect("sweep covers this size")
    };
    let base_evps = macaw_evps(1024);
    println!("\nMACAW events/s vs N (relative to N=1024):");
    let mut trajectory_json = String::new();
    for &n in sizes.iter().chain(large_sizes.iter()) {
        let evps = macaw_evps(n);
        println!("  N={n:<6} {:>7.2} Mev/s  ({:>5.2}x of N=1024)", evps / 1e6, evps / base_evps);
        trajectory_json.push_str(&format!(
            "    {{ \"stations\": {n}, \"events_per_sec\": {:.0}, \"relative_to_n1024\": {:.4} }},\n",
            evps,
            evps / base_evps
        ));
    }
    trajectory_json.pop();
    trajectory_json.pop();
    trajectory_json.push('\n');

    // Serial vs sharded at large N, on the cellular floor (one island per
    // room). The default floor's edge coupling welds almost everything
    // into one island — recorded per row as `default_floor_islands` — so
    // it cannot parallelize; the cellular variant is the decomposable
    // regime. Reports are asserted bitwise identical inside each cell.
    let shards = std::thread::available_parallelism().map_or(2, |n| n.get().max(2));
    println!("\nsharded sweep: cellular floor, MACAW, serial vs {shards} shards");
    let mut shard_cells: Vec<ShardCell> = Vec::new();
    for &n in &[4096usize, 16384] {
        let c = run_shard_cell(n, seed, dur, warm, shards);
        let speedup = c.serial_secs / c.sharded_secs;
        println!(
            "  N={:<6} {:>5} streams  {:>5} islands (default floor: {})  serial {:>8.1} ms  \
             {}-shard {:>8.1} ms  speedup {speedup:.2}x  barrier share {:.3}",
            c.stations,
            c.streams,
            c.islands,
            c.default_floor_islands,
            c.serial_secs * 1e3,
            shards,
            c.sharded_secs * 1e3,
            c.stats.barrier_wait_share
        );
        shard_cells.push(c);
    }

    // Sub-quadratic memory: 16x stations must cost far less than 256x bytes.
    let bytes_at = |n: usize| {
        cells
            .iter()
            .find(|c| c.stations == n && c.protocol == "MACAW")
            .map(|c| c.footprint)
            .expect("sweep covers this size")
    };
    let (m64, m1024) = (bytes_at(64), bytes_at(1024));
    let growth = m1024 as f64 / m64 as f64;
    println!(
        "\nmedium memory: N=64 {:.1} KiB -> N=1024 {:.1} KiB ({growth:.1}x for 16x stations; quadratic would be 256x)",
        m64 as f64 / 1024.0,
        m1024 as f64 / 1024.0
    );
    assert!(
        growth < 256.0,
        "medium memory grew quadratically: {growth:.1}x"
    );

    let mut sweep_json = String::new();
    for c in &cells {
        let alloc = match c.alloc_peak_live {
            Some(b) => b.to_string(),
            None => "null".to_string(),
        };
        sweep_json.push_str(&format!(
            "    {{ \"protocol\": \"{}\", \"stations\": {}, \"streams\": {}, \"events\": {}, \
             \"wall_secs\": {:.6}, \"events_per_sec\": {:.0}, \"total_throughput_pps\": {:.3}, \
             \"jain_fairness\": {:.4}, \"medium_bytes\": {}, \"peak_rss_kb\": {}, \
             \"alloc_peak_live_bytes\": {}, \"medium_end_tx_ops\": {}, \"medium_folds\": {}, \
             \"medium_fold_terms\": {}, \"fold_terms_per_end_tx\": {:.2}, \
             \"slab_high_water\": {} }},\n",
            c.protocol,
            c.stations,
            c.streams,
            c.report.events_processed,
            c.wall_secs,
            c.report.events_processed as f64 / c.wall_secs,
            c.report.total_throughput(),
            c.report.jain_fairness(),
            c.footprint,
            c.rss_kb,
            alloc,
            c.medium.end_tx_ops,
            c.medium.folds,
            c.medium.fold_terms,
            terms_per_end(&c.medium),
            c.medium.slab_high_water
        ));
    }
    sweep_json.pop();
    sweep_json.pop(); // trailing ",\n"
    sweep_json.push('\n');

    let mut shard_json = String::new();
    for c in &shard_cells {
        let mut per_shard = String::new();
        for s in &c.stats.per_shard {
            per_shard.push_str(&format!(
                "        {{ \"islands\": {}, \"stations\": {}, \"streams\": {}, \
                 \"events\": {}, \"wall_secs\": {:.6} }},\n",
                s.islands, s.stations, s.streams, s.events, s.wall_secs
            ));
        }
        per_shard.pop();
        per_shard.pop();
        per_shard.push('\n');
        shard_json.push_str(&format!(
            "    {{\n      \"stations\": {}, \"streams\": {}, \"events\": {},\n      \
             \"islands\": {}, \"default_floor_islands\": {}, \"largest_island\": {},\n      \
             \"serial_wall_secs\": {:.6}, \"sharded_wall_secs\": {:.6}, \"speedup\": {:.2},\n      \
             \"shards\": {}, \"epochs\": {}, \"barrier_wait_share\": {:.4},\n      \
             \"reports_identical\": true,\n      \"per_shard\": [\n{per_shard}      ]\n    }},\n",
            c.stations,
            c.streams,
            c.events,
            c.islands,
            c.default_floor_islands,
            c.stats.largest_island,
            c.serial_secs,
            c.sharded_secs,
            c.serial_secs / c.sharded_secs,
            c.stats.shards,
            c.stats.epochs,
            c.stats.barrier_wait_share
        ));
    }
    shard_json.pop();
    shard_json.pop();
    shard_json.push('\n');

    // Recorded so readers can tell parallel speedup from working-set
    // reduction: with fewer cores than shards the threads time-slice.
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Build features that change what the walls measure (the counting
    // allocator wraps every allocation).
    let features = if alloc_stats::enabled() {
        "[\"alloc-stats\"]"
    } else {
        "[]"
    };

    let json = format!(
        "{{\n  \"workload\": \"random office floor (topology::scale_topology), seed {seed}, 5 s sim with 1 s warm-up\",\n  \
           \"features\": {features},\n  \
           \"peak_rss_note\": \"peak_rss_kb is the process-wide VmHWM high-water mark up to and including that cell — monotone, so cells smaller than whatever ran first repeat its value; alloc_peak_live_bytes is the true per-cell live-bytes peak from the counting allocator (null without --features alloc-stats)\",\n  \
           \"sweep\": [\n{sweep_json}  ],\n  \
           \"macaw_events_per_sec_trajectory_note\": \"MACAW events/s across the full size range, normalized to the N=1024 rate — flat-ish is the stamp-ordered slab working; the pre-slab build fell to ~0.04x by N=16384\",\n  \
           \"macaw_events_per_sec_trajectory\": [\n{trajectory_json}  ],\n  \
           \"reference_vs_sparse_n256_macaw\": {{\n    \
             \"sparse_wall_secs\": {sp_secs:.6},\n    \
             \"reference_wall_secs\": {ref_secs:.6},\n    \
             \"speedup\": {speedup:.2},\n    \
             \"sparse_medium_bytes\": {sp_bytes},\n    \
             \"reference_medium_bytes\": {ref_bytes},\n    \
             \"reports_identical\": true\n  }},\n  \
           \"memory_growth_64_to_1024\": {{\n    \
             \"bytes_n64\": {m64},\n    \
             \"bytes_n1024\": {m1024},\n    \
             \"growth_factor\": {growth:.2},\n    \
             \"quadratic_reference\": 256.0\n  }},\n  \
           \"sharded_sweep_note\": \"cellular floor (room_inset_ft 6, walker_share 0) under MACAW: one coupling island per room, run serially and via run_with_shards — bitwise-identical reports, wall time includes scenario build for both; epochs is 1 by design (zero propagation delay leaves no lookahead to window — whole islands are the unit of parallelism, see DESIGN.md 'Parallel DES'); interpret speedup against host_cores — on a single-core host any gain is per-shard working-set reduction, not parallelism (DESIGN.md 'Measured results')\",\n  \
           \"host_cores\": {host_cores},\n  \
           \"sharded_sweep\": [\n{shard_json}  ]\n}}\n"
    );
    if let Err(e) = std::fs::write(&out_path, json) {
        eprintln!("cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    println!("wrote {out_path}");
}

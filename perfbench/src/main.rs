//! The benchmark command.
//!
//! ```text
//! perfbench --workload <paper_tables|office_floor|campus_walk|proof_matrix|all>
//!           [--seed N] [--seconds S] [--trace 0|1] [--spans PATH]
//! ```
//!
//! Repeats passes of the workload on one thread for `--seconds` (at least
//! two passes), checks every output, and prints each metric by
//! name and unit, then one JSON line: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics of a separate traced run with
//! `--trace 1`. `--spans` writes the last traced pass's sampled spans as
//! CSV.

use std::io::Write;
use std::path::PathBuf;
use std::process::exit;
use std::time::{Duration, Instant};

use macaw_perfbench::run::{run_pass, Pass};
use macaw_perfbench::seams::{clock_cost_ns, trace_begin, trace_end, Site, Span, TraceTotals};
use macaw_perfbench::workloads::{Size, Workload};

/// The seed whose outputs are recorded in `expected.txt`.
const DEFAULT_SEED: u64 = 1;

/// `workload <TAB> label <TAB> fingerprint`, one line per run or proof
/// row of the default seed.
const EXPECTED: &str = include_str!("../expected.txt");

/// Passes per run, whatever `--seconds` says: the repeat check needs two.
const MIN_PASSES: usize = 2;

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    spans: Option<PathBuf>,
}

fn usage(msg: &str) -> ! {
    eprintln!("{msg}");
    eprintln!(
        "usage: perfbench --workload <paper_tables|office_floor|campus_walk|proof_matrix|all> \
         [--seed N] [--seconds S] [--trace 0|1] [--spans PATH]"
    );
    exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        seconds: 30,
        trace: false,
        spans: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            usage(&format!("{flag} needs a value"));
        };
        let number = || {
            value
                .parse::<u64>()
                .unwrap_or_else(|_| usage(&format!("{flag} wants a whole number, got {value:?}")))
        };
        match flag.as_str() {
            "--workload" if value == "all" => args.workloads = Workload::ALL.to_vec(),
            "--workload" => match Workload::parse(&value) {
                Some(w) => args.workloads = vec![w],
                None => usage(&format!("unknown workload {value:?}")),
            },
            "--seed" => args.seed = number(),
            "--seconds" => args.seconds = number(),
            "--trace" => match value.as_str() {
                "0" => args.trace = false,
                "1" => args.trace = true,
                _ => usage(&format!("--trace wants 0 or 1, got {value:?}")),
            },
            "--spans" => args.spans = Some(PathBuf::from(value)),
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    if args.workloads.is_empty() {
        usage("--workload is required");
    }
    args
}

/// Refuse to time a build whose timing is distorted: debug assertions
/// (the medium's reference-fold checks) or the counting allocator.
fn build_guard() {
    let alloc_stats = macaw_bench::alloc_stats::enabled();
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "build host_cores={cores} profile={profile} debug_assertions={} features={} \
         sim_threads=1 jobs=1 shards=1 run_cache=off",
        cfg!(debug_assertions),
        if alloc_stats { "alloc-stats" } else { "none" },
    );
    if cfg!(debug_assertions) || alloc_stats {
        eprintln!("refusing to time a build with debug assertions or alloc-stats");
        exit(2);
    }
}

fn main() {
    let args = parse_args();
    build_guard();
    for &w in &args.workloads {
        let out = measure(w, &args);
        println!("{out}");
    }
}

/// The repeated passes of one workload run.
struct Runs {
    untraced: Vec<Pass>,
    traced: Vec<(Pass, TraceTotals)>,
    clock_ns: f64,
    /// Peak resident set after the first pass: later passes only add
    /// allocator fragmentation.
    peak_rss_mb: f64,
}

/// Run `w` for the requested time and return its JSON result line.
fn measure(w: Workload, args: &Args) -> String {
    let start = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    let clock_ns = if args.trace { clock_cost_ns() } else { 0.0 };
    let mut runs = Runs {
        untraced: Vec::new(),
        traced: Vec::new(),
        clock_ns,
        peak_rss_mb: 0.0,
    };
    let mut spans: Vec<Span> = Vec::new();
    // Start another pass only while it is expected to end within the
    // budget, taking the last pass's duration as the estimate.
    loop {
        let t = Instant::now();
        runs.untraced
            .push(run_pass(w, Size::Full, args.seed, false));
        if runs.untraced.len() == 1 {
            runs.peak_rss_mb = peak_rss_mb();
        }
        if args.trace {
            trace_begin();
            let pass = run_pass(w, Size::Full, args.seed, true);
            let (totals, s) = trace_end(clock_ns);
            runs.traced.push((pass, totals));
            spans = s;
        }
        if runs.untraced.len() >= MIN_PASSES && start.elapsed() + t.elapsed() > budget {
            break;
        }
    }
    if let Some(path) = &args.spans {
        if let Err(e) = write_spans(path, &spans) {
            eprintln!("cannot write spans to {}: {e}", path.display());
            exit(1);
        }
    }

    let (attempted, failed) = check_outputs(w, args.seed, &runs);
    let e2e = end_to_end(&runs.untraced, runs.peak_rss_mb);
    let share = failed as f64 / attempted as f64;
    println!(
        "workload {} seed {} passes {}",
        w.name(),
        args.seed,
        runs.untraced.len()
    );
    for m in &e2e {
        print!("  {:<14} {:>16.6} {:<6}", m.name, m.value, m.unit);
        match m.per_pass {
            Some((median, max, n)) => println!(" per pass: median {median:.6} max {max:.6} n={n}"),
            None => println!(),
        }
    }
    println!(
        "  {:<14} {:>16.6} {:<6} ({failed} of {attempted})",
        "failed_share", share, "ratio"
    );
    if let Some(err) = runs.untraced[0].paper_err {
        println!("  {:<14} {:>16.6} {:<6}", "paper_err", err, "ratio");
    }
    let metrics: Vec<(String, f64, &str)> = if args.trace {
        let layers = per_layer(w, &runs);
        for (name, value, unit) in &layers {
            println!("  {name:<32} {value:>18.6} {unit}");
        }
        layers
    } else {
        e2e.iter()
            .map(|m| (m.name.to_string(), m.value, m.unit))
            .collect()
    };
    result_json(failed == 0, attempted, failed, &metrics)
}

/// Count failed runs and rows: errors, watchdog trips, and every output
/// that differs from the first pass (repeats and traced passes alike) or
/// from the fingerprint recorded for the default seed. A traced pass whose
/// medium counters differ from the untraced one is a failure too: a
/// wrapper changed what the medium did.
fn check_outputs(w: Workload, seed: u64, runs: &Runs) -> (u64, u64) {
    let reference = &runs.untraced[0];
    let mut attempted = 0;
    let mut failed = 0;
    let passes = runs
        .untraced
        .iter()
        .chain(runs.traced.iter().map(|(p, _)| p));
    for (i, p) in passes.enumerate() {
        attempted += p.attempted;
        failed += p.failed;
        if i > 0 {
            failed += mismatches(&reference.outputs, &p.outputs);
        }
    }
    for (p, _) in &runs.traced {
        if p.medium != reference.medium {
            eprintln!("traced medium counters differ from the untraced run");
            failed += 1;
        }
    }
    // The proof rows run at the matrix's own checker seed, so their
    // outputs are recorded for every run seed.
    if seed == DEFAULT_SEED || w == Workload::ProofMatrix {
        let expected: Vec<(String, String)> = EXPECTED
            .lines()
            .filter_map(|l| {
                let mut f = l.split('\t');
                (f.next() == Some(w.name())).then(|| {
                    let label = f.next().unwrap_or_default().to_string();
                    (label, f.next().unwrap_or_default().to_string())
                })
            })
            .collect();
        let bad = mismatches(&expected, &reference.outputs);
        if bad > 0 {
            for (label, fp) in &reference.outputs {
                eprintln!("output\t{}\t{label}\t{fp}", w.name());
            }
        }
        failed += bad;
    }
    (attempted.max(1), failed)
}

/// Entries of `got` that differ from `want` position by position, plus
/// any missing or extra ones.
fn mismatches(want: &[(String, String)], got: &[(String, String)]) -> u64 {
    let differ = want.iter().zip(got).filter(|(a, b)| a != b).count();
    (differ + want.len().abs_diff(got.len())) as u64
}

struct E2e {
    name: &'static str,
    unit: &'static str,
    value: f64,
    /// Per-pass median and maximum with the pass count: a run has too few
    /// passes for any percentile below the maximum to have ten samples
    /// beyond it.
    per_pass: Option<(f64, f64, usize)>,
}

fn median_max(mut xs: Vec<f64>) -> (f64, f64, usize) {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    let median = if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    };
    (median, xs[n - 1], n)
}

/// The sum over a pass's timed pieces of the fastest time each piece took
/// in any pass of the run. Other work on the host only ever slows a piece
/// down, and a piece is short (a slice of one simulation, or one subtree
/// job of a proof row), so some pass usually runs it undisturbed: this is
/// the steadiest estimate of what the code itself costs.
fn fastest_pieces(passes: &[Pass], pieces: impl Fn(&Pass) -> &[f64]) -> f64 {
    (0..pieces(&passes[0]).len())
        .map(|k| {
            passes
                .iter()
                .filter_map(|p| pieces(p).get(k).copied())
                .fold(f64::INFINITY, f64::min)
        })
        .sum()
}

fn end_to_end(passes: &[Pass], peak_rss_mb: f64) -> Vec<E2e> {
    let wall = fastest_pieces(passes, |p| &p.run_pieces);
    let setup = fastest_pieces(passes, |p| &p.setup_pieces);
    let col = |f: fn(&Pass) -> f64| Some(median_max(passes.iter().map(f).collect()));
    vec![
        E2e {
            name: "wall_s",
            unit: "s",
            value: wall,
            per_pass: col(|p| p.wall_s()),
        },
        E2e {
            name: "events_per_s",
            unit: "1/s",
            value: ratio(passes[0].events as f64, wall),
            per_pass: col(|p| ratio(p.events as f64, p.wall_s())),
        },
        E2e {
            name: "setup_s",
            unit: "s",
            value: setup,
            per_pass: col(|p| p.setup_s()),
        },
        E2e {
            name: "peak_rss_mb",
            unit: "MB",
            value: peak_rss_mb,
            per_pass: None,
        },
    ]
}

/// Peak resident set of this process (VmHWM), in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(0.0);
    kb / 1024.0
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn mean(xs: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = xs.fold((0.0, 0usize), |(s, n), x| (s + x, n + 1));
    ratio(sum, n as f64)
}

/// The per-layer metrics of the traced passes. Counts are the same in
/// every pass; times are means over the traced passes. Every metric is
/// printed for every workload, zero where the workload does not exercise
/// the layer.
fn per_layer(w: Workload, runs: &Runs) -> Vec<(String, f64, &'static str)> {
    let traced = &runs.traced;
    let last = &traced[traced.len() - 1].0;
    let totals = &traced[traced.len() - 1].1;
    let self_s = |s: Site| mean(traced.iter().map(|(_, t)| t.site(s).self_s));
    let calls = |s: Site| totals.site(s).calls as f64;
    let traced_wall = mean(traced.iter().map(|(p, _)| p.wall_s()));
    let untraced_wall = mean(runs.untraced.iter().map(|p| p.wall_s()));
    let events = last.events as f64;
    let checker = w == Workload::ProofMatrix;

    let mut m: Vec<(String, f64, &'static str)> = Vec::new();
    let mut put =
        |name: &str, value: f64, unit: &'static str| m.push((name.to_string(), value, unit));

    let fel_s = self_s(Site::FelOp);
    put("sim.fel.pushes", totals.fel_pushes as f64, "count");
    put("sim.fel.pops", totals.fel_pops as f64, "count");
    put("sim.fel.high_water", totals.fel_high_water as f64, "count");
    put("sim.fel.self_s", fel_s, "s");
    put(
        "sim.fel.ns_per_op",
        ratio(fel_s * 1e9, calls(Site::FelOp)),
        "ns",
    );

    let phy_sites = [
        Site::StartTx,
        Site::EndTx,
        Site::SetPositions,
        Site::CarrierBusy,
    ];
    let mut phy_s = 0.0;
    for s in phy_sites {
        let t = self_s(s);
        phy_s += t;
        put(&format!("{}.calls", s.name()), calls(s), "count");
        put(&format!("{}.self_s", s.name()), t, "s");
        put(
            &format!("{}.ns_per_call", s.name()),
            ratio(t * 1e9, calls(s)),
            "ns",
        );
    }
    let med = &last.medium;
    put(
        "phy.set_positions.ns_per_move",
        ratio(
            self_s(Site::SetPositions) * 1e9,
            med.set_position_ops as f64,
        ),
        "ns",
    );
    put(
        "phy.fold_terms_per_end_tx",
        ratio(med.fold_terms as f64, med.end_tx_ops as f64),
        "ratio",
    );
    put(
        "phy.move_noop_share",
        ratio(med.move_noop_ops as f64, med.set_position_ops as f64),
        "ratio",
    );
    put(
        "phy.clean_rx_ratio",
        ratio(totals.rx_clean as f64, totals.rx_all as f64),
        "ratio",
    );
    put("phy.slab_high_water", med.slab_high_water as f64, "count");
    put("phy.memory_bytes", last.memory_bytes as f64, "bytes");

    let mac = &last.mac;
    put("mac.rts_sent", mac.rts_sent as f64, "count");
    put("mac.rts_timeouts", mac.rts_timeouts as f64, "count");
    put("mac.ack_timeouts", mac.ack_timeouts as f64, "count");
    put("mac.packets_dropped", mac.packets_dropped as f64, "count");
    put(
        "mac.exchange_success",
        ratio(mac.packets_sent_ok as f64, mac.rts_sent as f64),
        "ratio",
    );
    put(
        "mac.control_per_data",
        ratio(mac.control_sent as f64, mac.data_sent as f64),
        "ratio",
    );

    let residual = if checker {
        0.0
    } else {
        traced_wall - phy_s - fel_s
    };
    put("core.events", if checker { 0.0 } else { events }, "count");
    put("core.residual_s", residual, "s");
    put(
        "core.ns_per_event",
        ratio(residual * 1e9, if checker { 0.0 } else { events }),
        "ns",
    );
    put(
        "setup.topology_s",
        mean(traced.iter().map(|(p, _)| p.topology_s)),
        "s",
    );
    put(
        "setup.build_s",
        mean(traced.iter().map(|(p, _)| p.build_s)),
        "s",
    );
    put(
        "setup.partition_s",
        mean(traced.iter().map(|(p, _)| p.partition_s)),
        "s",
    );

    let mac_s = self_s(Site::MacStep) + self_s(Site::MacSnapshot) + self_s(Site::MacRelabel);
    let states = if checker { events } else { 0.0 };
    put("check.states", states, "count");
    put(
        "check.dedup_ratio",
        ratio(last.dedup_hits as f64, states),
        "ratio",
    );
    put("check.sleep_skips", last.sleep_skips as f64, "count");
    put(
        "check.states_per_s",
        ratio(states, if checker { untraced_wall } else { 0.0 }),
        "1/s",
    );
    put("check.mac.self_s", mac_s, "s");
    put(
        "check.mac.snapshot_calls",
        calls(Site::MacSnapshot),
        "count",
    );
    put("check.mac.relabel_calls", calls(Site::MacRelabel), "count");
    put(
        "check.explore.self_s",
        if checker { traced_wall - mac_s } else { 0.0 },
        "s",
    );

    put("trace.wall_s", traced_wall, "s");
    put("trace.untraced_wall_s", untraced_wall, "s");
    put("trace.overhead_s", traced_wall - untraced_wall, "s");
    put("trace.clock_ns", runs.clock_ns, "ns");
    put(
        "model.paper_err",
        runs.untraced[0].paper_err.unwrap_or(0.0),
        "ratio",
    );
    m
}

/// The result line: `correct`, `attempted`, `failed` and the metrics,
/// each value with all its digits.
fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn write_spans(path: &PathBuf, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "site,start_ns,dur_ns")?;
    for s in spans {
        writeln!(out, "{},{},{}", s.site.name(), s.start_ns, s.dur_ns)?;
    }
    out.flush()
}

//! Multi-seed replication sweep: every paper table as mean ± 95% CI over
//! R independent seeds, written to `BENCH_replicate.json`.
//!
//! Usage:
//!   replicate [--quick] [--seed N] [--reps R] [--dur SECS] [--jobs N]
//!             [--out PATH] [--no-check]
//!
//! Two phases, every run of this binary:
//!
//! 1. **Parallel sweep** — every `(table, run, replication)` triple runs
//!    on the work-stealing executor.
//! 2. **Serial check** (skippable with `--no-check`) — the same sweep on
//!    one worker. The aggregates must be bitwise identical to phase 1's,
//!    and the serial/parallel wall ratio is the printed speedup.
//!
//! Wall times and the speedup go to stdout only: the JSON holds the
//! deterministic aggregates, so every worker count writes the same bytes.
//!
//! `--quick` is the CI smoke (`scripts/verify.sh`): R = 3 at 10 s, both
//! phases live, no JSON.

use macaw_bench::executor::{parse_jobs_arg, Executor};
use macaw_bench::replicate::{sweep, to_json, SweepConfig};
use macaw_bench::stopwatch::time_once;
use macaw_bench::{TableSpec, TABLE_SPECS};
use macaw_core::prelude::SimDuration;

fn die(e: &dyn std::fmt::Display) -> ! {
    eprintln!("simulation failed: {e}");
    std::process::exit(1);
}

fn usage_and_exit(msg: &str) -> ! {
    eprintln!("{msg}");
    eprintln!(
        "usage: replicate [--quick] [--seed N] [--reps R] [--dur SECS] [--jobs N] \
         [--out PATH] [--no-check]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut root_seed = 1u64;
    let mut reps = 16u32;
    let mut dur_secs = 100u64;
    let mut jobs: Option<usize> = None;
    let mut out_path = "BENCH_replicate.json".to_string();
    let mut check = true;
    fn value_of(args: &[String], i: &mut usize, what: &str) -> String {
        *i += 1;
        match args.get(*i) {
            Some(v) => v.clone(),
            None => usage_and_exit(&format!("{what} takes a value")),
        }
    }
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => quick = true,
            "--no-check" => check = false,
            "--seed" => {
                root_seed = value_of(&args, &mut i, "--seed")
                    .parse()
                    .unwrap_or_else(|_| usage_and_exit("--seed takes an integer"))
            }
            "--reps" => {
                reps = value_of(&args, &mut i, "--reps")
                    .parse()
                    .unwrap_or_else(|_| usage_and_exit("--reps takes an integer >= 1"))
            }
            "--dur" => {
                dur_secs = value_of(&args, &mut i, "--dur")
                    .parse()
                    .unwrap_or_else(|_| usage_and_exit("--dur takes seconds"))
            }
            "--jobs" => {
                jobs = Some(
                    parse_jobs_arg(&value_of(&args, &mut i, "--jobs"))
                        .unwrap_or_else(|e| usage_and_exit(&e)),
                )
            }
            "--out" => out_path = value_of(&args, &mut i, "--out"),
            other => usage_and_exit(&format!("unknown argument {other}")),
        }
        i += 1;
    }
    if quick {
        reps = 3;
        dur_secs = 10;
    }
    if reps < 1 || dur_secs < 1 {
        usage_and_exit("--reps and --dur must be >= 1");
    }

    let cfg = SweepConfig {
        root_seed,
        replications: reps,
        dur: SimDuration::from_secs(dur_secs),
    };
    let specs: Vec<&TableSpec> = TABLE_SPECS.iter().collect();
    let parallel = jobs.map(Executor::new).unwrap_or_else(Executor::per_core);

    println!(
        "replicate: {} tables x R={reps} seeds (root {root_seed}), base {dur_secs} s, {} workers",
        specs.len(),
        parallel.workers(),
    );

    // Phase 1: parallel sweep.
    let (par, par_secs) = time_once(|| sweep(&parallel, &specs, &cfg).unwrap_or_else(|e| die(&e)));
    println!(
        "  parallel: {} simulations in {:.2} s",
        par.total_jobs, par_secs
    );

    // Phase 2: serial — the bitwise serial==parallel check and the
    // speedup denominator.
    if check {
        let (serial, ser_secs) =
            time_once(|| sweep(&Executor::serial(), &specs, &cfg).unwrap_or_else(|e| die(&e)));
        assert_eq!(
            par.fingerprint_text(),
            serial.fingerprint_text(),
            "parallel and serial aggregates must be bitwise identical"
        );
        let speedup = ser_secs / par_secs;
        println!(
            "  serial:   {} simulations in {:.2} s — aggregates bitwise identical; \
             speedup {speedup:.2}x",
            serial.total_jobs, ser_secs
        );
    }

    if quick {
        println!("replicate --quick: done, no JSON written");
        return;
    }

    for t in &par.tables {
        println!("{}", t.render());
    }
    let json = to_json(&par, &cfg);
    if let Err(e) = std::fs::write(&out_path, json) {
        eprintln!("cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    println!("wrote {out_path}");
}

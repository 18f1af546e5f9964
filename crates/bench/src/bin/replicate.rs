//! Multi-seed replication sweep: every paper table as mean ± 95% CI over
//! [`REPS`] independent seeds at the default 500 s base duration, written
//! to `BENCH_replicate.json`.
//!
//! Usage:
//!   replicate [--seed N] [--jobs N] [--out PATH]
//!
//! Every `(table, run, replication)` triple is one job of the one table
//! sweep (`run_specs_with`) on the executor. The JSON holds only the
//! deterministic aggregates, so every worker count writes the same bytes
//! (`tests/executor.rs`), and `scripts/verify.sh` compares the file with
//! the committed one byte for byte.

use macaw_bench::replicate::{sweep, to_json, SweepConfig};
use macaw_bench::{default_duration, parse_jobs_arg, TableSpec, TABLE_SPECS};
use macaw_core::Executor;

/// Replications R: seeds per `(table, run)`.
const REPS: u32 = 16;

fn die(e: &dyn std::fmt::Display) -> ! {
    eprintln!("simulation failed: {e}");
    std::process::exit(1);
}

fn usage_and_exit(msg: &str) -> ! {
    eprintln!("{msg}");
    eprintln!("usage: replicate [--seed N] [--jobs N] [--out PATH]");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut root_seed = 1u64;
    let mut jobs: Option<usize> = None;
    let mut out_path = "BENCH_replicate.json".to_string();
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
            "--seed" => {
                root_seed = value_of(&args, &mut i, "--seed")
                    .parse()
                    .unwrap_or_else(|_| usage_and_exit("--seed takes an integer"))
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

    let cfg = SweepConfig {
        root_seed,
        replications: REPS,
        dur: default_duration(),
    };
    let specs: Vec<&TableSpec> = TABLE_SPECS.iter().collect();
    let ex = jobs.map(Executor::new).unwrap_or_else(Executor::per_core);
    println!(
        "replicate: {} tables x R={REPS} seeds (root {root_seed}), base {} s, {} workers",
        specs.len(),
        cfg.dur.as_secs_f64(),
        ex.workers(),
    );

    let rep = sweep(&ex, &specs, &cfg).unwrap_or_else(|e| die(&e));
    for t in &rep.tables {
        println!("{}", t.render());
    }
    let json = to_json(&rep, &cfg);
    if let Err(e) = std::fs::write(&out_path, json) {
        eprintln!("cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    println!("wrote {out_path}");
}

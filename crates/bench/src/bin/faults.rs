//! Fault-injection ablation: every fault class across the protocol
//! ladder, written to `BENCH_faults.json`.
//!
//! Usage:
//!   faults [--seed N] [--out PATH] [--jobs N]
//!
//! Runs 15 simulations of 120 s each. Exits non-zero if any class fails,
//! any goodput comes out non-finite, or the headline corruption claim
//! (MACAW ahead of MACA on a corrupting channel) does not hold.
//! `scripts/verify.sh` re-derives the committed `BENCH_faults.json` and
//! compares it byte for byte. `--jobs N` (default: one worker per core)
//! pins the executor's worker count, with identical output for any count.

use macaw_bench::executor::{parse_jobs_arg, Executor};
use macaw_bench::faults::all_faults_with;
use macaw_core::prelude::SimDuration;

fn die(e: &dyn std::fmt::Display) -> ! {
    eprintln!("simulation failed: {e}");
    std::process::exit(1);
}

fn usage_and_exit(msg: &str) -> ! {
    eprintln!("{msg}");
    eprintln!("usage: faults [--seed N] [--out PATH] [--jobs N]");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let dur = SimDuration::from_secs(120);
    let mut seed = 7u64;
    let mut out_path = "BENCH_faults.json".to_string();
    let mut jobs: Option<usize> = None;
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

    // Every (class, protocol) cell is an independent executor job;
    // identical output to the serial runner (asserted in
    // tests/determinism.rs).
    let ex = jobs.map(Executor::new).unwrap_or_else(Executor::per_core);
    let results = all_faults_with(&ex, seed, dur).unwrap_or_else(|e| die(&e));

    for t in &results {
        for total in t.totals() {
            assert!(
                total.is_finite() && total >= 0.0,
                "{}: non-finite goodput",
                t.class
            );
        }
    }
    let corr = results
        .iter()
        .find(|t| t.class == "corruption")
        .unwrap_or_else(|| die(&"corruption class missing"));
    let totals = corr.totals();
    let (maca, macaw) = (totals[1], totals[2]);
    assert!(
        macaw > 0.0 && macaw > maca,
        "corruption claim failed: MACAW {macaw:.2} pps vs MACA {maca:.2} pps"
    );

    for t in &results {
        println!("{}", t.render());
        println!("{}", "-".repeat(60));
    }

    let classes: Vec<String> = results.iter().map(|t| t.to_json()).collect();
    let json = format!(
        "{{\n  \"workload\": \"all_faults(seed={seed}, {}s) — protocol ladder under injected faults\",\n  \
           \"classes\": [\n{}\n  ]\n}}\n",
        dur.as_secs_f64() as u64,
        classes.join(",\n")
    );
    if let Err(e) = std::fs::write(&out_path, json) {
        eprintln!("cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    println!("wrote {out_path}");
}

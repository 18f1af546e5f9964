//! Fault-injection ablation: every fault class across the protocol
//! ladder, written to `BENCH_faults.json`.
//!
//! Usage:
//!   faults [--quick] [--smoke] [--seed N] [--out PATH] [--jobs N]
//!
//! `--quick` runs 30-second simulations instead of 120 s. `--smoke` is
//! the CI mode (`scripts/verify.sh`): 10-second runs, assertions only,
//! no JSON — non-zero exit if any class fails, any goodput comes out
//! non-finite, or the headline corruption claim (MACAW ahead of MACA on
//! a corrupting channel) does not hold. `--jobs N` (or `MACAW_JOBS`)
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
    eprintln!("usage: faults [--quick] [--smoke] [--seed N] [--out PATH] [--jobs N]");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut dur = SimDuration::from_secs(120);
    let mut smoke = false;
    let mut seed = 7u64;
    let mut out_path = "BENCH_faults.json".to_string();
    let mut jobs: Option<usize> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => dur = SimDuration::from_secs(30),
            "--smoke" => {
                smoke = true;
                dur = SimDuration::from_secs(10);
            }
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
    let ex = jobs.map(Executor::new).unwrap_or_else(Executor::from_env);
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

    if smoke {
        println!(
            "faults --smoke: {} classes ok, corruption MACAW {macaw:.2} pps > MACA {maca:.2} pps",
            results.len()
        );
        return;
    }

    for t in &results {
        println!("{}", t.render());
        println!("{}", "-".repeat(60));
    }

    let classes: Vec<String> = results.iter().map(|t| t.to_json()).collect();
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let json = format!(
        "{{\n  \"workload\": \"all_faults(seed={seed}, {}s) — protocol ladder under injected faults\",\n  \
           \"host_cores\": {host_cores},\n  \
           \"workers\": 1,\n  \
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

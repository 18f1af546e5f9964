//! Regenerate every table of the MACAW paper and print paper-vs-measured.
//!
//! Usage:
//!   tables [--quick] [--seed N] [--table ID] [--jobs N]
//!
//! `--quick` runs 100-second simulations instead of the paper's 500 s
//! (2000 s for Table 11); `--table 5` runs only Table 5 (and `--table 1`
//! also matches Figure 1). Every simulation is an independent
//! deterministic job of the one table sweep (`run_specs_with`), longest
//! table first, and the tables are printed in paper order, on one worker
//! per core unless `--jobs N` pins the count; output is byte-identical
//! for any count, and `--jobs 1` runs every simulation in turn on the
//! calling thread.

use macaw_bench::{default_duration, parse_jobs_arg, run_specs_with, TableSpec, TABLE_SPECS};
use macaw_core::prelude::SimDuration;
use macaw_core::Executor;

fn usage_and_exit() -> ! {
    eprintln!("usage: tables [--quick] [--seed N] [--table <n>] [--jobs N]");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut dur = default_duration();
    let mut seed = 1u64;
    let mut only: Option<String> = None;
    let mut jobs: Option<usize> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => dur = SimDuration::from_secs(100),
            "--seed" => {
                i += 1;
                seed = match args.get(i).map(|s| s.parse()) {
                    Some(Ok(n)) => n,
                    _ => {
                        eprintln!("--seed takes an integer");
                        usage_and_exit();
                    }
                };
            }
            "--jobs" => {
                i += 1;
                jobs = match args.get(i).map(|s| parse_jobs_arg(s)) {
                    Some(Ok(n)) => Some(n),
                    Some(Err(e)) => {
                        eprintln!("{e}");
                        usage_and_exit();
                    }
                    None => {
                        eprintln!("--jobs takes a worker count");
                        usage_and_exit();
                    }
                };
            }
            "--table" => {
                i += 1;
                match args.get(i) {
                    Some(t) => only = Some(t.clone()),
                    None => {
                        eprintln!("--table takes a table id");
                        usage_and_exit();
                    }
                }
            }
            other => {
                eprintln!("unknown argument {other}");
                usage_and_exit();
            }
        }
        i += 1;
    }

    // Select before running, so `--table 5` costs one table, not twelve.
    let selected: Vec<&TableSpec> = TABLE_SPECS
        .iter()
        .filter(|spec| match &only {
            None => true,
            Some(want) => {
                // Accept "5", "table 5", "Figure 1" — but never by substring
                // ("1" must not also select Tables 10 and 11).
                let want = want.to_lowercase();
                spec.id.to_lowercase() == want
                    || spec.id.split_whitespace().last() == Some(want.as_str())
            }
        })
        .collect();
    if selected.is_empty() {
        eprintln!("no table matches {:?}", only.unwrap_or_default());
        let valid: Vec<&str> = TABLE_SPECS.iter().map(|s| s.id).collect();
        eprintln!("valid tables: {}", valid.join(", "));
        std::process::exit(2);
    }

    let ex = jobs.map(Executor::new).unwrap_or_else(Executor::per_core);
    let results = match run_specs_with(&ex, &selected, &[seed], dur) {
        Ok(mut per_seed) => per_seed.remove(0),
        Err(e) => {
            eprintln!("simulation failed: {e}");
            std::process::exit(1);
        }
    };

    for t in results {
        println!("{}", t.render());
        let paper = t.paper_totals();
        let meas = t.totals();
        print!("totals:");
        for (c, (p, m)) in t.columns.iter().zip(paper.iter().zip(&meas)) {
            print!("  {c}: paper {p:.1} / measured {m:.1}");
        }
        println!("\n{}", "-".repeat(72));
    }
}

//! Fault-injection ablation: every fault class across the protocol
//! ladder, written to `BENCH_faults.json`.
//!
//! Usage:
//!   faults [--out PATH] [--jobs N]
//!
//! Runs 15 simulations of 120 s each at seed [`SEED`]. Exits non-zero if
//! any class fails, any goodput comes out non-finite, or the headline
//! corruption claim (MACAW ahead of MACA on a corrupting channel) does not
//! hold. `scripts/verify.sh` re-derives the committed `BENCH_faults.json`
//! and compares it byte for byte. `--jobs N` (default: one worker per
//! core) pins the executor's worker count, with identical output for any
//! count.

use macaw_bench::cli::{die, Cli};
use macaw_bench::faults::all_faults_with;
use macaw_core::prelude::SimDuration;

/// The seed of the committed `BENCH_faults.json`.
const SEED: u64 = 7;

fn main() {
    let cli = Cli::parse("faults", "BENCH_faults.json");
    let dur = SimDuration::from_secs(120);

    // Every (class, protocol) cell is an independent executor job;
    // identical output to the serial runner (asserted in
    // tests/determinism.rs).
    let results = all_faults_with(&cli.executor, SEED, dur).unwrap_or_else(|e| die(&e));

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
        "{{\n  \"workload\": \"faults::all_faults_with(seed={SEED}, {} s) — protocol ladder under injected faults\",\n  \
           \"classes\": [\n{}\n  ]\n}}\n",
        dur.as_secs_f64() as u64,
        classes.join(",\n")
    );
    cli.write(&json);
}

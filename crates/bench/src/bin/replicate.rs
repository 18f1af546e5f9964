//! Multi-seed replication sweep: every paper table as mean ± 95% CI over
//! [`REPS`] independent seeds at the default 500 s base duration, written
//! to `BENCH_replicate.json`.
//!
//! Usage:
//!   replicate [--out PATH] [--jobs N]
//!
//! Every `(table, run, replication)` triple is one job of the one table
//! sweep (`run_specs_with`) on the executor, seeded from [`ROOT_SEED`].
//! The JSON holds only the deterministic aggregates, so every worker count
//! writes the same bytes (`tests/executor.rs`), and `scripts/verify.sh`
//! compares the file with the committed one byte for byte.

use macaw_bench::cli::{die, Cli};
use macaw_bench::replicate::{sweep, to_json, SweepConfig};
use macaw_bench::{default_duration, TableSpec, TABLE_SPECS};

/// Replications R: seeds per `(table, run)`.
const REPS: u32 = 16;

/// The root seed of the committed `BENCH_replicate.json`.
const ROOT_SEED: u64 = 1;

fn main() {
    let cli = Cli::parse("replicate", "BENCH_replicate.json");
    let cfg = SweepConfig {
        root_seed: ROOT_SEED,
        replications: REPS,
        dur: default_duration(),
    };
    let specs: Vec<&TableSpec> = TABLE_SPECS.iter().collect();
    println!(
        "replicate: {} tables x R={REPS} seeds (root {ROOT_SEED}), base {} s, {} workers",
        specs.len(),
        cfg.dur.as_secs_f64(),
        cli.executor.workers(),
    );

    let rep = sweep(&cli.executor, &specs, &cfg).unwrap_or_else(|e| die(&e));
    for t in &rep.tables {
        println!("{}", t.render());
    }
    cli.write(&to_json(&rep, &cfg));
}

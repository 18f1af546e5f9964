//! Cross-module guarantees of the batch-execution layer: the executor
//! and the one table sweep composed the way the bench binaries compose
//! them.
//!
//! Everything here asserts *bitwise* agreement (`Debug` renders f64 via
//! the shortest round-trippable decimal, so string equality is bit
//! equality) — the batch layer's contract is that worker count and job
//! timing are unobservable in the output.

use macaw_bench::replicate::{sweep, SweepConfig};
use macaw_bench::{run_specs_with, table_spec, TableSpec};
use macaw_core::prelude::SimDuration;
use macaw_core::Executor;
use macaw_sim::SimRng;

/// A small but heterogeneous spec subset: Figure 1 (3 runs), Table 3
/// (2 runs), Table 9 (2 runs) — more jobs than most worker counts, so
/// workers race for the cursor, without slowing the suite down.
fn specs() -> Vec<&'static TableSpec> {
    ["Figure 1", "Table 3", "Table 9"]
        .iter()
        .map(|id| table_spec(id).expect("known table id"))
        .collect()
}

#[test]
fn randomized_seeds_serial_vs_parallel_bitwise_identical() {
    let dur = SimDuration::from_secs(3);
    let specs = specs();
    // Randomized but reproducible: seeds drawn from the simulator's own
    // generator, so a failure replays exactly.
    let mut rng = SimRng::new(0xC0FF_EE00);
    for _ in 0..3 {
        let stream = rng.uniform_inclusive(0, u64::MAX >> 1);
        let seed = rng.stream_seed(stream);
        let serial = run_specs_with(&Executor::new(1), &specs, &[seed], dur).unwrap();
        for workers in [2, 8, 32] {
            let par = run_specs_with(&Executor::new(workers), &specs, &[seed], dur).unwrap();
            assert_eq!(
                format!("{serial:?}"),
                format!("{par:?}"),
                "seed {seed}, workers {workers}: parallel diverged from serial"
            );
        }
    }
}

#[test]
fn sweep_is_identical_across_workers() {
    let dur = SimDuration::from_secs(2);
    let specs = specs();
    let cfg = SweepConfig { root_seed: 42, replications: 3, dur };
    let parallel = sweep(&Executor::new(8), &specs, &cfg).unwrap();
    let serial = sweep(&Executor::new(1), &specs, &cfg).unwrap();
    assert_eq!(
        serial.fingerprint_text(),
        parallel.fingerprint_text(),
        "serial and 8-worker sweeps diverged"
    );
}

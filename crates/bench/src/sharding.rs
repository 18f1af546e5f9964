//! Opt-in intra-run sharding for the bench binaries.
//!
//! Every bench binary honors a shard count the same way it honors a
//! worker count: `--shards N` flag > `MACAW_SHARDS` env > 1 (serial).
//! Where `MACAW_JOBS` parallelizes *across* independent simulations,
//! `MACAW_SHARDS` parallelizes *within* one simulation, routing it
//! through [`Scenario::run_with_shards`] — the conservative
//! island-partitioned engine (`macaw_core::partition`). The sharded
//! report is bitwise identical to the serial one (asserted in
//! `tests/sharding.rs`), so turning this on changes wall time only:
//! table outputs, fault ablations and replication sweeps all stay
//! byte-for-byte the same.
//!
//! The count is a process-wide setting rather than a threaded argument
//! because the run sites sit at the bottom of deep generic call stacks
//! (table specs, fault ladders, replication sweeps) shared by binaries
//! that do and don't expose the flag.

use std::sync::atomic::{AtomicUsize, Ordering};

use macaw_core::prelude::*;

/// 0 = "no override set": fall through to `MACAW_SHARDS` / serial.
static OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Pin the process-wide shard count (a `--shards N` flag). Takes
/// precedence over `MACAW_SHARDS`.
pub fn set_shards_override(n: usize) {
    OVERRIDE.store(n.max(1), Ordering::Relaxed);
}

/// Resolve the shard count from `MACAW_SHARDS`, defaulting to 1
/// (serial). Unlike `MACAW_JOBS` there is no machine-derived fallback:
/// sharding inside a run changes what a timing harness measures, so it
/// is strictly opt-in.
pub fn shards_from_env() -> usize {
    if let Ok(v) = std::env::var("MACAW_SHARDS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
        eprintln!("warning: ignoring invalid MACAW_SHARDS={v:?} (want an integer >= 1)");
    }
    1
}

/// The shard count every bench-run helper uses: the `--shards` override
/// if one was set this process, else [`shards_from_env`].
pub fn effective_shards() -> usize {
    match OVERRIDE.load(Ordering::Relaxed) {
        0 => shards_from_env(),
        n => n,
    }
}

/// Parse a `--shards` argument value shared by every bench binary.
pub fn parse_shards_arg(value: &str) -> Result<usize, String> {
    match value.trim().parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(format!("--shards wants an integer >= 1, got {value:?}")),
    }
}

/// Run `sc` under the effective shard count: serially at 1, through
/// [`Scenario::run_with_shards`] otherwise. The report is bitwise
/// identical either way.
pub fn run_report(
    sc: Scenario,
    dur: SimDuration,
    warm: SimDuration,
) -> Result<RunReport, SimError> {
    match effective_shards() {
        1 => sc.run(dur, warm),
        n => sc.run_with_shards(dur, warm, n).map(|(report, _)| report),
    }
}

/// [`run_report`] that also surfaces the medium's side-channel operation
/// counters ([`MediumStats`]) for perf attribution. The report half is
/// bitwise identical to [`run_report`]'s — serial runs read the counters
/// off the network after the run; sharded runs take the merged counters
/// the engine already collects in [`ShardRunStats`].
pub fn run_report_instrumented(
    sc: Scenario,
    dur: SimDuration,
    warm: SimDuration,
) -> Result<(RunReport, MediumStats), SimError> {
    match effective_shards() {
        1 => sc.run_with_medium_stats::<macaw_phy::SparseMedium>(dur, warm),
        n => sc
            .run_with_shards(dur, warm, n)
            .map(|(report, stats)| (report, stats.medium)),
    }
}

/// [`run_report`] on an explicit medium and future-event-list family
/// (the engine benchmark pins both backends).
pub fn run_report_queue<M: macaw_phy::Medium, Q: macaw_sim::FelChoice>(
    sc: Scenario,
    dur: SimDuration,
    warm: SimDuration,
) -> Result<RunReport, SimError> {
    match effective_shards() {
        1 => sc.run_with_queue::<M, Q>(dur, warm),
        n => sc
            .run_with_shards_queue::<M, Q>(dur, warm, n)
            .map(|(report, _)| report),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_shards_arg_accepts_positive_rejects_rest() {
        assert_eq!(parse_shards_arg("4"), Ok(4));
        assert_eq!(parse_shards_arg(" 2 "), Ok(2));
        assert!(parse_shards_arg("0").is_err());
        assert!(parse_shards_arg("-1").is_err());
        assert!(parse_shards_arg("many").is_err());
    }

    #[test]
    fn run_report_matches_serial_at_any_override() {
        let mk = || {
            let mut sc = Scenario::new(5);
            let b = sc.add_station("B", Point::new(0.0, 0.0, 6.0), MacKind::Macaw);
            let p = sc.add_station("P", Point::new(3.0, 0.0, 0.0), MacKind::Macaw);
            sc.add_udp_stream("P-B", p, b, 32, 512);
            sc
        };
        let dur = SimDuration::from_secs(3);
        let warm = SimDuration::from_millis(500);
        let serial = mk().run(dur, warm).unwrap();
        for shards in [1usize, 2, 4] {
            let (sharded, _) = mk().run_with_shards(dur, warm, shards).unwrap();
            assert_eq!(format!("{serial:?}"), format!("{sharded:?}"), "shards = {shards}");
        }
    }
}

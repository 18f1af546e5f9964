//! Run-cache round-trip for a *moving* scenario — the third leg of the
//! mobility identity suite (sparse==reference and serial==sharded live in
//! `macaw-core`). The scenario fingerprint must cover the motion plan:
//! a warm cache hit returns the cold run bitwise, and changing nothing
//! but the walk (speed, or motion vs none) changes the key.

use macaw_bench::cache::RunCache;
use macaw_core::prelude::*;

const DUR: SimDuration = SimDuration::from_secs(2);
const WARM: SimDuration = SimDuration::from_millis(500);

fn campus(speed_fps: f64) -> Scenario {
    let mut cfg = CampusConfig::with_stations(40);
    cfg.mobile_share = 0.3;
    cfg.waypoint.speed_fps = speed_fps;
    campus_topology(&cfg, MacKind::Macaw, DUR, 17)
}

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("macaw-cache-test-{tag}-{}", std::process::id()))
}

#[test]
fn a_moving_scenario_round_trips_through_the_cache_bitwise() {
    let dir = scratch_dir("mobility");
    let _ = std::fs::remove_dir_all(&dir);
    let cache = RunCache::new(&dir);

    let (cold, executed) = cache.run_cached(campus(8.0), DUR, WARM).unwrap();
    assert!(executed, "cold cache must execute the moving run");
    let (warm, executed) = cache.run_cached(campus(8.0), DUR, WARM).unwrap();
    assert!(!executed, "identical motion plan must hit the warm cache");
    assert_eq!(cold, warm, "warm hit differs structurally from the cold run");
    assert_eq!(
        format!("{cold:?}"),
        format!("{warm:?}"),
        "warm hit differs from the cold run in f64 bit patterns"
    );
    assert!(cold.events_processed > 0, "vacuous comparison");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn the_cache_key_is_sensitive_to_the_motion_plan_alone() {
    let moving = RunCache::key(&campus(8.0), DUR, WARM);
    assert_ne!(
        moving,
        RunCache::key(&campus(9.0), DUR, WARM),
        "a different walking speed must change the key"
    );
    assert_ne!(
        moving,
        RunCache::key(&campus(0.0), DUR, WARM),
        "the static floor must not collide with the moving campus"
    );
    assert_eq!(
        moving,
        RunCache::key(&campus(8.0), DUR, WARM),
        "the key itself is deterministic"
    );
}

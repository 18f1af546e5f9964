//! Mobility bitwise-identity: a moving scenario reproduces exactly across
//! media.
//!
//! The mover pipeline in `SparseMedium` (same-cube early-outs, delta-based
//! neighbor reconciliation, coalesced batch re-folds) is pure bookkeeping:
//! the naive `ReferenceMedium`, which recomputes every signal from positions
//! on every query, must produce the identical `RunReport` down to the f64
//! bit patterns. Move batches are island-local events, so two campuses
//! with independent mover populations stay two coupling islands. And a
//! batch is semantically the *sequence* of its entries — declaring the same
//! motion as single moves (each a one-element `MoveBatch`) or as one
//! `MoveBatch` per tick yields the same run.

use macaw_core::mobility::{self, CampusConfig, WaypointConfig};
use macaw_core::prelude::*;
use macaw_phy::ReferenceMedium;
use macaw_sim::{LadderFel, SimRng};

const RUN: SimDuration = SimDuration::from_secs(10);
const WARM: SimDuration = SimDuration::from_secs(2);

fn moving_campus(seed: u64) -> Scenario {
    let mut cfg = CampusConfig::with_stations(40);
    cfg.mobile_share = 0.3;
    cfg.waypoint.speed_fps = 8.0;
    campus_topology(&cfg, MacKind::Macaw, RUN, seed)
}

#[test]
fn moving_campus_sparse_matches_reference_bitwise() {
    let sparse = moving_campus(3).run(RUN, WARM).unwrap();
    let reference = moving_campus(3)
        .run_with_queue::<ReferenceMedium, LadderFel>(RUN, WARM)
        .unwrap();
    assert_eq!(
        sparse, reference,
        "sparse and reference reports differ structurally"
    );
    assert_eq!(
        format!("{sparse:?}"),
        format!("{reference:?}"),
        "sparse and reference reports differ in f64 bit patterns"
    );
    assert!(sparse.events_processed > 0, "vacuous comparison");
}

/// Two identical office clusters 500 ft apart, each with its own roaming
/// pads confined to its own 10 ft × 10 ft patch: two coupling islands.
fn two_campuses(seed: u64) -> Scenario {
    let mut sc = Scenario::new(seed);
    let mut rng = SimRng::new(seed ^ 0xCAFE);
    for (tag, ox) in [("a", 0.0), ("b", 500.0)] {
        let base = sc.add_station(
            &format!("B{tag}"),
            Point::new(ox + 5.0, 5.0, 6.0),
            MacKind::Macaw,
        );
        let mut movers = Vec::new();
        for p in 0..3 {
            let pad = sc.add_station(
                &format!("P{tag}{p}"),
                Point::new(ox + 2.0 + p as f64 * 3.0, 3.0, 0.0),
                MacKind::Macaw,
            );
            sc.add_udp_stream(&format!("s{tag}{p}"), pad, base, 16, 512);
            movers.push(pad);
        }
        let rect = (
            Point::new(ox, 0.0, 0.0),
            Point::new(ox + 10.0, 10.0, 0.0),
        );
        let wp = WaypointConfig {
            speed_fps: 6.0,
            tick: SimDuration::from_millis(250),
            pause: SimDuration::from_millis(500),
        };
        mobility::add_waypoint_mobility(&mut sc, &movers, rect, &wp, RUN, &mut rng);
    }
    sc
}

#[test]
fn two_moving_campuses_stay_two_islands() {
    assert_eq!(
        two_campuses(7).partition().unwrap().n_islands,
        2,
        "movers confined to their own campus keep the islands apart"
    );
}

#[test]
fn a_batch_matches_the_same_moves_applied_singly() {
    // The same hand-written motion, declared once as per-tick batches and
    // once as single moves (one-element batches) at the same instants.
    // Batched moves defer interference re-folds to the end of the batch,
    // so this checks the deferral is unobservable end to end.
    let build = |batched: bool| {
        let mut sc = Scenario::new(11);
        let base = sc.add_station("B", Point::new(5.0, 5.0, 6.0), MacKind::Macaw);
        let p0 = sc.add_station("P0", Point::new(2.0, 3.0, 0.0), MacKind::Macaw);
        let p1 = sc.add_station("P1", Point::new(8.0, 3.0, 0.0), MacKind::Macaw);
        sc.add_udp_stream("s0", p0, base, 32, 512);
        sc.add_udp_stream("s1", p1, base, 32, 512);
        for t in 1..30u64 {
            let at = SimTime::ZERO + SimDuration::from_millis(t * 300);
            let x = (t % 9) as f64 + 1.0;
            let moves = [
                (p0, Point::new(x, 3.0, 0.0)),
                (p1, Point::new(10.0 - x, 7.0, 0.0)),
            ];
            if batched {
                sc.move_stations_at(at, &moves);
            } else {
                for &(s, to) in &moves {
                    sc.move_station_at(at, s, to);
                }
            }
        }
        sc
    };
    let singles = build(false).run(RUN, WARM).unwrap();
    let batches = build(true).run(RUN, WARM).unwrap();
    // Event accounting legitimately differs — one N-move batch event
    // replaces N one-move batch events — so compare the behavioral fields,
    // not the ledger.
    assert_eq!(singles.streams, batches.streams, "stream rows must match");
    assert_eq!(
        format!("{:?}", singles.streams),
        format!("{:?}", batches.streams),
        "stream rows must match in f64 bit patterns"
    );
    assert_eq!(singles.mac_stats, batches.mac_stats);
    assert_eq!(singles.mac_drops, batches.mac_drops);
    assert_eq!(
        singles.data_air_secs.to_bits(),
        batches.data_air_secs.to_bits()
    );
    assert_eq!(
        singles.total_air_secs.to_bits(),
        batches.total_air_secs.to_bits()
    );
    assert_eq!(
        singles.events_processed,
        batches.events_processed + 29,
        "batching collapses the 29 two-entry batches into one event each"
    );
}

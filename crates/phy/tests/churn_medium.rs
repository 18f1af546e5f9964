//! End_tx-heavy churn schedules: the stamp-ordered slab must stay
//! bit-identical to the reference oracle through arbitrary start/end
//! interleavings — including the free-list regime the randomized
//! oracle suite rarely reaches, where most `end_tx` calls vacate a slot in
//! the *middle* of the admission order and a later `start_tx` recycles it
//! while older transmissions fly on.
//!
//! The schedules are driven by a fixed LCG (not proptest) so the big
//! variants stay deterministic and cheap to rerun; sizes scale up in
//! release builds (`scripts/verify.sh` runs this suite with `--release`)
//! where the reference oracle can afford thousands of concurrent flights.

use macaw_phy::{
    Medium, Point, Propagation, PropagationConfig, ReferenceMedium, SparseMedium, StationId, TxId,
};
use macaw_sim::{SimDuration, SimRng, SimTime};

/// Deterministic schedule driver (splitmix-style LCG).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self, bound: u64) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 33) % bound
    }
}

fn t(us: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_micros(us)
}

/// Clustered floor: `clusters` cells of `per` stations each, cells spaced
/// far beyond the cutoff so the sparse medium's neighborhoods stay small
/// while the global active count grows without bound.
fn cluster_points(clusters: usize, per: usize) -> Vec<Point> {
    let mut pts = Vec::with_capacity(clusters * per);
    for c in 0..clusters {
        let cx = (c % 64) as f64 * 40.0;
        let cy = (c / 64) as f64 * 40.0;
        for s in 0..per {
            pts.push(Point::new(cx + (s % 3) as f64 * 3.0, cy + (s / 3) as f64 * 3.0, 0.0));
        }
    }
    pts
}

/// Assert two deliveries vectors are bitwise identical (station, clean,
/// and the exact f64 signal bits).
fn assert_deliveries(
    a: &[macaw_phy::Delivery],
    b: &[macaw_phy::Delivery],
    what: &str,
) {
    assert_eq!(a.len(), b.len(), "{what}: delivery count diverged");
    for (x, y) in a.iter().zip(b.iter()) {
        assert_eq!(x.station, y.station, "{what}: station diverged");
        assert_eq!(x.clean, y.clean, "{what}: clean flag diverged");
        assert_eq!(
            x.signal.to_bits(),
            y.signal.to_bits(),
            "{what}: signal bits diverged"
        );
    }
}

/// Lockstep churn over two media: ramp up to `target_live` concurrent
/// flights, then run `churn_ops` interleaved starts / out-of-order ends /
/// mid-flight moves, then drain. Every end's deliveries are compared
/// bitwise; carrier sense is sampled each round.
fn churn_pair<A: Medium, B: Medium>(seed: u64, clusters: usize, per: usize, churn_ops: usize) {
    let prop = Propagation::new(PropagationConfig::default());
    let mut fast = A::new(prop, SimRng::new(seed));
    let mut slow = B::new(prop, SimRng::new(seed));
    let pts = cluster_points(clusters, per);
    let ids: Vec<StationId> = pts
        .iter()
        .map(|&p| {
            let f = fast.add_station(p);
            let s = slow.add_station(p);
            assert_eq!(f, s);
            f
        })
        .collect();
    // A little per-packet noise exercises RNG-stream lockstep.
    for &id in ids.iter().step_by(7) {
        fast.set_rx_error_rate(id, 0.05);
        slow.set_rx_error_rate(id, 0.05);
    }

    let mut rng = Lcg(seed ^ 0xC0FFEE);
    let mut live: Vec<TxId> = Vec::new();
    let mut clock = 0u64;
    let target_live = clusters * (per - 1);

    // Ramp: key up all but one station per cluster.
    for c in 0..clusters {
        for s in 0..per - 1 {
            clock += 3;
            let id = ids[c * per + s];
            let tf = fast.start_tx(id, t(clock));
            let ts = slow.start_tx(id, t(clock));
            assert_eq!(tf, ts);
            live.push(tf);
        }
    }
    assert_eq!(fast.active_count(), target_live);
    assert_eq!(slow.active_count(), target_live);

    let mut buf_f = Vec::new();
    let mut buf_s = Vec::new();
    for _ in 0..churn_ops {
        clock += 11;
        let r = rng.next(100);
        if r < 42 && !live.is_empty() {
            // Out-of-order end: vacate a random admission-order position.
            let at = rng.next(live.len() as u64) as usize;
            let tx = live.swap_remove(at);
            fast.end_tx_into(tx, t(clock), &mut buf_f);
            slow.end_tx_into(tx, t(clock), &mut buf_s);
            assert_deliveries(&buf_f, &buf_s, "churn end");
        } else if r < 84 {
            // Start an idle station (recycles a freed slab slot, if any).
            let mut k = rng.next(ids.len() as u64) as usize;
            let mut hops = 0;
            while fast.is_transmitting(ids[k]) {
                k = (k + 1) % ids.len();
                hops += 1;
                if hops > ids.len() {
                    break;
                }
            }
            if !fast.is_transmitting(ids[k]) {
                let tf = fast.start_tx(ids[k], t(clock));
                let ts = slow.start_tx(ids[k], t(clock));
                assert_eq!(tf, ts);
                live.push(tf);
            }
        } else {
            // Mobility mid-flight: hop a station (transmitting or not) to a
            // fresh spot in a random cluster.
            let k = rng.next(ids.len() as u64) as usize;
            let c = rng.next(clusters as u64) as f64;
            let jx = rng.next(9) as f64;
            let jy = rng.next(9) as f64;
            let p = Point::new(
                (c as usize % 64) as f64 * 40.0 + jx,
                (c as usize / 64) as f64 * 40.0 + jy,
                0.0,
            );
            fast.set_position(ids[k], p);
            slow.set_position(ids[k], p);
        }
        // Sampled query-surface check.
        let probe = ids[rng.next(ids.len() as u64) as usize];
        assert_eq!(fast.carrier_busy(probe), slow.carrier_busy(probe));
        assert_eq!(fast.active_count(), slow.active_count());
    }

    // Drain in a scrambled order: every remaining slot is vacated
    // out-of-admission-order.
    while !live.is_empty() {
        let pick = rng.next(live.len() as u64) as usize;
        let tx = live.swap_remove(pick);
        clock += 5;
        fast.end_tx_into(tx, t(clock), &mut buf_f);
        slow.end_tx_into(tx, t(clock), &mut buf_s);
        assert_deliveries(&buf_f, &buf_s, "drain end");
    }
    assert_eq!(fast.active_count(), 0);
    assert_eq!(slow.active_count(), 0);
}

/// Bitwise agreement on a small, dense-enough floor: sparse == reference
/// on the same schedule.
#[test]
fn churn_small_sparse_vs_reference() {
    churn_pair::<SparseMedium, ReferenceMedium>(0xA5A5, 8, 6, 900);
}

/// The slab's reason to exist: a floor with a large global active count
/// and small neighborhoods. Debug builds run a few hundred concurrent
/// flights so the unoptimized suite stays within seconds; `verify.sh`
/// reruns this suite in release where the schedule holds thousands of
/// flights concurrently in the air.
#[test]
fn churn_thousands_concurrent_sparse_vs_reference() {
    let (clusters, ops) = if cfg!(debug_assertions) {
        (64, 1200) // 384 stations, ~320 concurrent
    } else {
        (256, 4000) // 1536 stations, ~1280 concurrent; thousands of flights
    };
    churn_pair::<SparseMedium, ReferenceMedium>(0xBEEF, clusters, 6, ops);
}

/// Waypoint motion through live traffic: one walker per cluster follows
/// straight-line legs toward other clusters' centers while the rest of the
/// floor keys up and down around it. With 40 ft cluster spacing and a 7 ft
/// stride, every leg spends several ticks in the dead zone between
/// clusters — out of the cutoff reach of *everything* — so each crossing
/// exercises the mover pipeline's full leave-then-rejoin reconciliation
/// (the island-partition reach bound, crossed mid-flight). Half the
/// walkers are themselves transmitting while they walk. Moves land as one
/// `set_positions` batch per tick: the sparse medium runs its coalesced
/// batch path while the oracle runs the trait's default sequential loop —
/// the batched-vs-sequential equivalence rides along for free.
fn waypoint_pair<A: Medium, B: Medium>(seed: u64, clusters: usize, per: usize, ticks: usize) {
    let prop = Propagation::new(PropagationConfig::default());
    let mut fast = A::new(prop, SimRng::new(seed));
    let mut slow = B::new(prop, SimRng::new(seed));
    let pts = cluster_points(clusters, per);
    let ids: Vec<StationId> = pts
        .iter()
        .map(|&p| {
            let f = fast.add_station(p);
            let s = slow.add_station(p);
            assert_eq!(f, s);
            f
        })
        .collect();
    for &id in ids.iter().step_by(7) {
        fast.set_rx_error_rate(id, 0.05);
        slow.set_rx_error_rate(id, 0.05);
    }

    let mut rng = Lcg(seed ^ 0x057A_7105);
    let mut live: Vec<TxId> = Vec::new();
    let mut clock = 0u64;

    // Ramp: all but one station per cluster keys up — the walkers from
    // even clusters (station 0) walk *while transmitting*.
    for c in 0..clusters {
        for s in 0..per - 1 {
            clock += 3;
            let id = ids[c * per + s];
            let tf = fast.start_tx(id, t(clock));
            let ts = slow.start_tx(id, t(clock));
            assert_eq!(tf, ts);
            live.push(tf);
        }
    }

    // One walker per cluster: even clusters contribute their transmitting
    // station 0, odd clusters their idle station per-1.
    let walkers: Vec<usize> = (0..clusters)
        .map(|c| c * per + if c % 2 == 0 { 0 } else { per - 1 })
        .collect();
    let center = |c: usize| Point::new((c % 64) as f64 * 40.0, (c / 64) as f64 * 40.0, 0.0);
    let mut pos: Vec<Point> = walkers.iter().map(|&w| pts[w]).collect();
    let mut target: Vec<Point> = walkers
        .iter()
        .map(|_| center(rng.next(clusters as u64) as usize))
        .collect();

    let mut buf_f = Vec::new();
    let mut buf_s = Vec::new();
    let mut batch: Vec<(StationId, Point)> = Vec::with_capacity(walkers.len());
    const STEP: f64 = 7.0;
    for _ in 0..ticks {
        // Advance every walker one leg-step; batch the whole tick.
        batch.clear();
        for (k, &w) in walkers.iter().enumerate() {
            let (p, tgt) = (pos[k], target[k]);
            let (dx, dy) = (tgt.x - p.x, tgt.y - p.y);
            let dist = (dx * dx + dy * dy).sqrt();
            let next = if dist <= STEP {
                // Waypoint reached: snap, then pick the next cluster.
                target[k] = center(rng.next(clusters as u64) as usize);
                tgt
            } else {
                Point::new(p.x + dx * STEP / dist, p.y + dy * STEP / dist, 0.0)
            };
            pos[k] = next;
            batch.push((ids[w], next));
        }
        fast.set_positions(&batch);
        slow.set_positions(&batch);

        // Interleave churn between ticks: flights start and end while the
        // walkers are mid-leg (including mid-dead-zone).
        for _ in 0..3 {
            clock += 11;
            let r = rng.next(100);
            if r < 50 && !live.is_empty() {
                let at = rng.next(live.len() as u64) as usize;
                let tx = live.swap_remove(at);
                fast.end_tx_into(tx, t(clock), &mut buf_f);
                slow.end_tx_into(tx, t(clock), &mut buf_s);
                assert_deliveries(&buf_f, &buf_s, "waypoint end");
            } else {
                let mut k = rng.next(ids.len() as u64) as usize;
                let mut hops = 0;
                while fast.is_transmitting(ids[k]) && hops <= ids.len() {
                    k = (k + 1) % ids.len();
                    hops += 1;
                }
                if !fast.is_transmitting(ids[k]) {
                    let tf = fast.start_tx(ids[k], t(clock));
                    let ts = slow.start_tx(ids[k], t(clock));
                    assert_eq!(tf, ts);
                    live.push(tf);
                }
            }
        }
        // Probe the moving edge itself: every walker's carrier view must
        // agree while it is between clusters.
        for &w in walkers.iter().step_by(5) {
            assert_eq!(fast.carrier_busy(ids[w]), slow.carrier_busy(ids[w]));
            let peer = ids[(w + 1) % ids.len()];
            assert_eq!(fast.hears(ids[w], peer), slow.hears(ids[w], peer));
        }
        assert_eq!(fast.active_count(), slow.active_count());
    }

    while !live.is_empty() {
        let pick = rng.next(live.len() as u64) as usize;
        let tx = live.swap_remove(pick);
        clock += 5;
        fast.end_tx_into(tx, t(clock), &mut buf_f);
        slow.end_tx_into(tx, t(clock), &mut buf_s);
        assert_deliveries(&buf_f, &buf_s, "waypoint drain");
    }
    assert_eq!(fast.active_count(), 0);
    assert_eq!(slow.active_count(), 0);
}

/// Bitwise agreement for waypoint motion on a small floor: sparse ==
/// reference on the same walks.
#[test]
fn waypoint_walkers_small_sparse_vs_reference() {
    waypoint_pair::<SparseMedium, ReferenceMedium>(0x11E7, 8, 6, 60);
}

/// Waypoint motion at scale: many walkers crossing reach bounds per tick
/// with hundreds-to-thousands of flights in the air.
#[test]
fn waypoint_walkers_sparse_vs_reference() {
    // Release: 96 walkers × 80 ticks keeps ~480 flights airborne through
    // ~7700 reach-bound crossings.
    let (clusters, ticks) = if cfg!(debug_assertions) {
        (48, 50)
    } else {
        (96, 80)
    };
    waypoint_pair::<SparseMedium, ReferenceMedium>(0x77A1, clusters, 6, ticks);
}

/// A batch is the sequence of its entries, on the *same* medium type: the
/// sparse medium's coalesced `set_positions` (deferred re-folds) must be
/// indistinguishable from applying each entry through `set_position` —
/// same deliveries, same carrier answers, same RNG stream.
#[test]
fn batched_moves_match_sequential_on_the_same_medium() {
    let prop = Propagation::new(PropagationConfig::default());
    let mut batched = SparseMedium::new(prop, SimRng::new(0xD0D0));
    let mut single = SparseMedium::new(prop, SimRng::new(0xD0D0));
    let pts = cluster_points(6, 6);
    let ids: Vec<StationId> = pts
        .iter()
        .map(|&p| {
            let a = batched.add_station(p);
            let b = single.add_station(p);
            assert_eq!(a, b);
            a
        })
        .collect();
    for &id in ids.iter().step_by(5) {
        batched.set_rx_error_rate(id, 0.1);
        single.set_rx_error_rate(id, 0.1);
    }
    let mut rng = Lcg(0xD0D0 ^ 0xBA7C4);
    let mut live: Vec<TxId> = Vec::new();
    let mut clock = 0u64;
    for &id in ids.iter().skip(1).step_by(2) {
        clock += 3;
        let a = batched.start_tx(id, t(clock));
        let b = single.start_tx(id, t(clock));
        assert_eq!(a, b);
        live.push(a);
    }
    let mut buf_a = Vec::new();
    let mut buf_b = Vec::new();
    for tick in 0..80u64 {
        // The same move set, batched on one instance, singly on the other.
        let moves: Vec<(StationId, Point)> = (0..4)
            .map(|j| {
                let k = rng.next(ids.len() as u64) as usize;
                let c = rng.next(6) as f64;
                (
                    ids[k],
                    Point::new(c * 40.0 + (tick % 9) as f64, j as f64 * 2.0, 0.0),
                )
            })
            .collect();
        batched.set_positions(&moves);
        for &(id, p) in &moves {
            single.set_position(id, p);
        }
        clock += 11;
        if tick % 3 == 0 && !live.is_empty() {
            let at = rng.next(live.len() as u64) as usize;
            let tx = live.swap_remove(at);
            batched.end_tx_into(tx, t(clock), &mut buf_a);
            single.end_tx_into(tx, t(clock), &mut buf_b);
            assert_deliveries(&buf_a, &buf_b, "batch-vs-sequential end");
        } else {
            let k = rng.next(ids.len() as u64) as usize;
            if !batched.is_transmitting(ids[k]) {
                let a = batched.start_tx(ids[k], t(clock));
                let b = single.start_tx(ids[k], t(clock));
                assert_eq!(a, b);
                live.push(a);
            }
        }
        let probe = ids[rng.next(ids.len() as u64) as usize];
        assert_eq!(batched.carrier_busy(probe), single.carrier_busy(probe));
        assert_eq!(batched.hears(probe, ids[0]), single.hears(probe, ids[0]));
    }
    while let Some(tx) = live.pop() {
        clock += 5;
        batched.end_tx_into(tx, t(clock), &mut buf_a);
        single.end_tx_into(tx, t(clock), &mut buf_b);
        assert_deliveries(&buf_a, &buf_b, "batch-vs-sequential drain");
    }
}

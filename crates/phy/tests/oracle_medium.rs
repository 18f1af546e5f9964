//! Oracle property tests: the sparse [`Medium`] must be *bit-identical* to
//! the naive [`ReferenceMedium`] on arbitrary topologies and operation
//! schedules — every `Delivery` (including the f64 signal), every
//! `carrier_busy` / `hears` / `in_range` answer, and the same RNG draw
//! sequence (divergence there would desynchronize later deliveries).
//!
//! Coordinates are sampled on the integer grid so cube-snapped positions
//! land on exact knife-edge distances (e.g. exactly 10.0 ft, where a
//! signal's contribution equals the reception threshold exactly) — the
//! cases where an "approximately equal" cache would betray itself.

use macaw_phy::{Medium, Point, Propagation, PropagationConfig, ReferenceMedium, StationId, TxId};
use macaw_sim::{SimDuration, SimRng, SimTime};
use proptest::prelude::*;

#[derive(Clone, Copy, Debug)]
enum Op {
    Start(usize),
    End(usize),
    Move(usize, Point),
    SetPower(usize, f64),
    SetErrorRate(usize, f64),
    AddStation(Point),
    AddNoise(Point, f64),
    ToggleNoise(usize, bool),
    SetLinkGain(usize, usize, f64),
}

fn arb_point() -> impl Strategy<Value = Point> {
    ((-14i32..15), (-14i32..15), (-3i32..4))
        .prop_map(|(x, y, z)| Point::new(x as f64, y as f64, z as f64))
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..16).prop_map(Op::Start),
        (0usize..16).prop_map(Op::End),
        // Two extra Start/End arms keep transmissions overlapping often.
        (0usize..16).prop_map(Op::Start),
        (0usize..16).prop_map(Op::End),
        ((0usize..16), arb_point()).prop_map(|(i, p)| Op::Move(i, p)),
        ((0usize..16), (1u32..41)).prop_map(|(i, q)| Op::SetPower(i, q as f64 / 4.0)),
        ((0usize..16), (0u32..30)).prop_map(|(i, r)| Op::SetErrorRate(i, r as f64 / 100.0)),
        arb_point().prop_map(Op::AddStation),
        (arb_point(), (1u32..30)).prop_map(|(p, w)| Op::AddNoise(p, w as f64 / 10.0)),
        ((0usize..8), any::<bool>()).prop_map(|(i, a)| Op::ToggleNoise(i, a)),
        // Gain quanta include 0.0 (dead link) and values > 1.0 (amplified).
        ((0usize..16), (0usize..16), (0u32..9))
            .prop_map(|(i, j, g)| Op::SetLinkGain(i, j, g as f64 / 4.0)),
    ]
}

/// Compare every query surface of the two media.
fn assert_same_views<M: Medium>(fast: &M, slow: &ReferenceMedium) -> Result<(), TestCaseError> {
    let n = fast.station_count();
    prop_assert_eq!(n, slow.station_count());
    prop_assert_eq!(fast.active_count(), slow.active_count());
    for a in 0..n {
        let sa = StationId(a);
        prop_assert_eq!(fast.position(sa), slow.position(sa));
        prop_assert_eq!(
            fast.carrier_busy(sa),
            slow.carrier_busy(sa),
            "carrier_busy diverged at station {}",
            a
        );
        for b in 0..n {
            let sb = StationId(b);
            prop_assert_eq!(
                fast.hears(sa, sb),
                slow.hears(sa, sb),
                "hears({}, {}) diverged",
                a,
                b
            );
            prop_assert_eq!(
                fast.in_range(sa, sb),
                slow.in_range(sa, sb),
                "in_range({}, {}) diverged",
                a,
                b
            );
        }
    }
    Ok(())
}

fn run_schedule<M: Medium>(seed: u64, points: Vec<Point>, ops: Vec<Op>) -> Result<(), TestCaseError> {
    let prop = Propagation::new(PropagationConfig::default());
    let mut fast = M::new(prop, SimRng::new(seed));
    let mut slow = ReferenceMedium::new(prop, SimRng::new(seed));
    for p in &points {
        prop_assert_eq!(fast.add_station(*p), slow.add_station(*p));
    }
    let mut live: Vec<TxId> = Vec::new();
    let mut noise_count = 0usize;
    let mut clock = 0u64;
    let end_at = |clock: &mut u64| {
        *clock += 7;
        SimTime::ZERO + SimDuration::from_micros(*clock)
    };

    for op in ops {
        let now = end_at(&mut clock);
        match op {
            Op::Start(i) => {
                let s = StationId(i % fast.station_count());
                if !fast.is_transmitting(s) {
                    let tf = fast.start_tx(s, now);
                    let ts = slow.start_tx(s, now);
                    prop_assert_eq!(tf, ts);
                    live.push(tf);
                }
            }
            Op::End(k) => {
                if !live.is_empty() {
                    let tx = live.remove(k % live.len());
                    prop_assert_eq!(fast.tx_start(tx), slow.tx_start(tx));
                    let df = fast.end_tx(tx, now);
                    let ds = slow.end_tx(tx, now);
                    prop_assert_eq!(df, ds, "deliveries diverged for {:?}", tx);
                }
            }
            Op::Move(i, p) => {
                let s = StationId(i % fast.station_count());
                fast.set_position(s, p);
                slow.set_position(s, p);
            }
            Op::SetPower(i, w) => {
                let s = StationId(i % fast.station_count());
                fast.set_tx_power(s, w);
                slow.set_tx_power(s, w);
            }
            Op::SetErrorRate(i, r) => {
                let s = StationId(i % fast.station_count());
                fast.set_rx_error_rate(s, r);
                slow.set_rx_error_rate(s, r);
            }
            Op::AddStation(p) => {
                prop_assert_eq!(fast.add_station(p), slow.add_station(p));
            }
            Op::AddNoise(p, w) => {
                prop_assert_eq!(fast.add_noise_source(p, w), slow.add_noise_source(p, w));
                noise_count += 1;
            }
            Op::ToggleNoise(i, active) => {
                if noise_count > 0 {
                    fast.set_noise_active(i % noise_count, active);
                    slow.set_noise_active(i % noise_count, active);
                }
            }
            Op::SetLinkGain(i, j, g) => {
                let n = fast.station_count();
                let (src, dst) = (StationId(i % n), StationId(j % n));
                if src != dst {
                    fast.set_link_gain(src, dst, g);
                    slow.set_link_gain(src, dst, g);
                    prop_assert_eq!(fast.link_gain(src, dst), slow.link_gain(src, dst));
                }
            }
        }
        assert_same_views(&fast, &slow)?;
    }

    // Drain every transmission still in flight and compare the verdicts.
    for tx in live {
        let now = end_at(&mut clock);
        let df = fast.end_tx(tx, now);
        let ds = slow.end_tx(tx, now);
        prop_assert_eq!(df, ds, "drain deliveries diverged for {:?}", tx);
    }
    assert_same_views(&fast, &slow)?;
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn cached_medium_matches_reference_exactly(
        seed in 0u64..1_000_000,
        points in proptest::collection::vec(arb_point(), 2..9),
        ops in proptest::collection::vec(arb_op(), 1..48),
    ) {
        run_schedule::<macaw_phy::SparseMedium>(seed, points, ops)?;
    }

    /// Focused variant: no mobility or power ops, heavy start/end churn
    /// with per-packet noise draws, so the RNG streams must stay in
    /// lockstep across many deliveries.
    #[test]
    fn cached_medium_matches_reference_under_churn(
        seed in 0u64..1_000_000,
        points in proptest::collection::vec(arb_point(), 3..7),
        schedule in proptest::collection::vec((0usize..12, any::<bool>()), 8..64),
        rate in 1u32..25,
    ) {
        let ops: Vec<Op> = std::iter::once(Op::SetErrorRate(0, rate as f64 / 100.0))
            .chain(schedule.into_iter().map(|(i, start)| {
                if start { Op::Start(i) } else { Op::End(i) }
            }))
            .collect();
        run_schedule::<macaw_phy::SparseMedium>(seed, points, ops)?;
    }
}

/// A station so loud (tx power 1e120 at γ = 6) that its stretched reach
/// spans more grid rings than `i64` holds: the sparse medium must still
/// find the stations 40 ft away that the reference hears it at.
#[test]
fn a_loud_station_matches_reference_exactly() -> Result<(), TestCaseError> {
    let points = vec![
        Point::new(0.0, 0.0, 6.0),
        Point::new(3.0, 0.0, 0.0),
        Point::new(40.0, 0.0, 6.0),
        Point::new(43.0, 0.0, 0.0),
    ];
    let ops = vec![
        Op::SetPower(0, 1e120),
        Op::Start(0),
        Op::End(0),
        Op::Start(3),
        Op::Start(0),
        Op::End(0),
        Op::End(0),
    ];
    run_schedule::<macaw_phy::SparseMedium>(3, points, ops)
}

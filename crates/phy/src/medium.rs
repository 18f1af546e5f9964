//! The shared radio medium: common types and the [`Medium`] trait.
//!
//! A medium tracks every in-flight transmission and decides, per receiver,
//! whether each packet is received cleanly under the paper's rule:
//!
//! > "the designated receiving station can correctly receive the packet if
//! > the signal strength is greater than some threshold (the signal strength
//! > at 10 feet) and is greater than the sum of the other signals by at least
//! > 10 dB during the entire packet transmission time."
//!
//! We apply the same rule to *every* in-range station, not just the
//! designated receiver, because overhearing control packets (RTS/CTS/DS/RRTS)
//! is what drives deferral in MACA and MACAW.
//!
//! # Mechanics
//!
//! Interference is piecewise-constant between transmission start/end events,
//! so the "entire packet time" condition is enforced incrementally: every
//! in-flight `(transmission, receiver)` pair carries a `clean` flag that is
//! knocked false the moment any overlapping event (a new transmission, the
//! receiver keying up, the receiver moving) violates the capture margin.
//! Interference *decreasing* (a transmission ending) can never un-violate the
//! condition, so no re-check is needed on end events.
//!
//! The medium owns no event queue. The caller keys a station up with
//! [`Medium::start_tx`], schedules the end-of-frame event itself, and calls
//! [`Medium::end_tx`] when that event fires, receiving the delivery verdicts.
//!
//! # Implementations
//!
//! Two implementations share this trait and must produce *bit-identical*
//! results — every [`Delivery`] (including the f64 signal), every
//! `carrier_busy` / `hears` / `in_range` answer, and the same RNG draw
//! sequence — on any schedule of operations:
//!
//! * [`SparseMedium`](crate::sparse::SparseMedium) — the default. A
//!   cube-grid spatial hash keeps per-station neighbor sets so every
//!   steady-state operation is O(k) in the local neighborhood size rather
//!   than O(N) in the station count.
//! * [`ReferenceMedium`](crate::reference::ReferenceMedium) — the naive
//!   uncached statement of the semantics: the oracle the sparse medium is
//!   checked against and the baseline the `scale` bench measures its
//!   speedup over.

use macaw_sim::{SimRng, SimTime};

use crate::geometry::Point;
use crate::propagation::Propagation;

/// Index of a station registered with the medium.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct StationId(pub usize);

/// Handle to an in-flight transmission.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TxId(pub(crate) u64);

impl TxId {
    pub(crate) fn from_raw(raw: u64) -> TxId {
        TxId(raw)
    }
}

/// Medium-layer operation counters, reported on the side (never inside a
/// `RunReport`, whose bitwise identity across engines and builds is load
/// bearing — see `macaw-core`'s report plumbing). The `scale` and
/// `mobility` binaries print these to attribute wall time to the medium vs
/// the FEL vs the MAC machines.
///
/// Implementations that don't track counters return the all-zero default.
/// [`SparseMedium`](crate::sparse::SparseMedium) tracks all fields.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct MediumStats {
    /// Transmissions started.
    pub start_tx_ops: u64,
    /// Transmissions ended (deliveries produced).
    pub end_tx_ops: u64,
    /// Restricted neighborhood folds performed (refolds after end_tx /
    /// mobility / drown checks).
    pub folds: u64,
    /// Active fold terms visited across all restricted folds — the real
    /// per-event medium cost. Flat terms-per-end_tx across N is the slab
    /// design working; growth with N means an O(active) scan crept back.
    pub fold_terms: u64,
    /// Peak concurrently active transmissions (slab high-water mark).
    pub slab_high_water: u64,
    /// Slab slots ever allocated (`high_water` bounds it; the free list
    /// recycles the rest).
    pub slab_slots: u64,
    /// Station moves applied (one per `set_position` call or batch entry).
    pub set_position_ops: u64,
    /// Moves whose snapped cube center was unchanged: the same-cell
    /// early-out skipped grid re-homing and neighbor reconciliation.
    pub move_noop_ops: u64,
    /// Moves that crossed a coarse grid-cell boundary and re-homed the
    /// station's bucket (the subset of moves that touch the spatial hash).
    pub move_cell_hops: u64,
}

impl MediumStats {
    /// Fold another medium's counters into this one, as a caller summing
    /// several runs does: operation and fold counters sum, the slab
    /// high-water takes the per-medium max (each medium's slab is its own
    /// allocation), and `slab_slots` sums into a total footprint.
    pub fn merge(&mut self, o: MediumStats) {
        self.start_tx_ops += o.start_tx_ops;
        self.end_tx_ops += o.end_tx_ops;
        self.folds += o.folds;
        self.fold_terms += o.fold_terms;
        self.slab_high_water = self.slab_high_water.max(o.slab_high_water);
        self.slab_slots += o.slab_slots;
        self.set_position_ops += o.set_position_ops;
        self.move_noop_ops += o.move_noop_ops;
        self.move_cell_hops += o.move_cell_hops;
    }
}

/// Verdict for one station at the end of a transmission.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Delivery {
    /// The station that (potentially) heard the packet.
    pub station: StationId,
    /// `true` iff the packet was received cleanly (threshold + capture
    /// margin held for the whole flight, station never keyed up, and the
    /// per-packet noise draw passed).
    pub clean: bool,
    /// Received signal power (normalized units), for diagnostics.
    pub signal: f64,
}

/// The shared single-channel radio medium contract.
///
/// Every implementation must be a pure function of (operation schedule,
/// seed): same calls, same answers, bit for bit. See the module docs for
/// the reception rule and the list of implementations.
pub trait Medium {
    /// Create a medium with the given propagation model and RNG stream
    /// (used only for per-packet noise draws).
    fn new(prop: Propagation, rng: SimRng) -> Self
    where
        Self: Sized;

    /// The propagation model in use.
    fn propagation(&self) -> &Propagation;

    /// Register a station; its position is snapped to the nearest cube
    /// center (stations "reside at the center of a cube").
    fn add_station(&mut self, pos: Point) -> StationId;

    /// Number of registered stations.
    fn station_count(&self) -> usize;

    /// Current (cube-snapped) position of a station.
    fn position(&self, id: StationId) -> Point;

    /// Set the per-packet noise corruption probability for packets received
    /// at `id`.
    fn set_rx_error_rate(&mut self, id: StationId, p: f64);

    /// Set a station's transmit power multiplier (default 1.0). §4 declines
    /// power variation because it breaks radio symmetry — with unequal
    /// powers, "A hears B" no longer implies "B hears A" and the CTS can no
    /// longer silence every potential collider. The knob exists so that
    /// consequence can be demonstrated.
    ///
    /// Changing the power of a station that is *currently transmitting*
    /// corrupts its own in-flight packet (the waveform changed mid-frame)
    /// and re-checks every other in-flight reception against the changed
    /// interference geometry. An idle station contributes no interference
    /// term, so changing its power affects no in-flight reception.
    fn set_tx_power(&mut self, id: StationId, power: f64);

    /// `true` iff a transmission by `from` is receivable at `to`
    /// (directional once transmit powers or link gains differ).
    fn hears(&self, to: StationId, from: StationId) -> bool;

    /// Set the directional gain multiplier on the `src → dst` link (default
    /// 1.0; the reverse direction is untouched). Models link-asymmetry
    /// faults. A packet from `src` in flight *to `dst`* when the factor
    /// changes is conservatively lost (the link faded mid-packet), and all
    /// other in-flight receptions are re-checked against the changed
    /// interference geometry.
    fn set_link_gain(&mut self, src: StationId, dst: StationId, factor: f64);

    /// The current directional gain multiplier on the `src → dst` link.
    fn link_gain(&self, src: StationId, dst: StationId) -> f64;

    /// Add a continuous spatial noise emitter (initially active). Returns
    /// an index usable with [`Medium::set_noise_active`]. Ambient noise
    /// increased, so every in-flight reception the new emitter drowns out
    /// is invalidated, exactly as if an existing emitter were switched on.
    fn add_noise_source(&mut self, pos: Point, power: f64) -> usize;

    /// Enable or disable a spatial noise emitter. Turning one **on**
    /// invalidates any in-flight reception it now drowns out.
    fn set_noise_active(&mut self, index: usize, active: bool);

    /// Move a station (mobility). Any packet in flight to or from a moving
    /// station is corrupted (the paper's pads move between packets; this is
    /// a conservative rule for the general case), and all other in-flight
    /// receptions are re-checked against the new interference geometry.
    fn set_position(&mut self, id: StationId, pos: Point);

    /// Move a batch of stations, in order. Semantically identical to
    /// calling [`Medium::set_position`] once per entry — that loop *is*
    /// the default implementation and the oracle — but implementations
    /// may coalesce the redundant re-fold work between entries.
    /// Intermediate interference states are still honored: a reception
    /// drowned out halfway through the batch stays corrupted even if the
    /// final geometry would have been clean.
    fn set_positions(&mut self, moves: &[(StationId, Point)]) {
        for &(id, pos) in moves {
            self.set_position(id, pos);
        }
    }

    /// `true` iff stations `a` and `b` are within reception range.
    fn in_range(&self, a: StationId, b: StationId) -> bool;

    /// `true` iff station `id` is currently transmitting.
    fn is_transmitting(&self, id: StationId) -> bool;

    /// Carrier sense at station `id`: `true` iff the summed power of all
    /// other active transmissions (plus spatial noise) at `id` exceeds the
    /// reception threshold.
    fn carrier_busy(&self, id: StationId) -> bool;

    /// Number of transmissions currently in flight.
    fn active_count(&self) -> usize;

    /// Key station `source` up at time `now`. The caller must schedule the
    /// end-of-frame event and call [`Medium::end_tx`] when it fires.
    ///
    /// # Panics
    /// Panics if the station is already transmitting (the MAC layer must
    /// serialize its own transmissions).
    fn start_tx(&mut self, source: StationId, now: SimTime) -> TxId;

    /// Finish transmission `tx` at time `now`, returning one delivery per
    /// in-range station (in ascending station order, for determinism).
    ///
    /// Allocates a fresh `Vec` per call; event loops should prefer
    /// [`Medium::end_tx_into`] and reuse one buffer.
    ///
    /// # Panics
    /// Panics if `tx` is not in flight.
    fn end_tx(&mut self, tx: TxId, now: SimTime) -> Vec<Delivery> {
        let mut out = Vec::new();
        self.end_tx_into(tx, now, &mut out);
        out
    }

    /// Finish transmission `tx` at time `now`, writing one delivery per
    /// in-range station (in ascending station order) into `out`, which is
    /// cleared first. Reuses `out`'s capacity, so steady-state event
    /// processing allocates nothing.
    ///
    /// # Panics
    /// Panics if `tx` is not in flight.
    fn end_tx_into(&mut self, tx: TxId, now: SimTime, out: &mut Vec<Delivery>);

    /// Time at which transmission `tx` started, if still in flight.
    fn tx_start(&self, tx: TxId) -> Option<SimTime>;

    /// The station transmitting `tx`, if it is still in flight. Lets a
    /// caller that holds only the id attribute deliveries to a link before
    /// ending the transmission.
    fn tx_source(&self, tx: TxId) -> Option<StationId>;

    /// Approximate heap bytes held by the medium's station-dependent state
    /// (geometry caches, neighbor tables, running sums). The `scale` bench
    /// reports this to show the sparse medium's O(N·k) growth.
    fn memory_footprint(&self) -> usize;

    /// Side-channel operation counters (see [`MediumStats`]). The default
    /// is the all-zero struct; implementations without counters need not
    /// override it.
    fn medium_stats(&self) -> MediumStats {
        MediumStats::default()
    }
}

/// The medium contract test suite, instantiated per implementation.
///
/// Every behavioral unit test runs against both
/// [`SparseMedium`](crate::sparse::SparseMedium) and its oracle
/// [`ReferenceMedium`](crate::reference::ReferenceMedium) — the contract is
/// the semantics, not one implementation's internals, and it pins the
/// oracle itself.
#[cfg(test)]
macro_rules! medium_contract_tests {
    ($M:ty) => {
        use crate::geometry::Point;
        use crate::medium::{Medium, StationId};
        use crate::propagation::{Propagation, PropagationConfig};
        use macaw_sim::{SimDuration, SimRng, SimTime};

        fn t(us: u64) -> SimTime {
            SimTime::ZERO + SimDuration::from_micros(us)
        }

        fn mk(seed: u64) -> $M {
            <$M as Medium>::new(Propagation::new(PropagationConfig::default()), SimRng::new(seed))
        }

        /// Classic Figure-1 line: A — B — C with A/B and B/C in range but A/C
        /// out of range.
        fn line_medium() -> ($M, StationId, StationId, StationId) {
            let mut m = mk(1);
            let a = m.add_station(Point::new(0.0, 0.0, 0.0));
            let b = m.add_station(Point::new(8.0, 0.0, 0.0));
            let c = m.add_station(Point::new(16.0, 0.0, 0.0));
            assert!(m.in_range(a, b) && m.in_range(b, c) && !m.in_range(a, c));
            (m, a, b, c)
        }

        #[test]
        fn lone_transmission_is_received_cleanly_in_range_only() {
            let (mut m, a, b, c) = line_medium();
            let tx = m.start_tx(a, t(0));
            let deliveries = m.end_tx(tx, t(1000));
            assert_eq!(deliveries.len(), 1, "only B is in range of A");
            assert_eq!(deliveries[0].station, b);
            assert!(deliveries[0].clean);
            let _ = c;
        }

        #[test]
        fn hidden_terminal_collision_at_middle_station() {
            // A and C transmit simultaneously; B hears both and receives neither.
            let (mut m, a, _b, c) = line_medium();
            let ta = m.start_tx(a, t(0));
            let tc = m.start_tx(c, t(100));
            let da = m.end_tx(ta, t(1000));
            let dc = m.end_tx(tc, t(1100));
            assert!(!da[0].clean, "A's packet collides at B");
            assert!(!dc[0].clean, "C's packet collides at B");
        }

        #[test]
        fn exposed_terminal_does_not_corrupt() {
            // B transmits to A while C transmits "outward": C is in range of B
            // only, so C's signal never reaches A and B's packet at A is clean.
            let (mut m, a, b, c) = line_medium();
            let tb = m.start_tx(b, t(0));
            let tc = m.start_tx(c, t(50));
            let db = m.end_tx(tb, t(1000));
            let a_delivery = db.iter().find(|d| d.station == a).unwrap();
            assert!(a_delivery.clean, "C is out of range of A; no interference");
            let _ = m.end_tx(tc, t(1050));
        }

        #[test]
        fn collision_condition_holds_for_entire_packet() {
            // Interference that starts mid-packet and even *ends* before the
            // packet does must still corrupt it.
            let (mut m, a, _b, c) = line_medium();
            let ta = m.start_tx(a, t(0));
            let tc = m.start_tx(c, t(200));
            let _ = m.end_tx(tc, t(400)); // interferer ends early
            let da = m.end_tx(ta, t(1000));
            assert!(!da[0].clean, "margin was violated during [200,400]us");
        }

        #[test]
        fn interference_arriving_after_packet_end_is_harmless() {
            let (mut m, _a, b, c) = line_medium();
            let tb = m.start_tx(b, t(0));
            let db = m.end_tx(tb, t(1000));
            assert!(db.iter().all(|d| d.clean));
            let tc = m.start_tx(c, t(1000));
            let _ = m.end_tx(tc, t(2000));
        }

        #[test]
        fn half_duplex_receiver_keying_up_loses_packet() {
            let (mut m, a, b, _c) = line_medium();
            let ta = m.start_tx(a, t(0));
            let tb = m.start_tx(b, t(500)); // B keys up mid-reception
            let da = m.end_tx(ta, t(1000));
            assert!(!da.iter().find(|d| d.station == b).unwrap().clean);
            let _ = m.end_tx(tb, t(1500));
        }

        #[test]
        fn receiver_already_transmitting_never_hears() {
            let (mut m, a, b, _c) = line_medium();
            let tb = m.start_tx(b, t(0));
            let ta = m.start_tx(a, t(100));
            let da = m.end_tx(ta, t(600));
            assert!(!da.iter().find(|d| d.station == b).unwrap().clean);
            let _ = m.end_tx(tb, t(1000));
        }

        #[test]
        fn capture_lets_much_closer_station_win() {
            // Receiver 2 ft from near transmitter, 9 ft from far one: distance
            // ratio 4.5 ≫ 10^(1/γ), so the near signal captures.
            let mut m = mk(2);
            let near = m.add_station(Point::new(0.0, 0.0, 0.0));
            let rx = m.add_station(Point::new(2.0, 0.0, 0.0));
            let far = m.add_station(Point::new(11.0, 0.0, 0.0));
            assert!(m.in_range(rx, far));
            let tn = m.start_tx(near, t(0));
            let tf = m.start_tx(far, t(10));
            let dn = m.end_tx(tn, t(1000));
            assert!(dn.iter().find(|d| d.station == rx).unwrap().clean);
            let df = m.end_tx(tf, t(1010));
            assert!(!df.iter().find(|d| d.station == rx).unwrap().clean);
        }

        #[test]
        fn symmetry_in_range_is_reflexive_pairwise() {
            let (m, a, b, c) = line_medium();
            assert_eq!(m.in_range(a, b), m.in_range(b, a));
            assert_eq!(m.in_range(a, c), m.in_range(c, a));
        }

        #[test]
        fn carrier_sense_sees_in_range_transmitters_only() {
            let (mut m, a, b, c) = line_medium();
            assert!(!m.carrier_busy(b));
            let ta = m.start_tx(a, t(0));
            assert!(m.carrier_busy(b), "B hears A");
            assert!(!m.carrier_busy(c), "C does not hear A");
            assert!(!m.carrier_busy(a), "own transmission is not carrier");
            let _ = m.end_tx(ta, t(100));
            assert!(!m.carrier_busy(b));
        }

        #[test]
        fn rx_error_rate_corrupts_that_fraction_of_packets() {
            let mut m = mk(3);
            let a = m.add_station(Point::new(0.0, 0.0, 0.0));
            let b = m.add_station(Point::new(5.0, 0.0, 0.0));
            m.set_rx_error_rate(b, 0.1);
            let mut lost = 0;
            let mut clock = 0u64;
            for _ in 0..5_000 {
                let tx = m.start_tx(a, t(clock));
                clock += 100;
                let d = m.end_tx(tx, t(clock));
                if !d[0].clean {
                    lost += 1;
                }
            }
            let rate = lost as f64 / 5_000.0;
            assert!((rate - 0.1).abs() < 0.02, "observed loss rate {rate}");
        }

        #[test]
        fn spatial_noise_source_blocks_nearby_receiver() {
            let mut m = mk(4);
            let a = m.add_station(Point::new(0.0, 0.0, 0.0));
            let b = m.add_station(Point::new(8.0, 0.0, 0.0));
            let n = m.add_noise_source(Point::new(9.0, 0.0, 0.0), 1.0);
            let tx = m.start_tx(a, t(0));
            let d = m.end_tx(tx, t(1000));
            assert!(!d[0].clean, "noise adjacent to B drowns A's signal");
            m.set_noise_active(n, false);
            let tx = m.start_tx(a, t(2000));
            let d = m.end_tx(tx, t(3000));
            assert!(d[0].clean, "noise off: clean again");
            let _ = b;
        }

        #[test]
        fn mobility_moves_station_between_cells() {
            let mut m = mk(5);
            let base1 = m.add_station(Point::new(0.0, 0.0, 6.0));
            let base2 = m.add_station(Point::new(40.0, 0.0, 6.0));
            let pad = m.add_station(Point::new(3.0, 0.0, 0.0));
            assert!(m.in_range(pad, base1) && !m.in_range(pad, base2));
            m.set_position(pad, Point::new(37.0, 0.0, 0.0));
            assert!(!m.in_range(pad, base1) && m.in_range(pad, base2));
        }

        #[test]
        fn moving_receiver_mid_packet_loses_it() {
            let (mut m, a, b, _c) = line_medium();
            let ta = m.start_tx(a, t(0));
            m.set_position(b, Point::new(9.0, 0.0, 0.0));
            let da = m.end_tx(ta, t(1000));
            assert!(!da.iter().find(|d| d.station == b).unwrap().clean);
        }

        #[test]
        #[should_panic(expected = "already transmitting")]
        fn double_start_panics() {
            let (mut m, a, _b, _c) = line_medium();
            let _ = m.start_tx(a, t(0));
            let _ = m.start_tx(a, t(1));
        }

        #[test]
        fn deliveries_are_sorted_by_station_for_determinism() {
            let mut m = mk(6);
            let mut ids = Vec::new();
            for i in 0..5 {
                ids.push(m.add_station(Point::new(i as f64, 0.0, 0.0)));
            }
            let tx = m.start_tx(ids[2], t(0));
            let d = m.end_tx(tx, t(100));
            let stations: Vec<_> = d.iter().map(|x| x.station).collect();
            let mut sorted = stations.clone();
            sorted.sort();
            assert_eq!(stations, sorted);
            assert_eq!(stations.len(), 4);
        }

        #[test]
        fn end_tx_into_reuses_buffer_and_matches_end_tx() {
            let (mut m, a, b, _c) = line_medium();
            let mut buf = Vec::new();
            let tx = m.start_tx(a, t(0));
            m.end_tx_into(tx, t(1000), &mut buf);
            assert_eq!(buf.len(), 1);
            assert_eq!(buf[0].station, b);
            assert!(buf[0].clean);
            let cap = buf.capacity();
            let tx = m.start_tx(a, t(2000));
            m.end_tx_into(tx, t(3000), &mut buf);
            assert_eq!(buf.len(), 1);
            assert_eq!(buf.capacity(), cap, "the buffer must be reused, not reallocated");
        }

        #[test]
        fn power_change_refreshes_audibility_cache() {
            let (mut m, a, _b, c) = line_medium();
            assert!(!m.hears(c, a));
            m.set_tx_power(a, 1000.0);
            assert!(m.hears(c, a), "louder A now reaches C");
            let tx = m.start_tx(a, t(0));
            let d = m.end_tx(tx, t(1000));
            assert!(
                d.iter().any(|x| x.station == c && x.clean),
                "the cached audible list must include C after the power change"
            );
            m.set_tx_power(a, 1.0);
            let tx = m.start_tx(a, t(2000));
            let d = m.end_tx(tx, t(3000));
            assert!(!d.iter().any(|x| x.station == c));
        }

        #[test]
        fn mobility_refreshes_audibility_and_carrier_sense() {
            let (mut m, a, b, c) = line_medium();
            // Move A to the far side of C: C now hears A's carrier, B no longer does.
            m.set_position(a, Point::new(24.0, 0.0, 0.0));
            let ta = m.start_tx(a, t(0));
            assert!(m.carrier_busy(c), "C hears the moved A");
            assert!(!m.carrier_busy(b), "B is now out of range of A");
            let d = m.end_tx(ta, t(1000));
            assert!(d.iter().any(|x| x.station == c && x.clean));
            assert!(!d.iter().any(|x| x.station == b));
        }

        #[test]
        fn link_gain_is_directional_and_reversible() {
            let (mut m, a, b, _c) = line_medium();
            m.set_link_gain(a, b, 0.0);
            assert!(!m.hears(b, a), "the faded direction is dead");
            assert!(m.hears(a, b), "the reverse direction is untouched");
            let tx = m.start_tx(a, t(0));
            let d = m.end_tx(tx, t(1000));
            assert!(
                !d.iter().any(|x| x.station == b),
                "B is no longer in A's audible set"
            );
            m.set_link_gain(a, b, 1.0);
            assert!(m.hears(b, a), "restoring the factor restores the link");
            let tx = m.start_tx(a, t(2000));
            let d = m.end_tx(tx, t(3000));
            assert!(d.iter().any(|x| x.station == b && x.clean));
        }

        #[test]
        fn link_fade_mid_packet_loses_that_packet() {
            let (mut m, a, b, _c) = line_medium();
            let tx = m.start_tx(a, t(0));
            m.set_link_gain(a, b, 0.01);
            let d = m.end_tx(tx, t(1000));
            assert!(
                !d.iter().find(|x| x.station == b).unwrap().clean,
                "a fade during the flight corrupts the packet"
            );
        }

        #[test]
        fn tx_source_reports_in_flight_transmissions_only() {
            let (mut m, a, _b, _c) = line_medium();
            let tx = m.start_tx(a, t(0));
            assert_eq!(m.tx_source(tx), Some(a));
            let _ = m.end_tx(tx, t(100));
            assert_eq!(m.tx_source(tx), None);
        }

        #[test]
        fn station_added_mid_flight_sees_consistent_interference() {
            let (mut m, a, _b, _c) = line_medium();
            let ta = m.start_tx(a, t(0));
            // Registering a new station while a transmission is in flight must
            // fold the active interference into the newcomer's running sums.
            let d = m.add_station(Point::new(4.0, 0.0, 0.0));
            assert!(m.carrier_busy(d), "the newcomer hears the in-flight carrier");
            let _ = m.end_tx(ta, t(1000));
            assert!(!m.carrier_busy(d));
        }

        #[test]
        fn memory_footprint_is_positive_and_grows() {
            let mut m = mk(8);
            for i in 0..8 {
                m.add_station(Point::new((i * 3) as f64, 0.0, 0.0));
            }
            let small = m.memory_footprint();
            assert!(small > 0);
            for i in 8..64 {
                m.add_station(Point::new((i * 3) as f64, 0.0, 0.0));
            }
            assert!(m.memory_footprint() > small);
        }

        /// §4's reason for declining power variation, demonstrated: with unequal
        /// transmit powers the radio is no longer symmetric, so "A hears B" no
        /// longer implies "B hears A" — the property the CTS mechanism needs.
        #[test]
        fn unequal_power_breaks_symmetry() {
            let mut m = mk(11);
            let loud = m.add_station(Point::new(0.0, 0.0, 0.0));
            let quiet = m.add_station(Point::new(12.0, 0.0, 0.0));
            assert!(!m.hears(quiet, loud) && !m.hears(loud, quiet), "baseline: both out of range");
            // Boost the loud station ~3x in range terms.
            m.set_tx_power(loud, 1000.0);
            assert!(m.hears(quiet, loud), "the loud station now reaches further");
            assert!(!m.hears(loud, quiet), "...but cannot hear the reply");
            // And its packets actually arrive.
            let tx = m.start_tx(loud, t(0));
            let d = m.end_tx(tx, t(1000));
            assert!(d.iter().any(|x| x.station == quiet && x.clean));
            // While the quiet station's never do.
            let tx = m.start_tx(quiet, t(2000));
            let d = m.end_tx(tx, t(3000));
            assert!(!d.iter().any(|x| x.station == loud));
        }

        /// A louder interferer needs proportionally more distance to be
        /// captured over.
        #[test]
        fn loud_interferer_defeats_capture() {
            let go = |interferer_power: f64| {
                let mut m = mk(12);
                let near = m.add_station(Point::new(0.0, 0.0, 0.0));
                let rx = m.add_station(Point::new(2.0, 0.0, 0.0));
                let far = m.add_station(Point::new(9.0, 0.0, 0.0));
                m.set_tx_power(far, interferer_power);
                let tn = m.start_tx(near, t(0));
                let _tf = m.start_tx(far, t(10));
                let dn = m.end_tx(tn, t(1000));
                dn.iter().find(|d| d.station == rx).unwrap().clean
            };
            assert!(go(1.0), "at equal power the near signal captures");
            assert!(!go(1000.0), "a 30 dB louder interferer defeats capture");
        }

        #[test]
        fn equal_powers_keep_hears_symmetric() {
            let mut m = mk(13);
            let a = m.add_station(Point::new(0.0, 0.0, 0.0));
            let b = m.add_station(Point::new(8.0, 0.0, 0.0));
            assert_eq!(m.hears(a, b), m.hears(b, a));
            assert!(m.hears(a, b));
        }

        /// End_tx-heavy churn: interleaved out-of-order starts and ends
        /// across clustered cells with mid-flight mobility. Debug builds
        /// assert every restricted fold against the full reference fold on
        /// every operation, so this schedule stresses admission-order
        /// preservation through arbitrary removal patterns (the slab's
        /// free-list recycling in the sparse medium, the ordered removal in
        /// the reference).
        #[test]
        fn interleaved_churn_keeps_folds_consistent() {
            let mut m = mk(14);
            let mut ids = Vec::new();
            for i in 0..24usize {
                let cluster = (i / 6) as f64 * 14.0;
                let off = (i % 6) as f64 * 2.0;
                ids.push(m.add_station(Point::new(cluster + off, 0.0, 0.0)));
            }
            // A fixed LCG drives the schedule so every implementation sees
            // the identical operation sequence.
            let mut state = 0x9E37_79B9_7F4A_7C15u64;
            let mut next = move |bound: u64| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) % bound
            };
            let mut in_flight: Vec<crate::medium::TxId> = Vec::new();
            let mut clock = 0u64;
            for _ in 0..600 {
                clock += 37;
                let r = next(10);
                if r < 4 && in_flight.len() < ids.len() / 2 {
                    let mut k = next(ids.len() as u64) as usize;
                    while m.is_transmitting(ids[k]) {
                        k = (k + 1) % ids.len();
                    }
                    in_flight.push(m.start_tx(ids[k], t(clock)));
                } else if r < 8 && !in_flight.is_empty() {
                    let at = next(in_flight.len() as u64) as usize;
                    let tx = in_flight.remove(at);
                    let _ = m.end_tx(tx, t(clock));
                } else {
                    // Mobility — including mid-flight moves of an active
                    // transmitter, the heaviest refold path.
                    let k = next(ids.len() as u64) as usize;
                    let x = next(60) as f64;
                    m.set_position(ids[k], Point::new(x, 1.0, 0.0));
                }
                assert_eq!(m.active_count(), in_flight.len());
            }
            for tx in in_flight {
                clock += 1;
                let _ = m.end_tx(tx, t(clock));
            }
            assert_eq!(m.active_count(), 0);
        }

        /// A power change on a station that is mid-transmission must corrupt
        /// its own in-flight packet and re-verdict everyone else's.
        #[test]
        fn mid_flight_power_change_corrupts_packets() {
            let mut m = mk(21);
            let near = m.add_station(Point::new(0.0, 0.0, 0.0));
            let rx = m.add_station(Point::new(2.0, 0.0, 0.0));
            let far = m.add_station(Point::new(9.0, 0.0, 0.0));
            let fr = m.add_station(Point::new(16.0, 0.0, 0.0));
            let tn = m.start_tx(near, t(0));
            let tf = m.start_tx(far, t(10));
            // At equal powers the near signal captures at rx (see
            // loud_interferer_defeats_capture); boosting far mid-flight must
            // re-check the standing verdict, not just future packets.
            m.set_tx_power(far, 1000.0);
            let dn = m.end_tx(tn, t(1000));
            assert!(
                !dn.iter().find(|d| d.station == rx).unwrap().clean,
                "interference that grows mid-flight corrupts the packet"
            );
            // And far's own packet is lost: the waveform changed mid-frame.
            let df = m.end_tx(tf, t(1010));
            assert!(!df.iter().find(|d| d.station == fr).unwrap().clean);
            let _ = near;
        }

        /// The conservative mid-flight move rule applies even when the move
        /// lands in the same quantized cube — the fast-path early-out may
        /// skip the geometry work but never the corruption semantics.
        #[test]
        fn zero_distance_move_still_corrupts_in_flight() {
            let (mut m, a, b, _c) = line_medium();
            let ta = m.start_tx(a, t(0));
            m.set_position(b, m.position(b));
            let da = m.end_tx(ta, t(1000));
            assert!(!da.iter().find(|d| d.station == b).unwrap().clean);
        }

        /// Adding a noise emitter mid-flight increases ambient interference
        /// and must drown affected receptions, exactly like switching an
        /// existing emitter on.
        #[test]
        fn noise_source_added_mid_flight_drowns_reception() {
            let mut m = mk(22);
            let a = m.add_station(Point::new(0.0, 0.0, 0.0));
            let b = m.add_station(Point::new(8.0, 0.0, 0.0));
            let tx = m.start_tx(a, t(0));
            let _n = m.add_noise_source(Point::new(9.0, 0.0, 0.0), 1.0);
            let d = m.end_tx(tx, t(1000));
            assert!(!d[0].clean, "noise appearing mid-flight drowns the reception");
            let _ = b;
        }

        /// A coalesced move batch is semantically the sequential loop: same
        /// deliveries bit for bit, same carrier sense, same positions —
        /// including a mid-flight transmitter move and a station moved twice
        /// within one batch.
        #[test]
        fn batched_moves_match_sequential_moves() {
            let build = || {
                let mut m = mk(23);
                let mut ids = Vec::new();
                for i in 0..12usize {
                    ids.push(m.add_station(Point::new(i as f64 * 3.0, 0.0, 0.0)));
                }
                (m, ids)
            };
            let (mut m1, ids) = build();
            let (mut m2, _) = build();
            let t1 = m1.start_tx(ids[0], t(0));
            let t2 = m2.start_tx(ids[0], t(0));
            let moves = [
                (ids[3], Point::new(50.0, 0.0, 0.0)),
                (ids[4], Point::new(4.0, 1.0, 0.0)),
                (ids[0], Point::new(1.0, 1.0, 0.0)),
                (ids[5], Point::new(15.0, 2.0, 0.0)),
                (ids[3], Point::new(9.0, 0.0, 0.0)),
            ];
            m1.set_positions(&moves);
            for &(id, p) in &moves {
                m2.set_position(id, p);
            }
            for &k in &ids {
                assert_eq!(m1.carrier_busy(k), m2.carrier_busy(k));
                assert_eq!(m1.position(k), m2.position(k));
            }
            let d1 = m1.end_tx(t1, t(1000));
            let d2 = m2.end_tx(t2, t(1000));
            assert_eq!(d1, d2);
        }
    };
}

#[cfg(test)]
pub(crate) use medium_contract_tests;

//! A multi-station world built from [`Oracle`]s: the checker's transition
//! system.
//!
//! The world composes one [`Oracle`] per station with a directed hearing
//! relation and a set of in-flight transmissions. Its nondeterminism
//! alphabet is exactly what a real radio environment leaves open:
//!
//! * **which near-simultaneous deadline fires first** — timer firings and
//!   flight ends whose deadlines fall within one [`TieBand`] epsilon
//!   (strictly inside the MAC's `TIMEOUT_MARGIN`; see `TIE_EPSILON`) are
//!   concurrent and explored in every order; deadlines further apart keep
//!   their physical order, so a contention slot never races a 16 ms data
//!   packet and a margin-guarded timeout never races the response it
//!   guards;
//! * **frame reception order** — when one flight ends at several clean
//!   receivers, every delivery order is explored (a receiver's reaction
//!   can key up its radio and matters to the stations stepped after it);
//! * **frame loss / corruption** — the [`FaultClass`] adversary may spend
//!   a bounded budget discarding clean receptions (`Loss`), corrupting a
//!   whole flight (`Noise`), or blinding a station's carrier sense at the
//!   instant it matters (`CarrierBlind`). The budget bound is what makes
//!   "eventual delivery" meaningful: an unbounded adversary starves any
//!   protocol.
//!
//! Everything else is deterministic: station RNG streams are seeded at
//! construction and their positions are part of the canonical state, so a
//! revisited [`CanonState`] provably has identical futures.
//!
//! Physics is the same model the simulation core uses, reduced to a
//! boolean hearing matrix: a reception is clean iff no other audible
//! transmission overlaps it and the receiver itself never keys up while it
//! is on the air; carrier sense reports any audible foreign transmission.

use std::cmp::Ordering;
use std::sync::Arc;

use macaw_mac::context::MacFeedback;
use macaw_mac::harness::Action;
use macaw_mac::{
    Addr, Frame, MacInvariantViolation, MacProtocol, MacSdu, MacSnapshot, Oracle, Relabeling,
    Stimulus, StreamId,
};
use macaw_sim::{SimDuration, SimTime, TieBand};

use crate::topology::{SymPerm, Topology};

/// The bounded fault adversary active during exploration.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultClass {
    /// Perfect channel: interleaving nondeterminism only.
    None,
    /// Up to `budget` clean receptions may be silently discarded
    /// (per-receiver loss: one station misses a frame others hear).
    Loss { budget: u8 },
    /// Up to `budget` whole flights may be corrupted by a noise burst
    /// (no station receives them).
    Noise { budget: u8 },
    /// Up to `budget` carrier-sense queries may falsely report an idle
    /// channel at the instant a station acts on them — the sensing failure
    /// that makes carrier-sense protocols collide even within one cell.
    CarrierBlind { budget: u8 },
}

impl FaultClass {
    fn budget(self) -> u8 {
        match self {
            FaultClass::None => 0,
            FaultClass::Loss { budget }
            | FaultClass::Noise { budget }
            | FaultClass::CarrierBlind { budget } => budget,
        }
    }
}

/// One transition of the world, fully determined: which deadline fired and
/// every adversary choice attached to it. Doubles as the trace alphabet of
/// counterexamples. `Ord` gives sleep sets a deterministic sorted form.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum WorldEvent {
    /// Station `station`'s MAC timer fires. With `blind`, the adversary
    /// spends one budget point making its carrier-sense query report idle.
    Fire { station: usize, blind: bool },
    /// The flight transmitted by `src` ends. `order` is the delivery order
    /// over the clean receivers, `lost` the receivers whose reception the
    /// adversary discarded, `noise` whether the whole flight was corrupted.
    FlightEnd {
        src: usize,
        order: Vec<usize>,
        lost: Vec<usize>,
        noise: bool,
    },
}

impl WorldEvent {
    /// `true` iff this event spends adversary budget. Two budget-spending
    /// events are never independent: the shared budget couples their
    /// enabledness.
    pub fn spends_budget(&self) -> bool {
        match self {
            WorldEvent::Fire { blind, .. } => *blind,
            WorldEvent::FlightEnd { lost, noise, .. } => *noise || !lost.is_empty(),
        }
    }
}

/// A list of events refilled in place, one per search depth: the explorer
/// fills its choices and sleep sets into these. Entries past the live
/// length are kept, and a `FlightEnd` written over an entry reuses the
/// `order` and `lost` vectors of a spare `FlightEnd`, so a fill no larger
/// than an earlier one allocates nothing.
#[derive(Default)]
pub(crate) struct EventBuf {
    events: Vec<WorldEvent>,
    len: usize,
}

impl EventBuf {
    /// Empty the list, keeping every entry's buffers.
    pub(crate) fn clear(&mut self) {
        self.len = 0;
    }

    /// The live events.
    pub(crate) fn as_slice(&self) -> &[WorldEvent] {
        &self.events[..self.len]
    }

    /// Sort the live events (no allocation: an unstable sort, and equal
    /// events are identical).
    pub(crate) fn sort(&mut self) {
        self.events[..self.len].sort_unstable();
    }

    /// The entry to overwrite next, holding a `FlightEnd` iff `flight`:
    /// a spare entry of that kind is swapped in when there is one, so a
    /// `Fire` never overwrites (and drops) a `FlightEnd`'s vectors.
    fn next_slot(&mut self, flight: bool) -> &mut WorldEvent {
        let is_flight = |e: &WorldEvent| matches!(e, WorldEvent::FlightEnd { .. });
        match (self.len..self.events.len()).find(|&j| is_flight(&self.events[j]) == flight) {
            Some(j) => self.events.swap(self.len, j),
            None => {
                self.events.push(if flight {
                    WorldEvent::FlightEnd {
                        src: 0,
                        order: Vec::new(),
                        lost: Vec::new(),
                        noise: false,
                    }
                } else {
                    WorldEvent::Fire {
                        station: 0,
                        blind: false,
                    }
                });
                let last = self.events.len() - 1;
                self.events.swap(self.len, last);
            }
        }
        self.len += 1;
        &mut self.events[self.len - 1]
    }

    pub(crate) fn push_fire(&mut self, station: usize, blind: bool) {
        *self.next_slot(false) = WorldEvent::Fire { station, blind };
    }

    pub(crate) fn push_flight_end(
        &mut self,
        src: usize,
        order: impl IntoIterator<Item = usize>,
        lost: impl IntoIterator<Item = usize>,
        noise: bool,
    ) {
        let WorldEvent::FlightEnd {
            src: s,
            order: o,
            lost: l,
            noise: z,
        } = self.next_slot(true)
        else {
            unreachable!("next_slot(true) yields a FlightEnd");
        };
        *s = src;
        o.clear();
        o.extend(order);
        l.clear();
        l.extend(lost);
        *z = noise;
    }

    /// Append a copy of `ev`.
    pub(crate) fn push_clone(&mut self, ev: &WorldEvent) {
        match ev {
            WorldEvent::Fire { station, blind } => self.push_fire(*station, *blind),
            WorldEvent::FlightEnd {
                src,
                order,
                lost,
                noise,
            } => self.push_flight_end(*src, order.iter().copied(), lost.iter().copied(), *noise),
        }
    }

    /// Append the event the relabeled world would take: `ev` with every
    /// station index `s` rewritten to `station[s]`. `order` is a delivery
    /// sequence and keeps its order; `lost` is a set and is re-sorted.
    pub(crate) fn push_relabeled(&mut self, ev: &WorldEvent, station: &[usize]) {
        match ev {
            WorldEvent::Fire { station: s, blind } => self.push_fire(station[*s], *blind),
            WorldEvent::FlightEnd {
                src,
                order,
                lost,
                noise,
            } => {
                let at = |&r: &usize| station[r];
                let (order, lost) = (order.iter().map(at), lost.iter().map(at));
                self.push_flight_end(station[*src], order, lost, *noise);
                if let WorldEvent::FlightEnd { lost, .. } = &mut self.events[self.len - 1] {
                    lost.sort_unstable();
                }
            }
        }
    }
}

/// A transmission on the air.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct Flight {
    src: usize,
    frame: Frame,
    ends: SimTime,
    /// Stations where overlap or half-duplex ruined the reception, as a
    /// [`rx_bit`] mask.
    dirty: u64,
}

/// Station `r`'s bit in a flight's dirty mask over `n` stations, packed
/// MSB-first: station 0 takes the highest used bit, so comparing two masks
/// as integers orders them like the per-station `bool` vectors they
/// encode, which keeps [`CanonState`]'s derived order (and with it
/// [`World::canon_min`]'s choice of minimiser) independent of the packing.
fn rx_bit(n: usize, r: usize) -> u64 {
    1 << (n - 1 - r)
}

/// Canonical world state: station snapshots with now-relative timer
/// offsets and RNG stream digests, in-flight transmissions with
/// now-relative remaining air time, the adversary budget, and the
/// (monotone) progress counters. Two worlds with equal canonical states
/// have identical future behaviour under identical choices, which is what
/// makes deduplication and on-path cycle detection sound. Monotone
/// progress counters also make the livelock check self-contained: any
/// on-path revisit *is* a cycle without progress.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct CanonState<S> {
    stations: Vec<(S, Option<SimDuration>, u64)>,
    flights: Vec<(usize, Frame, SimDuration, u64)>,
    budget: u8,
    delivered: u32,
    resolved: u32,
}

impl<S> CanonState<S> {
    /// A blank state for the `_into` fills.
    fn empty() -> Self {
        CanonState {
            stations: Vec::new(),
            flights: Vec::new(),
            budget: 0,
            delivered: 0,
            resolved: 0,
        }
    }
}

/// The buffers [`World::canon_min_into`] refills on every call: the result,
/// the un-relabeled state and the image under comparison. Once they have
/// grown to a world's shape, canonicalizing allocates nothing.
pub(crate) struct CanonBufs<S> {
    /// The canonical state of the last fill.
    pub(crate) min: CanonState<S>,
    base: CanonState<S>,
    cand: CanonState<S>,
}

impl<S> Default for CanonBufs<S> {
    fn default() -> Self {
        CanonBufs {
            min: CanonState::empty(),
            base: CanonState::empty(),
            cand: CanonState::empty(),
        }
    }
}

/// The checker's transition system: stations + air + adversary.
pub struct World<P: MacProtocol + MacSnapshot> {
    clock: SimTime,
    stations: Vec<Oracle<P>>,
    /// Shared by every world of one check: children clone the pointer,
    /// not the hearing matrix and symmetry group.
    topo: Arc<Topology>,
    band: TieBand,
    fault: FaultClass,
    budget: u8,
    flights: Vec<Flight>,
    /// Per-station hearing-closure bitmask: station `s`, everyone who
    /// hears `s` and everyone `s` hears. Any interaction between two
    /// events passes through a station in both closures, so events with
    /// disjoint closure footprints commute (see [`World::independent`]).
    /// Derived from the topology once per [`World::new`] and shared.
    closure: Arc<[u64]>,
    /// Packets handed to senders at injection.
    pub offered: u32,
    /// `deliver_up` calls observed at receivers.
    pub delivered: u32,
    /// Sender-side packet resolutions (`Sent`, `Dropped` or `Refused`
    /// feedback): a world is fully accounted when `resolved == offered`.
    pub resolved: u32,
}

/// By hand so that `clone_from` refills every station and the flight list
/// in place: the explorer refills one spare child world per depth from its
/// parent on every transition. Destructuring the source makes a new field a
/// compile error here instead of a stale copy.
impl<P: MacProtocol + MacSnapshot + Clone> Clone for World<P> {
    fn clone(&self) -> Self {
        World {
            clock: self.clock,
            stations: self.stations.clone(),
            topo: Arc::clone(&self.topo),
            band: self.band,
            fault: self.fault,
            budget: self.budget,
            flights: self.flights.clone(),
            closure: Arc::clone(&self.closure),
            offered: self.offered,
            delivered: self.delivered,
            resolved: self.resolved,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        let World {
            clock,
            stations,
            topo,
            band,
            fault,
            budget,
            flights,
            closure,
            offered,
            delivered,
            resolved,
        } = source;
        self.clock = *clock;
        self.stations.clone_from(stations);
        self.topo.clone_from(topo);
        self.band = *band;
        self.fault = *fault;
        self.budget = *budget;
        self.flights.clone_from(flights);
        self.closure.clone_from(closure);
        self.offered = *offered;
        self.delivered = *delivered;
        self.resolved = *resolved;
    }
}

impl<P: MacProtocol + MacSnapshot + Clone> World<P> {
    /// Build a world over `topo` with one station per node, seeding each
    /// station's RNG stream from `seed` and its symmetry orbit
    /// ([`Topology::seed_class`]). Symmetric stations share a seed — the
    /// RNG digest is part of the canonical state, so orbit-identical seeds
    /// are what make the declared permutations true automorphisms. With no
    /// declared symmetry the classes are the station indices and the
    /// seeding is the historical per-station scheme, bit for bit.
    ///
    /// # Panics
    /// Panics on more than 64 stations: closure footprints and flight
    /// dirty sets are `u64` masks, and a silently truncated mask would
    /// make [`World::independent`] unsound.
    pub fn new(
        topo: impl Into<Arc<Topology>>,
        fault: FaultClass,
        band: TieBand,
        seed: u64,
        make: impl Fn(usize) -> P,
    ) -> Self {
        let topo: Arc<Topology> = topo.into();
        assert!(
            topo.n <= 64,
            "{}: {} stations, but the checker's station masks hold at most 64",
            topo.name,
            topo.n
        );
        let stations = (0..topo.n)
            .map(|i| {
                Oracle::new(
                    make(i),
                    seed ^ (topo.seed_class[i] as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                )
            })
            .collect();
        let closure = (0..topo.n)
            .map(|s| {
                let mut m = 1u64 << s;
                for r in 0..topo.n {
                    if topo.hears[s][r] || topo.hears[r][s] {
                        m |= 1 << r;
                    }
                }
                m
            })
            .collect();
        World {
            clock: SimTime::ZERO,
            stations,
            topo,
            band,
            fault,
            budget: fault.budget(),
            flights: Vec::new(),
            closure,
            offered: 0,
            delivered: 0,
            resolved: 0,
        }
    }

    /// Queue one 512-byte packet per topology flow (at t = 0, in flow
    /// order — the initial condition, not an explored choice).
    pub fn inject(&mut self) -> Result<(), MacInvariantViolation> {
        for fi in 0..self.topo.flows.len() {
            let (src, dst) = self.topo.flows[fi];
            let sdu = MacSdu {
                stream: StreamId(fi as u32),
                transport_seq: 1,
                bytes: 512,
            };
            self.offered += 1;
            let busy = self.carrier_busy(src);
            self.stations[src].set_carrier(busy);
            let enqueue = Stimulus::Enqueue {
                dst: Addr::Unicast(dst),
                sdu,
            };
            self.step_station(src, enqueue, &mut |_, _| {})?;
        }
        Ok(())
    }

    /// Current world clock.
    pub fn clock(&self) -> SimTime {
        self.clock
    }

    /// The topology under check.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Short state names per station, for traces.
    pub fn state_kinds(&self) -> Vec<&'static str> {
        self.stations.iter().map(|s| s.mac().state_kind()).collect()
    }

    /// `true` iff any transmission from another audible station is on the
    /// air at `station`.
    fn carrier_busy(&self, station: usize) -> bool {
        self.flights
            .iter()
            .any(|f| f.src != station && self.topo.hears[f.src][station])
    }

    fn refresh_carriers(&mut self) {
        for i in 0..self.topo.n {
            let busy = self.carrier_busy(i);
            self.stations[i].set_carrier(busy);
        }
    }

    /// Step station `i` and fold what it did into the world: transmissions
    /// key up flights, deliveries and feedback advance the progress
    /// counters, and `log` sees each action. Carriers are refreshed once
    /// after the step: no station steps in between, so no MAC reads them
    /// earlier.
    fn step_station(
        &mut self,
        i: usize,
        stim: Stimulus,
        log: &mut impl FnMut(usize, &Action),
    ) -> Result<(), MacInvariantViolation> {
        let obs = self.stations[i].step(stim)?;
        let mut keyed = false;
        for a in obs.actions {
            match a {
                Action::Transmit(f) => {
                    Self::start_flight(&mut self.flights, &self.topo, self.clock, *f);
                    keyed = true;
                }
                Action::DeliverUp { .. } => self.delivered += 1,
                Action::Feedback(
                    MacFeedback::Sent { .. }
                    | MacFeedback::Dropped { .. }
                    | MacFeedback::Refused { .. },
                ) => self.resolved += 1,
            }
            log(i, a);
        }
        if keyed {
            self.refresh_carriers();
        }
        Ok(())
    }

    fn start_flight(flights: &mut Vec<Flight>, topo: &Topology, clock: SimTime, frame: Frame) {
        let Addr::Unicast(src) = frame.src else {
            unreachable!("stations transmit from unicast addresses");
        };
        debug_assert!(
            flights.iter().all(|f| f.src != src),
            "station {src} keyed up while already transmitting"
        );
        let n = topo.n;
        let mut dirty = rx_bit(n, src); // own transmission is never a reception
        for g in flights.iter_mut() {
            for r in 0..n {
                // Overlap: a station hearing both transmitters decodes
                // neither.
                if topo.hears[src][r] && topo.hears[g.src][r] {
                    dirty |= rx_bit(n, r);
                    g.dirty |= rx_bit(n, r);
                }
            }
            // Half-duplex: a keyed-up station hears nothing, and keying up
            // mid-reception ruins the reception.
            dirty |= rx_bit(n, g.src);
            g.dirty |= rx_bit(n, src);
        }
        let ends = clock + frame.duration();
        flights.push(Flight {
            src,
            frame,
            ends,
            dirty,
        });
    }

    /// Every enabled transition from this state, in deterministic order:
    /// for each deadline in the current [`TieBand`], one event per
    /// adversary choice attached to it. Empty iff the world is quiescent.
    pub fn choices(&self) -> Vec<WorldEvent> {
        let mut out = EventBuf::default();
        self.choices_into(false, &mut out);
        out.as_slice().to_vec()
    }

    /// [`World::choices`] with the reception-order reduction: delivery
    /// orders of one flight are filtered to Foata normal forms — orders
    /// with no adjacent descending pair of mutually-inaudible receivers.
    /// Two receivers that cannot hear each other react to the same frame
    /// without interacting (neither's reaction reaches the other, carrier
    /// included), so every order is equivalent to the kept ascending
    /// representative of its commutation class.
    pub fn choices_reduced(&self) -> Vec<WorldEvent> {
        let mut out = EventBuf::default();
        self.choices_into(true, &mut out);
        out.as_slice().to_vec()
    }

    /// [`World::choices`] (or, with `reduce`, [`World::choices_reduced`])
    /// refilled into `out`. The deadlines [`TieBand::enabled`] would pick
    /// are taken in its order: armed timers by station, then flights in
    /// keying order.
    pub(crate) fn choices_into(&self, reduce: bool, out: &mut EventBuf) {
        out.clear();
        let timers = self.stations.iter().filter_map(|s| s.timer_deadline());
        let ends = self.flights.iter().map(|f| f.ends);
        let Some(earliest) = timers.chain(ends).min() else {
            return;
        };
        let cutoff = earliest + self.band.epsilon;
        for (station, s) in self.stations.iter().enumerate() {
            if s.timer_deadline().is_some_and(|t| t <= cutoff) {
                out.push_fire(station, false);
                if matches!(self.fault, FaultClass::CarrierBlind { .. })
                    && self.budget > 0
                    && self.carrier_busy(station)
                {
                    out.push_fire(station, true);
                }
            }
        }
        for f in self.flights.iter().filter(|f| f.ends <= cutoff) {
            self.flight_end_choices(f, reduce, out);
        }
    }

    /// The events that end flight `f`: for each loss subset of its clean
    /// receivers within the budget (smallest mask first), every delivery
    /// order of the survivors, then the noise burst if one is allowed.
    ///
    /// # Panics
    /// Panics on 32 or more clean receivers: loss subsets are walked as
    /// `u32` masks, and a wrapped shift would silently yield only the
    /// empty subset, dropping every `Loss` choice.
    fn flight_end_choices(&self, f: &Flight, reduce: bool, out: &mut EventBuf) {
        let n = self.topo.n;
        let mut clean = [0; 64];
        let mut k = 0;
        for r in 0..n {
            if r != f.src
                && self.topo.hears[f.src][r]
                && f.dirty & rx_bit(n, r) == 0
                && self.flights.iter().all(|g| g.src != r)
            {
                clean[k] = r;
                k += 1;
            }
        }
        assert!(
            k < 32,
            "{k} clean receivers: loss subsets are enumerated as u32 masks (at most 31)"
        );
        let clean = &clean[..k];
        let loss_budget = match self.fault {
            FaultClass::Loss { .. } => self.budget,
            _ => 0,
        };
        let mut surviving = [0; 64];
        let mut order = [0; 64];
        for mask in 0u32..(1 << k) {
            if mask.count_ones() > u32::from(loss_budget) {
                continue;
            }
            let mut m = 0;
            for (i, &r) in clean.iter().enumerate() {
                if mask & (1 << i) == 0 {
                    surviving[m] = r;
                    m += 1;
                }
            }
            let lost = (0..k).filter(|i| mask & (1 << i) != 0).map(|i| clean[i]);
            self.delivery_orders(&surviving[..m], reduce, 0, &mut order, 0, &mut |o| {
                out.push_flight_end(f.src, o.iter().copied(), lost.clone(), false);
            });
        }
        if matches!(self.fault, FaultClass::Noise { .. }) && self.budget > 0 && k > 0 {
            out.push_flight_end(f.src, [], [], true);
        }
    }

    /// Call `emit` with every order of the receivers `v` (ascending) that
    /// extends `order[..len]` without using the indices in `used`, in
    /// lexicographic order. With `reduce`, a prefix is dropped at its
    /// first descending, mutually inaudible adjacent pair: every order
    /// through it fails [`World::choices_reduced`]'s Foata test, and every
    /// order kept has passed it pair by pair.
    fn delivery_orders(
        &self,
        v: &[usize],
        reduce: bool,
        used: u64,
        order: &mut [usize; 64],
        len: usize,
        emit: &mut impl FnMut(&[usize]),
    ) {
        if len == v.len() {
            emit(&order[..len]);
            return;
        }
        for (i, &r) in v.iter().enumerate() {
            if used & (1 << i) != 0 {
                continue;
            }
            if reduce && len > 0 {
                let prev = order[len - 1];
                if prev > r && !self.topo.hears[prev][r] && !self.topo.hears[r][prev] {
                    continue;
                }
            }
            order[len] = r;
            self.delivery_orders(v, reduce, used | 1 << i, order, len + 1, emit);
        }
    }

    /// Apply one transition, passing each station's actions to `log` in
    /// the order they happened (counterexample traces record them; the
    /// search passes a sink that ignores them). `Err` carries a MAC
    /// invariant violation — itself a checkable outcome, not a crash.
    pub fn apply(
        &mut self,
        ev: &WorldEvent,
        mut log: impl FnMut(usize, &Action),
    ) -> Result<(), MacInvariantViolation> {
        match ev {
            WorldEvent::Fire { station, blind } => {
                let deadline = self.stations[*station]
                    .timer_deadline()
                    .expect("Fire chosen for a station with no armed timer");
                // An epsilon-reordered firing may come up "late": never
                // move the world clock backwards.
                self.advance(deadline.max(self.clock));
                if *blind {
                    debug_assert!(self.budget > 0);
                    self.budget -= 1;
                    self.stations[*station].set_carrier(false);
                }
                self.step_station(*station, Stimulus::Timer, &mut log)?;
                if *blind {
                    // Restore the true carrier state after the blinded query.
                    self.refresh_carriers();
                }
            }
            WorldEvent::FlightEnd {
                src,
                order,
                lost,
                noise,
            } => {
                let fi = self
                    .flights
                    .iter()
                    .position(|f| f.src == *src)
                    .expect("FlightEnd chosen for an idle station");
                let f = self.flights.remove(fi);
                self.advance(f.ends.max(self.clock));
                self.refresh_carriers();
                if *noise {
                    debug_assert!(self.budget > 0);
                    self.budget -= 1;
                } else {
                    debug_assert!(lost.len() <= self.budget as usize);
                    self.budget -= lost.len() as u8;
                    // Receivers first (reception completes as the carrier
                    // drops), in the chosen order; then the transmitter's
                    // own continuation — same discipline as the simulation
                    // core's event loop.
                    for &r in order {
                        self.step_station(r, Stimulus::Receive(f.frame), &mut log)?;
                    }
                }
                self.step_station(*src, Stimulus::TxEnd, &mut log)?;
            }
        }
        Ok(())
    }

    fn advance(&mut self, t: SimTime) {
        self.clock = t;
        for s in &mut self.stations {
            s.advance_to(t);
        }
    }

    /// A station wedged in a state it can never leave: a wait state with
    /// no armed timer, or a (believed) transmission with nothing on the
    /// air — and the converse, a flight owned by a station that no longer
    /// thinks it is transmitting.
    pub fn stuck(&self) -> Option<(usize, String)> {
        for (i, s) in self.stations.iter().enumerate() {
            let kind = s.mac().state_kind();
            if s.mac().awaits_timer() && s.timer_deadline().is_none() {
                return Some((i, format!("wait state {kind} with no armed timer")));
            }
            let keyed = self.flights.iter().any(|f| f.src == i);
            if s.mac().transmitting() && !keyed {
                return Some((i, format!("transmit state {kind} with nothing on the air")));
            }
            if !s.mac().transmitting() && keyed {
                return Some((i, format!("flight on the air but the MAC is in {kind}")));
            }
        }
        None
    }

    /// Canonical state for deduplication and cycle detection. Flights are
    /// sorted by transmitter (unique per flight), so two worlds whose
    /// flight *sets* are equal but were keyed up in different orders — the
    /// residue of commuted event orders — canonicalize equal.
    pub fn canon(&self) -> CanonState<P::Snap> {
        let mut out = CanonState::empty();
        self.canon_into(&mut out);
        out
    }

    /// [`World::canon`] written into `out`, which may hold any earlier
    /// state: station snapshots are refilled through
    /// [`MacSnapshot::snapshot_into`] and the flight list in place.
    pub(crate) fn canon_into(&self, out: &mut CanonState<P::Snap>) {
        // Exhaustive, so a new field is an unused binding until it is
        // either canonicalized or named here as outside the state.
        let World {
            clock,
            stations,
            topo: _,
            band: _,
            fault: _,
            budget,
            flights,
            closure: _,
            offered: _,
            delivered,
            resolved,
        } = self;
        out.stations.truncate(stations.len());
        for (i, s) in stations.iter().enumerate() {
            let timer = s.timer_deadline().map(|t| t.saturating_since(*clock));
            let digest = s.rng_digest();
            match out.stations.get_mut(i) {
                Some(e) => {
                    s.mac().snapshot_into(*clock, &mut e.0);
                    e.1 = timer;
                    e.2 = digest;
                }
                None => out.stations.push((s.mac().snapshot(*clock), timer, digest)),
            }
        }
        out.flights.clear();
        out.flights.extend(
            flights
                .iter()
                .map(|f| (f.src, f.frame, f.ends.saturating_since(*clock), f.dirty)),
        );
        out.flights.sort_by_key(|(src, ..)| *src);
        out.budget = *budget;
        out.delivered = *delivered;
        out.resolved = *resolved;
    }

    /// Symmetry-reduced canonical state: the lexicographically-least image
    /// of [`World::canon`] under the topology's symmetry group, plus the
    /// index of the minimizing permutation (the explorer relabels sleep
    /// sets through it so they live in the same canonical label space).
    /// With the identity-only group this is exactly `canon()`.
    pub fn canon_min(&self) -> (CanonState<P::Snap>, usize) {
        let mut bufs = CanonBufs::default();
        let pi = self.canon_min_into(&mut bufs);
        (bufs.min, pi)
    }

    /// [`World::canon_min`] written into `bufs.min`, every image built in
    /// `bufs`' reused buffers; returns the minimizing permutation's index.
    /// Each image after the first is abandoned at its first station greater
    /// than the best so far ([`World::image_beats`]), and a tie keeps the
    /// earlier permutation, so the state and the index are exactly those
    /// of the full-image minimum by `CanonState`'s derived `Ord`.
    pub(crate) fn canon_min_into(&self, bufs: &mut CanonBufs<P::Snap>) -> usize {
        let sym = &self.topo.sym;
        if sym.len() <= 1 {
            self.canon_into(&mut bufs.min);
            return 0;
        }
        self.canon_into(&mut bufs.base);
        self.image_into(&bufs.base, &sym[0], &mut bufs.min);
        let mut best = 0;
        for (pi, p) in sym.iter().enumerate().skip(1) {
            if self.image_beats(&bufs.base, p, &bufs.min, &mut bufs.cand) {
                std::mem::swap(&mut bufs.min, &mut bufs.cand);
                best = pi;
            }
        }
        best
    }

    /// The image of `c` under one symmetry, written into `out`: station
    /// tuples move to their images (snapshots internally relabeled — peer
    /// tables re-sorted by the MAC's own `relabel`), flight dirty masks are
    /// permuted, and flights re-sorted by their new transmitter. Applied
    /// to every orbit candidate, identity included, so the per-snapshot
    /// normalizations compare consistently.
    fn image_into(&self, c: &CanonState<P::Snap>, p: &SymPerm, out: &mut CanonState<P::Snap>) {
        out.stations.truncate(self.topo.n);
        for j in 0..self.topo.n {
            Self::image_station(c, p, j, out);
        }
        self.image_rest(c, p, out);
    }

    /// Build the image of `c` under `p` into `cand` one station at a time,
    /// in canonical order, and report whether it is less than `best` by
    /// `CanonState`'s derived `Ord`. Stations are that order's first field
    /// and every image has the same count, so the image loses at its first
    /// station greater than `best`'s (the rest is never relabeled), and
    /// wins at its first lesser one (and is then finished). Flights are
    /// compared only when every station ties; a full tie loses, keeping
    /// the earlier permutation. The budget and progress counters are the
    /// same in every image of one state.
    fn image_beats(
        &self,
        c: &CanonState<P::Snap>,
        p: &SymPerm,
        best: &CanonState<P::Snap>,
        cand: &mut CanonState<P::Snap>,
    ) -> bool {
        let mut order = Ordering::Equal;
        cand.stations.truncate(self.topo.n);
        for j in 0..self.topo.n {
            Self::image_station(c, p, j, cand);
            if order == Ordering::Equal {
                order = cand.stations[j].cmp(&best.stations[j]);
                if order == Ordering::Greater {
                    return false;
                }
            }
        }
        self.image_rest(c, p, cand);
        order == Ordering::Less || cand.flights < best.flights
    }

    /// Write image station `j` of `c` under `p` — the relabeled tuple of
    /// the station `p` sends to `j` — into `out`, which holds at least `j`
    /// stations.
    fn image_station(
        c: &CanonState<P::Snap>,
        p: &SymPerm,
        j: usize,
        out: &mut CanonState<P::Snap>,
    ) {
        let map = Relabeling {
            station: &p.station,
            stream: &p.stream,
        };
        let i = p
            .station
            .iter()
            .position(|&to| to == j)
            .expect("symmetries are permutations");
        let (s, t, d) = &c.stations[i];
        match out.stations.get_mut(j) {
            Some(e) => {
                P::relabel_into(s, &map, &mut e.0);
                e.1 = *t;
                e.2 = *d;
            }
            None => out.stations.push((P::relabel(s, &map), *t, *d)),
        }
    }

    /// Write the image of `c`'s flights and counters under `p` into `out`.
    fn image_rest(&self, c: &CanonState<P::Snap>, p: &SymPerm, out: &mut CanonState<P::Snap>) {
        let CanonState {
            stations: _, // written by `image_station`
            flights,
            budget,
            delivered,
            resolved,
        } = c;
        let map = Relabeling {
            station: &p.station,
            stream: &p.stream,
        };
        let n = self.topo.n;
        out.flights.clear();
        out.flights
            .extend(flights.iter().map(|(src, frame, ends, dirty)| {
                let nd = (0..n)
                    .filter(|&r| dirty & rx_bit(n, r) != 0)
                    .fold(0, |m, r| m | rx_bit(n, p.station[r]));
                (p.station[*src], map.frame(frame), *ends, nd)
            }));
        out.flights.sort_by_key(|(src, ..)| *src);
        out.budget = *budget;
        out.delivered = *delivered;
        out.resolved = *resolved;
    }

    /// The instant `ev` fires (its deadline; both events of an independent
    /// pair must share it exactly, or the later-first order would make the
    /// earlier event fire "late" and shift every timer it arms).
    pub fn event_deadline(&self, ev: &WorldEvent) -> SimTime {
        match ev {
            WorldEvent::Fire { station, .. } => self.stations[*station]
                .timer_deadline()
                .expect("deadline of a Fire for a station with no armed timer"),
            WorldEvent::FlightEnd { src, .. } => {
                self.flights
                    .iter()
                    .find(|f| f.src == *src)
                    .expect("deadline of a FlightEnd for an idle station")
                    .ends
            }
        }
    }

    /// Hearing-closure footprint of `ev`: the stations whose state the
    /// event can read or write, directly or through a reaction it
    /// triggers. A `Fire` acts at its station and radiates at most one
    /// hop; a `FlightEnd` steps the transmitter and every delivered
    /// receiver, each of which may key up its own radio.
    pub fn footprint(&self, ev: &WorldEvent) -> u64 {
        match ev {
            WorldEvent::Fire { station, .. } => self.closure[*station],
            WorldEvent::FlightEnd { src, order, .. } => order
                .iter()
                .fold(self.closure[*src], |m, &r| m | self.closure[r]),
        }
    }

    /// Conditional independence of two enabled events: they commute
    /// exactly — either order reaches the same state and preserves the
    /// other's enabledness — iff their closure footprints are disjoint,
    /// their deadlines coincide, and they do not both spend adversary
    /// budget. Any physical interaction (overlap dirtying, carrier sense,
    /// half-duplex, a reception racing a reaction) passes through a
    /// station that hears or is heard by both acting stations, which the
    /// closure masks then share.
    pub fn independent(&self, a: &WorldEvent, b: &WorldEvent) -> bool {
        if a.spends_budget() && b.spends_budget() {
            return false;
        }
        if self.event_deadline(a) != self.event_deadline(b) {
            return false;
        }
        self.footprint(a) & self.footprint(b) == 0
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::explore::TIE_EPSILON;
    use macaw_mac::{MacConfig, WMac, WMacSnapshot};

    /// The world at every visit of an exhaustive search over the reduced
    /// choice set, revisits included, in depth-first order: consecutive
    /// worlds after a backtrack come from different branches.
    pub(crate) fn visits(topo: Topology, fault: FaultClass, cfg: MacConfig) -> Vec<World<WMac>> {
        let band = TieBand::new(TIE_EPSILON);
        let mut root = World::new(topo, fault, band, 1, |i| WMac::new(Addr::Unicast(i), cfg));
        root.inject().unwrap();
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        let mut stack = vec![root];
        while let Some(w) = stack.pop() {
            if seen.insert(w.canon()) {
                for ev in w.choices_reduced() {
                    let mut child = w.clone();
                    child.apply(&ev, |_, _| {}).unwrap();
                    stack.push(child);
                }
            }
            out.push(w);
        }
        out
    }

    /// Every visit of the searches on a symmetric family and on one
    /// without symmetry, under the MACAW and the MACA configuration.
    fn every_visit() -> Vec<Vec<World<WMac>>> {
        let mut runs = Vec::new();
        for cfg in [MacConfig::macaw(), MacConfig::maca()] {
            let families = [
                (
                    Topology::mirrored_chain_burst(),
                    FaultClass::Loss { budget: 1 },
                ),
                (
                    Topology::exposed_terminal(),
                    FaultClass::Noise { budget: 1 },
                ),
            ];
            for (topo, fault) in families {
                let run = visits(topo, fault, crate::proof_wmac(cfg));
                assert!(run.len() > 100, "a non-trivial space: {}", run.len());
                runs.push(run);
            }
        }
        runs
    }

    #[test]
    fn clone_from_refills_a_dirty_world_exactly() {
        for run in every_visit() {
            let mut dirty = run[run.len() - 1].clone();
            for w in &run {
                // `dirty` holds the previous visit's world, from another
                // branch after every backtrack.
                dirty.clone_from(w);
                let fresh = w.clone();
                assert_eq!(dirty.canon(), fresh.canon());
                assert_eq!(dirty.clock, fresh.clock);
                assert_eq!(dirty.flights, fresh.flights);
                assert_eq!(dirty.budget, fresh.budget);
                for (a, b) in dirty.stations.iter().zip(&fresh.stations) {
                    assert_eq!(a.timer_deadline(), b.timer_deadline());
                    assert_eq!(a.rng_digest(), b.rng_digest());
                    assert_eq!(a.mac().stats(), b.mac().stats());
                }
                assert_eq!(
                    (dirty.offered, dirty.delivered, dirty.resolved),
                    (fresh.offered, fresh.delivered, fresh.resolved)
                );
                assert_eq!(dirty.choices(), fresh.choices());
                // A second fill of the same shape keeps the station and
                // flight buffers.
                let buffers = (dirty.stations.as_ptr(), dirty.flights.as_ptr());
                dirty.clone_from(w);
                assert_eq!((dirty.stations.as_ptr(), dirty.flights.as_ptr()), buffers);
            }
        }
    }

    #[test]
    fn snapshot_and_relabel_refill_dirty_buffers_exactly() {
        for run in every_visit() {
            // One buffer for both fills: it always holds the previous
            // station's snapshot or image.
            let mut buf = run[0].stations[1].mac().snapshot(SimTime::ZERO);
            for w in &run {
                for s in &w.stations {
                    let fresh = s.mac().snapshot(w.clock);
                    s.mac().snapshot_into(w.clock, &mut buf);
                    assert_eq!(buf, fresh);
                    for p in &w.topo.sym {
                        let map = Relabeling {
                            station: &p.station,
                            stream: &p.stream,
                        };
                        WMac::relabel_into(&fresh, &map, &mut buf);
                        assert_eq!(buf, WMac::relabel(&fresh, &map));
                    }
                }
            }
        }
    }

    /// The image of `c` under `p`, built whole by the owned `relabel`: the
    /// minimiser's oracle.
    fn full_image(
        w: &World<WMac>,
        c: &CanonState<WMacSnapshot>,
        p: &SymPerm,
    ) -> CanonState<WMacSnapshot> {
        let map = Relabeling {
            station: &p.station,
            stream: &p.stream,
        };
        let mut stations: Vec<_> = c
            .stations
            .iter()
            .enumerate()
            .map(|(i, (s, t, d))| (p.station[i], (WMac::relabel(s, &map), *t, *d)))
            .collect();
        stations.sort_by_key(|(i, _)| *i);
        let n = w.topo.n;
        let mut flights: Vec<_> = c
            .flights
            .iter()
            .map(|(src, frame, ends, dirty)| {
                let nd = (0..n)
                    .filter(|&r| dirty & rx_bit(n, r) != 0)
                    .fold(0, |m, r| m | rx_bit(n, p.station[r]));
                (p.station[*src], map.frame(frame), *ends, nd)
            })
            .collect();
        flights.sort_by_key(|(src, ..)| *src);
        CanonState {
            stations: stations.into_iter().map(|(_, v)| v).collect(),
            flights,
            budget: c.budget,
            delivered: c.delivered,
            resolved: c.resolved,
        }
    }

    /// Every image built whole, the least kept, a tie keeping the earlier
    /// permutation: the early-exit minimiser's oracle.
    fn full_image_min(w: &World<WMac>) -> (CanonState<WMacSnapshot>, usize) {
        let base = w.canon();
        if w.topo.sym.len() <= 1 {
            return (base, 0);
        }
        let mut best: Option<(CanonState<WMacSnapshot>, usize)> = None;
        for (pi, p) in w.topo.sym.iter().enumerate() {
            let cand = full_image(w, &base, p);
            match &best {
                Some((b, _)) if *b <= cand => {}
                _ => best = Some((cand, pi)),
            }
        }
        best.expect("symmetry group is non-empty")
    }

    #[test]
    fn early_exit_minimiser_matches_the_full_image_loop() {
        let (mut ties, mut moved) = (0, 0);
        for run in every_visit() {
            // One set of buffers across the run: each fill starts dirty.
            let mut bufs = CanonBufs::default();
            for w in &run {
                let (min, pi) = full_image_min(w);
                assert_eq!(w.canon_min_into(&mut bufs), pi);
                assert_eq!(bufs.min, min);
                let base = w.canon();
                let images = w.topo.sym.iter().filter(|p| full_image(w, &base, p) == min);
                ties += usize::from(images.count() > 1);
                moved += usize::from(pi != 0);
            }
        }
        // Both rules are exercised: some minimum is a later permutation's
        // image, and some is reached by more than one permutation.
        assert!(moved > 0 && ties > 0, "{moved} moved, {ties} tied");
    }

    fn wmac_world(topo: Topology) -> World<WMac> {
        // Half the timeout margin: exact ties race, margin-guarded
        // timeout/response pairs stay ordered.
        let band = TieBand::new(TIE_EPSILON);
        World::new(topo, FaultClass::None, band, 1, |i| {
            WMac::new(Addr::Unicast(i), MacConfig::macaw())
        })
    }

    #[test]
    fn injection_arms_contention_and_nothing_else() {
        let mut w = wmac_world(Topology::shared_cell(2));
        w.inject().unwrap();
        assert_eq!(w.offered, 1);
        assert_eq!(w.state_kinds(), vec!["Contend", "Idle"]);
        let choices = w.choices();
        assert_eq!(choices.len(), 1, "only the contention timer is enabled");
        assert!(matches!(choices[0], WorldEvent::Fire { station: 0, blind: false }));
    }

    #[test]
    fn a_flight_reaches_the_peer_and_collisions_mark_dirty() {
        let mut w = wmac_world(Topology::hidden_terminal());
        w.inject().unwrap();
        // Drive both contention timers (in either tie order — pick the
        // first choice each time) until both RTS flights are up.
        while w.flights.len() < 2 {
            let evs = w.choices();
            let fire = evs
                .iter()
                .find(|e| matches!(e, WorldEvent::Fire { .. }))
                .cloned();
            match fire {
                Some(ev) => {
                    w.apply(&ev, |_, _| {}).unwrap();
                }
                None => break, // flights ended before both keyed up
            }
        }
        if w.flights.len() == 2 {
            // Both RTS flights overlap at the shared receiver: dirty there.
            assert!(w.flights.iter().all(|f| f.dirty & rx_bit(3, 1) != 0));
            // The flight-end choices offer no receivers.
            let evs = w.choices();
            assert!(evs.iter().all(|e| match e {
                WorldEvent::FlightEnd { order, .. } => order.is_empty(),
                _ => true,
            }));
        }
    }

    #[test]
    fn canonical_state_rebases_times() {
        let mut w = wmac_world(Topology::shared_cell(2));
        w.inject().unwrap();
        let c1 = w.canon();
        // The same world advanced in wall-clock (by zero transitions) has
        // the same canonical state.
        assert_eq!(c1, w.canon());
    }

    /// All subsets of `v` with at most `k` elements, smallest masks first.
    fn subsets_up_to(v: &[usize], k: usize) -> Vec<Vec<usize>> {
        let mut out = Vec::new();
        for mask in 0u32..(1 << v.len()) {
            if (mask.count_ones() as usize) <= k {
                out.push(
                    v.iter()
                        .enumerate()
                        .filter(|(i, _)| mask & (1 << i) != 0)
                        .map(|(_, &r)| r)
                        .collect(),
                );
            }
        }
        out
    }

    /// All permutations of `v` in lexicographic index order.
    fn permutations(v: &[usize]) -> Vec<Vec<usize>> {
        if v.len() <= 1 {
            return vec![v.to_vec()];
        }
        let mut out = Vec::new();
        for i in 0..v.len() {
            let mut rest = v.to_vec();
            let head = rest.remove(i);
            for mut tail in permutations(&rest) {
                tail.insert(0, head);
                out.push(tail);
            }
        }
        out
    }

    /// Keep `order` iff no adjacent pair is descending and mutually
    /// inaudible.
    fn foata_minimal(w: &World<WMac>, order: &[usize]) -> bool {
        order
            .windows(2)
            .all(|p| p[0] < p[1] || w.topo.hears[p[0]][p[1]] || w.topo.hears[p[1]][p[0]])
    }

    /// Every enabled event, enumerated by building each list whole: the
    /// deadlines through [`TieBand::enabled`], every loss subset and every
    /// permutation of the survivors, Foata-filtered after the fact. The
    /// buffered enumeration's oracle.
    fn choices_oracle(w: &World<WMac>, reduce: bool) -> Vec<WorldEvent> {
        enum Tag {
            Timer(usize),
            Flight(usize),
        }
        let mut deadlines = Vec::new();
        let mut tags = Vec::new();
        for (i, s) in w.stations.iter().enumerate() {
            if let Some(t) = s.timer_deadline() {
                deadlines.push(t);
                tags.push(Tag::Timer(i));
            }
        }
        for (fi, f) in w.flights.iter().enumerate() {
            deadlines.push(f.ends);
            tags.push(Tag::Flight(fi));
        }
        let mut out = Vec::new();
        for idx in w.band.enabled(&deadlines) {
            match tags[idx] {
                Tag::Timer(station) => {
                    out.push(WorldEvent::Fire {
                        station,
                        blind: false,
                    });
                    if matches!(w.fault, FaultClass::CarrierBlind { .. })
                        && w.budget > 0
                        && w.carrier_busy(station)
                    {
                        out.push(WorldEvent::Fire {
                            station,
                            blind: true,
                        });
                    }
                }
                Tag::Flight(fi) => {
                    let f = &w.flights[fi];
                    let clean: Vec<usize> = (0..w.topo.n)
                        .filter(|&r| {
                            r != f.src
                                && w.topo.hears[f.src][r]
                                && f.dirty & rx_bit(w.topo.n, r) == 0
                                && w.flights.iter().all(|g| g.src != r)
                        })
                        .collect();
                    let loss_budget = match w.fault {
                        FaultClass::Loss { .. } => w.budget as usize,
                        _ => 0,
                    };
                    for lost in subsets_up_to(&clean, loss_budget) {
                        let surviving: Vec<usize> = clean
                            .iter()
                            .copied()
                            .filter(|r| !lost.contains(r))
                            .collect();
                        for order in permutations(&surviving) {
                            if reduce && !foata_minimal(w, &order) {
                                continue;
                            }
                            out.push(WorldEvent::FlightEnd {
                                src: f.src,
                                order,
                                lost: lost.clone(),
                                noise: false,
                            });
                        }
                    }
                    if matches!(w.fault, FaultClass::Noise { .. })
                        && w.budget > 0
                        && !clean.is_empty()
                    {
                        out.push(WorldEvent::FlightEnd {
                            src: f.src,
                            order: Vec::new(),
                            lost: Vec::new(),
                            noise: true,
                        });
                    }
                }
            }
        }
        out
    }

    #[test]
    fn buffered_choices_match_the_allocating_enumeration() {
        let (mut orders, mut pruned) = (0, 0);
        for run in every_visit() {
            // One buffer per mode across the run: each fill starts dirty.
            let mut bufs = [EventBuf::default(), EventBuf::default()];
            for w in &run {
                for (reduce, buf) in [false, true].into_iter().zip(&mut bufs) {
                    w.choices_into(reduce, buf);
                    assert_eq!(buf.as_slice(), choices_oracle(w, reduce));
                }
                let longest = |evs: &[WorldEvent]| {
                    evs.iter()
                        .map(|e| match e {
                            WorldEvent::FlightEnd { order, .. } => order.len(),
                            WorldEvent::Fire { .. } => 0,
                        })
                        .max()
                };
                orders += usize::from(longest(bufs[0].as_slice()) >= Some(2));
                pruned += usize::from(bufs[1].as_slice().len() < bufs[0].as_slice().len());
            }
        }
        // Both rules are exercised: visits with several delivery orders,
        // and visits where the Foata filter drops some.
        assert!(
            orders > 0 && pruned > 0,
            "{orders} with orders, {pruned} pruned"
        );
    }

    #[test]
    fn subset_and_permutation_enumeration_is_deterministic() {
        assert_eq!(subsets_up_to(&[7, 8], 1), vec![vec![], vec![7], vec![8]]);
        assert_eq!(
            permutations(&[1, 2, 3]).len(),
            6,
            "3 receivers explore all 6 delivery orders"
        );
        assert_eq!(permutations(&[]), vec![Vec::<usize>::new()]);
    }

    #[test]
    #[should_panic(expected = "station masks hold at most 64")]
    fn worlds_beyond_64_stations_are_rejected() {
        let _ = wmac_world(Topology::from_links("wide", 65, &[], &[], &[]));
    }

    #[test]
    #[should_panic(expected = "loss subsets are enumerated as u32 masks")]
    fn loss_subsets_beyond_31_receivers_are_rejected() {
        // Station 0 keys up an RTS that 32 idle stations hear cleanly.
        let links: Vec<(usize, usize)> = (1..33).map(|r| (0, r)).collect();
        let mut w = wmac_world(Topology::from_links("wide", 33, &links, &[], &[(0, 1)]));
        w.inject().unwrap();
        let fire = WorldEvent::Fire {
            station: 0,
            blind: false,
        };
        w.apply(&fire, |_, _| {}).unwrap();
        assert_eq!(w.flights.len(), 1);
        let _ = w.choices();
    }
}

//! The simulated network: radio medium + MAC state machines + transports +
//! traffic generators, driven by one deterministic event loop.
//!
//! # Event model
//!
//! End-of-transmission (frame delivery), application packet arrivals and
//! scheduled scenario actions (mobility, power, noise) flow through one
//! totally-ordered event queue. MAC and transport timers do *not*: each
//! station (and each transport endpoint) has at most one live timer, and a
//! busy MAC re-arms its defer timer on nearly every overheard frame — so
//! queueing timers would fill the heap with superseded entries (measured at
//! ~37% of all pops). Instead each timer lives in its owner's slot as a
//! `(deadline, sort key)` pair, with the sort key drawn from the queue's own
//! insertion counter ([`EventQueue::alloc_key`]); the run loop fires
//! whichever of the queue head and the earliest timer sorts first, which
//! interleaves them exactly as if every timer had been queued. Re-arming a
//! timer is then an O(1) overwrite instead of a heap push plus a stale pop.
//!
//! End-of-transmission events carry a lower same-instant priority value
//! than timers, so a station whose contention slot lands exactly where an
//! overheard frame ends processes the frame — and defers — before its own
//! timer would let it transmit.
//!
//! # Re-entrancy
//!
//! A received DATA packet can make a TCP receiver emit an ACK segment,
//! which re-enters the very MAC that is currently borrowed. All such
//! upcalls are therefore buffered as `Effect`s and drained iteratively
//! after each event handler returns; nothing ever re-enters a borrowed
//! state machine.

use std::collections::VecDeque;

use macaw_mac::context::{MacContext, MacFeedback, MacProtocol, MacResult};
use macaw_mac::frames::{Addr, Frame, MacSdu, StreamId, Timing};
use macaw_phy::{
    corrupt_deliveries, Delivery, LinkWindow, Medium, Point, SparseMedium, StationId, TxId,
};
use macaw_sim::{
    EventQueue, FastHashMap, Fel, FelChoice, LadderFel, NextFire, QueueStats, SimDuration, SimRng,
    SimTime,
};
use macaw_traffic::TrafficSource;
use macaw_transport::{Segment, Transport, TransportContext};

use crate::error::SimError;
use crate::partition::Partition;
use crate::stats::{RunReport, StreamReport};

/// A trace record emitted by [`Network::set_tracer`] hooks. Useful for
/// debugging protocol dynamics and for building packet logs.
#[derive(Clone, Debug)]
pub enum TraceEvent {
    /// A frame finished transmitting; `clean` lists stations that received
    /// it intact, `dirty` those that heard garbage.
    Frame {
        at: SimTime,
        frame: Frame,
        clean: Vec<usize>,
        dirty: Vec<usize>,
    },
    /// A MAC timer fired at a station.
    MacTimer { at: SimTime, station: usize },
}

/// Same-instant priority for end-of-transmission (frame delivery) events.
const PRIO_TX_END: u8 = 0;
/// Same-instant priority for every kind of timer.
const PRIO_TIMER: u8 = 128;

/// Which endpoint of a stream.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Side {
    Sender,
    Receiver,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Event {
    /// A station's transmission ends; deliver to everyone in range. The
    /// `epoch` stamps which incarnation of the station keyed up: a crash
    /// aborts the transmission and bumps the station's epoch, so the
    /// already-queued TxEnd arrives stale and must be ignored (a restarted
    /// station may have a *new* transmission in flight by then).
    TxEnd { station: u32, epoch: u32 },
    /// The application on a stream produces its next packet.
    AppArrival { stream: u32 },
    /// A scheduled scenario action (mobility / power / noise) fires.
    Action { index: u32 },
}

/// Hard cap on events processed at a single simulated instant. The
/// legitimate same-instant burst is bounded by stations + streams (every
/// timer plus every frame end firing together); a station re-arming a
/// zero-length timer from its own timer handler is the classic livelock
/// and blows past this within a millisecond of wall time.
const LIVELOCK_SAME_INSTANT_CAP: u64 = 100_000;

/// A pending timer held outside the event queue: fire time plus the sort
/// key ([`EventQueue::alloc_key`]) that orders it against queued events.
/// "No timer" is the [`NO_TIMER`] sentinel rather than an `Option` so the
/// per-event min scan over all timer slots stays branch-light: the sentinel
/// compares greater than every real timer (real sort keys fit in 8+56 bits,
/// so they never reach `u64::MAX`).
type PendingTimer = (SimTime, u64);

/// Sentinel for an idle timer slot; loses every `<` comparison.
const NO_TIMER: PendingTimer = (SimTime::from_nanos(u64::MAX), u64::MAX);

/// Bit marking a [`TimerIndex`] slot index as a transport (not MAC) slot.
const TP_SLOT: u32 = 1 << 31;

/// Marker for "this slot has no heap node" in the [`TimerIndex`] position
/// maps.
const TIMER_ABSENT: u32 = u32::MAX;

/// [`TimerIndex`] heap arity (same fan-out as the simulator's FEL heaps).
const TIMER_ARITY: usize = 4;

/// Incremental index of pending timers: an array-backed 4-ary min-heap
/// with decrease-key support. Each armed slot owns at most one heap node,
/// found through a dense position map (`pos_mac` by station, `pos_tp` by
/// transport slot), so re-arming a timer moves its node in place and
/// clearing one deletes it — [`TimerIndex::peek`] is O(1) and exact, with
/// no stale entries to drain. The lazy-deletion predecessor of this index
/// pushed a fresh node on every write and left the superseded one to be
/// popped later; with a busy MAC re-arming its defer timer on nearly
/// every overheard frame, that cost ~1.6 pushes plus ~0.9 dead pops per
/// simulation event and dominated the run loop. Sort keys come from
/// [`EventQueue::alloc_key`]'s globally unique counter, so the minimum is
/// unambiguous and fire order is identical to a full linear scan (kept as
/// the `scan_timers` debug oracle).
#[derive(Default)]
struct TimerIndex {
    /// Heap nodes `(deadline, sort key, slot)`, minimum at index 0.
    heap: Vec<(SimTime, u64, u32)>,
    /// Station index → heap position, or [`TIMER_ABSENT`].
    pos_mac: Vec<u32>,
    /// Transport slot index → heap position, or [`TIMER_ABSENT`].
    pos_tp: Vec<u32>,
}

impl TimerIndex {
    /// Register one MAC timer slot (a new station).
    fn add_mac_slot(&mut self) {
        self.pos_mac.push(TIMER_ABSENT);
    }

    /// Register `n` transport timer slots (a new stream adds two).
    fn add_tp_slots(&mut self, n: usize) {
        let len = self.pos_tp.len() + n;
        self.pos_tp.resize(len, TIMER_ABSENT);
    }

    /// The earliest pending timer across every slot, O(1).
    #[inline]
    fn peek(&self) -> Option<(SimTime, u64, u32)> {
        self.heap.first().copied()
    }

    #[inline]
    fn pos(&mut self, slot: u32) -> &mut u32 {
        if slot & TP_SLOT != 0 {
            &mut self.pos_tp[(slot & !TP_SLOT) as usize]
        } else {
            &mut self.pos_mac[slot as usize]
        }
    }

    /// Account for `slot` being overwritten with `tk` (possibly
    /// [`NO_TIMER`]): insert, move, or delete the slot's node in place.
    fn note_write(&mut self, slot: u32, tk: PendingTimer) {
        let p = *self.pos(slot);
        if tk == NO_TIMER {
            if p != TIMER_ABSENT {
                self.remove(p as usize);
            }
        } else if p != TIMER_ABSENT {
            let i = p as usize;
            self.heap[i].0 = tk.0;
            self.heap[i].1 = tk.1;
            self.restore(i);
        } else {
            self.heap.push((tk.0, tk.1, slot));
            let i = self.heap.len() - 1;
            *self.pos(slot) = i as u32;
            self.sift_up(i);
        }
    }

    #[inline]
    fn key(&self, i: usize) -> (SimTime, u64) {
        (self.heap[i].0, self.heap[i].1)
    }

    /// Point the position map at the node currently sitting at `i`.
    #[inline]
    fn place(&mut self, i: usize) {
        let slot = self.heap[i].2;
        *self.pos(slot) = i as u32;
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / TIMER_ARITY;
            if self.key(parent) <= self.key(i) {
                break;
            }
            self.heap.swap(parent, i);
            self.place(i);
            i = parent;
        }
        self.place(i);
    }

    fn sift_down(&mut self, mut i: usize) {
        loop {
            let first = i * TIMER_ARITY + 1;
            if first >= self.heap.len() {
                break;
            }
            let last = (first + TIMER_ARITY).min(self.heap.len());
            let mut min = first;
            for c in first + 1..last {
                if self.key(c) < self.key(min) {
                    min = c;
                }
            }
            if self.key(i) <= self.key(min) {
                break;
            }
            self.heap.swap(i, min);
            self.place(i);
            i = min;
        }
        self.place(i);
    }

    /// Re-establish the heap property around `i` after its key changed.
    fn restore(&mut self, i: usize) {
        if i > 0 && self.key((i - 1) / TIMER_ARITY) > self.key(i) {
            self.sift_up(i);
        } else {
            self.sift_down(i);
        }
    }

    fn remove(&mut self, i: usize) {
        let slot = self.heap[i].2;
        *self.pos(slot) = TIMER_ABSENT;
        let last = self.heap.len() - 1;
        if i != last {
            self.heap.swap(i, last);
            self.heap.pop();
            self.restore(i);
        } else {
            self.heap.pop();
        }
    }
}

/// Deferred upcalls, drained after each event handler returns.
enum Effect {
    MacEnqueue {
        station: usize,
        dst: Addr,
        sdu: MacSdu,
    },
    DeliverUp {
        station: usize,
        sdu: MacSdu,
    },
    SendSegment {
        stream: usize,
        side: Side,
        seg: Segment,
    },
    AppDeliver {
        stream: usize,
        bytes: u32,
    },
    Feedback {
        station: usize,
        fb: MacFeedback,
    },
}

/// Scheduled scenario actions.
#[derive(Clone, Copy, Debug)]
pub(crate) enum ActionKind {
    /// Move a station (mobility).
    Move { station: usize, to: Point },
    /// Move several stations at one instant: entries `start..start + len`
    /// of the network's move table, applied through
    /// [`Medium::set_positions`] so the medium coalesces the interference
    /// re-folds across the batch. The table lives outside this enum so the
    /// action stays `Copy`.
    MoveBatch { start: u32, len: u32 },
    /// Power a station off (the Figure-9 "pad is turned off").
    PowerOff { station: usize },
    /// Power a station back on.
    PowerOn { station: usize },
    /// Toggle a spatial noise emitter.
    SetNoise { index: usize, active: bool },
    /// Crash a station: any frame in flight is truncated on the air, the
    /// MAC's volatile state (backoff tables, exchange progress) is wiped,
    /// and the station goes deaf until a matching [`ActionKind::Restart`].
    Crash {
        station: usize,
        preserve_queues: bool,
    },
    /// Bring a crashed (or powered-off) station back up and kick its MAC
    /// so preserved queues resume contention.
    Restart { station: usize },
    /// Scale one directional link's gain (asymmetry fault).
    SetLinkGain { src: usize, dst: usize, factor: f64 },
}

#[derive(Clone, Copy, Debug)]
pub(crate) struct ScheduledAction {
    pub at: SimTime,
    pub kind: ActionKind,
}

struct StationSlot {
    name: String,
    mac: Option<Box<dyn MacProtocol>>,
    rng: SimRng,
    /// The in-flight own transmission, if any.
    tx: Option<(TxId, Frame)>,
    on: bool,
    /// Incarnation counter; bumped by a crash so stale TxEnd events from
    /// the previous life are recognizable (see [`Event::TxEnd`]).
    epoch: u32,
    /// Packets dropped by this station's MAC after retry exhaustion.
    mac_drops: u64,
}

/// Where the packets of a stream go.
enum StreamDst {
    /// A single receiving station with a transport endpoint.
    Unicast {
        station: usize,
        endpoint: Option<Box<dyn Transport>>,
    },
    /// A multicast group (§3.3.4): members just count deliveries.
    Multicast { group: u32, members: Vec<usize> },
}

struct StreamState {
    name: String,
    id: StreamId,
    src: usize,
    dst: StreamDst,
    bytes: u32,
    source: Box<dyn TrafficSource>,
    rng: SimRng,
    start: SimTime,
    stop: Option<SimTime>,
    sender: Option<Box<dyn Transport>>,
    offered: u64,
    delivered: u64,
    offered_measured: u64,
    delivered_measured: u64,
    delivered_bytes_measured: u64,
}

/// The assembled simulated network. Build one through
/// [`crate::scenario::Scenario`].
///
/// Generic over the [`Medium`] implementation so the same event loop can
/// run on the cube-grid [`SparseMedium`] (the default) or its naive oracle
/// [`ReferenceMedium`](macaw_phy::ReferenceMedium) — the `scale` bench and
/// the oracle tests exercise both. Likewise generic over the
/// future-event-list family ([`FelChoice`]): the ladder queue by default,
/// the plain 4-ary heap as the oracle the equivalence tests compare
/// against.
pub struct Network<M: Medium = SparseMedium, Q: FelChoice = LadderFel> {
    pub(crate) medium: M,
    /// Corruption windows (fault injection), applied to the deliveries of
    /// every frame that ends on the air; see [`corrupt_deliveries`].
    windows: Vec<LinkWindow>,
    queue: EventQueue<Event, Q::Fel<Event>>,
    timing: Timing,
    stations: Vec<StationSlot>,
    streams: Vec<StreamState>,
    /// Stream id → index into `streams`, built as streams are declared.
    /// Delivery and drop feedback resolve their stream through this map
    /// instead of scanning `streams` — O(1) per delivered SDU rather than
    /// O(streams).
    stream_index: FastHashMap<u32, usize>,
    /// MAC timer slot per station (dense). `timer_index` orders the
    /// pending ones; only the debug oracle `scan_timers` scans them all.
    mac_timers: Vec<PendingTimer>,
    /// Transport timer slots, two per stream (`2*stream + side`, sender
    /// first). Multicast streams' receiver slots simply stay idle.
    tp_timers: Vec<PendingTimer>,
    /// Earliest-pending-timer index over `mac_timers` + `tp_timers`.
    timer_index: TimerIndex,
    actions: Vec<ScheduledAction>,
    /// Flat move table for [`ActionKind::MoveBatch`]: each batch action
    /// names a `start..start + len` slice of this vector.
    moves: Vec<(StationId, Point)>,
    effects: VecDeque<Effect>,
    warmup_end: SimTime,
    /// Total on-air time of DATA frames after warm-up (utilization).
    data_air_ns: u64,
    /// Total on-air time of all frames after warm-up.
    air_ns: u64,
    /// Events popped from the queue so far (perf accounting).
    events_processed: u64,
    /// Reusable delivery buffer for [`Medium::end_tx_into`], so frame
    /// delivery allocates nothing in steady state.
    delivery_buf: Vec<Delivery>,
    /// Island of each station / stream / scheduled action under the
    /// scenario's coupling partition ([`crate::partition`]), installed by
    /// the builder before [`Network::prime`].
    island_of_station: Vec<u32>,
    island_of_stream: Vec<u32>,
    island_of_action: Vec<u32>,
    /// Queued-event count per island, mirroring the event queue's own
    /// count: +1 on schedule, −1 on pop. Timers live outside the queue and
    /// are not counted — exactly as in [`EventQueue`]'s accounting.
    island_live: Vec<usize>,
    /// Per-island high-water mark of `island_live`, updated on schedule
    /// only (the queue's own high-water is too). The report sums these, so
    /// the figure decomposes over islands and is identical whether the
    /// islands ran in one event loop or one loop per shard.
    island_high: Vec<usize>,
    /// Optional hard cap on total events processed (fault-run safety net).
    watchdog: Option<u64>,
    /// Same-instant livelock detector: the instant currently being
    /// processed and how many events have fired at it.
    instant: (SimTime, u64),
    tracer: Option<Box<dyn FnMut(TraceEvent)>>,
}

impl<M: Medium, Q: FelChoice> std::fmt::Debug for Network<M, Q> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network")
            .field("stations", &self.stations.len())
            .field("streams", &self.streams.len())
            .field("now", &self.queue.now())
            .field("events_processed", &self.events_processed)
            .finish_non_exhaustive()
    }
}

impl<M: Medium, Q: FelChoice> Network<M, Q> {
    pub(crate) fn new(medium: M, timing: Timing) -> Self {
        Network {
            medium,
            windows: Vec::new(),
            queue: EventQueue::new(),
            timing,
            stations: Vec::new(),
            streams: Vec::new(),
            stream_index: FastHashMap::default(),
            mac_timers: Vec::new(),
            tp_timers: Vec::new(),
            timer_index: TimerIndex::default(),
            actions: Vec::new(),
            moves: Vec::new(),
            effects: VecDeque::new(),
            warmup_end: SimTime::ZERO,
            data_air_ns: 0,
            air_ns: 0,
            events_processed: 0,
            delivery_buf: Vec::new(),
            island_of_station: Vec::new(),
            island_of_stream: Vec::new(),
            island_of_action: Vec::new(),
            island_live: Vec::new(),
            island_high: Vec::new(),
            watchdog: None,
            instant: (SimTime::ZERO, 0),
            tracer: None,
        }
    }

    /// Cap the total number of events this network may process; exceeding
    /// it makes [`Network::run_until`] fail with
    /// [`SimError::WatchdogTripped`] instead of burning CPU forever. The
    /// same-instant livelock detector is always on regardless.
    pub fn set_watchdog(&mut self, max_events: u64) {
        self.watchdog = Some(max_events);
    }

    /// Schedule a deterministic corruption window (fault injection):
    /// frames from `w.src` that overlap the window on the air for at least
    /// `w.min_air` arrive dirty at `w.dst`.
    pub fn add_corruption_window(&mut self, w: LinkWindow) {
        self.windows.push(w);
    }

    /// Install a tracer receiving a [`TraceEvent`] per frame and MAC timer.
    pub fn set_tracer(&mut self, tracer: Box<dyn FnMut(TraceEvent)>) {
        self.tracer = Some(tracer);
    }

    pub(crate) fn add_station(
        &mut self,
        name: String,
        mac: Box<dyn MacProtocol>,
        rng: SimRng,
    ) -> usize {
        self.stations.push(StationSlot {
            name,
            mac: Some(mac),
            rng,
            tx: None,
            on: true,
            epoch: 0,
            mac_drops: 0,
        });
        self.mac_timers.push(NO_TIMER);
        self.timer_index.add_mac_slot();
        self.stations.len() - 1
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn add_unicast_stream(
        &mut self,
        name: String,
        id: StreamId,
        src: usize,
        dst: usize,
        bytes: u32,
        source: Box<dyn TrafficSource>,
        rng: SimRng,
        start: SimTime,
        stop: Option<SimTime>,
        sender: Box<dyn Transport>,
        receiver: Box<dyn Transport>,
    ) -> usize {
        self.stream_index.insert(id.0, self.streams.len());
        self.streams.push(StreamState {
            name,
            id,
            src,
            dst: StreamDst::Unicast {
                station: dst,
                endpoint: Some(receiver),
            },
            bytes,
            source,
            rng,
            start,
            stop,
            sender: Some(sender),
            offered: 0,
            delivered: 0,
            offered_measured: 0,
            delivered_measured: 0,
            delivered_bytes_measured: 0,
        });
        self.tp_timers.push(NO_TIMER);
        self.tp_timers.push(NO_TIMER);
        self.timer_index.add_tp_slots(2);
        self.streams.len() - 1
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn add_multicast_stream(
        &mut self,
        name: String,
        id: StreamId,
        src: usize,
        group: u32,
        members: Vec<usize>,
        bytes: u32,
        source: Box<dyn TrafficSource>,
        rng: SimRng,
        start: SimTime,
        stop: Option<SimTime>,
        sender: Box<dyn Transport>,
    ) -> usize {
        self.stream_index.insert(id.0, self.streams.len());
        self.streams.push(StreamState {
            name,
            id,
            src,
            dst: StreamDst::Multicast { group, members },
            bytes,
            source,
            rng,
            start,
            stop,
            sender: Some(sender),
            offered: 0,
            delivered: 0,
            offered_measured: 0,
            delivered_measured: 0,
            delivered_bytes_measured: 0,
        });
        self.tp_timers.push(NO_TIMER);
        self.tp_timers.push(NO_TIMER);
        self.timer_index.add_tp_slots(2);
        self.streams.len() - 1
    }

    pub(crate) fn schedule_action(&mut self, action: ScheduledAction) {
        self.actions.push(action);
    }

    /// Install the move table [`ActionKind::MoveBatch`] actions slice into.
    pub(crate) fn set_moves(&mut self, moves: Vec<(StationId, Point)>) {
        self.moves = moves;
    }

    /// Install the coupling partition's island labels (station, stream and
    /// action rows must match what was added). Called by the builder before
    /// [`Network::prime`] so every queued event can be attributed to its
    /// island for the decomposable high-water accounting.
    pub(crate) fn set_islands(&mut self, p: &Partition) {
        debug_assert_eq!(p.station_island.len(), self.stations.len());
        debug_assert_eq!(p.stream_island.len(), self.streams.len());
        debug_assert_eq!(p.action_island.len(), self.actions.len());
        self.island_of_station = p.station_island.clone();
        self.island_of_stream = p.stream_island.clone();
        self.island_of_action = p.action_island.clone();
        self.island_live = vec![0; p.n_islands];
        self.island_high = vec![0; p.n_islands];
    }

    /// Prime first arrivals and scheduled actions. Called once before
    /// running.
    pub(crate) fn prime(&mut self) {
        for i in 0..self.streams.len() {
            let st = &mut self.streams[i];
            // Random initial phase so same-rate CBR streams are not
            // pathologically synchronized (the paper's generators are
            // independent devices).
            let gap = st.source.next_gap(&mut st.rng);
            let phase =
                SimDuration::from_nanos(st.rng.uniform_inclusive(0, gap.as_nanos().max(1) - 1));
            self.queue
                .schedule(st.start + phase, Event::AppArrival { stream: i as u32 });
            note_island_schedule(
                &mut self.island_live,
                &mut self.island_high,
                self.island_of_stream[i],
            );
        }
        for (i, a) in self.actions.iter().enumerate() {
            self.queue.schedule(a.at, Event::Action { index: i as u32 });
            note_island_schedule(
                &mut self.island_live,
                &mut self.island_high,
                self.island_of_action[i],
            );
        }
    }

    /// Set the end of the statistics warm-up window. [`Scenario::run`]
    /// does this for you; it is public for callers that need to inspect
    /// the built network (e.g. the medium's memory footprint) between
    /// [`Scenario::build`] and [`Network::run_until`].
    ///
    /// [`Scenario::build`]: crate::scenario::Scenario::build
    /// [`Scenario::run`]: crate::scenario::Scenario::run
    pub fn set_warmup(&mut self, end: SimTime) {
        self.warmup_end = end;
    }

    /// Current simulated time (time of the event being/last handled).
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Run until `end`, then stop (events beyond `end` stay queued).
    ///
    /// Fails with [`SimError::WatchdogTripped`] if the run livelocks —
    /// more than [`LIVELOCK_SAME_INSTANT_CAP`] events fire at one
    /// simulated instant (a state machine re-arming a zero-length timer
    /// from its own handler), or the opt-in [`Network::set_watchdog`]
    /// event budget is exhausted. The network is left at the instant the
    /// guard tripped, so [`Network::report`] still works for post-mortems.
    pub fn run_until(&mut self, end: SimTime) -> Result<(), SimError> {
        loop {
            // Fire whichever of the queue head and the earliest pending
            // timer sorts first; `(time, key)` tuples from both sides share
            // one insertion-sequence space, so this interleaving is
            // identical to having queued the timers. The fused dispatch
            // resolves the race and advances the queue's "now" in one
            // descent instead of the peek-compare-pop double traversal the
            // loop used to do.
            let timer = self.peek_timer();
            match self.queue.pop_next(timer.map(|(t, k, _)| (t, k)), end) {
                NextFire::Queued(t, ev) => {
                    self.check_watchdog(t)?;
                    self.handle(ev)?;
                }
                NextFire::External(t) => {
                    let (_, _, slot) = timer.expect("external fire without a pending timer");
                    self.check_watchdog(t)?;
                    self.fire_timer(slot)?;
                }
                NextFire::Idle => break,
            }
            self.drain_effects()?;
        }
        Ok(())
    }

    /// Bump the event counters and fail if either guard trips.
    fn check_watchdog(&mut self, t: SimTime) -> Result<(), SimError> {
        self.events_processed += 1;
        if self.instant.0 == t {
            self.instant.1 += 1;
        } else {
            self.instant = (t, 1);
        }
        if self.instant.1 > LIVELOCK_SAME_INSTANT_CAP {
            return Err(SimError::WatchdogTripped {
                at: t,
                events: self.events_processed,
                diagnostic: format!(
                    "{} events fired without simulated time advancing past {t} \
                     (a state machine is re-arming a zero-delay timer); {}",
                    self.instant.1,
                    self.diagnostic_snapshot()
                ),
            });
        }
        if let Some(max) = self.watchdog {
            if self.events_processed > max {
                return Err(SimError::WatchdogTripped {
                    at: t,
                    events: self.events_processed,
                    diagnostic: format!(
                        "event budget of {max} exhausted; {}",
                        self.diagnostic_snapshot()
                    ),
                });
            }
        }
        Ok(())
    }

    /// One-line summary of live state for watchdog reports.
    fn diagnostic_snapshot(&self) -> String {
        let transmitting: Vec<&str> = self
            .stations
            .iter()
            .filter(|s| s.tx.is_some())
            .map(|s| s.name.as_str())
            .collect();
        let armed_mac = self.mac_timers.iter().filter(|&&t| t != NO_TIMER).count();
        let armed_tp = self.tp_timers.iter().filter(|&&t| t != NO_TIMER).count();
        format!(
            "in flight: {:?}, armed timers: {} MAC + {} transport, queue length: {}",
            transmitting,
            armed_mac,
            armed_tp,
            self.queue.len()
        )
    }

    /// The earliest pending timer across all stations and transport
    /// endpoints: the head of the decrease-key [`TimerIndex`], O(1) and
    /// always exact (every armed slot owns exactly one node).
    fn peek_timer(&self) -> Option<(SimTime, u64, u32)> {
        let head = self.timer_index.peek();
        match head {
            None => debug_assert!(
                self.scan_timers().0 == NO_TIMER,
                "timer index lost a pending timer"
            ),
            Some((t, k, slot)) => debug_assert!(
                ((t, k), slot) == self.scan_timers(),
                "timer index diverged from a full scan"
            ),
        }
        head
    }

    /// Debug oracle for [`Network::peek_timer`]: the full linear min scan
    /// the lazy heap replaced.
    #[cfg_attr(not(debug_assertions), allow(dead_code))]
    fn scan_timers(&self) -> (PendingTimer, u32) {
        let mut best = NO_TIMER;
        let mut slot = 0u32;
        for (i, &tk) in self.mac_timers.iter().enumerate() {
            if tk < best {
                best = tk;
                slot = i as u32;
            }
        }
        for (i, &tk) in self.tp_timers.iter().enumerate() {
            if tk < best {
                best = tk;
                slot = TP_SLOT | i as u32;
            }
        }
        (best, slot)
    }

    /// Fire the timer living in `slot` (a [`TimerIndex`] slot id): clear
    /// the slot, then dispatch to the owning MAC or transport endpoint.
    fn fire_timer(&mut self, slot: u32) -> Result<(), SimError> {
        if slot & TP_SLOT != 0 {
            let i = (slot & !TP_SLOT) as usize;
            self.tp_timers[i] = NO_TIMER;
            self.timer_index.note_write(slot, NO_TIMER);
            let side = if i.is_multiple_of(2) {
                Side::Sender
            } else {
                Side::Receiver
            };
            self.with_transport(i / 2, side, |tp, ctx| tp.on_timer(ctx));
            Ok(())
        } else {
            let station = slot as usize;
            self.mac_timers[station] = NO_TIMER;
            self.timer_index.note_write(slot, NO_TIMER);
            debug_assert!(
                self.stations[station].on,
                "powered-off stations have their timer cleared"
            );
            if let Some(t) = self.tracer.as_mut() {
                t(TraceEvent::MacTimer {
                    at: self.queue.now(),
                    station,
                });
            }
            self.with_mac(station, |mac, ctx| mac.on_timer(ctx))
        }
    }

    /// Total number of events processed since construction (the natural
    /// unit for engine throughput: events per wall-clock second).
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Operation counters of the underlying future-event list, with the
    /// live-depth high-water mark replaced by the **sum of per-island
    /// high-water marks**. Islands never exchange events, so each island's
    /// mark is a pure function of its own trajectory and the sum is
    /// identical whether the islands share one event loop (serial run) or
    /// run one loop per shard — which is what lets the sharded engine
    /// reproduce this report field bitwise. For a single-island scenario
    /// the sum *is* the queue's own global mark.
    pub fn queue_stats(&self) -> QueueStats {
        let mut stats = self.queue.stats();
        stats.high_water = self.island_high.iter().sum();
        stats
    }

    fn handle(&mut self, ev: Event) -> Result<(), SimError> {
        let island = match ev {
            Event::TxEnd { station, .. } => self.island_of_station[station as usize],
            Event::AppArrival { stream } => self.island_of_stream[stream as usize],
            Event::Action { index } => self.island_of_action[index as usize],
        };
        self.island_live[island as usize] -= 1;
        match ev {
            Event::TxEnd { station, epoch } => self.handle_tx_end(station as usize, epoch),
            Event::AppArrival { stream } => {
                self.handle_app_arrival(stream as usize);
                Ok(())
            }
            Event::Action { index } => self.handle_action(self.actions[index as usize].kind),
        }
    }

    fn handle_tx_end(&mut self, station: usize, epoch: u32) -> Result<(), SimError> {
        if self.stations[station].epoch != epoch {
            // Stale event from a previous incarnation: the crash handler
            // already truncated this transmission on the air, and the
            // restarted station may have a fresh one in flight.
            return Ok(());
        }
        let (tx, frame) = self.stations[station]
            .tx
            .take()
            .expect("TxEnd without in-flight transmission");
        let now = self.queue.now();
        let mut deliveries = std::mem::take(&mut self.delivery_buf);
        if self.windows.is_empty() {
            self.medium.end_tx_into(tx, now, &mut deliveries);
        } else {
            // The air interval must be read before `end_tx_into` retires `tx`.
            let start = self.medium.tx_start(tx).expect("in-flight tx has a start");
            self.medium.end_tx_into(tx, now, &mut deliveries);
            corrupt_deliveries(
                &self.windows,
                StationId(station),
                start,
                now,
                &mut deliveries,
            );
        }

        // Utilization accounting.
        if now >= self.warmup_end {
            let dur = self.timing.frame_duration(&frame).as_nanos();
            self.air_ns += dur;
            if frame.kind == macaw_mac::frames::FrameKind::Data {
                self.data_air_ns += dur;
            }
        }

        if let Some(t) = self.tracer.as_mut() {
            t(TraceEvent::Frame {
                at: now,
                frame,
                clean: deliveries
                    .iter()
                    .filter(|d| d.clean)
                    .map(|d| d.station.0)
                    .collect(),
                dirty: deliveries
                    .iter()
                    .filter(|d| !d.clean)
                    .map(|d| d.station.0)
                    .collect(),
            });
        }
        // Receivers first (reception completes as the carrier drops), then
        // the transmitter's own continuation.
        for d in &deliveries {
            let rx = d.station.0;
            if d.clean && self.stations[rx].on {
                if let Err(e) = self.with_mac(rx, |mac, ctx| mac.on_receive(ctx, &frame)) {
                    self.delivery_buf = deliveries;
                    return Err(e);
                }
            }
        }
        self.delivery_buf = deliveries;
        if self.stations[station].on {
            self.with_mac(station, |mac, ctx| mac.on_tx_end(ctx))?;
        }
        Ok(())
    }

    fn handle_app_arrival(&mut self, stream: usize) {
        let now = self.queue.now();
        let st = &mut self.streams[stream];
        if let Some(stop) = st.stop {
            if now > stop {
                return; // stream has ended; do not reschedule
            }
        }
        // Schedule the next arrival first (the generator never stops by
        // itself; `stop` gates it above).
        let gap = st.source.next_gap(&mut st.rng);
        let bytes = st.bytes;
        self.queue
            .schedule(now + gap, Event::AppArrival { stream: stream as u32 });
        note_island_schedule(
            &mut self.island_live,
            &mut self.island_high,
            self.island_of_stream[stream],
        );

        let st = &mut self.streams[stream];
        st.offered += 1;
        if now >= self.warmup_end {
            st.offered_measured += 1;
        }
        let src_on = self.stations[st.src].on;
        if src_on {
            self.with_transport(stream, Side::Sender, |tp, ctx| tp.on_app_send(ctx, bytes));
        }
    }

    fn handle_action(&mut self, kind: ActionKind) -> Result<(), SimError> {
        match kind {
            ActionKind::Move { station, to } => {
                self.medium.set_position(StationId(station), to);
            }
            ActionKind::MoveBatch { start, len } => {
                let s = start as usize;
                self.medium.set_positions(&self.moves[s..s + len as usize]);
            }
            ActionKind::PowerOff { station } => {
                self.stations[station].on = false;
                self.mac_timers[station] = NO_TIMER;
                self.timer_index.note_write(station as u32, NO_TIMER);
            }
            ActionKind::PowerOn { station } => {
                self.stations[station].on = true;
            }
            ActionKind::SetNoise { index, active } => {
                self.medium.set_noise_active(index, active);
            }
            ActionKind::Crash {
                station,
                preserve_queues,
            } => {
                let now = self.queue.now();
                let slot = &mut self.stations[station];
                slot.on = false;
                slot.epoch = slot.epoch.wrapping_add(1);
                if let Some((tx, _frame)) = slot.tx.take() {
                    // The carrier drops mid-frame: end the transmission on
                    // the medium (so other receptions see the interference
                    // stop) but discard the deliveries — nobody decodes a
                    // truncated burst. The queued TxEnd is now stale and
                    // the epoch bump above makes it a no-op.
                    let mut deliveries = std::mem::take(&mut self.delivery_buf);
                    self.medium.end_tx_into(tx, now, &mut deliveries);
                    deliveries.clear();
                    self.delivery_buf = deliveries;
                }
                self.mac_timers[station] = NO_TIMER;
                self.timer_index.note_write(station as u32, NO_TIMER);
                if let Some(mac) = self.stations[station].mac.as_mut() {
                    mac.reset(preserve_queues);
                }
            }
            ActionKind::Restart { station } => {
                if !self.stations[station].on {
                    self.stations[station].on = true;
                    // Kick the MAC once so packets preserved across the
                    // crash re-enter contention; a kick with nothing queued
                    // is a no-op for every protocol.
                    self.with_mac(station, |mac, ctx| mac.on_timer(ctx))?;
                }
            }
            ActionKind::SetLinkGain { src, dst, factor } => {
                self.medium
                    .set_link_gain(StationId(src), StationId(dst), factor);
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Borrow juggling: take the state machine out of its slot, build a
    // context from the remaining disjoint fields, call, put back.
    // ------------------------------------------------------------------

    fn with_mac(
        &mut self,
        station: usize,
        f: impl FnOnce(&mut dyn MacProtocol, &mut CoreMacCtx<M, Q::Fel<Event>>) -> MacResult,
    ) -> Result<(), SimError> {
        let mut mac = self.stations[station]
            .mac
            .take()
            .expect("MAC re-entered while borrowed");
        let now = self.queue.now();
        let result = {
            let slot = &mut self.stations[station];
            let mut ctx = CoreMacCtx {
                now,
                station,
                epoch: slot.epoch,
                island: self.island_of_station[station],
                timing: self.timing,
                queue: &mut self.queue,
                medium: &mut self.medium,
                rng: &mut slot.rng,
                mac_timer: &mut self.mac_timers[station],
                timer_index: &mut self.timer_index,
                tx: &mut slot.tx,
                island_live: &mut self.island_live,
                island_high: &mut self.island_high,
                effects: &mut self.effects,
            };
            f(mac.as_mut(), &mut ctx)
        };
        self.stations[station].mac = Some(mac);
        result.map_err(|violation| SimError::MacInvariant { at: now, violation })
    }

    fn with_transport(
        &mut self,
        stream: usize,
        side: Side,
        f: impl FnOnce(&mut dyn Transport, &mut CoreTransportCtx<Q::Fel<Event>>),
    ) {
        let now = self.queue.now();
        let st = &mut self.streams[stream];
        let mut tp = match side {
            Side::Sender => st.sender.take().expect("sender endpoint re-entered"),
            Side::Receiver => match &mut st.dst {
                StreamDst::Unicast { endpoint, .. } => {
                    endpoint.take().expect("receiver endpoint re-entered")
                }
                StreamDst::Multicast { .. } => {
                    panic!("multicast streams have no receiver endpoint")
                }
            },
        };
        {
            let mut ctx = CoreTransportCtx {
                now,
                queue: &mut self.queue,
                timer: &mut self.tp_timers[2 * stream + (side == Side::Receiver) as usize],
                timer_index: &mut self.timer_index,
                effects: &mut self.effects,
                stream,
                side,
            };
            f(tp.as_mut(), &mut ctx);
        }
        let st = &mut self.streams[stream];
        match side {
            Side::Sender => st.sender = Some(tp),
            Side::Receiver => {
                if let StreamDst::Unicast { endpoint, .. } = &mut st.dst {
                    *endpoint = Some(tp);
                }
            }
        }
    }

    fn drain_effects(&mut self) -> Result<(), SimError> {
        while let Some(e) = self.effects.pop_front() {
            match e {
                Effect::MacEnqueue { station, dst, sdu } => {
                    if self.stations[station].on {
                        self.with_mac(station, |mac, ctx| mac.enqueue(ctx, dst, sdu))?;
                    }
                }
                Effect::DeliverUp { station, sdu } => self.route_up(station, sdu),
                Effect::SendSegment { stream, side, seg } => {
                    let st = &self.streams[stream];
                    let (from_station, to_addr) = match side {
                        Side::Sender => match &st.dst {
                            StreamDst::Unicast { station, .. } => {
                                (st.src, Addr::Unicast(*station))
                            }
                            StreamDst::Multicast { group, .. } => {
                                (st.src, Addr::Multicast(*group))
                            }
                        },
                        Side::Receiver => match &st.dst {
                            StreamDst::Unicast { station, .. } => {
                                (*station, Addr::Unicast(st.src))
                            }
                            StreamDst::Multicast { .. } => {
                                unreachable!("multicast receivers do not send")
                            }
                        },
                    };
                    let (transport_seq, bytes) = seg.encode();
                    self.effects.push_back(Effect::MacEnqueue {
                        station: from_station,
                        dst: to_addr,
                        sdu: MacSdu {
                            stream: st.id,
                            transport_seq,
                            bytes,
                        },
                    });
                }
                Effect::AppDeliver { stream, bytes } => {
                    let now = self.queue.now();
                    let st = &mut self.streams[stream];
                    st.delivered += 1;
                    if now >= self.warmup_end {
                        st.delivered_measured += 1;
                        st.delivered_bytes_measured += bytes as u64;
                    }
                }
                Effect::Feedback { station, fb } => {
                    if let MacFeedback::Dropped {
                        stream,
                        transport_seq,
                    } = fb
                    {
                        self.stations[station].mac_drops += 1;
                        self.signal_drop(station, stream, transport_seq);
                    }
                }
            }
        }
        Ok(())
    }

    /// Tell the transport endpoint that owns a dropped segment about the
    /// link layer giving up on it (§4's "transport layer ... informed of
    /// the failure"). The MAC feedback carries the stream id and transport
    /// sequence number; the payload size is the stream's configured size.
    fn signal_drop(&mut self, station: usize, stream_id: StreamId, transport_seq: u64) {
        let stream = if let Some(&i) = self.stream_index.get(&stream_id.0) {
            i
        } else {
            debug_assert!(false, "drop feedback for unknown stream {stream_id:?}");
            return;
        };
        debug_assert_eq!(self.streams[stream].id, stream_id);
        let st = &self.streams[stream];
        let side = if station == st.src {
            Side::Sender
        } else {
            match &st.dst {
                StreamDst::Unicast {
                    station: dst_station,
                    ..
                } if *dst_station == station => Side::Receiver,
                // Multicast members have no endpoint; an SDU dropped by a
                // station that is neither endpoint would be a MAC bug.
                _ => return,
            }
        };
        let seg = Segment::decode(transport_seq, st.bytes);
        self.with_transport(stream, side, |tp, ctx| tp.on_segment_dropped(ctx, seg));
    }

    /// Route a MAC-delivered SDU to the right transport endpoint.
    fn route_up(&mut self, station: usize, sdu: MacSdu) {
        let stream = if let Some(&i) = self.stream_index.get(&sdu.stream.0) {
            i
        } else {
            debug_assert!(false, "SDU for unknown stream {:?}", sdu.stream);
            return;
        };
        debug_assert_eq!(self.streams[stream].id, sdu.stream);
        let seg = Segment::decode(sdu.transport_seq, sdu.bytes);
        enum Route {
            ToReceiver,
            ToSender,
            McastDeliver,
            Drop,
        }
        let route = {
            let st = &self.streams[stream];
            match &st.dst {
                StreamDst::Unicast {
                    station: dst_station,
                    ..
                } => {
                    if station == *dst_station {
                        Route::ToReceiver
                    } else if station == st.src {
                        Route::ToSender
                    } else {
                        // An SDU surfacing anywhere else would be a MAC bug;
                        // the MAC only delivers frames addressed to it.
                        Route::Drop
                    }
                }
                StreamDst::Multicast { members, .. } => {
                    if members.contains(&station) {
                        Route::McastDeliver
                    } else {
                        Route::Drop
                    }
                }
            }
        };
        match route {
            Route::ToReceiver => {
                self.with_transport(stream, Side::Receiver, |tp, ctx| tp.on_segment(ctx, seg));
            }
            Route::ToSender => {
                self.with_transport(stream, Side::Sender, |tp, ctx| tp.on_segment(ctx, seg));
            }
            Route::McastDeliver => {
                self.effects.push_back(Effect::AppDeliver {
                    stream,
                    bytes: sdu.bytes,
                });
            }
            Route::Drop => {}
        }
    }

    /// Produce the run report for `[warmup_end, end]`.
    pub fn report(&self, end: SimTime) -> RunReport {
        let measured = end.saturating_since(self.warmup_end).as_secs_f64();
        let streams = self
            .streams
            .iter()
            .map(|s| {
                let dst_name = match &s.dst {
                    StreamDst::Unicast { station, .. } => self.stations[*station].name.clone(),
                    StreamDst::Multicast { group, .. } => format!("mcast:{group}"),
                };
                StreamReport {
                    name: s.name.clone(),
                    src: self.stations[s.src].name.clone(),
                    dst: dst_name,
                    offered: s.offered_measured,
                    delivered: s.delivered_measured,
                    offered_pps: if measured > 0.0 {
                        s.offered_measured as f64 / measured
                    } else {
                        0.0
                    },
                    throughput_pps: if measured > 0.0 {
                        s.delivered_measured as f64 / measured
                    } else {
                        0.0
                    },
                    delivered_bytes: s.delivered_bytes_measured,
                }
            })
            .collect();
        let mac_stats = self
            .stations
            .iter()
            .map(|s| {
                s.mac
                    .as_ref()
                    .and_then(|m| m.mac_stats().copied())
            })
            .collect();
        RunReport {
            measured_secs: measured,
            streams,
            station_names: self.stations.iter().map(|s| s.name.clone()).collect(),
            mac_stats,
            mac_drops: self.stations.iter().map(|s| s.mac_drops).collect(),
            data_air_secs: self.data_air_ns as f64 / 1e9,
            total_air_secs: self.air_ns as f64 / 1e9,
            events_processed: self.events_processed,
            queue_stats: self.queue_stats(),
        }
    }

    /// Raw post-warm-up air-time totals `(data_ns, all_ns)`. The sharded
    /// runner sums these integers across shards *before* the one conversion
    /// to seconds, so the merged report's air fields are bitwise identical
    /// to the serial engine's single-accumulator result.
    pub(crate) fn air_totals_ns(&self) -> (u64, u64) {
        (self.data_air_ns, self.air_ns)
    }

    /// Number of stations.
    pub fn station_count(&self) -> usize {
        self.stations.len()
    }

    /// Number of declared streams.
    pub fn stream_count(&self) -> usize {
        self.streams.len()
    }

    /// Immutable access to the radio medium (diagnostics / tests).
    pub fn medium(&self) -> &M {
        &self.medium
    }
}

// ----------------------------------------------------------------------
// Context implementations
// ----------------------------------------------------------------------

/// Per-island mirror of the event queue's schedule-side accounting: bump
/// the island's live count and its high-water mark. The queue itself only
/// raises its high-water on schedule, so mirroring the same edge keeps the
/// two in lockstep (see [`Network::queue_stats`]).
#[inline]
fn note_island_schedule(live: &mut [usize], high: &mut [usize], island: u32) {
    let i = island as usize;
    live[i] += 1;
    if live[i] > high[i] {
        high[i] = live[i];
    }
}

struct CoreMacCtx<'a, M: Medium, F: Fel<Event>> {
    now: SimTime,
    station: usize,
    /// The station's current incarnation, stamped into scheduled TxEnds.
    epoch: u32,
    /// The station's island, for attributing scheduled TxEnds.
    island: u32,
    timing: Timing,
    queue: &'a mut EventQueue<Event, F>,
    medium: &'a mut M,
    rng: &'a mut SimRng,
    mac_timer: &'a mut PendingTimer,
    timer_index: &'a mut TimerIndex,
    tx: &'a mut Option<(TxId, Frame)>,
    island_live: &'a mut [usize],
    island_high: &'a mut [usize],
    effects: &'a mut VecDeque<Effect>,
}

impl<M: Medium, F: Fel<Event>> MacContext for CoreMacCtx<'_, M, F> {
    fn now(&self) -> SimTime {
        self.now
    }

    // The timer never touches the event queue: re-arming overwrites the
    // station's single slot, and the sort key (drawn from the queue's
    // insertion counter) keeps the fire order identical to a queued event's.

    fn set_timer(&mut self, delay: SimDuration) {
        *self.mac_timer = (self.now + delay, self.queue.alloc_key(PRIO_TIMER));
        self.timer_index
            .note_write(self.station as u32, *self.mac_timer);
    }

    fn clear_timer(&mut self) {
        *self.mac_timer = NO_TIMER;
        self.timer_index.note_write(self.station as u32, NO_TIMER);
    }

    fn transmit(&mut self, frame: Frame) {
        assert!(self.tx.is_none(), "station already transmitting");
        let dur = self.timing.frame_duration(&frame);
        let tx = self.medium.start_tx(StationId(self.station), self.now);
        self.queue.schedule_with_priority(
            self.now + dur,
            PRIO_TX_END,
            Event::TxEnd {
                station: self.station as u32,
                epoch: self.epoch,
            },
        );
        note_island_schedule(self.island_live, self.island_high, self.island);
        *self.tx = Some((tx, frame));
    }

    fn rng(&mut self) -> &mut SimRng {
        self.rng
    }

    fn carrier_busy(&self) -> bool {
        self.medium.carrier_busy(StationId(self.station))
    }

    fn deliver_up(&mut self, _src: Addr, sdu: MacSdu) {
        self.effects.push_back(Effect::DeliverUp {
            station: self.station,
            sdu,
        });
    }

    fn feedback(&mut self, event: MacFeedback) {
        self.effects.push_back(Effect::Feedback {
            station: self.station,
            fb: event,
        });
    }
}

struct CoreTransportCtx<'a, F: Fel<Event>> {
    now: SimTime,
    queue: &'a mut EventQueue<Event, F>,
    timer: &'a mut PendingTimer,
    timer_index: &'a mut TimerIndex,
    effects: &'a mut VecDeque<Effect>,
    stream: usize,
    side: Side,
}

impl<F: Fel<Event>> TransportContext for CoreTransportCtx<'_, F> {
    fn now(&self) -> SimTime {
        self.now
    }

    // As for MAC timers: the single pending timer lives in the endpoint's
    // slot, not the event queue.

    fn set_timer(&mut self, delay: SimDuration) {
        *self.timer = (self.now + delay, self.queue.alloc_key(PRIO_TIMER));
        let slot = TP_SLOT | (2 * self.stream + (self.side == Side::Receiver) as usize) as u32;
        self.timer_index.note_write(slot, *self.timer);
    }

    fn clear_timer(&mut self) {
        *self.timer = NO_TIMER;
        let slot = TP_SLOT | (2 * self.stream + (self.side == Side::Receiver) as usize) as u32;
        self.timer_index.note_write(slot, NO_TIMER);
    }

    fn send_segment(&mut self, seg: Segment) {
        self.effects.push_back(Effect::SendSegment {
            stream: self.stream,
            side: self.side,
            seg,
        });
    }

    fn deliver_app(&mut self, _seq: u64, bytes: u32) {
        self.effects.push_back(Effect::AppDeliver {
            stream: self.stream,
            bytes,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{MacKind, Scenario};
    use macaw_phy::Point;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn one_cell() -> Scenario {
        let mut sc = Scenario::new(4);
        let b = sc.add_station("B", Point::new(0.0, 0.0, 6.0), MacKind::Macaw);
        let p = sc.add_station("P", Point::new(3.0, 0.0, 0.0), MacKind::Macaw);
        sc.add_udp_stream("P-B", p, b, 16, 512);
        sc
    }

    #[test]
    fn tracer_sees_the_full_exchange() {
        let mut net = one_cell().build().unwrap();
        let kinds = Rc::new(RefCell::new(Vec::new()));
        let sink = kinds.clone();
        net.set_tracer(Box::new(move |e| {
            if let TraceEvent::Frame { frame, clean, .. } = e {
                sink.borrow_mut().push((frame.kind, clean.len()));
            }
        }));
        net.run_until(SimTime::ZERO + SimDuration::from_secs(1)).unwrap();
        let kinds = kinds.borrow();
        use macaw_mac::frames::FrameKind::*;
        for want in [Rts, Cts, Ds, Data, Ack] {
            assert!(
                kinds.iter().any(|(k, n)| *k == want && *n == 1),
                "expected a cleanly received {want:?} in the trace"
            );
        }
        // MACAW order within the first exchange.
        let seq: Vec<_> = kinds.iter().map(|(k, _)| *k).take(5).collect();
        assert_eq!(seq, vec![Rts, Cts, Ds, Data, Ack]);
    }

    #[test]
    fn utilization_accounting_tracks_air_time() {
        let mut net = one_cell().build().unwrap();
        net.set_warmup(SimTime::ZERO);
        let end = SimTime::ZERO + SimDuration::from_secs(10);
        net.run_until(end).unwrap();
        let r = net.report(end);
        // 16 pps of 16 ms data packets ≈ 25.6% data utilization.
        assert!(
            (r.data_utilization() - 0.256).abs() < 0.03,
            "data utilization = {}",
            r.data_utilization()
        );
        assert!(r.total_air_secs > r.data_air_secs, "control frames count too");
    }

    #[test]
    fn report_names_match_scenario() {
        let mut net = one_cell().build().unwrap();
        let end = SimTime::ZERO + SimDuration::from_secs(1);
        net.run_until(end).unwrap();
        let r = net.report(end);
        assert_eq!(r.station_names, vec!["B".to_string(), "P".to_string()]);
        assert_eq!(r.streams[0].name, "P-B");
        assert_eq!(r.streams[0].src, "P");
        assert_eq!(r.streams[0].dst, "B");
    }

    #[test]
    fn report_before_warmup_window_is_empty() {
        let mut net = one_cell().build().unwrap();
        net.set_warmup(SimTime::ZERO + SimDuration::from_secs(100));
        let end = SimTime::ZERO + SimDuration::from_secs(10);
        net.run_until(end).unwrap();
        let r = net.report(end);
        assert_eq!(r.streams[0].delivered, 0);
        assert_eq!(r.measured_secs, 0.0);
        assert_eq!(r.streams[0].throughput_pps, 0.0, "no division by zero");
    }

    #[test]
    fn mac_stats_surface_through_the_report() {
        let mut net = one_cell().build().unwrap();
        let end = SimTime::ZERO + SimDuration::from_secs(5);
        net.run_until(end).unwrap();
        let r = net.report(end);
        let pad = r.mac_stats[1].expect("WMac exposes stats");
        assert!(pad.rts_sent > 0);
        assert!(pad.data_sent > 0);
        let base = r.mac_stats[0].expect("base stats");
        assert!(base.cts_sent > 0 && base.ack_sent > 0);
    }

    #[test]
    fn watchdog_event_budget_trips_with_a_diagnostic() {
        let mut net = one_cell().build().unwrap();
        net.set_watchdog(50);
        let err = net
            .run_until(SimTime::ZERO + SimDuration::from_secs(60))
            .unwrap_err();
        match err {
            crate::error::SimError::WatchdogTripped { events, diagnostic, .. } => {
                assert!(events > 50);
                assert!(
                    diagnostic.contains("event budget"),
                    "diagnostic should name the tripped budget: {diagnostic}"
                );
            }
            other => panic!("expected WatchdogTripped, got {other:?}"),
        }
    }

    #[test]
    fn watchdog_budget_is_a_total_not_a_rate() {
        // A generous budget must let a healthy run finish untouched.
        let mut net = one_cell().build().unwrap();
        net.set_watchdog(10_000_000);
        net.run_until(SimTime::ZERO + SimDuration::from_secs(5)).unwrap();
        let r = net.report(SimTime::ZERO + SimDuration::from_secs(5));
        assert!(r.streams[0].delivered > 0, "run should complete normally");
    }
}

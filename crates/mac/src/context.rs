//! The interface between a MAC state machine and the simulation core.
//!
//! A MAC implementation is a passive state machine: the core calls into it
//! (frame received, timer fired, own transmission ended, packet enqueued)
//! and it reacts through the [`MacContext`] handle (transmit a frame, arm
//! the timer, deliver a packet upward). This inversion keeps protocol logic
//! free of any knowledge of the event loop or the radio, so each transition
//! can be unit-tested against a scripted context.

use macaw_sim::{SimDuration, SimRng, SimTime};

use crate::frames::{Addr, Frame, MacSdu, StreamId};

/// A station/stream renaming, used by state-space explorers to collapse
/// symmetric orbits: station index `i` becomes `station[i]`, stream id `s`
/// becomes `stream[s]`. Both maps are permutations chosen by the explorer
/// from a topology's declared symmetry group; indices outside the maps
/// (possible only outside the checker, where stream ids are arbitrary) are
/// left unchanged.
#[derive(Clone, Copy, Debug)]
pub struct Relabeling<'a> {
    /// Station permutation: old index → new index.
    pub station: &'a [usize],
    /// Stream-id permutation induced by the flow permutation.
    pub stream: &'a [u32],
}

impl Relabeling<'_> {
    /// Apply the station permutation to an address. Multicast groups name
    /// sets of stations symmetric under the group, so they are fixed.
    pub fn addr(&self, a: Addr) -> Addr {
        match a {
            Addr::Unicast(i) => Addr::Unicast(self.station.get(i).copied().unwrap_or(i)),
            m @ Addr::Multicast(_) => m,
        }
    }

    /// Apply the stream permutation to a stream id.
    pub fn stream_id(&self, s: StreamId) -> StreamId {
        StreamId(self.stream.get(s.0 as usize).copied().unwrap_or(s.0))
    }

    /// Apply the stream permutation to a packet payload (addresses live in
    /// the frame header, not the SDU).
    pub fn sdu(&self, s: MacSdu) -> MacSdu {
        MacSdu {
            stream: self.stream_id(s.stream),
            ..s
        }
    }

    /// Relabel a frame: source/destination addresses and the payload's
    /// stream id. Backoff counters and sequence numbers are per-exchange
    /// scalars, identical across a symmetric orbit, so they are fixed.
    pub fn frame(&self, f: &Frame) -> Frame {
        Frame {
            src: self.addr(f.src),
            dst: self.addr(f.dst),
            payload: f.payload.map(|p| self.sdu(p)),
            ..*f
        }
    }
}

/// Upcalls a MAC can make into its environment.
pub trait MacContext {
    /// Current simulated time.
    fn now(&self) -> SimTime;

    /// Arm the MAC timer to fire after `delay`, replacing any pending timer.
    /// Each station has exactly one MAC timer, mirroring the appendix state
    /// machines ("sets a timer value").
    fn set_timer(&mut self, delay: SimDuration);

    /// Disarm the MAC timer.
    fn clear_timer(&mut self);

    /// Key the radio up with `frame`. The environment computes the on-air
    /// duration and will call [`MacProtocol::on_tx_end`] when it ends.
    /// Must not be called while a transmission is already in progress.
    fn transmit(&mut self, frame: Frame);

    /// This station's deterministic RNG stream.
    fn rng(&mut self) -> &mut SimRng;

    /// Carrier sense at this station: `true` iff the summed power of other
    /// stations' transmissions exceeds the sensing threshold. Used only by
    /// carrier-sense protocols (the whole point of MACA/MACAW is not to
    /// rely on it, §2.2).
    fn carrier_busy(&self) -> bool;

    /// Hand a received data packet to the transport layer.
    fn deliver_up(&mut self, src: Addr, sdu: MacSdu);

    /// Report a link-layer outcome (used by transports and statistics).
    fn feedback(&mut self, event: MacFeedback);
}

/// Link-layer outcomes reported to the environment.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum MacFeedback {
    /// A queued packet completed its exchange (ACK received, or transmission
    /// finished when the protocol has no link ACK).
    Sent { stream: StreamId, transport_seq: u64 },
    /// A queued packet was discarded after exhausting its retries.
    Dropped { stream: StreamId, transport_seq: u64 },
    /// A packet was rejected at enqueue time (queue full).
    Refused { stream: StreamId, transport_seq: u64 },
}

/// A broken internal invariant inside a MAC state machine — e.g. a timer
/// fired while the radio was keyed, or a wait state with no packet to wait
/// for. These used to be `expect`/`debug_assert!` aborts; surfacing them as
/// data lets the model checker report the offending interleaving as a
/// counterexample instead of killing the whole exploration, and lets the
/// simulation core fail a run with a diagnosable `SimError` instead of a
/// panic.
///
/// A violation is a *bug in the protocol implementation* (or in a
/// deliberately broken variant under test), never a legal protocol outcome.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MacInvariantViolation {
    /// The station whose invariant broke.
    pub station: Addr,
    /// `Debug` rendering of the protocol state at the violation.
    pub state: String,
    /// What was violated.
    pub detail: String,
}

impl std::fmt::Display for MacInvariantViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "MAC invariant violated at {:?} in state {}: {}",
            self.station, self.state, self.detail
        )
    }
}

impl std::error::Error for MacInvariantViolation {}

/// Result of driving one MAC transition.
pub type MacResult = Result<(), MacInvariantViolation>;

/// Downcalls the environment makes into a MAC.
///
/// Each transition returns `Err` iff it detected a broken internal
/// invariant; the machine's state is unspecified afterwards and the caller
/// must stop driving it (the simulation core aborts the run, the model
/// checker records a counterexample).
pub trait MacProtocol {
    /// Queue `sdu` for transmission to `dst`.
    fn enqueue(&mut self, ctx: &mut dyn MacContext, dst: Addr, sdu: MacSdu) -> MacResult;

    /// A frame was received cleanly at this station (whether or not it is
    /// addressed to it — overheard control traffic drives deferral).
    fn on_receive(&mut self, ctx: &mut dyn MacContext, frame: &Frame) -> MacResult;

    /// The MAC timer fired.
    fn on_timer(&mut self, ctx: &mut dyn MacContext) -> MacResult;

    /// This station's own transmission just ended (the channel is ours to
    /// sequence: e.g. DS is followed back-to-back by DATA).
    fn on_tx_end(&mut self, ctx: &mut dyn MacContext) -> MacResult;

    /// Packets currently queued (all streams).
    fn queued_packets(&self) -> usize;

    /// Power-cycle the station: abandon any exchange in progress and return
    /// to the idle state with backoff at its minimum, as a freshly booted
    /// station would. With `preserve_queues` the queued packets survive the
    /// reboot (battery-backed queue policy); without it they are discarded
    /// silently — the caller is expected to have cleared the station's
    /// radio and timer already. The default is a no-op for stateless MACs.
    fn reset(&mut self, preserve_queues: bool) {
        let _ = preserve_queues;
    }

    /// Protocol counters, for implementations that keep
    /// [`MacStats`](crate::wmac::MacStats) (the MACA/MACAW family does;
    /// CSMA has its own simpler counters).
    fn mac_stats(&self) -> Option<&crate::wmac::MacStats> {
        None
    }
}

/// Canonical-state observation for state-space exploration.
///
/// A snapshot captures *everything that determines the machine's future
/// behaviour* — protocol state, queues, retry bookkeeping, backoff tables —
/// and nothing that doesn't (statistics counters are observer state: they
/// grow monotonically and would make every visited state look fresh).
/// Two machines with equal snapshots, equal pending-timer offsets and equal
/// RNG positions behave identically from here on, which is what lets an
/// explorer deduplicate interleavings that converge.
///
/// Absolute times inside the state (e.g. a `Quiet`-until deadline) must be
/// rebased to offsets from `now`, so that the same periodic behaviour
/// reached at different absolute times canonicalizes to the same snapshot.
pub trait MacSnapshot {
    /// The canonical-state value. `Ord` so explorers can pick the
    /// lexicographically-least snapshot vector over a symmetry orbit.
    type Snap: Clone + PartialEq + Eq + PartialOrd + Ord + std::hash::Hash + std::fmt::Debug;

    /// Capture the canonical state, rebasing embedded deadlines to `now`.
    fn snapshot(&self, now: SimTime) -> Self::Snap;

    /// Rewrite every station index and stream id inside `snap` through
    /// `map`, producing the snapshot this machine would have if the whole
    /// world were relabeled by the same permutation. Internal collections
    /// keyed by peer index or arrival order must be re-sorted into a
    /// permutation-stable order, so that for any two symmetric stations
    /// `relabel(snapshot(a)) == snapshot(b)` holds exactly.
    fn relabel(snap: &Self::Snap, map: &Relabeling<'_>) -> Self::Snap;

    /// [`MacSnapshot::snapshot`] written into `out`, which may hold any
    /// earlier snapshot. An implementation that overrides this reuses
    /// `out`'s buffers, so an explorer that refills one snapshot per
    /// station allocates nothing per visit. `out` must end equal to
    /// `self.snapshot(now)`.
    fn snapshot_into(&self, now: SimTime, out: &mut Self::Snap) {
        *out = self.snapshot(now);
    }

    /// [`MacSnapshot::relabel`] written into `out`, which may hold any
    /// earlier snapshot, reusing its buffers where overridden. `out` must
    /// end equal to `Self::relabel(snap, map)`.
    fn relabel_into(snap: &Self::Snap, map: &Relabeling<'_>, out: &mut Self::Snap) {
        *out = Self::relabel(snap, map);
    }

    /// Short name of the current protocol state (e.g. `"WfCts"`), for
    /// counterexample traces and stuck-state reporting.
    fn state_kind(&self) -> &'static str;

    /// `true` iff the current state can only make progress via the MAC
    /// timer (a wait state). A wait state with no armed timer is stuck —
    /// the checker flags it immediately.
    fn awaits_timer(&self) -> bool;

    /// `true` iff the machine believes its radio is keyed up (it is owed an
    /// `on_tx_end`). A transmitting state with no in-flight transmission is
    /// likewise stuck.
    fn transmitting(&self) -> bool;
}

//! A scripted [`MacContext`] for unit-testing MAC state machines in
//! isolation — no radio, no event loop, just a controllable clock and a
//! recording of everything the MAC asked for.
//!
//! Used heavily by this crate's own tests; exported because downstream
//! users writing new protocol variants need exactly the same scaffolding.

use macaw_sim::{SimDuration, SimRng, SimTime};

use crate::context::{MacContext, MacFeedback, MacProtocol};
use crate::frames::{Addr, Frame, MacSdu};

/// Everything a MAC did through its context, in order.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Action {
    /// `transmit(frame)` was called.
    Transmit(Frame),
    /// A packet was delivered upward.
    DeliverUp { src: Addr, sdu: MacSdu },
    /// A feedback event was reported.
    Feedback(MacFeedback),
}

/// Scripted context: the test controls time, carrier state and the RNG seed,
/// and inspects the recorded [`Action`]s and timer state afterwards.
///
/// `Clone` clones the full context — clock, RNG position, timer, recorded
/// actions — so a state-space explorer can fork a station mid-run and
/// drive the copies down different interleavings.
pub struct ScriptedContext {
    now: SimTime,
    rng: SimRng,
    /// Pending timer deadline, if armed.
    pub timer: Option<SimTime>,
    /// What the carrier-sense query should report.
    pub carrier: bool,
    /// Everything the MAC did, in order.
    pub actions: Vec<Action>,
    /// Number of `set_timer` calls. Every set is a decrease-key write into
    /// the engine's timer index, so tests assert on this to bound a MAC's
    /// re-arm traffic, not just its final timer state.
    pub timer_sets: u64,
    /// Number of `clear_timer` calls (whether or not a timer was armed).
    pub timer_clears: u64,
}

/// By hand so that `clone_from` refills the action buffer in place: the
/// checker refills every child world's stations from their parent's on
/// every transition.
impl Clone for ScriptedContext {
    fn clone(&self) -> Self {
        ScriptedContext {
            now: self.now,
            rng: self.rng.clone(),
            timer: self.timer,
            carrier: self.carrier,
            actions: self.actions.clone(),
            timer_sets: self.timer_sets,
            timer_clears: self.timer_clears,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        let ScriptedContext {
            now,
            rng,
            timer,
            carrier,
            actions,
            timer_sets,
            timer_clears,
        } = source;
        self.now = *now;
        self.rng.clone_from(rng);
        self.timer = *timer;
        self.carrier = *carrier;
        self.actions.clone_from(actions);
        self.timer_sets = *timer_sets;
        self.timer_clears = *timer_clears;
    }
}

impl ScriptedContext {
    /// New context at t = 0 with the given RNG seed.
    pub fn new(seed: u64) -> Self {
        ScriptedContext {
            now: SimTime::ZERO,
            rng: SimRng::new(seed),
            timer: None,
            carrier: false,
            actions: Vec::new(),
            timer_sets: 0,
            timer_clears: 0,
        }
    }

    /// Advance the clock (must move forward).
    pub fn advance_to(&mut self, t: SimTime) {
        assert!(t >= self.now, "clock must not go backwards");
        self.now = t;
    }

    /// Digest of the RNG stream position (see [`SimRng::digest`]): equal
    /// digests (same seed) mean identical future draws, so explorers fold
    /// this into canonical-state hashes.
    pub fn rng_digest(&self) -> u64 {
        self.rng.digest()
    }

    /// Advance the clock to the pending timer deadline and clear it,
    /// returning `true` if a timer was armed. The caller then invokes the
    /// MAC's `on_timer`.
    pub fn fire_timer(&mut self) -> bool {
        match self.timer.take() {
            Some(t) => {
                self.advance_to(t);
                true
            }
            None => false,
        }
    }

    /// The frames transmitted so far.
    pub fn transmitted(&self) -> Vec<&Frame> {
        self.actions
            .iter()
            .filter_map(|a| match a {
                Action::Transmit(f) => Some(f),
                _ => None,
            })
            .collect()
    }

    /// The last transmitted frame, if any.
    pub fn last_tx(&self) -> Option<&Frame> {
        self.transmitted().last().copied()
    }

    /// Packets delivered upward so far.
    pub fn delivered(&self) -> Vec<(Addr, MacSdu)> {
        self.actions
            .iter()
            .filter_map(|a| match a {
                Action::DeliverUp { src, sdu } => Some((*src, *sdu)),
                _ => None,
            })
            .collect()
    }

    /// Feedback events reported so far.
    pub fn feedback_events(&self) -> Vec<MacFeedback> {
        self.actions
            .iter()
            .filter_map(|a| match a {
                Action::Feedback(f) => Some(*f),
                _ => None,
            })
            .collect()
    }

    /// Crash-and-wipe `mac` the way the fault layer does: the pending timer
    /// is disarmed (a dead station's timer never fires) and the MAC's
    /// volatile state is reset via [`MacProtocol::reset`]. The recorded
    /// action history is kept — it belongs to the test, not the station.
    pub fn crash(&mut self, mac: &mut dyn MacProtocol, preserve_queues: bool) {
        self.timer = None;
        mac.reset(preserve_queues);
    }
}

impl MacContext for ScriptedContext {
    fn now(&self) -> SimTime {
        self.now
    }

    fn set_timer(&mut self, delay: SimDuration) {
        self.timer_sets += 1;
        self.timer = Some(self.now + delay);
    }

    fn clear_timer(&mut self) {
        self.timer_clears += 1;
        self.timer = None;
    }

    fn transmit(&mut self, frame: Frame) {
        self.actions.push(Action::Transmit(frame));
    }

    fn rng(&mut self) -> &mut SimRng {
        &mut self.rng
    }

    fn carrier_busy(&self) -> bool {
        self.carrier
    }

    fn deliver_up(&mut self, src: Addr, sdu: MacSdu) {
        self.actions.push(Action::DeliverUp { src, sdu });
    }

    fn feedback(&mut self, event: MacFeedback) {
        self.actions.push(Action::Feedback(event));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frames::StreamId;

    #[test]
    fn timer_write_counters_track_every_call() {
        let mut ctx = ScriptedContext::new(1);
        ctx.set_timer(SimDuration::from_micros(10));
        ctx.set_timer(SimDuration::from_micros(20)); // re-arm overwrites
        assert_eq!(ctx.timer, Some(SimTime::ZERO + SimDuration::from_micros(20)));
        assert_eq!(ctx.timer_sets, 2);
        ctx.clear_timer();
        ctx.clear_timer(); // clearing an unarmed timer still counts the call
        assert_eq!(ctx.timer, None);
        assert_eq!(ctx.timer_clears, 2);
        // Firing consumes the deadline without counting as a write.
        ctx.set_timer(SimDuration::from_micros(5));
        assert!(ctx.fire_timer());
        assert_eq!((ctx.timer_sets, ctx.timer_clears), (3, 2));
    }

    #[test]
    fn clone_from_refills_the_action_buffer_in_place() {
        let mut src = ScriptedContext::new(3);
        let sdu = MacSdu {
            stream: StreamId(0),
            transport_seq: 1,
            bytes: 512,
        };
        src.deliver_up(Addr::Unicast(1), sdu);
        src.deliver_up(Addr::Unicast(2), sdu);
        let mut dst = src.clone();
        dst.actions.clear();
        let buffer = dst.actions.as_ptr();
        dst.clone_from(&src);
        assert_eq!(dst.actions, src.actions);
        assert_eq!(dst.actions.as_ptr(), buffer, "the buffer is kept");
        assert_eq!(dst.rng_digest(), src.rng_digest());
    }
}

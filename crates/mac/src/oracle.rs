//! A deterministic step-level interface over any [`MacProtocol`].
//!
//! The simulation core drives a MAC through four entry points (enqueue,
//! receive, timer, tx-end) and observes it through [`MacContext`] upcalls.
//! [`Oracle`] packages exactly that contract as a pure transition function:
//! feed it one [`Stimulus`], get back the [`StepObs`] the station produced —
//! no radio, no event loop, no hidden channel. Everything a state-space
//! explorer or a scenario fuzzer needs to drive a station is in this type:
//!
//! * **Deterministic**: the station's RNG stream is seeded at construction;
//!   the same stimulus sequence always produces the same observations.
//! * **Forkable**: `Clone` copies the full station — protocol state, clock,
//!   RNG position, armed timer — so an explorer can branch a world at a
//!   nondeterministic choice and drive each copy down a different
//!   interleaving.
//! * **Total**: a broken MAC invariant comes back as
//!   `Err(MacInvariantViolation)` instead of a panic, so one bad
//!   interleaving becomes a counterexample, not an aborted search.
//!
//! The checker crate builds multi-station worlds out of `Oracle`s; the
//! ROADMAP-4 scenario fuzzer drives single stations through the same
//! interface.

use macaw_sim::SimTime;

use crate::context::{MacContext, MacInvariantViolation, MacProtocol};
use crate::frames::{Addr, Frame, MacSdu};
use crate::harness::{Action, ScriptedContext};

/// One input event delivered to a station — the complete nondeterminism
/// alphabet a real radio exposes to a MAC.
#[derive(Clone, Debug)]
pub enum Stimulus {
    /// The upper layer queues `sdu` for `dst`.
    Enqueue { dst: Addr, sdu: MacSdu },
    /// The armed MAC timer fires. The clock advances to the deadline if it
    /// is still in the future (an epsilon-reordered firing may arrive with
    /// the deadline already behind the global clock; it then fires "late"
    /// at the current instant, exactly the slop the timeout margin models).
    Timer,
    /// The station's own transmission ends.
    TxEnd,
    /// `frame` arrives cleanly at the station's receiver.
    Receive(Frame),
}

impl Stimulus {
    /// Independence metadata: the *other* station this stimulus couples the
    /// acted-on station to, if any. `Timer` and `TxEnd` are station-local
    /// (their effects radiate only through subsequent transmissions);
    /// `Receive` couples to the frame's transmitter and `Enqueue` to the
    /// packet's destination. Two stimuli at different stations whose
    /// hearing-closure footprints (the station, its peer, and everyone who
    /// can hear either) are disjoint commute exactly: neither transition
    /// can read state the other writes, so a partial-order reducer may
    /// explore them in one canonical order. The checker crate derives the
    /// closures from its hearing matrix; this accessor is the per-stimulus
    /// half of that computation.
    pub fn peer(&self) -> Option<Addr> {
        match self {
            Stimulus::Enqueue { dst, .. } => Some(*dst),
            Stimulus::Timer | Stimulus::TxEnd => None,
            Stimulus::Receive(frame) => Some(frame.src),
        }
    }
}

/// Everything a station did in response to one stimulus.
#[derive(Clone, Debug)]
pub struct StepObs<'a> {
    /// Upcalls made during the step, in order (transmissions, deliveries,
    /// feedback events). Borrowed from the station's action buffer, which
    /// the next step clears and refills.
    pub actions: &'a [Action],
    /// The timer deadline left armed after the step, if any.
    pub timer: Option<SimTime>,
}

/// A single station as a deterministic `step(stimulus) -> observations`
/// transition function. See the module docs.
pub struct Oracle<P> {
    mac: P,
    ctx: ScriptedContext,
}

/// By hand so that `clone_from` forwards to the protocol's own
/// `clone_from`, which may refill its buffers in place.
impl<P: Clone> Clone for Oracle<P> {
    fn clone(&self) -> Self {
        Oracle {
            mac: self.mac.clone(),
            ctx: self.ctx.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        let Oracle { mac, ctx } = source;
        self.mac.clone_from(mac);
        self.ctx.clone_from(ctx);
    }
}

impl<P: MacProtocol> Oracle<P> {
    /// Wrap `mac` with a fresh context whose RNG stream is seeded with
    /// `seed`. The clock starts at t = 0.
    pub fn new(mac: P, seed: u64) -> Self {
        Oracle {
            mac,
            ctx: ScriptedContext::new(seed),
        }
    }

    /// Current station-local time.
    pub fn now(&self) -> SimTime {
        MacContext::now(&self.ctx)
    }

    /// Advance the station clock (must not go backwards). The caller owns
    /// global time; the oracle only moves on [`Stimulus::Timer`].
    pub fn advance_to(&mut self, t: SimTime) {
        self.ctx.advance_to(t);
    }

    /// Set what the station's carrier-sense query reports.
    pub fn set_carrier(&mut self, busy: bool) {
        self.ctx.carrier = busy;
    }

    /// The armed timer deadline, if any.
    pub fn timer_deadline(&self) -> Option<SimTime> {
        self.ctx.timer
    }

    /// Digest of the RNG stream position (see
    /// [`SimRng::digest`](macaw_sim::SimRng::digest)); folds into
    /// canonical-state hashes.
    pub fn rng_digest(&self) -> u64 {
        self.ctx.rng_digest()
    }

    /// The wrapped protocol machine (for snapshots and read-only queries).
    pub fn mac(&self) -> &P {
        &self.mac
    }

    /// Drive one transition: deliver `stim`, return the observations. Each
    /// step starts by clearing the action log (keeping its buffer), so the
    /// observations are exactly this transition's effects.
    ///
    /// # Panics
    /// Panics if `stim` is [`Stimulus::Timer`] and no timer is armed — that
    /// is a harness bug (the driver must only offer enabled stimuli), not a
    /// protocol outcome.
    pub fn step(&mut self, stim: Stimulus) -> Result<StepObs<'_>, MacInvariantViolation> {
        self.ctx.actions.clear();
        match stim {
            Stimulus::Enqueue { dst, sdu } => self.mac.enqueue(&mut self.ctx, dst, sdu)?,
            Stimulus::Timer => {
                let deadline = self
                    .ctx
                    .timer
                    .take()
                    .expect("Timer stimulus with no armed timer");
                if deadline > MacContext::now(&self.ctx) {
                    self.ctx.advance_to(deadline);
                }
                self.mac.on_timer(&mut self.ctx)?;
            }
            Stimulus::TxEnd => self.mac.on_tx_end(&mut self.ctx)?,
            Stimulus::Receive(frame) => self.mac.on_receive(&mut self.ctx, &frame)?,
        }
        Ok(StepObs {
            actions: &self.ctx.actions,
            timer: self.ctx.timer,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MacConfig;
    use crate::frames::{FrameKind, StreamId};
    use crate::wmac::WMac;

    const A: Addr = Addr::Unicast(0);
    const B: Addr = Addr::Unicast(1);

    fn sdu(seq: u64) -> MacSdu {
        MacSdu {
            stream: StreamId(1),
            transport_seq: seq,
            bytes: 512,
        }
    }

    #[test]
    fn step_returns_only_the_transition_effects() {
        let mut o = Oracle::new(WMac::new(A, MacConfig::macaw()), 7);
        let obs = o.step(Stimulus::Enqueue { dst: B, sdu: sdu(1) }).unwrap();
        assert!(obs.actions.is_empty(), "enqueue only arms contention");
        assert!(obs.timer.is_some(), "contention timer armed");
        let obs = o.step(Stimulus::Timer).unwrap();
        assert_eq!(obs.actions.len(), 1, "exactly this step's RTS");
        assert!(matches!(
            obs.actions[0],
            Action::Transmit(Frame { kind: FrameKind::Rts, .. })
        ));
    }

    #[test]
    fn timer_step_advances_to_the_deadline() {
        let mut o = Oracle::new(WMac::new(A, MacConfig::macaw()), 8);
        o.step(Stimulus::Enqueue { dst: B, sdu: sdu(1) }).unwrap();
        let deadline = o.timer_deadline().unwrap();
        o.step(Stimulus::Timer).unwrap();
        assert_eq!(o.now(), deadline);
    }

    #[test]
    fn forked_oracles_diverge_independently() {
        let mut a = Oracle::new(WMac::new(A, MacConfig::macaw()), 9);
        a.step(Stimulus::Enqueue { dst: B, sdu: sdu(1) }).unwrap();
        let mut b = a.clone();
        // Branch: copy `a` fires its contention; copy `b` hears a foreign
        // CTS first and defers.
        let obs_a = a.step(Stimulus::Timer).unwrap();
        let obs_b = b
            .step(Stimulus::Receive(Frame {
                kind: FrameKind::Cts,
                src: Addr::Unicast(2),
                dst: Addr::Unicast(3),
                data_bytes: 512,
                backoff: Default::default(),
                payload: None,
            }))
            .unwrap();
        assert!(matches!(
            obs_a.actions[..],
            [Action::Transmit(Frame { kind: FrameKind::Rts, .. })]
        ));
        assert!(obs_b.actions.is_empty(), "deferral transmits nothing");
        assert!(b.timer_deadline().unwrap() > a.now(), "b defers past a's fire");
    }

    #[test]
    fn invariant_violation_is_an_error_not_a_panic() {
        let mut o = Oracle::new(WMac::new(A, MacConfig::macaw()), 10);
        // TxEnd with the radio idle is a broken invariant.
        let err = o.step(Stimulus::TxEnd).unwrap_err();
        assert_eq!(err.station, A);
        assert!(err.detail.contains("non-transmit"));
    }
}

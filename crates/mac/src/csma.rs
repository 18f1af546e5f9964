//! Non-persistent CSMA — the baseline the paper argues against (§2.2).
//!
//! Every station senses the carrier before transmitting; if carrier is
//! detected the transmission is deferred by a random backoff and retried.
//! Data is sent directly (no RTS/CTS) and there is no link-layer recovery,
//! so collisions at the receiver are silent — exactly the failure mode of
//! the hidden-terminal scenario: carrier is sensed *at the sender*, but
//! collisions happen *at the receiver*.
//!
//! Used by the `hidden_terminal` example and the Figure 1 row of the
//! `tables` binary to demonstrate the hidden/exposed-terminal behaviour
//! that motivates MACA.

use std::collections::VecDeque;

use macaw_sim::SimTime;

use crate::backoff::BackoffAlgo;
use crate::context::{
    MacContext, MacFeedback, MacInvariantViolation, MacProtocol, MacResult, MacSnapshot,
};
use crate::frames::{slot, Addr, BackoffHeader, Frame, FrameKind, MacSdu};

/// CSMA configuration.
#[derive(Clone, Copy, Debug)]
pub struct CsmaConfig {
    /// Backoff counter bounds (slots).
    pub bo_min: u32,
    pub bo_max: u32,
    /// Sense-retry attempts before a packet is dropped.
    pub max_attempts: u32,
    /// Transmit-queue capacity.
    pub queue_capacity: usize,
}

impl Default for CsmaConfig {
    fn default() -> Self {
        CsmaConfig {
            bo_min: 2,
            bo_max: 64,
            max_attempts: 16,
            queue_capacity: 512,
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
struct Packet {
    dst: Addr,
    sdu: MacSdu,
    attempts: u32,
}

#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
enum State {
    Idle,
    /// Carrier was busy; waiting a random number of slots before re-sensing.
    Backoff,
    /// Transmitting the head packet.
    Sending,
}

/// Non-persistent CSMA station.
#[derive(Clone)]
pub struct Csma {
    addr: Addr,
    cfg: CsmaConfig,
    queue: VecDeque<Packet>,
    state: State,
    bo: u32,
    /// Packets handed to the channel (collided or not — CSMA cannot tell).
    pub sent: u64,
    /// Packets dropped after too many busy-channel retries.
    pub dropped: u64,
}

impl Csma {
    /// Create a CSMA station with address `addr`.
    pub fn new(addr: Addr, cfg: CsmaConfig) -> Self {
        assert!(!addr.is_multicast(), "station address must be unicast");
        Csma {
            addr,
            cfg,
            queue: VecDeque::new(),
            state: State::Idle,
            bo: cfg.bo_min,
            sent: 0,
            dropped: 0,
        }
    }

    /// This station's address.
    pub fn addr(&self) -> Addr {
        self.addr
    }

    fn try_send(&mut self, ctx: &mut dyn MacContext) {
        if self.state != State::Idle {
            return;
        }
        let Some(pkt) = self.queue.front().copied() else {
            return;
        };
        if ctx.carrier_busy() {
            // Busy: back off a random number of slots and re-sense.
            let head = self.queue.front_mut().unwrap();
            head.attempts += 1;
            if head.attempts > self.cfg.max_attempts {
                let p = self.queue.pop_front().unwrap();
                self.dropped += 1;
                ctx.feedback(MacFeedback::Dropped {
                    stream: p.sdu.stream,
                    transport_seq: p.sdu.transport_seq,
                });
                self.bo = self.cfg.bo_min;
                self.try_send(ctx);
                return;
            }
            self.bo = BackoffAlgo::Beb.increase(self.bo, self.cfg.bo_min, self.cfg.bo_max);
            let k = ctx.rng().uniform_inclusive(1, self.bo as u64);
            self.state = State::Backoff;
            ctx.set_timer(slot() * k);
        } else {
            self.state = State::Sending;
            self.sent += 1;
            ctx.transmit(Frame {
                kind: FrameKind::Data,
                src: self.addr,
                dst: pkt.dst,
                data_bytes: pkt.sdu.bytes,
                backoff: BackoffHeader {
                    local: self.bo,
                    remote: None,
                    esn: pkt.sdu.transport_seq,
                },
                payload: Some(pkt.sdu),
            });
        }
    }
}

impl MacProtocol for Csma {
    fn enqueue(&mut self, ctx: &mut dyn MacContext, dst: Addr, sdu: MacSdu) -> MacResult {
        if self.queue.len() >= self.cfg.queue_capacity {
            ctx.feedback(MacFeedback::Refused {
                stream: sdu.stream,
                transport_seq: sdu.transport_seq,
            });
            return Ok(());
        }
        self.queue.push_back(Packet {
            dst,
            sdu,
            attempts: 0,
        });
        self.try_send(ctx);
        Ok(())
    }

    fn on_receive(&mut self, ctx: &mut dyn MacContext, frame: &Frame) -> MacResult {
        // Pure receiver: deliver data addressed to us; nothing else matters.
        if frame.dst == self.addr {
            if let (FrameKind::Data, Some(sdu)) = (frame.kind, frame.payload) {
                ctx.deliver_up(frame.src, sdu);
            }
        }
        Ok(())
    }

    fn on_timer(&mut self, ctx: &mut dyn MacContext) -> MacResult {
        if self.state == State::Sending {
            return Err(MacInvariantViolation {
                station: self.addr,
                state: format!("{:?}", self.state),
                detail: "timer fired while transmitting".to_owned(),
            });
        }
        if self.state == State::Backoff {
            self.state = State::Idle;
        }
        // A spurious timer in Idle (e.g. the restart kick after a crash)
        // just retries the queue head; try_send is a no-op elsewhere.
        self.try_send(ctx);
        Ok(())
    }

    fn on_tx_end(&mut self, ctx: &mut dyn MacContext) -> MacResult {
        if self.state != State::Sending {
            return Err(MacInvariantViolation {
                station: self.addr,
                state: format!("{:?}", self.state),
                detail: "tx ended in a non-transmit state".to_owned(),
            });
        }
        self.state = State::Idle;
        // Fire-and-forget: CSMA has no way to learn the outcome.
        if let Some(p) = self.queue.pop_front() {
            self.bo = BackoffAlgo::Beb.decrease(self.bo, self.cfg.bo_min, self.cfg.bo_max);
            ctx.feedback(MacFeedback::Sent {
                stream: p.sdu.stream,
                transport_seq: p.sdu.transport_seq,
            });
        }
        self.try_send(ctx);
        Ok(())
    }

    fn queued_packets(&self) -> usize {
        self.queue.len()
    }

    fn reset(&mut self, preserve_queues: bool) {
        self.state = State::Idle;
        self.bo = self.cfg.bo_min;
        if preserve_queues {
            for p in &mut self.queue {
                p.attempts = 0;
            }
        } else {
            self.queue.clear();
        }
    }
}

/// Canonical snapshot of a [`Csma`] station's behavioural state: protocol
/// state, backoff counter and queue contents. The `sent`/`dropped` counters
/// are observer state and excluded (see [`MacSnapshot`]). Opaque: explorers
/// only clone, compare, hash and debug-print it.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct CsmaSnapshot {
    state: State,
    bo: u32,
    queue: VecDeque<Packet>,
}

impl MacSnapshot for Csma {
    type Snap = CsmaSnapshot;

    fn snapshot(&self, _now: SimTime) -> CsmaSnapshot {
        // No absolute times live in the state (the backoff deadline is in
        // the timer side-channel, which the harness owns), so nothing needs
        // rebasing.
        CsmaSnapshot {
            state: self.state,
            bo: self.bo,
            queue: self.queue.clone(),
        }
    }

    fn relabel(snap: &CsmaSnapshot, map: &crate::context::Relabeling<'_>) -> CsmaSnapshot {
        // The queue is FIFO, so its order is behavioural and kept as-is;
        // only embedded addresses and stream ids are rewritten.
        CsmaSnapshot {
            state: snap.state,
            bo: snap.bo,
            queue: snap
                .queue
                .iter()
                .map(|p| Packet {
                    dst: map.addr(p.dst),
                    sdu: map.sdu(p.sdu),
                    attempts: p.attempts,
                })
                .collect(),
        }
    }

    fn state_kind(&self) -> &'static str {
        match self.state {
            State::Idle => "Idle",
            State::Backoff => "Backoff",
            State::Sending => "Sending",
        }
    }

    fn awaits_timer(&self) -> bool {
        self.state == State::Backoff
    }

    fn transmitting(&self) -> bool {
        self.state == State::Sending
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::ScriptedContext;
    use crate::frames::StreamId;

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
    fn transmits_immediately_on_idle_carrier() {
        let mut mac = Csma::new(A, CsmaConfig::default());
        let mut ctx = ScriptedContext::new(1);
        mac.enqueue(&mut ctx, B, sdu(1)).unwrap();
        let f = ctx.last_tx().expect("data transmitted");
        assert_eq!(f.kind, FrameKind::Data);
        assert_eq!(f.dst, B);
        assert_eq!(mac.sent, 1);
    }

    #[test]
    fn defers_with_backoff_when_carrier_busy() {
        let mut mac = Csma::new(A, CsmaConfig::default());
        let mut ctx = ScriptedContext::new(2);
        ctx.carrier = true;
        mac.enqueue(&mut ctx, B, sdu(1)).unwrap();
        assert!(ctx.transmitted().is_empty(), "must not transmit into carrier");
        assert!(ctx.timer.is_some(), "backoff timer armed");
        // Carrier clears; the retry goes out.
        ctx.carrier = false;
        assert!(ctx.fire_timer());
        mac.on_timer(&mut ctx).unwrap();
        assert_eq!(ctx.transmitted().len(), 1);
    }

    #[test]
    fn drops_after_too_many_busy_retries() {
        let cfg = CsmaConfig {
            max_attempts: 3,
            ..CsmaConfig::default()
        };
        let mut mac = Csma::new(A, cfg);
        let mut ctx = ScriptedContext::new(3);
        ctx.carrier = true;
        mac.enqueue(&mut ctx, B, sdu(1)).unwrap();
        for _ in 0..3 {
            assert!(ctx.fire_timer());
            mac.on_timer(&mut ctx).unwrap();
        }
        assert_eq!(mac.dropped, 1);
        assert_eq!(mac.queued_packets(), 0);
        assert!(matches!(
            ctx.feedback_events().last(),
            Some(MacFeedback::Dropped { .. })
        ));
    }

    #[test]
    fn queue_drains_in_order() {
        let mut mac = Csma::new(A, CsmaConfig::default());
        let mut ctx = ScriptedContext::new(4);
        mac.enqueue(&mut ctx, B, sdu(1)).unwrap();
        mac.enqueue(&mut ctx, B, sdu(2)).unwrap();
        assert_eq!(mac.queued_packets(), 2);
        mac.on_tx_end(&mut ctx).unwrap(); // first done -> second starts
        let seqs: Vec<u64> = ctx
            .transmitted()
            .iter()
            .map(|f| f.payload.unwrap().transport_seq)
            .collect();
        assert_eq!(seqs, vec![1, 2]);
        mac.on_tx_end(&mut ctx).unwrap();
        assert_eq!(mac.queued_packets(), 0);
    }

    #[test]
    fn receiver_delivers_data_addressed_to_it() {
        let mut mac = Csma::new(B, CsmaConfig::default());
        let mut ctx = ScriptedContext::new(5);
        let frame = Frame {
            kind: FrameKind::Data,
            src: A,
            dst: B,
            data_bytes: 512,
            backoff: BackoffHeader::default(),
            payload: Some(sdu(9)),
        };
        mac.on_receive(&mut ctx, &frame).unwrap();
        assert_eq!(ctx.delivered().len(), 1);
        // Not addressed to us: ignored.
        let other = Frame {
            dst: Addr::Unicast(2),
            ..frame
        };
        mac.on_receive(&mut ctx, &other).unwrap();
        assert_eq!(ctx.delivered().len(), 1);
    }

    #[test]
    fn refuses_when_queue_full() {
        let cfg = CsmaConfig {
            queue_capacity: 1,
            ..CsmaConfig::default()
        };
        let mut mac = Csma::new(A, cfg);
        let mut ctx = ScriptedContext::new(6);
        ctx.carrier = true; // keep the first packet queued
        mac.enqueue(&mut ctx, B, sdu(1)).unwrap();
        mac.enqueue(&mut ctx, B, sdu(2)).unwrap();
        assert!(matches!(
            ctx.feedback_events().last(),
            Some(MacFeedback::Refused { transport_seq: 2, .. })
        ));
    }
}

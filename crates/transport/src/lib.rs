//! Transport layers for the MACAW reproduction.
//!
//! The paper's experiments run two transports over the MAC:
//!
//! * **UDP** ([`udp`]) — fire-and-forget datagrams, used by most of the
//!   throughput experiments (Tables 1–3, 5–10).
//! * **TCP** ([`tcp`]) — a compact reliable transport reproducing the single
//!   property the paper leans on: error recovery by coarse retransmission
//!   timeout with a **0.5 second minimum** ("many current TCP
//!   implementations have a minimum timeout period of 0.5 sec", §3.3.1).
//!   Tables 4 and 11 compare this slow transport-layer recovery against
//!   MACAW's fast link-layer ACK.
//!
//! A transport instance is one *endpoint* of one stream. Data segments flow
//! sender → receiver and acknowledgement segments flow back, all carried as
//! MAC SDUs on the same stream; [`Segment`] packs either into the MAC's
//! opaque `(transport_seq, bytes)` pair.

pub mod segment;
pub mod tcp;
pub mod udp;

pub use segment::Segment;
pub use tcp::{TcpReceiver, TcpSender};
pub use udp::{UdpReceiver, UdpSender};

use macaw_sim::{SimDuration, SimTime};

/// Upcalls a transport endpoint can make into its environment.
pub trait TransportContext {
    /// Current simulated time.
    fn now(&self) -> SimTime;

    /// Arm this endpoint's (single) timer, replacing any pending one.
    fn set_timer(&mut self, delay: SimDuration);

    /// Disarm the timer.
    fn clear_timer(&mut self);

    /// Hand a segment to the MAC for transmission to the stream's peer.
    fn send_segment(&mut self, seg: Segment);

    /// Deliver an in-order application packet at the sink (the measurement
    /// point for every table in the paper).
    fn deliver_app(&mut self, seq: u64, bytes: u32);
}

/// Downcalls the environment makes into a transport endpoint.
pub trait Transport {
    /// The application produced one packet of `bytes` bytes.
    fn on_app_send(&mut self, ctx: &mut dyn TransportContext, bytes: u32);

    /// A segment of this stream arrived from the peer.
    fn on_segment(&mut self, ctx: &mut dyn TransportContext, seg: Segment);

    /// The endpoint timer fired.
    fn on_timer(&mut self, ctx: &mut dyn TransportContext);

    /// The link layer gave up on one of this endpoint's segments after
    /// exhausting its retries (an explicit loss signal — §4's "transport
    /// layer ... informed of the failure"). Default: ignore it and let the
    /// endpoint's own timers recover, which is all UDP-like transports do.
    fn on_segment_dropped(&mut self, ctx: &mut dyn TransportContext, seg: Segment) {
        let _ = (ctx, seg);
    }
}

/// A scripted [`TransportContext`] for unit tests (mirrors
/// `macaw_mac::harness`).
pub mod harness {
    use super::*;

    /// Recorded transport actions.
    #[derive(Debug, PartialEq, Clone, Copy)]
    pub enum Action {
        Sent(Segment),
        Delivered { seq: u64, bytes: u32 },
    }

    /// Scripted context with a controllable clock.
    pub struct ScriptedContext {
        now: SimTime,
        /// Pending timer deadline, if armed.
        pub timer: Option<SimTime>,
        /// Everything the endpoint did, in order.
        pub actions: Vec<Action>,
    }

    impl ScriptedContext {
        /// New context at t = 0.
        pub fn new() -> Self {
            ScriptedContext {
                now: SimTime::ZERO,
                timer: None,
                actions: Vec::new(),
            }
        }

        /// Advance the clock.
        pub fn advance(&mut self, d: SimDuration) {
            self.now += d;
        }

        /// Jump to the pending timer deadline, clearing it. Returns whether
        /// a timer was armed.
        pub fn fire_timer(&mut self) -> bool {
            match self.timer.take() {
                Some(t) => {
                    assert!(t >= self.now);
                    self.now = t;
                    true
                }
                None => false,
            }
        }

        /// Segments sent so far.
        pub fn sent(&self) -> Vec<Segment> {
            self.actions
                .iter()
                .filter_map(|a| match a {
                    Action::Sent(s) => Some(*s),
                    _ => None,
                })
                .collect()
        }

        /// Application packets delivered so far.
        pub fn delivered(&self) -> Vec<u64> {
            self.actions
                .iter()
                .filter_map(|a| match a {
                    Action::Delivered { seq, .. } => Some(*seq),
                    _ => None,
                })
                .collect()
        }
    }

    impl Default for ScriptedContext {
        fn default() -> Self {
            Self::new()
        }
    }

    impl TransportContext for ScriptedContext {
        fn now(&self) -> SimTime {
            self.now
        }

        fn set_timer(&mut self, delay: SimDuration) {
            self.timer = Some(self.now + delay);
        }

        fn clear_timer(&mut self) {
            self.timer = None;
        }

        fn send_segment(&mut self, seg: Segment) {
            self.actions.push(Action::Sent(seg));
        }

        fn deliver_app(&mut self, seq: u64, bytes: u32) {
            self.actions.push(Action::Delivered { seq, bytes });
        }
    }
}

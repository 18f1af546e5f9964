//! A compact TCP: sliding window, cumulative ACKs, go-back-N retransmission
//! on a coarse timeout with the paper's **0.5 s minimum RTO**.
//!
//! §3.3.1 motivates MACAW's link-layer ACK by the slowness of transport
//! recovery: "recovery at the link-layer can be much faster because the
//! timeout periods can be tailored to fit the short time scales of the
//! media. … many current TCP implementations have a minimum timeout period
//! of 0.5 sec". This implementation reproduces exactly the mechanisms that
//! matter for Tables 4 and 11:
//!
//! * a window of in-flight packets (so throughput is self-clocked by ACKs),
//! * cumulative acknowledgements carried as 40-byte segments that contend
//!   for the media like any other packet,
//! * RTT-estimated retransmission timeout (Jacobson SRTT + 4·RTTVAR)
//!   clamped below by 0.5 s, doubled on every expiry (up to a cap),
//! * go-back-N resend from the first unacknowledged packet.
//!
//! Congestion windows, SACK, fast retransmit etc. are intentionally absent —
//! the paper predates them and the evaluated effect (coarse timeouts vs link
//! ACKs) does not depend on them.

use macaw_sim::{SimDuration, SimTime};

use crate::{Segment, Transport, TransportContext};

/// Maximum packets in flight.
pub const WINDOW: u64 = 8;
/// Minimum retransmission timeout (the paper's 0.5 s).
pub const MIN_RTO: SimDuration = SimDuration::from_millis(500);
/// Maximum retransmission timeout (backoff cap).
pub const MAX_RTO: SimDuration = SimDuration::from_secs(60);
/// Wire size of an acknowledgement segment.
pub const ACK_BYTES: u32 = 40;

/// TCP sending endpoint.
pub struct TcpSender {
    /// Size of every data packet on this stream (the paper's flows are
    /// constant-size).
    packet_bytes: u32,
    /// Packets submitted by the application.
    submitted: u64,
    /// First unacknowledged sequence number.
    snd_una: u64,
    /// Next sequence number to transmit.
    snd_nxt: u64,
    /// Smoothed RTT / RTT variance (Jacobson), if measured yet.
    srtt: Option<SimDuration>,
    rttvar: SimDuration,
    /// Consecutive timeouts since the last new ACK.
    backoff_shift: u32,
    /// Send time of the segment being timed (Karn's rule: only segments
    /// sent exactly once are timed).
    timing: Option<(u64, SimTime)>,
    /// Whether the retransmission timer is currently armed. Tracked here so
    /// that window refills do not keep pushing the deadline out — an RTO
    /// that is re-armed on every application tick never expires.
    timer_armed: bool,
    /// Total retransmitted packets (diagnostics).
    retransmits: u64,
}

impl TcpSender {
    /// Create a sender for packets of `packet_bytes` bytes.
    pub fn new(packet_bytes: u32) -> Self {
        TcpSender {
            packet_bytes,
            submitted: 0,
            snd_una: 0,
            snd_nxt: 0,
            srtt: None,
            rttvar: SimDuration::ZERO,
            backoff_shift: 0,
            timing: None,
            timer_armed: false,
            retransmits: 0,
        }
    }

    /// Packets retransmitted so far.
    pub fn retransmits(&self) -> u64 {
        self.retransmits
    }

    /// First unacknowledged sequence number.
    pub fn snd_una(&self) -> u64 {
        self.snd_una
    }

    /// Packets sent and not yet acknowledged.
    pub fn outstanding(&self) -> u64 {
        self.snd_nxt - self.snd_una
    }

    fn base_rto(&self) -> SimDuration {
        let computed = match self.srtt {
            Some(srtt) => srtt + self.rttvar * 4,
            None => MIN_RTO,
        };
        computed.clamp(MIN_RTO, MAX_RTO)
    }

    fn current_rto(&self) -> SimDuration {
        let mut rto = self.base_rto();
        for _ in 0..self.backoff_shift {
            rto = (rto * 2).min(MAX_RTO);
        }
        rto
    }

    fn fill_window(&mut self, ctx: &mut dyn TransportContext) {
        while self.snd_nxt < self.submitted && self.snd_nxt < self.snd_una + WINDOW {
            let seq = self.snd_nxt;
            self.snd_nxt += 1;
            if self.timing.is_none() {
                self.timing = Some((seq, ctx.now()));
            }
            ctx.send_segment(Segment::Data {
                seq,
                bytes: self.packet_bytes,
            });
        }
        if self.snd_una < self.snd_nxt && !self.timer_armed {
            // Arm the retransmission timer for the oldest outstanding
            // packet if it is not already running.
            ctx.set_timer(self.current_rto());
            self.timer_armed = true;
        }
    }

    fn update_rtt(&mut self, sample: SimDuration) {
        match self.srtt {
            None => {
                self.srtt = Some(sample);
                self.rttvar = sample / 2;
            }
            Some(srtt) => {
                // Jacobson: RTTVAR = 3/4 RTTVAR + 1/4 |SRTT − sample|,
                // SRTT = 7/8 SRTT + 1/8 sample.
                let delta = if srtt > sample {
                    srtt - sample
                } else {
                    sample - srtt
                };
                self.rttvar = (self.rttvar * 3 + delta) / 4;
                self.srtt = Some((srtt * 7 + sample) / 8);
            }
        }
    }
}

impl Transport for TcpSender {
    fn on_app_send(&mut self, ctx: &mut dyn TransportContext, bytes: u32) {
        debug_assert_eq!(bytes, self.packet_bytes, "constant-size stream");
        self.submitted += 1;
        self.fill_window(ctx);
    }

    fn on_segment(&mut self, ctx: &mut dyn TransportContext, seg: Segment) {
        let Segment::Ack { ackno, .. } = seg else {
            return; // a data segment at the sender endpoint is a stray
        };
        if ackno <= self.snd_una {
            return; // duplicate or stale
        }
        // RTT sample (Karn: only if the timed segment was not retransmitted,
        // which holds because timing is cleared on timeout).
        if let Some((seq, sent_at)) = self.timing {
            if ackno > seq {
                let sample = ctx.now().since(sent_at);
                self.update_rtt(sample);
                self.timing = None;
            }
        }
        self.snd_una = ackno.min(self.snd_nxt);
        self.backoff_shift = 0;
        if self.snd_una == self.snd_nxt {
            ctx.clear_timer();
            self.timer_armed = false;
        } else {
            // Restart the timer for the new oldest outstanding packet.
            ctx.set_timer(self.current_rto());
            self.timer_armed = true;
        }
        self.fill_window(ctx);
    }

    fn on_timer(&mut self, ctx: &mut dyn TransportContext) {
        self.timer_armed = false;
        if self.snd_una == self.snd_nxt {
            return; // nothing outstanding; stale timer
        }
        // Coarse timeout: back off and go-back-N.
        self.backoff_shift = (self.backoff_shift + 1).min(16);
        self.timing = None; // Karn's rule
        let resend_from = self.snd_una;
        self.retransmits += self.snd_nxt - resend_from;
        self.snd_nxt = resend_from;
        self.fill_window(ctx);
    }

    fn on_segment_dropped(&mut self, ctx: &mut dyn TransportContext, seg: Segment) {
        // The link layer declared one of our data segments undeliverable.
        // Waiting out the coarse RTO would only add dead air, so treat it as
        // an immediate timeout for the outstanding window — except that the
        // drop is a loss signal, not a new RTT measurement, so the RTO
        // backoff state is left alone (the armed timer keeps governing
        // end-to-end pacing).
        let Segment::Data { seq, .. } = seg else {
            return; // dropped ACKs are the receiver's concern; nothing here
        };
        if seq < self.snd_una || seq >= self.snd_nxt {
            return; // already acknowledged, or not ours (stale signal)
        }
        self.timing = None; // Karn: everything outstanding will be resent
        self.retransmits += self.snd_nxt - self.snd_una;
        self.snd_nxt = self.snd_una;
        self.fill_window(ctx);
    }
}

/// TCP receiving endpoint.
#[derive(Debug, Default)]
pub struct TcpReceiver {
    rcv_nxt: u64,
    /// Out-of-order segments held for reassembly (packet sizes).
    ooo: Vec<(u64, u32)>,
}

impl TcpReceiver {
    /// Create a receiver.
    pub fn new() -> Self {
        Self::default()
    }

    /// Next expected sequence number.
    pub fn rcv_nxt(&self) -> u64 {
        self.rcv_nxt
    }
}

impl Transport for TcpReceiver {
    fn on_app_send(&mut self, _ctx: &mut dyn TransportContext, _bytes: u32) {
        panic!("TCP receiver endpoint cannot send application data");
    }

    fn on_segment(&mut self, ctx: &mut dyn TransportContext, seg: Segment) {
        let Segment::Data { seq, bytes } = seg else {
            return;
        };
        if seq == self.rcv_nxt {
            ctx.deliver_app(seq, bytes);
            self.rcv_nxt += 1;
            // Drain any contiguous out-of-order backlog.
            while let Some(pos) = self.ooo.iter().position(|&(s, _)| s == self.rcv_nxt) {
                let (s, b) = self.ooo.swap_remove(pos);
                ctx.deliver_app(s, b);
                self.rcv_nxt += 1;
            }
        } else if seq > self.rcv_nxt && !self.ooo.iter().any(|&(s, _)| s == seq) {
            self.ooo.push((seq, bytes));
        }
        // Acknowledge every arrival (cumulative).
        ctx.send_segment(Segment::Ack {
            ackno: self.rcv_nxt,
            bytes: ACK_BYTES,
        });
    }

    fn on_timer(&mut self, _ctx: &mut dyn TransportContext) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::ScriptedContext;

    fn data_seqs(ctx: &ScriptedContext) -> Vec<u64> {
        ctx.sent()
            .into_iter()
            .filter_map(|s| match s {
                Segment::Data { seq, .. } => Some(seq),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn sender_respects_window() {
        let mut tx = TcpSender::new(512);
        let mut ctx = ScriptedContext::new();
        for _ in 0..20 {
            tx.on_app_send(&mut ctx, 512);
        }
        assert_eq!(data_seqs(&ctx), (0..8).collect::<Vec<_>>());
        assert_eq!(tx.outstanding(), 8);
    }

    #[test]
    fn acks_slide_the_window() {
        let mut tx = TcpSender::new(512);
        let mut ctx = ScriptedContext::new();
        for _ in 0..20 {
            tx.on_app_send(&mut ctx, 512);
        }
        ctx.advance(SimDuration::from_millis(20));
        tx.on_segment(&mut ctx, Segment::Ack { ackno: 3, bytes: 40 });
        assert_eq!(data_seqs(&ctx), (0..11).collect::<Vec<_>>());
        assert_eq!(tx.snd_una(), 3);
    }

    #[test]
    fn rto_floor_is_half_a_second() {
        // Even with a 20 ms measured RTT the timeout must not drop below
        // the paper's 0.5 s minimum.
        let mut tx = TcpSender::new(512);
        let mut ctx = ScriptedContext::new();
        tx.on_app_send(&mut ctx, 512);
        ctx.advance(SimDuration::from_millis(20));
        tx.on_segment(&mut ctx, Segment::Ack { ackno: 1, bytes: 40 });
        tx.on_app_send(&mut ctx, 512);
        let deadline = ctx.timer.expect("rto armed");
        assert!(deadline.since(ctx.now()) >= SimDuration::from_millis(500));
    }

    #[test]
    fn timeout_goes_back_n_and_doubles() {
        let mut tx = TcpSender::new(512);
        let mut ctx = ScriptedContext::new();
        for _ in 0..8 {
            tx.on_app_send(&mut ctx, 512);
        }
        let first_deadline = ctx.timer.unwrap();
        assert!(ctx.fire_timer());
        tx.on_timer(&mut ctx);
        // All 8 packets resent.
        assert_eq!(data_seqs(&ctx).len(), 16);
        assert_eq!(tx.retransmits(), 8);
        let second_deadline = ctx.timer.unwrap();
        let first_rto = first_deadline.since(SimTime::ZERO);
        let second_rto = second_deadline.since(ctx.now());
        assert_eq!(second_rto, first_rto * 2, "exponential backoff");
    }

    #[test]
    fn new_ack_resets_backoff() {
        let mut tx = TcpSender::new(512);
        let mut ctx = ScriptedContext::new();
        for _ in 0..8 {
            tx.on_app_send(&mut ctx, 512);
        }
        assert!(ctx.fire_timer());
        tx.on_timer(&mut ctx);
        assert!(ctx.fire_timer());
        tx.on_timer(&mut ctx); // two timeouts: rto = 4 * base
        ctx.advance(SimDuration::from_millis(100));
        tx.on_segment(&mut ctx, Segment::Ack { ackno: 8, bytes: 40 });
        assert_eq!(tx.outstanding(), 0);
        assert!(ctx.timer.is_none(), "nothing outstanding: timer cleared");
        tx.on_app_send(&mut ctx, 512);
        let rto = ctx.timer.unwrap().since(ctx.now());
        assert!(rto <= SimDuration::from_secs(1), "backoff reset, rto={rto}");
    }

    #[test]
    fn link_drop_signal_triggers_immediate_go_back_n() {
        let mut tx = TcpSender::new(512);
        let mut ctx = ScriptedContext::new();
        for _ in 0..8 {
            tx.on_app_send(&mut ctx, 512);
        }
        ctx.advance(SimDuration::from_millis(50));
        tx.on_segment(&mut ctx, Segment::Ack { ackno: 2, bytes: 40 });
        let before = data_seqs(&ctx).len();
        // The MAC gave up on segment 3: resend everything from snd_una,
        // well before the 500 ms RTO.
        tx.on_segment_dropped(&mut ctx, Segment::Data { seq: 3, bytes: 512 });
        assert_eq!(tx.retransmits(), 6, "snd_una=2 .. snd_nxt=8 resent");
        assert_eq!(
            data_seqs(&ctx)[before..],
            [2, 3, 4, 5, 6, 7],
            "go-back-N from the first unacknowledged segment"
        );
        // Stale signals are ignored.
        tx.on_segment_dropped(&mut ctx, Segment::Data { seq: 0, bytes: 512 });
        tx.on_segment_dropped(&mut ctx, Segment::Data { seq: 99, bytes: 512 });
        assert_eq!(tx.retransmits(), 6);
        // A dropped ACK segment is not the sender's concern.
        tx.on_segment_dropped(&mut ctx, Segment::Ack { ackno: 5, bytes: 40 });
        assert_eq!(tx.retransmits(), 6);
    }

    #[test]
    fn receiver_delivers_in_order_and_acks_cumulatively() {
        let mut rx = TcpReceiver::new();
        let mut ctx = ScriptedContext::new();
        rx.on_segment(&mut ctx, Segment::Data { seq: 0, bytes: 512 });
        rx.on_segment(&mut ctx, Segment::Data { seq: 2, bytes: 512 });
        rx.on_segment(&mut ctx, Segment::Data { seq: 1, bytes: 512 });
        assert_eq!(ctx.delivered(), vec![0, 1, 2]);
        let acks: Vec<u64> = ctx
            .sent()
            .into_iter()
            .filter_map(|s| match s {
                Segment::Ack { ackno, .. } => Some(ackno),
                _ => None,
            })
            .collect();
        assert_eq!(acks, vec![1, 1, 3], "cumulative acks");
    }

    #[test]
    fn receiver_ignores_duplicate_data_but_still_acks() {
        let mut rx = TcpReceiver::new();
        let mut ctx = ScriptedContext::new();
        rx.on_segment(&mut ctx, Segment::Data { seq: 0, bytes: 512 });
        rx.on_segment(&mut ctx, Segment::Data { seq: 0, bytes: 512 });
        assert_eq!(ctx.delivered(), vec![0], "no duplicate delivery");
        assert_eq!(ctx.sent().len(), 2, "every arrival is acknowledged");
    }

    #[test]
    fn lossy_link_end_to_end_recovery() {
        // Simulate a 10%-loss link by dropping every 10th data segment and
        // checking the pipe still delivers everything in order.
        let mut tx = TcpSender::new(512);
        let mut rx = TcpReceiver::new();
        let mut tx_ctx = ScriptedContext::new();
        let mut rx_ctx = ScriptedContext::new();
        let total = 50u64;
        for _ in 0..total {
            tx.on_app_send(&mut tx_ctx, 512);
        }
        let mut tx_cursor = 0;
        let mut rx_cursor = 0;
        let mut dropped = 0;
        for _round in 0..200 {
            // Move data sender -> receiver, dropping every 10th.
            let sent = tx_ctx.sent();
            while tx_cursor < sent.len() {
                let seg = sent[tx_cursor];
                tx_cursor += 1;
                if tx_cursor % 10 == 0 {
                    dropped += 1;
                    continue;
                }
                rx_ctx.advance(SimDuration::from_millis(1));
                rx.on_segment(&mut rx_ctx, seg);
            }
            // Move acks receiver -> sender.
            let acks = rx_ctx.sent();
            while rx_cursor < acks.len() {
                let seg = acks[rx_cursor];
                rx_cursor += 1;
                tx_ctx.advance(SimDuration::from_millis(1));
                tx.on_segment(&mut tx_ctx, seg);
            }
            if rx.rcv_nxt() == total {
                break;
            }
            // Nothing moved: force a timeout.
            if tx_ctx.fire_timer() {
                tx.on_timer(&mut tx_ctx);
            }
            tx_cursor = tx_cursor.min(tx_ctx.sent().len());
        }
        assert!(dropped > 0, "the loss pattern must have engaged");
        assert_eq!(rx.rcv_nxt(), total, "all packets eventually delivered");
        assert_eq!(rx_ctx.delivered(), (0..total).collect::<Vec<_>>());
    }
}

//! UDP: fire-and-forget datagrams.
//!
//! The sender hands every application packet straight to the MAC; the
//! receiver delivers whatever arrives. Loss recovery, if any, is the MAC's
//! business (which is exactly the point of the paper's UDP experiments:
//! throughput measures what the media access layer manages to carry).

use crate::{Segment, Transport, TransportContext};

/// UDP sending endpoint.
#[derive(Debug, Default)]
pub struct UdpSender {
    next_seq: u64,
}

impl UdpSender {
    /// Create a sender.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Transport for UdpSender {
    fn on_app_send(&mut self, ctx: &mut dyn TransportContext, bytes: u32) {
        let seq = self.next_seq;
        self.next_seq += 1;
        ctx.send_segment(Segment::Data { seq, bytes });
    }

    fn on_segment(&mut self, _ctx: &mut dyn TransportContext, _seg: Segment) {
        // A UDP sender expects nothing back.
    }

    fn on_timer(&mut self, _ctx: &mut dyn TransportContext) {}
}

/// UDP receiving endpoint.
#[derive(Debug, Default)]
pub struct UdpReceiver;

impl UdpReceiver {
    /// Create a receiver.
    pub fn new() -> Self {
        Self
    }
}

impl Transport for UdpReceiver {
    fn on_app_send(&mut self, _ctx: &mut dyn TransportContext, _bytes: u32) {
        panic!("UDP receiver endpoint cannot send");
    }

    fn on_segment(&mut self, ctx: &mut dyn TransportContext, seg: Segment) {
        if let Segment::Data { seq, bytes } = seg {
            ctx.deliver_app(seq, bytes);
        }
    }

    fn on_timer(&mut self, _ctx: &mut dyn TransportContext) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::ScriptedContext;

    #[test]
    fn sender_forwards_every_datagram() {
        let mut tx = UdpSender::new();
        let mut ctx = ScriptedContext::new();
        for _ in 0..5 {
            tx.on_app_send(&mut ctx, 512);
        }
        let sent = ctx.sent();
        assert_eq!(sent.len(), 5);
        assert_eq!(sent[0], Segment::Data { seq: 0, bytes: 512 });
        assert_eq!(sent[4], Segment::Data { seq: 4, bytes: 512 });
    }

    #[test]
    fn receiver_delivers_in_arrival_order_including_gaps() {
        let mut rx = UdpReceiver::new();
        let mut ctx = ScriptedContext::new();
        rx.on_segment(&mut ctx, Segment::Data { seq: 0, bytes: 512 });
        rx.on_segment(&mut ctx, Segment::Data { seq: 3, bytes: 512 });
        assert_eq!(ctx.delivered(), vec![0, 3], "UDP does not reorder or wait");
    }

    #[test]
    fn receiver_ignores_stray_acks() {
        let mut rx = UdpReceiver::new();
        let mut ctx = ScriptedContext::new();
        rx.on_segment(&mut ctx, Segment::Ack { ackno: 1, bytes: 40 });
        assert!(ctx.delivered().is_empty());
    }
}

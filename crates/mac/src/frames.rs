//! MAC frame formats and channel timing.
//!
//! The paper's frame inventory: RTS, CTS, DS, ACK and RRTS are "short,
//! fixed-size signaling packets" of 30 bytes; DATA packets carry 512 bytes in
//! the experiments. RTS and CTS carry the length of the proposed data
//! transmission so overhearing stations can size their deferrals, and every
//! frame header carries the backoff fields used by the copying schemes
//! (§3.1, Appendix B.2).

use macaw_sim::SimDuration;

/// MAC-level station address. The simulation core maps these 1:1 onto PHY
/// station identities.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Addr {
    /// A single station.
    Unicast(usize),
    /// A multicast group (§3.3.4); every subscribed station receives.
    Multicast(u32),
}

impl Addr {
    /// `true` iff this is a multicast group address.
    pub fn is_multicast(self) -> bool {
        matches!(self, Addr::Multicast(_))
    }
}

/// Identifier of a traffic stream (a particular sender → receiver flow).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct StreamId(pub u32);

/// The frame types of the RTS-CTS-DS-DATA-ACK exchange plus RRTS.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum FrameKind {
    /// Request-to-send: sender → receiver, opens an exchange.
    Rts,
    /// Clear-to-send: receiver → sender, grants the exchange.
    Cts,
    /// Data-sending: sender announcement that the RTS-CTS succeeded and a
    /// data transmission follows immediately (§3.3.2).
    Ds,
    /// The data packet itself.
    Data,
    /// Link-layer acknowledgement: receiver → sender after DATA (§3.3.1).
    Ack,
    /// Request-for-request-to-send: a receiver that had to defer contends on
    /// the blocked sender's behalf (§3.3.3).
    Rrts,
    /// Negative acknowledgement: sent by a receiver whose granted exchange
    /// produced no (clean) data — §4's alternative to the per-packet ACK.
    Nack,
}

/// Backoff fields carried in every frame header for the copying schemes.
///
/// In the simple copying scheme (§3.1) only `local` is meaningful (the
/// transmitter's current backoff counter). In the per-destination scheme
/// (Appendix B.2) `local` is the transmitter's backoff used with this peer,
/// `remote` is its estimate of the peer's backoff (`None` = the paper's
/// `I_DONT_KNOW`), and `esn` is the exchange sequence number.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct BackoffHeader {
    /// Transmitter's own backoff (its end of the exchange).
    pub local: u32,
    /// Transmitter's estimate of the addressee's backoff; `None` encodes
    /// the paper's `I_DONT_KNOW`.
    pub remote: Option<u32>,
    /// Exchange sequence number (per Appendix B.2).
    pub esn: u64,
}

/// An upper-layer packet carried by a DATA frame.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct MacSdu {
    /// The stream this packet belongs to.
    pub stream: StreamId,
    /// Transport-level sequence number (opaque to the MAC).
    pub transport_seq: u64,
    /// Wire size of the packet in bytes (the paper's data packets are
    /// 512 bytes; TCP acknowledgements are smaller).
    pub bytes: u32,
}

/// A MAC frame as it appears on the air.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Frame {
    pub kind: FrameKind,
    pub src: Addr,
    pub dst: Addr,
    /// Length in bytes of the (proposed or in-flight) data transmission this
    /// exchange is about; carried by RTS/CTS/DS/RRTS so overhearers can size
    /// deferrals.
    pub data_bytes: u32,
    /// Backoff fields for the copying schemes.
    pub backoff: BackoffHeader,
    /// The carried upper-layer packet; `Some` only for `FrameKind::Data`.
    pub payload: Option<MacSdu>,
}

impl Frame {
    /// Size of this frame on the wire, in bytes: [`CONTROL_BYTES`] for a
    /// control frame, the payload size for DATA (the paper's "data packets
    /// are 512 bytes" is the on-air size).
    pub fn wire_bytes(&self) -> u32 {
        match self.kind {
            FrameKind::Data => self.payload.map_or(self.data_bytes, |p| p.bytes),
            _ => CONTROL_BYTES,
        }
    }

    /// On-air duration of this frame.
    pub fn duration(&self) -> SimDuration {
        bytes_duration(self.wire_bytes())
    }
}

/// Nanoseconds per byte on the air: the paper's single channel runs at
/// 256 kbps, so one byte takes exactly 31 250 ns.
pub const NS_PER_BYTE: u64 = 31_250;

/// Size of the fixed control packets (RTS/CTS/DS/ACK/RRTS/NACK) in bytes.
pub const CONTROL_BYTES: u32 = 30;

/// On-air duration of `bytes` bytes.
pub const fn bytes_duration(bytes: u32) -> SimDuration {
    SimDuration::from_nanos(NS_PER_BYTE * bytes as u64)
}

/// On-air duration of one control packet: the slot time of the backoff
/// algorithms (§3: "The transmission time of these packets defines the
/// 'slot' time for retransmissions").
pub const fn slot() -> SimDuration {
    bytes_duration(CONTROL_BYTES)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn control(kind: FrameKind) -> Frame {
        Frame {
            kind,
            src: Addr::Unicast(0),
            dst: Addr::Unicast(1),
            data_bytes: 512,
            backoff: BackoffHeader::default(),
            payload: None,
        }
    }

    #[test]
    fn slot_time_matches_paper() {
        // 30 bytes at 256 kbps = 937.5 us.
        assert_eq!(slot().as_nanos(), 937_500);
    }

    #[test]
    fn control_frames_are_thirty_bytes() {
        for kind in [
            FrameKind::Rts,
            FrameKind::Cts,
            FrameKind::Ds,
            FrameKind::Ack,
            FrameKind::Rrts,
            FrameKind::Nack,
        ] {
            assert_eq!(control(kind).wire_bytes(), 30);
        }
    }

    #[test]
    fn data_frame_wire_size_is_payload_size() {
        let mut f = control(FrameKind::Data);
        f.payload = Some(MacSdu {
            stream: StreamId(0),
            transport_seq: 7,
            bytes: 512,
        });
        assert_eq!(f.wire_bytes(), 512);
        // 512 bytes at 256 kbps = 16 ms.
        assert_eq!(f.duration().as_nanos(), 16_000_000);
    }

    #[test]
    fn single_stream_maca_cycle_time_is_consistent_with_table_9() {
        // RTS + CTS + DATA = 0.9375 + 0.9375 + 16 ms = 17.875 ms, i.e. an
        // upper bound of ~56 pps before contention delay; the paper's 53.04
        // pps leaves ~1 slot of average contention overhead. Sanity-check
        // the arithmetic that DESIGN.md's calibration note relies on.
        let cycle = slot() + slot() + bytes_duration(512);
        assert_eq!(cycle.as_nanos(), 17_875_000);
        let max_pps = 1e9 / cycle.as_nanos() as f64;
        assert!(max_pps > 53.04 && max_pps < 57.0);
    }

    #[test]
    fn multicast_addresses_are_flagged() {
        assert!(Addr::Multicast(3).is_multicast());
        assert!(!Addr::Unicast(3).is_multicast());
    }
}

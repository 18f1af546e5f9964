//! Protocol configuration.
//!
//! Every design decision the paper evaluates is an independent toggle, so
//! each table's two columns differ by exactly one field and the ablation
//! benches can sweep the whole design space.

use macaw_sim::SimDuration;

use crate::backoff::{BackoffAlgo, BackoffSharing};
use crate::frames::{bytes_duration, slot};

/// Extra guard added to every response timeout and deferral, covering
/// processing/turnaround slop. Kept well under a slot so it never shifts
/// contention alignment.
pub const TIMEOUT_MARGIN: SimDuration = SimDuration::from_micros(50);

/// `d` plus [`TIMEOUT_MARGIN`], in a `const` context.
const fn plus_margin(d: SimDuration) -> SimDuration {
    SimDuration::from_nanos(d.as_nanos() + TIMEOUT_MARGIN.as_nanos())
}

/// Two control slots, in a `const` context.
const TWO_SLOTS: SimDuration = SimDuration::from_nanos(2 * slot().as_nanos());

/// How long a sender in WFCTS waits for the CTS after its RTS ends.
pub const WFCTS_TIMEOUT: SimDuration = plus_margin(slot());

/// How long a sender in WFACK waits after its DATA ends.
pub const WFACK_TIMEOUT: SimDuration = plus_margin(slot());

/// How long the sender of an RRTS waits for the triggered RTS.
pub const WFRTS_TIMEOUT: SimDuration = plus_margin(TWO_SLOTS);

/// Deferral after overhearing an RTS addressed elsewhere: long enough for
/// the addressee's CTS to reach the requester (Appendix A Defer 1).
pub const DEFER_AFTER_RTS: SimDuration = plus_margin(slot());

/// Deferral after overhearing an RRTS addressed elsewhere: "Stations
/// overhearing an RRTS defer for two slot times, long enough to hear if a
/// successful RTS-CTS exchange occurs" (§3.3.3).
pub const DEFER_AFTER_RRTS: SimDuration = plus_margin(TWO_SLOTS);

/// How long a receiver in WFDATA waits after the DS ends.
pub const fn wfdata_timeout(data_bytes: u32) -> SimDuration {
    plus_margin(bytes_duration(data_bytes))
}

/// Deferral after overhearing a multicast RTS: the whole announced data
/// transmission (§3.3.4).
pub const fn defer_after_multicast_rts(data_bytes: u32) -> SimDuration {
    plus_margin(bytes_duration(data_bytes))
}

/// Transmit-queue organisation (§3.2).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum QueueMode {
    /// One FIFO per station; bandwidth is allocated per *station*.
    SingleFifo,
    /// One queue per stream; each queue runs its own contention, and the
    /// stream drawing the earliest retry slot transmits. Allocates bandwidth
    /// per *stream*.
    PerStream,
}

/// Complete MAC protocol configuration. The channel timing
/// ([`crate::frames`]), Appendix B.2's ALPHA and [`TIMEOUT_MARGIN`] are
/// constants every station shares.
#[derive(Clone, Copy, Debug)]
pub struct MacConfig {
    /// Append a link-layer ACK to the exchange (§3.3.1).
    pub use_ack: bool,
    /// Send a DS packet between CTS and DATA (§3.3.2).
    pub use_ds: bool,
    /// Contend on behalf of blocked senders with RRTS (§3.3.3).
    pub use_rrts: bool,
    /// §4 extension: NACK-based recovery. Only meaningful with `use_ack =
    /// false`: a receiver whose granted exchange produced no clean DATA
    /// sends a NACK, and the sender re-queues the packet immediately
    /// instead of leaving recovery to the transport.
    pub use_nack: bool,
    /// §3.3.2's alternative to the DS packet: sense the carrier before
    /// firing a contention slot and defer one slot if busy (the CSMA/CA
    /// mechanism the paper credits to its reference \[2\]).
    pub use_carrier_sense: bool,
    /// Backoff adjustment algorithm (§3.1).
    pub backoff_algo: BackoffAlgo,
    /// Backoff sharing scheme (§3.1, §3.4).
    pub backoff_sharing: BackoffSharing,
    /// Queue organisation (§3.2).
    pub queues: QueueMode,
    /// Backoff counter bounds (paper: 2 and 64).
    pub bo_min: u32,
    pub bo_max: u32,
    /// Retransmission attempts before a packet is discarded ("in MACAW we
    /// allow a certain number of retries on each packet before discarding").
    pub max_retries: u32,
    /// Transmit-queue capacity in packets (tail-drop beyond this).
    pub queue_capacity: usize,
}

impl MacConfig {
    /// MACA as specified in Appendix A plus the §3 defaults: RTS-CTS-DATA,
    /// binary exponential backoff, no sharing, one FIFO.
    pub fn maca() -> Self {
        MacConfig {
            use_ack: false,
            use_ds: false,
            use_rrts: false,
            use_nack: false,
            use_carrier_sense: false,
            backoff_algo: BackoffAlgo::Beb,
            backoff_sharing: BackoffSharing::None,
            queues: QueueMode::SingleFifo,
            bo_min: 2,
            bo_max: 64,
            max_retries: 8,
            // Effectively unbounded for the paper's workloads (the longest
            // run offers 128k packets per stream): throughput tables measure
            // the MAC's service rate, and a small tail-drop buffer phase-
            // locks against CBR arrivals, skewing per-stream shares.
            queue_capacity: 1 << 20,
        }
    }

    /// MACAW as specified in Appendix B: RTS-CTS-DS-DATA-ACK, RRTS, MILD
    /// backoff with per-destination sharing, per-stream queues.
    pub fn macaw() -> Self {
        MacConfig {
            use_ack: true,
            use_ds: true,
            use_rrts: true,
            backoff_algo: BackoffAlgo::Mild,
            backoff_sharing: BackoffSharing::PerDestination,
            queues: QueueMode::PerStream,
            ..MacConfig::maca()
        }
    }

    /// How long a receiver waits for the DS (or DATA, when DS is disabled)
    /// after its CTS ends.
    pub fn wfds_timeout(&self, data_bytes: u32) -> SimDuration {
        // Without DS the wait covers the whole data packet.
        if self.use_ds {
            slot() + TIMEOUT_MARGIN
        } else {
            bytes_duration(data_bytes) + TIMEOUT_MARGIN
        }
    }

    /// Deferral after overhearing a CTS addressed elsewhere: long enough for
    /// the granted data transmission (and its DS/ACK when enabled) to finish
    /// (Appendix A Defer 2 / Appendix B Defer 3).
    pub fn defer_after_cts(&self, data_bytes: u32) -> SimDuration {
        let mut d = bytes_duration(data_bytes) + TIMEOUT_MARGIN;
        if self.use_ds {
            d += slot();
        }
        if self.use_ack {
            d += slot();
        }
        d
    }

    /// Deferral after overhearing a DS: the data packet plus the ACK slot
    /// ("these overhearing stations defer all transmissions until after the
    /// ACK packet slot has passed", §3.3.2).
    pub fn defer_after_ds(&self, data_bytes: u32) -> SimDuration {
        let mut d = bytes_duration(data_bytes) + TIMEOUT_MARGIN;
        if self.use_ack {
            d += slot();
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maca_preset_matches_appendix_a() {
        let c = MacConfig::maca();
        assert!(!c.use_ack && !c.use_ds && !c.use_rrts);
        assert_eq!(c.backoff_algo, BackoffAlgo::Beb);
        assert_eq!(c.backoff_sharing, BackoffSharing::None);
        assert_eq!(c.queues, QueueMode::SingleFifo);
        assert_eq!((c.bo_min, c.bo_max), (2, 64));
    }

    #[test]
    fn macaw_preset_matches_appendix_b() {
        let c = MacConfig::macaw();
        assert!(c.use_ack && c.use_ds && c.use_rrts);
        assert_eq!(c.backoff_algo, BackoffAlgo::Mild);
        assert_eq!(c.backoff_sharing, BackoffSharing::PerDestination);
        assert_eq!(c.queues, QueueMode::PerStream);
    }

    #[test]
    fn defer_after_cts_covers_full_macaw_exchange() {
        let c = MacConfig::macaw();
        // DS + DATA + ACK + margin.
        let expect = slot() * 2 + bytes_duration(512) + TIMEOUT_MARGIN;
        assert_eq!(c.defer_after_cts(512), expect);
    }

    #[test]
    fn defer_after_cts_covers_data_only_for_maca()
    {
        let c = MacConfig::maca();
        assert_eq!(
            c.defer_after_cts(512),
            bytes_duration(512) + TIMEOUT_MARGIN
        );
    }

    #[test]
    fn config_free_timeouts_and_deferrals_keep_their_values() {
        // One control slot is 30 bytes at 31.25 µs per byte; the margin is
        // 50 µs; a 512-byte packet is 16 ms on the air.
        assert_eq!(slot().as_nanos(), 937_500);
        assert_eq!(WFCTS_TIMEOUT.as_nanos(), 987_500);
        assert_eq!(WFACK_TIMEOUT.as_nanos(), 987_500);
        assert_eq!(DEFER_AFTER_RTS.as_nanos(), 987_500);
        assert_eq!(WFRTS_TIMEOUT.as_nanos(), 1_925_000);
        assert_eq!(DEFER_AFTER_RRTS.as_nanos(), 1_925_000);
        assert_eq!(wfdata_timeout(512).as_nanos(), 16_050_000);
        assert_eq!(defer_after_multicast_rts(512).as_nanos(), 16_050_000);
        assert_eq!(wfdata_timeout(0), TIMEOUT_MARGIN);
    }

    #[test]
    fn margin_stays_under_a_slot() {
        // Contention alignment arguments rely on the margin being small.
        assert!(TIMEOUT_MARGIN < slot() / 4);
    }

    #[test]
    fn wfds_timeout_waits_for_data_when_ds_disabled() {
        let mut c = MacConfig::macaw();
        c.use_ds = false;
        assert_eq!(c.wfds_timeout(512), bytes_duration(512) + TIMEOUT_MARGIN);
        c.use_ds = true;
        assert_eq!(c.wfds_timeout(512), slot() + TIMEOUT_MARGIN);
    }
}

//! MAC protocols for the MACAW reproduction.
//!
//! Protocol implementations, all driven through the same [`MacProtocol`] /
//! [`MacContext`] interface so the simulation core and the benches can swap
//! them freely:
//!
//! * [`wmac::WMac`] — the paper's protocol line. One state machine whose
//!   [`config::MacConfig`] toggles every design decision the paper evaluates:
//!   link-layer ACK (§3.3.1), the DS packet (§3.3.2), RRTS (§3.3.3), BEB vs
//!   MILD backoff (§3.1), backoff copying and per-destination backoff
//!   (§3.1/§3.4, Appendix B.2), and single-FIFO vs per-stream queues (§3.2).
//!   `MacConfig::maca()` is Appendix A's MACA; `MacConfig::macaw()` is
//!   Appendix B's MACAW; everything in between is an ablation point.
//! * [`csma::Csma`] — the carrier-sense baseline the paper argues against
//!   (§2.2), used for the hidden/exposed-terminal demonstrations.
//!
//! The MAC layer knows nothing about radio propagation: the core feeds it
//! cleanly received frames and end-of-transmission notifications and it
//! reacts by transmitting frames and setting timers. All state machines are
//! plain structs, so every transition is unit-testable without a network.

pub mod backoff;
pub mod config;
pub mod context;
pub mod csma;
pub mod harness;
pub mod frames;
pub mod oracle;
pub mod wmac;

pub use backoff::{Backoff, BackoffAlgo, BackoffSharing, BackoffSnapshot};
pub use config::{MacConfig, QueueMode};
pub use context::{
    MacContext, MacFeedback, MacInvariantViolation, MacProtocol, MacResult, MacSnapshot,
    Relabeling,
};
pub use csma::{Csma, CsmaConfig, CsmaSnapshot};
pub use frames::{Addr, BackoffHeader, Frame, FrameKind, MacSdu, StreamId};
pub use oracle::{Oracle, StepObs, Stimulus};
pub use wmac::{WMac, WMacSnapshot};

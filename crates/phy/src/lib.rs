//! Near-field radio medium model for the MACAW reproduction.
//!
//! Reproduces the paper's packet-level PHY (§2.1 and §3):
//!
//! * space is quantized into 1 ft³ cubes; stations sit at cube centers
//!   ([`geometry`]);
//! * signal strength decays as `r^-γ` in the near field, much faster than the
//!   far-field `r^-2` ([`propagation`]);
//! * a packet is received cleanly iff its signal at the receiver is above the
//!   reception threshold (defined as the signal strength at 10 ft) **and** at
//!   least 10 dB above the sum of all other overlapping signals for the
//!   *entire* packet transmission time ([`medium`]);
//! * stations are half-duplex: a station transmitting at any point during a
//!   packet's flight cannot receive that packet;
//! * intermittent noise is a per-packet loss probability at the receiving
//!   station, exactly the paper's model in §3.3.1.
//!
//! The medium is a passive state machine: the simulation core calls
//! [`Medium::start_tx`] when a station keys up and [`Medium::end_tx`] when the
//! scheduled end-of-transmission event fires, and receives the per-station
//! delivery verdicts back. It owns no event queue of its own, which keeps it
//! trivially unit-testable.
//!
//! [`Medium`] is a trait with two interchangeable, bit-identical
//! implementations: [`SparseMedium`] (cube-grid spatial index, O(N·k), the
//! default) and [`ReferenceMedium`] (naive, uncached, O(N) per query), the
//! oracle the sparse index is checked against and the baseline the `scale`
//! bench measures it over.

pub mod chaos;
pub mod geometry;
pub mod medium;
pub mod propagation;
pub mod reference;
pub mod sparse;

pub use chaos::{corrupt_deliveries, LinkWindow};
pub use geometry::{cube_center, Point};
pub use medium::{Delivery, Medium, MediumStats, StationId, TxId};
pub use propagation::{
    CutoffMode, Propagation, PropagationConfig, MAX_GAMMA, THRESHOLD_DISTANCE_FT,
};
pub use reference::ReferenceMedium;
pub use sparse::SparseMedium;

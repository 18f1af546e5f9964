//! Network assembly, paper topologies and statistics for the MACAW
//! reproduction — the crate a downstream user actually drives.
//!
//! * [`network`] — the [`network::Network`]: owns the radio medium, the
//!   per-station MAC state machines, the per-stream transports and traffic
//!   generators, and the deterministic event loop that connects them.
//! * [`scenario`] — the [`scenario::Scenario`] builder: place stations,
//!   choose protocols, declare streams, schedule mobility / power / noise
//!   actions, then `run()` to get a [`stats::RunReport`].
//! * [`figures`] — constructors for every topology in the paper
//!   (Figures 1–11), each parameterized by the protocol under test so a
//!   table's two columns differ by exactly one toggle.
//! * [`stats`] — per-stream throughput, Jain's fairness index, and the run
//!   report the benches print.
//! * [`faults`] — seeded random fault injection ([`faults::add_random_faults`]):
//!   noise bursts, corruption windows, station crashes, link asymmetry and
//!   position jitter, drawn straight into a scenario's fault builders.
//! * [`mobility`] — campus workloads: a [`topology`] floor whose pads roam
//!   under seeded random-waypoint motion, emitted as batched move actions
//!   through the same builders as random faults.
//! * [`partition`] — the conservative coupling partition
//!   ([`partition::Partition`]): islands of stations that can ever
//!   interact, which label events for the report's queue high-water mark.
//! * [`executor`] — the [`Executor`], the one thread pool: a batch of
//!   independent jobs on a shared cursor, results in index order. The
//!   bench binaries fan their simulations out on it.
//! * [`error`] — [`error::SimError`], the typed failure every fallible entry
//!   point returns instead of panicking.
//!
//! # Quickstart
//!
//! ```
//! use macaw_core::prelude::*;
//!
//! // One cell: two pads saturating the channel toward a base station.
//! let mut sc = Scenario::new(42);
//! let base = sc.add_station("B", Point::new(0.0, 0.0, 6.0), MacKind::Macaw);
//! let p1 = sc.add_station("P1", Point::new(-3.0, 0.0, 0.0), MacKind::Macaw);
//! let p2 = sc.add_station("P2", Point::new(3.0, 0.0, 0.0), MacKind::Macaw);
//! sc.add_udp_stream("P1-B", p1, base, 64, 512);
//! sc.add_udp_stream("P2-B", p2, base, 64, 512);
//! let report = sc
//!     .run(SimDuration::from_secs(30), SimDuration::from_secs(5))
//!     .unwrap();
//! assert!(report.total_throughput() > 30.0);
//! let fairness = report.jain_fairness();
//! assert!(fairness > 0.95, "MACAW splits the channel fairly: {fairness}");
//! ```

pub mod error;
pub mod executor;
pub mod faults;
pub mod figures;
pub mod mobility;
pub mod network;
pub mod partition;
pub mod scenario;
pub mod stats;
pub mod topology;

pub use error::SimError;
pub use executor::Executor;
pub use faults::{add_random_faults, FaultPlanConfig};
pub use mobility::{campus_topology, CampusConfig, WaypointConfig};
pub use network::Network;
pub use partition::Partition;
pub use scenario::{Dest, MacKind, Scenario, SourceKind, StreamSpec, TransportKind};
pub use stats::{RunReport, StreamReport};
pub use topology::{scale_topology, ScaleConfig};

/// The commonly used names in one import.
pub mod prelude {
    pub use crate::error::SimError;
    pub use crate::faults::{add_random_faults, FaultPlanConfig};
    pub use crate::figures;
    pub use crate::network::Network;
    pub use crate::mobility::{campus_topology, CampusConfig, WaypointConfig};
    pub use crate::partition::Partition;
    pub use crate::scenario::{Dest, MacKind, Scenario, SourceKind, StreamSpec, TransportKind};
    pub use crate::stats::{RunReport, StreamReport};
    pub use crate::topology::{scale_topology, ScaleConfig};
    pub use macaw_mac::{BackoffAlgo, BackoffSharing, MacConfig, QueueMode};
    pub use macaw_phy::{CutoffMode, MediumStats, Point, PropagationConfig};
    pub use macaw_sim::{SimDuration, SimTime};
}

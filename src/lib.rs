//! # macaw — a reproduction of *MACAW: A Media Access Protocol for
//! Wireless LAN's* (Bharghavan, Demers, Shenker, Zhang; SIGCOMM 1994)
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`sim`] — deterministic discrete-event engine (time, events, RNG);
//! * [`phy`] — the near-field radio medium (cube-grid propagation, capture,
//!   noise, mobility);
//! * [`mac`] — the protocols: MACAW, MACA and CSMA, plus every backoff
//!   algorithm and sharing scheme the paper discusses;
//! * [`transport`] — UDP and the paper-era TCP with its 0.5 s minimum RTO;
//! * [`traffic`] — CBR and Poisson workload generators;
//! * [`core`] — scenario builder, the paper's Figure 1–11 topologies,
//!   the simulation runner and statistics.
//!
//! ## Quickstart
//!
//! ```
//! use macaw::prelude::*;
//!
//! // Two pads saturating a single cell under MACAW: fair and fast.
//! let mut sc = Scenario::new(42);
//! let base = sc.add_station("B", Point::new(0.0, 0.0, 6.0), MacKind::Macaw);
//! let p1 = sc.add_station("P1", Point::new(-3.0, 0.0, 0.0), MacKind::Macaw);
//! let p2 = sc.add_station("P2", Point::new(3.0, 0.0, 0.0), MacKind::Macaw);
//! sc.add_udp_stream("P1-B", p1, base, 64, 512);
//! sc.add_udp_stream("P2-B", p2, base, 64, 512);
//! let report = sc.run(SimDuration::from_secs(30), SimDuration::from_secs(5)).unwrap();
//! assert!(report.total_throughput() > 30.0);
//! assert!(report.jain_fairness() > 0.95);
//! ```
//!
//! See `examples/` for runnable demonstrations and
//! `cargo run --release -p macaw-bench --bin tables` for the full
//! paper-table reproduction.

pub use macaw_core as core;
pub use macaw_mac as mac;
pub use macaw_phy as phy;
pub use macaw_sim as sim;
pub use macaw_traffic as traffic;
pub use macaw_transport as transport;

/// One-stop imports for building and running scenarios.
pub mod prelude {
    pub use macaw_core::figures;
    pub use macaw_core::prelude::*;
}

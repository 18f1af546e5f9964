//! End-to-end and per-layer benchmark of the MACAW simulator and model
//! checker.
//!
//! * [`workloads`] — the four named workloads, generated from a seed;
//! * [`run`] — one pass of a workload, untraced (the timed path) or traced;
//! * [`seams`] — every instrumented seam, in one place.
//!
//! `src/main.rs` is the command: it repeats passes for the requested time,
//! checks the outputs and prints the metrics. `README.md` beside this
//! crate lists the workloads, the metrics and which layer metric should
//! move which end-to-end metric.

pub mod run;
pub mod seams;
pub mod workloads;

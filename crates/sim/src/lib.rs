//! Deterministic discrete-event simulation engine.
//!
//! This crate is the substrate under every experiment in the MACAW
//! reproduction. It deliberately contains **no** radio or protocol knowledge:
//! just simulated time, a totally-ordered event queue, and a
//! seeded deterministic random number generator.
//!
//! # Design
//!
//! * **Synchronous and deterministic.** The paper's results are produced by a
//!   packet-level simulator; reproducing them requires bit-identical replays.
//!   Events are ordered by `(time, insertion sequence)`, so two runs with the
//!   same seed produce the same trajectory on any machine. No threads, no
//!   wall clock, no async runtime (the engine is CPU-bound, where the Rust
//!   async guides themselves advise against an async runtime).
//! * **Exact time.** Time is a `u64` count of nanoseconds. At the paper's
//!   256 kbps channel rate one byte takes exactly 31 250 ns, so every frame
//!   duration is an exact integer and no rounding can reorder events.
//!
//! # Example
//!
//! ```
//! use macaw_sim::{EventQueue, SimTime, SimDuration};
//!
//! let mut q: EventQueue<&'static str> = EventQueue::new();
//! q.schedule(SimTime::ZERO + SimDuration::from_micros(5), "second");
//! q.schedule(SimTime::ZERO + SimDuration::from_micros(1), "first");
//! let (t, e) = q.pop().unwrap();
//! assert_eq!(e, "first");
//! assert_eq!(t, SimTime::ZERO + SimDuration::from_micros(1));
//! ```

pub mod event;
pub mod grid;
pub mod hash;
pub mod rng;
pub mod symtime;
pub mod time;

pub use event::{
    EventQueue, Fel, FelChoice, HeapFel, HeapQueue, LadderFel, LadderQueue, NextFire, QueueStats,
};
pub use grid::BucketGrid;
pub use hash::{FastHashMap, FastHasher};
pub use rng::SimRng;
pub use symtime::TieBand;
pub use time::{SimDuration, SimTime};

//! Bounded exhaustive model checker for the MAC state machines.
//!
//! Where the simulation crates answer "how does MACAW perform?", this crate
//! answers "can MACAW wedge?". It explores *every* interleaving of radio
//! nondeterminism — near-simultaneous timer firings, frame reception
//! orders, and a budgeted fault adversary (loss, noise, carrier-sense
//! blindness) — over 2–12 station topologies, and proves four properties
//! per protocol and topology family:
//!
//! * **no deadlock** — a quiescent world (no timers armed, nothing on the
//!   air) has every offered packet resolved;
//! * **no livelock** — no reachable cycle of control-frame exchanges that
//!   never makes progress (sound because the canonical state includes
//!   monotone progress counters: any on-path revisit is a progress-free
//!   cycle);
//! * **no stuck waits** — after every transition, no station sits in a
//!   wait state (`WfCts`, `WfDs`, `Quiet`, …) with no armed timer, or
//!   believes it is transmitting with nothing on the air;
//! * **delivery / resolution** — on terminal states, every offered packet
//!   was delivered (symmetric topologies, protocols with an ACK) or at
//!   least cleanly resolved as sent-or-dropped (asymmetric links, CSMA's
//!   silent collisions).
//!
//! Exploration is iterative-deepening DFS over [`World`] states with a
//! canonical-state memo ([`World::canon`], each state encoded once per
//! visit into a flat key that carries its hash): each deepening pass
//! re-explores with a fresh depth-aware memo, so the first violation found
//! is at minimal depth and its [`Violation::trace`] is a shortest
//! counterexample — the exact [`WorldEvent`] sequence, with per-station
//! actions and state names at every step.
//!
//! Everything is deterministic: same seed, same topology, same fault class
//! → the same number of states explored, bit for bit.
//!
//! Three sound reductions ([`CheckConfig::reduce`]) scale the same search
//! to 5-station topologies and fault budget 2: sleep-set partial-order
//! reduction over [`World::independent`], symmetry quotienting over the
//! topology's declared station-permutation group ([`SymPerm`]), and
//! reception-order (Foata) filtering. [`check_fan`] additionally splits
//! the frontier at a fixed depth and fans subtrees out over a
//! caller-supplied fan (the bench crate passes `macaw_core::Executor`),
//! merging deterministically so reports are bitwise identical for any
//! worker count. The unreduced serial explorer is kept bit-for-bit intact
//! as the validation oracle.

pub mod explore;
mod key;
pub mod topology;
pub mod world;

pub use explore::{
    check, check_fan, CheckConfig, CheckReport, CheckStats, Expectation, SubtreeOut, TraceStep,
    Violation, ViolationKind,
};
pub use topology::{SymPerm, Topology};
pub use world::{CanonState, FaultClass, World, WorldEvent};

use macaw_mac::{CsmaConfig, MacConfig};

/// `cfg` with the proof matrix's MACA/MACAW budgets: two retries and a
/// backoff cap of 4. They keep the retry-bounded state spaces small
/// enough to explore to completion, which turns each bounded search into
/// a proof; the full RTS-CTS-DS-DATA-ACK machinery with contention,
/// deferral and recovery still runs.
pub fn proof_wmac(cfg: MacConfig) -> MacConfig {
    MacConfig {
        max_retries: 2,
        bo_max: 4,
        ..cfg
    }
}

/// CSMA with the proof matrix's budgets: a backoff cap of 4 and three
/// attempts per packet.
pub fn proof_csma() -> CsmaConfig {
    CsmaConfig {
        bo_max: 4,
        max_attempts: 3,
        ..CsmaConfig::default()
    }
}

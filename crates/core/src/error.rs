//! Typed simulation errors.
//!
//! Scenario construction and the run loop return [`SimError`] instead of
//! panicking: a misconfigured scenario (dangling station index, TCP
//! multicast, inverted warm-up, a restart with no crash before it) or a
//! run that trips the watchdog surfaces as a value the caller — in
//! particular the `tables` / `faults` / `replicate` binaries — can print
//! and exit on. Internal invariants (states unreachable from any public
//! API) remain `debug_assert!`s; `SimError` is strictly for conditions a
//! user can cause from outside.

use std::fmt;

use macaw_mac::MacInvariantViolation;
use macaw_sim::SimTime;

/// An error surfaced by scenario construction or a simulation run.
#[derive(Clone, Debug, PartialEq)]
pub enum SimError {
    /// The scenario description is inconsistent (unknown station index,
    /// invalid stream, bad parameter). The message names the offending
    /// element.
    InvalidScenario(String),
    /// The run exceeded its event budget or looped at a single instant;
    /// `diagnostic` is a human-readable snapshot of the stuck network.
    WatchdogTripped {
        /// Simulated time at which the watchdog fired.
        at: SimTime,
        /// Total events processed when it fired.
        events: u64,
        /// Multi-line state snapshot (queue depth, per-station state).
        diagnostic: String,
    },
    /// A MAC state machine detected a broken internal invariant (a bug in
    /// the protocol implementation, or a deliberately broken variant under
    /// test). The run stops at the offending transition instead of
    /// panicking, so sweeps and the model checker can report it.
    MacInvariant {
        /// Simulated time of the offending transition.
        at: SimTime,
        /// The violation the MAC reported.
        violation: MacInvariantViolation,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidScenario(msg) => write!(f, "invalid scenario: {msg}"),
            SimError::WatchdogTripped { at, events, diagnostic } => write!(
                f,
                "watchdog tripped at t={at} after {events} events\n{diagnostic}"
            ),
            SimError::MacInvariant { at, violation } => {
                write!(f, "at t={at}: {violation}")
            }
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_actionable() {
        let e = SimError::InvalidScenario("stream \"x\": unknown destination station 9".into());
        assert!(e.to_string().contains("unknown destination station 9"));
        let w = SimError::WatchdogTripped {
            at: SimTime::ZERO,
            events: 42,
            diagnostic: "queue: 3 events".into(),
        };
        let s = w.to_string();
        assert!(s.contains("42 events") && s.contains("queue: 3 events"));
    }
}

//! Symbolic ordering of near-simultaneous deadlines.
//!
//! A concrete discrete-event run imposes one total order on its events. A
//! state-space explorer wants the opposite: every order a *real* radio could
//! exhibit. The two views meet in the observation that the simulator's exact
//! nanosecond deadlines over-specify reality — turnaround slop, clock drift
//! and processing jitter mean that two deadlines within a small band of each
//! other can fire in either order on hardware, while deadlines separated by
//! more than the band cannot (a 16 ms data packet never loses a race against
//! a 937 µs control slot).
//!
//! [`TieBand`] encodes that quasi-order: given the pending deadlines of a
//! state, [`TieBand::enabled`] returns the set of events that may fire
//! *next* — everything within `epsilon` of the earliest deadline. An
//! explorer branches over exactly that set, which makes the timer/reception
//! races of MACAW's Appendix B (CTS vs. WFCTS expiry, DS vs. restarted
//! contention) reachable without admitting physically impossible orders
//! (data completions preempting control slots).
//!
//! `epsilon = 0` degenerates to the simulator's own semantics: only exact
//! ties (same nanosecond) are reorderable. The checker's non-zero choice
//! is half the MAC's `TIMEOUT_MARGIN`, strictly inside the slop the
//! protocol itself already treats as unordered.

use crate::time::{SimDuration, SimTime};

/// A quasi-order over deadlines: instants within `epsilon` of each other are
/// considered concurrent (either may fire first).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TieBand {
    /// Width of the concurrency band.
    pub epsilon: SimDuration,
}

impl TieBand {
    /// Exact semantics: only identical deadlines tie.
    pub const EXACT: TieBand = TieBand {
        epsilon: SimDuration::ZERO,
    };

    /// A band of width `epsilon`.
    pub const fn new(epsilon: SimDuration) -> Self {
        TieBand { epsilon }
    }

    /// The indices of `deadlines` that may fire next: every deadline within
    /// `epsilon` of the minimum. Returns an empty vector iff `deadlines`
    /// is empty. Indices are returned in input order, so an explorer that
    /// branches over them in sequence stays deterministic.
    pub fn enabled(self, deadlines: &[SimTime]) -> Vec<usize> {
        let Some(&earliest) = deadlines.iter().min() else {
            return Vec::new();
        };
        let cutoff = earliest + self.epsilon;
        deadlines
            .iter()
            .enumerate()
            .filter(|(_, &d)| d <= cutoff)
            .map(|(i, _)| i)
            .collect()
    }

    /// `true` iff `a` and `b` are concurrent under this band (neither is
    /// forced to precede the other).
    pub fn concurrent(self, a: SimTime, b: SimTime) -> bool {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        hi.since(lo) <= self.epsilon
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_nanos(us * 1_000)
    }

    #[test]
    fn exact_band_enables_only_ties() {
        let band = TieBand::EXACT;
        let enabled = band.enabled(&[t(10), t(5), t(5), t(7)]);
        assert_eq!(enabled, vec![1, 2]);
    }

    #[test]
    fn band_widens_the_enabled_set() {
        let band = TieBand::new(SimDuration::from_micros(2));
        let enabled = band.enabled(&[t(10), t(5), t(6), t(7), t(8)]);
        assert_eq!(enabled, vec![1, 2, 3], "5, 6, 7 within 2us of min");
    }

    #[test]
    fn empty_deadlines_enable_nothing() {
        assert!(TieBand::EXACT.enabled(&[]).is_empty());
    }

    #[test]
    fn concurrency_is_symmetric_and_bounded() {
        let band = TieBand::new(SimDuration::from_micros(50));
        assert!(band.concurrent(t(100), t(140)));
        assert!(band.concurrent(t(140), t(100)));
        assert!(!band.concurrent(t(100), t(151)));
        assert!(TieBand::EXACT.concurrent(t(9), t(9)));
        assert!(!TieBand::EXACT.concurrent(t(9), t(10)));
    }

    #[test]
    fn control_slot_never_races_a_data_packet() {
        // The physical-plausibility property the band preserves: a 937.5 us
        // control completion and a 16 ms data completion are strictly
        // ordered under any epsilon below their gap.
        let band = TieBand::new(SimDuration::from_micros(50));
        let slot_end = SimTime::ZERO + SimDuration::from_nanos(937_500);
        let data_end = SimTime::ZERO + SimDuration::from_millis(16);
        assert!(!band.concurrent(slot_end, data_end));
        assert_eq!(band.enabled(&[data_end, slot_end]), vec![1]);
    }
}

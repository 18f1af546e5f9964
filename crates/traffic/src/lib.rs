//! Workload generators.
//!
//! The paper's experiments drive each stream with a constant-bit-rate source
//! ("the devices generate data at a constant rate of either 32 or 64 packets
//! per second. All data packets are 512 bytes"). [`SourceKind::Cbr`]
//! reproduces that; [`SourceKind::Poisson`] is provided for sensitivity
//! studies beyond the paper's workloads.
//!
//! A generator is an iterator of inter-arrival gaps: the simulation core
//! schedules the next application packet `next_gap()` after the previous
//! one. Packet sizes belong to the stream, not the generator. Generators
//! draw randomness only from the [`SimRng`] handed in, so runs stay
//! reproducible.

use macaw_sim::{SimDuration, SimRng};

/// The traffic model for a stream, and the generator of its gaps.
#[derive(Clone, Copy, Debug)]
pub enum SourceKind {
    /// Constant bit rate at `pps` packets per second (the paper's model).
    Cbr { pps: u64 },
    /// Poisson arrivals with mean `pps` packets per second.
    Poisson { pps: f64 },
}

impl SourceKind {
    /// The smallest Poisson rate a scenario accepts, in packets per
    /// second. A gap is drawn as `-mean * ln(u)` with `u` on a 2^-53 grid,
    /// so one gap is at most about 36.7 mean gaps: at this rate about
    /// 3.7e16 ns (1.2 years), far inside `SimTime`'s ~584 years. Much
    /// smaller rates make the mean gap infinite, or one gap overflow
    /// `u64` nanoseconds, and the run would abort.
    pub const MIN_POISSON_PPS: f64 = 1e-6;

    /// Gap between the previous packet and the next one. The rate must be
    /// positive (and a Poisson rate at least [`Self::MIN_POISSON_PPS`]),
    /// as a scenario checks before it runs.
    pub fn next_gap(&self, rng: &mut SimRng) -> SimDuration {
        match *self {
            SourceKind::Cbr { pps } => SimDuration::from_secs(1) / pps,
            SourceKind::Poisson { pps } => {
                // Round to whole nanoseconds; at least 1 ns to preserve
                // ordering.
                let ns = rng.exponential(1e9 / pps).round().max(1.0);
                SimDuration::from_nanos(ns as u64)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cbr_interval_matches_rate() {
        let mut rng = SimRng::new(1);
        let gap = SimDuration::from_nanos(15_625_000);
        assert_eq!(SourceKind::Cbr { pps: 64 }.next_gap(&mut rng), gap);
        let gap = SimDuration::from_nanos(31_250_000);
        assert_eq!(SourceKind::Cbr { pps: 32 }.next_gap(&mut rng), gap);
    }

    #[test]
    fn cbr_gap_is_constant() {
        let c = SourceKind::Cbr { pps: 64 };
        let mut rng = SimRng::new(1);
        let gaps: Vec<_> = (0..10).map(|_| c.next_gap(&mut rng)).collect();
        assert!(gaps.iter().all(|g| *g == gaps[0]));
    }

    #[test]
    fn poisson_mean_rate_is_calibrated() {
        let p = SourceKind::Poisson { pps: 64.0 };
        let mut rng = SimRng::new(2);
        let n = 100_000;
        let total: u64 = (0..n).map(|_| p.next_gap(&mut rng).as_nanos()).sum();
        let mean = total as f64 / n as f64;
        let expect = 1e9 / 64.0;
        assert!((mean - expect).abs() / expect < 0.02, "mean = {mean}");
    }

    #[test]
    fn poisson_gaps_are_positive() {
        let p = SourceKind::Poisson { pps: 1000.0 };
        let mut rng = SimRng::new(3);
        assert!((0..10_000).all(|_| !p.next_gap(&mut rng).is_zero()));
    }

    #[test]
    fn generators_are_deterministic_given_seed() {
        let a = SourceKind::Poisson { pps: 64.0 };
        let b = SourceKind::Poisson { pps: 64.0 };
        let mut ra = SimRng::new(9);
        let mut rb = SimRng::new(9);
        for _ in 0..100 {
            assert_eq!(a.next_gap(&mut ra), b.next_gap(&mut rb));
        }
    }
}

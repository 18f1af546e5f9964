//! Workload generators.
//!
//! The paper's experiments drive each stream with a constant-bit-rate source
//! ("the devices generate data at a constant rate of either 32 or 64 packets
//! per second. All data packets are 512 bytes"). [`Cbr`] reproduces that;
//! [`Poisson`] is provided for sensitivity studies beyond the paper's
//! workloads.
//!
//! A generator is an iterator of inter-arrival gaps: the simulation core
//! schedules the next application packet `next_gap()` after the previous
//! one. Packet sizes belong to the stream, not the generator. Generators
//! draw randomness only from the [`SimRng`] handed in, so runs stay
//! reproducible.

use macaw_sim::{SimDuration, SimRng};

/// A source of application packets for one stream.
pub trait TrafficSource {
    /// Gap between the previous packet and the next one.
    fn next_gap(&mut self, rng: &mut SimRng) -> SimDuration;
}

/// Constant bit rate: one packet every `interval` (the paper's workload).
#[derive(Clone, Copy, Debug)]
pub struct Cbr {
    interval: SimDuration,
}

impl Cbr {
    /// A CBR source emitting `pps` packets per second.
    ///
    /// # Panics
    /// Panics if `pps` is zero.
    pub fn pps(pps: u64) -> Self {
        assert!(pps > 0, "rate must be positive");
        Cbr {
            interval: SimDuration::from_secs(1) / pps,
        }
    }
}

impl TrafficSource for Cbr {
    fn next_gap(&mut self, _rng: &mut SimRng) -> SimDuration {
        self.interval
    }
}

/// Poisson arrivals with a given mean rate.
#[derive(Clone, Copy, Debug)]
pub struct Poisson {
    mean_interval_ns: f64,
}

impl Poisson {
    /// A Poisson source with mean rate `pps` packets per second.
    pub fn pps(pps: f64) -> Self {
        assert!(pps > 0.0 && pps.is_finite(), "rate must be positive");
        Poisson {
            mean_interval_ns: 1e9 / pps,
        }
    }
}

impl TrafficSource for Poisson {
    fn next_gap(&mut self, rng: &mut SimRng) -> SimDuration {
        // Round to whole nanoseconds; at least 1 ns to preserve ordering.
        let ns = rng.exponential(self.mean_interval_ns).round().max(1.0);
        SimDuration::from_nanos(ns as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cbr_interval_matches_rate() {
        let mut rng = SimRng::new(1);
        let gap = SimDuration::from_nanos(15_625_000);
        assert_eq!(Cbr::pps(64).next_gap(&mut rng), gap);
        let gap = SimDuration::from_nanos(31_250_000);
        assert_eq!(Cbr::pps(32).next_gap(&mut rng), gap);
    }

    #[test]
    fn cbr_gap_is_constant() {
        let mut c = Cbr::pps(64);
        let mut rng = SimRng::new(1);
        let gaps: Vec<_> = (0..10).map(|_| c.next_gap(&mut rng)).collect();
        assert!(gaps.iter().all(|g| *g == gaps[0]));
    }

    #[test]
    fn poisson_mean_rate_is_calibrated() {
        let mut p = Poisson::pps(64.0);
        let mut rng = SimRng::new(2);
        let n = 100_000;
        let total: u64 = (0..n).map(|_| p.next_gap(&mut rng).as_nanos()).sum();
        let mean = total as f64 / n as f64;
        let expect = 1e9 / 64.0;
        assert!((mean - expect).abs() / expect < 0.02, "mean = {mean}");
    }

    #[test]
    fn poisson_gaps_are_positive() {
        let mut p = Poisson::pps(1000.0);
        let mut rng = SimRng::new(3);
        assert!((0..10_000).all(|_| !p.next_gap(&mut rng).is_zero()));
    }

    #[test]
    fn generators_are_deterministic_given_seed() {
        let mut a = Poisson::pps(64.0);
        let mut b = Poisson::pps(64.0);
        let mut ra = SimRng::new(9);
        let mut rb = SimRng::new(9);
        for _ in 0..100 {
            assert_eq!(a.next_gap(&mut ra), b.next_gap(&mut rb));
        }
    }
}

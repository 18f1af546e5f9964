//! Deterministic random fault injection.
//!
//! [`add_random_faults`] draws a seeded schedule of faults — noise bursts,
//! per-link corruption windows, station crashes, link asymmetry and
//! position jitter — straight into a [`Scenario`]'s fault builders, the way
//! [`crate::mobility::add_waypoint_mobility`] declares motion. The faults
//! are then part of the scenario, so `(Scenario, seed)` fully determines a
//! run: the same draw on the same scenario produces a bitwise-identical
//! [`crate::stats::RunReport`], which is what makes chaos runs debuggable.
//!
//! The fault classes map onto the paper's own failure discussion: §3.3.1's
//! intermittent noise (bursts and corruption windows), §4's asymmetric
//! links, and the Figure-9 "pad is turned off" experiment generalized to
//! crash-with-state-loss plus restart.

use macaw_phy::Point;
use macaw_sim::{SimDuration, SimRng, SimTime};

use crate::scenario::Scenario;

/// RNG fork label for fault generation, distinct from the labels the
/// scenario builder uses for the medium and per-station/stream RNGs.
const FAULT_FORK: u64 = 0xFA_5EED;

/// Position jitters per call.
const JITTERS: usize = 2;
/// Mean length of a generated corruption, noise or asymmetry window.
const MEAN_WINDOW: SimDuration = SimDuration::from_millis(150);
/// Minimum on-air time of a generated corruption window's victims: it
/// spares control frames.
const MIN_AIR: SimDuration = SimDuration::from_millis(2);
/// Mean downtime of a generated crash. Every generated crash restarts
/// with its queues kept; permanent deaths or lost queues are declared by
/// hand through [`Scenario::crash_at`].
const MEAN_DOWNTIME: SimDuration = SimDuration::from_secs(1);

/// The knobs of [`add_random_faults`] that callers vary: the horizon, the
/// count of each drawn fault class but jitter, and the spatial scale. The
/// jitter count, window and downtime means and `min_air` are the constants
/// above.
#[derive(Clone, Debug)]
pub struct FaultPlanConfig {
    /// Horizon inside which every fault is placed.
    pub duration: SimDuration,
    /// How many of each fault class to draw.
    pub noise_bursts: usize,
    pub corruption_windows: usize,
    pub crashes: usize,
    pub asymmetries: usize,
    /// Spatial scale (feet): noise emitters land within this radius of the
    /// origin, jitter offsets within a quarter of it.
    pub arena: f64,
}

impl Default for FaultPlanConfig {
    fn default() -> Self {
        FaultPlanConfig {
            duration: SimDuration::from_secs(30),
            noise_bursts: 2,
            corruption_windows: 4,
            crashes: 1,
            asymmetries: 2,
            arena: 20.0,
        }
    }
}

/// Draw random faults for `sc`'s stations and declare them through its
/// builders, class by class:
///
/// * a noise burst is a [`Scenario::add_noise_source`] emitter switched on
///   and off by two [`Scenario::set_noise_at`] toggles;
/// * a corruption window is a [`Scenario::corrupt_link`] that spares
///   frames shorter than 2 ms, so it selectively kills DATA — the regime
///   where MACAW's link ACK earns its keep;
/// * a crash is a [`Scenario::crash_at`] with queues kept, followed by a
///   [`Scenario::restart_at`];
/// * an asymmetry is a deep fade of one directional link, two
///   [`Scenario::set_link_gain_at`] calls that scale it and restore it;
/// * a position jitter is a [`Scenario::move_station_at`] to the station's
///   declared position plus a random offset (antenna knocked, cart rolled
///   away).
///
/// The same `(seed, cfg, station count)` always draws the same faults. The
/// RNG is a fork with its own label, so fault generation never perturbs
/// the scenario's own random streams. A scenario with fewer than two
/// stations draws no link faults, and one with none draws no crashes or
/// jitters.
pub fn add_random_faults(sc: &mut Scenario, seed: u64, cfg: &FaultPlanConfig) {
    let mut rng = SimRng::new(seed).fork(FAULT_FORK);
    let horizon = cfg.duration.as_nanos().max(1);
    let n = sc.station_count() as u64;

    let instant = |rng: &mut SimRng| {
        SimTime::ZERO + SimDuration::from_nanos(rng.uniform_inclusive(0, horizon))
    };
    let window = |rng: &mut SimRng| {
        let from = instant(rng);
        let len = rng.exponential(MEAN_WINDOW.as_nanos() as f64).max(1.0);
        (from, from + SimDuration::from_nanos(len as u64))
    };
    // Distinct ordered pair of stations; None if the network is too small
    // for link-level faults.
    let pair = |rng: &mut SimRng| {
        if n < 2 {
            return None;
        }
        let src = rng.uniform_inclusive(0, n - 1) as usize;
        let mut dst = rng.uniform_inclusive(0, n - 2) as usize;
        if dst >= src {
            dst += 1;
        }
        Some((src, dst))
    };
    // Offset in the horizontal plane, uniform within `scale` per axis.
    let offset = |rng: &mut SimRng, scale: f64| {
        let x = (rng.uniform_f64() * 2.0 - 1.0) * scale;
        let y = (rng.uniform_f64() * 2.0 - 1.0) * scale;
        (x, y)
    };

    for _ in 0..cfg.noise_bursts {
        let (from, until) = window(&mut rng);
        let (x, y) = offset(&mut rng, cfg.arena);
        let power = 1.0 + rng.uniform_f64() * 4.0;
        let idx = sc.add_noise_source(Point::new(x, y, 0.0), power, false);
        sc.set_noise_at(from, idx, true);
        sc.set_noise_at(until, idx, false);
    }
    for _ in 0..cfg.corruption_windows {
        if let Some((src, dst)) = pair(&mut rng) {
            let (from, until) = window(&mut rng);
            sc.corrupt_link(src, dst, from, until, MIN_AIR);
        }
    }
    // Every class below names a station.
    if n == 0 {
        return;
    }
    for _ in 0..cfg.crashes {
        let station = rng.uniform_inclusive(0, n - 1) as usize;
        let at = instant(&mut rng);
        let down = rng.exponential(MEAN_DOWNTIME.as_nanos() as f64).max(1.0);
        sc.crash_at(at, station, true);
        sc.restart_at(at + SimDuration::from_nanos(down as u64), station);
    }
    for _ in 0..cfg.asymmetries {
        if let Some((src, dst)) = pair(&mut rng) {
            let (from, until) = window(&mut rng);
            // Deep fades: most of the signal gone.
            let factor = rng.uniform_f64() * 0.2;
            sc.set_link_gain_at(from, src, dst, factor);
            sc.set_link_gain_at(until, src, dst, 1.0);
        }
    }
    for _ in 0..JITTERS {
        let station = rng.uniform_inclusive(0, n - 1) as usize;
        let at = instant(&mut rng);
        let (dx, dy) = offset(&mut rng, cfg.arena / 4.0);
        let base = sc
            .station_position(station)
            .expect("drawn below the station count");
        sc.move_station_at(at, station, Point::new(base.x + dx, base.y + dy, base.z));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures;
    use crate::network::ActionKind;
    use crate::scenario::MacKind;

    fn cell(stations: usize) -> Scenario {
        let mut sc = Scenario::new(5);
        let spots = [(0.0, 0.0, 6.0), (3.0, 0.0, 0.0), (-3.0, 0.0, 0.0)];
        for (i, &(x, y, z)) in spots[..stations].iter().enumerate() {
            sc.add_station(&format!("S{i}"), Point::new(x, y, z), MacKind::Macaw);
        }
        if stations > 1 {
            sc.add_udp_stream("S1-S0", 1, 0, 32, 512);
        }
        sc
    }

    /// What each class declares, on the chaos bench's Figure-3 cell and
    /// config: a dropped or doubled class changes a count.
    #[test]
    fn each_class_declares_its_builder_calls() {
        let cfg = FaultPlanConfig {
            duration: SimDuration::from_secs(120),
            noise_bursts: 4,
            corruption_windows: 8,
            crashes: 1,
            asymmetries: 4,
            arena: 3.0,
        };
        let mut sc = figures::figure3(MacKind::Macaw, 7);
        add_random_faults(&mut sc, 7, &cfg);
        assert_eq!(sc.defect, None);
        assert_eq!(sc.noise.len(), 4);
        assert_eq!(sc.windows.len(), 8);
        use ActionKind::{Crash, MoveBatch, Restart, SetLinkGain, SetNoise};
        let count = |f: fn(&ActionKind) -> bool| sc.actions.iter().filter(|a| f(&a.kind)).count();
        assert_eq!(count(|k| matches!(k, SetNoise { .. })), 8);
        assert_eq!(count(|k| matches!(k, Crash { .. })), 1);
        assert_eq!(count(|k| matches!(k, Restart { .. })), 1);
        assert_eq!(count(|k| matches!(k, SetLinkGain { .. })), 8);
        assert_eq!(count(|k| matches!(k, MoveBatch { len: 1, .. })), 2);
        assert_eq!(sc.actions.len(), 8 + 1 + 1 + 8 + 2, "and nothing else");
    }

    #[test]
    fn every_seed_builds_and_a_lone_station_draws_no_link_faults() {
        let cfg = FaultPlanConfig::default();
        for seed in 0..50 {
            let mut sc = cell(3);
            add_random_faults(&mut sc, seed, &cfg);
            sc.build().unwrap();
        }
        for seed in 0..8 {
            let mut sc = cell(1);
            add_random_faults(&mut sc, seed, &cfg);
            assert!(sc.windows.is_empty());
            assert!(!sc
                .actions
                .iter()
                .any(|a| matches!(a.kind, ActionKind::SetLinkGain { .. })));
            sc.build().unwrap();
        }
    }

    #[test]
    fn the_fault_seed_changes_the_run() {
        let (dur, warm) = (SimDuration::from_secs(30), SimDuration::from_secs(1));
        let run = |seed| {
            let mut sc = cell(3);
            add_random_faults(&mut sc, seed, &FaultPlanConfig::default());
            sc.run(dur, warm).unwrap()
        };
        assert_ne!(run(11), run(12));
    }
}

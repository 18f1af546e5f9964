//! Deterministic fault-injection plans.
//!
//! A [`FaultPlan`] is a seeded, pre-computed schedule of faults — noise
//! bursts, per-link corruption windows, station crashes, link asymmetry
//! and position jitter — that is applied to a [`Scenario`] *before* the
//! network is built. Because the plan is plain data derived from a seed,
//! `(Scenario, FaultPlan, seed)` fully determines a run: the same plan
//! replayed on the same scenario produces a bitwise-identical
//! [`crate::stats::RunReport`], which is what makes chaos runs debuggable.
//!
//! The fault classes map onto the paper's own failure discussion: §3.3.1's
//! intermittent noise (bursts and corruption windows), §4's asymmetric
//! links, and the Figure-9 "pad is turned off" experiment generalized to
//! crash-with-state-loss plus restart.

use macaw_phy::Point;
use macaw_sim::{SimDuration, SimRng, SimTime};

use crate::error::SimError;
use crate::scenario::Scenario;

/// RNG fork label for fault-plan generation, distinct from the labels the
/// scenario builder uses for the medium and per-station/stream RNGs.
const FAULT_FORK: u64 = 0xFA_5EED;

/// Position jitters per generated plan.
const JITTERS: usize = 2;
/// Mean length of a generated corruption, noise or asymmetry window.
const MEAN_WINDOW: SimDuration = SimDuration::from_millis(150);
/// Minimum on-air time of a generated corruption window's victims: it
/// spares control frames.
const MIN_AIR: SimDuration = SimDuration::from_millis(2);
/// Mean downtime of a generated crash. Every generated crash restarts
/// with its queues kept; a plan with permanent deaths or lost queues is
/// built by hand.
const MEAN_DOWNTIME: SimDuration = SimDuration::from_secs(1);

/// One injected fault.
#[derive(Clone, Debug, PartialEq)]
pub enum Fault {
    /// A spatial noise emitter at `pos` radiating `power` over
    /// `[from, until)` (§3.3.1's intermittent noise, placed in space).
    NoiseBurst {
        pos: Point,
        power: f64,
        from: SimTime,
        until: SimTime,
    },
    /// Frames from `src` that spend at least `min_air` on the air inside
    /// `[from, until)` arrive corrupted at `dst`. Control frames are short
    /// and slip under `min_air`, so this selectively kills DATA — the
    /// regime where MACAW's link ACK earns its keep.
    CorruptionWindow {
        src: usize,
        dst: usize,
        from: SimTime,
        until: SimTime,
        min_air: SimDuration,
    },
    /// The station powers off abruptly at `at`: any frame in flight is
    /// truncated, MAC state (backoff tables, exchange progress) is wiped,
    /// and queued packets are dropped unless `preserve_queues`. If
    /// `restart_at` is set the station comes back and re-contends.
    Crash {
        station: usize,
        at: SimTime,
        restart_at: Option<SimTime>,
        preserve_queues: bool,
    },
    /// What `dst` hears of `src` is scaled by `factor` over `[from, until)`
    /// and restored to unity afterwards (§4's asymmetric links, as a
    /// transient fault).
    LinkAsymmetry {
        src: usize,
        dst: usize,
        factor: f64,
        from: SimTime,
        until: SimTime,
    },
    /// The station teleports by `offset` (relative to its declared
    /// position) at `at` — antenna knocked, cart rolled away.
    PositionJitter {
        station: usize,
        at: SimTime,
        offset: Point,
    },
}

/// The knobs of [`FaultPlan::generate`] that callers vary: the horizon,
/// the count of each drawn fault class but jitter, and the spatial scale.
/// The jitter count, window and downtime means and `min_air` are the
/// constants above.
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

/// A seeded, deterministic schedule of faults.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// Seed the plan was generated from (0 for hand-built plans).
    pub seed: u64,
    /// The schedule, in no particular order.
    pub faults: Vec<Fault>,
}

impl FaultPlan {
    /// An empty plan (useful as a baseline arm in ablations).
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            faults: Vec::new(),
        }
    }

    /// Draw a random plan for a network of `n_stations` stations. The
    /// same `(seed, cfg, n_stations)` always yields the same plan; the RNG
    /// is a fork with its own label, so plan generation never perturbs the
    /// scenario's own random streams.
    pub fn generate(seed: u64, cfg: &FaultPlanConfig, n_stations: usize) -> Self {
        let mut rng = SimRng::new(seed).fork(FAULT_FORK);
        let horizon = cfg.duration.as_nanos().max(1);
        let mut faults = Vec::new();

        let window = |rng: &mut SimRng| {
            let from = SimTime::ZERO + SimDuration::from_nanos(rng.uniform_inclusive(0, horizon));
            let len = rng.exponential(MEAN_WINDOW.as_nanos() as f64).max(1.0);
            (from, from + SimDuration::from_nanos(len as u64))
        };
        // Distinct ordered pair of stations; None if the network is too
        // small for link-level faults.
        let pair = |rng: &mut SimRng| {
            if n_stations < 2 {
                return None;
            }
            let src = rng.uniform_inclusive(0, n_stations as u64 - 1) as usize;
            let mut dst = rng.uniform_inclusive(0, n_stations as u64 - 2) as usize;
            if dst >= src {
                dst += 1;
            }
            Some((src, dst))
        };

        for _ in 0..cfg.noise_bursts {
            let (from, until) = window(&mut rng);
            let x = (rng.uniform_f64() * 2.0 - 1.0) * cfg.arena;
            let y = (rng.uniform_f64() * 2.0 - 1.0) * cfg.arena;
            faults.push(Fault::NoiseBurst {
                pos: Point::new(x, y, 0.0),
                power: 1.0 + rng.uniform_f64() * 4.0,
                from,
                until,
            });
        }
        for _ in 0..cfg.corruption_windows {
            if let Some((src, dst)) = pair(&mut rng) {
                let (from, until) = window(&mut rng);
                faults.push(Fault::CorruptionWindow {
                    src,
                    dst,
                    from,
                    until,
                    min_air: MIN_AIR,
                });
            }
        }
        for _ in 0..cfg.crashes {
            if n_stations == 0 {
                break;
            }
            let station = rng.uniform_inclusive(0, n_stations as u64 - 1) as usize;
            let at = SimTime::ZERO + SimDuration::from_nanos(rng.uniform_inclusive(0, horizon));
            let down = rng.exponential(MEAN_DOWNTIME.as_nanos() as f64).max(1.0);
            faults.push(Fault::Crash {
                station,
                at,
                restart_at: Some(at + SimDuration::from_nanos(down as u64)),
                preserve_queues: true,
            });
        }
        for _ in 0..cfg.asymmetries {
            if let Some((src, dst)) = pair(&mut rng) {
                let (from, until) = window(&mut rng);
                faults.push(Fault::LinkAsymmetry {
                    src,
                    dst,
                    // Deep fades: most of the signal gone.
                    factor: rng.uniform_f64() * 0.2,
                    from,
                    until,
                });
            }
        }
        for _ in 0..JITTERS {
            if n_stations == 0 {
                break;
            }
            let station = rng.uniform_inclusive(0, n_stations as u64 - 1) as usize;
            let at = SimTime::ZERO + SimDuration::from_nanos(rng.uniform_inclusive(0, horizon));
            let scale = cfg.arena / 4.0;
            let dx = (rng.uniform_f64() * 2.0 - 1.0) * scale;
            let dy = (rng.uniform_f64() * 2.0 - 1.0) * scale;
            faults.push(Fault::PositionJitter {
                station,
                at,
                offset: Point::new(dx, dy, 0.0),
            });
        }
        FaultPlan { seed, faults }
    }

    /// Check the plan against a scenario without applying it.
    pub fn validate(&self, sc: &Scenario) -> Result<(), SimError> {
        let n = sc.station_count();
        let bad = |msg: String| Err(SimError::InvalidFaultPlan(msg));
        let check_station = |s: usize, what: &str| {
            if s < n {
                Ok(())
            } else {
                Err(SimError::InvalidFaultPlan(format!(
                    "{what}: unknown station index {s} (have {n})"
                )))
            }
        };
        for f in &self.faults {
            match f {
                Fault::NoiseBurst {
                    power, from, until, ..
                } => {
                    if !(power.is_finite() && *power >= 0.0) {
                        return bad(format!("noise burst: power {power} must be finite and non-negative"));
                    }
                    if until <= from {
                        return bad(format!("noise burst: empty window [{from}, {until})"));
                    }
                }
                Fault::CorruptionWindow {
                    src,
                    dst,
                    from,
                    until,
                    ..
                } => {
                    check_station(*src, "corruption window")?;
                    check_station(*dst, "corruption window")?;
                    if src == dst {
                        return bad("corruption window: src and dst must differ".to_string());
                    }
                    if until <= from {
                        return bad(format!("corruption window: empty window [{from}, {until})"));
                    }
                }
                Fault::Crash {
                    station,
                    at,
                    restart_at,
                    ..
                } => {
                    check_station(*station, "crash")?;
                    if let Some(r) = restart_at {
                        if r <= at {
                            return bad(format!("crash: restart at {r} does not follow crash at {at}"));
                        }
                    }
                }
                Fault::LinkAsymmetry {
                    src,
                    dst,
                    factor,
                    from,
                    until,
                } => {
                    check_station(*src, "link asymmetry")?;
                    check_station(*dst, "link asymmetry")?;
                    if src == dst {
                        return bad("link asymmetry: src and dst must differ".to_string());
                    }
                    if !(factor.is_finite() && *factor >= 0.0) {
                        return bad(format!("link asymmetry: factor {factor} must be finite and non-negative"));
                    }
                    if until <= from {
                        return bad(format!("link asymmetry: empty window [{from}, {until})"));
                    }
                }
                Fault::PositionJitter { station, .. } => {
                    check_station(*station, "position jitter")?;
                }
            }
        }
        Ok(())
    }

    /// Validate the plan against `sc` and translate every fault into the
    /// scenario's scheduled actions / corruption windows. Fails with
    /// [`SimError::InvalidFaultPlan`] (leaving `sc` untouched) if any fault
    /// references an unknown station or has a degenerate window.
    pub fn apply(&self, sc: &mut Scenario) -> Result<(), SimError> {
        self.validate(sc)?;
        for f in &self.faults {
            match f {
                Fault::NoiseBurst {
                    pos,
                    power,
                    from,
                    until,
                } => {
                    let idx = sc.add_noise_source(*pos, *power, false);
                    sc.set_noise_at(*from, idx, true);
                    sc.set_noise_at(*until, idx, false);
                }
                Fault::CorruptionWindow {
                    src,
                    dst,
                    from,
                    until,
                    min_air,
                } => {
                    sc.corrupt_link(*src, *dst, *from, *until, *min_air);
                }
                Fault::Crash {
                    station,
                    at,
                    restart_at,
                    preserve_queues,
                } => {
                    sc.crash_at(*at, *station, *preserve_queues);
                    if let Some(r) = restart_at {
                        sc.restart_at(*r, *station);
                    }
                }
                Fault::LinkAsymmetry {
                    src,
                    dst,
                    factor,
                    from,
                    until,
                } => {
                    sc.set_link_gain_at(*from, *src, *dst, *factor);
                    sc.set_link_gain_at(*until, *src, *dst, 1.0);
                }
                Fault::PositionJitter {
                    station,
                    at,
                    offset,
                } => {
                    let base = sc
                        .station_position(*station)
                        .expect("validated station index");
                    let to = Point::new(base.x + offset.x, base.y + offset.y, base.z + offset.z);
                    sc.move_station_at(*at, *station, to);
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::MacKind;

    fn sc3() -> Scenario {
        let mut sc = Scenario::new(5);
        sc.add_station("A", Point::new(0.0, 0.0, 6.0), MacKind::Macaw);
        sc.add_station("B", Point::new(3.0, 0.0, 0.0), MacKind::Macaw);
        sc.add_station("C", Point::new(-3.0, 0.0, 0.0), MacKind::Macaw);
        sc
    }

    #[test]
    fn generation_is_deterministic_in_the_seed() {
        let cfg = FaultPlanConfig::default();
        let a = FaultPlan::generate(11, &cfg, 3);
        let b = FaultPlan::generate(11, &cfg, 3);
        let c = FaultPlan::generate(12, &cfg, 3);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(!a.faults.is_empty());
    }

    #[test]
    fn generated_plans_always_validate() {
        let cfg = FaultPlanConfig::default();
        for seed in 0..50 {
            let plan = FaultPlan::generate(seed, &cfg, 3);
            plan.validate(&sc3()).unwrap();
        }
    }

    #[test]
    fn link_faults_are_skipped_for_single_station_networks() {
        let plan = FaultPlan::generate(3, &FaultPlanConfig::default(), 1);
        assert!(plan.faults.iter().all(|f| !matches!(
            f,
            Fault::CorruptionWindow { .. } | Fault::LinkAsymmetry { .. }
        )));
    }

    #[test]
    fn bad_plans_are_rejected_with_typed_errors() {
        let sc = sc3();
        let bad_station = FaultPlan {
            seed: 0,
            faults: vec![Fault::Crash {
                station: 9,
                at: SimTime::ZERO,
                restart_at: None,
                preserve_queues: false,
            }],
        };
        let err = bad_station.validate(&sc).unwrap_err();
        assert!(matches!(err, SimError::InvalidFaultPlan(_)), "got: {err}");

        let bad_restart = FaultPlan {
            seed: 0,
            faults: vec![Fault::Crash {
                station: 0,
                at: SimTime::ZERO + SimDuration::from_secs(2),
                restart_at: Some(SimTime::ZERO + SimDuration::from_secs(1)),
                preserve_queues: false,
            }],
        };
        assert!(bad_restart.validate(&sc).is_err());

        let bad_window = FaultPlan {
            seed: 0,
            faults: vec![Fault::LinkAsymmetry {
                src: 0,
                dst: 0,
                factor: 0.5,
                from: SimTime::ZERO,
                until: SimTime::ZERO + SimDuration::from_secs(1),
            }],
        };
        let err = bad_window.validate(&sc).unwrap_err();
        assert!(err.to_string().contains("must differ"), "got: {err}");
    }

    #[test]
    fn apply_translates_every_fault_class() {
        let mut sc = sc3();
        sc.add_udp_stream("A-B", 0, 1, 8, 512);
        let plan = FaultPlan {
            seed: 0,
            faults: vec![
                Fault::NoiseBurst {
                    pos: Point::new(1.0, 0.0, 0.0),
                    power: 2.0,
                    from: SimTime::ZERO + SimDuration::from_secs(1),
                    until: SimTime::ZERO + SimDuration::from_secs(2),
                },
                Fault::CorruptionWindow {
                    src: 0,
                    dst: 1,
                    from: SimTime::ZERO + SimDuration::from_secs(3),
                    until: SimTime::ZERO + SimDuration::from_secs(4),
                    min_air: SimDuration::from_millis(2),
                },
                Fault::Crash {
                    station: 2,
                    at: SimTime::ZERO + SimDuration::from_secs(5),
                    restart_at: Some(SimTime::ZERO + SimDuration::from_secs(6)),
                    preserve_queues: true,
                },
                Fault::LinkAsymmetry {
                    src: 1,
                    dst: 0,
                    factor: 0.1,
                    from: SimTime::ZERO + SimDuration::from_secs(7),
                    until: SimTime::ZERO + SimDuration::from_secs(8),
                },
                Fault::PositionJitter {
                    station: 1,
                    at: SimTime::ZERO + SimDuration::from_secs(9),
                    offset: Point::new(1.0, 1.0, 0.0),
                },
            ],
        };
        plan.apply(&mut sc).unwrap();
        // The plan survived the scenario's own builder validation too, and
        // the faulted scenario still builds and runs.
        let report = sc
            .run(SimDuration::from_secs(10), SimDuration::from_secs(1))
            .unwrap();
        assert!(report.stream("A-B").delivered > 0);
    }
}

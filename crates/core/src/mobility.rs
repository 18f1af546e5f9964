//! Campus mobility: random-waypoint motion over a generated floor plan.
//!
//! The paper's topologies are static snapshots, but its motivating setting
//! is people carrying pads around an office building. This module supplies
//! the missing motion: a **campus** is a [`scale_topology`] floor (hundreds
//! of cutoff-sized rooms) whose ground-level stations roam under the
//! classic random-waypoint model — pick a uniform waypoint on the floor,
//! walk toward it at constant speed, dwell, repeat.
//!
//! Motion is *declared*, not simulated ad hoc: the driver samples every
//! mover's position once per tick and emits one
//! [`Scenario::move_stations_at`] batch per tick, so mobility flows through
//! the same builders and scheduled-action path as
//! [`crate::faults::add_random_faults`]. That keeps the whole
//! determinism story intact for free — the batches are part of the
//! scenario, and the coupling partition folds their targets into its
//! position instances.
//!
//! Everything derives from `SimRng` streams forked off the caller's seed:
//! the same `(config, seed, duration)` triple always yields the identical
//! move plan, bit for bit.

use macaw_phy::Point;
use macaw_sim::{SimDuration, SimRng, SimTime};

use crate::scenario::{MacKind, Scenario};
use crate::topology::{scale_topology, ScaleConfig};

/// Knobs for the random-waypoint driver.
#[derive(Clone, Copy, Debug)]
pub struct WaypointConfig {
    /// Walking speed in feet per second (4 ft/s is a brisk walk).
    pub speed_fps: f64,
    /// Sampling tick: the driver emits one move batch per tick. Smaller
    /// ticks mean smoother paths and more (smaller) moves.
    pub tick: SimDuration,
    /// Dwell time at each reached waypoint. Paused movers still appear in
    /// every batch — their entries are same-cube no-ops, the cheap path
    /// the medium's mover pipeline early-outs.
    pub pause: SimDuration,
}

impl Default for WaypointConfig {
    fn default() -> Self {
        WaypointConfig {
            speed_fps: 4.0,
            tick: SimDuration::from_millis(500),
            pause: SimDuration::from_secs(2),
        }
    }
}

/// Shape of a campus scenario: a [`ScaleConfig`] floor plus mobility knobs.
#[derive(Clone, Copy, Debug)]
pub struct CampusConfig {
    /// The office floor underneath: rooms, pads, walkers, streams.
    pub floor: ScaleConfig,
    /// Fraction of ground-level stations (pads and walkers; bases stay
    /// bolted to the ceiling) that roam. 0 disables mobility entirely —
    /// no batches are scheduled, so the scenario is byte-identical to the
    /// plain floor.
    pub mobile_share: f64,
    /// The waypoint model for the movers.
    pub waypoint: WaypointConfig,
}

impl CampusConfig {
    /// A campus of `stations` stations with every other knob default.
    pub fn with_stations(stations: usize) -> Self {
        CampusConfig {
            floor: ScaleConfig::with_stations(stations),
            mobile_share: 0.1,
            waypoint: WaypointConfig::default(),
        }
    }
}

/// The ground-level (z = 0) stations of a scenario — the pads and walkers
/// a campus may set in motion. Bases sit at ceiling height and never move.
pub fn ground_stations(sc: &Scenario) -> Vec<usize> {
    (0..sc.station_count())
        .filter(|&s| sc.station_position(s).is_some_and(|p| p.z == 0.0))
        .collect()
}

/// The axis-aligned x/y bounding rectangle of every station in `sc`
/// (z = 0), the natural roam area for its movers. Returns a degenerate
/// rectangle at the origin for an empty scenario.
pub fn campus_rect(sc: &Scenario) -> (Point, Point) {
    let mut any = false;
    let (mut x0, mut y0, mut x1, mut y1) = (f64::MAX, f64::MAX, f64::MIN, f64::MIN);
    for s in 0..sc.station_count() {
        if let Some(p) = sc.station_position(s) {
            any = true;
            x0 = x0.min(p.x);
            y0 = y0.min(p.y);
            x1 = x1.max(p.x);
            y1 = y1.max(p.y);
        }
    }
    if !any {
        return (Point::new(0.0, 0.0, 0.0), Point::new(0.0, 0.0, 0.0));
    }
    (Point::new(x0, y0, 0.0), Point::new(x1, y1, 0.0))
}

/// Drive `movers` through random-waypoint motion inside `rect` until
/// `until`, appending one [`Scenario::move_stations_at`] batch per tick.
/// Every mover appears in every batch (paused or crawling movers produce
/// same-cube no-op entries). Waypoints are whole-foot points, exactly like
/// the topology generators, so cube snapping leaves them alone. Returns
/// the number of move entries emitted.
///
/// The RNG is drawn in (tick, mover) order, one draw pair per new
/// waypoint, so the plan is a pure function of `(movers, rect, cfg,
/// until, rng state)`.
pub fn add_waypoint_mobility(
    sc: &mut Scenario,
    movers: &[usize],
    rect: (Point, Point),
    cfg: &WaypointConfig,
    until: SimDuration,
    rng: &mut SimRng,
) -> u64 {
    if movers.is_empty() || cfg.speed_fps <= 0.0 {
        return 0;
    }
    let tick_ns = cfg.tick.as_nanos().max(1);
    let step = cfg.speed_fps * (tick_ns as f64 / 1e9);
    let pause_ticks = (cfg.pause.as_nanos() / tick_ns) as u32;
    // Whole-foot waypoint bounds; a degenerate axis pins that coordinate.
    let (xl, xh) = (rect.0.x.ceil() as u64, (rect.1.x.floor() as u64).max(rect.0.x.ceil() as u64));
    let (yl, yh) = (rect.0.y.ceil() as u64, (rect.1.y.floor() as u64).max(rect.0.y.ceil() as u64));
    let draw = |rng: &mut SimRng| {
        Point::new(
            rng.uniform_inclusive(xl, xh) as f64,
            rng.uniform_inclusive(yl, yh) as f64,
            0.0,
        )
    };

    struct Walker {
        pos: Point,
        target: Point,
        pause_left: u32,
    }
    let mut state: Vec<Walker> = movers
        .iter()
        .map(|&m| {
            let pos = sc
                .station_position(m)
                .expect("mover indices name existing stations");
            let target = draw(rng);
            Walker {
                pos,
                target,
                pause_left: 0,
            }
        })
        .collect();

    let mut batch: Vec<(usize, Point)> = Vec::with_capacity(movers.len());
    let mut emitted = 0u64;
    for t in 1.. {
        let at_ns = t * tick_ns;
        if at_ns >= until.as_nanos() {
            break;
        }
        batch.clear();
        for (k, &m) in movers.iter().enumerate() {
            let w = &mut state[k];
            if w.pause_left > 0 {
                w.pause_left -= 1;
            } else {
                let dist = w.pos.distance(w.target);
                if dist <= step {
                    w.pos = w.target;
                    w.target = draw(rng);
                    w.pause_left = pause_ticks;
                } else {
                    let s = step / dist;
                    w.pos = Point::new(
                        w.pos.x + (w.target.x - w.pos.x) * s,
                        w.pos.y + (w.target.y - w.pos.y) * s,
                        w.pos.z,
                    );
                }
            }
            batch.push((m, w.pos));
        }
        sc.move_stations_at(SimTime::ZERO + SimDuration::from_nanos(at_ns), &batch);
        emitted += batch.len() as u64;
    }
    emitted
}

/// Generate a campus: a [`scale_topology`] floor whose ground stations
/// roam under random-waypoint motion for `until`. The mover set is an
/// even deterministic stride over the ground stations (exactly
/// `round(ground · mobile_share)` of them), and the mobility RNG is a
/// dedicated stream off `seed`, so floor layout and motion plan are
/// independently reproducible.
pub fn campus_topology(
    cfg: &CampusConfig,
    mac: MacKind,
    until: SimDuration,
    seed: u64,
) -> Scenario {
    let mut sc = scale_topology(&cfg.floor, mac, seed);
    let ground = ground_stations(&sc);
    let want = ((ground.len() as f64) * cfg.mobile_share).round() as usize;
    let want = want.min(ground.len());
    if want == 0 {
        return sc;
    }
    let movers: Vec<usize> = (0..want).map(|i| ground[i * ground.len() / want]).collect();
    let rect = campus_rect(&sc);
    // "MOBI": the mobility stream must not collide with the topology
    // stream (seed ^ 0x0FF1_CE00) or the scenario's own forks.
    let mut rng = SimRng::new(seed ^ 0x4D4F_4249);
    add_waypoint_mobility(&mut sc, &movers, rect, &cfg.waypoint, until, &mut rng);
    sc
}

#[cfg(test)]
mod tests {
    use super::*;

    const RUN: SimDuration = SimDuration::from_secs(10);

    /// What campus generation emits: stations, streams, scheduled actions
    /// and the move table. `Debug` prints every f64 as its shortest
    /// round-trippable decimal, so equal text is bit-equal content.
    fn plan(sc: &Scenario) -> [String; 4] {
        [
            format!("{:?}", sc.stations),
            format!("{:?}", sc.streams),
            format!("{:?}", sc.actions),
            format!("{:?}", sc.moves),
        ]
    }

    #[test]
    fn campus_is_bitwise_reproducible() {
        let cfg = CampusConfig::with_stations(48);
        let a = campus_topology(&cfg, MacKind::Macaw, RUN, 11);
        let b = campus_topology(&cfg, MacKind::Macaw, RUN, 11);
        assert!(!a.moves.is_empty(), "the default campus has movers");
        assert_eq!(plan(&a), plan(&b));
    }

    #[test]
    fn zero_share_schedules_no_batches() {
        let mut cfg = CampusConfig::with_stations(32);
        cfg.mobile_share = 0.0;
        let sc = campus_topology(&cfg, MacKind::Macaw, RUN, 3);
        let static_floor = scale_topology(&cfg.floor, MacKind::Macaw, 3);
        assert!(sc.moves.is_empty());
        assert_eq!(plan(&sc), plan(&static_floor));
    }

    #[test]
    fn movers_stay_inside_the_campus_rectangle() {
        let cfg = CampusConfig {
            mobile_share: 0.5,
            ..CampusConfig::with_stations(32)
        };
        let sc = campus_topology(&cfg, MacKind::Macaw, RUN, 7);
        let (lo, hi) = campus_rect(&sc);
        assert!(!sc.moves.is_empty(), "half the pads roam: batches exist");
        for &(_, p) in &sc.moves {
            // Waypoints are clamped to the rect; a position interpolates
            // between its start (inside) and a waypoint (inside).
            assert!(p.x >= lo.x - 1e-9 && p.x <= hi.x + 1e-9, "x = {}", p.x);
            assert!(p.y >= lo.y - 1e-9 && p.y <= hi.y + 1e-9, "y = {}", p.y);
            assert_eq!(p.z, 0.0, "ground stations roam on the ground");
        }
    }

    #[test]
    fn batches_couple_the_whole_mover_set() {
        // Two distant pairs are separate islands while static; a mover
        // batch that names stations of both merges them.
        let mut sc = Scenario::new(1);
        let a = sc.add_station("A", Point::new(0.0, 0.0, 0.0), MacKind::Macaw);
        sc.add_station("B", Point::new(4.0, 0.0, 0.0), MacKind::Macaw);
        let c = sc.add_station("C", Point::new(200.0, 0.0, 0.0), MacKind::Macaw);
        sc.add_station("D", Point::new(204.0, 0.0, 0.0), MacKind::Macaw);
        assert_eq!(sc.partition().unwrap().n_islands, 2);
        sc.move_stations_at(
            SimTime::ZERO + SimDuration::from_secs(1),
            &[(a, Point::new(1.0, 0.0, 0.0)), (c, Point::new(201.0, 0.0, 0.0))],
        );
        let p = sc.partition().unwrap();
        assert_eq!(p.n_islands, 1, "one batch event touches both pairs");
        assert_eq!(p.action_island[0], p.station_island[a]);
    }

    #[test]
    fn a_campus_runs_and_delivers_traffic() {
        let cfg = CampusConfig::with_stations(24);
        let sc = campus_topology(&cfg, MacKind::Macaw, RUN, 5);
        let r = sc.run(RUN, SimDuration::from_secs(1)).unwrap();
        assert!(
            r.total_throughput() > 0.0,
            "a moving campus still carries traffic"
        );
    }
}

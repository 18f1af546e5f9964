//! Conservative coupling partition: the islands a scenario decomposes into.
//!
//! The labels exist only for the event list's high-water mark in
//! [`Network::queue_stats`], which is a sum of one mark per island. That
//! figure is part of every [`RunReport`], so every build computes the
//! partition; it goes when the report takes the event list's own mark.
//!
//! The paper's near-field radio propagates *instantaneously* in the model
//! (zero propagation delay, per §2.1 and the paper's own simulator), and
//! under the hard interference cutoff a transmission contributes *exactly*
//! `+0.0` power beyond the 10 ft reception ball. Two stations that can
//! never reach each other therefore share no observable state at all. An
//! **island** is a connected component of the "can ever couple" graph,
//! which this module computes conservatively from the declarative
//! [`Scenario`]:
//!
//! * **Geometry** — stations couple when any pair of their position
//!   instances (initial placement plus every scheduled move target) comes
//!   within `max(reach_a, reach_b) + PAD` feet, where `reach_s = 10 ·
//!   (tx_power_s · max_link)^(1/γ)` is the stretched reception radius under
//!   the largest link-gain factor any action ever sets, and
//!   `COUPLING_PAD_FT` absorbs the medium's cube-center snapping. This
//!   over-approximates every radio interaction: interference (a 10 ft ball
//!   independent of power — the cutoff tests the raw geometric gain),
//!   reception, carrier sense, and link-gain rechecks.
//! * **Receiver-noise clique** — stations with a nonzero `rx_error_rate`
//!   draw from the *single shared* medium RNG stream on every clean
//!   delivery, so their relative delivery order is observable: they are all
//!   chained into one island.
//! * **Noise emitters** — every station that can ever sit inside an
//!   emitter's 10 ft ball (again power-independent) shares that emitter's
//!   ambient term; all hearers of one emitter are chained together and the
//!   emitter's toggle actions belong to that island. An emitter nobody can
//!   ever hear gets its own *synthetic* island so its (behaviorally inert)
//!   toggle events still have a deterministic home in the per-island event
//!   accounting.
//!
//! Streams and corruption windows need no edges of their own: endpoints
//! that are in range are already geometrically coupled, and endpoints that
//! never are cannot exchange a single frame — the sender's futile RTS
//! attempts play out entirely inside its own island. A corruption window
//! needs no island either: it only touches frames its source station
//! sends, so it acts inside that station's island.
//!
//! Under [`CutoffMode::Physical`] every station interferes with every other
//! at any distance, so the whole scenario is one island.
//!
//! The geometric rule is evaluated on a grid of cells one coupling radius
//! on a side. The position instances are sorted by (cell, union-find root,
//! index), so each cell is one contiguous run and the instances of
//! stations that are already connected form one group in it. Two groups
//! are compared only while they are in different components, and only up
//! to the first edge between them; each pair of adjacent cells is visited
//! once.
//!
//! [`CutoffMode::Physical`]: macaw_phy::CutoffMode::Physical
//! [`Network::queue_stats`]: crate::network::Network::queue_stats
//! [`RunReport`]: crate::stats::RunReport

use std::ops::Range;

use macaw_phy::{CutoffMode, Point, THRESHOLD_DISTANCE_FT};

use crate::network::ActionKind;
use crate::scenario::Scenario;

/// Slack added to every conservative coupling radius, in feet. The medium
/// snaps station and noise positions to 1 ft³ cube centers, displacing each
/// endpoint by at most √3/2 ft; 2.0 ft covers both endpoints of any pair
/// with margin. Padding only ever *merges* islands, so it can coarsen the
/// partition but never split a coupled pair.
const COUPLING_PAD_FT: f64 = 2.0;

/// The island decomposition of a scenario (see module docs). Island ids are
/// dense and deterministic: numbered by the smallest station index they
/// contain, synthetic noise islands last.
#[derive(Clone, Debug)]
pub struct Partition {
    /// Total island count, including synthetic islands for unheard noise
    /// emitters.
    pub n_islands: usize,
    /// Island of each station, by station index.
    pub station_island: Vec<u32>,
    /// Island of each declared stream (its source station's island).
    pub stream_island: Vec<u32>,
    /// Island of each scheduled action, in declaration order.
    pub action_island: Vec<u32>,
    /// Island of each noise emitter: its hearers' island, or a synthetic
    /// island of its own when nothing can ever hear it.
    pub noise_island: Vec<u32>,
}

#[cfg(test)]
impl Partition {
    /// Stations per island (station islands only; synthetic islands are
    /// empty by construction and report zero).
    fn island_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.n_islands];
        for &i in &self.station_island {
            sizes[i as usize] += 1;
        }
        sizes
    }
}

/// Union-find over station indices.
struct Dsu {
    parent: Vec<u32>,
}

impl Dsu {
    fn new(n: usize) -> Self {
        Dsu {
            parent: (0..n as u32).collect(),
        }
    }

    fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let gp = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = gp;
            x = gp;
        }
        x
    }

    fn union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            // Smaller root wins: keeps the final labeling independent of
            // union order (any deterministic rule would do).
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            self.parent[hi as usize] = lo;
        }
    }
}

/// Grid cell coordinates are clamped to ±2^62, so adding a neighbour
/// offset never overflows. Clamping is monotone: two points at most one
/// cell edge apart still land in the same or adjacent cells.
const CELL_LIMIT: i64 = 1 << 62;

/// The 13 neighbour offsets that come after a cell in key order. With the
/// cell itself they visit every pair of adjacent cells exactly once.
const FORWARD: [[i64; 3]; 13] = [
    [0, 0, 1],
    [0, 1, -1],
    [0, 1, 0],
    [0, 1, 1],
    [1, -1, -1],
    [1, -1, 0],
    [1, -1, 1],
    [1, 0, -1],
    [1, 0, 0],
    [1, 0, 1],
    [1, 1, -1],
    [1, 1, 0],
    [1, 1, 1],
];

/// The grid cell of `p` for cells `edge` feet on a side.
fn cell_of(p: Point, edge: f64) -> [i64; 3] {
    let axis = |v: f64| ((v / edge).floor() as i64).clamp(-CELL_LIMIT, CELL_LIMIT);
    [axis(p.x), axis(p.y), axis(p.z)]
}

/// Every position a station can ever occupy, in declaration order: the
/// initial placements, then the move table, which holds every move
/// batch's targets in action order.
fn position_instances(sc: &Scenario) -> impl Iterator<Item = (u32, Point)> + '_ {
    let initial = sc
        .stations
        .iter()
        .enumerate()
        .map(|(i, s)| (i as u32, s.pos));
    initial.chain(sc.moves.iter().map(|&(id, to)| (id.0 as u32, to)))
}

/// One position instance, keyed for the grid.
struct Instance {
    cell: [i64; 3],
    /// The station's union-find root when the grid was built.
    root: u32,
    /// Declaration order; makes the sort key unique.
    index: u32,
    station: u32,
    pos: Point,
}

/// Position instances sorted by (cell, root, index). Each occupied cell is
/// one contiguous run, and within it the instances of stations that were
/// already connected when the grid was built form one contiguous group.
struct Grid {
    inst: Vec<Instance>,
    /// Each group's first instance and root, then an `inst.len()` sentinel.
    groups: Vec<(u32, u32)>,
    /// Each occupied cell in key order with its first group, then a
    /// `[i64::MAX; 3]` sentinel that sorts after every real cell.
    cells: Vec<([i64; 3], u32)>,
}

impl Grid {
    fn new(sc: &Scenario, dsu: &mut Dsu, edge: f64) -> Grid {
        // Room for every initial position and move target.
        let mut inst = Vec::with_capacity(sc.stations.len() + sc.moves.len());
        inst.extend(
            position_instances(sc)
                .enumerate()
                .map(|(index, (station, pos))| Instance {
                    cell: cell_of(pos, edge),
                    root: dsu.find(station),
                    index: index as u32,
                    station,
                    pos,
                }),
        );
        inst.sort_unstable_by_key(|i| (i.cell, i.root, i.index));
        let (mut groups, mut cells) = (Vec::new(), Vec::new());
        for (k, i) in inst.iter().enumerate() {
            let new_cell = k == 0 || inst[k - 1].cell != i.cell;
            if new_cell {
                cells.push((i.cell, groups.len() as u32));
            }
            if new_cell || inst[k - 1].root != i.root {
                groups.push((k as u32, i.root));
            }
        }
        cells.push(([i64::MAX; 3], groups.len() as u32));
        groups.push((inst.len() as u32, u32::MAX));
        Grid {
            inst,
            groups,
            cells,
        }
    }

    /// The instances of group `g`.
    fn group(&self, g: usize) -> &[Instance] {
        &self.inst[self.groups[g].0 as usize..self.groups[g + 1].0 as usize]
    }

    /// The groups of occupied cell `c`.
    fn groups_in(&self, c: usize) -> Range<usize> {
        self.cells[c].1 as usize..self.cells[c + 1].1 as usize
    }

    /// Union every two stations that have instances within coupling range
    /// of each other, counting distance evaluations in `evals`.
    fn couple(&self, reach: &[f64], dsu: &mut Dsu, evals: &mut u64) {
        let mut cursor = [0usize; FORWARD.len()];
        for c in 0..self.cells.len() - 1 {
            self.couple_cells(c, c, reach, dsu, evals);
            let key = self.cells[c].0;
            for (off, p) in FORWARD.iter().zip(&mut cursor) {
                let target = [key[0] + off[0], key[1] + off[1], key[2] + off[2]];
                // Targets ascend with `c`, so each cursor only moves forward.
                while self.cells[*p].0 < target {
                    *p += 1;
                }
                if self.cells[*p].0 == target {
                    self.couple_cells(c, *p, reach, dsu, evals);
                }
            }
        }
    }

    /// Compare the groups of cell `a` with those of cell `b` (each pair once
    /// when they are the same cell). A pair of groups is compared only
    /// while their stations are in different components, and only up to
    /// the first edge between them: all of a group's stations are already
    /// in one component, so that edge merges the same two components as
    /// any other edge between the groups would.
    fn couple_cells(&self, a: usize, b: usize, reach: &[f64], dsu: &mut Dsu, evals: &mut u64) {
        let theirs = self.groups_in(b);
        for g in self.groups_in(a) {
            let from = if a == b { g + 1 } else { theirs.start };
            for h in from..theirs.end {
                if dsu.find(self.groups[g].1) == dsu.find(self.groups[h].1) {
                    continue;
                }
                'scan: for x in self.group(g) {
                    for y in self.group(h) {
                        *evals += 1;
                        let r = reach[x.station as usize].max(reach[y.station as usize])
                            + COUPLING_PAD_FT;
                        if x.pos.distance(y.pos) <= r {
                            dsu.union(x.station, y.station);
                            break 'scan;
                        }
                    }
                }
            }
        }
    }
}

/// Compute the island partition of a (defect-free) scenario. See the
/// module docs for the coupling rules; [`Scenario::partition`] is the
/// validated public entry point.
pub(crate) fn compute(sc: &Scenario) -> Partition {
    compute_counted(sc).0
}

/// [`compute`], also returning the number of position-instance pairs whose
/// distance the geometric pass evaluated: a deterministic op count the
/// complexity tests hold it to.
fn compute_counted(sc: &Scenario) -> (Partition, u64) {
    let n = sc.stations.len();
    let cfg = sc.prop;
    let mut dsu = Dsu::new(n);

    // A move batch is a single event that touches the medium state of
    // every station it names, so all of them must share an island.
    for a in &sc.actions {
        if let ActionKind::MoveBatch { start, len } = a.kind {
            let batch = &sc.moves[start as usize..(start + len) as usize];
            for w in batch.windows(2) {
                dsu.union(w[0].0 .0 as u32, w[1].0 .0 as u32);
            }
        }
    }

    // Receiver-noise clique: all rx-error stations share the medium RNG.
    let mut prev_noisy: Option<u32> = None;
    for (i, s) in sc.stations.iter().enumerate() {
        if s.rx_error_rate > 0.0 {
            if let Some(p) = prev_noisy {
                dsu.union(p, i as u32);
            }
            prev_noisy = Some(i as u32);
        }
    }

    let mut first_hearer: Vec<Option<u32>> = vec![None; sc.noise.len()];
    let mut evals = 0u64;
    if matches!(cfg.cutoff, CutoffMode::Physical) {
        for i in 1..n as u32 {
            dsu.union(0, i);
        }
        if n > 0 {
            first_hearer.fill(Some(0));
        }
    } else {
        // Largest link-gain factor any action ever sets (monotone bound, as
        // in the sparse medium's ring-search sizing).
        let mut max_link = 1.0f64;
        for a in &sc.actions {
            if let ActionKind::SetLinkGain { factor, .. } = a.kind {
                max_link = max_link.max(factor);
            }
        }
        // Stretched reception radius per station; the interference ball
        // (exactly `THRESHOLD_DISTANCE_FT`, power-independent) is always
        // covered because the effective multiplier is clamped at ≥ 1.
        let reach: Vec<f64> = sc
            .stations
            .iter()
            .map(|s| {
                let eff = (s.tx_power * max_link).max(1.0);
                THRESHOLD_DISTANCE_FT * eff.powf(1.0 / cfg.gamma)
            })
            .collect();
        // Every coupling radius fits in one cell edge, so two instances
        // that can couple lie in the same or adjacent cells.
        let max_radius = reach.iter().cloned().fold(0.0f64, f64::max) + COUPLING_PAD_FT;
        let grid = Grid::new(sc, &mut dsu, max_radius.ceil().max(1.0));
        grid.couple(&reach, &mut dsu, &mut evals);

        // Noise emitters: chain every station that can ever enter the 10 ft
        // ball (any position instance; the ball is power-independent because
        // the cutoff tests the raw geometric gain).
        let noise_reach = THRESHOLD_DISTANCE_FT + COUPLING_PAD_FT;
        for (&(pos, _, _), h) in sc.noise.iter().zip(&mut first_hearer) {
            for i in grid.inst.iter().filter(|i| i.pos.distance(pos) <= noise_reach) {
                let first = *h.get_or_insert(i.station);
                dsu.union(first, i.station);
            }
        }
    }
    (label(sc, &mut dsu, &first_hearer), evals)
}

/// Number the components of `dsu` densely by smallest member station
/// (synthetic islands for unheard emitters last) and give every stream,
/// action and emitter its island.
fn label(sc: &Scenario, dsu: &mut Dsu, first_hearer: &[Option<u32>]) -> Partition {
    let n = sc.stations.len();
    // Dense renumbering by smallest member station index.
    let mut label = vec![u32::MAX; n];
    let mut next = 0u32;
    for i in 0..n as u32 {
        let r = dsu.find(i) as usize;
        if label[r] == u32::MAX {
            label[r] = next;
            next += 1;
        }
    }
    let station_island: Vec<u32> = (0..n as u32)
        .map(|i| label[dsu.find(i) as usize])
        .collect();

    // Synthetic islands for emitters nobody can ever hear.
    let mut noise_island = vec![0u32; sc.noise.len()];
    for (e, h) in first_hearer.iter().enumerate() {
        noise_island[e] = match h {
            Some(s) => station_island[*s as usize],
            None => {
                let id = next;
                next += 1;
                id
            }
        };
    }

    let stream_island: Vec<u32> = sc
        .streams
        .iter()
        .map(|st| station_island[st.src])
        .collect();
    let action_island: Vec<u32> = sc
        .actions
        .iter()
        .map(|a| match a.kind {
            ActionKind::PowerOff { station }
            | ActionKind::Crash { station, .. }
            | ActionKind::Restart { station } => station_island[station],
            ActionKind::SetLinkGain { src, .. } => station_island[src],
            ActionKind::SetNoise { index, .. } => noise_island[index],
            // Batches are never empty (the builder drops empty ones), and
            // every batch station shares one island by the unions above.
            ActionKind::MoveBatch { start, .. } => {
                station_island[sc.moves[start as usize].0 .0]
            }
        })
        .collect();

    Partition {
        n_islands: next as usize,
        station_island,
        stream_island,
        action_island,
        noise_island,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mobility::{campus_topology, CampusConfig};
    use crate::scenario::MacKind;
    use crate::topology::{scale_topology, ScaleConfig};
    use macaw_phy::PropagationConfig;
    use macaw_sim::{SimDuration, SimRng, SimTime};

    fn at(s: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(s)
    }

    #[test]
    fn far_stations_form_separate_islands() {
        let mut sc = Scenario::new(1);
        sc.add_station("A", Point::new(0.0, 0.0, 0.0), MacKind::Macaw);
        sc.add_station("B", Point::new(100.0, 0.0, 0.0), MacKind::Macaw);
        let p = sc.partition().unwrap();
        assert_eq!(p.n_islands, 2);
        assert_ne!(p.station_island[0], p.station_island[1]);
    }

    #[test]
    fn in_range_stations_share_an_island() {
        let mut sc = Scenario::new(1);
        sc.add_station("A", Point::new(0.0, 0.0, 0.0), MacKind::Macaw);
        sc.add_station("B", Point::new(9.0, 0.0, 0.0), MacKind::Macaw);
        let p = sc.partition().unwrap();
        assert_eq!(p.n_islands, 1);
    }

    #[test]
    fn a_move_target_merges_its_destination_island() {
        let mut sc = Scenario::new(1);
        let a = sc.add_station("A", Point::new(0.0, 0.0, 0.0), MacKind::Macaw);
        sc.add_station("B", Point::new(100.0, 0.0, 0.0), MacKind::Macaw);
        sc.move_station_at(at(5), a, Point::new(95.0, 0.0, 0.0));
        let p = sc.partition().unwrap();
        assert_eq!(p.n_islands, 1, "the mover can end up in range of B");
        assert_eq!(p.action_island[0], p.station_island[a]);
    }

    #[test]
    fn tx_power_stretches_the_coupling_radius() {
        let mut sc = Scenario::new(1);
        let a = sc.add_station("A", Point::new(0.0, 0.0, 0.0), MacKind::Macaw);
        sc.add_station("B", Point::new(25.0, 0.0, 0.0), MacKind::Macaw);
        assert_eq!(sc.partition().unwrap().n_islands, 2);
        // 10 · 1000^(1/6) ≈ 31.6 ft reach: now coupled.
        sc.set_tx_power(a, 1000.0);
        assert_eq!(sc.partition().unwrap().n_islands, 1);
    }

    #[test]
    fn rx_error_stations_are_chained_into_one_island() {
        let mut sc = Scenario::new(1);
        let a = sc.add_station("A", Point::new(0.0, 0.0, 0.0), MacKind::Macaw);
        let b = sc.add_station("B", Point::new(200.0, 0.0, 0.0), MacKind::Macaw);
        sc.add_station("C", Point::new(400.0, 0.0, 0.0), MacKind::Macaw);
        assert_eq!(sc.partition().unwrap().n_islands, 3);
        sc.set_rx_error_rate(a, 0.01);
        sc.set_rx_error_rate(b, 0.01);
        let p = sc.partition().unwrap();
        assert_eq!(p.n_islands, 2, "shared medium RNG couples A and B");
        assert_eq!(p.station_island[0], p.station_island[1]);
    }

    #[test]
    fn noise_emitters_couple_their_hearers_or_get_synthetic_islands() {
        let mut sc = Scenario::new(1);
        sc.add_station("A", Point::new(0.0, 0.0, 0.0), MacKind::Macaw);
        sc.add_station("B", Point::new(16.0, 0.0, 0.0), MacKind::Macaw);
        // An emitter between them: both are within its 10+pad ball.
        let heard = sc.add_noise_source(Point::new(8.0, 0.0, 0.0), 4.0, false);
        // An emitter in the void: nobody can ever hear it.
        let orphan = sc.add_noise_source(Point::new(500.0, 0.0, 0.0), 4.0, false);
        sc.set_noise_at(at(1), heard, true);
        sc.set_noise_at(at(2), orphan, true);
        let p = sc.partition().unwrap();
        assert_eq!(p.station_island[0], p.station_island[1]);
        assert_eq!(p.noise_island[heard], p.station_island[0]);
        assert_eq!(p.noise_island[orphan] as usize, p.n_islands - 1);
        assert_eq!(p.n_islands, 2, "one station island plus one synthetic");
        assert_eq!(p.action_island[1], p.noise_island[orphan]);
    }

    #[test]
    fn physical_cutoff_collapses_everything_into_one_island() {
        let mut sc = Scenario::new(1);
        sc.propagation(PropagationConfig {
            cutoff: macaw_phy::CutoffMode::Physical,
            ..PropagationConfig::default()
        });
        sc.add_station("A", Point::new(0.0, 0.0, 0.0), MacKind::Macaw);
        sc.add_station("B", Point::new(1000.0, 0.0, 0.0), MacKind::Macaw);
        assert_eq!(sc.partition().unwrap().n_islands, 1);
    }

    /// The coupling rules stated directly: every pair of position
    /// instances and every instance against every emitter, no grid.
    fn all_pairs(sc: &Scenario) -> Partition {
        let n = sc.stations.len();
        let cfg = sc.prop;
        let mut dsu = Dsu::new(n);
        let mut hearer = vec![None; sc.noise.len()];
        for a in &sc.actions {
            if let ActionKind::MoveBatch { start, len } = a.kind {
                let batch = &sc.moves[start as usize..(start + len) as usize];
                for &(id, _) in batch {
                    dsu.union(batch[0].0 .0 as u32, id.0 as u32);
                }
            }
        }
        let noisy: Vec<u32> = (0..n as u32)
            .filter(|&i| sc.stations[i as usize].rx_error_rate > 0.0)
            .collect();
        for &i in &noisy {
            dsu.union(noisy[0], i);
        }
        if matches!(cfg.cutoff, CutoffMode::Physical) {
            for i in 0..n as u32 {
                dsu.union(0, i);
            }
            hearer.fill((n > 0).then_some(0));
        } else {
            let max_link = sc
                .actions
                .iter()
                .filter_map(|a| match a.kind {
                    ActionKind::SetLinkGain { factor, .. } => Some(factor),
                    _ => None,
                })
                .fold(1.0, f64::max);
            let reach = |s: u32| {
                let eff = (sc.stations[s as usize].tx_power * max_link).max(1.0);
                THRESHOLD_DISTANCE_FT * eff.powf(1.0 / cfg.gamma)
            };
            let inst: Vec<(u32, Point)> = position_instances(sc).collect();
            for (k, &(a, pa)) in inst.iter().enumerate() {
                for &(b, pb) in &inst[k + 1..] {
                    if a != b && pa.distance(pb) <= reach(a).max(reach(b)) + COUPLING_PAD_FT {
                        dsu.union(a, b);
                    }
                }
            }
            let noise_reach = THRESHOLD_DISTANCE_FT + COUPLING_PAD_FT;
            for (&(pos, _, _), h) in sc.noise.iter().zip(&mut hearer) {
                for &(s, p) in &inst {
                    if p.distance(pos) <= noise_reach {
                        let first = *h.get_or_insert(s);
                        dsu.union(first, s);
                    }
                }
            }
        }
        label(sc, &mut dsu, &hearer)
    }

    /// A random scenario touching every coupling rule: 2–40 stations around
    /// the origin (negative coordinates, five levels), stretched tx powers
    /// and link gains, single moves and batches (some naming a station
    /// twice), heard and orphan emitters, an rx-error clique, streams,
    /// corruption windows and per-station actions. Case 0 runs under the
    /// physical cutoff.
    fn random_scenario(case: u64) -> Scenario {
        let mut rng = SimRng::new(0xC0_0C1E ^ case);
        let mut sc = Scenario::new(case);
        if case == 0 {
            sc.propagation(PropagationConfig {
                cutoff: CutoffMode::Physical,
                ..PropagationConfig::default()
            });
        }
        let n = rng.uniform_inclusive(2, 40) as usize;
        // From one crowded room to stations scattered far beyond reach.
        let span = [16.0, 48.0, 120.0, 400.0][rng.uniform_inclusive(0, 3) as usize];
        let point = |rng: &mut SimRng| {
            let axis = |rng: &mut SimRng| {
                let v = (rng.uniform_f64() - 0.5) * span;
                // Whole feet put some instances exactly on cell borders.
                if rng.chance(0.3) {
                    v.round()
                } else {
                    v
                }
            };
            let z = [-6.0, 0.0, 0.0, 6.0, 18.0][rng.uniform_inclusive(0, 4) as usize];
            Point::new(axis(rng), axis(rng), z)
        };
        for i in 0..n {
            sc.add_station(&format!("S{i}"), point(&mut rng), MacKind::Macaw);
            if rng.chance(0.2) {
                sc.set_tx_power(
                    i,
                    [0.5, 2.0, 64.0, 1000.0][rng.uniform_inclusive(0, 3) as usize],
                );
            }
            if rng.chance(0.15) {
                sc.set_rx_error_rate(i, 0.01);
            }
        }
        let pick = |rng: &mut SimRng| rng.uniform_inclusive(0, n as u64 - 1) as usize;
        let pair = |rng: &mut SimRng| {
            let a = pick(rng);
            (
                a,
                (a + 1 + rng.uniform_inclusive(0, n as u64 - 2) as usize) % n,
            )
        };
        for k in 0..rng.uniform_inclusive(0, 3) {
            let (src, dst) = pair(&mut rng);
            let factor = [0.0, 0.5, 4.0, 40.0][rng.uniform_inclusive(0, 3) as usize];
            sc.set_link_gain_at(at(1 + k), src, dst, factor);
        }
        for k in 0..rng.uniform_inclusive(0, 4) {
            let (s, to) = (pick(&mut rng), point(&mut rng));
            sc.move_station_at(at(2 + k), s, to);
        }
        for k in 0..rng.uniform_inclusive(0, 3) {
            let mut batch: Vec<(usize, Point)> = (0..rng.uniform_inclusive(1, 5))
                .map(|_| (pick(&mut rng), point(&mut rng)))
                .collect();
            if rng.chance(0.5) {
                // The same station twice in one batch.
                batch.push((batch[0].0, point(&mut rng)));
            }
            sc.move_stations_at(at(3 + k), &batch);
        }
        for k in 0..rng.uniform_inclusive(0, 3) {
            let pos = if rng.chance(0.6) {
                // Near a station: heard unless the offset leaves its ball.
                let s = sc.station_position(pick(&mut rng)).unwrap();
                let d = |rng: &mut SimRng| (rng.uniform_f64() - 0.5) * 24.0;
                Point::new(s.x + d(&mut rng), s.y + d(&mut rng), s.z)
            } else {
                // Far outside the scenario: nobody hears it.
                Point::new(10.0 * span, -10.0 * span, 0.0)
            };
            let e = sc.add_noise_source(pos, 4.0, false);
            sc.set_noise_at(at(4 + k), e, true);
        }
        for k in 0..rng.uniform_inclusive(0, 4) {
            let (src, dst) = pair(&mut rng);
            sc.add_udp_stream(&format!("u{k}"), src, dst, 8, 512);
        }
        for _ in 0..rng.uniform_inclusive(0, 2) {
            let (src, dst) = pair(&mut rng);
            sc.corrupt_link(src, dst, at(1), at(5), SimDuration::from_millis(1));
        }
        let s = pick(&mut rng);
        sc.power_off_at(at(6), s);
        let s = pick(&mut rng);
        sc.crash_at(at(6), s, true).restart_at(at(7), s);
        sc
    }

    #[test]
    fn the_grid_matches_an_all_pairs_oracle_on_random_scenarios() {
        let (mut split, mut merged, mut heard, mut orphaned) = (0, 0, 0, 0);
        for case in 0..400 {
            let sc = random_scenario(case);
            let (fast, slow) = (compute(&sc), all_pairs(&sc));
            let at = format!("case {case}");
            assert_eq!(fast.n_islands, slow.n_islands, "{at}: n_islands");
            assert_eq!(fast.station_island, slow.station_island, "{at}: stations");
            assert_eq!(fast.stream_island, slow.stream_island, "{at}: streams");
            assert_eq!(fast.action_island, slow.action_island, "{at}: actions");
            assert_eq!(fast.noise_island, slow.noise_island, "{at}: emitters");
            let station_islands = fast.island_sizes().iter().filter(|&&s| s > 0).count();
            split += usize::from(station_islands > 1);
            merged += usize::from(station_islands < sc.stations.len());
            heard += fast
                .noise_island
                .iter()
                .filter(|&&i| (i as usize) < station_islands)
                .count();
            orphaned += fast.noise_island.len();
        }
        orphaned -= heard;
        assert!(
            split > 0 && merged > 0 && heard > 0 && orphaned > 0,
            "the cases must reach every outcome: {split} split, {merged} merged, \
             {heard} heard and {orphaned} orphan emitters"
        );
    }

    /// The `campus_walk` benchmark scenario: N = 4096, 90 % of ground
    /// stations walking at 32 ft/s, one move batch per 50 ms tick, 1 s.
    /// Nearly all of its instances belong to walkers that one batch
    /// already connects.
    #[test]
    fn a_walking_campus_evaluates_fewer_distances_than_it_has_instances() {
        let mut cfg = CampusConfig::with_stations(4096);
        cfg.mobile_share = 0.9;
        cfg.waypoint.speed_fps = 32.0;
        cfg.waypoint.tick = SimDuration::from_millis(50);
        let sc = campus_topology(&cfg, MacKind::Macaw, SimDuration::from_secs(1), 5);
        let instances = position_instances(&sc).count() as u64;
        let (_, evals) = compute_counted(&sc);
        assert!(
            evals < instances,
            "{evals} distance evaluations for {instances} position instances"
        );
    }

    /// On a static floor every station is its own group, so the grid
    /// evaluates at most the pairs a per-instance scan of the 27
    /// surrounding cells would.
    #[test]
    fn a_static_floor_evaluates_no_more_distances_than_a_cell_scan() {
        let sc = scale_topology(&ScaleConfig::with_stations(1024), MacKind::Macaw, 3);
        // 12 ft cells: the default 10 ft reach plus the pad.
        let inst: Vec<(u32, [i64; 3])> = position_instances(&sc)
            .map(|(s, p)| (s, cell_of(p, 12.0)))
            .collect();
        let mut candidates = 0u64;
        for (k, (a, ca)) in inst.iter().enumerate() {
            for (b, cb) in &inst[k + 1..] {
                if a != b && (0..3).all(|d| (ca[d] - cb[d]).abs() <= 1) {
                    candidates += 1;
                }
            }
        }
        let (_, evals) = compute_counted(&sc);
        assert!(
            evals > 0 && evals <= candidates,
            "{evals} distance evaluations against {candidates} cell-scan candidates"
        );
    }
}

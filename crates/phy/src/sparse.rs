//! The sparse cube-grid medium: O(N·k) scaling for large station counts.
//!
//! [`SparseMedium`] implements [`Medium`] with the same bit-exact semantics
//! as its oracle [`ReferenceMedium`](crate::reference::ReferenceMedium) but
//! without any `N×N` state or O(N) scans. The paper's near-field radio
//! makes that possible: under the hard interference cutoff
//! ([`CutoffMode::Hard`]), a transmission contributes *exactly zero*
//! interference beyond the reception range (10 ft), so only a small
//! geometric neighborhood of each station can ever carry or corrupt a
//! packet. The medium exploits that with three structures:
//!
//! * A [`BucketGrid`] spatial hash over the paper's own 1 ft³ cube grid,
//!   coarsened to the reception radius (10 ft cells): every station lives
//!   in one bucket, and any ball of radius ≤ one cell edge is covered by
//!   the 3³ ring of cells around its center (clipped to the occupied
//!   bounds: 3² cells on a one-storey floor). Stations sit at cube
//!   centers, so pairwise coordinate deltas are integers and the one-ring
//!   bound is exact even at the knife-edge 10.0 ft distance.
//! * `nbrs[b]` — the ascending list of stations within the cutoff ball of
//!   `b`, with their path gains cached. Under the hard cutoff this is
//!   *exactly* the set with nonzero interference gain at `b`, independent
//!   of transmit powers and link factors (the cutoff tests the raw
//!   geometric power before either multiplier is applied). Integer deltas
//!   also make every squared distance within one ring an integer ≤ 1083,
//!   so inserts and moves take path gains from a per-medium table keyed
//!   by it — the same `powf` of the same `d²`, computed once — and derive
//!   each interference gain from its path gain.
//! * Sparse per-station link-override lists replacing the reference's
//!   `N×N` link matrix (absent entry ⇒ factor 1.0, a multiplicative
//!   identity).
//!
//! # Bit-exactness
//!
//! The reference medium folds interference sums left-to-right over its
//! active transmission list; IEEE-754 addition is not associative, so the
//! sparse medium replays the *same* fold — it walks the same global active
//! list in the same order and looks each source up in the receiver's
//! neighbor list.
//! A source absent from the list would contribute `tx_power · link · 0.0 =
//! +0.0`, and adding `+0.0` to a non-negative partial sum is a bit-exact
//! identity, so skipping absent sources changes nothing. The same identity
//! makes every O(k)-localized update exact: an operation only needs to
//! refold stations whose *nonzero* fold terms changed membership or order,
//! because all other stations' folds are term-for-term bit-identical.
//!
//! # The stamp-ordered active slab
//!
//! Active transmissions live in a **free-list slab**, not an ordered list:
//! `start_tx` fills a recycled (or fresh) slot in O(1), `end_tx` vacates it
//! in O(1) — no shifting, no global position renumbering — and an id→slot
//! map answers every `tx` lookup in O(1). Each entry carries a monotone
//! **admission stamp**; because the reference's active list is append-only
//! with in-place removal, its fold order *is* admission order, so a
//! restricted fold reproduces the reference's exact term sequence by
//! sorting its O(k) local subset by stamp. Slot indices carry no ordering
//! meaning at all: a slot freed mid-schedule and recycled by a younger
//! transmission folds last (largest stamp) even though its slot index is
//! smallest. This is what makes per-event cost a function of the radio
//! neighborhood only, never of the global active count.
//!
//! Per-operation refold sets (station counts, not matrix rows):
//!
//! * `start_tx` appends one fold term — add the contribution to the running
//!   sums of the transmitter and its neighbors (append preserves the fold,
//!   and a fresh stamp is by construction the largest).
//! * `end_tx` vacates the slot, deleting one term — refold around the ended
//!   source only. Stamp order makes every fold a function of the station's
//!   own radio neighborhood: the active sub-sequence visible at a station
//!   never depends on when unrelated transmissions elsewhere end.
//! * A move changes terms involving the mover only — refold the mover,
//!   plus its old and new neighborhoods if it is mid-transmission, once per
//!   `set_positions` batch (a single `set_position` is a batch of one).
//! * `set_tx_power` / `set_link_gain` scale one source's terms — refold its
//!   neighborhood / the one affected destination.
//!
//! Audibility (`audible[src]`, who can *receive* `src`, no cutoff applied)
//! is the one structure that stretches with transmit power: its radius is
//! `10 · (power · link)^(1/γ)` ft. Candidate searches size their ring count
//! from monotone upper bounds (`max_tx_power`, `max_link` never decrease),
//! so a lowered power costs a few extra empty cells, never a missed
//! station.
//!
//! Under [`CutoffMode::Physical`] every station interferes everywhere; the
//! neighbor lists then simply hold all stations and the medium degrades to
//! the reference's O(N)-per-query complexity while staying bit-exact. The paper's
//! experiments all use the hard cutoff.
//!
//! [`CutoffMode::Hard`]: crate::propagation::CutoffMode::Hard
//! [`CutoffMode::Physical`]: crate::propagation::CutoffMode::Physical
//! [`BucketGrid`]: macaw_sim::BucketGrid

use std::cell::Cell;

use macaw_sim::{BucketGrid, FastHashMap, SimRng, SimTime};

use crate::geometry::{cube_center, Point};
use crate::medium::{Delivery, Medium, MediumStats, StationId, TxId};
use crate::propagation::{CutoffMode, Propagation, THRESHOLD_DISTANCE_FT};

/// Grid cell edge in feet: the reception radius, rounded up.
const CELL_EDGE: i64 = THRESHOLD_DISTANCE_FT.ceil() as i64;

/// Entries of the path-gain table, keyed by squared distance. Cube centres
/// in adjacent cells differ by at most `2·CELL_EDGE − 1` ft per axis, so
/// every pair a one-ring search finds has d² ≤ 3·(2·CELL_EDGE − 1)².
const GAIN_TABLE_LEN: usize = 3 * (2 * CELL_EDGE as usize - 1).pow(2) + 1;

struct StationEntry {
    pos: Point,
    transmitting: Option<TxId>,
    rx_error_rate: f64,
    tx_power: f64,
}

/// One occupied slab slot. `stamp` is the admission stamp — strictly
/// increasing in `start_tx` order — that restricted folds sort by to
/// reproduce the reference medium's append-only active-list fold order.
struct ActiveTx {
    id: TxId,
    source: StationId,
    start: SimTime,
    stamp: u64,
}

/// One open reception, stored in its transmission's per-slot list (the
/// owning `TxId` is implied by the slot), ascending by `rx`.
struct Reception {
    rx: StationId,
    signal: f64,
    clean: bool,
}

struct NoiseSource {
    pos: Point,
    power: f64,
    active: bool,
}

/// One station inside another's interference-cutoff ball, with the
/// geometry-derived gains cached (these change only when one of the pair
/// moves, at which point the entry is rebuilt).
#[derive(Clone, Copy)]
struct Neighbor {
    idx: usize,
    /// `power_at_distance(d)` — no cutoff; signal-strength computations.
    gain: f64,
    /// `interference_power(d)` — cutoff applied; interference folds.
    int_gain: f64,
}

/// The sparse cube-grid radio medium (see module docs).
pub struct SparseMedium {
    prop: Propagation,
    /// `CutoffMode::Physical`: interference has no cutoff, so neighbor
    /// lists hold every station and ring searches enumerate all of them.
    physical: bool,
    stations: Vec<StationEntry>,
    /// The active-transmission slab: `None` slots are free (chained through
    /// `free`), occupied slots hold stamp-carrying entries. Never iterated
    /// on a hot path — restricted folds reach it through `active_slot` and
    /// `slot_of`.
    slab: Vec<Option<ActiveTx>>,
    /// Free-slot stack (LIFO). `start_tx` pops, `end_tx` pushes: O(1) both
    /// ways, and the slab never grows past the high-water active count.
    free: Vec<usize>,
    /// `TxId` raw → slab slot, for O(1) `end_tx`/`tx_start`/`tx_source`
    /// lookups. Only ever *looked up*, never iterated, so hash-order
    /// nondeterminism cannot leak into results.
    slot_of: FastHashMap<u64, usize>,
    /// Live entries in `slab` (it has holes; `slab.len()` overcounts).
    active_len: usize,
    /// Next admission stamp (provably equal to `next_tx`, but kept separate
    /// so fold correctness never silently couples to TxId allocation).
    next_stamp: u64,
    /// Open receptions of each active transmission, indexed by slab slot
    /// (parallel to `slab`) and ascending by `rx` (opened in `audible`
    /// order, which is ascending). `end_tx` takes the whole list in O(k);
    /// no global reception vector exists to scan or compact.
    rx_of: Vec<Vec<Reception>>,
    /// Slab slots with an open reception *at* each station — the per-rx
    /// side of the dual index. `start_tx`'s half-duplex and drown passes
    /// visit only `recs_at[rx]` for the stations they can affect, so their
    /// cost tracks the local neighborhood, not the global active count.
    recs_at: Vec<Vec<u32>>,
    noise: Vec<NoiseSource>,
    rng: SimRng,
    next_tx: u64,
    grid: BucketGrid,
    /// Ascending interference neighbors of each station (excluding itself).
    nbrs: Vec<Vec<Neighbor>>,
    /// Sparse link overrides: ascending `(dst, factor)` per source. Entries
    /// persist once created (a factor reset to 1.0 is an exact identity).
    link_out: Vec<Vec<(usize, f64)>>,
    /// Ascending station indices that can receive `src`'s transmissions at
    /// its current power — who hears `src` transmit.
    audible: Vec<Vec<usize>>,
    /// Summed active spatial-noise power at each station, in noise order.
    ambient: Vec<f64>,
    /// `ambient[b]` plus every active transmission's interference power at
    /// `b`, folded in active-list order (see module docs).
    incident: Vec<f64>,
    /// `interference_power(0.0)` — a transmitter's own fold term.
    self_gain: f64,
    /// Monotone upper bound on every power ever set (ring-search sizing).
    max_tx_power: f64,
    /// Monotone upper bound on every link factor ever set.
    max_link: f64,
    /// `true` while every tx power and link factor ever set is exactly 1.0
    /// — the paper's uniform radio. Monotone: any override clears it for
    /// good (the `max_*` bounds cannot stand in, because a *sub*-1.0
    /// override leaves them at 1.0 while breaking uniformity). While set
    /// (and the cutoff is hard), audibility coincides exactly with the
    /// interference ball — `int_gain > 0 ⟺ gain ≥ threshold` — so an
    /// insert takes audibility from the newcomer's neighbor list and a
    /// move derives audible-list deltas from the neighbor merge, instead
    /// of running ring searches.
    uniform_radio: bool,
    /// Reusable candidate buffers (no steady-state allocation).
    scratch_a: Vec<usize>,
    scratch_b: Vec<usize>,
    /// Reusable mover buffer: the neighbor list being rebuilt swaps
    /// through here, so steady-state moves allocate nothing.
    scratch_nbr: Vec<Neighbor>,
    /// Reusable deferred-refold target list for [`Medium::set_positions`].
    scratch_refold: Vec<usize>,
    /// Each station's slab slot (`usize::MAX` while idle), so a refold can
    /// enumerate the nearby active transmissions without scanning anything
    /// global; their fold order comes from the slots' stamps.
    active_slot: Vec<usize>,
    /// Reusable `(stamp, source, int_gain)` buffer for
    /// [`Self::fold_incident_fast`] and [`Self::interference_at_fast`].
    scratch_fold: Vec<(u64, usize, f64)>,
    /// Stamp-marked scatter of one station's neighbor list: `mark[b]`
    /// holds `(mark_stamp, int_gain, gain)` when `b` was a neighbor of the
    /// last stamped station — an O(1) replacement for the `nbrs` binary
    /// search on hot per-reception loops.
    mark: Vec<(u64, f64, f64)>,
    mark_stamp: u64,
    /// How many stations in `{b} ∪ nbrs[b]` are currently transmitting —
    /// lets a refold skip idle neighborhoods and stop its neighbor scan
    /// as soon as every active one has been found.
    near_count: Vec<u32>,
    /// Side-channel operation counters (updated through a `Cell` so the
    /// `&self` query paths can count too). Reported by
    /// [`Medium::medium_stats`]; never part of a `RunReport`.
    stats: Cell<MediumStats>,
    /// `power_at_distance(√k)` at index `k`, computed on first use (NaN
    /// until then); see [`Self::gain_at_squared`]. A fixed array rather than a
    /// heap table, so it adds nothing to `memory_footprint`.
    gains: [Cell<f64>; GAIN_TABLE_LEN],
}

impl Medium for SparseMedium {
    fn new(prop: Propagation, rng: SimRng) -> Self {
        let physical = matches!(prop.config().cutoff, CutoffMode::Physical);
        let self_gain = prop.interference_power(0.0);
        SparseMedium {
            prop,
            physical,
            stations: Vec::new(),
            slab: Vec::new(),
            free: Vec::new(),
            slot_of: FastHashMap::default(),
            active_len: 0,
            next_stamp: 0,
            rx_of: Vec::new(),
            recs_at: Vec::new(),
            noise: Vec::new(),
            rng,
            next_tx: 0,
            grid: BucketGrid::new(),
            nbrs: Vec::new(),
            link_out: Vec::new(),
            audible: Vec::new(),
            ambient: Vec::new(),
            incident: Vec::new(),
            self_gain,
            max_tx_power: 1.0,
            max_link: 1.0,
            uniform_radio: true,
            scratch_a: Vec::new(),
            scratch_b: Vec::new(),
            scratch_nbr: Vec::new(),
            scratch_refold: Vec::new(),
            active_slot: Vec::new(),
            scratch_fold: Vec::new(),
            mark: Vec::new(),
            mark_stamp: 0,
            near_count: Vec::new(),
            stats: Cell::new(MediumStats::default()),
            gains: [const { Cell::new(f64::NAN) }; GAIN_TABLE_LEN],
        }
    }

    fn propagation(&self) -> &Propagation {
        &self.prop
    }

    fn add_station(&mut self, pos: Point) -> StationId {
        let idx = self.stations.len();
        let id = StationId(idx);
        self.stations.push(StationEntry {
            pos: cube_center(pos),
            transmitting: None,
            rx_error_rate: 0.0,
            tx_power: 1.0,
        });
        let pos = self.stations[idx].pos;
        self.grid.insert(cell_of(pos), idx);
        self.link_out.push(Vec::new());

        // Interference neighbors: symmetric, within the cutoff ball (one
        // grid ring), power-independent. Register the newcomer in each
        // neighbor's list too.
        let mut cands = std::mem::take(&mut self.scratch_a);
        self.collect_candidates(pos, 1, &mut cands);
        let mut list = Vec::new();
        for &o in &cands {
            if o == idx {
                continue;
            }
            let g = self.path_gain(pos, self.stations[o].pos);
            let ig = self.prop.apply_cutoff(g);
            if self.physical || ig > 0.0 {
                list.push(Neighbor {
                    idx: o,
                    gain: g,
                    int_gain: ig,
                });
                let olist = &mut self.nbrs[o];
                let at = olist
                    .binary_search_by_key(&idx, |n| n.idx)
                    .expect_err("newcomer cannot already be a neighbor");
                olist.insert(
                    at,
                    Neighbor {
                        idx,
                        gain: g,
                        int_gain: ig,
                    },
                );
            }
        }
        self.nbrs.push(list); // candidates were ascending, so this is too

        // Audibility: existing stations may hear the newcomer transmit and
        // vice versa. The newcomer's index is the largest, so every push
        // keeps its list ascending.
        self.audible.push(Vec::new());
        if self.uniform_radio && !self.physical {
            // Under a uniform radio audibility is the interference ball
            // (see `uniform_radio`), whose members are already at hand.
            // One push at a time, as a rebuild grows the list, so
            // `memory_footprint` counts the same capacities.
            for i in 0..self.nbrs[idx].len() {
                let n = self.nbrs[idx][i].idx;
                self.audible[n].push(idx);
                self.audible[idx].push(n);
            }
            self.scratch_a = cands;
            #[cfg(debug_assertions)]
            self.assert_audible_mirrors_ball(idx);
        } else {
            // Ring radius comes from the monotone power bound, so every
            // source loud enough to reach the newcomer is enumerated.
            let rings = self.rings_for(self.max_tx_power * self.max_link);
            self.collect_candidates(pos, rings, &mut cands);
            let threshold = self.prop.threshold_power();
            for &src in &cands {
                if src == idx {
                    continue;
                }
                let g = self.path_gain(self.stations[src].pos, pos);
                if self.stations[src].tx_power * self.link_of(src, idx) * g >= threshold {
                    self.audible[src].push(idx);
                }
            }
            self.scratch_a = cands;
            self.rebuild_audible(idx);
        }

        self.ambient.push(0.0);
        self.rebuild_ambient_of(idx);
        self.incident.push(0.0);
        self.active_slot.push(usize::MAX);
        self.recs_at.push(Vec::new());
        self.mark.push((0, 0.0, 0.0));
        let near = self.nbrs[idx]
            .iter()
            .filter(|n| self.active_slot[n.idx] != usize::MAX)
            .count() as u32;
        self.near_count.push(near);
        let mut buf = std::mem::take(&mut self.scratch_fold);
        self.incident[idx] = self.fold_incident_fast(idx, &mut buf);
        self.scratch_fold = buf;
        id
    }

    fn station_count(&self) -> usize {
        self.stations.len()
    }

    fn position(&self, id: StationId) -> Point {
        self.stations[id.0].pos
    }

    fn set_rx_error_rate(&mut self, id: StationId, p: f64) {
        assert!((0.0..=1.0).contains(&p), "error rate must be in [0,1]");
        self.stations[id.0].rx_error_rate = p;
    }

    fn set_tx_power(&mut self, id: StationId, power: f64) {
        assert!(power > 0.0 && power.is_finite(), "power must be positive");
        self.stations[id.0].tx_power = power;
        self.max_tx_power = self.max_tx_power.max(power);
        if power != 1.0 {
            self.uniform_radio = false;
        }
        self.rebuild_audible(id.0);
        // If `id` is mid-transmission its waveform changed mid-frame (own
        // packet lost) and its fold term changed — the term is nonzero only
        // at itself and its neighbors, but the flipped verdicts can sit on
        // any of their receptions, so every reception is re-verdicted.
        if self.stations[id.0].transmitting.is_some() {
            let slot = self.active_slot[id.0];
            for r in &mut self.rx_of[slot] {
                r.clean = false;
            }
            self.refold_around(id.0);
            self.recheck_all_receptions();
        }
    }

    fn hears(&self, to: StationId, from: StationId) -> bool {
        self.stations[from.0].tx_power
            * self.link_of(from.0, to.0)
            * self.gain_of(from.0, to.0)
            >= self.prop.threshold_power()
    }

    fn set_link_gain(&mut self, src: StationId, dst: StationId, factor: f64) {
        assert!(
            factor >= 0.0 && factor.is_finite(),
            "link gain must be finite and non-negative"
        );
        assert_ne!(src, dst, "link gain applies to a pair of distinct stations");
        let list = &mut self.link_out[src.0];
        match list.binary_search_by_key(&dst.0, |&(d, _)| d) {
            Ok(at) => list[at].1 = factor,
            Err(at) => list.insert(at, (dst.0, factor)),
        }
        self.max_link = self.max_link.max(factor);
        if factor != 1.0 {
            self.uniform_radio = false;
        }
        if self.stations[src.0].transmitting.is_some() {
            // Only `src`'s own in-flight transmission can have a reception
            // at `dst` whose link factor just changed.
            let slot = self.active_slot[src.0];
            if let Ok(at) = self.rx_of[slot].binary_search_by_key(&dst.0, |r| r.rx.0) {
                self.rx_of[slot][at].clean = false;
            }
        }
        // Only `dst`'s membership in `audible[src]` can have flipped.
        let qualifies = self.stations[src.0].tx_power
            * self.link_of(src.0, dst.0)
            * self.gain_of(src.0, dst.0)
            >= self.prop.threshold_power();
        let list = &mut self.audible[src.0];
        match list.binary_search(&dst.0) {
            Ok(at) if !qualifies => {
                list.remove(at);
            }
            Err(at) if qualifies => {
                list.insert(at, dst.0);
            }
            _ => {}
        }
        if self.stations[src.0].transmitting.is_some() {
            // `src`'s fold term changed at `dst` and nowhere else.
            let mut buf = std::mem::take(&mut self.scratch_fold);
            self.incident[dst.0] = self.fold_incident_fast(dst.0, &mut buf);
            self.scratch_fold = buf;
        }
        self.recheck_all_receptions();
    }

    fn link_gain(&self, src: StationId, dst: StationId) -> f64 {
        self.link_of(src.0, dst.0)
    }

    fn add_noise_source(&mut self, pos: Point, power: f64) -> usize {
        let pos = cube_center(pos);
        self.noise.push(NoiseSource {
            pos,
            power,
            active: true,
        });
        // The raw-power cutoff bounds a noise source's reach at one grid
        // ring regardless of its power multiplier; stations further away
        // gain an exactly-zero ambient term, which changes nothing.
        self.refresh_noise_neighborhood(pos);
        // Ambient noise increased: same rule as switching an emitter on.
        self.recheck_all_receptions();
        self.noise.len() - 1
    }

    fn set_noise_active(&mut self, index: usize, active: bool) {
        self.noise[index].active = active;
        let pos = self.noise[index].pos;
        self.refresh_noise_neighborhood(pos);
        if active {
            self.recheck_all_receptions();
        }
    }

    fn set_position(&mut self, id: StationId, pos: Point) {
        self.set_positions(&[(id, pos)]);
    }

    fn set_positions(&mut self, moves: &[(StationId, Point)]) {
        // Coalesced batch: every move runs its full structural update and
        // reception recheck in sequence (intermediate interference states
        // can corrupt packets a final-state-only recheck would miss, and
        // clean flags are monotone), but the `incident` running-sum refolds
        // are deferred — no in-batch operation reads them, and a station
        // refolded mid-batch by the sequential loop whose terms later moves
        // leave untouched gets the same bits from one final-state refold.
        let mut pending = std::mem::take(&mut self.scratch_refold);
        pending.clear();
        for &(id, pos) in moves {
            self.move_station(id, pos, &mut pending);
        }
        pending.sort_unstable();
        pending.dedup();
        let mut buf = std::mem::take(&mut self.scratch_fold);
        for &b in &pending {
            self.incident[b] = self.fold_incident_fast(b, &mut buf);
        }
        self.scratch_fold = buf;
        pending.clear();
        self.scratch_refold = pending;
    }

    fn in_range(&self, a: StationId, b: StationId) -> bool {
        self.prop
            .in_range(self.stations[a.0].pos.distance(self.stations[b.0].pos))
    }

    fn is_transmitting(&self, id: StationId) -> bool {
        self.stations[id.0].transmitting.is_some()
    }

    fn carrier_busy(&self, id: StationId) -> bool {
        if self.stations[id.0].transmitting.is_none() {
            // No exclusions apply, so the running sum answers in O(1).
            debug_assert_eq!(
                self.incident[id.0].to_bits(),
                self.fold_incident(id.0).to_bits(),
                "running incident sum diverged from the reference fold"
            );
            return self.incident[id.0] >= self.prop.threshold_power();
        }
        // Transmitting: the fold excludes the station's own term, so the
        // running sum doesn't apply. The exclusion is exactly the
        // `source == rx` rule of `interference_at`, with the station's own
        // transmission as a (redundant) excluded id.
        let own = self.stations[id.0]
            .transmitting
            .expect("checked transmitting above");
        let mut near: Vec<(u64, usize, f64)> = Vec::with_capacity(self.near_count[id.0] as usize);
        let power = self.interference_at_fast(id, own, &mut near);
        power >= self.prop.threshold_power()
    }

    fn active_count(&self) -> usize {
        self.active_len
    }

    fn start_tx(&mut self, source: StationId, now: SimTime) -> TxId {
        assert!(
            self.stations[source.0].transmitting.is_none(),
            "station {source:?} is already transmitting"
        );
        let id = TxId::from_raw(self.next_tx);
        self.next_tx += 1;
        self.stations[source.0].transmitting = Some(id);

        // Admit into the slab: pop a recycled slot or grow by one. The
        // fresh stamp is strictly larger than every live one, so the new
        // entry folds last everywhere — exactly the reference's append.
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        let entry = ActiveTx {
            id,
            source,
            start: now,
            stamp,
        };
        let slot = match self.free.pop() {
            Some(s) => {
                debug_assert!(self.slab[s].is_none(), "free list pointed at a live slot");
                self.slab[s] = Some(entry);
                s
            }
            None => {
                self.slab.push(Some(entry));
                // The per-slot reception list grows in lockstep; recycled
                // slots reuse the (cleared) list and its capacity.
                self.rx_of.push(Vec::new());
                self.slab.len() - 1
            }
        };
        debug_assert!(self.rx_of[slot].is_empty(), "vacated slot kept receptions");
        self.slot_of.insert(id.0, slot);
        self.active_slot[source.0] = slot;
        self.active_len += 1;

        // The slab entry exists: bring `near_count` up to date *now* so the
        // restricted folds in the drown pass below see a consistent view.
        self.near_count[source.0] += 1;
        for i in 0..self.nbrs[source.0].len() {
            let n = self.nbrs[source.0][i].idx;
            self.near_count[n] += 1;
        }

        let mut s = self.stats.get();
        s.start_tx_ops += 1;
        s.slab_high_water = s.slab_high_water.max(self.active_len as u64);
        s.slab_slots = self.slab.len() as u64;
        self.stats.set(s);

        // Stamp-scatter the transmitter's neighbor gains so the hot loops
        // below replace every `nbrs` binary search with one load (neighbor
        // lists are symmetric with bit-identical gains, so `nbrs[source]`
        // carries the same `int_gain` as `nbrs[rx]`).
        let tx_power = self.stations[source.0].tx_power;
        self.mark_stamp += 1;
        for i in 0..self.nbrs[source.0].len() {
            let n = self.nbrs[source.0][i];
            self.mark[n.idx] = (self.mark_stamp, n.int_gain, n.gain);
        }

        // Half-duplex: anything addressed *to* the new transmitter is lost.
        // `recs_at[source]` lists exactly the slots with an open reception
        // at `source`, and each slot's list is ascending by `rx`, so every
        // kill is one binary search — no global reception scan exists.
        for ri in 0..self.recs_at[source.0].len() {
            let slot = self.recs_at[source.0][ri] as usize;
            let at = self.rx_of[slot]
                .binary_search_by_key(&source.0, |r| r.rx.0)
                .expect("recs_at pointed at a slot without this reception");
            self.rx_of[slot][at].clean = false;
        }

        // Drowning: the new signal may push a nearby reception's
        // interference over its threshold (the restricted fold already sees
        // the admitted entry). The new term is nonzero only at `source`'s
        // cutoff neighbors, so visiting `recs_at[b]` for each neighbor `b`
        // covers every reception the old global pass could have flipped.
        // The marks are idempotent and the folds never read `clean`, so
        // visiting by neighbor instead of in global insertion order is
        // exact; `rx == source` never appears (`nbrs` excludes self), which
        // keeps the half-duplex kills out of the drown check.
        let mut fold_buf = std::mem::take(&mut self.scratch_fold);
        for ni in 0..self.nbrs[source.0].len() {
            let nb = self.nbrs[source.0][ni];
            let added = tx_power * self.link_of(source.0, nb.idx) * nb.int_gain;
            debug_assert_eq!(added.to_bits(), self.contribution(source.0, nb.idx).to_bits());
            if added <= 0.0 {
                continue;
            }
            let rx = StationId(nb.idx);
            for ri in 0..self.recs_at[nb.idx].len() {
                let slot = self.recs_at[nb.idx][ri] as usize;
                let at = self.rx_of[slot]
                    .binary_search_by_key(&nb.idx, |r| r.rx.0)
                    .expect("recs_at pointed at a slot without this reception");
                if !self.rx_of[slot][at].clean {
                    continue;
                }
                let of = self.slab[slot]
                    .as_ref()
                    .expect("recs_at pointed at a free slot")
                    .id;
                let interference = self.interference_at_fast(rx, of, &mut fold_buf);
                let signal = self.rx_of[slot][at].signal;
                if !self.prop.clean(signal, interference) {
                    self.rx_of[slot][at].clean = false;
                }
            }
        }
        self.scratch_fold = fold_buf;

        // Open a reception record at every station that can hear `source`.
        // `audible[source]` is exactly the set passing the reference's
        // signal-threshold check, in the same ascending-index order. The
        // path gain comes from the stamp scatter when the listener is a
        // cutoff neighbor (`Neighbor::gain` is the same
        // `power_at_distance` value `gain_of` would find or recompute).
        for li in 0..self.audible[source.0].len() {
            let idx = self.audible[source.0][li];
            let rx = StationId(idx);
            let gain = match self.mark[idx] {
                (stamp, _, g) if stamp == self.mark_stamp => g,
                _ => self.gain_of(source.0, idx),
            };
            debug_assert_eq!(gain.to_bits(), self.gain_of(source.0, idx).to_bits());
            let signal = tx_power * self.link_of(source.0, idx) * gain;
            debug_assert!(signal >= self.prop.threshold_power());
            let clean = self.stations[idx].transmitting.is_none() && {
                // The new transmission is the last active entry, so the
                // interference excluding it is the pre-append running sum.
                debug_assert_eq!(
                    self.incident[idx].to_bits(),
                    self.interference_at(rx, id).to_bits(),
                    "running incident sum diverged from the reference fold"
                );
                let interference = self.incident[idx];
                self.prop.clean(signal, interference)
            };
            self.rx_of[slot].push(Reception { rx, signal, clean });
            self.recs_at[idx].push(slot as u32);
        }

        // Append the new fold term to the running sums. The term is nonzero
        // only at the transmitter itself and its cutoff neighbors; appending
        // an exactly-zero term anywhere else would change nothing.
        // (`near_count` was already brought up to date at admission.)
        self.incident[source.0] += tx_power * self.self_gain;
        for i in 0..self.nbrs[source.0].len() {
            let n = self.nbrs[source.0][i];
            self.incident[n.idx] += tx_power * self.link_of(source.0, n.idx) * n.int_gain;
        }
        id
    }

    fn end_tx_into(&mut self, tx: TxId, _now: SimTime, out: &mut Vec<Delivery>) {
        let slot = self
            .slot_of
            .remove(&tx.0)
            .expect("end_tx: transmission not in flight");
        let ended = self.slab[slot]
            .take()
            .expect("slot_of pointed at a free slot");
        debug_assert_eq!(ended.id, tx);
        let source = ended.source;
        // O(1) vacate: the slot joins the free list and every *other* entry
        // keeps its slot and its stamp, so every remaining fold keeps its
        // exact term sequence — only the ended source's (nonzero) term
        // disappears. No shifting, no renumbering, no O(active) anything.
        self.free.push(slot);
        self.active_slot[source.0] = usize::MAX;
        self.active_len -= 1;
        debug_assert_eq!(self.stations[source.0].transmitting, Some(tx));
        self.stations[source.0].transmitting = None;
        let mut s = self.stats.get();
        s.end_tx_ops += 1;
        self.stats.set(s);

        // The ended transmission's receptions are exactly its per-slot
        // list, already in the delivery order the oracles define (opened
        // ascending, never reordered) — drain it in O(k) and unhook each
        // receiver's index entry. Nobody else's receptions are touched.
        let mut list = std::mem::take(&mut self.rx_of[slot]);
        out.clear();
        for r in &list {
            out.push(Delivery {
                station: r.rx,
                clean: r.clean,
                signal: r.signal,
            });
            let idx = &mut self.recs_at[r.rx.0];
            let at = idx
                .iter()
                .position(|&s| s as usize == slot)
                .expect("reception missing from its receiver's index");
            idx.swap_remove(at);
        }
        list.clear();
        self.rx_of[slot] = list;
        debug_assert!(out.windows(2).all(|w| w[0].station < w[1].station));

        self.near_count[source.0] -= 1;
        for i in 0..self.nbrs[source.0].len() {
            let n = self.nbrs[source.0][i].idx;
            self.near_count[n] -= 1;
        }

        // Vacating the slot deleted one fold term and left every other
        // term in place. The deleted term is exactly `+0.0` outside the
        // ended source's neighborhood — and dropping a `+0.0` term from a
        // non-negative left-to-right fold changes no partial sums — so only
        // the ended source's neighborhood can have changed; all other
        // stations' folds are term-for-term identical and keep their
        // running sums.
        self.refold_around(source.0);

        // Per-packet intermittent noise (§3.3.1): each packet is corrupted
        // at a receiving station with that station's error probability.
        for d in out.iter_mut() {
            let rate = self.stations[d.station.0].rx_error_rate;
            if d.clean && rate > 0.0 && self.rng.chance(rate) {
                d.clean = false;
            }
        }
    }

    fn tx_start(&self, tx: TxId) -> Option<SimTime> {
        self.entry_of(tx).map(|t| t.start)
    }

    fn tx_source(&self, tx: TxId) -> Option<StationId> {
        self.entry_of(tx).map(|t| t.source)
    }

    fn memory_footprint(&self) -> usize {
        use std::mem::size_of;
        let nbr_rows: usize = self
            .nbrs
            .iter()
            .map(|r| r.capacity() * size_of::<Neighbor>())
            .sum();
        let aud_rows: usize = self
            .audible
            .iter()
            .map(|r| r.capacity() * size_of::<usize>())
            .sum();
        let link_rows: usize = self
            .link_out
            .iter()
            .map(|r| r.capacity() * size_of::<(usize, f64)>())
            .sum();
        let spines = (self.nbrs.capacity() + self.audible.capacity() + self.link_out.capacity())
            * size_of::<Vec<usize>>();
        let flat = (self.ambient.capacity() + self.incident.capacity()) * size_of::<f64>()
            + self.stations.capacity() * size_of::<StationEntry>();
        let slab = self.slab.capacity() * size_of::<Option<ActiveTx>>()
            + self.free.capacity() * size_of::<usize>()
            + self.slot_of.capacity() * (size_of::<u64>() + 2 * size_of::<usize>());
        let rec_rows: usize = self
            .rx_of
            .iter()
            .map(|r| r.capacity() * size_of::<Reception>())
            .sum::<usize>()
            + self
                .recs_at
                .iter()
                .map(|r| r.capacity() * size_of::<u32>())
                .sum::<usize>()
            + (self.rx_of.capacity() + self.recs_at.capacity()) * size_of::<Vec<usize>>();
        nbr_rows + aud_rows + link_rows + spines + flat + slab + rec_rows
            + self.grid.memory_footprint()
    }

    fn medium_stats(&self) -> MediumStats {
        self.stats.get()
    }
}

/// The grid cell containing `p` (positions are cube-center snapped, so
/// coordinate floors are exact integers).
fn cell_of(p: Point) -> [i64; 3] {
    [
        (p.x.floor() as i64).div_euclid(CELL_EDGE),
        (p.y.floor() as i64).div_euclid(CELL_EDGE),
        (p.z.floor() as i64).div_euclid(CELL_EDGE),
    ]
}

impl SparseMedium {
    /// Path gain `power_at_distance(a.distance(b))` between two cube
    /// centres, bit for bit (see [`Self::gain_at_squared`]).
    fn path_gain(&self, a: Point, b: Point) -> f64 {
        self.gain_at_squared(a.distance_squared(b))
    }

    /// `power_at_distance(d2.sqrt())`, bit for bit. Cube centres make `d2`
    /// an integer, so the gain of every pair within one grid ring comes
    /// from `gains[d2]`, computed from the same `d2` on first use. A `d2`
    /// the table does not hold exactly (beyond its range, or not a whole
    /// number) takes the `powf` directly.
    fn gain_at_squared(&self, d2: f64) -> f64 {
        let k = d2 as usize;
        match self.gains.get(k) {
            Some(slot) if k as f64 == d2 => {
                let cached = slot.get();
                if !cached.is_nan() {
                    return cached;
                }
                let g = self.prop.power_at_distance(d2.sqrt());
                slot.set(g);
                g
            }
            _ => self.prop.power_at_distance(d2.sqrt()),
        }
    }

    /// Ring count covering a ball of radius `threshold_distance ·
    /// effective^(1/γ)` — the audible radius at an effective (power · link)
    /// product. One ring always covers the unstretched radius; the `+ 1` on
    /// the stretched path insures against `powf` rounding at cell borders.
    /// A reach beyond `i64` saturates: the grid clips rings to its occupied
    /// cells.
    fn rings_for(&self, effective: f64) -> i64 {
        if effective <= 1.0 {
            return 1;
        }
        let reach = THRESHOLD_DISTANCE_FT * effective.powf(1.0 / self.prop.config().gamma);
        ((reach / CELL_EDGE as f64).ceil() as i64).saturating_add(1)
    }

    /// Collect the ascending station indices within `rings` grid cells of
    /// `center` (all stations in physical-cutoff mode) into `out`.
    fn collect_candidates(&self, center: Point, rings: i64, out: &mut Vec<usize>) {
        out.clear();
        if self.physical {
            out.extend(0..self.stations.len());
            return;
        }
        self.grid
            .for_each_in_rings(cell_of(center), rings, |i| out.push(i));
        out.sort_unstable();
    }

    /// The `src → dst` link factor (1.0 unless explicitly overridden).
    fn link_of(&self, src: usize, dst: usize) -> f64 {
        let list = &self.link_out[src];
        if list.is_empty() {
            return 1.0;
        }
        match list.binary_search_by_key(&dst, |&(d, _)| d) {
            Ok(at) => list[at].1,
            Err(_) => 1.0,
        }
    }

    /// Path gain `power_at_distance(d(a, b))` — cached when `b` is in `a`'s
    /// cutoff ball, recomputed (same bits) otherwise. `a == b` takes the
    /// recompute path (distance 0.0), exactly as the reference computes it.
    fn gain_of(&self, a: usize, b: usize) -> f64 {
        match self.nbrs[a].binary_search_by_key(&b, |n| n.idx) {
            Ok(at) => self.nbrs[a][at].gain,
            Err(_) => self.path_gain(self.stations[a].pos, self.stations[b].pos),
        }
    }

    /// Source `s`'s term in station `b`'s interference fold:
    /// `tx_power · link · int_gain`, which is exactly `+0.0` whenever `s`
    /// is outside `b`'s cutoff ball.
    fn contribution(&self, s: usize, b: usize) -> f64 {
        if s == b {
            // link[s][s] ≡ 1.0; the self term uses the zero-distance gain.
            return self.stations[s].tx_power * self.self_gain;
        }
        match self.nbrs[b].binary_search_by_key(&s, |n| n.idx) {
            Ok(at) => {
                self.stations[s].tx_power * self.link_of(s, b) * self.nbrs[b][at].int_gain
            }
            Err(_) => 0.0,
        }
    }

    /// The slab entry for an in-flight transmission, if any.
    fn entry_of(&self, tx: TxId) -> Option<&ActiveTx> {
        let &slot = self.slot_of.get(&tx.0)?;
        let t = self.slab[slot].as_ref().expect("slot_of pointed at a free slot");
        debug_assert_eq!(t.id, tx);
        Some(t)
    }

    /// The occupied slab entries in stamp (= admission) order — the exact
    /// order the reference medium's append-only active list folds in. This
    /// is the O(slab) *reference* walk: production paths never call it, but
    /// every restricted fold is debug-asserted against it, and the oracle
    /// tests lean on those asserts.
    fn active_in_stamp_order(&self) -> Vec<&ActiveTx> {
        let mut live: Vec<&ActiveTx> = self.slab.iter().flatten().collect();
        live.sort_unstable_by_key(|t| t.stamp);
        live
    }

    /// Summed interference power at station `rx` from all active
    /// transmissions except `except`, plus spatial noise — the reference's
    /// exact left-to-right fold, replayed over the slab in stamp order.
    /// Debug-assert oracle for [`Self::interference_at_fast`].
    fn interference_at(&self, rx: StationId, except: TxId) -> f64 {
        let mut power = self.ambient[rx.0];
        for t in self.active_in_stamp_order() {
            if t.id == except || t.source == rx {
                continue;
            }
            power += self.contribution(t.source.0, rx.0);
        }
        power
    }

    /// The reference fold for `incident[b]`: ambient noise plus every
    /// active transmission in stamp order. Debug-assert oracle for
    /// [`Self::fold_incident_fast`].
    fn fold_incident(&self, b: usize) -> f64 {
        let mut power = self.ambient[b];
        for t in self.active_in_stamp_order() {
            power += self.contribution(t.source.0, b);
        }
        power
    }

    /// [`Self::fold_incident`] restricted to the active transmissions whose
    /// term at `b` can be nonzero — `b` itself and its cutoff neighbors —
    /// ordered by their admission stamps. Every skipped term is exactly
    /// `+0.0` and the running sum is never `-0.0` (ambient folds seed with
    /// `+0.0`), so adding the skipped terms would change no bits: the
    /// result is identical to the full fold, in O(k log k) with k the
    /// *local* active count — the global active count never appears.
    fn fold_incident_fast(&self, b: usize, near: &mut Vec<(u64, usize, f64)>) -> f64 {
        near.clear();
        let mut remaining = self.near_count[b];
        if self.active_slot[b] != usize::MAX {
            let t = self.slab[self.active_slot[b]]
                .as_ref()
                .expect("active_slot pointed at a free slot");
            near.push((t.stamp, b, self.self_gain));
            remaining -= 1;
        }
        if remaining > 0 {
            for n in &self.nbrs[b] {
                let slot = self.active_slot[n.idx];
                if slot != usize::MAX {
                    let t = self.slab[slot]
                        .as_ref()
                        .expect("active_slot pointed at a free slot");
                    near.push((t.stamp, n.idx, n.int_gain));
                    remaining -= 1;
                    if remaining == 0 {
                        break;
                    }
                }
            }
        }
        debug_assert_eq!(remaining, 0, "near_count diverged from active_slot");
        near.sort_unstable_by_key(|&(stamp, _, _)| stamp);
        let mut power = self.ambient[b];
        for &(_, s, int_gain) in near.iter() {
            // The same product `contribution` computes, with the gain taken
            // from the already-found `nbrs[b]` entry (self term: link ≡ 1).
            let term = if s == b {
                self.stations[s].tx_power * int_gain
            } else {
                self.stations[s].tx_power * self.link_of(s, b) * int_gain
            };
            debug_assert_eq!(term.to_bits(), self.contribution(s, b).to_bits());
            power += term;
        }
        debug_assert_eq!(
            power.to_bits(),
            self.fold_incident(b).to_bits(),
            "restricted fold diverged from the full reference fold"
        );
        let mut st = self.stats.get();
        st.folds += 1;
        st.fold_terms += near.len() as u64;
        self.stats.set(st);
        power
    }

    /// [`Self::interference_at`] restricted the same way: active stations
    /// in `{rx} ∪ nbrs[rx]`, minus `rx`'s own term and `except`, folded in
    /// stamp order. Any excluded-or-distant transmission's term at `rx` is
    /// exactly `+0.0`, so the restriction is bit-exact (asserted below).
    fn interference_at_fast(
        &self,
        rx: StationId,
        except: TxId,
        near: &mut Vec<(u64, usize, f64)>,
    ) -> f64 {
        let b = rx.0;
        near.clear();
        let mut remaining = self.near_count[b];
        // `rx` transmitting counts toward `near_count` but its term is
        // excluded by the `source == rx` rule.
        if self.active_slot[b] != usize::MAX {
            remaining -= 1;
        }
        if remaining > 0 {
            for n in &self.nbrs[b] {
                let slot = self.active_slot[n.idx];
                if slot != usize::MAX {
                    let t = self.slab[slot]
                        .as_ref()
                        .expect("active_slot pointed at a free slot");
                    if t.id != except {
                        near.push((t.stamp, n.idx, n.int_gain));
                    }
                    remaining -= 1;
                    if remaining == 0 {
                        break;
                    }
                }
            }
        }
        debug_assert_eq!(remaining, 0, "near_count diverged from active_slot");
        near.sort_unstable_by_key(|&(stamp, _, _)| stamp);
        let mut power = self.ambient[b];
        for &(_, s, int_gain) in near.iter() {
            let term = self.stations[s].tx_power * self.link_of(s, b) * int_gain;
            debug_assert_eq!(term.to_bits(), self.contribution(s, b).to_bits());
            power += term;
        }
        debug_assert_eq!(
            power.to_bits(),
            self.interference_at(rx, except).to_bits(),
            "restricted exclusion fold diverged from the full reference fold"
        );
        let mut st = self.stats.get();
        st.folds += 1;
        st.fold_terms += near.len() as u64;
        self.stats.set(st);
        power
    }

    /// Refold the running sums of `s` and every station in its cutoff ball
    /// — the only stations where `s`'s fold term is nonzero.
    fn refold_around(&mut self, s: usize) {
        let mut near: Vec<(u64, usize, f64)> = std::mem::take(&mut self.scratch_fold);
        self.incident[s] = self.fold_incident_fast(s, &mut near);
        for i in 0..self.nbrs[s].len() {
            let b = self.nbrs[s][i].idx;
            self.incident[b] = self.fold_incident_fast(b, &mut near);
        }
        self.scratch_fold = near;
    }

    /// Recompute `ambient[b]` with the same filtered fold (noise-list
    /// order, inactive sources skipped) the reference uses per query.
    fn rebuild_ambient_of(&mut self, b: usize) {
        let pos = self.stations[b].pos;
        // Explicit 0.0-seeded fold: `Iterator::sum` seeds with -0.0, which
        // would make an empty sum bitwise-differ from the reference's.
        let mut power = 0.0;
        for n in self.noise.iter().filter(|n| n.active) {
            power += n.power * self.prop.apply_cutoff(self.path_gain(n.pos, pos));
        }
        self.ambient[b] = power;
    }

    /// A noise source at `pos` changed: refresh ambient and incident sums
    /// for the stations inside its cutoff ball (everyone else's fold gained
    /// or lost an exactly-zero term).
    fn refresh_noise_neighborhood(&mut self, pos: Point) {
        let mut cands = std::mem::take(&mut self.scratch_a);
        let mut buf = std::mem::take(&mut self.scratch_fold);
        self.collect_candidates(pos, 1, &mut cands);
        for &b in &cands {
            self.rebuild_ambient_of(b);
            self.incident[b] = self.fold_incident_fast(b, &mut buf);
        }
        self.scratch_fold = buf;
        self.scratch_a = cands;
    }

    /// Rebuild who hears `src` transmit. Candidates come from a ring search
    /// sized by `src`'s power times the monotone link bound, so the search
    /// covers the stretched audible radius; each candidate is then tested
    /// with the exact per-link criterion.
    fn rebuild_audible(&mut self, src: usize) {
        let power = self.stations[src].tx_power;
        let threshold = self.prop.threshold_power();
        let rings = self.rings_for(power * self.max_link);
        let pos = self.stations[src].pos;
        let mut cands = std::mem::take(&mut self.scratch_a);
        self.collect_candidates(pos, rings, &mut cands);
        let mut list = std::mem::take(&mut self.audible[src]);
        list.clear();
        for &b in &cands {
            if b == src {
                continue;
            }
            let g = self.path_gain(pos, self.stations[b].pos);
            if power * self.link_of(src, b) * g >= threshold {
                list.push(b);
            }
        }
        self.audible[src] = list;
        self.scratch_a = cands;
    }

    /// Debug check of the uniform-radio audibility shortcut around `s`:
    /// `s`'s own list equals its ring-search rebuild, and `s` is listed by
    /// exactly the stations within ring reach that it can hear.
    #[cfg(debug_assertions)]
    fn assert_audible_mirrors_ball(&mut self, s: usize) {
        let fast = self.audible[s].clone();
        self.rebuild_audible(s);
        assert_eq!(fast, self.audible[s], "fast audible list diverged");
        let rings = self.rings_for(self.max_tx_power * self.max_link);
        let mut cands = Vec::new();
        self.collect_candidates(self.stations[s].pos, rings, &mut cands);
        for src in cands.into_iter().filter(|&src| src != s) {
            assert_eq!(
                self.audible[src].binary_search(&s).is_ok(),
                self.hears(StationId(s), StationId(src)),
                "audible[{src}] diverged from the ball at {s}"
            );
        }
    }

    /// Apply one station move — the mover pipeline behind
    /// [`Medium::set_positions`] (a single [`Medium::set_position`] is a
    /// batch of one).
    ///
    /// `deferred` collects the `incident`-refold targets, which the caller
    /// refolds once the batch is done. Everything else — dirtying,
    /// neighbor reconciliation, audibility, rechecks — happens per move,
    /// because later moves observe that state.
    ///
    /// The pipeline replaces the old drop-and-rebuild with:
    /// * a same-cube early-out (geometry unchanged ⇒ nothing beyond the
    ///   conservative dirtying can differ),
    /// * grid re-homing only when the coarse cell actually changed,
    /// * a two-pointer merge of the old neighbor list against the new
    ///   candidate set that edits both sides' lists in place and emits
    ///   the went-out/came-in deltas,
    /// * audible-list deltas derived from those same deltas under a
    ///   uniform radio (ring searches otherwise), and
    /// * a *restricted* reception recheck — see the comment at the end.
    fn move_station(&mut self, id: StationId, pos: Point, deferred: &mut Vec<usize>) {
        let moved = id.0;
        let old_pos = self.stations[moved].pos;
        let new_pos = cube_center(pos);
        let moving_tx = self.stations[moved].transmitting;
        let mut st = self.stats.get();
        st.set_position_ops += 1;

        // Receptions *at* the mover (via its per-rx index) and receptions
        // *of* the mover's own transmission (its per-slot list) go dirty;
        // nothing else depends on the mover's position.
        for ri in 0..self.recs_at[moved].len() {
            let slot = self.recs_at[moved][ri] as usize;
            let at = self.rx_of[slot]
                .binary_search_by_key(&moved, |r| r.rx.0)
                .expect("recs_at pointed at a slot without this reception");
            self.rx_of[slot][at].clean = false;
        }
        if moving_tx.is_some() {
            let slot = self.active_slot[moved];
            for r in &mut self.rx_of[slot] {
                r.clean = false;
            }
        }

        // Same-cube early-out: positions are cube-quantized, so a move
        // that lands in its starting cube changes no distance, gain, fold
        // term, or list membership — the conservative dirtying above is
        // the entire observable effect, and the oracle's global recheck
        // flips nothing when no fold changed.
        if new_pos == old_pos {
            st.move_noop_ops += 1;
            self.stats.set(st);
            #[cfg(debug_assertions)]
            self.assert_no_stale_receptions();
            return;
        }
        self.stations[moved].pos = new_pos;

        // Re-home the grid bucket only when the coarse cell changed (cells
        // are the 10 ft reception radius, cubes 1 ft — waypoint steps
        // mostly stay in cell).
        let old_cell = cell_of(old_pos);
        let new_cell = cell_of(new_pos);
        if old_cell != new_cell {
            st.move_cell_hops += 1;
            self.grid.remove(old_cell, moved);
            self.grid.insert(new_cell, moved);
        }
        self.stats.set(st);

        // Delta neighbor reconciliation: one ascending merge of the old
        // neighbor list against the candidate cells of the new position.
        // Old-only entries went out of the ball, candidate-only entries
        // may have come in, shared entries get their gains recomputed in
        // place on both sides — no drop-and-rebuild, no re-sort.
        let mut cands = std::mem::take(&mut self.scratch_a);
        self.collect_candidates(new_pos, 1, &mut cands);
        let mut old_list = std::mem::take(&mut self.nbrs[moved]);
        let mut new_list = std::mem::take(&mut self.scratch_nbr);
        new_list.clear();
        let mut went_out = std::mem::take(&mut self.scratch_b);
        went_out.clear();
        // Under a uniform radio (hard cutoff, all powers and link factors
        // 1.0) audibility coincides exactly with the interference ball, so
        // the went-out/came-in deltas *are* the audible-membership deltas.
        let fast_audible = self.uniform_radio && !self.physical;
        let (mut oi, mut ci) = (0usize, 0usize);
        while oi < old_list.len() || ci < cands.len() {
            if ci < cands.len() && cands[ci] == moved {
                ci += 1;
                continue;
            }
            let o = if oi < old_list.len() {
                old_list[oi].idx
            } else {
                usize::MAX
            };
            let c = if ci < cands.len() { cands[ci] } else { usize::MAX };
            if o < c {
                // Not even in candidate reach: the mover left o's ball.
                let olist = &mut self.nbrs[o];
                let at = olist
                    .binary_search_by_key(&moved, |n| n.idx)
                    .expect("neighbor lists must be symmetric");
                olist.remove(at);
                went_out.push(o);
                oi += 1;
                continue;
            }
            let was_nbr = o == c;
            let g = self.path_gain(new_pos, self.stations[c].pos);
            let ig = self.prop.apply_cutoff(g);
            if self.physical || ig > 0.0 {
                new_list.push(Neighbor {
                    idx: c,
                    gain: g,
                    int_gain: ig,
                });
                let entry = Neighbor {
                    idx: moved,
                    gain: g,
                    int_gain: ig,
                };
                let olist = &mut self.nbrs[c];
                match olist.binary_search_by_key(&moved, |n| n.idx) {
                    Ok(at) => {
                        debug_assert!(was_nbr, "neighbor lists must be symmetric");
                        olist[at] = entry;
                    }
                    Err(at) => {
                        debug_assert!(!was_nbr, "neighbor lists must be symmetric");
                        olist.insert(at, entry);
                        // Came in: c gained an active neighbor if the mover
                        // is mid-transmission, and (uniform radio) the
                        // mover entered c's audible set.
                        if moving_tx.is_some() {
                            self.near_count[c] += 1;
                        }
                        if fast_audible {
                            let alist = &mut self.audible[c];
                            let at = alist.binary_search(&moved).expect_err(
                                "audible must mirror the ball under a uniform radio",
                            );
                            alist.insert(at, moved);
                        }
                    }
                }
            } else if was_nbr {
                // Still a candidate cell, but outside the ball now.
                let olist = &mut self.nbrs[c];
                let at = olist
                    .binary_search_by_key(&moved, |n| n.idx)
                    .expect("neighbor lists must be symmetric");
                olist.remove(at);
                went_out.push(c);
            }
            if was_nbr {
                oi += 1;
            }
            ci += 1;
        }
        old_list.clear();
        self.scratch_nbr = old_list;
        self.nbrs[moved] = new_list;
        self.scratch_a = cands;

        // Went-out deltas mirror the came-in ones above.
        for &o in &went_out {
            if moving_tx.is_some() {
                self.near_count[o] -= 1;
            }
            if fast_audible {
                let alist = &mut self.audible[o];
                let at = alist
                    .binary_search(&moved)
                    .expect("audible must mirror the ball under a uniform radio");
                alist.remove(at);
            }
        }
        self.near_count[moved] = (moving_tx.is_some() as u32)
            + self.nbrs[moved]
                .iter()
                .filter(|n| self.active_slot[n.idx] != usize::MAX)
                .count() as u32;

        // The mover's own audible list: under a uniform radio it *is* the
        // new neighbor ball (already ascending); otherwise rebuild it and
        // fix its membership in every list an old∪new ring search reaches.
        if fast_audible {
            let mut list = std::mem::take(&mut self.audible[moved]);
            list.clear();
            list.extend(self.nbrs[moved].iter().map(|n| n.idx));
            self.audible[moved] = list;
            #[cfg(debug_assertions)]
            self.assert_audible_mirrors_ball(moved);
        } else {
            self.rebuild_audible(moved);
            let rings = self.rings_for(self.max_tx_power * self.max_link);
            let mut cands = std::mem::take(&mut self.scratch_a);
            cands.clear();
            if self.physical {
                cands.extend(0..self.stations.len());
            } else {
                self.grid.for_each_in_rings(old_cell, rings, |i| cands.push(i));
                self.grid.for_each_in_rings(new_cell, rings, |i| cands.push(i));
                cands.sort_unstable();
                cands.dedup();
            }
            let threshold = self.prop.threshold_power();
            for &src in &cands {
                if src == moved {
                    continue;
                }
                let qualifies = self.stations[src].tx_power
                    * self.link_of(src, moved)
                    * self.gain_of(src, moved)
                    >= threshold;
                let list = &mut self.audible[src];
                match list.binary_search(&moved) {
                    Ok(at) if !qualifies => {
                        list.remove(at);
                    }
                    Err(at) if qualifies => {
                        list.insert(at, moved);
                    }
                    _ => {}
                }
            }
            self.scratch_a = cands;
        }

        self.rebuild_ambient_of(moved);
        // Fold terms changed only on pairs involving the mover: its own
        // sum always, and — if it is mid-transmission — its old and new
        // neighborhoods (went_out ∪ the new list covers both exactly).
        deferred.push(moved);
        if moving_tx.is_some() {
            deferred.extend(went_out.iter().copied());
            deferred.extend(self.nbrs[moved].iter().map(|n| n.idx));
        }

        // Restricted recheck. Receptions at the mover and of its own
        // transmission are already dirty. Every other clean reception's
        // endpoints did not move, so its signal is bit-unchanged, and its
        // verdict can flip only where the interference fold changed: the
        // mover's term is exactly `+0.0` outside its old∪new
        // neighborhoods, and an *idle* mover has no term anywhere — no
        // recheck at all. Given the invariant that every clean reception
        // already matches a fresh recompute (asserted below), the oracle's
        // global recheck is a bitwise no-op outside this set.
        if moving_tx.is_some() {
            let mut buf = std::mem::take(&mut self.scratch_fold);
            for &b in &went_out {
                self.recheck_receptions_at(b, &mut buf);
            }
            for i in 0..self.nbrs[moved].len() {
                let b = self.nbrs[moved][i].idx;
                self.recheck_receptions_at(b, &mut buf);
            }
            self.scratch_fold = buf;
        }
        went_out.clear();
        self.scratch_b = went_out;
        #[cfg(debug_assertions)]
        self.assert_no_stale_receptions();
    }

    /// Re-validate the clean receptions *at* station `b` against the
    /// current interference — the per-station slice of
    /// [`Self::recheck_all_receptions`], for callers that can bound where
    /// verdicts may flip. The stored signal is already current for every
    /// clean reception (asserted), so only the verdict is recomputed.
    fn recheck_receptions_at(&mut self, b: usize, buf: &mut Vec<(u64, usize, f64)>) {
        for ri in 0..self.recs_at[b].len() {
            let slot = self.recs_at[b][ri] as usize;
            let at = self.rx_of[slot]
                .binary_search_by_key(&b, |r| r.rx.0)
                .expect("recs_at pointed at a slot without this reception");
            if !self.rx_of[slot][at].clean {
                continue;
            }
            let (tx, src) = {
                let e = self.slab[slot]
                    .as_ref()
                    .expect("recs_at pointed at a free slot");
                (e.id, e.source)
            };
            let signal = self.rx_of[slot][at].signal;
            debug_assert_eq!(
                signal.to_bits(),
                (self.stations[src.0].tx_power
                    * self.link_of(src.0, b)
                    * self.gain_of(src.0, b))
                .to_bits(),
                "a clean reception carried a stale signal"
            );
            let interference = self.interference_at_fast(StationId(b), tx, buf);
            if !self.prop.clean(signal, interference) {
                self.rx_of[slot][at].clean = false;
            }
        }
    }

    /// Debug invariant behind the restricted recheck: every *clean*
    /// reception's stored signal equals its fresh recompute, and its
    /// verdict holds against the full slow interference fold. Given this,
    /// a global recheck flips nothing outside the stations whose folds an
    /// operation actually changed — which is what lets the mover pipeline
    /// recheck only the old∪new neighborhoods (or nothing, for an idle
    /// mover) and stay bitwise-oracle-identical.
    #[cfg(debug_assertions)]
    fn assert_no_stale_receptions(&self) {
        for slot in 0..self.slab.len() {
            let Some(e) = self.slab[slot].as_ref() else {
                continue;
            };
            for r in &self.rx_of[slot] {
                if !r.clean {
                    continue;
                }
                let signal = self.stations[e.source.0].tx_power
                    * self.link_of(e.source.0, r.rx.0)
                    * self.gain_of(e.source.0, r.rx.0);
                assert_eq!(
                    signal.to_bits(),
                    r.signal.to_bits(),
                    "a clean reception carries a stale signal"
                );
                assert!(
                    self.prop.clean(signal, self.interference_at(r.rx, e.id)),
                    "a clean reception fails a fresh full recheck"
                );
            }
        }
    }

    /// Re-validate every in-flight reception against the current geometry
    /// and interference (used after mobility / noise changes).
    fn recheck_all_receptions(&mut self) {
        let mut buf = std::mem::take(&mut self.scratch_fold);
        for slot in 0..self.slab.len() {
            let Some((tx, src)) = self.slab[slot].as_ref().map(|e| (e.id, e.source)) else {
                continue;
            };
            for i in 0..self.rx_of[slot].len() {
                if !self.rx_of[slot][i].clean {
                    continue;
                }
                let rx = self.rx_of[slot][i].rx;
                let signal = self.stations[src.0].tx_power
                    * self.link_of(src.0, rx.0)
                    * self.gain_of(src.0, rx.0);
                self.rx_of[slot][i].signal = signal;
                let interference = self.interference_at_fast(rx, tx, &mut buf);
                if !self.prop.clean(signal, interference) {
                    self.rx_of[slot][i].clean = false;
                }
            }
        }
        self.scratch_fold = buf;
    }
}

#[cfg(test)]
mod contract {
    crate::medium::medium_contract_tests!(crate::sparse::SparseMedium);
}

#[cfg(test)]
mod sparse_tests {
    use super::*;
    use crate::propagation::PropagationConfig;
    use macaw_sim::SimDuration;

    fn t(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_micros(us)
    }

    fn mk(seed: u64) -> SparseMedium {
        SparseMedium::new(Propagation::new(PropagationConfig::default()), SimRng::new(seed))
    }

    /// A row of well-separated clusters: memory must grow like N·k, not N².
    #[test]
    fn memory_grows_subquadratically() {
        let footprint = |n: usize| {
            let mut m = mk(1);
            for i in 0..n {
                // Clusters of 4 stations every 30 ft: constant k.
                let cluster = (i / 4) as f64 * 30.0;
                let off = (i % 4) as f64 * 2.0;
                m.add_station(Point::new(cluster + off, 0.0, 0.0));
            }
            m.memory_footprint()
        };
        let small = footprint(64);
        let large = footprint(1024);
        // 16x the stations must cost far less than 256x the bytes; allow
        // generous slack over the ideal 16x for allocator rounding.
        assert!(
            large < small * 64,
            "64 stations: {small} B, 1024 stations: {large} B"
        );
    }

    /// The knife edge: 10.0 ft is exactly in range and exactly at the last
    /// cell the one-ring search covers (stations (0.5,…) and (10.5,…) sit
    /// in adjacent 10 ft cells at distance exactly 10).
    #[test]
    fn boundary_distance_is_found_across_cells() {
        let mut m = mk(2);
        let a = m.add_station(Point::new(0.0, 0.0, 0.0));
        let b = m.add_station(Point::new(10.0, 0.0, 0.0));
        assert_eq!(m.position(a).distance(m.position(b)), 10.0);
        assert!(m.in_range(a, b));
        let tx = m.start_tx(a, t(0));
        let d = m.end_tx(tx, t(1000));
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].station, b);
        assert!(d[0].clean);
        assert!(!m.carrier_busy(b));
    }

    /// Far-apart stations share no state: transmissions in one cluster are
    /// invisible in the other.
    #[test]
    fn distant_clusters_are_independent() {
        let mut m = mk(3);
        let a = m.add_station(Point::new(0.0, 0.0, 0.0));
        let b = m.add_station(Point::new(5.0, 0.0, 0.0));
        let c = m.add_station(Point::new(500.0, 0.0, 0.0));
        let d = m.add_station(Point::new(505.0, 0.0, 0.0));
        let t1 = m.start_tx(a, t(0));
        let t2 = m.start_tx(c, t(1));
        assert!(m.carrier_busy(b) && m.carrier_busy(d));
        let d1 = m.end_tx(t1, t(1000));
        let d2 = m.end_tx(t2, t(1001));
        assert_eq!(d1.len(), 1);
        assert!(d1[0].clean && d1[0].station == b);
        assert_eq!(d2.len(), 1);
        assert!(d2[0].clean && d2[0].station == d);
    }

    /// Physical cutoff mode falls back to all-stations neighbor lists and
    /// keeps the out-of-range interference tail.
    #[test]
    fn physical_mode_keeps_the_interference_tail() {
        let prop = Propagation::new(PropagationConfig {
            cutoff: CutoffMode::Physical,
            ..PropagationConfig::default()
        });
        let mut m = SparseMedium::new(prop, SimRng::new(4));
        let a = m.add_station(Point::new(0.0, 0.0, 0.0));
        let b = m.add_station(Point::new(8.0, 0.0, 0.0));
        // A distant station: out of reception range, but its tail still
        // raises the incident power at B under the physical model.
        let far = m.add_station(Point::new(30.0, 0.0, 0.0));
        let before = m.fold_incident(b.0);
        let tx = m.start_tx(far, t(0));
        assert!(m.fold_incident(b.0) > before, "the r^-γ tail must be felt");
        let _ = m.end_tx(tx, t(10));
        let _ = a;
    }

    /// Free-list regression: a slot vacated mid-schedule and recycled by a
    /// younger transmission must fold *last* (largest stamp) even though
    /// its slot index is the smallest — slot order means nothing, stamp
    /// order is the fold order.
    #[test]
    fn recycled_slot_keeps_stamp_order() {
        let mut m = mk(6);
        // Four stations in one cell: every fold sees every transmission.
        let a = m.add_station(Point::new(0.0, 0.0, 0.0));
        let b = m.add_station(Point::new(2.0, 0.0, 0.0));
        let c = m.add_station(Point::new(4.0, 0.0, 0.0));
        let d = m.add_station(Point::new(6.0, 0.0, 0.0));
        let ta = m.start_tx(a, t(0));
        let tb = m.start_tx(b, t(1));
        let _ = m.end_tx(ta, t(2)); // frees a's slot while b flies on
        let tc = m.start_tx(c, t(3)); // recycles it with a younger stamp
        assert_eq!(m.active_slot[a.0], usize::MAX);
        assert_eq!(m.active_slot[c.0], 0, "the freed slot must be recycled");
        assert_eq!(m.active_slot[b.0], 1);
        let mut buf = Vec::new();
        assert_eq!(
            m.fold_incident_fast(d.0, &mut buf).to_bits(),
            m.fold_incident(d.0).to_bits()
        );
        assert_eq!(buf.len(), 2);
        assert_eq!(buf[0].1, b.0, "older stamp folds first");
        assert_eq!(buf[1].1, c.0, "the recycled slot folds last");
        assert!(buf[0].0 < buf[1].0, "stamps must order the fold");
        let _ = m.end_tx(tb, t(4));
        let _ = m.end_tx(tc, t(5));
        assert_eq!(m.active_count(), 0);
        assert_eq!(m.slab.len(), 2, "the slab never grows past high water");
        assert_eq!(m.free.len(), 2);
        let stats = m.medium_stats();
        assert_eq!(stats.slab_high_water, 2);
        assert_eq!(stats.start_tx_ops, 3);
        assert_eq!(stats.end_tx_ops, 3);
    }

    /// The gain table is exact: every in-range integer d², read once to
    /// fill and once filled, and every d² the table must not serve, equals
    /// `power_at_distance(d2.sqrt())` to the bit, and the derived
    /// interference gain equals `interference_power`.
    #[test]
    fn gain_table_matches_powf_bit_for_bit() {
        let models = [
            (6.0, CutoffMode::Hard),
            (5.7, CutoffMode::Hard),
            (1e-9, CutoffMode::Hard),
            (6.0, CutoffMode::Physical),
            (5.7, CutoffMode::Physical),
        ];
        let off_table = [
            0.25,
            0.5,
            2.000_000_000_000_000_4,
            99.5,
            1082.999,
            GAIN_TABLE_LEN as f64 - 0.5,
            GAIN_TABLE_LEN as f64,
            GAIN_TABLE_LEN as f64 + 1.0,
            1e6 + 0.5,
            1e12,
        ];
        for (gamma, cutoff) in models {
            let prop = Propagation::new(PropagationConfig { gamma, cutoff });
            let m = SparseMedium::new(prop, SimRng::new(9));
            let expect = |d2: f64| prop.power_at_distance(d2.sqrt());
            for pass in 0..2 {
                for k in 0..GAIN_TABLE_LEN {
                    let d2 = k as f64;
                    assert_eq!(
                        m.gain_at_squared(d2).to_bits(),
                        expect(d2).to_bits(),
                        "gamma {gamma} {cutoff:?} d2 {k} pass {pass}"
                    );
                }
                for d2 in off_table {
                    assert_eq!(
                        m.gain_at_squared(d2).to_bits(),
                        expect(d2).to_bits(),
                        "d2 {d2}"
                    );
                }
            }
            let mut rng = SimRng::new(10);
            for _ in 0..500 {
                let mut coord = || rng.uniform_inclusive(0, 40) as f64 - 20.0;
                let a = cube_center(Point::new(coord(), coord(), coord()));
                let b = cube_center(Point::new(coord(), coord(), coord()));
                let d = a.distance(b);
                let g = m.path_gain(a, b);
                assert_eq!(g.to_bits(), prop.power_at_distance(d).to_bits());
                assert_eq!(
                    prop.apply_cutoff(g).to_bits(),
                    prop.interference_power(d).to_bits()
                );
            }
        }
    }

    /// Under a uniform radio, audibility is taken from the interference
    /// ball on insert and on move; every station's audible list must equal
    /// what a ring search rebuilds.
    #[test]
    fn uniform_radio_audible_lists_match_ring_searches() {
        let mut m = mk(11);
        let mut rng = SimRng::new(12);
        let mut coord = |span: u64| rng.uniform_inclusive(0, span) as f64;
        let mut ids = Vec::new();
        for i in 0..160 {
            // Dense clusters and scattered loners, on two storeys.
            let span = if i % 3 == 0 { 80 } else { 24 };
            let p = Point::new(coord(span), coord(span), coord(1) * 12.0);
            ids.push(m.add_station(p));
        }
        let moves: Vec<_> = ids
            .iter()
            .step_by(4)
            .map(|&id| (id, Point::new(coord(60), coord(60), 0.0)))
            .collect();
        m.set_positions(&moves);
        assert!(m.uniform_radio);
        let mut audible_somewhere = 0;
        for s in 0..m.station_count() {
            let fast = m.audible[s].clone();
            m.rebuild_audible(s);
            assert_eq!(fast, m.audible[s], "station {s}");
            audible_somewhere += fast.len();
        }
        assert!(audible_somewhere > 0, "the layout must have audible pairs");
    }

    /// Mobility across many cells keeps grid and neighbor lists symmetric.
    #[test]
    fn repeated_moves_keep_neighbor_lists_symmetric() {
        let mut m = mk(5);
        let mut ids = Vec::new();
        for i in 0..12 {
            ids.push(m.add_station(Point::new((i * 4) as f64, 0.0, 0.0)));
        }
        // Walk one station across the whole row and back.
        for step in 0..40 {
            let x = (step % 20) as f64 * 3.0;
            m.set_position(ids[5], Point::new(x, 1.0, 0.0));
            for (a, row) in m.nbrs.iter().enumerate() {
                assert!(row.windows(2).all(|w| w[0].idx < w[1].idx), "ascending");
                for n in row {
                    assert!(
                        m.nbrs[n.idx].binary_search_by_key(&a, |x| x.idx).is_ok(),
                        "neighbor lists must stay symmetric after moves"
                    );
                }
            }
            assert_eq!(m.grid.len(), 12);
        }
    }
}

//! The naive O(N) reference radio medium.
//!
//! [`ReferenceMedium`] is the original, direct implementation of the medium:
//! every query recomputes distances and `r^-γ` powers from station positions,
//! and every interference sum is a fresh fold over the active-transmission
//! list. It is retained verbatim as the *behavioral oracle* for the fast
//! [`SparseMedium`](crate::sparse::SparseMedium): the two must produce
//! bit-identical results — every [`Delivery`] verdict and signal value, every
//! `carrier_busy` / `hears` / `in_range` answer, and the same RNG draw
//! sequence — on any schedule of operations. `medium_contract_tests!` runs
//! on both; `tests/oracle_medium.rs` and `tests/churn_medium.rs` drive them
//! side by side, and `macaw-core`'s `Scenario::run_with_queue::<ReferenceMedium, _>`
//! holds whole runs bit-identical end to end.
//!
//! Do not "optimize" or otherwise clean this file up; its value is precisely
//! that it stays the simplest possible statement of the medium's semantics.

use macaw_sim::{SimRng, SimTime};

use crate::geometry::{cube_center, Point};
use crate::medium::{Delivery, Medium, StationId, TxId};
use crate::propagation::Propagation;

struct StationEntry {
    pos: Point,
    transmitting: Option<TxId>,
    rx_error_rate: f64,
    tx_power: f64,
}

struct ActiveTx {
    id: TxId,
    source: StationId,
    start: SimTime,
}

struct Reception {
    tx: TxId,
    rx: StationId,
    signal: f64,
    clean: bool,
}

struct NoiseSource {
    pos: Point,
    power: f64,
    active: bool,
}

/// The naive reference implementation of the shared radio medium: the
/// [`Medium`] contract with no caches.
pub struct ReferenceMedium {
    prop: Propagation,
    stations: Vec<StationEntry>,
    active: Vec<ActiveTx>,
    receptions: Vec<Reception>,
    noise: Vec<NoiseSource>,
    rng: SimRng,
    next_tx: u64,
    /// Per-direction link gain multiplier (`link[src][dst]`, default 1.0).
    /// Configuration, not a cache: queries fold it into every signal the
    /// same way the cached medium does (`tx_power · link · gain`).
    link: Vec<Vec<f64>>,
}

impl Medium for ReferenceMedium {
    fn new(prop: Propagation, rng: SimRng) -> Self {
        ReferenceMedium {
            prop,
            stations: Vec::new(),
            active: Vec::new(),
            receptions: Vec::new(),
            noise: Vec::new(),
            rng,
            next_tx: 0,
            link: Vec::new(),
        }
    }

    fn propagation(&self) -> &Propagation {
        &self.prop
    }

    fn add_station(&mut self, pos: Point) -> StationId {
        let id = StationId(self.stations.len());
        self.stations.push(StationEntry {
            pos: cube_center(pos),
            transmitting: None,
            rx_error_rate: 0.0,
            tx_power: 1.0,
        });
        for row in &mut self.link {
            row.push(1.0);
        }
        self.link.push(vec![1.0; self.stations.len()]);
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
        if let Some(tx) = self.stations[id.0].transmitting {
            // The waveform changed mid-frame: the station's own in-flight
            // packet is lost, and its interference contribution everywhere
            // changed, so every other reception is re-verdicted. An idle
            // station contributes no interference, so nothing to do then.
            for r in &mut self.receptions {
                if r.tx == tx {
                    r.clean = false;
                }
            }
            self.recheck_all_receptions();
        }
    }

    fn hears(&self, to: StationId, from: StationId) -> bool {
        let d = self.stations[from.0].pos.distance(self.stations[to.0].pos);
        self.stations[from.0].tx_power * self.link[from.0][to.0] * self.prop.power_at_distance(d)
            >= self.prop.threshold_power()
    }

    fn set_link_gain(&mut self, src: StationId, dst: StationId, factor: f64) {
        assert!(
            factor >= 0.0 && factor.is_finite(),
            "link gain must be finite and non-negative"
        );
        assert_ne!(src, dst, "link gain applies to a pair of distinct stations");
        self.link[src.0][dst.0] = factor;
        if let Some(tx) = self.stations[src.0].transmitting {
            for r in &mut self.receptions {
                if r.tx == tx && r.rx == dst {
                    r.clean = false;
                }
            }
        }
        self.recheck_all_receptions();
    }

    fn link_gain(&self, src: StationId, dst: StationId) -> f64 {
        self.link[src.0][dst.0]
    }

    fn add_noise_source(&mut self, pos: Point, power: f64) -> usize {
        self.noise.push(NoiseSource {
            pos: cube_center(pos),
            power,
            active: true,
        });
        // Ambient noise increased: same rule as switching an emitter on.
        self.recheck_all_receptions();
        self.noise.len() - 1
    }

    fn set_noise_active(&mut self, index: usize, active: bool) {
        self.noise[index].active = active;
        if active {
            self.recheck_all_receptions();
        }
    }

    fn set_position(&mut self, id: StationId, pos: Point) {
        self.stations[id.0].pos = cube_center(pos);
        let moving_tx = self.stations[id.0].transmitting;
        for r in &mut self.receptions {
            if r.rx == id || Some(r.tx) == moving_tx {
                r.clean = false;
            }
        }
        self.recheck_all_receptions();
    }

    fn in_range(&self, a: StationId, b: StationId) -> bool {
        let d = self.stations[a.0].pos.distance(self.stations[b.0].pos);
        self.prop.in_range(d)
    }

    fn is_transmitting(&self, id: StationId) -> bool {
        self.stations[id.0].transmitting.is_some()
    }

    fn carrier_busy(&self, id: StationId) -> bool {
        let here = self.stations[id.0].pos;
        let mut power = self.ambient_noise_at(here);
        for tx in &self.active {
            if tx.source == id {
                continue;
            }
            power += self.stations[tx.source.0].tx_power
                * self.link[tx.source.0][id.0]
                * self
                    .prop
                    .interference_power(self.stations[tx.source.0].pos.distance(here));
        }
        power >= self.prop.threshold_power()
    }

    fn active_count(&self) -> usize {
        self.active.len()
    }

    fn start_tx(&mut self, source: StationId, now: SimTime) -> TxId {
        assert!(
            self.stations[source.0].transmitting.is_none(),
            "station {source:?} is already transmitting"
        );
        let id = TxId::from_raw(self.next_tx);
        self.next_tx += 1;
        self.stations[source.0].transmitting = Some(id);

        // Half-duplex: anything in flight *to* the new transmitter is lost.
        for r in &mut self.receptions {
            if r.rx == source {
                r.clean = false;
            }
        }

        self.active.push(ActiveTx {
            id,
            source,
            start: now,
        });

        // The new signal may drown existing receptions elsewhere.
        let src_pos = self.stations[source.0].pos;
        let tx_power = self.stations[source.0].tx_power;
        for i in 0..self.receptions.len() {
            let rx = self.receptions[i].rx;
            if !self.receptions[i].clean || rx == source {
                continue;
            }
            let added = tx_power
                * self.link[source.0][rx.0]
                * self.prop.interference_power(src_pos.distance(self.stations[rx.0].pos));
            if added > 0.0 {
                let interference = self.interference_at(rx, self.receptions[i].tx);
                let signal = self.receptions[i].signal;
                if !self.prop.clean(signal, interference) {
                    self.receptions[i].clean = false;
                }
            }
        }

        // Open a reception record at every in-range station.
        for (idx, st) in self.stations.iter().enumerate() {
            let rx = StationId(idx);
            if rx == source {
                continue;
            }
            let signal = tx_power
                * self.link[source.0][idx]
                * self.prop.power_at_distance(src_pos.distance(st.pos));
            if signal < self.prop.threshold_power() {
                continue; // out of range: hears nothing at all
            }
            let clean = st.transmitting.is_none() && {
                let interference = self.interference_at(rx, id);
                self.prop.clean(signal, interference)
            };
            self.receptions.push(Reception {
                tx: id,
                rx,
                signal,
                clean,
            });
        }
        id
    }

    fn end_tx(&mut self, tx: TxId, _now: SimTime) -> Vec<Delivery> {
        let idx = self
            .active
            .iter()
            .position(|t| t.id == tx)
            .expect("end_tx: transmission not in flight");
        let source = self.active[idx].source;
        // Ordered removal: the active list stays in transmission-start
        // order, so interference folds depend only on the relative start
        // order of the transmissions that are actually audible at a station
        // — never on when unrelated, far-away transmissions end. That makes
        // every fold a function of its own radio neighborhood, as the sparse
        // medium's stamp-ordered folds are.
        self.active.remove(idx);
        debug_assert_eq!(self.stations[source.0].transmitting, Some(tx));
        self.stations[source.0].transmitting = None;

        let mut deliveries: Vec<Delivery> = Vec::new();
        let mut kept = Vec::with_capacity(self.receptions.len());
        for r in self.receptions.drain(..) {
            if r.tx == tx {
                deliveries.push(Delivery {
                    station: r.rx,
                    clean: r.clean,
                    signal: r.signal,
                });
            } else {
                kept.push(r);
            }
        }
        self.receptions = kept;
        deliveries.sort_by_key(|d| d.station);

        for d in &mut deliveries {
            let rate = self.stations[d.station.0].rx_error_rate;
            if d.clean && rate > 0.0 && self.rng.chance(rate) {
                d.clean = false;
            }
        }
        deliveries
    }

    fn end_tx_into(&mut self, tx: TxId, now: SimTime, out: &mut Vec<Delivery>) {
        *out = ReferenceMedium::end_tx(self, tx, now);
    }

    fn tx_start(&self, tx: TxId) -> Option<SimTime> {
        self.active.iter().find(|t| t.id == tx).map(|t| t.start)
    }

    fn tx_source(&self, tx: TxId) -> Option<StationId> {
        self.active.iter().find(|t| t.id == tx).map(|t| t.source)
    }

    fn memory_footprint(&self) -> usize {
        self.link.iter().map(|r| r.capacity() * 8).sum::<usize>()
            + self.stations.capacity() * std::mem::size_of::<StationEntry>()
    }
}

impl ReferenceMedium {
    fn interference_at(&self, rx: StationId, except: TxId) -> f64 {
        let here = self.stations[rx.0].pos;
        let mut power = self.ambient_noise_at(here);
        for t in &self.active {
            if t.id == except || t.source == rx {
                continue;
            }
            power += self.stations[t.source.0].tx_power
                * self.link[t.source.0][rx.0]
                * self
                    .prop
                    .interference_power(self.stations[t.source.0].pos.distance(here));
        }
        power
    }

    fn ambient_noise_at(&self, here: Point) -> f64 {
        self.noise
            .iter()
            .filter(|n| n.active)
            .map(|n| n.power * self.prop.interference_power(n.pos.distance(here)))
            .sum()
    }

    fn recheck_all_receptions(&mut self) {
        for i in 0..self.receptions.len() {
            if !self.receptions[i].clean {
                continue;
            }
            let (tx, rx) = (self.receptions[i].tx, self.receptions[i].rx);
            let Some(src) = self.active.iter().find(|t| t.id == tx).map(|t| t.source) else {
                continue;
            };
            let signal = self.stations[src.0].tx_power
                * self.link[src.0][rx.0]
                * self
                    .prop
                    .power_at_distance(self.stations[src.0].pos.distance(self.stations[rx.0].pos));
            self.receptions[i].signal = signal;
            let interference = self.interference_at(rx, tx);
            if !self.prop.clean(signal, interference) {
                self.receptions[i].clean = false;
            }
        }
    }
}

#[cfg(test)]
mod contract {
    crate::medium::medium_contract_tests!(crate::reference::ReferenceMedium);
}

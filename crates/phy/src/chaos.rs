//! Deterministic per-link corruption windows.
//!
//! A [`LinkWindow`] is a time interval during which every sufficiently long
//! frame crossing a specific directed link is marked corrupted at delivery.
//! This models the paper's lossy-channel motivation (§3.3) — bursty per-link
//! interference that damages data frames in flight — without touching the
//! medium's signal model or its RNG stream: [`corrupt_deliveries`] is a pure
//! post-filter on the deliveries [`Medium::end_tx_into`] produces, so a run
//! with windows draws exactly the same random sequence as a clean run and
//! stays bit-reproducible. The simulation core applies it to every frame
//! that ends on the air.
//!
//! The `min_air` threshold on each window lets a schedule target long DATA
//! frames (16 ms at 256 kbps) while sparing short control frames (under
//! 1 ms), mimicking the empirical observation that loss probability grows
//! with time on air. Set `min_air` to zero to corrupt everything.
//!
//! [`Medium::end_tx_into`]: crate::medium::Medium::end_tx_into

use macaw_sim::{SimDuration, SimTime};

use crate::medium::{Delivery, StationId};

/// A scheduled per-link corruption interval.
///
/// While `from <= t < until`, any transmission from `src` whose delivery at
/// `dst` overlaps the window and whose time on air is at least `min_air`
/// arrives corrupted (`clean == false`), regardless of signal strength.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkWindow {
    /// Transmitting station whose frames the window damages.
    pub src: StationId,
    /// Receiving station at which the damage is observed.
    pub dst: StationId,
    /// Window start (inclusive).
    pub from: SimTime,
    /// Window end (exclusive).
    pub until: SimTime,
    /// Minimum time on air for a frame to be affected; shorter frames
    /// (control traffic) slip through.
    pub min_air: SimDuration,
}

impl LinkWindow {
    /// `true` iff a frame from `self.src` in the air over `[start, end)`
    /// is damaged by this window.
    fn hits(&self, start: SimTime, end: SimTime) -> bool {
        start < self.until && self.from < end && end.since(start) >= self.min_air
    }
}

/// Mark corrupted every delivery in `out` that a window in `windows` hits,
/// given the transmission's source and air interval. Corruption only clears
/// flags, so the order of `windows` never matters.
pub fn corrupt_deliveries(
    windows: &[LinkWindow],
    source: StationId,
    start: SimTime,
    end: SimTime,
    out: &mut [Delivery],
) {
    for w in windows {
        if w.src != source || !w.hits(start, end) {
            continue;
        }
        for d in out.iter_mut() {
            if d.station == w.dst {
                d.clean = false;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Point;
    use crate::medium::Medium;
    use crate::propagation::{Propagation, PropagationConfig};
    use crate::sparse::SparseMedium;
    use macaw_sim::SimRng;

    fn pair() -> (SparseMedium, StationId, StationId) {
        let prop = Propagation::new(PropagationConfig::default());
        let mut m = SparseMedium::new(prop, SimRng::new(7));
        let a = m.add_station(Point::new(0.0, 0.0, 0.0));
        let b = m.add_station(Point::new(5.0, 0.0, 0.0));
        (m, a, b)
    }

    fn ms(n: u64) -> SimTime {
        SimTime::from_nanos(n * 1_000_000)
    }

    /// Send one frame from `src` over `[start, end)` and apply `windows`
    /// to its deliveries.
    fn send(
        m: &mut SparseMedium,
        windows: &[LinkWindow],
        src: StationId,
        start: SimTime,
        end: SimTime,
    ) -> Vec<Delivery> {
        let tx = m.start_tx(src, start);
        let mut out = m.end_tx(tx, end);
        corrupt_deliveries(windows, src, start, end, &mut out);
        out
    }

    #[test]
    fn window_corrupts_long_frames_on_its_link_only() {
        let (mut m, a, b) = pair();
        let w = [LinkWindow {
            src: a,
            dst: b,
            from: ms(0),
            until: ms(100),
            min_air: SimDuration::from_nanos(2_000_000),
        }];

        // Long frame inside the window: corrupted.
        let out = send(&mut m, &w, a, ms(10), ms(20));
        assert_eq!(out.len(), 1);
        assert!(!out[0].clean, "10 ms frame in window must be corrupted");

        // Short frame inside the window: spared by min_air.
        let out = send(&mut m, &w, a, ms(30), SimTime::from_nanos(31_000_000));
        assert!(out[0].clean, "1 ms control frame must slip through");

        // Reverse direction unaffected.
        let out = send(&mut m, &w, b, ms(40), ms(60));
        assert!(out[0].clean, "window is directional");

        // After the window closes: unaffected.
        let out = send(&mut m, &w, a, ms(200), ms(220));
        assert!(out[0].clean, "window has closed");
    }

    #[test]
    fn frame_overlapping_window_edge_is_hit() {
        let (mut m, a, b) = pair();
        let w = [LinkWindow {
            src: a,
            dst: b,
            from: ms(50),
            until: ms(60),
            min_air: SimDuration::ZERO,
        }];
        // Starts before the window, ends inside it.
        let out = send(&mut m, &w, a, ms(45), ms(55));
        assert!(!out[0].clean);
        // Ends just past the window start: `from < end` — hit.
        let out = send(&mut m, &w, a, ms(40), SimTime::from_nanos(50_000_001));
        assert!(!out[0].clean);
        // Starts exactly at the window end: `start < until` fails — spared.
        let out = send(&mut m, &w, a, ms(60), ms(70));
        assert!(out[0].clean);
    }
}

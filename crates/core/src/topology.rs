//! Synthetic office-floor topologies for scaling experiments.
//!
//! The paper's figures are hand-drawn single- and two-cell layouts; this
//! module generates the *large* version of the same world: a floor of
//! square rooms on a grid, each with one base station at ceiling height
//! and a handful of pads, separated by corridors where roaming pads walk.
//! Rooms sit on a 16 ft pitch, so a room's pads are all within the
//! 10 ft reception range of their base while neighboring rooms overlap
//! just enough to contend at the edges — the regime MACAW's RRTS and
//! backoff-copying are designed for.
//!
//! Everything is driven by [`SimRng`] from the caller's seed, so a given
//! `(config, mac, seed)` triple always produces the identical scenario —
//! the `scale` bench depends on this to compare media and protocols on
//! bitwise-identical inputs.

use macaw_phy::Point;
use macaw_sim::SimRng;

use crate::scenario::{MacKind, Scenario};

/// Base-station height (ft), matching the paper's figures.
const BASE_Z: f64 = 6.0;
/// Stations per room, its base included.
const STATIONS_PER_ROOM: usize = 8;
/// Minimum distance (ft) from a room's walls to its pads: edge pads of
/// adjacent rooms overhear each other, so rooms contend at the boundaries.
const ROOM_INSET_FT: f64 = 1.0;
/// Fraction of all stations placed in corridors instead of rooms.
const WALKER_SHARE: f64 = 0.1;
/// Probability that a pad or walker sources an uplink stream to its base.
const STREAM_LOAD: f64 = 0.75;
/// Center-to-center distance between adjacent rooms (ft).
const ROOM_PITCH_FT: f64 = 16.0;
/// Width of the corridor strip between room rows (ft).
const CORRIDOR_WIDTH_FT: f64 = 8.0;
/// Fraction of streaming pads that also receive a downlink stream from
/// their base.
const DOWNLINK_SHARE: f64 = 0.25;
/// Packet size of every stream (bytes).
const PACKET_BYTES: u32 = 512;

/// The knobs of [`scale_topology`] that callers vary: size and per-stream
/// load. Room shape, pad inset, walker share, stream share, corridor
/// width, the downlink share and the packet size are the constants above.
#[derive(Clone, Copy, Debug)]
pub struct ScaleConfig {
    /// Total station count: bases + room pads + corridor walkers.
    pub stations: usize,
    /// Per-stream offered load (packets per second).
    pub pps: u64,
}

impl Default for ScaleConfig {
    fn default() -> Self {
        ScaleConfig {
            stations: 64,
            pps: 16,
        }
    }
}

impl ScaleConfig {
    /// A config with `stations` stations and every other knob default.
    pub fn with_stations(stations: usize) -> Self {
        ScaleConfig {
            stations,
            ..ScaleConfig::default()
        }
    }
}

/// Generate a random office floor per `cfg`, every station running `mac`.
///
/// Rooms fill a near-square grid row-major until the station budget is
/// spent: one base per room plus up to `STATIONS_PER_ROOM - 1` pads at
/// random interior offsets. Walkers land in the corridor strips below
/// their row and stream to the nearest room base. Positions use whole-foot
/// offsets, which cube-snapping then leaves alone.
pub fn scale_topology(cfg: &ScaleConfig, mac: MacKind, seed: u64) -> Scenario {
    assert!(cfg.stations >= 2, "a topology needs at least two stations");
    let mut rng = SimRng::new(seed ^ 0x0FF1_CE00);
    let mut sc = Scenario::new(seed);

    let walkers = ((cfg.stations as f64 * WALKER_SHARE) as usize)
        .min(cfg.stations.saturating_sub(STATIONS_PER_ROOM));
    let roomed = cfg.stations - walkers;
    let rooms = roomed.div_ceil(STATIONS_PER_ROOM);
    let rooms_per_row = (1..).find(|&w| w * w >= rooms).unwrap_or(1);
    let pitch = ROOM_PITCH_FT;
    let row_pitch = pitch + CORRIDOR_WIDTH_FT;

    // Rooms row-major; remember each base so pads and walkers can stream
    // to it.
    let mut bases: Vec<(usize, Point)> = Vec::with_capacity(rooms);
    let mut placed = 0usize;
    let mut streams = 0usize;
    for room in 0..rooms {
        if placed >= roomed {
            break;
        }
        let (row, col) = (room / rooms_per_row, room % rooms_per_row);
        let origin = (col as f64 * pitch, row as f64 * row_pitch);
        let center = Point::new(origin.0 + pitch / 2.0, origin.1 + pitch / 2.0, BASE_Z);
        let base = sc.add_station(&format!("B{room}"), center, mac);
        bases.push((base, center));
        placed += 1;

        let pads = (STATIONS_PER_ROOM - 1).min(roomed - placed);
        for p in 0..pads {
            // Random whole-foot offset in the room interior, at least
            // `ROOM_INSET_FT` from the walls; everything is within pitch/√2
            // of the base, i.e. in range on the 16 ft pitch.
            let (lo, hi) = (ROOM_INSET_FT as u64, (pitch - 2.0 * ROOM_INSET_FT) as u64);
            let dx = rng.uniform_inclusive(lo, hi) as f64;
            let dy = rng.uniform_inclusive(lo, hi) as f64;
            let pos = Point::new(origin.0 + dx, origin.1 + dy, 0.0);
            let pad = sc.add_station(&format!("P{room}_{p}"), pos, mac);
            placed += 1;
            if rng.chance(STREAM_LOAD) {
                sc.add_udp_stream(&format!("u{room}_{p}"), pad, base, cfg.pps, PACKET_BYTES);
                streams += 1;
                if rng.chance(DOWNLINK_SHARE) {
                    sc.add_udp_stream(&format!("d{room}_{p}"), base, pad, cfg.pps, PACKET_BYTES);
                    streams += 1;
                }
            }
        }
    }

    // Walkers roam the corridor strip below their room row and talk to
    // whichever base is nearest from there.
    let floor_w = (rooms_per_row as f64 * pitch).max(pitch);
    let corridor_rows = rooms.div_ceil(rooms_per_row);
    for w in 0..walkers {
        let row = w % corridor_rows.max(1);
        let x = rng.uniform_inclusive(1, floor_w as u64 - 1) as f64;
        let y = row as f64 * row_pitch + pitch + CORRIDOR_WIDTH_FT / 2.0;
        let pos = Point::new(x, y, 0.0);
        let id = sc.add_station(&format!("W{w}"), pos, mac);
        let nearest = nearest_base(&bases, rooms_per_row, row, pos);
        if rng.chance(STREAM_LOAD) {
            sc.add_udp_stream(&format!("w{w}"), id, nearest, cfg.pps, PACKET_BYTES);
            streams += 1;
        }
    }

    // A silent floor measures nothing: guarantee at least one stream.
    if streams == 0 {
        let (base, _) = bases[0];
        let pad = (0..cfg.stations)
            .find(|&s| s != base)
            .expect("more than one station");
        sc.add_udp_stream("u_floor", pad, base, cfg.pps, PACKET_BYTES);
    }
    sc
}

/// The first of `bases` (row-major, `rooms_per_row` to a row) nearest to
/// `pos`, a walker in the corridor below room row `row`.
///
/// Only room rows `row − 1 ..= row + 1` can hold it. The walker is 12 ft
/// in y from the bases of rows `row` and `row + 1`, 36 ft from row
/// `row + 2`, and 36 and 60 ft from rows `row − 1` and `row − 2`; every
/// base is 6 ft above it, and the bases of a full row leave no x more
/// than 8 ft from one of them. A full row `row` therefore has a base
/// within √244 ft (≈ 15.6), and a partial last row `row` has the full row
/// `row − 1` within √1396 ft (≈ 37.4): closer, either way, than every row
/// outside the slice. The scan runs over that contiguous slice of
/// `bases`, so it keeps the full scan's first-minimum tie-break.
fn nearest_base(bases: &[(usize, Point)], rooms_per_row: usize, row: usize, pos: Point) -> usize {
    let lo = row.saturating_sub(1) * rooms_per_row;
    let hi = ((row + 2) * rooms_per_row).min(bases.len());
    bases[lo..hi]
        .iter()
        .min_by(|a, b| {
            a.1.distance(pos)
                .partial_cmp(&b.1.distance(pos))
                .expect("distances are finite")
        })
        .expect("at least one room exists")
        .0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Dest;
    use macaw_phy::{Medium, StationId};

    /// Every walker's uplink goes to the base a scan over *all* bases
    /// picks (first minimum on a tie), on floors with full and partial
    /// last rows.
    #[test]
    fn walkers_stream_to_the_nearest_of_all_bases() {
        let mut walker_streams = 0;
        let sizes = (2..=300).chain([1000, 4099]);
        for n in sizes {
            let sc = scale_topology(&ScaleConfig::with_stations(n), MacKind::Macaw, n as u64);
            let bases: Vec<(usize, Point)> = (0..sc.stations.len())
                .filter(|&s| sc.stations[s].name.starts_with('B'))
                .map(|s| (s, sc.stations[s].pos))
                .collect();
            for stream in sc.streams.iter().filter(|st| st.name.starts_with('w')) {
                let pos = sc.stations[stream.src].pos;
                let oracle = bases
                    .iter()
                    .min_by(|a, b| {
                        a.1.distance(pos)
                            .partial_cmp(&b.1.distance(pos))
                            .expect("distances are finite")
                    })
                    .expect("at least one room exists")
                    .0;
                assert!(
                    matches!(stream.dst, Dest::Station(d) if d == oracle),
                    "N = {n}: {} -> {:?}, nearest {oracle}",
                    stream.name,
                    stream.dst
                );
                walker_streams += 1;
            }
        }
        assert!(walker_streams > 3_000, "{walker_streams} walker streams");
    }

    #[test]
    fn station_budget_is_spent_exactly() {
        for n in [2, 3, 16, 64, 257] {
            let sc = scale_topology(&ScaleConfig::with_stations(n), MacKind::Macaw, 7);
            assert_eq!(sc.station_count(), n, "n = {n}");
        }
    }

    #[test]
    fn same_seed_is_bitwise_reproducible() {
        let cfg = ScaleConfig::with_stations(48);
        let a = scale_topology(&cfg, MacKind::Macaw, 11);
        let b = scale_topology(&cfg, MacKind::Macaw, 11);
        assert_eq!(a.station_count(), b.station_count());
        for s in 0..a.station_count() {
            assert_eq!(a.station_position(s), b.station_position(s));
        }
    }

    #[test]
    fn different_seeds_shuffle_the_floor() {
        let cfg = ScaleConfig::with_stations(48);
        let a = scale_topology(&cfg, MacKind::Macaw, 1);
        let b = scale_topology(&cfg, MacKind::Macaw, 2);
        let moved = (0..48)
            .filter(|&s| a.station_position(s) != b.station_position(s))
            .count();
        assert!(moved > 0, "the layout must actually be random");
    }

    #[test]
    fn every_room_pad_is_in_range_of_its_base() {
        let sc = scale_topology(&ScaleConfig::with_stations(64), MacKind::Macaw, 3);
        let net = sc.build().expect("scale topology builds");
        let m = net.medium();
        // Base B0 is station 0; its room's pads follow it immediately.
        for pad in 1..STATIONS_PER_ROOM {
            assert!(
                m.in_range(StationId(0), StationId(pad)),
                "pad {pad} must hear its own base"
            );
        }
    }

    #[test]
    fn a_floor_always_offers_some_load() {
        // A two-station floor is one base and one pad, whose uplink draw
        // fails on about a quarter of seeds: those floors get the
        // fallback stream.
        let mut fallbacks = 0;
        for seed in 0..32 {
            let sc = scale_topology(&ScaleConfig::with_stations(2), MacKind::Macaw, seed);
            assert!(!sc.streams.is_empty(), "seed {seed}");
            fallbacks += usize::from(sc.streams.iter().any(|s| s.name == "u_floor"));
            sc.build().expect("every floor builds with a stream");
        }
        assert!(fallbacks > 0, "some seed leaves the floor silent");
    }
}

//! The paper's experiment topologies (Figures 1–11), as ready-to-run
//! scenario constructors.
//!
//! Each constructor takes the MAC under test — the tables compare protocol
//! variants on a fixed topology — and a seed. Coordinates are in feet with
//! base stations at z = 6 ft and pads at z = 0 (the paper places pads 6 ft
//! below base-station height); the reception range is 10 ft, so the layouts
//! below realize exactly the in-range/out-of-range graphs drawn in the
//! paper. Unit tests at the bottom verify every required connectivity
//! relation.

use macaw_phy::Point;
use macaw_sim::SimTime;

use crate::scenario::{Dest, MacKind, Scenario, SourceKind, StreamSpec, TransportKind};

/// Base-station height (ft).
const BASE_Z: f64 = 6.0;

fn base(x: f64, y: f64) -> Point {
    Point::new(x, y, BASE_Z)
}

fn pad(x: f64, y: f64) -> Point {
    Point::new(x, y, 0.0)
}

/// Figure 1, hidden-terminal workload: A → B while C → B, with A and C out
/// of range of each other. Under CSMA both collide at B; MACA's CTS from B
/// silences C.
pub fn figure1_hidden(mac: MacKind, seed: u64) -> Scenario {
    let mut sc = Scenario::new(seed);
    let a = sc.add_station("A", pad(0.0, 0.0), mac);
    let b = sc.add_station("B", pad(8.0, 0.0), mac);
    let c = sc.add_station("C", pad(16.0, 0.0), mac);
    sc.add_udp_stream("A-B", a, b, 64, 512);
    sc.add_udp_stream("C-B", c, b, 64, 512);
    sc
}

/// Figure 1, exposed-terminal workload: B → A while C → D, with C in range
/// of B only. Under CSMA, C needlessly defers to B; under MACA both streams
/// can run (the receivers do not overlap).
pub fn figure1_exposed(mac: MacKind, seed: u64) -> Scenario {
    let mut sc = Scenario::new(seed);
    let a = sc.add_station("A", pad(0.0, 0.0), mac);
    let b = sc.add_station("B", pad(8.0, 0.0), mac);
    let c = sc.add_station("C", pad(16.0, 0.0), mac);
    let d = sc.add_station("D", pad(24.0, 0.0), mac);
    sc.add_udp_stream("B-A", b, a, 64, 512);
    sc.add_udp_stream("C-D", c, d, 64, 512);
    sc
}

/// Figure 2 / Table 1: one cell, two pads each saturating the channel
/// toward the base station (64 pps UDP).
pub fn figure2(mac: MacKind, seed: u64) -> Scenario {
    let mut sc = Scenario::new(seed);
    let b = sc.add_station("B", base(0.0, 0.0), mac);
    let p1 = sc.add_station("P1", pad(-3.0, 0.0), mac);
    let p2 = sc.add_station("P2", pad(3.0, 0.0), mac);
    sc.add_udp_stream("P1-B", p1, b, 64, 512);
    sc.add_udp_stream("P2-B", p2, b, 64, 512);
    sc
}

/// Figure 3 / Table 2: one cell, six pads → base station, 32 pps UDP each.
pub fn figure3(mac: MacKind, seed: u64) -> Scenario {
    let mut sc = Scenario::new(seed);
    let b = sc.add_station("B", base(0.0, 0.0), mac);
    // Six pads on a 4 ft circle: every pair is within 8 ft.
    let positions = [
        (4.0, 0.0),
        (2.0, 3.5),
        (-2.0, 3.5),
        (-4.0, 0.0),
        (-2.0, -3.5),
        (2.0, -3.5),
    ];
    for (i, (x, y)) in positions.iter().enumerate() {
        let p = sc.add_station(&format!("P{}", i + 1), pad(*x, *y), mac);
        sc.add_udp_stream(&format!("P{}-B", i + 1), p, b, 32, 512);
    }
    sc
}

/// Figure 4 / Table 3: one cell; the base sends to two pads while a third
/// pad sends to the base, 32 pps UDP each. Exposes the single-queue vs
/// per-stream-queue allocation difference (§3.2).
pub fn figure4(mac: MacKind, seed: u64) -> Scenario {
    let mut sc = Scenario::new(seed);
    let b = sc.add_station("B", base(0.0, 0.0), mac);
    let p1 = sc.add_station("P1", pad(4.0, 0.0), mac);
    let p2 = sc.add_station("P2", pad(-2.0, 3.5), mac);
    let p3 = sc.add_station("P3", pad(-2.0, -3.5), mac);
    sc.add_udp_stream("B-P1", b, p1, 32, 512);
    sc.add_udp_stream("B-P2", b, p2, 32, 512);
    sc.add_udp_stream("P3-B", p3, b, 32, 512);
    sc
}

/// Table 4: one pad → base TCP stream (64 pps offered) under intermittent
/// noise: every packet is corrupted at its receiver with probability
/// `error_rate` (§3.3.1's model).
pub fn table4(mac: MacKind, seed: u64, error_rate: f64) -> Scenario {
    let mut sc = Scenario::new(seed);
    let b = sc.add_station("B", base(0.0, 0.0), mac);
    let p = sc.add_station("P", pad(3.0, 0.0), mac);
    sc.set_rx_error_rate(b, error_rate);
    sc.set_rx_error_rate(p, error_rate);
    sc.add_tcp_stream("P-B", p, b, 64, 512);
    sc
}

/// Stagger between the established stream and the late-starting stream in
/// the two-cell experiments. The paper's Figures 5-7 dynamics all begin
/// with "one of the streams wins the initial contention period"; starting
/// the second stream a few seconds later makes the winner deterministic,
/// so the tables measure whether the protocol can recover fairness from
/// that disadvantaged position (the paper's actual question).
pub const TWO_CELL_STAGGER: SimTime = SimTime::from_nanos(5_000_000_000);

/// The two-cell geometry shared by Figures 5–7: two pad/base pairs whose
/// pads are in range of each other, every other cross-cell pair out of
/// range.
fn two_cell(mac: MacKind, seed: u64) -> (Scenario, [usize; 4]) {
    let mut sc = Scenario::new(seed);
    let b1 = sc.add_station("B1", base(0.0, 0.0), mac);
    let p1 = sc.add_station("P1", pad(7.0, 0.0), mac);
    let p2 = sc.add_station("P2", pad(13.0, 0.0), mac);
    let b2 = sc.add_station("B2", base(20.0, 0.0), mac);
    (sc, [b1, p1, p2, b2])
}

/// Figure 5 / Table 5: each pad sends to its own base station (64 pps UDP);
/// each pad is an exposed terminal for the other stream. The DS packet is
/// what lets the losing pad find the contention periods (§3.3.2).
pub fn figure5(mac: MacKind, seed: u64) -> Scenario {
    let (mut sc, [b1, p1, p2, b2]) = two_cell(mac, seed);
    sc.add_udp_stream("P1-B1", p1, b1, 64, 512);
    sc.add_stream(StreamSpec {
        name: "P2-B2".to_string(),
        src: p2,
        dst: Dest::Station(b2),
        transport: TransportKind::Udp,
        source: SourceKind::Cbr { pps: 64 },
        bytes: 512,
        start: TWO_CELL_STAGGER,
        stop: None,
    });
    sc
}

/// Figure 6 / Table 6: the Figure-5 configuration with both flows reversed
/// (base → pad), so the *receivers* overhear each other. RRTS lets the
/// blocked receiver contend on its sender's behalf (§3.3.3).
pub fn figure6(mac: MacKind, seed: u64) -> Scenario {
    let (mut sc, [b1, p1, p2, b2]) = two_cell(mac, seed);
    sc.add_udp_stream("B2-P2", b2, p2, 64, 512);
    sc.add_stream(StreamSpec {
        name: "B1-P1".to_string(),
        src: b1,
        dst: Dest::Station(p1),
        transport: TransportKind::Udp,
        source: SourceKind::Cbr { pps: 64 },
        bytes: 512,
        start: TWO_CELL_STAGGER,
        stop: None,
    });
    sc
}

/// Figure 7 / Table 7: B1 → P1 while P2 → B2. P1 is drowned by P2's data
/// transmissions, so it never cleanly hears B1's RTS and cannot even send
/// an RRTS — the configuration the paper leaves unsolved.
pub fn figure7(mac: MacKind, seed: u64) -> Scenario {
    let (mut sc, [b1, p1, p2, b2]) = two_cell(mac, seed);
    sc.add_udp_stream("P2-B2", p2, b2, 64, 512);
    sc.add_stream(StreamSpec {
        name: "B1-P1".to_string(),
        src: b1,
        dst: Dest::Station(p1),
        transport: TransportKind::Udp,
        source: SourceKind::Cbr { pps: 64 },
        bytes: 512,
        start: TWO_CELL_STAGGER,
        stop: None,
    });
    sc
}

/// Figure 8 (no table; §3.4's backoff-leakage discussion): congested cell
/// C1 (four pads) adjoining quiet cell C2 (two pads), with the border pads
/// of both cells in range of each other so copied backoff values "leak"
/// between cells. All pads saturate toward their own base (64 pps UDP).
pub fn figure8(mac: MacKind, seed: u64) -> Scenario {
    let mut sc = Scenario::new(seed);
    let b1 = sc.add_station("B1", base(0.0, 0.0), mac);
    let p1 = sc.add_station("P1", pad(5.0, 1.0), mac);
    let p2 = sc.add_station("P2", pad(5.0, -1.0), mac);
    let p3 = sc.add_station("P3", pad(6.0, 1.0), mac);
    let p4 = sc.add_station("P4", pad(6.0, -1.0), mac);
    let b2 = sc.add_station("B2", base(19.0, 0.0), mac);
    let p5 = sc.add_station("P5", pad(12.0, 0.0), mac);
    let p6 = sc.add_station("P6", pad(23.0, 0.0), mac);
    for (name, p, b) in [
        ("P1-B1", p1, b1),
        ("P2-B1", p2, b1),
        ("P3-B1", p3, b1),
        ("P4-B1", p4, b1),
        ("P5-B2", p5, b2),
        ("P6-B2", p6, b2),
    ] {
        sc.add_udp_stream(name, p, b, 64, 512);
    }
    sc
}

/// Figure 9 / Table 8: one cell, three pads with bidirectional 32 pps UDP
/// streams; pad P1 is switched off at `off_at`. With a single backoff
/// counter the dead destination poisons every stream; per-destination
/// backoff isolates it (§3.4).
pub fn figure9(mac: MacKind, seed: u64, off_at: SimTime) -> Scenario {
    let mut sc = Scenario::new(seed);
    let b = sc.add_station("B1", base(0.0, 0.0), mac);
    let p1 = sc.add_station("P1", pad(4.0, 0.0), mac);
    let p2 = sc.add_station("P2", pad(-2.0, 3.5), mac);
    let p3 = sc.add_station("P3", pad(-2.0, -3.5), mac);
    for (name, s, d) in [
        ("B1-P1", b, p1),
        ("P1-B1", p1, b),
        ("B1-P2", b, p2),
        ("P2-B1", p2, b),
        ("B1-P3", b, p3),
        ("P3-B1", p3, b),
    ] {
        sc.add_udp_stream(name, s, d, 32, 512);
    }
    sc.power_off_at(off_at, p1);
    sc
}

/// Figure 10 / Table 10: three cells. C1 holds four pads near the C1–C2
/// border; C2 holds P5 near that border; P6 straddles the C2–C3 border (in
/// range of both B2 and B3). P1–P5 run bidirectional 32 pps UDP streams
/// with their own base; P6 sends to B3.
pub fn figure10(mac: MacKind, seed: u64) -> Scenario {
    let mut sc = Scenario::new(seed);
    let b1 = sc.add_station("B1", base(0.0, 0.0), mac);
    let p1 = sc.add_station("P1", pad(6.0, 1.0), mac);
    let p2 = sc.add_station("P2", pad(6.0, -1.0), mac);
    let p3 = sc.add_station("P3", pad(6.0, 3.0), mac);
    let p4 = sc.add_station("P4", pad(6.0, -3.0), mac);
    // P5 sits directly under B2, so its exchanges with B2 are
    // capture-protected (≥10 dB) against both the straddler P6 and the C1
    // border pads — the paper's nanocell premise that in-cell links survive
    // edge interference. P6 straddles the C2-C3 border at the very edge of
    // B2's cell.
    let b2 = sc.add_station("B2", base(15.0, 0.0), mac);
    let p5 = sc.add_station("P5", pad(15.0, 0.0), mac);
    let b3 = sc.add_station("B3", base(27.0, -8.0), mac);
    let p6 = sc.add_station("P6", pad(21.5, -4.5), mac);
    for (name, s, d) in [
        ("P1-B1", p1, b1),
        ("P2-B1", p2, b1),
        ("P3-B1", p3, b1),
        ("P4-B1", p4, b1),
        ("B1-P1", b1, p1),
        ("B1-P2", b1, p2),
        ("B1-P3", b1, p3),
        ("B1-P4", b1, p4),
        ("P5-B2", p5, b2),
        ("B2-P5", b2, p5),
        ("P6-B3", p6, b3),
    ] {
        sc.add_udp_stream(name, s, d, 32, 512);
    }
    sc
}

/// Figure 11 / Table 11: the four-cell PARC office slice. C1 is an open
/// area with four pads and a noise source (packet error rate 0.01 at every
/// C1 station); C2 and C3 are offices (P6, P5); C4 is the coffee room into
/// which P7 arrives at `arrive_at` (its TCP stream starts on arrival).
/// Every pad runs a 32 pps TCP stream to its own base. Stated overlaps:
/// P4, P5 and P6 hear each other; P7 (once arrived) hears P1 and P3.
pub fn figure11(mac: MacKind, seed: u64, arrive_at: SimTime) -> Scenario {
    let mut sc = Scenario::new(seed);
    // C1, the open area.
    let b1 = sc.add_station("B1", base(0.0, 0.0), mac);
    let p1 = sc.add_station("P1", pad(-1.0, -3.0), mac);
    let p2 = sc.add_station("P2", pad(-3.0, 3.0), mac);
    let p3 = sc.add_station("P3", pad(2.0, -3.0), mac);
    let p4 = sc.add_station("P4", pad(4.0, 2.0), mac);
    // C2 (office, north-east) and C3 (office, south-east).
    let b2 = sc.add_station("B2", base(12.0, 14.0), mac);
    let p6 = sc.add_station("P6", pad(8.0, 8.0), mac);
    let b3 = sc.add_station("B3", base(16.0, 2.0), mac);
    let p5 = sc.add_station("P5", pad(10.0, 4.0), mac);
    // C4 (coffee room, south). P7 starts far away and is carried in.
    let b4 = sc.add_station("B4", base(0.0, -15.0), mac);
    let p7 = sc.add_station("P7", pad(0.0, -40.0), mac);

    // The whiteboard noise source: per-packet error 0.01 at C1 stations.
    for s in [b1, p1, p2, p3, p4] {
        sc.set_rx_error_rate(s, 0.01);
    }

    for (name, s, d) in [
        ("P1-B1", p1, b1),
        ("P2-B1", p2, b1),
        ("P3-B1", p3, b1),
        ("P4-B1", p4, b1),
        ("P5-B3", p5, b3),
        ("P6-B2", p6, b2),
    ] {
        sc.add_tcp_stream(name, s, d, 32, 512);
    }
    // P7 is mobile: it arrives (and its stream starts) at `arrive_at`.
    sc.move_station_at(arrive_at, p7, pad(0.0, -9.0));
    sc.add_stream(StreamSpec {
        name: "P7-B4".to_string(),
        src: p7,
        dst: Dest::Station(b4),
        transport: TransportKind::Tcp,
        source: SourceKind::Cbr { pps: 32 },
        bytes: 512,
        start: arrive_at,
        stop: None,
    });
    sc
}

#[cfg(test)]
mod tests {
    use super::*;
    use macaw_phy::{Medium, StationId};
    use macaw_sim::SimDuration;

    /// Assert the exact set of in-range pairs (by station index).
    fn assert_links(sc: Scenario, expected_in_range: &[(usize, usize)]) {
        let net = sc.build().unwrap();
        let n = net.station_count();
        for a in 0..n {
            for b in (a + 1)..n {
                let expect = expected_in_range.contains(&(a, b))
                    || expected_in_range.contains(&(b, a));
                let got = net.medium().in_range(StationId(a), StationId(b));
                assert_eq!(
                    got, expect,
                    "stations {a} and {b}: expected in_range={expect}"
                );
            }
        }
    }

    fn all_pairs_connected(sc: Scenario) {
        let net = sc.build().unwrap();
        let n = net.station_count();
        for a in 0..n {
            for b in (a + 1)..n {
                assert!(
                    net.medium().in_range(StationId(a), StationId(b)),
                    "stations {a} and {b} must be in range"
                );
            }
        }
    }

    #[test]
    fn figure1_connectivity_is_a_line() {
        // A-B-C-D: only adjacent stations hear each other.
        assert_links(
            figure1_exposed(MacKind::Maca, 1),
            &[(0, 1), (1, 2), (2, 3)],
        );
    }

    #[test]
    fn figure2_is_a_single_cell() {
        assert_links(figure2(MacKind::Maca, 1), &[(0, 1), (0, 2), (1, 2)]);
    }

    #[test]
    fn figure3_is_fully_connected() {
        all_pairs_connected(figure3(MacKind::Maca, 1));
    }

    #[test]
    fn figure4_is_fully_connected() {
        all_pairs_connected(figure4(MacKind::Maca, 1));
    }

    #[test]
    fn two_cell_geometry_matches_figure5() {
        // Stations: B1=0, P1=1, P2=2, B2=3.
        assert_links(figure5(MacKind::Macaw, 1), &[(0, 1), (1, 2), (2, 3)]);
    }

    #[test]
    fn figure8_border_pads_leak_but_bases_are_isolated() {
        // Stations: B1=0, P1..P4=1..4, B2=5, P5=6, P6=7.
        assert_links(
            figure8(MacKind::Macaw, 1),
            &[
                (0, 1),
                (0, 2),
                (0, 3),
                (0, 4),
                (1, 2),
                (1, 3),
                (1, 4),
                (2, 3),
                (2, 4),
                (3, 4),
                (1, 6),
                (2, 6),
                (3, 6),
                (4, 6),
                (5, 6),
                (5, 7),
            ],
        );
    }

    #[test]
    fn figure9_is_a_single_cell() {
        all_pairs_connected(figure9(MacKind::Macaw, 1, SimTime::ZERO));
    }

    #[test]
    fn figure10_connectivity() {
        // B1=0, P1..P4=1..4, B2=5, P5=6, B3=7, P6=8.
        assert_links(
            figure10(MacKind::Macaw, 1),
            &[
                (0, 1),
                (0, 2),
                (0, 3),
                (0, 4),
                (1, 2),
                (1, 3),
                (1, 4),
                (2, 3),
                (2, 4),
                (3, 4),
                (1, 6),
                (2, 6),
                (3, 6),
                (4, 6),
                (5, 6),
                (5, 8),
                (7, 8),
                // The straddler P6 is at the edge of B2's cell and also
                // hears P5 (both live in the narrow C2 region).
                (6, 8),
            ],
        );
    }

    #[test]
    fn figure10_p5_is_capture_protected_from_the_straddler() {
        // P5's signal at B2 must exceed P6's by the 10 dB capture margin,
        // so the straddler cannot destroy in-cell exchanges (§2.1).
        let net = figure10(MacKind::Macaw, 1).build().unwrap();
        let prop = net.medium().propagation();
        let d_p5 = net.medium().position(StationId(6)).distance(net.medium().position(StationId(5)));
        let d_p6 = net.medium().position(StationId(8)).distance(net.medium().position(StationId(5)));
        let p5 = prop.power_at_distance(d_p5);
        let p6 = prop.power_at_distance(d_p6);
        assert!(prop.clean(p5, p6), "P5 ({d_p5:.2} ft) must capture over P6 ({d_p6:.2} ft)");
    }

    #[test]
    fn figure11_connectivity_before_arrival() {
        // B1=0, P1=1, P2=2, P3=3, P4=4, B2=5, P6=6, B3=7, P5=8, B4=9, P7=10.
        assert_links(
            figure11(MacKind::Macaw, 1, SimTime::ZERO + SimDuration::from_secs(300)),
            &[
                (0, 1),
                (0, 2),
                (0, 3),
                (0, 4),
                (1, 2),
                (1, 3),
                (1, 4),
                (2, 3),
                (2, 4),
                (3, 4),
                (5, 6),
                (7, 8),
                (4, 6),
                (4, 8),
                (6, 8),
            ],
        );
    }

    #[test]
    fn figure11_p7_hears_p1_p3_and_b4_after_arrival() {
        let arrive = SimTime::ZERO + SimDuration::from_millis(10);
        let sc = figure11(MacKind::Macaw, 1, arrive);
        let mut net = sc.build().unwrap();
        net.run_until(arrive + SimDuration::from_millis(1)).unwrap();
        let m = net.medium();
        let p7 = StationId(10);
        assert!(m.in_range(p7, StationId(9)), "P7-B4");
        assert!(m.in_range(p7, StationId(1)), "P7-P1");
        assert!(m.in_range(p7, StationId(3)), "P7-P3");
        assert!(!m.in_range(p7, StationId(2)), "P7 must not hear P2");
        assert!(!m.in_range(p7, StationId(4)), "P7 must not hear P4");
        assert!(!m.in_range(p7, StationId(0)), "P7 must not hear B1");
    }
}

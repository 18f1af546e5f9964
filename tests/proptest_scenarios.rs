//! Whole-system property tests: randomly generated topologies and
//! workloads run to completion without panics, and the conservation
//! invariants hold regardless of geometry, protocol mix, noise or random
//! faults.

use macaw::mac::BackoffSharing;
use macaw::prelude::*;
use proptest::prelude::*;

#[derive(Clone, Debug)]
struct RandomScenario {
    seed: u64,
    stations: Vec<(f64, f64, bool)>, // (x, y, is_base)
    streams: Vec<(usize, usize, u64, bool)>, // (src, dst, pps, tcp)
    mac: u8,
    error_rate: f64,
    /// Declare `add_random_faults` (crashes and restarts, corruption,
    /// asymmetry, jitter and noise bursts) drawn from `seed`.
    faults: bool,
}

fn arb_scenario() -> impl Strategy<Value = RandomScenario> {
    let station = (-25.0f64..25.0, -25.0f64..25.0, any::<bool>());
    (
        any::<u64>(),
        proptest::collection::vec(station, 2..8),
        proptest::collection::vec((0usize..8, 0usize..8, 1u64..80, any::<bool>()), 1..6),
        0u8..4,
        0.0f64..0.3,
        any::<bool>(),
    )
        .prop_map(
            |(seed, stations, streams, mac, error_rate, faults)| RandomScenario {
                seed,
                stations,
                streams,
                mac,
                error_rate,
                faults,
            },
        )
}

fn build(rs: &RandomScenario) -> Option<Scenario> {
    let mac = match rs.mac {
        0 => MacKind::Maca,
        1 => MacKind::Macaw,
        2 => MacKind::Csma(Default::default()),
        _ => {
            let mut c = MacConfig::macaw();
            c.backoff_sharing = BackoffSharing::Copy;
            c.use_rrts = false;
            MacKind::Custom(c)
        }
    };
    let mut sc = Scenario::new(rs.seed);
    let ids: Vec<usize> = rs
        .stations
        .iter()
        .enumerate()
        .map(|(i, (x, y, is_base))| {
            let z = if *is_base { 6.0 } else { 0.0 };
            sc.add_station(&format!("S{i}"), Point::new(*x, *y, z), mac)
        })
        .collect();
    sc.set_rx_error_rate(ids[0], rs.error_rate);
    let mut any_stream = false;
    for (i, (src, dst, pps, tcp)) in rs.streams.iter().enumerate() {
        let src = src % ids.len();
        let dst = dst % ids.len();
        if src == dst {
            continue;
        }
        any_stream = true;
        sc.add_stream(StreamSpec {
            name: format!("F{i}"),
            src,
            dst: Dest::Station(dst),
            transport: if *tcp {
                TransportKind::Tcp
            } else {
                TransportKind::Udp
            },
            source: SourceKind::Cbr { pps: *pps },
            bytes: 512,
            start: SimTime::ZERO,
            stop: None,
        });
    }
    if rs.faults {
        let cfg = FaultPlanConfig {
            duration: SimDuration::from_secs(30),
            ..FaultPlanConfig::default()
        };
        add_random_faults(&mut sc, rs.seed, &cfg);
    }
    any_stream.then_some(sc)
}

/// Any random scenario runs to completion and conserves packets.
/// (Zero warm-up: with a warm-up window, packets offered before the
/// boundary but delivered after it legitimately make delivered exceed
/// offered within the window.)
fn run_and_conserve(rs: &RandomScenario) -> Result<(), TestCaseError> {
    let Some(sc) = build(rs) else { return Ok(()) };
    let r = sc
        .run(SimDuration::from_secs(30), SimDuration::ZERO)
        .unwrap();
    for s in &r.streams {
        prop_assert!(
            s.delivered <= s.offered,
            "{}: {} > {}",
            s.name,
            s.delivered,
            s.offered
        );
        prop_assert!(s.throughput_pps.is_finite());
    }
    let n = r.streams.len() as f64;
    let j = r.jain_fairness();
    prop_assert!(j >= 1.0 / n - 1e-9 && j <= 1.0 + 1e-9);
    Ok(())
}

/// Replay determinism holds for random scenarios too.
fn replay(rs: &RandomScenario) -> Result<(), TestCaseError> {
    let (Some(a), Some(b)) = (build(rs), build(rs)) else {
        return Ok(());
    };
    let ra = a
        .run(SimDuration::from_secs(15), SimDuration::from_secs(2))
        .unwrap();
    let rb = b
        .run(SimDuration::from_secs(15), SimDuration::from_secs(2))
        .unwrap();
    for (sa, sb) in ra.streams.iter().zip(&rb.streams) {
        prop_assert_eq!(sa.delivered, sb.delivered);
        prop_assert_eq!(sa.offered, sb.offered);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_scenarios_run_and_conserve(rs in arb_scenario()) {
        run_and_conserve(&rs)?;
    }

    #[test]
    fn random_scenarios_replay(rs in arb_scenario()) {
        replay(&rs)?;
    }
}

/// A case real proptest once shrank to: two pads on CSMA, a 13.5 %
/// receiver error rate on S0, a UDP stream S0 → S1 and a TCP stream
/// S1 → S0.
#[test]
fn recorded_csma_noisy_receiver_case() {
    let rs = RandomScenario {
        seed: 761,
        stations: vec![
            (-14.736862290478323, 24.710782885211444, false),
            (-10.856257680942008, 19.8958396108108, false),
        ],
        streams: vec![(6, 1, 21, false), (1, 2, 16, true)],
        mac: 2,
        error_rate: 0.13543209937794443,
        faults: false,
    };
    run_and_conserve(&rs).unwrap();
    replay(&rs).unwrap();
}

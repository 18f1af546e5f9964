//! Determinism: a scenario is a pure function of `(topology, seed)`.
//! Replayability is what makes the paper tables reproducible at all.

use std::hash::{Hash, Hasher};

use macaw::prelude::*;
use macaw::sim::FastHasher;

const DUR: SimDuration = SimDuration::from_secs(60);
const WARM: SimDuration = SimDuration::from_secs(5);

fn fingerprint(r: &RunReport) -> Vec<(String, u64, u64)> {
    r.streams
        .iter()
        .map(|s| (s.name.clone(), s.offered, s.delivered))
        .collect()
}

/// A digest of a report's science fields: the measured window, the
/// streams, the MAC counters and drops, and the air times. The event
/// count and the queue counters are left out. `Debug` prints every field,
/// and every float in its shortest exact form.
fn science_digest(r: &RunReport) -> u64 {
    let science = (
        r.measured_secs,
        &r.streams,
        &r.mac_stats,
        &r.mac_drops,
        r.data_air_secs,
        r.total_air_secs,
    );
    let mut h = FastHasher::default();
    format!("{science:?}").hash(&mut h);
    h.finish()
}

/// A base station multicasting to two pads (§3.3.4) beside a TCP stream
/// from one pad back to it: a stream with no receiver endpoint ahead of
/// one whose endpoints both run timers.
fn multicast_cell(seed: u64) -> Scenario {
    let mut sc = Scenario::new(seed);
    let b = sc.add_station("B", Point::new(0.0, 0.0, 6.0), MacKind::Macaw);
    let p1 = sc.add_station("P1", Point::new(-3.0, 0.0, 0.0), MacKind::Macaw);
    let p2 = sc.add_station("P2", Point::new(3.0, 0.0, 0.0), MacKind::Macaw);
    sc.add_stream(StreamSpec {
        name: "B-mc".into(),
        src: b,
        dst: Dest::Group {
            group: 7,
            members: vec![p1, p2],
        },
        transport: TransportKind::Udp,
        source: SourceKind::Cbr { pps: 16 },
        bytes: 512,
        start: SimTime::ZERO,
        stop: None,
    });
    sc.add_tcp_stream("P1-B", p1, b, 16, 512);
    sc
}

/// The science digest of each builder's seed-99 run. A change that
/// shifts one event of one run changes its digest: re-record the table
/// only in a change meant to move results, and say so.
const DIGESTS: &[(&str, u64)] = &[
    ("fig1h", 0xa6093a97194428e1),
    ("fig1e", 0x1a3753d7d0f2da47),
    ("fig2", 0x2fe12437381cbaaa),
    ("fig3", 0x2907be078bc626b2),
    ("fig4", 0xeb74e9c069133895),
    ("fig5", 0x35f588cbc2b07fd3),
    ("fig6", 0xa8281508367c93ed),
    ("fig7", 0xb074eb07862ad096),
    ("fig8", 0x94857476d84837c2),
    ("fig9", 0x6152dc940c1594a1),
    ("fig10", 0xf49e4eedab0c73dd),
    ("fig11", 0xdfa8eebe2ad183b5),
    ("tbl4", 0xb4a9a76aa035e7b5),
    ("csma", 0x24f07a33a861a243),
    ("mcast", 0x1c7c905be1b58d69),
];

#[test]
fn every_figure_replays_identically() {
    let arrive = SimTime::ZERO + SimDuration::from_secs(20);
    let off = SimTime::ZERO + SimDuration::from_secs(20);
    type Builder = Box<dyn Fn(u64) -> Scenario>;
    let builders: Vec<(&str, Builder)> = vec![
        ("fig1h", Box::new(|s| figures::figure1_hidden(MacKind::Macaw, s))),
        ("fig1e", Box::new(|s| figures::figure1_exposed(MacKind::Macaw, s))),
        ("fig2", Box::new(|s| figures::figure2(MacKind::Maca, s))),
        ("fig3", Box::new(|s| figures::figure3(MacKind::Macaw, s))),
        ("fig4", Box::new(|s| figures::figure4(MacKind::Macaw, s))),
        ("fig5", Box::new(|s| figures::figure5(MacKind::Macaw, s))),
        ("fig6", Box::new(|s| figures::figure6(MacKind::Macaw, s))),
        ("fig7", Box::new(|s| figures::figure7(MacKind::Macaw, s))),
        ("fig8", Box::new(|s| figures::figure8(MacKind::Macaw, s))),
        ("fig9", Box::new(move |s| figures::figure9(MacKind::Macaw, s, off))),
        ("fig10", Box::new(|s| figures::figure10(MacKind::Macaw, s))),
        ("fig11", Box::new(move |s| figures::figure11(MacKind::Macaw, s, arrive))),
        ("tbl4", Box::new(|s| figures::table4(MacKind::Macaw, s, 0.05))),
        (
            "csma",
            Box::new(|s| figures::figure1_hidden(MacKind::Csma(Default::default()), s)),
        ),
        ("mcast", Box::new(multicast_cell)),
    ];
    let mut got = Vec::new();
    for (name, build) in &builders {
        let a = science_digest(&build(99).run(DUR, WARM).unwrap());
        let b = science_digest(&build(99).run(DUR, WARM).unwrap());
        assert_eq!(a, b, "{name}: same seed must replay identically");
        got.push((*name, a));
    }
    assert_eq!(got, DIGESTS, "science digests moved");
}

#[test]
fn different_seeds_usually_differ() {
    // Stochastic contention means two seeds almost surely differ in
    // delivered counts somewhere.
    let a = figures::figure3(MacKind::Macaw, 1).run(DUR, WARM).unwrap();
    let b = figures::figure3(MacKind::Macaw, 2).run(DUR, WARM).unwrap();
    assert_ne!(fingerprint(&a), fingerprint(&b));
}

#[test]
fn incremental_and_one_shot_runs_agree() {
    // Driving the network in small steps must produce exactly the same
    // trajectory as one big run_until.
    let end = SimTime::ZERO + DUR;
    let mut stepped = figures::figure4(MacKind::Macaw, 5).build().unwrap();
    let mut t = SimTime::ZERO;
    while t < end {
        t += SimDuration::from_secs(7);
        stepped.run_until(t.min(end)).unwrap();
    }
    let mut oneshot = figures::figure4(MacKind::Macaw, 5).build().unwrap();
    oneshot.run_until(end).unwrap();
    assert_eq!(
        fingerprint(&stepped.report(end)),
        fingerprint(&oneshot.report(end))
    );
}

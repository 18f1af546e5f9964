//! Reduction soundness: the reduced explorer (sleep-set partial order +
//! symmetry quotient + reception-order filtering) must agree with the
//! unreduced oracle explorer on every verdict while exploring no more
//! states. The oracle is the historical explorer, kept bit-identical, so
//! these tests pin the reductions to it on random small topologies and on
//! the declared-symmetry 5-station families.

use macaw_check::{
    check, check_fan, proof_wmac, CheckConfig, CheckReport, Expectation, FaultClass, Topology,
    ViolationKind,
};
use macaw_mac::{Addr, MacConfig, WMac};
use proptest::prelude::*;

fn macaw_cfg() -> MacConfig {
    proof_wmac(MacConfig::macaw())
}

fn run(topo: &Topology, cfg: &CheckConfig) -> CheckReport {
    check("macaw", topo, cfg, |i| {
        WMac::new(Addr::Unicast(i), macaw_cfg())
    })
}

fn kind_tag(k: &ViolationKind) -> &'static str {
    match k {
        ViolationKind::Deadlock { .. } => "deadlock",
        ViolationKind::StuckWait { .. } => "stuck",
        ViolationKind::Livelock => "livelock",
        ViolationKind::Undelivered { .. } => "undelivered",
        ViolationKind::Invariant(_) => "invariant",
    }
}

/// Oracle vs reduced on one topology/config: identical verdict; when both
/// reject, identical violation kind and (depth_step 1 makes minimal depth
/// exact) identical counterexample length — except for livelocks, whose
/// cycle entry point is representation-dependent; and the reduced run
/// never explores more states than the oracle.
fn assert_agree(topo: &Topology, cfg: &CheckConfig) -> (u64, u64) {
    let oracle = run(topo, cfg);
    let reduced = run(topo, &cfg.reduced());
    assert_eq!(
        oracle.ok(),
        reduced.ok(),
        "verdict diverged on {}: oracle {:?} vs reduced {:?}",
        topo.name,
        oracle.violation.as_ref().map(|v| &v.kind),
        reduced.violation.as_ref().map(|v| &v.kind),
    );
    if let (Some(a), Some(b)) = (&oracle.violation, &reduced.violation) {
        assert_eq!(
            kind_tag(&a.kind),
            kind_tag(&b.kind),
            "violation kind diverged on {}",
            topo.name
        );
        if cfg.depth_step == 1
            && !matches!(a.kind, ViolationKind::Livelock)
            && !matches!(b.kind, ViolationKind::Livelock)
        {
            assert_eq!(
                a.trace.len(),
                b.trace.len(),
                "minimal counterexample length diverged on {}",
                topo.name
            );
        }
    }
    assert!(
        reduced.stats.states_explored <= oracle.stats.states_explored,
        "reduction explored more states on {}: {} > {}",
        topo.name,
        reduced.stats.states_explored,
        oracle.stats.states_explored,
    );
    (oracle.stats.states_explored, reduced.stats.states_explored)
}

/// A random connected-enough topology: `n` stations, each unordered pair
/// linked with probability ~1/2, and one or two flows along existing
/// links. Returned only if at least one flow is possible.
fn random_topology(n: usize, link_bits: u32, flow_pick: u32) -> Option<Topology> {
    let mut links = Vec::new();
    let mut bit = 0;
    for a in 0..n {
        for b in (a + 1)..n {
            if link_bits >> bit & 1 == 1 {
                links.push((a, b));
            }
            bit += 1;
        }
    }
    let candidates: Vec<(usize, usize)> = links
        .iter()
        .flat_map(|&(a, b)| [(a, b), (b, a)])
        .collect();
    if candidates.is_empty() {
        return None;
    }
    let first = candidates[flow_pick as usize % candidates.len()];
    let mut flows = vec![first];
    let second = candidates[(flow_pick / 64) as usize % candidates.len()];
    if second != first {
        flows.push(second);
    }
    Some(Topology::from_links("random", n, &links, &[], &flows))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random small topologies, every fault class: the reduced explorer
    /// agrees with the oracle on the verdict, the violation kind, the
    /// minimal counterexample length, and explores no more states.
    #[test]
    fn reduced_matches_oracle_on_random_topologies(
        n in 2usize..5,
        link_bits in 0u32..64,
        flow_pick in 0u32..4096,
        fault_pick in 0u32..4,
        seed in 0u64..1 << 32,
    ) {
        let Some(topo) = random_topology(n, link_bits, flow_pick) else {
            return Ok(());
        };
        let fault = match fault_pick {
            0 => FaultClass::None,
            1 => FaultClass::Loss { budget: 1 },
            2 => FaultClass::Noise { budget: 1 },
            _ => FaultClass::CarrierBlind { budget: 1 },
        };
        let mut cfg = CheckConfig::new(fault, Expectation::ResolveAll);
        cfg.seed = seed;
        cfg.max_depth = 40;
        cfg.depth_step = 1;
        assert_agree(&topo, &cfg);
    }
}

/// The declared-symmetry 5-station families agree between oracle and
/// reduced exploration under a bounded depth (deep enough to exercise
/// contention, shallow enough that the oracle stays cheap).
#[test]
fn reduced_matches_oracle_on_five_station_families() {
    for topo in Topology::families_5() {
        for fault in [FaultClass::None, FaultClass::Loss { budget: 1 }] {
            let mut cfg = CheckConfig::new(fault, Expectation::ResolveAll);
            cfg.max_depth = 16;
            cfg.depth_step = 4;
            let (oracle, reduced) = assert_agree(&topo, &cfg);
            assert!(
                reduced < oracle,
                "{}: expected strict reduction, got {} vs {}",
                topo.name,
                reduced,
                oracle
            );
        }
    }
}

/// Splitting the frontier into jobs (serial fan) changes nothing about
/// the verdict and is deterministic: two runs at the same split depth are
/// bit-identical, and the verdict matches the unsplit reduced run.
#[test]
fn split_exploration_is_deterministic_and_verdict_stable() {
    let topo = Topology::mirrored_chain();
    let mut cfg = CheckConfig::new(FaultClass::Loss { budget: 1 }, Expectation::ResolveAll);
    cfg.max_depth = 32;
    cfg.reduce = true;

    let serial = run(&topo, &cfg);

    cfg.split_depth = 4;
    let fan = |n: usize, f: &(dyn Fn(usize) -> macaw_check::SubtreeOut + Sync)| {
        (0..n).map(f).collect::<Vec<_>>()
    };
    let a = check_fan("macaw", &topo, &cfg, |i| WMac::new(Addr::Unicast(i), macaw_cfg()), fan);
    let b = check_fan("macaw", &topo, &cfg, |i| WMac::new(Addr::Unicast(i), macaw_cfg()), fan);

    assert_eq!(a.ok(), serial.ok());
    assert_eq!(a.complete, serial.complete);
    assert_eq!(a.ok(), b.ok());
    assert_eq!(a.stats.states_explored, b.stats.states_explored);
    assert_eq!(a.stats.dedup_hits, b.stats.dedup_hits);
    assert_eq!(a.stats.sleep_skips, b.stats.sleep_skips);
    assert_eq!(a.stats.terminals, b.stats.terminals);
    assert_eq!(a.stats.max_depth_reached, b.stats.max_depth_reached);
}

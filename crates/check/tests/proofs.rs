//! The checker's headline theorems: per protocol × topology family,
//! exhaustive exploration finds no deadlock, no livelock, no stuck wait
//! state, and the expected delivery/resolution outcome.
//!
//! Protocol configurations shrink the retry budget and backoff range so
//! the retry-bounded state spaces stay small enough to explore to
//! completion (`report.complete`), turning each bounded search into an
//! actual proof. The properties themselves are unchanged by the bounds:
//! the shrunk configurations still run the full RTS-CTS-DS-DATA-ACK
//! machinery with contention, deferral and recovery.

use macaw_check::{
    check, proof_csma, proof_wmac, CheckConfig, CheckReport, CheckStats, Expectation, FaultClass,
    Topology,
};
use macaw_mac::{Addr, Csma, MacConfig, WMac};

fn check_macaw(topo: Topology, cfg: CheckConfig) -> CheckReport {
    check("macaw", &topo, &cfg, |i| {
        WMac::new(Addr::Unicast(i), proof_wmac(MacConfig::macaw()))
    })
}

fn check_maca(topo: Topology, cfg: CheckConfig) -> CheckReport {
    check("maca", &topo, &cfg, |i| {
        WMac::new(Addr::Unicast(i), proof_wmac(MacConfig::maca()))
    })
}

fn check_csma(topo: Topology, cfg: CheckConfig) -> CheckReport {
    check("csma", &topo, &cfg, |i| {
        Csma::new(Addr::Unicast(i), proof_csma())
    })
}

/// Fail with the full counterexample rendering if the report is bad.
fn assert_proved(report: &CheckReport) {
    assert!(report.ok(), "{report}");
    assert!(
        report.complete,
        "exploration hit the depth bound before exhausting the space: {report}"
    );
}

/// Pin a row's exact exploration statistics. The counts are a pure
/// function of the canonical-state semantics (memo equality, the
/// symmetry minimiser, sleep sets), so any drift means the explorer's
/// behaviour changed, not just its speed.
fn assert_stats(report: &CheckReport, expected: CheckStats) {
    assert_eq!(report.stats, expected, "{report}");
}

#[test]
fn macaw_delivers_on_a_two_station_cell() {
    let cfg = CheckConfig::new(FaultClass::None, Expectation::DeliverAll);
    let report = check_macaw(Topology::shared_cell(2), cfg);
    assert_proved(&report);
    assert!(report.stats.terminals > 0);
}

#[test]
fn macaw_delivers_on_a_contended_cell() {
    let mut cfg = CheckConfig::new(FaultClass::None, Expectation::DeliverAll);
    cfg.max_depth = 96;
    let report = check_macaw(Topology::shared_cell(3), cfg);
    assert_proved(&report);
}

#[test]
fn macaw_never_wedges_among_hidden_terminals_and_can_deliver_everything() {
    // Hidden senders can keep colliding at the shared receiver: an
    // adversarial tie-ordering exhausts any finite retry budget, so
    // unconditional delivery is unprovable — the paper's delivery story
    // is probabilistic (backoff makes repeat collisions unlikely). The
    // absolute theorems are: every interleaving resolves cleanly (no
    // wedge, every packet delivered or dropped), and full delivery is
    // reachable.
    let mut cfg = CheckConfig::new(FaultClass::None, Expectation::ResolveAll);
    cfg.max_depth = 96;
    let report = check_macaw(Topology::hidden_terminal(), cfg);
    assert_proved(&report);
    assert_eq!(
        report.stats.best_delivered, 2,
        "no interleaving delivers both packets: {report}"
    );
    assert_stats(
        &report,
        CheckStats {
            states_explored: 194,
            dedup_hits: 31,
            terminals: 2,
            best_delivered: 2,
            bound_hits: 7,
            max_depth_reached: 26,
            iterations: 4,
            sleep_skips: 0,
        },
    );
}

#[test]
fn macaw_never_wedges_among_exposed_terminals_and_can_deliver_everything() {
    // The exposed sender can always *transmit* safely, but cannot hear
    // its receiver's CTS while the other sender is on the air (§3.3.2
    // concedes the exposed-terminal problem is only partially solved), so
    // a retry-exhausting ordering exists here too.
    let mut cfg = CheckConfig::new(FaultClass::None, Expectation::ResolveAll);
    cfg.max_depth = 96;
    let report = check_macaw(Topology::exposed_terminal(), cfg);
    assert_proved(&report);
    assert_eq!(
        report.stats.best_delivered, 2,
        "no interleaving delivers both packets: {report}"
    );
}

#[test]
fn macaw_recovers_from_any_single_frame_loss() {
    let mut cfg = CheckConfig::new(FaultClass::Loss { budget: 1 }, Expectation::DeliverAll);
    cfg.max_depth = 96;
    let report = check_macaw(Topology::shared_cell(2), cfg);
    assert_proved(&report);
}

#[test]
fn macaw_recovers_from_any_single_noise_burst() {
    let mut cfg = CheckConfig::new(FaultClass::Noise { budget: 1 }, Expectation::DeliverAll);
    cfg.max_depth = 96;
    let report = check_macaw(Topology::shared_cell(2), cfg);
    assert_proved(&report);
}

#[test]
fn maca_delivers_on_an_uncontended_cell() {
    let mut cfg = CheckConfig::new(FaultClass::None, Expectation::DeliverAll);
    cfg.max_depth = 96;
    let report = check_maca(Topology::shared_cell(2), cfg);
    assert_proved(&report);
}

#[test]
fn maca_cannot_promise_delivery_among_hidden_terminals() {
    // The §3.3.1 case for the link ACK: a hidden sender's late RTS can
    // corrupt the DATA frame in flight, and ACK-less MACA still reports
    // the packet sent. Clean resolution holds on every interleaving;
    // delivery does not — though it remains reachable.
    let mut cfg = CheckConfig::new(FaultClass::None, Expectation::ResolveAll);
    cfg.max_depth = 96;
    let report = check_maca(Topology::hidden_terminal(), cfg);
    assert_proved(&report);
    assert_eq!(report.stats.best_delivered, 2);
}

#[test]
fn maca_without_an_ack_only_resolves_under_noise() {
    // §3.3.1's argument for the link ACK: corrupt the DATA frame and MACA
    // has no recovery — the packet is gone but the sender still resolves
    // it as sent. ResolveAll holds; DeliverAll would not.
    let mut cfg = CheckConfig::new(FaultClass::Noise { budget: 1 }, Expectation::ResolveAll);
    cfg.max_depth = 96;
    let report = check_maca(Topology::shared_cell(2), cfg);
    assert_proved(&report);
}

#[test]
fn csma_resolves_everywhere_but_cannot_promise_delivery() {
    // The paper's baseline: CSMA never wedges, but its collisions are
    // silent, so only clean resolution is provable — and on the hidden
    // terminal, collisions at the shared receiver are the norm.
    let mut cfg = CheckConfig::new(FaultClass::None, Expectation::ResolveAll);
    cfg.max_depth = 96;
    for topo in [
        Topology::shared_cell(2),
        Topology::shared_cell(3),
        Topology::hidden_terminal(),
    ] {
        let report = check_csma(topo, cfg);
        assert_proved(&report);
    }
}

#[test]
fn csma_collides_within_one_cell_when_carrier_sense_is_blinded() {
    let mut cfg = CheckConfig::new(
        FaultClass::CarrierBlind { budget: 1 },
        Expectation::ResolveAll,
    );
    cfg.max_depth = 96;
    let report = check_csma(Topology::shared_cell(3), cfg);
    assert_proved(&report);
}

#[test]
fn every_protocol_fails_cleanly_on_an_asymmetric_link() {
    // Nothing can complete an exchange through a one-way link; the proof
    // obligation is clean failure: retries, a drop, and a quiet return to
    // idle — no stuck state, no deadlock.
    let mut cfg = CheckConfig::new(FaultClass::None, Expectation::ResolveAll);
    cfg.max_depth = 96;
    let topo = Topology::asymmetric_link();
    assert_proved(&check_macaw(topo.clone(), cfg));
    assert_proved(&check_maca(topo.clone(), cfg));
    assert_proved(&check_csma(topo, cfg));
}

// ---------------------------------------------------------------------
// Five-station theorems. These spaces are out of reach for the plain
// explorer at test-suite budgets; the reduced explorer (sleep-set partial
// order + declared symmetry + reception-order filtering, proven sound
// against the oracle in `tests/reduction.rs`) proves them in milliseconds.
// ---------------------------------------------------------------------

#[test]
fn macaw_delivers_on_mirrored_chains_despite_any_single_loss() {
    // Two disjoint two-station cells plus a relay-adjacent fifth station:
    // the declared mirror symmetry halves the space, and every
    // interleaving with one lost frame still delivers everything.
    let mut cfg = CheckConfig::new(FaultClass::Loss { budget: 1 }, Expectation::DeliverAll);
    cfg.max_depth = 96;
    let report = check_macaw(Topology::mirrored_chain(), cfg.reduced());
    assert_proved(&report);
    assert_stats(
        &report,
        CheckStats {
            states_explored: 219,
            dedup_hits: 38,
            terminals: 14,
            best_delivered: 2,
            bound_hits: 9,
            max_depth_reached: 20,
            iterations: 3,
            sleep_skips: 6,
        },
    );
}

#[test]
fn macaw_resolves_a_five_station_contended_cell() {
    // Four senders contending for one receiver. The S4 symmetry gives the
    // senders one RNG seed, so they draw the same backoff and collide every
    // round until their retries run out: nothing is delivered
    // (`best_delivered` 0, one terminal). The theorem is that this lockstep
    // ends cleanly, not that contention resolves.
    let mut cfg = CheckConfig::new(FaultClass::None, Expectation::ResolveAll);
    cfg.max_depth = 96;
    let report = check_macaw(Topology::contended_cell(), cfg.reduced());
    assert_proved(&report);
    assert_stats(
        &report,
        CheckStats {
            states_explored: 290,
            dedup_hits: 174,
            terminals: 1,
            best_delivered: 0,
            bound_hits: 4,
            max_depth_reached: 36,
            iterations: 5,
            sleep_skips: 0,
        },
    );
}

#[test]
fn macaw_resolves_a_ring_of_contenders() {
    // A 5-cycle where every station both sends and receives; the rotation
    // group C5 quotients the space. All five stations share one RNG seed,
    // so neighbours collide in lockstep and nothing is delivered: as on the
    // contended cell, the theorem covers a lockstep that ends cleanly.
    let mut cfg = CheckConfig::new(FaultClass::None, Expectation::ResolveAll);
    cfg.max_depth = 96;
    let report = check_macaw(Topology::ring(), cfg.reduced());
    assert_proved(&report);
    assert_stats(
        &report,
        CheckStats {
            states_explored: 668,
            dedup_hits: 423,
            terminals: 1,
            best_delivered: 0,
            bound_hits: 20,
            max_depth_reached: 45,
            iterations: 6,
            sleep_skips: 0,
        },
    );
}

#[test]
fn macaw_resolves_parallel_cells_under_a_double_fault() {
    // Three mutually-deaf two-station cells, two faults to spend: the
    // oracle pays the cross-cell tie factorial and the fault-placement
    // product; sleep sets and the cell-permutation symmetry collapse both.
    let mut cfg = CheckConfig::new(FaultClass::Loss { budget: 2 }, Expectation::ResolveAll);
    cfg.max_depth = 96;
    let report = check_macaw(Topology::triple_cells(), cfg.reduced());
    assert_proved(&report);
    assert_stats(
        &report,
        CheckStats {
            states_explored: 10795,
            dedup_hits: 2066,
            terminals: 190,
            best_delivered: 6,
            bound_hits: 320,
            max_depth_reached: 50,
            iterations: 7,
            sleep_skips: 1909,
        },
    );
}

#[test]
fn exploration_is_deterministic() {
    let mut cfg = CheckConfig::new(FaultClass::Loss { budget: 1 }, Expectation::DeliverAll);
    cfg.max_depth = 96;
    let a = check_macaw(Topology::shared_cell(2), cfg);
    let b = check_macaw(Topology::shared_cell(2), cfg);
    assert_eq!(a.stats.states_explored, b.stats.states_explored);
    assert_eq!(a.stats.dedup_hits, b.stats.dedup_hits);
    assert_eq!(a.stats.terminals, b.stats.terminals);
    assert_eq!(a.stats.max_depth_reached, b.stats.max_depth_reached);
}

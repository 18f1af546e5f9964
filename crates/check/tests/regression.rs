//! The checker catches bugs, not just confirms health: seed a deliberate
//! regression — a MACAW variant whose WfCts timeout arm is suppressed —
//! and demand the minimal counterexample.
//!
//! This is the checker's own regression test. If the explorer's stuck-wait
//! detection, fault branching or deepening schedule breaks, this test goes
//! red before any protocol bug would be missed in the field.

use macaw_check::{
    check, proof_wmac, CheckConfig, Expectation, FaultClass, Topology, ViolationKind, WorldEvent,
};
use macaw_mac::context::{MacContext, MacInvariantViolation, MacResult};
use macaw_mac::{
    Addr, Frame, FrameKind, MacConfig, MacProtocol, MacSdu, MacSnapshot, Relabeling, WMac,
    WMacSnapshot,
};
use macaw_sim::SimTime;

/// The seeded bug's minimal counterexample, as `Violation`'s `Display`
/// renders it: every step's time, event, the stations' states after it,
/// and what each station did.
const STUCK_IN_WFCTS: &str = "stuck wait at station 0: wait state WfCts with no armed timer
counterexample (3 steps):
    1.   t=937500ns timer fires at station 0  => [SendRts, Idle]
      station 0: transmit Rts Unicast(0) -> Unicast(1)
    2.     t=1875us station 0's transmission ends, lost at [1]  => [WfCts, Idle]
    3.  t=2862500ns timer fires at station 0  => [WfCts, Idle]
";

/// [`FailOnCts`]'s counterexample: the last step is the flight end whose
/// delivery broke the invariant, with no actions and the states the
/// failure left (the CTS sender never ran its `on_tx_end`).
const INVARIANT_ON_CTS: &str =
    "invariant violation: MAC invariant violated at Unicast(0) in state \"WfCts\": a CTS arrived
counterexample (3 steps):
    1.   t=937500ns timer fires at station 0  => [SendRts, Idle]
      station 0: transmit Rts Unicast(0) -> Unicast(1)
    2.     t=1875us station 0's transmission ends, received by [1]  => [WfCts, SendCts]
      station 1: transmit Cts Unicast(1) -> Unicast(0)
    3.  t=2812500ns station 1's transmission ends, received by [0]  => [WfCts, SendCts]
";

/// MACAW with its WfCts timeout arm suppressed: the timer is consumed but
/// the state machine never reacts, so a lost CTS leaves the sender parked
/// in WfCts forever.
#[derive(Clone)]
struct NoWfCtsTimeout(WMac);

impl MacProtocol for NoWfCtsTimeout {
    fn enqueue(&mut self, ctx: &mut dyn MacContext, dst: Addr, sdu: MacSdu) -> MacResult {
        self.0.enqueue(ctx, dst, sdu)
    }

    fn on_receive(&mut self, ctx: &mut dyn MacContext, frame: &Frame) -> MacResult {
        self.0.on_receive(ctx, frame)
    }

    fn on_timer(&mut self, ctx: &mut dyn MacContext) -> MacResult {
        if self.0.state_kind() == "WfCts" {
            // The seeded bug: swallow the timeout.
            return Ok(());
        }
        self.0.on_timer(ctx)
    }

    fn on_tx_end(&mut self, ctx: &mut dyn MacContext) -> MacResult {
        self.0.on_tx_end(ctx)
    }

    fn queued_packets(&self) -> usize {
        self.0.queued_packets()
    }
}

impl MacSnapshot for NoWfCtsTimeout {
    type Snap = WMacSnapshot;

    fn snapshot(&self, now: SimTime) -> WMacSnapshot {
        self.0.snapshot(now)
    }

    fn state_kind(&self) -> &'static str {
        self.0.state_kind()
    }

    fn awaits_timer(&self) -> bool {
        self.0.awaits_timer()
    }

    fn transmitting(&self) -> bool {
        self.0.transmitting()
    }

    fn relabel(snap: &WMacSnapshot, map: &Relabeling<'_>) -> WMacSnapshot {
        WMac::relabel(snap, map)
    }
}

/// MACAW whose receive path reports a broken invariant on any CTS: a
/// violation raised inside a flight end, part-way through its deliveries.
#[derive(Clone)]
struct FailOnCts(WMac);

impl MacProtocol for FailOnCts {
    fn enqueue(&mut self, ctx: &mut dyn MacContext, dst: Addr, sdu: MacSdu) -> MacResult {
        self.0.enqueue(ctx, dst, sdu)
    }

    fn on_receive(&mut self, ctx: &mut dyn MacContext, frame: &Frame) -> MacResult {
        if frame.kind == FrameKind::Cts {
            return Err(MacInvariantViolation {
                station: frame.dst,
                state: format!("{:?}", self.0.state_kind()),
                detail: "a CTS arrived".to_string(),
            });
        }
        self.0.on_receive(ctx, frame)
    }

    fn on_timer(&mut self, ctx: &mut dyn MacContext) -> MacResult {
        self.0.on_timer(ctx)
    }

    fn on_tx_end(&mut self, ctx: &mut dyn MacContext) -> MacResult {
        self.0.on_tx_end(ctx)
    }

    fn queued_packets(&self) -> usize {
        self.0.queued_packets()
    }
}

impl MacSnapshot for FailOnCts {
    type Snap = WMacSnapshot;

    fn snapshot(&self, now: SimTime) -> WMacSnapshot {
        self.0.snapshot(now)
    }

    fn state_kind(&self) -> &'static str {
        self.0.state_kind()
    }

    fn awaits_timer(&self) -> bool {
        self.0.awaits_timer()
    }

    fn transmitting(&self) -> bool {
        self.0.transmitting()
    }

    fn relabel(snap: &WMacSnapshot, map: &Relabeling<'_>) -> WMacSnapshot {
        WMac::relabel(snap, map)
    }
}

#[test]
fn suppressed_wfcts_timeout_is_caught_with_a_minimal_counterexample() {
    let mut cfg = CheckConfig::new(FaultClass::Loss { budget: 1 }, Expectation::DeliverAll);
    // Deepen one step at a time so the counterexample is exactly minimal.
    cfg.depth_step = 1;
    let report = check("macaw-no-wfcts-timeout", &Topology::shared_cell(2), &cfg, |i| {
        NoWfCtsTimeout(WMac::new(Addr::Unicast(i), MacConfig::macaw()))
    });

    let violation = report
        .violation
        .as_ref()
        .expect("the seeded bug must be found");
    match &violation.kind {
        ViolationKind::StuckWait { station, detail } => {
            assert_eq!(*station, 0, "the sender is the stuck station");
            assert!(
                detail.contains("WfCts"),
                "stuck in WfCts, reported as: {detail}"
            );
        }
        other => panic!("expected a stuck wait, found: {other}"),
    }

    // The minimal path: contend fires (RTS up), the RTS is lost at the
    // receiver (spending the budget), the orphaned WfCts timeout fires and
    // is swallowed. Three steps, no detours.
    assert_eq!(violation.trace.len(), 3, "{violation}");
    assert!(matches!(
        violation.trace[0].event,
        WorldEvent::Fire { station: 0, blind: false }
    ));
    match &violation.trace[1].event {
        WorldEvent::FlightEnd {
            src, order, lost, noise,
        } => {
            assert_eq!(*src, 0);
            assert!(order.is_empty(), "the one receiver lost the frame");
            assert_eq!(lost, &[1]);
            assert!(!noise);
        }
        other => panic!("expected the RTS flight to end, found: {other}"),
    }
    assert!(matches!(
        violation.trace[2].event,
        WorldEvent::Fire { station: 0, blind: false }
    ));
    assert_eq!(
        violation.trace[2].states[0], "WfCts",
        "the sender is still parked in WfCts after its timer fired"
    );
    assert_eq!(violation.to_string(), STUCK_IN_WFCTS);
}

#[test]
fn a_counterexample_across_a_split_prefix_reads_the_same() {
    // Split after the first transition: the violation is found inside a
    // job, two steps below its one-step prefix.
    let mut cfg = CheckConfig::new(FaultClass::Loss { budget: 1 }, Expectation::DeliverAll);
    cfg.depth_step = 1;
    cfg.split_depth = 1;
    let report = check("macaw-no-wfcts-timeout", &Topology::shared_cell(2), &cfg, |i| {
        NoWfCtsTimeout(WMac::new(Addr::Unicast(i), MacConfig::macaw()))
    });
    let violation = report.violation.expect("the seeded bug must be found");
    assert_eq!(violation.to_string(), STUCK_IN_WFCTS);
}

#[test]
fn an_invariant_broken_inside_a_flight_end_is_the_last_step() {
    // Serially, and split after two transitions so that the failing step
    // lies inside a job.
    for split_depth in [0, 2] {
        let mut cfg = CheckConfig::new(FaultClass::None, Expectation::DeliverAll);
        cfg.split_depth = split_depth;
        let report = check("macaw-fail-on-cts", &Topology::shared_cell(2), &cfg, |i| {
            FailOnCts(WMac::new(Addr::Unicast(i), MacConfig::macaw()))
        });
        let violation = report.violation.expect("the CTS must break the invariant");
        assert!(matches!(violation.kind, ViolationKind::Invariant(_)));
        assert!(violation.trace[2].actions.is_empty());
        assert_eq!(
            violation.to_string(),
            INVARIANT_ON_CTS,
            "split {split_depth}"
        );
    }
}

#[test]
fn the_unmodified_protocol_passes_the_same_check() {
    // Control arm: the seeded arm's configuration (MACAW's own settings,
    // the default depth, deepening one step at a time) with the real
    // MACAW: no violation, and the state space exhausted.
    let mut cfg = CheckConfig::new(FaultClass::Loss { budget: 1 }, Expectation::DeliverAll);
    cfg.depth_step = 1;
    let report = check("macaw", &Topology::shared_cell(2), &cfg, |i| {
        WMac::new(Addr::Unicast(i), MacConfig::macaw())
    });
    assert!(
        report.ok() && report.complete,
        "seeded configuration: {report}"
    );

    // And under the proof matrix's budgets, at its depth of 96.
    cfg.max_depth = 96;
    let report = check("macaw", &Topology::shared_cell(2), &cfg, |i| {
        WMac::new(Addr::Unicast(i), proof_wmac(MacConfig::macaw()))
    });
    assert!(report.ok() && report.complete, "proof budgets: {report}");
}

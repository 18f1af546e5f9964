//! Parallel model checking through the deterministic executor: the
//! reduced, frontier-split explorer must produce bitwise-identical
//! reports for any worker count. The split depth — not the worker count —
//! defines the job set, and the executor returns job outputs in index
//! order, so the merged statistics and verdict cannot depend on `--jobs`.

use macaw_check::{
    check_fan, proof_wmac, CheckConfig, CheckReport, Expectation, FaultClass, Topology,
};
use macaw_core::Executor;
use macaw_mac::{Addr, MacConfig, WMac};

fn run(topo: &Topology, fault: FaultClass, jobs: usize) -> CheckReport {
    let mut cfg = CheckConfig::new(fault, Expectation::ResolveAll);
    cfg.max_depth = 48;
    cfg.reduce = true;
    cfg.split_depth = 4;
    let executor = Executor::new(jobs);
    check_fan(
        "macaw",
        topo,
        &cfg,
        |i| WMac::new(Addr::Unicast(i), proof_wmac(MacConfig::macaw())),
        |n, f| executor.run(n, f),
    )
}

fn signature(r: &CheckReport) -> impl PartialEq + std::fmt::Debug {
    (
        r.ok(),
        r.complete,
        r.exhausted,
        r.stats.states_explored,
        r.stats.dedup_hits,
        r.stats.sleep_skips,
        r.stats.terminals,
        r.stats.bound_hits,
        r.stats.max_depth_reached,
        r.stats.best_delivered,
        r.violation
            .as_ref()
            .map(|v| (format!("{:?}", v.kind), v.trace.len())),
    )
}

#[test]
fn reduced_reports_are_bitwise_identical_across_worker_counts() {
    for (topo, fault) in [
        (Topology::mirrored_chain(), FaultClass::Loss { budget: 1 }),
        (Topology::mirrored_chain_burst(), FaultClass::Loss { budget: 1 }),
        (Topology::hidden_star(), FaultClass::None),
        (Topology::twin_cells(), FaultClass::Loss { budget: 1 }),
    ] {
        let baseline = run(&topo, fault, 1);
        for jobs in [2, 4, 7] {
            let par = run(&topo, fault, jobs);
            assert_eq!(
                signature(&baseline),
                signature(&par),
                "{}: report diverged between 1 and {} workers",
                topo.name,
                jobs
            );
        }
    }
}

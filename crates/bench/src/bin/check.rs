//! Model-checker proof matrix: run every row (protocol × topology family
//! × fault class), report explorer statistics — states explored, dedup
//! ratio, reduction ratio, deepest path — and write `BENCH_check.json`.
//! Every field is deterministic; the checker's clock is perfbench's
//! `proof_matrix` workload.
//!
//! Usage:
//!   check [--out PATH] [--jobs N]
//!
//! Every matrix row runs the **reduced** explorer (sleep-set partial
//! order + symmetry quotient + reception-order filtering, split at a
//! fixed shallow depth and fanned over the deterministic executor —
//! `--jobs N` (default one per core), bitwise-identical output for any
//! worker count) as the primary result, and all but the top four rows of
//! the parallel-cells ladder also run the **oracle** explorer (the
//! historical unreduced serial search) as the baseline it is validated
//! against. Feasible oracle rows must agree with the reduced verdict and
//! yield an exact `reduction_ratio`; rows whose oracle search exceeds
//! [`ORACLE_STATE_BUDGET`] transitions, or that skip it, are recorded as
//! `oracle_infeasible` with a `reduction_ratio_lower_bound` instead —
//! those proofs exist *only* because of the reductions. The process exits
//! non-zero if any proof fails or any oracle verdict disagrees, and
//! `scripts/verify.sh` compares the written file with the committed one
//! byte for byte.

use macaw_bench::cli::Cli;
use macaw_check::{
    check_fan, proof_csma, proof_wmac, CheckConfig, CheckReport, Expectation, FaultClass,
    SubtreeOut, Topology,
};
use macaw_core::Executor;
use macaw_mac::{Addr, Csma, MacConfig, WMac};

/// The checker seed of the committed `BENCH_check.json`.
const SEED: u64 = 1;

/// Oracle baseline cutoff, in applied transitions. Rows that exceed it are
/// reported as infeasible for the oracle rather than run to the end. A
/// state count, not a wall clock, so the classification is deterministic.
const ORACLE_STATE_BUDGET: u64 = 3_000_000;

/// Fixed frontier split depth for the reduced runs. Constant across
/// `--jobs` values — the split, not the worker count, defines the job
/// set, so reports are bitwise identical for any parallelism.
const SPLIT_DEPTH: u32 = 4;

/// One cell of the proof matrix.
struct Run {
    protocol: &'static str,
    topo: Topology,
    fault: FaultClass,
    expectation: Expectation,
    /// Run the oracle baseline. `false` on the `pair_cells(5|6)` rows:
    /// their oracle searches only reach the budget and compare nothing, so
    /// the reduced run plus the budget constant determine the record.
    oracle: bool,
}

fn matrix() -> Vec<Run> {
    use Expectation::{DeliverAll, ResolveAll};
    use FaultClass::{CarrierBlind, Loss, Noise, None as NoFault};
    let mut runs = Vec::new();
    let mut push = |protocol: &'static str,
                    topo: Topology,
                    fault: FaultClass,
                    expectation: Expectation| {
        runs.push(Run {
            protocol,
            topo,
            fault,
            expectation,
            oracle: true,
        })
    };

    // The historical 18-row matrix (2–3 stations).
    for (topo, expectation) in [
        (Topology::shared_cell(2), DeliverAll),
        (Topology::shared_cell(3), DeliverAll),
        (Topology::hidden_terminal(), ResolveAll),
        (Topology::exposed_terminal(), ResolveAll),
        (Topology::asymmetric_link(), ResolveAll),
    ] {
        push("macaw", topo, NoFault, expectation);
    }
    push("macaw", Topology::shared_cell(2), Loss { budget: 1 }, DeliverAll);
    push("macaw", Topology::shared_cell(2), Noise { budget: 1 }, DeliverAll);
    // The heavy rows: per-receiver loss multiplies the flight-end
    // branching in the 3-station spaces.
    push("macaw", Topology::hidden_terminal(), Loss { budget: 1 }, ResolveAll);
    push("macaw", Topology::shared_cell(3), Loss { budget: 1 }, ResolveAll);
    for (topo, fault, expectation) in [
        (Topology::shared_cell(2), NoFault, DeliverAll),
        (Topology::hidden_terminal(), NoFault, ResolveAll),
        (Topology::shared_cell(2), Noise { budget: 1 }, ResolveAll),
        (Topology::asymmetric_link(), NoFault, ResolveAll),
    ] {
        push("maca", topo, fault, expectation);
    }
    for (topo, fault) in [
        (Topology::shared_cell(2), NoFault),
        (Topology::shared_cell(3), NoFault),
        (Topology::hidden_terminal(), NoFault),
        (Topology::shared_cell(3), CarrierBlind { budget: 1 }),
        (Topology::asymmetric_link(), NoFault),
    ] {
        push("csma", topo, fault, ResolveAll);
    }

    // The 5-station families (declared symmetry groups) under fault
    // budgets up to 2.
    push("macaw", Topology::mirrored_chain(), Loss { budget: 1 }, DeliverAll);
    push("macaw", Topology::mirrored_chain_burst(), Loss { budget: 2 }, ResolveAll);
    push("macaw", Topology::mirrored_chain_burst(), Noise { budget: 2 }, ResolveAll);
    push("macaw", Topology::contended_cell(), NoFault, ResolveAll);
    push("macaw", Topology::hidden_star(), Loss { budget: 2 }, ResolveAll);
    push("macaw", Topology::exposed_contenders(), Loss { budget: 2 }, ResolveAll);
    push("macaw", Topology::ring(), NoFault, ResolveAll);
    push("macaw", Topology::twin_cells(), Loss { budget: 2 }, ResolveAll);
    push("maca", Topology::hidden_star(), NoFault, ResolveAll);
    push("csma", Topology::contended_cell(), NoFault, ResolveAll);

    // The parallel-cells ladder: each added pair cell multiplies the
    // oracle's tie-order factorial and fault-branch product. The top of
    // the ladder is beyond the oracle's state budget — those rows are
    // provable only with the reductions.
    push("macaw", Topology::twin_contended(), Loss { budget: 1 }, ResolveAll);
    push("macaw", Topology::pair_cells(3), Loss { budget: 2 }, ResolveAll);
    push("macaw", Topology::pair_cells(4), Loss { budget: 2 }, ResolveAll);
    for (k, fault) in [
        (5, Loss { budget: 2 }),
        (5, Noise { budget: 2 }),
        (6, Loss { budget: 2 }),
        (6, Noise { budget: 2 }),
    ] {
        runs.push(Run {
            protocol: "macaw",
            topo: Topology::pair_cells(k),
            fault,
            expectation: ResolveAll,
            oracle: false,
        });
    }
    runs
}

fn base_cfg(run: &Run) -> CheckConfig {
    let mut cfg = CheckConfig::new(run.fault, run.expectation);
    cfg.seed = SEED;
    cfg.max_depth = 96;
    cfg
}

/// Run `run`'s protocol, at the proof matrix's budgets
/// ([`proof_wmac`], [`proof_csma`]), with `fan` for the split jobs.
fn run_with<F>(run: &Run, cfg: &CheckConfig, fan: F) -> CheckReport
where
    F: Fn(usize, &(dyn Fn(usize) -> SubtreeOut + Sync)) -> Vec<SubtreeOut>,
{
    let wmac = |cfg: MacConfig| move |i| WMac::new(Addr::Unicast(i), proof_wmac(cfg));
    let csma = |i| Csma::new(Addr::Unicast(i), proof_csma());
    match run.protocol {
        "macaw" => check_fan("macaw", &run.topo, cfg, wmac(MacConfig::macaw()), fan),
        "maca" => check_fan("maca", &run.topo, cfg, wmac(MacConfig::maca()), fan),
        "csma" => check_fan("csma", &run.topo, cfg, csma, fan),
        other => unreachable!("unknown protocol {other}"),
    }
}

fn run_reduced(run: &Run, executor: &Executor) -> CheckReport {
    let mut cfg = base_cfg(run);
    cfg.reduce = true;
    cfg.split_depth = SPLIT_DEPTH;
    run_with(run, &cfg, |n, f| executor.run(n, f))
}

/// The unreduced serial oracle: `check`'s own serial fan.
fn run_oracle(run: &Run) -> CheckReport {
    let mut cfg = base_cfg(run);
    cfg.state_budget = Some(ORACLE_STATE_BUDGET);
    run_with(run, &cfg, |n, f| (0..n).map(f).collect())
}

struct RowOutcome {
    report: CheckReport,
    oracle_states: Option<u64>,
    oracle_infeasible: bool,
    ratio: f64,
}

fn run_row(run: &Run, executor: &Executor) -> Result<RowOutcome, String> {
    let report = run_reduced(run, executor);
    if let Some(v) = &report.violation {
        return Err(format!("reduced run found a violation:\n{v}"));
    }
    if !report.complete {
        return Err(format!(
            "reduced run did not complete within depth 96 ({} states)",
            report.stats.states_explored
        ));
    }

    if !run.oracle {
        // Oracle skipped by construction: record the lower bound implied
        // by the budget alone.
        return Ok(RowOutcome {
            ratio: ORACLE_STATE_BUDGET as f64 / report.stats.states_explored.max(1) as f64,
            report,
            oracle_states: None,
            oracle_infeasible: true,
        });
    }

    let oracle = run_oracle(run);
    if oracle.exhausted {
        return Ok(RowOutcome {
            ratio: ORACLE_STATE_BUDGET as f64 / report.stats.states_explored.max(1) as f64,
            report,
            oracle_states: Some(oracle.stats.states_explored),
            oracle_infeasible: true,
        });
    }
    if oracle.ok() != report.ok() || oracle.complete != report.complete {
        return Err(format!(
            "oracle and reduced verdicts diverge: oracle ok={} complete={}, reduced ok={} complete={}",
            oracle.ok(),
            oracle.complete,
            report.ok(),
            report.complete
        ));
    }
    if let Some(v) = &oracle.violation {
        return Err(format!("oracle run found a violation:\n{v}"));
    }
    Ok(RowOutcome {
        ratio: oracle.stats.states_explored as f64 / report.stats.states_explored.max(1) as f64,
        report,
        oracle_states: Some(oracle.stats.states_explored),
        oracle_infeasible: false,
    })
}

fn main() {
    let cli = Cli::parse("check", "BENCH_check.json");
    let runs = matrix();
    let mut rows = String::new();
    let mut tot_states = 0u64;
    let mut failures = 0u32;
    let mut infeasible_rows = 0u32;
    for run in &runs {
        let out = match run_row(run, &cli.executor) {
            Ok(out) => out,
            Err(e) => {
                eprintln!("{} on {} under {:?}: {e}", run.protocol, run.topo.name, run.fault);
                failures += 1;
                continue;
            }
        };
        let report = &out.report;
        let visits = report.stats.states_explored + report.stats.dedup_hits;
        let dedup_ratio = report.stats.dedup_hits as f64 / visits.max(1) as f64;
        println!(
            "{:<6} {:<20} {:<22} {:>8} states {:>7} dedup {:>6} slept depth {:>3} ratio {}{:<9.2} {}",
            report.protocol,
            report.topology,
            format!("{:?}", report.fault),
            report.stats.states_explored,
            report.stats.dedup_hits,
            report.stats.sleep_skips,
            report.stats.max_depth_reached,
            if out.oracle_infeasible { ">" } else { "" },
            out.ratio,
            if out.oracle_infeasible {
                "proved (oracle infeasible)"
            } else {
                "proved"
            },
        );
        infeasible_rows += out.oracle_infeasible as u32;
        tot_states += report.stats.states_explored;
        let ratio_field = if out.oracle_infeasible {
            format!(
                "\"oracle_infeasible\": true, \"reduction_ratio_lower_bound\": {:.2}",
                out.ratio
            )
        } else {
            format!(
                "\"oracle_infeasible\": false, \"reduction_ratio\": {:.2}",
                out.ratio
            )
        };
        rows.push_str(&format!(
            "    {{ \"protocol\": \"{}\", \"topology\": \"{}\", \"stations\": {}, \"fault\": \"{:?}\", \
             \"expectation\": \"{:?}\", \"states_explored\": {}, \"dedup_hits\": {}, \
             \"dedup_ratio\": {:.4}, \"sleep_skips\": {}, \"terminals\": {}, \"max_depth\": {}, \
             \"complete\": {}, \"oracle_states\": {}, {} }},\n",
            report.protocol,
            report.topology,
            run.topo.n,
            report.fault,
            report.expectation,
            report.stats.states_explored,
            report.stats.dedup_hits,
            dedup_ratio,
            report.stats.sleep_skips,
            report.stats.terminals,
            report.stats.max_depth_reached,
            report.complete,
            out.oracle_states.map_or("null".into(), |v| v.to_string()),
            ratio_field,
        ));
    }

    if failures > 0 {
        eprintln!("{failures} check(s) failed");
        std::process::exit(1);
    }
    println!(
        "total: {} reduced states across {} checks ({} oracle-infeasible)",
        tot_states,
        runs.len(),
        infeasible_rows,
    );

    rows.pop();
    rows.pop(); // drop trailing ",\n"
    rows.push('\n');
    let json = format!(
        "{{\n  \"workload\": \"exhaustive model check, full proof matrix (seed={SEED}, \
           reduced explorer, split_depth={SPLIT_DEPTH}, oracle budget {ORACLE_STATE_BUDGET})\",\n  \
           \"checks\": [\n{rows}  ],\n  \
           \"total\": {{ \"states_explored\": {tot_states}, \
           \"oracle_infeasible_rows\": {infeasible_rows} }}\n}}\n"
    );
    cli.write(&json);
}

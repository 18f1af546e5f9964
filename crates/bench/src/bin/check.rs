//! Model-checker proof matrix: run every row (protocol × topology family
//! × fault class), report explorer statistics — states explored, dedup
//! ratio, reduction ratio, deepest path — and write `BENCH_check.json`.
//! Every field is deterministic; the checker's clock is perfbench's
//! `proof_matrix` workload.
//!
//! Usage:
//!   check [--smoke] [--seed N] [--out PATH] [--jobs N]
//!
//! Every matrix row runs twice: the **reduced** explorer (sleep-set
//! partial order + symmetry quotient + reception-order filtering, split
//! at a fixed shallow depth and fanned over the deterministic executor —
//! `--jobs N` (default one per core), bitwise-identical output for any
//! worker count) is the primary result, and the **oracle** explorer (the
//! historical unreduced serial search) is the baseline it is validated
//! against. Feasible oracle rows must agree with the reduced verdict and
//! yield an exact `reduction_ratio`; rows whose oracle search exceeds
//! [`ORACLE_STATE_BUDGET`] transitions are recorded as
//! `oracle_infeasible` with a `reduction_ratio_lower_bound` instead —
//! those proofs exist *only* because of the reductions.
//!
//! `--smoke` is the CI mode (`scripts/verify.sh`): the two-station proofs
//! under all three protocols, a fixed reduction-ratio guard on the
//! mirrored-chain family, and a `--jobs` ∈ {1, 4} determinism check;
//! non-zero exit if any proof fails, any ratio regresses, or the parallel
//! reports diverge.

use macaw_bench::executor::{parse_jobs_arg, Executor};
use macaw_check::{
    check, check_fan, CheckConfig, CheckReport, Expectation, FaultClass, SubtreeOut, Topology,
};
use macaw_mac::{Addr, Csma, CsmaConfig, MacConfig, WMac};

/// Oracle baseline cutoff, in applied transitions. Rows that exceed it are
/// reported as infeasible for the oracle rather than run to the end. A
/// state count, not a wall clock, so the classification is deterministic.
const ORACLE_STATE_BUDGET: u64 = 3_000_000;

/// Fixed frontier split depth for the reduced runs. Constant across
/// `--jobs` values — the split, not the worker count, defines the job
/// set, so reports are bitwise identical for any parallelism.
const SPLIT_DEPTH: u32 = 4;

fn usage_and_exit(msg: &str) -> ! {
    eprintln!("{msg}");
    eprintln!("usage: check [--smoke] [--seed N] [--out PATH] [--jobs N]");
    std::process::exit(2);
}

/// Checker-sized protocol budgets (see `crates/check/tests/proofs.rs`:
/// shrinking retries keeps the retry-bounded state space exhaustible
/// without changing the machinery under test).
fn macaw_cfg() -> MacConfig {
    let mut cfg = MacConfig::macaw();
    cfg.max_retries = 2;
    cfg.bo_max = 4;
    cfg
}

fn maca_cfg() -> MacConfig {
    let mut cfg = MacConfig::maca();
    cfg.max_retries = 2;
    cfg.bo_max = 4;
    cfg
}

fn csma_cfg() -> CsmaConfig {
    CsmaConfig {
        bo_max: 4,
        max_attempts: 3,
        ..CsmaConfig::default()
    }
}

/// One cell of the proof matrix.
struct Run {
    protocol: &'static str,
    topo: Topology,
    fault: FaultClass,
    expectation: Expectation,
    /// Skip the oracle baseline entirely (rows known to be far beyond the
    /// budget would spend a minute proving the obvious; the reduced run
    /// plus the budget constant already determine the record).
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
            oracle: k == 5,
        });
    }
    runs
}

fn base_cfg(run: &Run, seed: u64) -> CheckConfig {
    let mut cfg = CheckConfig::new(run.fault, run.expectation);
    cfg.seed = seed;
    cfg.max_depth = 96;
    cfg
}

fn run_with<F>(run: &Run, cfg: &CheckConfig, fan: F) -> CheckReport
where
    F: Fn(usize, &(dyn Fn(usize) -> SubtreeOut + Sync)) -> Vec<SubtreeOut>,
{
    match run.protocol {
        "macaw" => check_fan("macaw", &run.topo, cfg, |i| {
            WMac::new(Addr::Unicast(i), macaw_cfg())
        }, fan),
        "maca" => check_fan("maca", &run.topo, cfg, |i| {
            WMac::new(Addr::Unicast(i), maca_cfg())
        }, fan),
        "csma" => check_fan("csma", &run.topo, cfg, |i| {
            Csma::new(Addr::Unicast(i), csma_cfg())
        }, fan),
        other => unreachable!("unknown protocol {other}"),
    }
}

fn run_reduced(run: &Run, seed: u64, executor: &Executor) -> CheckReport {
    let mut cfg = base_cfg(run, seed);
    cfg.reduce = true;
    cfg.split_depth = SPLIT_DEPTH;
    run_with(run, &cfg, |n, f| executor.run(n, f))
}

fn run_oracle(run: &Run, seed: u64) -> CheckReport {
    let mut cfg = base_cfg(run, seed);
    cfg.state_budget = Some(ORACLE_STATE_BUDGET);
    match run.protocol {
        "macaw" => check("macaw", &run.topo, &cfg, |i| {
            WMac::new(Addr::Unicast(i), macaw_cfg())
        }),
        "maca" => check("maca", &run.topo, &cfg, |i| {
            WMac::new(Addr::Unicast(i), maca_cfg())
        }),
        "csma" => check("csma", &run.topo, &cfg, |i| {
            Csma::new(Addr::Unicast(i), csma_cfg())
        }),
        other => unreachable!("unknown protocol {other}"),
    }
}

struct RowOutcome {
    report: CheckReport,
    oracle_states: Option<u64>,
    oracle_infeasible: bool,
    ratio: f64,
}

fn run_row(run: &Run, seed: u64, executor: &Executor) -> Result<RowOutcome, String> {
    let report = run_reduced(run, seed, executor);
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

    let oracle = run_oracle(run, seed);
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

/// `--smoke`: fast proofs plus the two reduction guards (fixed ratio
/// floor, `--jobs` determinism). Exits non-zero on any failure.
fn smoke(seed: u64) -> i32 {
    let mut failures = 0;
    let serial = Executor::serial();
    for run in matrix().into_iter().filter(|r| {
        r.topo.name == "shared_cell" && r.topo.n == 2 && r.fault == FaultClass::None
    }) {
        match run_row(&run, seed, &serial) {
            Ok(out) => println!(
                "{:<6} {:<16} {:>8} states (reduced) ratio {:>5.2}x proved",
                run.protocol, run.topo.name, out.report.stats.states_explored, out.ratio
            ),
            Err(e) => {
                eprintln!("{} on {}: {e}", run.protocol, run.topo.name);
                failures += 1;
            }
        }
    }

    // Reduction-ratio guard: the mirrored chain's oracle/reduced ratio is
    // a fixed, deterministic number; regressions here mean a reduction
    // stopped firing.
    let guard = Run {
        protocol: "macaw",
        topo: Topology::mirrored_chain(),
        fault: FaultClass::Loss { budget: 1 },
        expectation: Expectation::DeliverAll,
        oracle: true,
    };
    match run_row(&guard, seed, &serial) {
        Ok(out) => {
            println!(
                "reduction guard: mirrored_chain {} reduced vs {:?} oracle states ({:.2}x)",
                out.report.stats.states_explored, out.oracle_states, out.ratio
            );
            if out.ratio < 1.5 {
                eprintln!("reduction ratio regressed below 1.5x on mirrored_chain");
                failures += 1;
            }
        }
        Err(e) => {
            eprintln!("reduction guard failed: {e}");
            failures += 1;
        }
    }

    // Parallel determinism guard: the same reduced check through 1 and 4
    // workers must be bitwise identical.
    let par = Run {
        protocol: "macaw",
        topo: Topology::mirrored_chain_burst(),
        fault: FaultClass::Loss { budget: 1 },
        expectation: Expectation::ResolveAll,
        oracle: false,
    };
    let a = run_reduced(&par, seed, &Executor::new(1));
    let b = run_reduced(&par, seed, &Executor::new(4));
    let sig = |r: &CheckReport| {
        (
            r.ok(),
            r.complete,
            r.stats.states_explored,
            r.stats.dedup_hits,
            r.stats.sleep_skips,
            r.stats.terminals,
            r.stats.bound_hits,
            r.stats.max_depth_reached,
        )
    };
    if sig(&a) != sig(&b) {
        eprintln!(
            "parallel determinism guard: --jobs 1 and --jobs 4 diverge:\n  {:?}\n  {:?}",
            sig(&a),
            sig(&b)
        );
        failures += 1;
    } else {
        println!(
            "parallel determinism guard: --jobs 1 == --jobs 4 ({} states)",
            a.stats.states_explored
        );
    }

    if failures > 0 {
        eprintln!("{failures} smoke check(s) failed");
        return 1;
    }
    println!("check --smoke: all proofs hold");
    0
}

fn main() {
    let mut smoke_mode = false;
    let mut seed = 1u64;
    let mut out_path = "BENCH_check.json".to_string();
    let mut jobs: Option<usize> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => smoke_mode = true,
            "--seed" => {
                let v = args.next().unwrap_or_else(|| usage_and_exit("--seed needs a value"));
                seed = v.parse().unwrap_or_else(|_| usage_and_exit("--seed needs an integer"));
            }
            "--out" => {
                out_path = args.next().unwrap_or_else(|| usage_and_exit("--out needs a value"));
            }
            "--jobs" => {
                let v = args.next().unwrap_or_else(|| usage_and_exit("--jobs needs a value"));
                jobs = Some(parse_jobs_arg(&v).unwrap_or_else(|e| usage_and_exit(&e)));
            }
            other => usage_and_exit(&format!("unknown argument: {other}")),
        }
    }

    if smoke_mode {
        std::process::exit(smoke(seed));
    }

    let executor = jobs.map(Executor::new).unwrap_or_else(Executor::per_core);
    let runs = matrix();
    let mut rows = String::new();
    let mut tot_states = 0u64;
    let mut failures = 0u32;
    let mut infeasible_rows = 0u32;
    for run in &runs {
        let out = match run_row(run, seed, &executor) {
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
        "{{\n  \"workload\": \"exhaustive model check, full proof matrix (seed={seed}, \
           reduced explorer, split_depth={SPLIT_DEPTH}, oracle budget {ORACLE_STATE_BUDGET})\",\n  \
           \"checks\": [\n{rows}  ],\n  \
           \"total\": {{ \"states_explored\": {tot_states}, \
           \"oracle_infeasible_rows\": {infeasible_rows} }}\n}}\n"
    );
    if let Err(e) = std::fs::write(&out_path, json) {
        eprintln!("cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    println!("wrote {out_path}");
}

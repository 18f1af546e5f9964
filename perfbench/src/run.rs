//! Running one pass of a workload, untraced or traced, and collecting what
//! the metrics need.
//!
//! The timed end-to-end path is `Scenario::build` → `Network::run_until` →
//! `report` and nothing else; the traced path swaps in the instrumented
//! types from [`crate::seams`] and is otherwise identical.

use std::cell::RefCell;
use std::hash::Hasher;
use std::time::Instant;

use macaw_check::{check_fan, CheckReport, SubtreeOut};
use macaw_core::prelude::*;
use macaw_mac::{Addr, Csma, MacProtocol, MacSnapshot, WMac};
use macaw_phy::Medium;
use macaw_sim::{FastHasher, FelChoice, SimRng};

use crate::seams::{build_traced, check_traced};
use crate::workloads::{
    csma_cfg, maca_cfg, macaw_cfg, paper_err, proof_rows, sim_jobs, ProofRow, SimJob, Size,
    Workload,
};

/// A run that processes this many events has run away: the watchdog
/// stops it and the run counts as failed.
const WATCHDOG_EVENTS: u64 = 500_000_000;

/// Each simulation runs to its end in this many equal slices of simulated
/// time, each timed on its own (`run_until` is incremental: the report is
/// the same bit for bit).
pub const SEGMENTS: u64 = 256;

/// FastHash of `text`.
pub fn digest(text: &str) -> u64 {
    let mut h = FastHasher::default();
    h.write(text.as_bytes());
    h.finish()
}

fn secs(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

/// MAC counters summed over every station of every run in a pass.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct MacTotals {
    pub rts_sent: u64,
    pub rts_timeouts: u64,
    pub ack_timeouts: u64,
    pub packets_dropped: u64,
    pub packets_sent_ok: u64,
    pub data_sent: u64,
    /// RTS, CTS, DS, ACK, RRTS and NACK frames sent.
    pub control_sent: u64,
}

impl MacTotals {
    fn add(&mut self, r: &RunReport) {
        for s in r.mac_stats.iter().flatten() {
            self.rts_sent += s.rts_sent;
            self.rts_timeouts += s.rts_timeouts;
            self.ack_timeouts += s.ack_timeouts;
            self.packets_dropped += s.packets_dropped;
            self.packets_sent_ok += s.packets_sent_ok;
            self.data_sent += s.data_sent;
            self.control_sent +=
                s.rts_sent + s.cts_sent + s.ds_sent + s.ack_sent + s.rrts_sent + s.nack_sent;
        }
    }
}

/// Everything one pass of a workload produced.
#[derive(Debug, Default)]
pub struct Pass {
    /// The timed phase, set-up excluded, in timed pieces: the `SEGMENTS`
    /// slices and the report of every simulation, or the subtree jobs of
    /// every proof row and the rest of the row. Every pass of a workload
    /// has the same pieces.
    pub run_pieces: Vec<f64>,
    /// Set-up in timed pieces: topology generation and `Scenario::build`
    /// up to the first event, per simulation (the checker: topology
    /// construction).
    pub setup_pieces: Vec<f64>,
    /// Events processed (simulator) or transitions applied (checker).
    pub events: u64,
    /// Runs or rows attempted, and how many errored or tripped the
    /// watchdog.
    pub attempted: u64,
    pub failed: u64,
    /// One `(label, fingerprint)` per run or row that completed, in order:
    /// the FastHash of `RunReport::to_cache_text`, or a proof row's
    /// verdict, `complete` flag, state count and report digest.
    pub outputs: Vec<(String, String)>,
    pub topology_s: f64,
    /// `Scenario::partition`, timed on its own in traced passes only.
    pub partition_s: f64,
    pub build_s: f64,
    pub medium: MediumStats,
    pub memory_bytes: usize,
    pub mac: MacTotals,
    pub dedup_hits: u64,
    pub sleep_skips: u64,
    /// `paper_tables` only: see [`paper_err`].
    pub paper_err: Option<f64>,
}

impl Pass {
    pub fn wall_s(&self) -> f64 {
        self.run_pieces.iter().sum()
    }

    pub fn setup_s(&self) -> f64 {
        self.setup_pieces.iter().sum()
    }
}

/// Run one pass of `w` at `seed`, traced or not.
pub fn run_pass(w: Workload, size: Size, seed: u64, traced: bool) -> Pass {
    if w == Workload::ProofMatrix {
        return proof_pass(size, seed, traced);
    }
    let mut pass = Pass::default();
    let mut reports = Vec::new();
    for job in sim_jobs(w, size) {
        pass.attempted += 1;
        match run_sim(&job, seed, traced, &mut pass) {
            Ok(report) => {
                pass.events += report.events_processed;
                pass.mac.add(&report);
                pass.outputs.push((
                    job.label,
                    format!("{:016x}", digest(&report.to_cache_text())),
                ));
                reports.push(report);
            }
            Err(e) => {
                eprintln!("{}: {e}", job.label);
                pass.failed += 1;
            }
        }
    }
    if w == Workload::PaperTables && pass.failed == 0 {
        pass.paper_err = Some(paper_err(&reports));
    }
    pass
}

/// Generate, build and run one simulation, charging its phases to `pass`.
fn run_sim(job: &SimJob, seed: u64, traced: bool, pass: &mut Pass) -> Result<RunReport, SimError> {
    let t0 = Instant::now();
    let sc = (job.make)(seed);
    let topology_s = secs(t0);
    if traced {
        let t = Instant::now();
        sc.partition()?;
        pass.partition_s += secs(t);
    }
    let t1 = Instant::now();
    let report = if traced {
        let net = build_traced(sc)?;
        let build_s = secs(t1);
        finish(net, job, pass, topology_s, build_s)?
    } else {
        let net = sc.build()?;
        let build_s = secs(t1);
        finish(net, job, pass, topology_s, build_s)?
    };
    Ok(report)
}

/// The timed phase: run to the end and take the report.
fn finish<M: Medium, Q: FelChoice>(
    mut net: Network<M, Q>,
    job: &SimJob,
    pass: &mut Pass,
    topology_s: f64,
    build_s: f64,
) -> Result<RunReport, SimError> {
    let end = SimTime::ZERO + job.dur;
    net.set_warmup(SimTime::ZERO + job.warm);
    net.set_watchdog(WATCHDOG_EVENTS);
    for k in 1..=SEGMENTS {
        let t = Instant::now();
        net.run_until(SimTime::ZERO + job.dur * k / SEGMENTS)?;
        pass.run_pieces.push(secs(t));
    }
    let t = Instant::now();
    let report = net.report(end);
    pass.run_pieces.push(secs(t));
    pass.topology_s += topology_s;
    pass.build_s += build_s;
    pass.setup_pieces.extend([topology_s, build_s]);
    pass.medium.merge(net.medium().medium_stats());
    pass.memory_bytes = pass.memory_bytes.max(net.medium().memory_footprint());
    Ok(report)
}

/// The checker's own RNG seed, the proof matrix's. The seed moves the
/// explored state count by about 15 % either way, so the benchmark fixes
/// it and lets the run's seed choose the order the rows run in instead.
pub const MATRIX_SEED: u64 = 1;

fn proof_pass(size: Size, seed: u64, traced: bool) -> Pass {
    let mut pass = Pass::default();
    let t = Instant::now();
    let rows = proof_rows(size);
    pass.topology_s = secs(t);
    pass.setup_pieces.push(pass.topology_s);
    let mut order: Vec<usize> = (0..rows.len()).collect();
    let mut rng = SimRng::new(seed);
    for i in (1..order.len()).rev() {
        order.swap(i, rng.uniform_inclusive(0, i as u64) as usize);
    }
    let mut outputs = vec![None; rows.len()];
    for i in order {
        let row = &rows[i];
        pass.attempted += 1;
        let t = Instant::now();
        let jobs = RefCell::new(Vec::new());
        let r = run_row(row, traced, &jobs);
        let dt = secs(t);
        // The row's pieces: its subtree jobs, then everything else (the
        // frontier above the split and the merges).
        let jobs = jobs.into_inner();
        pass.run_pieces.push(dt - jobs.iter().sum::<f64>());
        pass.run_pieces.extend(jobs);
        pass.events += r.stats.states_explored;
        pass.dedup_hits += r.stats.dedup_hits;
        pass.sleep_skips += r.stats.sleep_skips;
        // Every row is a theorem: a violation or an incomplete search is
        // a failed row.
        if !r.ok() || !r.complete || r.exhausted {
            eprintln!(
                "{}: not proved (ok={} complete={})",
                row.label(),
                r.ok(),
                r.complete
            );
            pass.failed += 1;
            continue;
        }
        outputs[i] = Some((
            row.label(),
            format!(
                "ok={} complete={} states={} digest={:016x}",
                r.ok(),
                r.complete,
                r.stats.states_explored,
                digest(&format!("{r:?}"))
            ),
        ));
    }
    // Outputs in matrix order, whatever order the rows ran in.
    pass.outputs = outputs.into_iter().flatten().collect();
    pass
}

/// Explore one proof row serially with the protocol it names, pushing
/// the time of every subtree job onto `pieces`.
pub fn run_row(row: &ProofRow, traced: bool, pieces: &RefCell<Vec<f64>>) -> CheckReport {
    match row.protocol {
        "macaw" => explore(row, traced, pieces, |i| {
            WMac::new(Addr::Unicast(i), macaw_cfg())
        }),
        "maca" => explore(row, traced, pieces, |i| {
            WMac::new(Addr::Unicast(i), maca_cfg())
        }),
        "csma" => explore(row, traced, pieces, |i| {
            Csma::new(Addr::Unicast(i), csma_cfg())
        }),
        other => unreachable!("proof rows name only known protocols, not {other}"),
    }
}

fn explore<P>(
    row: &ProofRow,
    traced: bool,
    pieces: &RefCell<Vec<f64>>,
    make: impl Fn(usize) -> P,
) -> CheckReport
where
    P: MacProtocol + MacSnapshot + Clone + Sync,
{
    let cfg = row.config(MATRIX_SEED);
    // The split frontier's subtree jobs run one after another on this
    // thread, each timed as a piece of the pass.
    let fan = |n: usize, job: &(dyn Fn(usize) -> SubtreeOut + Sync)| {
        (0..n)
            .map(|i| {
                let t = Instant::now();
                let out = job(i);
                pieces.borrow_mut().push(secs(t));
                out
            })
            .collect()
    };
    if traced {
        check_traced(row.protocol, &row.topo, &cfg, make, fan)
    } else {
        check_fan(row.protocol, &row.topo, &cfg, make, fan)
    }
}

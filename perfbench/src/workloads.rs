//! The benchmark's four workloads. Each is generated from the seed alone;
//! the generated `Scenario`s (or checker topologies) are the only input
//! the program sees.

use macaw_bench::{warm_for, TABLE_SPECS};
use macaw_check::{CheckConfig, Expectation, FaultClass, Topology};
use macaw_core::prelude::*;
use macaw_mac::{CsmaConfig, MacConfig};

/// A named workload.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// Every run of the paper's tables at the paper's durations.
    PaperTables,
    /// A static 65536-station office floor under MACAW.
    OfficeFloor,
    /// A 4096-station campus where most ground stations walk fast.
    CampusWalk,
    /// The reduced model checker over the 5- and 6-station proof rows.
    ProofMatrix,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PaperTables,
        Workload::OfficeFloor,
        Workload::CampusWalk,
        Workload::ProofMatrix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperTables => "paper_tables",
            Workload::OfficeFloor => "office_floor",
            Workload::CampusWalk => "campus_walk",
            Workload::ProofMatrix => "proof_matrix",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// The benchmark's own instance, or a tiny one for the transparency tests.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Size {
    Full,
    Tiny,
}

/// One simulation of a workload pass: a scenario generator (a pure
/// function of the seed) and how long to run it.
pub struct SimJob {
    pub label: String,
    pub make: Box<dyn Fn(u64) -> Scenario>,
    pub dur: SimDuration,
    pub warm: SimDuration,
}

/// Simulated seconds per paper run; Table 11 runs `dur_mul` = 4 times
/// longer, as in the paper. The paper runs 500 s: a fifth of that keeps a
/// whole sweep under a second, so a run repeats every piece often enough
/// to catch each one undisturbed.
const PAPER_SECS: u64 = 100;

/// Office floor: the scale bench's pps taper at N = 65536 (1 pps per
/// stream), run long enough for a few million events.
const FLOOR_STATIONS: usize = 65536;
const FLOOR_PPS: u64 = 1;
const FLOOR_MILLIS: u64 = 1000;

/// Campus: 90 % of ground stations walk at 32 ft/s, one move batch per
/// 50 ms tick, at the scale bench's N = 4096 taper of 2 pps per stream.
const CAMPUS_STATIONS: usize = 4096;
const CAMPUS_PPS: u64 = 2;
const CAMPUS_MOBILE_SHARE: f64 = 0.9;
const CAMPUS_SPEED_FPS: f64 = 32.0;
const CAMPUS_TICK_MILLIS: u64 = 50;
const CAMPUS_MILLIS: u64 = 1000;

/// The simulations of one pass of `w` (empty for the checker workload).
pub fn sim_jobs(w: Workload, size: Size) -> Vec<SimJob> {
    match w {
        Workload::PaperTables => paper_jobs(size),
        Workload::OfficeFloor => {
            let (n, pps, millis) = match size {
                Size::Full => (FLOOR_STATIONS, FLOOR_PPS, FLOOR_MILLIS),
                Size::Tiny => (256, 8, 2000),
            };
            let mut cfg = ScaleConfig::with_stations(n);
            cfg.pps = pps;
            vec![job(format!("office_floor/N{n}"), millis, move |seed| {
                scale_topology(&cfg, MacKind::Macaw, seed)
            })]
        }
        Workload::CampusWalk => {
            let (n, pps, millis) = match size {
                Size::Full => (CAMPUS_STATIONS, CAMPUS_PPS, CAMPUS_MILLIS),
                Size::Tiny => (256, 8, 2000),
            };
            let mut cfg = CampusConfig::with_stations(n);
            cfg.floor.pps = pps;
            cfg.mobile_share = CAMPUS_MOBILE_SHARE;
            cfg.waypoint.speed_fps = CAMPUS_SPEED_FPS;
            cfg.waypoint.tick = SimDuration::from_millis(CAMPUS_TICK_MILLIS);
            let dur = SimDuration::from_millis(millis);
            vec![job(format!("campus_walk/N{n}"), millis, move |seed| {
                campus_topology(&cfg, MacKind::Macaw, dur, seed)
            })]
        }
        Workload::ProofMatrix => Vec::new(),
    }
}

/// A job running for `millis` of simulated time after a fifth of it as
/// warm-up.
fn job(label: String, millis: u64, make: impl Fn(u64) -> Scenario + 'static) -> SimJob {
    let dur = SimDuration::from_millis(millis);
    SimJob {
        label,
        make: Box::new(make),
        dur,
        warm: dur / 5,
    }
}

/// Every `RunSpec` of every table, in paper order, at the paper's
/// durations (the tiny instance runs 5 s instead of 500 s).
fn paper_jobs(size: Size) -> Vec<SimJob> {
    let base = match size {
        Size::Full => PAPER_SECS,
        Size::Tiny => 5,
    };
    let mut jobs = Vec::new();
    for spec in TABLE_SPECS {
        let dur = SimDuration::from_secs(base * spec.dur_mul);
        for run in (spec.runs)() {
            jobs.push(SimJob {
                label: format!("{}/{}", spec.id, run.label),
                make: run.build,
                dur,
                warm: warm_for(dur),
            });
        }
    }
    jobs
}

/// The mean relative error of measured versus published table totals,
/// over every table column with a non-zero published total. `reports` are
/// one full `paper_tables` pass, in job order.
pub fn paper_err(reports: &[RunReport]) -> f64 {
    let (mut sum, mut n) = (0.0, 0usize);
    let mut offset = 0;
    for spec in TABLE_SPECS {
        let runs = (spec.runs)().len();
        let table = (spec.assemble)(&reports[offset..offset + runs]);
        offset += runs;
        for (paper, measured) in table.paper_totals().into_iter().zip(table.totals()) {
            if paper > 0.0 {
                sum += (measured - paper).abs() / paper;
                n += 1;
            }
        }
    }
    sum / n.max(1) as f64
}

// ---- Proof matrix ---------------------------------------------------------

/// One row of the proof matrix.
pub struct ProofRow {
    pub protocol: &'static str,
    pub topo: Topology,
    pub fault: FaultClass,
    pub expectation: Expectation,
}

impl ProofRow {
    pub fn label(&self) -> String {
        format!(
            "{}/{}{}/{:?}",
            self.protocol, self.topo.name, self.topo.n, self.fault
        )
    }

    /// The proof matrix's reduced explorer: depth 96, frontier split at
    /// depth 4 (the split, not the worker count, fixes the report).
    pub fn config(&self, seed: u64) -> CheckConfig {
        let mut cfg = CheckConfig::new(self.fault, self.expectation).reduced();
        cfg.seed = seed;
        cfg.max_depth = 96;
        cfg.split_depth = 4;
        cfg
    }
}

/// Checker-sized MAC budgets, as in the proof matrix: shrinking retries
/// keeps the retry-bounded state space exhaustible.
pub fn macaw_cfg() -> MacConfig {
    let mut cfg = MacConfig::macaw();
    cfg.max_retries = 2;
    cfg.bo_max = 4;
    cfg
}

pub fn maca_cfg() -> MacConfig {
    let mut cfg = MacConfig::maca();
    cfg.max_retries = 2;
    cfg.bo_max = 4;
    cfg
}

pub fn csma_cfg() -> CsmaConfig {
    CsmaConfig {
        bo_max: 4,
        max_attempts: 3,
        ..CsmaConfig::default()
    }
}

/// The proof-matrix rows with five or six stations: the pair-cells ladder
/// up to `pair_cells(3)`, symmetry-heavy, and the rows without declared
/// symmetry (`hidden_star`, `exposed_contenders`, `twin_cells`). The
/// 8-station `pair_cells(4)` alone doubles a pass, which halves how often
/// a run repeats each piece; the 10- and 12-station rows take 15–30 s
/// each and do not fit a run.
pub fn proof_rows(size: Size) -> Vec<ProofRow> {
    use Expectation::{DeliverAll, ResolveAll};
    use FaultClass::{Loss, Noise, None as NoFault};
    let row = |protocol, topo, fault, expectation| ProofRow {
        protocol,
        topo,
        fault,
        expectation,
    };
    if size == Size::Tiny {
        return vec![
            row(
                "macaw",
                Topology::mirrored_chain(),
                Loss { budget: 1 },
                DeliverAll,
            ),
            row("maca", Topology::hidden_star(), NoFault, ResolveAll),
            row("csma", Topology::contended_cell(), NoFault, ResolveAll),
        ];
    }
    vec![
        row(
            "macaw",
            Topology::mirrored_chain(),
            Loss { budget: 1 },
            DeliverAll,
        ),
        row(
            "macaw",
            Topology::mirrored_chain_burst(),
            Loss { budget: 2 },
            ResolveAll,
        ),
        row(
            "macaw",
            Topology::mirrored_chain_burst(),
            Noise { budget: 2 },
            ResolveAll,
        ),
        row("macaw", Topology::contended_cell(), NoFault, ResolveAll),
        row(
            "macaw",
            Topology::hidden_star(),
            Loss { budget: 2 },
            ResolveAll,
        ),
        row(
            "macaw",
            Topology::exposed_contenders(),
            Loss { budget: 2 },
            ResolveAll,
        ),
        row("macaw", Topology::ring(), NoFault, ResolveAll),
        row(
            "macaw",
            Topology::twin_cells(),
            Loss { budget: 2 },
            ResolveAll,
        ),
        row("maca", Topology::hidden_star(), NoFault, ResolveAll),
        row("csma", Topology::contended_cell(), NoFault, ResolveAll),
        row(
            "macaw",
            Topology::twin_contended(),
            Loss { budget: 1 },
            ResolveAll,
        ),
        row(
            "macaw",
            Topology::pair_cells(3),
            Loss { budget: 2 },
            ResolveAll,
        ),
    ]
}

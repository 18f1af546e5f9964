//! Experiment definitions regenerating every table of the MACAW paper.
//!
//! Every table is *data*: a [`TableSpec`] lists the independent
//! simulations it needs ([`RunSpec`]s, each a pure function of the seed)
//! and how to assemble their [`RunReport`]s into a [`TableResult`], which
//! holds the paper's published numbers next to the measured ones. The
//! `tables` binary, the work-stealing parallel sweep ([`executor`]), the
//! multi-seed replication engine ([`replicate`]) and `EXPERIMENTS.md` all
//! iterate the same [`TABLE_SPECS`], so they share one source of truth.
//!
//! Protocol configurations follow the paper's narrative order: each table
//! was produced with the amendments adopted *up to that section*, so e.g.
//! Table 5 (§3.3.2) uses MILD + copying + per-stream queues + link ACK but
//! not RRTS or per-destination backoff. Each table's section comment below
//! says what it runs.

use macaw_core::prelude::*;
use macaw_mac::BackoffSharing;

use crate::executor::Executor;

pub mod alloc_stats;
pub mod executor;
pub mod faults;
pub mod replicate;
pub mod stopwatch;

/// Default experiment duration (the paper runs 500–2000 s).
pub fn default_duration() -> SimDuration {
    SimDuration::from_secs(500)
}

/// The paper's warm-up period.
pub fn warmup() -> SimDuration {
    SimDuration::from_secs(50)
}

/// Warm-up for a run of length `dur`: the paper's 50 s, shrunk to a
/// fifth of the run when the run is short (e.g. `tables --quick`).
pub fn warm_for(dur: SimDuration) -> SimDuration {
    warmup().min(dur / 5)
}

/// One reproduced table: per-row stream name, paper value, measured value
/// (all throughputs in packets per second).
#[derive(Clone, Debug)]
pub struct TableResult {
    pub id: &'static str,
    pub title: &'static str,
    /// Column label for each variant (e.g. "BEB", "BEB copy").
    pub columns: Vec<&'static str>,
    /// Rows: (stream label, per-column paper values, per-column measured).
    pub rows: Vec<(String, Vec<f64>, Vec<f64>)>,
    /// The qualitative claim this table must support.
    pub shape: &'static str,
}

impl TableResult {
    /// Render as an aligned text table (paper | measured per column).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("{} — {}\n", self.id, self.title));
        out.push_str(&format!("{:<10}", "stream"));
        for c in &self.columns {
            out.push_str(&format!(" | {c:>14} (paper/meas)"));
        }
        out.push('\n');
        for (name, paper, measured) in &self.rows {
            out.push_str(&format!("{name:<10}"));
            for (p, m) in paper.iter().zip(measured) {
                if p.is_nan() {
                    out.push_str(&format!(" | {:>14} {m:>12.2}", "-"));
                } else {
                    out.push_str(&format!(" | {p:>14.2} {m:>12.2}"));
                }
            }
            out.push('\n');
        }
        out.push_str(&format!("shape: {}\n", self.shape));
        out
    }

    /// Measured totals per column.
    pub fn totals(&self) -> Vec<f64> {
        let ncols = self.columns.len();
        (0..ncols)
            .map(|c| self.rows.iter().map(|(_, _, m)| m[c]).sum())
            .collect()
    }

    /// Paper totals per column (NaN rows skipped).
    pub fn paper_totals(&self) -> Vec<f64> {
        let ncols = self.columns.len();
        (0..ncols)
            .map(|c| {
                self.rows
                    .iter()
                    .map(|(_, p, _)| p[c])
                    .filter(|v| !v.is_nan())
                    .sum()
            })
            .collect()
    }
}

/// §3.1-era protocol: RTS-CTS-DATA with a chosen backoff algorithm/sharing.
pub fn early(algo: BackoffAlgo, sharing: BackoffSharing) -> MacKind {
    let mut c = MacConfig::maca();
    c.backoff_algo = algo;
    c.backoff_sharing = sharing;
    MacKind::Custom(c)
}

/// §3.2-era protocol: MILD + copying, selectable queue mode.
pub fn mid(queues: QueueMode) -> MacKind {
    let mut c = MacConfig::maca();
    c.backoff_algo = BackoffAlgo::Mild;
    c.backoff_sharing = BackoffSharing::Copy;
    c.queues = queues;
    MacKind::Custom(c)
}

/// §3.3-era protocol: MILD + copying + per-stream queues, selectable
/// message-exchange extensions.
pub fn late(ack: bool, ds: bool, rrts: bool) -> MacKind {
    let mut c = MacConfig::maca();
    c.backoff_algo = BackoffAlgo::Mild;
    c.backoff_sharing = BackoffSharing::Copy;
    c.queues = QueueMode::PerStream;
    c.use_ack = ack;
    c.use_ds = ds;
    c.use_rrts = rrts;
    MacKind::Custom(c)
}

/// One simulation inside a table: a stable label and a scenario builder
/// that is a pure function of the seed. Everything else (duration,
/// warm-up, which medium) is supplied by the runner, so the same spec
/// serves the paper sweep and the replication engine.
pub struct RunSpec {
    /// Stable within-table label (benchmark output).
    pub label: String,
    /// Build the scenario for one seed.
    pub build: Box<dyn Fn(u64) -> Scenario + Send + Sync>,
}

impl RunSpec {
    pub fn new(
        label: impl Into<String>,
        build: impl Fn(u64) -> Scenario + Send + Sync + 'static,
    ) -> RunSpec {
        RunSpec { label: label.into(), build: Box::new(build) }
    }
}

/// A paper table as data: the simulations it needs and how to fold their
/// reports into the published rows. `assemble` receives the reports in
/// exactly `runs()` order.
pub struct TableSpec {
    pub id: &'static str,
    /// Duration multiplier relative to the sweep's base duration: the
    /// paper runs Table 11 for 2000 s against 500 s for the rest.
    pub dur_mul: u64,
    pub runs: fn() -> Vec<RunSpec>,
    pub assemble: fn(&[RunReport]) -> TableResult,
}

impl TableSpec {
    /// Run this table's simulations one after another at exactly `dur`
    /// (no `dur_mul` scaling: [`all_tables`] scales first).
    pub fn run(&self, seed: u64, dur: SimDuration) -> Result<TableResult, SimError> {
        let reports = (self.runs)()
            .iter()
            .map(|r| (r.build)(seed).run(dur, warm_for(dur)))
            .collect::<Result<Vec<_>, _>>()?;
        Ok((self.assemble)(&reports))
    }
}

// ---- Figure 1 (§2.2) ------------------------------------------------------
// Hidden-terminal behaviour of CSMA vs MACA vs MACAW. Not a numbered table
// in the paper; the qualitative claim is §2.2's.

fn figure1_runs() -> Vec<RunSpec> {
    vec![
        RunSpec::new("csma", |seed| {
            figures::figure1_hidden(MacKind::Csma(Default::default()), seed)
        }),
        RunSpec::new("maca", |seed| figures::figure1_hidden(MacKind::Maca, seed)),
        RunSpec::new("macaw", |seed| figures::figure1_hidden(MacKind::Macaw, seed)),
    ]
}

fn figure1_assemble(r: &[RunReport]) -> TableResult {
    let (csma, maca, macaw) = (&r[0], &r[1], &r[2]);
    TableResult {
        id: "Figure 1",
        title: "hidden terminal: CSMA vs MACA vs MACAW (A→B and C→B)",
        columns: vec!["CSMA", "MACA", "MACAW"],
        rows: vec![
            (
                "A-B".into(),
                vec![0.0, f64::NAN, f64::NAN],
                vec![
                    csma.throughput("A-B"),
                    maca.throughput("A-B"),
                    macaw.throughput("A-B"),
                ],
            ),
            (
                "C-B".into(),
                vec![0.0, f64::NAN, f64::NAN],
                vec![
                    csma.throughput("C-B"),
                    maca.throughput("C-B"),
                    macaw.throughput("C-B"),
                ],
            ),
        ],
        shape: "CSMA: total collapse at the hidden terminal; MACA: recovers capacity (unfairly); MACAW: recovers capacity and fairness",
    }
}

// ---- Table 1 (§3.1, Figure 2) ---------------------------------------------
// BEB vs BEB + copying on two saturating pads. BEB alone lets one pad
// capture the channel completely.

fn table1_runs() -> Vec<RunSpec> {
    vec![
        RunSpec::new("beb", |seed| {
            figures::figure2(early(BackoffAlgo::Beb, BackoffSharing::None), seed)
        }),
        RunSpec::new("beb-copy", |seed| {
            figures::figure2(early(BackoffAlgo::Beb, BackoffSharing::Copy), seed)
        }),
    ]
}

fn table1_assemble(r: &[RunReport]) -> TableResult {
    let (beb, copy) = (&r[0], &r[1]);
    TableResult {
        id: "Table 1",
        title: "BEB capture vs fairness through backoff copying (Fig 2)",
        columns: vec!["BEB", "BEB copy"],
        rows: vec![
            (
                "P1-B".into(),
                vec![48.5, 23.82],
                vec![beb.throughput("P1-B"), copy.throughput("P1-B")],
            ),
            (
                "P2-B".into(),
                vec![0.0, 23.32],
                vec![beb.throughput("P2-B"), copy.throughput("P2-B")],
            ),
        ],
        shape: "BEB: one pad captures, the other starves; copy: equal split",
    }
}

// ---- Table 2 (§3.1, Figure 3) ---------------------------------------------
// BEB + copy vs MILD + copy, six saturating pads.

fn table2_runs() -> Vec<RunSpec> {
    vec![
        RunSpec::new("beb-copy", |seed| {
            figures::figure3(early(BackoffAlgo::Beb, BackoffSharing::Copy), seed)
        }),
        RunSpec::new("mild-copy", |seed| {
            figures::figure3(early(BackoffAlgo::Mild, BackoffSharing::Copy), seed)
        }),
    ]
}

fn table2_assemble(r: &[RunReport]) -> TableResult {
    let (beb, mild) = (&r[0], &r[1]);
    let paper_beb = [2.96, 3.01, 2.84, 2.93, 3.00, 3.05];
    let paper_mild = [6.10, 6.18, 6.05, 6.12, 6.14, 6.09];
    TableResult {
        id: "Table 2",
        title: "BEB+copy vs MILD+copy with six pads (Fig 3)",
        columns: vec!["BEB copy", "MILD copy"],
        rows: (0..6)
            .map(|i| {
                let name = format!("P{}-B", i + 1);
                (
                    name.clone(),
                    vec![paper_beb[i], paper_mild[i]],
                    vec![beb.throughput(&name), mild.throughput(&name)],
                )
            })
            .collect(),
        shape: "both fair; MILD sustains higher total throughput than BEB",
    }
}

// ---- Table 3 (§3.2, Figure 4) ---------------------------------------------
// Single station FIFO vs per-stream queues.

fn table3_runs() -> Vec<RunSpec> {
    vec![
        RunSpec::new("single-fifo", |seed| {
            figures::figure4(mid(QueueMode::SingleFifo), seed)
        }),
        RunSpec::new("per-stream", |seed| {
            figures::figure4(mid(QueueMode::PerStream), seed)
        }),
    ]
}

fn table3_assemble(r: &[RunReport]) -> TableResult {
    let (single, multi) = (&r[0], &r[1]);
    let rows = [
        ("B-P1", 11.42, 15.07),
        ("B-P2", 12.34, 15.82),
        ("P3-B", 22.74, 15.64),
    ];
    TableResult {
        id: "Table 3",
        title: "single-queue (per-station) vs per-stream allocation (Fig 4)",
        columns: vec!["single", "multiple"],
        rows: rows
            .iter()
            .map(|(n, p1, p2)| {
                (
                    n.to_string(),
                    vec![*p1, *p2],
                    vec![single.throughput(n), multi.throughput(n)],
                )
            })
            .collect(),
        shape: "single: P3 gets ~2x the base's streams; multiple: even thirds",
    }
}

// ---- Table 4 (§3.3.1) -----------------------------------------------------
// A TCP stream under intermittent noise, with and without the link-layer
// ACK.

const TABLE4_RATES: [f64; 4] = [0.0, 0.001, 0.01, 0.1];

fn table4_runs() -> Vec<RunSpec> {
    let mut runs = Vec::new();
    for rate in TABLE4_RATES {
        runs.push(RunSpec::new(format!("noack-{rate}"), move |seed| {
            figures::table4(late(false, false, false), seed, rate)
        }));
        runs.push(RunSpec::new(format!("ack-{rate}"), move |seed| {
            figures::table4(late(true, false, false), seed, rate)
        }));
    }
    runs
}

fn table4_assemble(r: &[RunReport]) -> TableResult {
    let paper_noack = [40.41, 36.58, 16.65, 2.48];
    let paper_ack = [36.76, 36.67, 35.52, 9.93];
    let rows = TABLE4_RATES
        .iter()
        .enumerate()
        .map(|(i, rate)| {
            let (noack, ack) = (&r[2 * i], &r[2 * i + 1]);
            (
                format!("error {rate}"),
                vec![paper_noack[i], paper_ack[i]],
                vec![noack.throughput("P-B"), ack.throughput("P-B")],
            )
        })
        .collect();
    TableResult {
        id: "Table 4",
        title: "TCP over noise: transport-only vs link-layer recovery",
        columns: vec!["RTS-CTS-DATA", "+ACK"],
        rows,
        shape: "without ACK throughput collapses with noise; with ACK it degrades gently and wins at high noise",
    }
}

// ---- Table 5 (§3.3.2, Figure 5) -------------------------------------------
// Exposed-terminal senders, with and without the DS packet.

fn table5_runs() -> Vec<RunSpec> {
    vec![
        RunSpec::new("no-ds", |seed| figures::figure5(late(true, false, false), seed)),
        RunSpec::new("ds", |seed| figures::figure5(late(true, true, false), seed)),
    ]
}

fn table5_assemble(r: &[RunReport]) -> TableResult {
    let (nods, ds) = (&r[0], &r[1]);
    TableResult {
        id: "Table 5",
        title: "exposed-terminal senders without/with DS (Fig 5)",
        columns: vec!["RTS-CTS-DATA-ACK", "+DS"],
        rows: vec![
            (
                "P1-B1".into(),
                vec![46.72, 23.35],
                vec![nods.throughput("P1-B1"), ds.throughput("P1-B1")],
            ),
            (
                "P2-B2".into(),
                vec![0.0, 22.63],
                vec![nods.throughput("P2-B2"), ds.throughput("P2-B2")],
            ),
        ],
        shape: "without DS the allocation collapses; with DS both streams share evenly at ~23 pps",
    }
}

// ---- Table 6 (§3.3.3, Figure 6) -------------------------------------------
// Blocked receivers, with and without RRTS.

fn table6_runs() -> Vec<RunSpec> {
    vec![
        RunSpec::new("no-rrts", |seed| figures::figure6(late(true, true, false), seed)),
        RunSpec::new("rrts", |seed| figures::figure6(late(true, true, true), seed)),
    ]
}

fn table6_assemble(r: &[RunReport]) -> TableResult {
    let (norrts, rrts) = (&r[0], &r[1]);
    TableResult {
        id: "Table 6",
        title: "receiver-side contention without/with RRTS (Fig 6)",
        columns: vec!["no RRTS", "RRTS"],
        rows: vec![
            (
                "B1-P1".into(),
                vec![0.0, 20.39],
                vec![norrts.throughput("B1-P1"), rrts.throughput("B1-P1")],
            ),
            (
                "B2-P2".into(),
                vec![42.87, 20.53],
                vec![norrts.throughput("B2-P2"), rrts.throughput("B2-P2")],
            ),
        ],
        shape: "without RRTS one downlink starves completely; with RRTS both share evenly",
    }
}

// ---- Table 7 (§3.3.3, Figure 7) -------------------------------------------
// The configuration MACAW leaves unsolved.

fn table7_runs() -> Vec<RunSpec> {
    vec![RunSpec::new("macaw", |seed| figures::figure7(MacKind::Macaw, seed))]
}

fn table7_assemble(r: &[RunReport]) -> TableResult {
    TableResult {
        id: "Table 7",
        title: "the unsolved configuration (Fig 7) under full MACAW",
        columns: vec!["MACAW"],
        rows: vec![
            ("B1-P1".into(), vec![0.0], vec![r[0].throughput("B1-P1")]),
            ("P2-B2".into(), vec![42.87], vec![r[0].throughput("P2-B2")]),
        ],
        shape: "B1-P1 is (almost) completely denied access; P2-B2 runs at capacity",
    }
}

// ---- Table 8 (§3.4, Figure 9) ---------------------------------------------
// A pad is switched off at t = 100 s; single shared backoff vs
// per-destination backoff.

fn table8_runs() -> Vec<RunSpec> {
    let off_at = SimTime::ZERO + SimDuration::from_secs(100);
    vec![
        RunSpec::new("single-backoff", move |seed| {
            let mut c = MacConfig::macaw();
            c.backoff_sharing = BackoffSharing::Copy;
            figures::figure9(MacKind::Custom(c), seed, off_at)
        }),
        RunSpec::new("per-destination", move |seed| {
            figures::figure9(MacKind::Macaw, seed, off_at)
        }),
    ]
}

fn table8_assemble(r: &[RunReport]) -> TableResult {
    let (single, perdst) = (&r[0], &r[1]);
    let rows = [
        ("B1-P2", 3.79, 7.43),
        ("P2-B1", 3.78, 7.55),
        ("B1-P3", 3.62, 7.31),
        ("P3-B1", 3.43, 7.47),
    ];
    TableResult {
        id: "Table 8",
        title: "unreachable pad: single vs per-destination backoff (Fig 9)",
        columns: vec!["single backoff", "per-destination"],
        rows: rows
            .iter()
            .map(|(n, p1, p2)| {
                (
                    n.to_string(),
                    vec![*p1, *p2],
                    vec![single.throughput(n), perdst.throughput(n)],
                )
            })
            .collect(),
        shape: "per-destination backoff roughly doubles surviving streams' throughput",
    }
}

// ---- Table 9 (§3.5) -------------------------------------------------------
// Protocol overhead on a clean single stream.

fn table9_cell(mac: MacKind, seed: u64) -> Scenario {
    let mut sc = Scenario::new(seed);
    let base = sc.add_station("B", Point::new(0.0, 0.0, 6.0), mac);
    let pad = sc.add_station("P", Point::new(3.0, 0.0, 0.0), mac);
    sc.add_udp_stream("P-B", pad, base, 64, 512);
    sc
}

fn table9_runs() -> Vec<RunSpec> {
    vec![
        RunSpec::new("maca", |seed| table9_cell(MacKind::Maca, seed)),
        RunSpec::new("macaw", |seed| table9_cell(MacKind::Macaw, seed)),
    ]
}

fn table9_assemble(r: &[RunReport]) -> TableResult {
    let (maca, macaw) = (&r[0], &r[1]);
    TableResult {
        id: "Table 9",
        title: "single-stream overhead: MACA vs MACAW",
        columns: vec!["pps"],
        rows: vec![
            ("MACA".into(), vec![53.04], vec![maca.throughput("P-B")]),
            ("MACAW".into(), vec![49.07], vec![macaw.throughput("P-B")]),
        ],
        shape: "MACA beats MACAW by the ~8% DS+ACK overhead on a clean channel",
    }
}

// ---- Table 10 (§3.5, Figure 10) -------------------------------------------
// The three-cell scenario, MACA vs MACAW.

fn table10_runs() -> Vec<RunSpec> {
    vec![
        RunSpec::new("maca", |seed| figures::figure10(MacKind::Maca, seed)),
        RunSpec::new("macaw", |seed| figures::figure10(MacKind::Macaw, seed)),
    ]
}

fn table10_assemble(r: &[RunReport]) -> TableResult {
    let (maca, macaw) = (&r[0], &r[1]);
    let rows = [
        ("P1-B1", 9.61, 3.45),
        ("P2-B1", 2.45, 3.84),
        ("P3-B1", 3.70, 3.27),
        ("P4-B1", 0.46, 3.80),
        ("B1-P1", 0.12, 3.83),
        ("B1-P2", 0.01, 3.72),
        ("B1-P3", 0.20, 3.72),
        ("B1-P4", 0.66, 3.59),
        ("P5-B2", 2.24, 7.82),
        ("B2-P5", 3.21, 7.80),
        ("P6-B3", 28.40, 25.16),
    ];
    TableResult {
        id: "Table 10",
        title: "three-cell scenario: MACA vs MACAW (Fig 10)",
        columns: vec!["MACA", "MACAW"],
        rows: rows
            .iter()
            .map(|(n, p1, p2)| {
                (
                    n.to_string(),
                    vec![*p1, *p2],
                    vec![maca.throughput(n), macaw.throughput(n)],
                )
            })
            .collect(),
        shape: "MACAW: fair shares within C1 and a live C2; MACA: wildly uneven, dominated by a few streams",
    }
}

// ---- Table 11 (§3.5, Figure 11) -------------------------------------------
// The four-cell PARC office slice with noise and mobility, MACA vs MACAW
// over TCP (the paper runs it 2000 s: `dur_mul` 4).

fn table11_runs() -> Vec<RunSpec> {
    let arrive = SimTime::ZERO + SimDuration::from_secs(300);
    vec![
        RunSpec::new("maca", move |seed| figures::figure11(MacKind::Maca, seed, arrive)),
        RunSpec::new("macaw", move |seed| figures::figure11(MacKind::Macaw, seed, arrive)),
    ]
}

fn table11_assemble(r: &[RunReport]) -> TableResult {
    let (maca, macaw) = (&r[0], &r[1]);
    let rows = [
        ("P1-B1", 0.78, 2.39),
        ("P2-B1", 1.30, 2.72),
        ("P3-B1", 0.22, 2.54),
        ("P4-B1", 0.06, 2.87),
        ("P5-B3", 18.17, 14.45),
        ("P6-B2", 6.94, 14.00),
        ("P7-B4", 23.82, 19.18),
    ];
    TableResult {
        id: "Table 11",
        title: "four-cell PARC office with noise + mobility (Fig 11)",
        columns: vec!["MACA", "MACAW"],
        rows: rows
            .iter()
            .map(|(n, p1, p2)| {
                (
                    n.to_string(),
                    vec![*p1, *p2],
                    vec![maca.throughput(n), macaw.throughput(n)],
                )
            })
            .collect(),
        shape: "MACAW distributes throughput more fairly; the top stream's share shrinks",
    }
}

/// Every reproduced table as data, in paper order. `dur_mul` mirrors the
/// paper's run lengths (Table 11: 2000 s vs 500 s for the rest).
pub const TABLE_SPECS: &[TableSpec] = &[
    TableSpec { id: "Figure 1", dur_mul: 1, runs: figure1_runs, assemble: figure1_assemble },
    TableSpec { id: "Table 1", dur_mul: 1, runs: table1_runs, assemble: table1_assemble },
    TableSpec { id: "Table 2", dur_mul: 1, runs: table2_runs, assemble: table2_assemble },
    TableSpec { id: "Table 3", dur_mul: 1, runs: table3_runs, assemble: table3_assemble },
    TableSpec { id: "Table 4", dur_mul: 1, runs: table4_runs, assemble: table4_assemble },
    TableSpec { id: "Table 5", dur_mul: 1, runs: table5_runs, assemble: table5_assemble },
    TableSpec { id: "Table 6", dur_mul: 1, runs: table6_runs, assemble: table6_assemble },
    TableSpec { id: "Table 7", dur_mul: 1, runs: table7_runs, assemble: table7_assemble },
    TableSpec { id: "Table 8", dur_mul: 1, runs: table8_runs, assemble: table8_assemble },
    TableSpec { id: "Table 9", dur_mul: 1, runs: table9_runs, assemble: table9_assemble },
    TableSpec { id: "Table 10", dur_mul: 1, runs: table10_runs, assemble: table10_assemble },
    TableSpec { id: "Table 11", dur_mul: 4, runs: table11_runs, assemble: table11_assemble },
];

/// Look up a table spec by its exact id ("Table 5", "Figure 1").
pub fn table_spec(id: &str) -> Option<&'static TableSpec> {
    TABLE_SPECS.iter().find(|s| s.id == id)
}

/// Every table in paper order (Table 11 runs 4x longer, like the paper's
/// 2000 s vs 500 s runs). Fails on the first table whose simulation
/// reports a [`SimError`].
pub fn all_tables(seed: u64, dur: SimDuration) -> Result<Vec<TableResult>, SimError> {
    TABLE_SPECS
        .iter()
        .map(|s| s.run(seed, dur * s.dur_mul))
        .collect()
}

/// Run a selection of table specs on `ex`, fanning out at *simulation*
/// granularity (a table needing eight runs contributes eight independent
/// jobs), and assemble each table from its reports. Output order matches
/// `specs`; the first [`SimError`] in (table, run) order wins — exactly
/// the serial runner's error, regardless of which job failed first on the
/// wall clock.
pub fn run_specs_with(
    ex: &Executor,
    specs: &[&TableSpec],
    seed: u64,
    dur: SimDuration,
) -> Result<Vec<TableResult>, SimError> {
    let runs: Vec<Vec<RunSpec>> = specs.iter().map(|s| (s.runs)()).collect();
    let mut jobs: Vec<(usize, usize)> = Vec::new();
    for (si, rs) in runs.iter().enumerate() {
        for ri in 0..rs.len() {
            jobs.push((si, ri));
        }
    }
    let reports = ex.try_run(jobs.len(), |j| {
        let (si, ri) = jobs[j];
        let d = dur * specs[si].dur_mul;
        (runs[si][ri].build)(seed).run(d, warm_for(d))
    })?;
    let mut out = Vec::with_capacity(specs.len());
    let mut offset = 0;
    for (si, spec) in specs.iter().enumerate() {
        let n = runs[si].len();
        out.push((spec.assemble)(&reports[offset..offset + n]));
        offset += n;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A spec's serial runner and the executor's per-simulation fan-out
    /// assemble the same table, byte for byte.
    #[test]
    fn spec_runner_matches_executor() {
        let dur = SimDuration::from_secs(10);
        let spec = table_spec("Table 9").unwrap();
        let via_spec = spec.run(3, dur).unwrap();
        let via_ex = run_specs_with(&Executor::new(2), &[spec], 3, dur).unwrap();
        assert_eq!(format!("{via_spec:?}"), format!("{:?}", via_ex[0]));
    }

    /// Table 11 runs at the paper's 4x duration; every other table at 1x.
    #[test]
    fn table11_duration_multiplier_is_four() {
        assert_eq!(table_spec("Table 11").unwrap().dur_mul, 4);
        for s in TABLE_SPECS {
            if s.id != "Table 11" {
                assert_eq!(s.dur_mul, 1, "{}", s.id);
            }
        }
    }
}

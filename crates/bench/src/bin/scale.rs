//! Medium-scaling sweep on the synthetic office floor
//! ([`macaw_core::topology`]), written to `BENCH_scale.json`:
//!
//! 1. **Sweep** — N ∈ {16, 64, 256, 1024} × {CSMA, MACA, MACAW}, extended
//!    MACAW-only to N ∈ {4096, 16384, 65536}, on the cube-grid
//!    [`SparseMedium`]: throughput, Jain fairness, medium bytes and the
//!    medium's op counters. Fold terms per `end_tx` staying flat across N
//!    is the direct evidence the per-event medium cost is O(k), not
//!    O(active).
//! 2. **Reference vs sparse** — the N = 256 MACAW cell on the naive
//!    [`ReferenceMedium`] oracle. The [`RunReport`]s must be *equal* (the
//!    media are bit-identical by construction; this is the end-to-end
//!    check).
//! 3. **Memory** — [`Medium::memory_footprint`] of the built sparse medium.
//!    A 16x station growth (64 → 1024) must cost well under 256x the bytes
//!    (sub-quadratic; the cube grid is O(N·k)).
//!
//! Every number in the file is a pure function of the code and [`SEED`].
//! Each cell is one executor job, `--jobs N` (default: one worker per
//! core) changes no byte, and `scripts/verify.sh` regenerates the file and
//! compares it with the committed one byte for byte.
//!
//! Usage:
//!   scale [--out PATH] [--jobs N]
//!
//! [`SparseMedium`]: macaw_phy::SparseMedium
//! [`ReferenceMedium`]: macaw_phy::ReferenceMedium
//! [`Medium::memory_footprint`]: macaw_phy::Medium::memory_footprint
//! [`RunReport`]: macaw_core::stats::RunReport

use macaw_bench::cli::{die, Cli};
use macaw_bench::floor_pps;
use macaw_core::prelude::*;
use macaw_core::stats::RunReport;
use macaw_phy::{Medium as PhyMedium, ReferenceMedium, SparseMedium};
use macaw_sim::LadderFel;

/// The seed of the committed `BENCH_scale.json`.
const SEED: u64 = 1;
/// Station counts of the three-protocol sweep.
const SIZES: [usize; 4] = [16, 64, 256, 1024];
/// Station counts of the MACAW-only sweep cells. N = 65536 is the
/// stamp-ordered slab's headline: before it, the O(active) scans in
/// `end_tx` made this size untenable.
const LARGE_SIZES: [usize; 3] = [4096, 16384, 65536];
/// Simulated length of every run, and its warm-up.
const DUR: SimDuration = SimDuration::from_secs(5);
const WARM: SimDuration = SimDuration::from_secs(1);

/// The protocols the sweep compares, in paper order.
fn protocols() -> Vec<(&'static str, MacKind)> {
    vec![
        ("CSMA", MacKind::Csma(Default::default())),
        ("MACA", MacKind::Maca),
        ("MACAW", MacKind::Macaw),
    ]
}

/// The office floor for `n` stations at the [`floor_pps`] offered load.
fn floor_config(n: usize) -> ScaleConfig {
    let mut cfg = ScaleConfig::with_stations(n);
    cfg.pps = floor_pps(n);
    cfg
}

struct Cell {
    protocol: &'static str,
    stations: usize,
    streams: usize,
    footprint: usize,
    report: RunReport,
    medium: MediumStats,
}

/// Build the floor on medium `M`, run it and collect its cell. The
/// footprint is the built medium's, read before the run.
fn run_cell<M: PhyMedium>(protocol: &'static str, n: usize, mac: MacKind) -> Cell {
    let mut net = scale_topology(&floor_config(n), mac, SEED)
        .build_with_queue::<M, LadderFel>()
        .unwrap_or_else(|e| die(&e));
    net.set_warmup(SimTime::ZERO + WARM);
    let footprint = net.medium().memory_footprint();
    let end = SimTime::ZERO + DUR;
    net.run_until(end).unwrap_or_else(|e| die(&e));
    Cell {
        protocol,
        stations: n,
        streams: net.stream_count(),
        footprint,
        report: net.report(end),
        medium: net.medium().medium_stats(),
    }
}

/// Fold terms visited per `end_tx` — the per-event medium cost the slab
/// keeps flat as N grows (0.0 when the medium saw no traffic).
fn terms_per_end(m: &MediumStats) -> f64 {
    if m.end_tx_ops == 0 {
        0.0
    } else {
        m.fold_terms as f64 / m.end_tx_ops as f64
    }
}

/// One executor job of the science run.
#[derive(Clone, Copy)]
enum Job {
    /// A sweep cell on the sparse medium.
    Sweep(&'static str, MacKind, usize),
    /// The N = 256 MACAW cell on the reference oracle.
    Reference,
}

fn main() {
    let cli = Cli::parse("scale", "BENCH_scale.json");

    // Largest first: the N = 65536 cell alone takes about as long as every
    // other job together, so it starts at once and the rest fill the other
    // workers around it. Results are sorted back into report order below.
    let mut job_list: Vec<Job> = LARGE_SIZES
        .iter()
        .rev()
        .map(|&n| Job::Sweep("MACAW", MacKind::Macaw, n))
        .collect();
    job_list.push(Job::Reference);
    for &n in SIZES.iter().rev() {
        for (name, mac) in protocols() {
            job_list.push(Job::Sweep(name, mac, n));
        }
    }
    let done = cli.executor.run(job_list.len(), |i| match job_list[i] {
        Job::Sweep(name, mac, n) => run_cell::<SparseMedium>(name, n, mac),
        Job::Reference => run_cell::<ReferenceMedium>("MACAW", 256, MacKind::Macaw),
    });
    let mut cells: Vec<Cell> = Vec::new();
    let mut reference: Option<Cell> = None;
    for (job, c) in job_list.iter().zip(done) {
        match job {
            Job::Reference => reference = Some(c),
            Job::Sweep(..) => cells.push(c),
        }
    }
    // Protocol names sort in paper order (CSMA < MACA < MACAW).
    cells.sort_by_key(|c| (c.stations, c.protocol));
    let reference = reference.expect("the reference job ran");

    println!(
        "scale sweep: office floor, {SIZES:?} stations x {{CSMA, MACA, MACAW}} and MACAW at \
         {LARGE_SIZES:?}, 5 s runs"
    );
    let mut sweep_json: Vec<String> = Vec::new();
    for c in &cells {
        let (r, m) = (&c.report, &c.medium);
        println!(
            "  {:<6} N={:<5} {:>5} streams  {:>9} events  {:>8.1} pps  fairness {:.3}  \
             medium {:>8.1} KiB  {:>5.1} terms/end  slab hw {}",
            c.protocol,
            c.stations,
            c.streams,
            r.events_processed,
            r.total_throughput(),
            r.jain_fairness(),
            c.footprint as f64 / 1024.0,
            terms_per_end(m),
            m.slab_high_water
        );
        assert!(
            r.total_throughput().is_finite() && r.total_throughput() > 0.0,
            "{} N={}: non-finite or zero throughput",
            c.protocol,
            c.stations
        );
        sweep_json.push(format!(
            "    {{ \"protocol\": \"{}\", \"stations\": {}, \"streams\": {}, \"events\": {}, \
             \"total_throughput_pps\": {:.3}, \"jain_fairness\": {:.4}, \"medium_bytes\": {}, \
             \"medium_end_tx_ops\": {}, \"medium_folds\": {}, \"medium_fold_terms\": {}, \
             \"fold_terms_per_end_tx\": {:.2}, \"slab_high_water\": {} }}",
            c.protocol,
            c.stations,
            c.streams,
            r.events_processed,
            r.total_throughput(),
            r.jain_fairness(),
            c.footprint,
            m.end_tx_ops,
            m.folds,
            m.fold_terms,
            terms_per_end(m),
            m.slab_high_water
        ));
    }
    let macaw = |n: usize| {
        cells
            .iter()
            .find(|c| c.stations == n && c.protocol == "MACAW")
            .expect("sweep covers this size")
    };

    // Reference oracle vs sparse at N = 256: identical report.
    let sparse = macaw(256);
    assert_eq!(
        format!("{:?}", sparse.report),
        format!("{:?}", reference.report),
        "sparse and reference N=256 runs must produce identical reports"
    );
    println!(
        "\nreference vs sparse, N=256 MACAW: sparse {:.1} KiB, reference {:.1} KiB, reports identical",
        sparse.footprint as f64 / 1024.0,
        reference.footprint as f64 / 1024.0
    );

    // Sub-quadratic memory: 16x stations must cost far less than 256x bytes.
    let (m64, m1024) = (macaw(64).footprint, macaw(1024).footprint);
    let growth = m1024 as f64 / m64 as f64;
    println!(
        "medium memory: N=64 {:.1} KiB -> N=1024 {:.1} KiB ({growth:.1}x for 16x stations; quadratic would be 256x)",
        m64 as f64 / 1024.0,
        m1024 as f64 / 1024.0
    );
    assert!(
        growth < 256.0,
        "medium memory grew quadratically: {growth:.1}x"
    );

    let json = format!(
        "{{\n  \"workload\": \"random office floor (topology::scale_topology), seed {SEED}, 5 s sim with 1 s warm-up\",\n  \
           \"sweep\": [\n{}\n  ],\n  \
           \"reference_vs_sparse_n256_macaw\": {{\n    \
             \"sparse_medium_bytes\": {},\n    \
             \"reference_medium_bytes\": {},\n    \
             \"reports_identical\": true\n  }},\n  \
           \"memory_growth_64_to_1024\": {{\n    \
             \"bytes_n64\": {m64},\n    \
             \"bytes_n1024\": {m1024},\n    \
             \"growth_factor\": {growth:.2},\n    \
             \"quadratic_reference\": 256.0\n  }}\n}}\n",
        sweep_json.join(",\n"),
        sparse.footprint,
        reference.footprint
    );
    cli.write(&json);
}

//! Multi-seed replication: every paper table as mean ± 95% CI over R seeds.
//!
//! The paper's tables are point estimates from one simulation each; this
//! module reruns every table under R independent seeds and reports
//! per-stream throughput as mean ± 95% confidence interval, the same move
//! NS-3-style DCF parameter studies make to put error bars on MAC
//! comparisons. The sweep is embarrassingly parallel — each
//! `(table, run, replication)` triple is an independent simulation — and
//! runs through the same [`run_specs_with`] sweep as the `tables` binary,
//! on the [`Executor`], so the aggregates are *bitwise identical* whether
//! the sweep ran serially or on eight workers.
//!
//! Replication seeds come from the simulator's own stream-splitting
//! ([`replication_seed`]): seed r of a sweep rooted at R is a pure
//! function of `(R, r)`, independent of worker count or execution order.
//! Statistics are folded with Welford's streaming mean/variance in
//! replication order, and the CI half-width uses the Student-t quantile
//! for the actual degrees of freedom.

use macaw_core::prelude::*;
use macaw_core::Executor;
use macaw_sim::SimRng;

use crate::{run_specs_with, TableSpec};

/// The seed driving replication `r` of a sweep rooted at `root`: the
/// simulator's own stream-split derivation, so the mapping is pure,
/// collision-resistant across labels, and stable forever.
pub fn replication_seed(root: u64, r: u32) -> u64 {
    SimRng::new(root).stream_seed(r as u64)
}

/// Welford's streaming mean/variance: one pass, numerically stable, and
/// deterministic for a fixed fold order (the aggregator always folds in
/// replication order).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    pub fn mean(&self) -> f64 {
        if self.n == 0 { f64::NAN } else { self.mean }
    }

    /// Sample variance (n − 1 denominator); NaN below two samples.
    pub fn variance(&self) -> f64 {
        if self.n < 2 { f64::NAN } else { self.m2 / (self.n - 1) as f64 }
    }

    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Half-width of the 95% confidence interval on the mean:
    /// `t_{0.975, n-1} · s / √n`. NaN below two samples.
    pub fn ci95_half_width(&self) -> f64 {
        if self.n < 2 {
            return f64::NAN;
        }
        t95(self.n - 1) * (self.variance() / self.n as f64).sqrt()
    }
}

/// Two-sided 95% Student-t quantile for `df` degrees of freedom (exact
/// table through df = 30, the normal 1.96 beyond — the error out there is
/// under half a percent).
pub fn t95(df: u64) -> f64 {
    const TABLE: [f64; 30] = [
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
        2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
        2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
    ];
    match df {
        0 => f64::NAN,
        1..=30 => TABLE[(df - 1) as usize],
        _ => 1.96,
    }
}

/// Sweep parameters.
#[derive(Clone, Copy, Debug)]
pub struct SweepConfig {
    /// Root seed; replication seeds derive from it via [`replication_seed`].
    pub root_seed: u64,
    /// Number of replications R.
    pub replications: u32,
    /// Base simulated duration per run (scaled by each table's `dur_mul`).
    pub dur: SimDuration,
}

/// One table aggregated over R replications.
#[derive(Clone, Debug)]
pub struct TableReplication {
    pub id: &'static str,
    pub title: &'static str,
    pub columns: Vec<&'static str>,
    /// Rows: (stream label, per-column paper values, per-column stats
    /// over the R measured throughputs).
    pub rows: Vec<(String, Vec<f64>, Vec<Welford>)>,
}

impl TableReplication {
    /// Aligned text rendering: `mean ± ci95` per column.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("{} — {}\n", self.id, self.title));
        out.push_str(&format!("{:<12}", "stream"));
        for c in &self.columns {
            out.push_str(&format!(" | {c:>14} (paper / mean ± ci95)"));
        }
        out.push('\n');
        for (name, paper, stats) in &self.rows {
            out.push_str(&format!("{name:<12}"));
            for (p, w) in paper.iter().zip(stats) {
                let paper = if p.is_nan() { format!("{:>8}", "-") } else { format!("{p:>8.2}") };
                out.push_str(&format!(
                    " | {paper}  {:>8.2} ± {:>5.2}",
                    w.mean(),
                    w.ci95_half_width()
                ));
            }
            out.push('\n');
        }
        out
    }
}

/// A completed replication sweep.
#[derive(Debug)]
pub struct Replication {
    pub tables: Vec<TableReplication>,
    /// Total `(table, run, replication)` jobs in the sweep.
    pub total_jobs: usize,
}

impl Replication {
    /// The canonical bit-exact rendering of the aggregates: `Debug` for
    /// `f64` prints the shortest round-trippable decimal, so string
    /// equality here is bit equality of every mean and variance.
    pub fn fingerprint_text(&self) -> String {
        format!("{:?}", self.tables)
    }
}

/// Run the replication sweep for `specs` on `ex`: one
/// [`run_specs_with`] call over the R replication seeds, folded into
/// streaming stats in replication order. Aggregates are a pure fold over
/// reports that are themselves pure functions of `(table, run, seed)`, so
/// the result is independent of worker count and timing.
pub fn sweep(
    ex: &Executor,
    specs: &[&TableSpec],
    cfg: &SweepConfig,
) -> Result<Replication, SimError> {
    assert!(cfg.replications >= 1, "replication sweep needs R >= 1");
    let seeds: Vec<u64> = (0..cfg.replications)
        .map(|r| replication_seed(cfg.root_seed, r))
        .collect();
    let per_seed = run_specs_with(ex, specs, &seeds, cfg.dur)?;
    let runs_per_seed: usize = specs.iter().map(|s| (s.runs)().len()).sum();

    let tables = (0..specs.len())
        .map(|si| {
            let first = &per_seed[0][si];
            let mut agg = TableReplication {
                id: first.id,
                title: first.title,
                columns: first.columns.clone(),
                rows: first
                    .rows
                    .iter()
                    .map(|(n, p, m)| (n.clone(), p.clone(), vec![Welford::default(); m.len()]))
                    .collect(),
            };
            for t in per_seed.iter().map(|tables| &tables[si]) {
                for ((_, _, stats), (_, _, measured)) in agg.rows.iter_mut().zip(&t.rows) {
                    for (w, &x) in stats.iter_mut().zip(measured) {
                        w.push(x);
                    }
                }
            }
            agg
        })
        .collect();

    Ok(Replication {
        tables,
        total_jobs: seeds.len() * runs_per_seed,
    })
}

/// Serialize a completed sweep as the `BENCH_replicate.json` payload:
/// deterministic aggregates only, so any worker count writes the same
/// bytes.
pub fn to_json(rep: &Replication, cfg: &SweepConfig) -> String {
    let mut tables = String::new();
    for t in &rep.tables {
        let cols: Vec<String> = t.columns.iter().map(|c| format!("\"{c}\"")).collect();
        let mut rows = String::new();
        for (name, paper, stats) in &t.rows {
            let num = |v: f64, prec: usize| {
                if v.is_nan() { "null".to_string() } else { format!("{v:.prec$}") }
            };
            let paper: Vec<String> = paper.iter().map(|&p| num(p, 2)).collect();
            let mean: Vec<String> = stats.iter().map(|w| num(w.mean(), 4)).collect();
            let ci: Vec<String> = stats.iter().map(|w| num(w.ci95_half_width(), 4)).collect();
            let sd: Vec<String> = stats.iter().map(|w| num(w.std_dev(), 4)).collect();
            rows.push_str(&format!(
                "        {{ \"stream\": \"{name}\", \"paper_pps\": [{}], \"mean_pps\": [{}], \
                 \"ci95_pps\": [{}], \"std_dev_pps\": [{}] }},\n",
                paper.join(", "),
                mean.join(", "),
                ci.join(", "),
                sd.join(", ")
            ));
        }
        rows.pop();
        rows.pop(); // trailing ",\n"
        rows.push('\n');
        tables.push_str(&format!(
            "    {{\n      \"table\": \"{}\",\n      \"title\": \"{}\",\n      \
             \"columns\": [{}],\n      \"rows\": [\n{rows}      ]\n    }},\n",
            t.id,
            t.title,
            cols.join(", ")
        ));
    }
    tables.pop();
    tables.pop();
    tables.push('\n');
    format!(
        "{{\n  \"workload\": \"every paper table replicated over R independent seeds; \
         per-stream throughput as mean ± 95% CI (Student-t)\",\n  \
         \"root_seed\": {},\n  \"replications\": {},\n  \"base_duration_secs\": {},\n  \
         \"simulations\": {},\n  \
         \"seed_derivation\": \"SimRng::new(root_seed).stream_seed(r)\",\n  \
         \"tables\": [\n{tables}  ]\n}}\n",
        cfg.root_seed,
        cfg.replications,
        cfg.dur.as_secs_f64() as u64,
        rep.total_jobs,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replication_seeds_are_pure_and_distinct() {
        let a: Vec<u64> = (0..32).map(|r| replication_seed(42, r)).collect();
        let b: Vec<u64> = (0..32).map(|r| replication_seed(42, r)).collect();
        assert_eq!(a, b);
        let mut dedup = a.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), a.len(), "seed collision");
        assert_ne!(replication_seed(1, 0), replication_seed(2, 0));
    }

    #[test]
    fn welford_matches_two_pass_statistics() {
        let xs = [3.5, 1.25, -4.0, 18.0, 0.5, 7.75, 2.0, -1.5];
        let mut w = Welford::default();
        for &x in &xs {
            w.push(x);
        }
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
        assert!((w.mean() - mean).abs() < 1e-12);
        assert!((w.variance() - var).abs() < 1e-12);
        assert_eq!(w.count(), xs.len() as u64);
        let ci = w.ci95_half_width();
        assert!((ci - t95(7) * (var / n).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn welford_small_sample_edges() {
        let mut w = Welford::default();
        assert!(w.mean().is_nan());
        w.push(5.0);
        assert_eq!(w.mean(), 5.0);
        assert!(w.variance().is_nan(), "one sample has no variance");
        assert!(w.ci95_half_width().is_nan());
        w.push(5.0);
        assert_eq!(w.variance(), 0.0, "identical samples: zero variance");
        assert_eq!(w.ci95_half_width(), 0.0);
    }

    #[test]
    fn t95_is_decreasing_toward_the_normal_quantile() {
        assert!((t95(1) - 12.706).abs() < 1e-9);
        assert!((t95(15) - 2.131).abs() < 1e-9);
        assert!((t95(30) - 2.042).abs() < 1e-9);
        assert_eq!(t95(31), 1.96);
        for df in 1..40 {
            assert!(t95(df + 1) <= t95(df), "t quantile must not increase with df");
        }
        assert!(t95(0).is_nan());
    }
}

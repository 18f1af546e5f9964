//! The traced run must be the untraced run, bit for bit, with counts at
//! every seam. A tiny instance of each workload runs both ways.
//!
//! Comparing `MediumStats` as well as the reports is what catches a seam
//! wrapper that inherits a provided `Medium` method instead of forwarding
//! it: the default `set_positions` loop gives the same reports as
//! `SparseMedium`'s batched override but different fold counters, and a
//! default `medium_stats` reports all zeros.

use macaw_perfbench::run::{run_pass, Pass};
use macaw_perfbench::seams::{trace_begin, trace_end, Site, TraceTotals};
use macaw_perfbench::workloads::{Size, Workload};

fn both_ways(w: Workload, seed: u64) -> (Pass, Pass, TraceTotals) {
    let plain = run_pass(w, Size::Tiny, seed, false);
    trace_begin();
    let traced = run_pass(w, Size::Tiny, seed, true);
    let (totals, _spans) = trace_end(0.0);
    assert_eq!(plain.failed, 0, "{w:?}: untraced run failed");
    assert_eq!(traced.failed, 0, "{w:?}: traced run failed");
    assert!(!plain.outputs.is_empty());
    assert_eq!(
        plain.outputs, traced.outputs,
        "{w:?}: traced outputs differ"
    );
    assert_eq!(
        plain.medium, traced.medium,
        "{w:?}: traced medium counters differ"
    );
    assert_eq!(plain.mac, traced.mac, "{w:?}: traced MAC counters differ");
    assert_eq!(
        plain.events, traced.events,
        "{w:?}: traced event count differs"
    );
    (plain, traced, totals)
}

fn calls(t: &TraceTotals, s: Site) -> u64 {
    t.site(s).calls
}

#[test]
fn paper_tables_traced_equals_untraced() {
    let (plain, _, t) = both_ways(Workload::PaperTables, 7);
    assert!(plain.paper_err.is_some());
    assert!(calls(&t, Site::StartTx) > 0 && calls(&t, Site::EndTx) > 0);
    assert!(calls(&t, Site::CarrierBusy) > 0, "CSMA senses the carrier");
    assert!(t.fel_pushes > 0 && t.fel_pops > 0);
}

#[test]
fn office_floor_traced_equals_untraced() {
    let (plain, _, t) = both_ways(Workload::OfficeFloor, 7);
    assert_eq!(calls(&t, Site::StartTx), plain.medium.start_tx_ops);
    assert_eq!(calls(&t, Site::EndTx), plain.medium.end_tx_ops);
    assert!(t.rx_all >= t.rx_clean && t.rx_clean > 0);
}

#[test]
fn campus_walk_traced_equals_untraced() {
    let (plain, _, t) = both_ways(Workload::CampusWalk, 7);
    assert!(plain.medium.set_position_ops > 0, "the campus moves");
    assert!(calls(&t, Site::SetPositions) > 0);
}

#[test]
fn proof_matrix_traced_equals_untraced() {
    let (plain, _, t) = both_ways(Workload::ProofMatrix, 7);
    assert!(plain.events > 0);
    assert!(calls(&t, Site::MacStep) > 0 && calls(&t, Site::MacSnapshot) > 0);
    assert!(
        calls(&t, Site::MacRelabel) > 0,
        "the symmetric rows relabel"
    );
}

#[test]
fn repeated_passes_are_identical() {
    for w in Workload::ALL {
        let a = run_pass(w, Size::Tiny, 3, false);
        let b = run_pass(w, Size::Tiny, 3, false);
        assert_eq!(a.outputs, b.outputs, "{w:?}");
    }
}

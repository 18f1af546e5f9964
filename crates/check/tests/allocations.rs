//! The explorer's heap census: one serial pass of the benchmark's proof
//! matrix (the twelve rows of five and six stations, reduced, split at
//! depth 4, with the matrix's MAC budgets) may make at most three heap
//! allocations or reallocations per explored state.
//!
//! A counting global allocator counts per thread, so the test harness's
//! other threads do not add to the census. Run it in release to see the
//! count quickly: `cargo test --release -p macaw-check --test allocations
//! -- --nocapture`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use macaw_check::{
    check, proof_csma, proof_wmac, CheckConfig, CheckReport, Expectation, FaultClass, Topology,
};
use macaw_mac::{Addr, Csma, MacConfig, WMac};

thread_local! {
    /// Allocations and reallocations made by this thread. A `const`
    /// initializer and no destructor: reading it never allocates.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // A thread being torn down has no counter left; its frees are not
    // counted anyway.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

/// The system allocator, counting every allocation and reallocation.
struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are this allocator's; the counter
// is a thread-local `Cell` that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// The proof matrix's MAC budgets.
fn wmac(cfg: MacConfig) -> impl Fn(usize) -> WMac {
    move |i| WMac::new(Addr::Unicast(i), proof_wmac(cfg))
}

fn csma(i: usize) -> Csma {
    Csma::new(Addr::Unicast(i), proof_csma())
}

/// The proof matrix's reduced explorer: depth 96, frontier split at
/// depth 4, seed 1.
fn config(fault: FaultClass, expectation: Expectation) -> CheckConfig {
    let mut cfg = CheckConfig::new(fault, expectation).reduced();
    cfg.max_depth = 96;
    cfg.split_depth = 4;
    cfg
}

#[test]
fn exploring_the_proof_matrix_allocates_at_most_three_times_per_state() {
    use Expectation::{DeliverAll, ResolveAll};
    use FaultClass::{Loss, Noise, None as NoFault};
    let macaw_rows = [
        (Topology::mirrored_chain(), Loss { budget: 1 }, DeliverAll),
        (
            Topology::mirrored_chain_burst(),
            Loss { budget: 2 },
            ResolveAll,
        ),
        (
            Topology::mirrored_chain_burst(),
            Noise { budget: 2 },
            ResolveAll,
        ),
        (Topology::contended_cell(), NoFault, ResolveAll),
        (Topology::hidden_star(), Loss { budget: 2 }, ResolveAll),
        (
            Topology::exposed_contenders(),
            Loss { budget: 2 },
            ResolveAll,
        ),
        (Topology::ring(), NoFault, ResolveAll),
        (Topology::twin_cells(), Loss { budget: 2 }, ResolveAll),
        (Topology::twin_contended(), Loss { budget: 1 }, ResolveAll),
        (Topology::pair_cells(3), Loss { budget: 2 }, ResolveAll),
    ];
    let maca_topo = Topology::hidden_star();
    let csma_topo = Topology::contended_cell();

    let before = allocs();
    let mut reports: Vec<CheckReport> = Vec::with_capacity(12);
    for (topo, fault, expectation) in &macaw_rows {
        let cfg = config(*fault, *expectation);
        reports.push(check("macaw", topo, &cfg, wmac(MacConfig::macaw())));
    }
    let cfg = config(NoFault, ResolveAll);
    reports.push(check("maca", &maca_topo, &cfg, wmac(MacConfig::maca())));
    reports.push(check("csma", &csma_topo, &cfg, csma));
    let made = allocs() - before;

    for r in &reports {
        assert!(r.ok() && r.complete, "{r}");
    }
    let states: u64 = reports.iter().map(|r| r.stats.states_explored).sum();
    assert_eq!(states, 138_893, "the proof matrix's state count");
    let per_state = made as f64 / states as f64;
    println!("{made} allocations and reallocations over {states} explored states: {per_state:.3} per state");
    assert!(
        made <= 3 * states,
        "{made} allocations over {states} states ({per_state:.3} per state)"
    );
}

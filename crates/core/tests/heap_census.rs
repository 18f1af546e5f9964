//! The simulator's heap census: the office floor's generator at 1/64
//! scale (1024 stations, 1 pps per stream, MACAW, seed 1), built and run
//! for 1 s after a 0.2 s warm-up with its report taken, may hold at most a
//! set number of live heap bytes per station at its peak.
//!
//! Per-station MAC state is what grows with a floor, so this count moves
//! with its layout (peer tables, transmit queues, re-ACK windows) where
//! the benchmark's resident-set figure is too coarse to tell. A counting
//! global allocator tracks live and peak-live bytes per thread, so the
//! test harness's other threads do not add to the census. Run it in
//! release to see the count quickly: `cargo test --release -p macaw-core
//! --test heap_census -- --nocapture`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use macaw_core::prelude::*;

thread_local! {
    /// Live heap bytes this thread has allocated and not freed, and their
    /// high-water mark. A `const` initializer and no destructor: updating
    /// it never allocates.
    static HEAP: Cell<(i64, i64)> = const { Cell::new((0, 0)) };
}

fn note(delta: i64) {
    // A thread being torn down has no counter left; its frees are not
    // counted anyway.
    let _ = HEAP.try_with(|h| {
        let (live, peak) = h.get();
        h.set((live + delta, peak.max(live + delta)));
    });
}

/// The system allocator, counting the bytes of every successful
/// allocation, reallocation and free.
struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are this allocator's; the counter
// is a thread-local `Cell` that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            note(layout.size() as i64);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            note(layout.size() as i64);
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            note(new_size as i64 - layout.size() as i64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(-(layout.size() as i64));
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const STATIONS: usize = 1024;

/// Just above the 2 018 B per station that the current layout holds, so a
/// change that grows per-station state fails here.
const MAX_BYTES_PER_STATION: i64 = 2_040;

#[test]
fn the_office_floor_holds_at_most_2040_heap_bytes_per_station() {
    let mut cfg = ScaleConfig::with_stations(STATIONS);
    cfg.pps = 1;
    // The scenario is the input, not the subject: measure from the live
    // heap after generating it, so the peak counts what building, running
    // and reporting add.
    let sc = scale_topology(&cfg, MacKind::Macaw, 1);
    let base = HEAP.with(|h| {
        let (live, _) = h.get();
        h.set((live, live));
        live
    });
    let report = sc
        .run(SimDuration::from_secs(1), SimDuration::from_millis(200))
        .expect("the floor runs");
    let peak = HEAP.with(Cell::get).1 - base;

    let delivered: u64 = report.streams.iter().map(|s| s.delivered).sum();
    assert!(delivered > 0, "a census of a floor that delivers nothing");
    let per_station = peak / STATIONS as i64;
    println!("peak live heap {peak} B over {STATIONS} stations: {per_station} B per station");
    assert!(
        per_station <= MAX_BYTES_PER_STATION,
        "{per_station} B per station ({peak} B at the peak)"
    );
}

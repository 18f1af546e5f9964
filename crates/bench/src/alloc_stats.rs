//! Opt-in counting global allocator (`--features alloc-stats`).
//!
//! When the feature is on, every bench binary runs under a thin wrapper
//! around the system allocator that counts allocations, allocated bytes,
//! live bytes and the live-bytes high-water mark with relaxed atomics —
//! cheap enough to leave on for a measurement run, and exact (it wraps
//! the real allocator rather than sampling). The `scale` sweep reports
//! each cell's live-bytes peak from it, and perfbench's header records
//! whether it is compiled in.
//!
//! Without the feature this module compiles to an API that always returns
//! `None`, so call sites never need a `cfg`.

/// Allocator counters at one instant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AllocSnapshot {
    /// Total successful allocations so far (reallocs count once).
    pub allocations: u64,
    /// Total bytes ever allocated (reallocs count the new size).
    pub allocated_bytes: u64,
    /// Bytes currently live.
    pub live_bytes: u64,
    /// High-water mark of live bytes over the process lifetime.
    pub peak_bytes: u64,
}

/// Current allocator counters, or `None` when the `alloc-stats` feature
/// is off (the default).
pub fn snapshot() -> Option<AllocSnapshot> {
    imp::snapshot()
}

/// Whether the counting allocator is compiled in.
pub fn enabled() -> bool {
    cfg!(feature = "alloc-stats")
}

/// Rebase the live-bytes high-water mark to the current live bytes, so
/// the next [`snapshot`]'s `peak_bytes` covers only allocations made
/// after this call. The `scale` sweep uses this to report a true
/// *per-cell* peak where process-lifetime marks (`peak_bytes` without a
/// reset, `VmHWM`) are monotone and plateau at whatever ran first. Only
/// meaningful while a single thread allocates; a no-op without the
/// feature.
pub fn reset_peak() {
    imp::reset_peak()
}

#[cfg(feature = "alloc-stats")]
mod imp {
    use super::AllocSnapshot;
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

    static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
    static ALLOCATED: AtomicU64 = AtomicU64::new(0);
    static LIVE: AtomicU64 = AtomicU64::new(0);
    static PEAK: AtomicU64 = AtomicU64::new(0);

    fn on_alloc(bytes: usize) {
        ALLOCATIONS.fetch_add(1, Relaxed);
        ALLOCATED.fetch_add(bytes as u64, Relaxed);
        let live = LIVE.fetch_add(bytes as u64, Relaxed) + bytes as u64;
        PEAK.fetch_max(live, Relaxed);
    }

    fn on_free(bytes: usize) {
        LIVE.fetch_sub(bytes as u64, Relaxed);
    }

    /// The system allocator plus relaxed atomic counters. `#[global_allocator]`
    /// makes every allocation in the process flow through it.
    pub struct CountingAlloc;

    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            let p = System.alloc(layout);
            if !p.is_null() {
                on_alloc(layout.size());
            }
            p
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            let p = System.alloc_zeroed(layout);
            if !p.is_null() {
                on_alloc(layout.size());
            }
            p
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout);
            on_free(layout.size());
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            let p = System.realloc(ptr, layout, new_size);
            if !p.is_null() {
                on_free(layout.size());
                on_alloc(new_size);
            }
            p
        }
    }

    #[global_allocator]
    static GLOBAL: CountingAlloc = CountingAlloc;

    pub fn snapshot() -> Option<AllocSnapshot> {
        Some(AllocSnapshot {
            allocations: ALLOCATIONS.load(Relaxed),
            allocated_bytes: ALLOCATED.load(Relaxed),
            live_bytes: LIVE.load(Relaxed),
            peak_bytes: PEAK.load(Relaxed),
        })
    }

    pub fn reset_peak() {
        PEAK.store(LIVE.load(Relaxed), Relaxed);
    }

    #[cfg(test)]
    mod tests {
        #[test]
        fn counters_move_and_peak_is_monotone() {
            let before = super::snapshot().unwrap();
            let v: Vec<u8> = Vec::with_capacity(1 << 20);
            let mid = super::snapshot().unwrap();
            drop(v);
            let after = super::snapshot().unwrap();
            assert!(mid.allocations > before.allocations);
            assert!(mid.allocated_bytes >= before.allocated_bytes + (1 << 20));
            assert!(after.peak_bytes >= mid.peak_bytes.max(before.peak_bytes));
            assert!(after.live_bytes < mid.live_bytes);
        }
    }
}

#[cfg(not(feature = "alloc-stats"))]
mod imp {
    pub fn snapshot() -> Option<super::AllocSnapshot> {
        None
    }

    pub fn reset_peak() {}
}

//! A deterministic spatial bucket grid for integer cell coordinates.
//!
//! [`BucketGrid`] maps 3-D cell indices to sorted buckets of item ids. It
//! backs the sparse radio medium's neighbor searches: items (stations) are
//! hashed by cell, and a range query visits the `(2r+1)³` block of cells
//! around a center in a deterministic order, clipped to the per-axis
//! bounds of every cell ever occupied — a planar floor, one cell deep,
//! probes 9 cells per one-ring query instead of 27.
//!
//! Two properties matter more than raw speed:
//!
//! * **Stable iteration order.** The hash map is never iterated; queries
//!   walk an explicit `dx, dy, dz` loop nest and each bucket is kept in
//!   ascending id order, so the visit sequence is a pure function of the
//!   grid contents — no dependence on hash iteration order, insertion
//!   history, or capacity. Determinism of the simulator survives.
//! * **Sparse memory.** Only occupied cells exist; an office floor with
//!   stations clustered in rooms costs O(stations), not O(volume).
//!
//! The grid knows nothing about feet, cube centers, or radio ranges; the
//! phy crate owns the mapping from positions to cell indices.

use crate::hash::FastHashMap;

/// Sorted buckets of item ids keyed by 3-D integer cell coordinates.
pub struct BucketGrid {
    cells: FastHashMap<[i64; 3], Vec<usize>>,
    len: usize,
    /// Per-axis lowest and highest coordinate of every cell ever occupied.
    /// `remove` never shrinks them: a stale bound only costs a few empty
    /// probes, while a bound that shrank past an occupied cell would hide
    /// its items.
    lo: [i64; 3],
    hi: [i64; 3],
}

impl Default for BucketGrid {
    fn default() -> Self {
        BucketGrid {
            cells: FastHashMap::default(),
            len: 0,
            lo: [i64::MAX; 3],
            hi: [i64::MIN; 3],
        }
    }
}

impl BucketGrid {
    /// An empty grid.
    pub fn new() -> Self {
        BucketGrid::default()
    }

    /// Number of items stored across all cells.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` iff the grid holds no items.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of occupied cells.
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Insert `item` into `cell`, keeping the bucket ascending.
    ///
    /// # Panics
    /// Panics if `item` is already present in that cell (an item must be
    /// removed from its old cell before being re-inserted).
    pub fn insert(&mut self, cell: [i64; 3], item: usize) {
        let bucket = self.cells.entry(cell).or_default();
        match bucket.binary_search(&item) {
            Ok(_) => panic!("item {item} already present in cell {cell:?}"),
            Err(at) => bucket.insert(at, item),
        }
        self.len += 1;
        for (axis, &c) in cell.iter().enumerate() {
            self.lo[axis] = self.lo[axis].min(c);
            self.hi[axis] = self.hi[axis].max(c);
        }
    }

    /// Remove `item` from `cell`. Empty buckets are dropped so memory
    /// tracks the set of occupied cells.
    ///
    /// # Panics
    /// Panics if `item` is not in that cell (the caller's position
    /// bookkeeping has drifted from the grid).
    pub fn remove(&mut self, cell: [i64; 3], item: usize) {
        let bucket = self
            .cells
            .get_mut(&cell)
            .unwrap_or_else(|| panic!("no bucket at cell {cell:?}"));
        match bucket.binary_search(&item) {
            Ok(at) => {
                bucket.remove(at);
            }
            Err(_) => panic!("item {item} not present in cell {cell:?}"),
        }
        if bucket.is_empty() {
            self.cells.remove(&cell);
        }
        self.len -= 1;
    }

    /// The ascending bucket at `cell` (empty slice if unoccupied).
    pub fn bucket(&self, cell: [i64; 3]) -> &[usize] {
        self.cells.get(&cell).map_or(&[], |b| b.as_slice())
    }

    /// Visit every item within `rings` cells of `center` (Chebyshev
    /// distance on cell indices), in deterministic order: cells in
    /// ascending `(dx, dy, dz)` lexicographic order, items within each
    /// bucket in ascending id order. Each axis is clipped to the bounds of
    /// the cells ever occupied, which skips only cells that cannot hold an
    /// item and keeps the order of the rest.
    pub fn for_each_in_rings<F: FnMut(usize)>(&self, center: [i64; 3], rings: i64, mut f: F) {
        let lo = |axis: usize| center[axis].saturating_sub(rings).max(self.lo[axis]);
        let hi = |axis: usize| center[axis].saturating_add(rings).min(self.hi[axis]);
        for x in lo(0)..=hi(0) {
            for y in lo(1)..=hi(1) {
                for z in lo(2)..=hi(2) {
                    if let Some(bucket) = self.cells.get(&[x, y, z]) {
                        for &item in bucket {
                            f(item);
                        }
                    }
                }
            }
        }
    }

    /// Heap bytes held by the grid (map table plus bucket storage), for the
    /// medium's memory accounting.
    pub fn memory_footprint(&self) -> usize {
        use std::mem::size_of;
        // Hash map entries store key, value and control bytes; buckets own
        // their spare capacity too.
        let entry = size_of::<[i64; 3]>() + size_of::<Vec<usize>>() + 1;
        let table = self.cells.capacity() * entry;
        let buckets: usize = self
            .cells
            .values()
            .map(|b| b.capacity() * size_of::<usize>())
            .sum();
        table + buckets
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_roundtrip() {
        let mut g = BucketGrid::new();
        g.insert([0, 0, 0], 3);
        g.insert([0, 0, 0], 1);
        g.insert([1, 0, 0], 2);
        assert_eq!(g.len(), 3);
        assert_eq!(g.bucket([0, 0, 0]), &[1, 3]);
        g.remove([0, 0, 0], 3);
        assert_eq!(g.bucket([0, 0, 0]), &[1]);
        g.remove([0, 0, 0], 1);
        assert_eq!(g.bucket([0, 0, 0]), &[] as &[usize]);
        assert_eq!(g.cell_count(), 1, "empty buckets are dropped");
        assert_eq!(g.len(), 1);
    }

    #[test]
    #[should_panic(expected = "already present")]
    fn double_insert_panics() {
        let mut g = BucketGrid::new();
        g.insert([0, 0, 0], 7);
        g.insert([0, 0, 0], 7);
    }

    #[test]
    #[should_panic(expected = "not present")]
    fn removing_missing_item_panics() {
        let mut g = BucketGrid::new();
        g.insert([2, 2, 2], 1);
        g.remove([2, 2, 2], 9);
    }

    #[test]
    fn ring_visit_order_is_deterministic_and_complete() {
        let mut g = BucketGrid::new();
        // Scatter items over a 3x3x1 block plus one far outlier.
        g.insert([-1, 0, 0], 10);
        g.insert([0, 0, 0], 5);
        g.insert([0, 0, 0], 2);
        g.insert([1, 1, 0], 7);
        g.insert([9, 9, 9], 99);
        let mut seen = Vec::new();
        g.for_each_in_rings([0, 0, 0], 1, |i| seen.push(i));
        // (-1,0,0) before (0,0,0) before (1,1,0); bucket [2,5] ascending.
        assert_eq!(seen, vec![10, 2, 5, 7]);
        // Identical on a second pass: order is a pure function of contents.
        let mut again = Vec::new();
        g.for_each_in_rings([0, 0, 0], 1, |i| again.push(i));
        assert_eq!(seen, again);
    }

    /// The unclipped `(2r+1)³` loop nest, the oracle for the clipped one.
    fn unclipped(g: &BucketGrid, center: [i64; 3], rings: i64) -> Vec<usize> {
        let mut seen = Vec::new();
        for dx in -rings..=rings {
            for dy in -rings..=rings {
                for dz in -rings..=rings {
                    let cell = [center[0] + dx, center[1] + dy, center[2] + dz];
                    seen.extend_from_slice(g.bucket(cell));
                }
            }
        }
        seen
    }

    #[test]
    fn clipped_rings_match_the_unclipped_loop() {
        let mut rng = crate::SimRng::new(24);
        let mut draw = |lo: i64, hi: i64| lo + rng.uniform_inclusive(0, (hi - lo) as u64) as i64;
        for _ in 0..200 {
            let mut g = BucketGrid::new();
            let mut placed: Vec<([i64; 3], usize)> = Vec::new();
            // Per-axis spread; a zero z spread is a planar floor.
            let spread = [draw(0, 5), draw(0, 5), draw(0, 2)];
            for item in 0..draw(1, 40) as usize {
                if !placed.is_empty() && draw(0, 2) == 0 {
                    let (cell, old) = placed.swap_remove(draw(0, placed.len() as i64 - 1) as usize);
                    g.remove(cell, old);
                } else {
                    let cell = spread.map(|s| draw(-s, s));
                    g.insert(cell, item);
                    placed.push((cell, item));
                }
                for _ in 0..4 {
                    // Centres up to two cells outside the occupied block.
                    let center = spread.map(|s| draw(-s - 2, s + 2));
                    let rings = draw(0, 3);
                    let mut seen = Vec::new();
                    g.for_each_in_rings(center, rings, |i| seen.push(i));
                    assert_eq!(seen, unclipped(&g, center, rings), "{center:?} r={rings}");
                }
            }
        }
    }

    #[test]
    fn rings_zero_visits_only_the_center_cell() {
        let mut g = BucketGrid::new();
        g.insert([0, 0, 0], 1);
        g.insert([1, 0, 0], 2);
        let mut seen = Vec::new();
        g.for_each_in_rings([0, 0, 0], 0, |i| seen.push(i));
        assert_eq!(seen, vec![1]);
    }

    #[test]
    fn negative_cells_are_distinct() {
        let mut g = BucketGrid::new();
        g.insert([-1, -1, -1], 1);
        g.insert([1, 1, 1], 2);
        assert_eq!(g.bucket([-1, -1, -1]), &[1]);
        assert_eq!(g.bucket([1, 1, 1]), &[2]);
        assert_eq!(g.bucket([0, 0, 0]), &[] as &[usize]);
    }

    #[test]
    fn memory_footprint_tracks_contents() {
        let mut g = BucketGrid::new();
        let empty = g.memory_footprint();
        for i in 0..64 {
            g.insert([i, 0, 0], i as usize);
        }
        assert!(g.memory_footprint() > empty);
    }
}

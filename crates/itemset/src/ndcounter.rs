//! The n-dimensional array support counter of Section 5.2.
//!
//! For a super-candidate over quantitative attributes with small code
//! domains, the paper counts supports in an n-dimensional array: "the
//! number of array cells in the j-th dimension equals the number of
//! partitions for the attribute corresponding to the j-th dimension. ...
//! The amount of work done per record is only O(number-of-dimensions). At
//! the end of the pass over the database, we iterate over all the cells
//! covered by each of the rectangles and sum up the support counts."
//!
//! This implementation offers both the paper's cell-iteration sum and an
//! inclusion–exclusion prefix-sum variant that answers each rectangle in
//! O(2^n) regardless of its size; the two are verified equal in tests and
//! compared in the `ablation` bench.
//!
//! The prefix-sum pass and the rectangle sum are free functions over a
//! row-major cell slice and its dimensions ([`prefix_sums`],
//! [`rect_sum`]), so every dense histogram of the workspace — this
//! counter, pass 2's pair histograms and the compressed cells of later
//! passes — shares one implementation.

/// Turn row-major raw `cells` over `dims` (last dimension contiguous)
/// into inclusive prefix sums in place, in O(dims × cells): afterwards
/// cell `p` holds the sum of every raw cell `q <= p` coordinate-wise.
pub fn prefix_sums(cells: &mut [u64], dims: &[u32]) {
    debug_assert_eq!(
        cells.len(),
        dims.iter().map(|&d| d as usize).product::<usize>()
    );
    let mut stride = cells.len();
    for &dim in dims {
        let dim = dim as usize;
        if dim == 0 {
            return;
        }
        // `block` cells span one full cycle of this dimension; within a
        // block, add each `stride`-long row to the one after it.
        let block = stride;
        stride /= dim;
        for base in (0..cells.len()).step_by(block) {
            for row in base + stride..base + block {
                cells[row] += cells[row - stride];
            }
        }
    }
}

/// Inclusion–exclusion sum of the raw cells in the inclusive rectangle
/// `[lo, hi]`, read from `cells` after [`prefix_sums`] over `dims`. Each of
/// the 2^dims corners picks `hi[j]` or `lo[j] - 1` per dimension; corners
/// stepping below zero contribute nothing. The signed terms are summed
/// with wrapping arithmetic, exact because the total is a count.
#[inline]
pub fn rect_sum(cells: &[u64], dims: &[u32], lo: &[u32], hi: &[u32]) -> u64 {
    debug_assert!((0..dims.len()).all(|j| lo[j] <= hi[j] && hi[j] < dims[j]));
    let mut total = 0u64;
    'corner: for mask in 0u32..(1 << dims.len()) {
        let mut off = 0usize;
        let mut negative = false;
        for (j, &dim) in dims.iter().enumerate() {
            let coord = if mask & (1 << j) == 0 {
                hi[j]
            } else if lo[j] == 0 {
                continue 'corner;
            } else {
                negative = !negative;
                lo[j] - 1
            };
            off = off * dim as usize + coord as usize;
        }
        total = if negative {
            total.wrapping_sub(cells[off])
        } else {
            total.wrapping_add(cells[off])
        };
    }
    total
}

/// Dense counter over the cross product of per-dimension code domains.
#[derive(Debug, Clone)]
pub struct MultiDimCounter {
    dims: Vec<u32>,
    strides: Vec<usize>,
    counts: Vec<u64>,
    prefixed: bool,
}

impl MultiDimCounter {
    /// Create a zeroed counter; `dims[j]` is the code domain size of
    /// dimension `j`. Panics on empty dims, zero-sized dimensions, or a
    /// cell count above `max_cells` (guards against accidental memory
    /// blow-up — the caller's heuristic should have chosen the R*-tree).
    pub fn new(dims: &[u32], max_cells: usize) -> Self {
        assert!(!dims.is_empty(), "at least one dimension required");
        assert!(dims.iter().all(|&d| d > 0), "zero-sized dimension");
        let mut strides = vec![0usize; dims.len()];
        let mut total: usize = 1;
        // Row-major: last dimension contiguous.
        for j in (0..dims.len()).rev() {
            strides[j] = total;
            total = total
                .checked_mul(dims[j] as usize)
                .expect("cell count overflow");
        }
        assert!(
            total <= max_cells,
            "counter would need {total} cells (> {max_cells})"
        );
        MultiDimCounter {
            dims: dims.to_vec(),
            strides,
            counts: vec![0; total],
            prefixed: false,
        }
    }

    /// Number of cells.
    pub fn num_cells(&self) -> usize {
        self.counts.len()
    }

    /// Heap footprint of the count array in bytes.
    pub fn approx_bytes(&self) -> usize {
        self.counts.len() * std::mem::size_of::<u64>()
    }

    /// Estimated bytes for a counter with the given dimensions, without
    /// allocating it — the input to the paper's structure-choice heuristic.
    pub fn estimate_bytes(dims: &[u32]) -> Option<usize> {
        let mut total: usize = std::mem::size_of::<u64>();
        for &d in dims {
            total = total.checked_mul(d as usize)?;
        }
        Some(total)
    }

    #[inline]
    fn offset(&self, point: &[u32]) -> usize {
        debug_assert_eq!(point.len(), self.dims.len());
        let mut off = 0usize;
        for ((&p, &dim), &stride) in point.iter().zip(&self.dims).zip(&self.strides) {
            debug_assert!(p < dim, "coordinate out of range");
            off += p as usize * stride;
        }
        off
    }

    /// Add one to the cell at `point`. O(dims) per record, as the paper
    /// promises. Panics after [`MultiDimCounter::build_prefix_sums`].
    #[inline]
    pub fn increment(&mut self, point: &[u32]) {
        assert!(
            !self.prefixed,
            "cannot increment after building prefix sums"
        );
        let off = self.offset(point);
        self.counts[off] += 1;
    }

    /// Raw count at `point` (pre-prefix) or prefix value (post-prefix).
    pub fn cell(&self, point: &[u32]) -> u64 {
        self.counts[self.offset(point)]
    }

    /// The paper's end-of-pass summation: iterate every cell covered by
    /// `[lo, hi]` (inclusive) and add its count. Only valid before
    /// [`MultiDimCounter::build_prefix_sums`].
    pub fn rect_sum_by_iteration(&self, lo: &[u32], hi: &[u32]) -> u64 {
        assert!(!self.prefixed, "cells were replaced by prefix sums");
        debug_assert_eq!(lo.len(), self.dims.len());
        debug_assert_eq!(hi.len(), self.dims.len());
        debug_assert!((0..lo.len()).all(|j| lo[j] <= hi[j] && hi[j] < self.dims[j]));
        let mut point: Vec<u32> = lo.to_vec();
        let mut total = 0u64;
        loop {
            total += self.counts[self.offset(&point)];
            // Odometer increment within [lo, hi].
            let mut j = self.dims.len();
            loop {
                if j == 0 {
                    return total;
                }
                j -= 1;
                if point[j] < hi[j] {
                    point[j] += 1;
                    break;
                }
                point[j] = lo[j];
            }
        }
    }

    /// Add another counter's cells into this one (the parallel-shard merge:
    /// each worker counts its row range into a private counter, and the
    /// shards are summed cell-wise before the rectangle readout).
    ///
    /// Panics if the shapes differ or either counter already holds prefix
    /// sums — merging is only meaningful over raw cell counts.
    pub fn merge_from(&mut self, other: &MultiDimCounter) {
        assert_eq!(
            self.dims, other.dims,
            "cannot merge counters of different shape"
        );
        assert!(
            !self.prefixed && !other.prefixed,
            "cannot merge after building prefix sums"
        );
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
    }

    /// Convert cells to inclusive prefix sums in place (O(dims × cells)).
    /// After this, [`MultiDimCounter::rect_sum`] answers any rectangle in
    /// O(2^dims).
    pub fn build_prefix_sums(&mut self) {
        assert!(!self.prefixed, "prefix sums already built");
        prefix_sums(&mut self.counts, &self.dims);
        self.prefixed = true;
    }

    /// Inclusion–exclusion rectangle sum over `[lo, hi]` (inclusive).
    /// Requires [`MultiDimCounter::build_prefix_sums`] to have run.
    pub fn rect_sum(&self, lo: &[u32], hi: &[u32]) -> u64 {
        assert!(self.prefixed, "call build_prefix_sums first");
        rect_sum(&self.counts, &self.dims, lo, hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled_2d() -> MultiDimCounter {
        // 3x4 grid; cell (i,j) incremented i + 2j times.
        let mut c = MultiDimCounter::new(&[3, 4], 1 << 20);
        for i in 0..3u32 {
            for j in 0..4u32 {
                for _ in 0..(i + 2 * j) {
                    c.increment(&[i, j]);
                }
            }
        }
        c
    }

    #[test]
    fn increment_and_cell() {
        let mut c = MultiDimCounter::new(&[2, 2], 100);
        c.increment(&[0, 1]);
        c.increment(&[0, 1]);
        c.increment(&[1, 0]);
        assert_eq!(c.cell(&[0, 1]), 2);
        assert_eq!(c.cell(&[1, 0]), 1);
        assert_eq!(c.cell(&[0, 0]), 0);
        assert_eq!(c.num_cells(), 4);
    }

    #[test]
    fn iteration_sum_matches_manual() {
        let c = filled_2d();
        // Sum over i in 1..=2, j in 1..=3: Σ (i + 2j).
        let mut manual = 0u64;
        for i in 1..=2u64 {
            for j in 1..=3u64 {
                manual += i + 2 * j;
            }
        }
        assert_eq!(c.rect_sum_by_iteration(&[1, 1], &[2, 3]), manual);
        // Whole grid.
        let all: u64 = (0..3u64)
            .flat_map(|i| (0..4u64).map(move |j| i + 2 * j))
            .sum();
        assert_eq!(c.rect_sum_by_iteration(&[0, 0], &[2, 3]), all);
    }

    #[test]
    fn prefix_sums_agree_with_iteration_everywhere() {
        let plain = filled_2d();
        let mut pre = plain.clone();
        pre.build_prefix_sums();
        for lo0 in 0..3u32 {
            for hi0 in lo0..3 {
                for lo1 in 0..4u32 {
                    for hi1 in lo1..4 {
                        assert_eq!(
                            plain.rect_sum_by_iteration(&[lo0, lo1], &[hi0, hi1]),
                            pre.rect_sum(&[lo0, lo1], &[hi0, hi1]),
                            "rect [{lo0},{lo1}]..[{hi0},{hi1}]"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn three_dims_prefix_agree() {
        let mut c = MultiDimCounter::new(&[4, 3, 5], 1 << 20);
        // Deterministic scatter.
        let mut state = 1234u64;
        for _ in 0..2000 {
            state = state.wrapping_mul(48271).wrapping_add(11);
            let p = [
                ((state >> 3) % 4) as u32,
                ((state >> 13) % 3) as u32,
                ((state >> 23) % 5) as u32,
            ];
            c.increment(&p);
        }
        let mut pre = c.clone();
        pre.build_prefix_sums();
        for (lo, hi) in [
            ([0, 0, 0], [3, 2, 4]),
            ([1, 1, 1], [2, 2, 3]),
            ([3, 0, 4], [3, 2, 4]),
            ([0, 2, 0], [0, 2, 0]),
        ] {
            assert_eq!(c.rect_sum_by_iteration(&lo, &hi), pre.rect_sum(&lo, &hi));
        }
        // Full-grid prefix equals total increments.
        assert_eq!(pre.rect_sum(&[0, 0, 0], &[3, 2, 4]), 2000);
    }

    #[test]
    fn one_dim_counter() {
        let mut c = MultiDimCounter::new(&[10], 100);
        for v in [0u32, 5, 5, 9] {
            c.increment(&[v]);
        }
        assert_eq!(c.rect_sum_by_iteration(&[0], &[4]), 1);
        c.build_prefix_sums();
        assert_eq!(c.rect_sum(&[5], &[5]), 2);
        assert_eq!(c.rect_sum(&[0], &[9]), 4);
        assert_eq!(c.rect_sum(&[6], &[9]), 1);
    }

    #[test]
    fn merge_is_cellwise_sum() {
        let mut a = filled_2d();
        let b = filled_2d();
        a.merge_from(&b);
        for i in 0..3u32 {
            for j in 0..4u32 {
                assert_eq!(a.cell(&[i, j]), 2 * (i + 2 * j) as u64);
            }
        }
        // Prefix sums over the merged counter still answer rectangles.
        a.build_prefix_sums();
        let whole: u64 = (0..3u64)
            .flat_map(|i| (0..4u64).map(move |j| i + 2 * j))
            .sum();
        assert_eq!(a.rect_sum(&[0, 0], &[2, 3]), 2 * whole);
    }

    #[test]
    #[should_panic(expected = "different shape")]
    fn merge_shape_mismatch_rejected() {
        let mut a = MultiDimCounter::new(&[3, 4], 100);
        let b = MultiDimCounter::new(&[4, 3], 100);
        a.merge_from(&b);
    }

    #[test]
    #[should_panic(expected = "prefix sums")]
    fn merge_after_prefix_rejected() {
        let mut a = MultiDimCounter::new(&[2, 2], 100);
        let mut b = MultiDimCounter::new(&[2, 2], 100);
        b.build_prefix_sums();
        a.merge_from(&b);
    }

    #[test]
    #[should_panic(expected = "cells")]
    fn oversized_counter_rejected() {
        let _ = MultiDimCounter::new(&[1000, 1000, 1000], 1 << 20);
    }

    #[test]
    #[should_panic(expected = "prefix")]
    fn increment_after_prefix_panics() {
        let mut c = MultiDimCounter::new(&[2], 10);
        c.build_prefix_sums();
        c.increment(&[0]);
    }

    #[test]
    fn estimate_matches_reality() {
        let est = MultiDimCounter::estimate_bytes(&[7, 11]).unwrap();
        let c = MultiDimCounter::new(&[7, 11], 1 << 20);
        assert_eq!(est, c.approx_bytes());
        assert!(MultiDimCounter::estimate_bytes(&[u32::MAX, u32::MAX, u32::MAX]).is_none());
    }
}

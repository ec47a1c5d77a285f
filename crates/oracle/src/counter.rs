//! Per-super-candidate range counting: multi-dimensional array vs. R*-tree.
//!
//! Section 5.2: "Using a multi-dimensional array is cheaper than using an
//! R*-tree, in terms of CPU time. However, as the number of attributes
//! (dimensions) in a super-candidate increases, the multi-dimensional array
//! approach will need a huge amount of memory. Thus there is a tradeoff
//! ... We use a heuristic based on the ratio of the expected memory use of
//! the R*-tree to that of the multi-dimensional array to decide which data
//! structure to use."

use crate::ndcounter::MultiDimCounter;
use qar_rtree::{RStarTree, Rect};
use std::sync::Arc;

/// Which structure backs a [`RectCounter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CounterKind {
    /// Dense n-dimensional count array + prefix-sum rectangle readout.
    Array,
    /// R*-tree over the candidate rectangles; each record point-queries it.
    RTree,
}

/// Estimated heap bytes of an R*-tree over `num_rects` rectangles
/// (items + ~fanout-compensated node overhead).
fn rtree_estimate_bytes(num_rects: usize) -> usize {
    // One item slot (Rect ≈ 136 B + value) plus amortized node share.
    num_rects * 200
}

enum Backend {
    Array {
        counter: MultiDimCounter,
        rects: Arc<[(Vec<u32>, Vec<u32>)]>,
    },
    RTree {
        tree: RStarTree<usize>,
        counts: Vec<u64>,
        point_buf: Vec<f64>,
    },
}

/// Counts, for a fixed set of inclusive integer rectangles, how many of the
/// points fed to [`RectCounter::count_record`] fall inside each.
///
/// ```
/// use qar_oracle::{CounterKind, RectCounter};
///
/// // Two 1-D ranges over a domain of 10 codes: [0..4] and [3..9].
/// let rects = vec![(vec![0], vec![4]), (vec![3], vec![9])];
/// let mut counter = RectCounter::build(&[10], rects.clone());
/// for code in [0u32, 3, 4, 8] {
///     counter.count_record(&[code]);
/// }
/// assert_eq!(counter.finish(), vec![3, 3]);
/// ```
pub struct RectCounter {
    backend: Backend,
    kind: CounterKind,
}

impl RectCounter {
    /// Maximum array cells the auto-chooser will consider (beyond this the
    /// R*-tree is forced regardless of the ratio heuristic).
    pub const MAX_ARRAY_CELLS: usize = 1 << 22;

    /// Build with the paper's memory-ratio heuristic choosing the backend.
    ///
    /// * `dims[j]` — code domain size of quantitative dimension `j`;
    /// * `rects` — inclusive `(lo, hi)` code rectangles, one per candidate.
    pub fn build(dims: &[u32], rects: Vec<(Vec<u32>, Vec<u32>)>) -> Self {
        let kind = Self::choose_kind(dims, rects.len());
        Self::build_with(kind, dims, rects)
    }

    /// The paper's memory-ratio heuristic, exposed so a caller that builds
    /// one counter per data shard can pin a single backend choice for all
    /// of them (per-shard decisions would agree anyway — the inputs are
    /// record-independent — but deciding once keeps that invariant
    /// explicit and the statistics exact).
    pub fn choose_kind(dims: &[u32], num_rects: usize) -> CounterKind {
        match MultiDimCounter::estimate_bytes(dims) {
            Some(bytes)
                if bytes <= rtree_estimate_bytes(num_rects)
                    && bytes / std::mem::size_of::<u64>() <= Self::MAX_ARRAY_CELLS =>
            {
                CounterKind::Array
            }
            _ => CounterKind::RTree,
        }
    }

    /// Estimated heap bytes a counter of `kind` over `dims` and
    /// `num_rects` rectangles will use — the number the choice heuristic
    /// compares, exposed so the miner can report peak counting memory in
    /// its trace events. Returns `usize::MAX` when an array over `dims`
    /// would overflow the address space.
    pub fn estimated_bytes(kind: CounterKind, dims: &[u32], num_rects: usize) -> usize {
        match kind {
            CounterKind::Array => MultiDimCounter::estimate_bytes(dims).unwrap_or(usize::MAX),
            CounterKind::RTree => rtree_estimate_bytes(num_rects),
        }
    }

    /// Build with an explicit backend (used by tests and the ablation
    /// bench).
    pub fn build_with(kind: CounterKind, dims: &[u32], rects: Vec<(Vec<u32>, Vec<u32>)>) -> Self {
        Self::build_shared(kind, dims, rects.into())
    }

    /// [`RectCounter::build_with`] over a *shared* rectangle set: the
    /// parallel scan builds one counter per data shard from a single
    /// [`Arc`]'d plan, so construction is O(1) in the rectangle count
    /// instead of a deep clone per shard.
    pub fn build_shared(
        kind: CounterKind,
        dims: &[u32],
        rects: Arc<[(Vec<u32>, Vec<u32>)]>,
    ) -> Self {
        for (lo, hi) in rects.iter() {
            assert_eq!(lo.len(), dims.len(), "rect dimensionality");
            assert_eq!(hi.len(), dims.len(), "rect dimensionality");
            for j in 0..dims.len() {
                assert!(lo[j] <= hi[j] && hi[j] < dims[j], "rect out of domain");
            }
        }
        let backend = match kind {
            CounterKind::Array => Backend::Array {
                counter: MultiDimCounter::new(dims, usize::MAX),
                rects,
            },
            CounterKind::RTree => {
                let items: Vec<(Rect, usize)> = rects
                    .iter()
                    .enumerate()
                    .map(|(i, (lo, hi))| {
                        let lo_f: Vec<f64> = lo.iter().map(|&c| c as f64).collect();
                        let hi_f: Vec<f64> = hi.iter().map(|&c| c as f64).collect();
                        (Rect::new(&lo_f, &hi_f), i)
                    })
                    .collect();
                Backend::RTree {
                    counts: vec![0; items.len()],
                    tree: RStarTree::bulk_load(items),
                    point_buf: vec![0.0; dims.len()],
                }
            }
        };
        RectCounter { backend, kind }
    }

    /// Which backend was chosen.
    pub fn kind(&self) -> CounterKind {
        self.kind
    }

    /// Feed one record's quantitative codes (same dimension order as the
    /// rectangles).
    #[inline]
    pub fn count_record(&mut self, point: &[u32]) {
        match &mut self.backend {
            Backend::Array { counter, .. } => counter.increment(point),
            Backend::RTree {
                tree,
                counts,
                point_buf,
            } => {
                for (slot, &c) in point_buf.iter_mut().zip(point) {
                    *slot = c as f64;
                }
                // Collect matches first: query borrows the tree immutably.
                let mut hits: Vec<usize> = Vec::new();
                tree.query_point(point_buf, |&idx| hits.push(idx));
                for idx in hits {
                    counts[idx] += 1;
                }
            }
        }
    }

    /// Final per-rectangle counts, in the order the rectangles were given.
    pub fn finish(self) -> Vec<u64> {
        match self.backend {
            Backend::Array { mut counter, rects } => {
                counter.build_prefix_sums();
                rects
                    .iter()
                    .map(|(lo, hi)| counter.rect_sum(lo, hi))
                    .collect()
            }
            Backend::RTree { counts, .. } => counts,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_rects() -> Vec<(Vec<u32>, Vec<u32>)> {
        vec![
            (vec![0, 0], vec![4, 9]),
            (vec![2, 3], vec![7, 5]),
            (vec![9, 9], vec![9, 9]),
        ]
    }

    fn feed(counter: &mut RectCounter) {
        let points = [[0u32, 0], [4, 9], [3, 4], [7, 5], [9, 9], [9, 8], [2, 3]];
        for p in points {
            counter.count_record(&p);
        }
    }

    #[test]
    fn array_and_rtree_agree() {
        let mut a = RectCounter::build_with(CounterKind::Array, &[10, 10], demo_rects());
        let mut r = RectCounter::build_with(CounterKind::RTree, &[10, 10], demo_rects());
        feed(&mut a);
        feed(&mut r);
        let ca = a.finish();
        let cr = r.finish();
        assert_eq!(ca, cr);
        // Manual: rect0 contains (0,0),(4,9),(3,4),(2,3); rect1 contains
        // (3,4),(7,5),(2,3); rect2 contains (9,9).
        assert_eq!(ca, vec![4, 3, 1]);
    }

    #[test]
    fn heuristic_prefers_array_for_small_domains() {
        // 10x10 = 100 cells (800 B) vs 3 rects * 200 B: array loses 800>600?
        // With 5 rects the tree estimate is 1000 B > 800 B -> array.
        let mut rects = demo_rects();
        rects.push((vec![1, 1], vec![2, 2]));
        rects.push((vec![0, 5], vec![3, 8]));
        let c = RectCounter::build(&[10, 10], rects);
        assert_eq!(c.kind(), CounterKind::Array);
    }

    #[test]
    fn heuristic_prefers_rtree_for_huge_domains() {
        let rects = vec![(vec![0, 0, 0], vec![1, 1, 1])];
        let c = RectCounter::build(&[1000, 1000, 1000], rects);
        assert_eq!(c.kind(), CounterKind::RTree);
    }

    #[test]
    fn empty_rect_set() {
        let mut c = RectCounter::build(&[5], vec![]);
        c.count_record(&[3]);
        assert_eq!(c.finish(), Vec::<u64>::new());
    }

    #[test]
    fn overlapping_rects_each_counted() {
        let rects = vec![(vec![0], vec![9]), (vec![0], vec![9])];
        for kind in [CounterKind::Array, CounterKind::RTree] {
            let mut c = RectCounter::build_with(kind, &[10], rects.clone());
            c.count_record(&[5]);
            assert_eq!(c.finish(), vec![1, 1], "{kind:?}");
        }
    }

    #[test]
    fn estimated_bytes_matches_heuristic_inputs() {
        // 10x10 array: 100 cells of u64.
        assert_eq!(
            RectCounter::estimated_bytes(CounterKind::Array, &[10, 10], 3),
            800
        );
        assert_eq!(
            RectCounter::estimated_bytes(CounterKind::RTree, &[10, 10], 3),
            600
        );
        // A domain too large for the address space saturates.
        assert_eq!(
            RectCounter::estimated_bytes(CounterKind::Array, &[u32::MAX, u32::MAX, u32::MAX], 1),
            usize::MAX
        );
    }

    #[test]
    fn choose_kind_matches_build() {
        for (dims, n) in [(vec![10u32, 10], 5usize), (vec![1000, 1000, 1000], 1)] {
            let rects = vec![(vec![0; dims.len()], vec![0; dims.len()]); n];
            assert_eq!(
                RectCounter::choose_kind(&dims, n),
                RectCounter::build(&dims, rects).kind()
            );
        }
    }

    #[test]
    fn shared_rects_agree_with_owned_build() {
        let shared: Arc<[(Vec<u32>, Vec<u32>)]> = demo_rects().into();
        for kind in [CounterKind::Array, CounterKind::RTree] {
            let mut a = RectCounter::build_shared(kind, &[10, 10], Arc::clone(&shared));
            let mut b = RectCounter::build_with(kind, &[10, 10], demo_rects());
            feed(&mut a);
            feed(&mut b);
            assert_eq!(a.finish(), b.finish(), "{kind:?}");
        }
        // Both counters above dropped their clones; the original handle
        // still owns the one shared allocation.
        assert_eq!(Arc::strong_count(&shared), 1);
    }

    #[test]
    #[should_panic(expected = "out of domain")]
    fn rect_outside_domain_rejected() {
        let _ = RectCounter::build_with(CounterKind::Array, &[5], vec![(vec![0], vec![5])]);
    }
}

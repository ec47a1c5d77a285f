//! Rectangle sums over dense n-dimensional count arrays.
//!
//! Section 5.2 counts a super-candidate's supports in an n-dimensional
//! array with one cell per combination of codes, then sums the cells each
//! rectangle covers. These free functions over a row-major cell slice and
//! its dimensions turn the cells into inclusive prefix sums
//! ([`prefix_sums`]) and answer each rectangle in O(2^n) regardless of its
//! size ([`rect_sum`]). Pass 2's pair histograms and the compressed cells
//! of later passes use them; the oracle's array counter checks them
//! against the paper's cell-by-cell sum.

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

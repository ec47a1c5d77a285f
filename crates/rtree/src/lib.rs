//! # qar-rtree — an R*-tree (Beckmann, Kriegel, Schneider, Seeger 1990)
//!
//! Section 5.2 of the paper counts the support of the quantitative parts of
//! "super-candidates" by asking, for every database record, *which
//! n-dimensional rectangles contain this n-dimensional point*. "The classic
//! solution to this problem is to put the rectangles in a R*-tree
//! \[BKSS90\]" — so this crate implements one, from the original description:
//!
//! * **ChooseSubtree** — minimum overlap enlargement at the leaf level,
//!   minimum area enlargement above it;
//! * **OverflowTreatment / forced reinsert** — on the first overflow per
//!   level per insertion, the 30 % of entries farthest from the node centre
//!   are reinserted ("close reinsert") instead of splitting;
//! * **topological split** — axis chosen by minimum margin sum, split index
//!   by minimum overlap (ties: minimum area);
//! * **STR bulk loading** (Leutenegger et al.) for building a tree from a
//!   known rectangle set in one pass — what the fuzz oracle's Section 5.2
//!   reference (`qar_oracle::counter`) does for each super-candidate it
//!   counts on an R*-tree;
//! * point and window queries, deletion with subtree reinsertion, and a
//!   structural [`RStarTree::check_invariants`] used heavily by the
//!   property tests.
//!
//! Rectangles are low-dimensional (one dimension per quantitative attribute
//! of a super-candidate), so coordinates live inline in a fixed array of
//! [`MAX_DIMS`] and the whole [`Rect`] is `Copy`.

#![warn(missing_docs)]

pub mod naive;
pub mod rect;
mod tree;

pub use naive::NaiveRectIndex;
pub use rect::{Rect, MAX_DIMS};
pub use tree::{RStarTree, DEFAULT_MAX_ENTRIES};

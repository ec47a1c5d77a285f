//! # qar-itemset — itemset machinery shared by the miners
//!
//! An *item* in the quantitative setting is a triple `⟨attribute, lo, hi⟩`:
//! a categorical attribute with a single value (`lo == hi`) or a
//! quantitative attribute with an inclusive range over encoded codes
//! (Section 2 of the paper). This crate provides:
//!
//! * [`item`] — [`Item`] and [`Itemset`] with the paper's
//!   generalization/specialization relation,
//! * [`hash_tree`] — the hash-tree subset index of \[AS94\], reused here to
//!   match super-candidates' categorical parts against records
//!   (Section 5.2) and by the boolean Apriori baseline,
//! * [`ndcounter`] — inclusion–exclusion rectangle sums over dense
//!   n-dimensional count arrays.
//!
//! [`Item`]: item::Item
//! [`Itemset`]: item::Itemset

#![warn(missing_docs)]

pub mod hash_tree;
pub mod item;
pub mod ndcounter;

pub use hash_tree::{HashTree, VisitScratch};
pub use item::{CodeRangeError, Item, Itemset};

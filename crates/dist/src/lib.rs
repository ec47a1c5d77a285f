//! # qar-dist — count-distribution distributed mining
//!
//! Multi-process Apriori in the *count distribution* style: the
//! coordinator keeps the whole level-wise search (candidate generation,
//! frequency decisions, rule generation) and delegates only the counting
//! scans. Each worker owns a disjoint, contiguous partition of the
//! encoded rows; every pass it returns the **raw** `u64` tallies over its
//! partition — its range's value histograms at the load, pass 2 as 2-D
//! pair histograms, later passes as the counts of the coordinator's
//! candidates — and the coordinator merges them by element-wise
//! addition; pass 1 is summed from the merged value histograms with no
//! further request. Because the merged counts equal
//! a single serial scan's counts exactly — integer addition is the whole
//! merge — the distributed result is bit-identical to the serial miner:
//! same frequent itemsets, supports, rules, and (with normalized stats)
//! the same `.qarcat` bytes.
//!
//! The pieces:
//!
//! * [`worker`] — the worker side: a serve loop over the
//!   [`qar_store::dist`] wire protocol (ParseRange → Setup; then
//!   CountPairs… / CountCandidates… → Shutdown), parsing and
//!   encoding its own byte range of the input file and counting it
//!   through the same [`qar_core::InMemorySource`] the serial miner uses;
//! * [`coordinator`] — the coordinator side: [`Cluster`] spawns and
//!   connects workers (child processes of the `qar` binary, or
//!   in-process threads for tests), [`DistSource`] implements
//!   [`qar_core::CountSource`] over the worker pool, so
//!   `qar_core::mine_source` runs the complete pipeline on it like on any
//!   other source. [`DistSource::start_ranges`] has each worker parse and
//!   encode its own byte range of a CSV file, cut at record ends when the
//!   file holds a quote;
//! * partial failure — a worker that times out or drops its connection
//!   is declared lost (`worker_lost` trace event). The coordinator
//!   *recovers*: it parses the lost range of the file again and counts it
//!   itself, and the run still completes with the exact same answer.

#![warn(missing_docs)]

pub mod coordinator;
pub mod worker;

pub use coordinator::{Cluster, DistOptions, DistSource, RangeInput, RangeLoad, WorkerSpawn};
pub use worker::{run_worker, serve_connection, WorkerOptions};

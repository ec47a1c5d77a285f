//! The quantrules system benchmark.
//!
//! End-to-end numbers come from the real `qar` binary run as child
//! processes, untraced; the library path (`Miner`) is timed in process,
//! the way a library user runs it. A separate traced run gives the
//! per-layer ledger ([`ledger`]) from spans the benchmark records around
//! its own calls into each crate. See `BENCHMARK.md` beside this crate.

pub mod compare;
pub mod gen;
pub mod ledger;
pub mod proc;
pub mod report;
pub mod sink;
pub mod spans;
pub mod stats;
pub mod timed;
pub mod workloads;

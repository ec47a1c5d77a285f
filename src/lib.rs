//! # quantrules — facade crate
//!
//! Re-exports the whole workspace under one roof. See the README for a
//! guided tour; start with [`core`] for the miner itself.

#![warn(missing_docs)]

pub mod cli;

pub use qar_analytics as analytics;
pub use qar_apriori as apriori;
pub use qar_core as core;
pub use qar_datagen as datagen;
pub use qar_dist as dist;
pub use qar_itemset as itemset;
pub use qar_partition as partition;
pub use qar_ps91 as ps91;
pub use qar_store as store;
pub use qar_table as table;
pub use qar_trace as trace;

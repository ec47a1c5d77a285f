//! # qar-table — relational table substrate
//!
//! The paper ("Mining Quantitative Association Rules in Large Relational
//! Tables", Srikant & Agrawal, SIGMOD 1996) operates on relational tables
//! whose non-key attributes are either *categorical* (e.g. marital status)
//! or *quantitative* (e.g. age, income). This crate provides everything the
//! miner needs from the storage layer:
//!
//! * [`Schema`] / [`AttributeDef`] — typed attribute declarations,
//! * [`Value`] — a dynamically typed cell value,
//! * [`Table`] — column-oriented record storage with row views;
//!   categorical columns are dictionary-coded ([`dictionary`]),
//! * [`csv`] — a dependency-free, single-pass CSV reader/writer,
//! * [`encode`] — Step 2 of the paper's problem decomposition: mapping
//!   categorical values and quantitative values/intervals to consecutive
//!   integers so that "the algorithm only sees values (or ranges over
//!   values)",
//! * [`histogram`] — one sorted `(value, count)` histogram per column,
//!   the only input Steps 1–2 read.
//!
//! Everything is deterministic: encoder dictionaries and distinct-value
//! tables are sorted, so the same input table always encodes identically.

#![warn(missing_docs)]

pub mod chunk;
pub mod csv;
pub mod dictionary;
pub mod encode;
pub mod error;
pub mod histogram;
pub mod schema;
pub mod table;
pub mod taxonomy;
pub mod value;

pub use chunk::{ChunkStore, TableSummary};
pub use dictionary::{CatColumn, Dictionary};
pub use encode::{AttributeEncoder, EncodedTable, TableRanks};
pub use error::TableError;
pub use histogram::{CatHistogram, Histogram, QuantHistogram};
pub use schema::{AttributeDef, AttributeId, AttributeKind, Schema, SchemaBuilder};
pub use table::{Column, RowView, Table};
pub use taxonomy::Taxonomy;
pub use value::Value;

//! # qar-store — persistent rule catalog and query engine
//!
//! The miner finds quantitative association rules; this crate makes them
//! a *servable product*. Mine once, write a [`Catalog`] to a `.qarcat`
//! file, then answer queries against it forever without the original
//! table:
//!
//! * [`Catalog`] — schema + encoders + rules + interest verdicts +
//!   [`qar_core::MiningStats`], serialized to a versioned, checksummed,
//!   length-prefixed binary format ([`mod@format`]) that round-trips
//!   bit-exactly and fails loudly ([`StoreError`]) on any corruption.
//! * [`RuleIndex`] — posting lists plus sorted interval lists over the
//!   catalog, answering "which rules fire for this record" (point),
//!   "which rules mention age ∈ [30, 40]" (overlap), and top-k by
//!   support / confidence / interest.
//!
//! The `qar` CLI exposes this as `qar mine --store`, `qar query`, and
//! `qar store-check`; store operations report [`qar_trace::TraceEvent`]s
//! (`catalog_saved`, `catalog_loaded`, `index_built`) on the same trace
//! stream as the miner.

#![warn(missing_docs)]

pub mod analytics;
pub mod catalog;
pub mod dist;
pub mod error;
pub mod format;
pub mod index;
pub mod protocol;
pub mod serve;

pub use analytics::{analytics_from_encoded, analytics_from_mining};
pub use catalog::{section_inventory, Catalog, SectionInfo};
pub use error::StoreError;
pub use index::{naive_query_range, naive_query_record, AnalyticsUnavailable, RankBy, RuleIndex};
pub use protocol::{ProtocolError, Request, Response};
pub use serve::{Server, ServerConfig};

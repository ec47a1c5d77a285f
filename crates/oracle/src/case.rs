//! The cases the fuzzer draws, checks, shrinks, and persists.

use qar_core::{MinerConfig, PartitionStrategy};
use qar_table::Table;

/// One fuzz case: an input plus everything needed to re-run its check
/// deterministically. Serialized to/parsed from the repro fixture format
/// by [`crate::repro`].
#[derive(Debug, Clone)]
pub enum ReproCase {
    /// End-to-end differential case: one table, one configuration, five
    /// execution paths that must agree.
    Mining(MiningCase),
    /// Partitioner invariant case: one column, one strategy, one `k`.
    Partition(PartitionCase),
    /// Range-snapping invariant case for
    /// [`qar_partition::range_completeness::snap_to_intervals`].
    Snap(SnapCase),
    /// Interval-count invariant case for [`qar_partition::num_intervals`].
    Intervals(IntervalsCase),
    /// Bitmask-kernel case: boundary-skewed codes and degenerate (lo==hi)
    /// ranges, or a duplicate-heavy categorical table, mined with the
    /// blocked bitmask kernel, serial and pooled, cross-checked against
    /// a serial mine over [`crate::reference::ReferenceSource`].
    Kernel(MiningCase),
    /// Rule-analytics case: a mined ruleset's lift / conviction /
    /// leverage / chi² / p-value / J-measure cross-checked at 0 ulps
    /// against an independent contingency-table reference, plus BH
    /// monotonicity, Shapley determinism and efficiency, and a byte-exact
    /// catalog round trip of the `ANALYTICS` section.
    Analytics(MiningCase),
    /// Count-distribution case: the same table mined through the
    /// distributed coordinator over in-process worker threads (raw
    /// per-partition count vectors, merged element-wise), cross-checked
    /// against the single-process miner — same errors, same rules, and a
    /// byte-identical catalog once volatile stats are normalized.
    Distributed(MiningCase),
    /// Incremental-update case: the table split at a cut into base and
    /// delta rows; mine(base) → update(delta) must reproduce
    /// mine(base+delta) exactly — same errors, same rules, same merged
    /// counts, and a byte-identical normalized catalog including the
    /// `COUNTS` section — whether the update stays incremental or falls
    /// back to a re-mine over the retained base rows.
    Incremental(IncrementalCase),
}

impl ReproCase {
    /// Short kind tag, used in fixture files and log lines.
    pub fn kind(&self) -> &'static str {
        match self {
            ReproCase::Mining(_) => "mining",
            ReproCase::Partition(_) => "partition",
            ReproCase::Snap(_) => "snap",
            ReproCase::Intervals(_) => "intervals",
            ReproCase::Kernel(_) => "kernel",
            ReproCase::Analytics(_) => "analytics",
            ReproCase::Distributed(_) => "distributed",
            ReproCase::Incremental(_) => "incremental",
        }
    }
}

/// A mining case plus the base/delta split point for the incremental
/// oracle.
#[derive(Debug, Clone)]
pub struct IncrementalCase {
    /// The underlying table + configuration; the table is base+delta.
    pub case: MiningCase,
    /// Row index where the delta starts: rows `[0, cut)` are the base,
    /// rows `[cut, n)` the delta. `0` is an empty base (the delta
    /// outweighs it); `n` is an empty delta.
    pub cut: usize,
}

/// A table + miner configuration to run through every execution path.
#[derive(Debug, Clone)]
pub struct MiningCase {
    /// The input table (possibly empty or single-row).
    pub table: Table,
    /// The configuration; `parallelism` is overridden per path.
    pub config: MinerConfig,
    /// Worker threads for the parallel path (the serial path uses 1).
    pub threads: usize,
}

/// A column to partition plus the requested interval count.
#[derive(Debug, Clone)]
pub struct PartitionCase {
    /// Raw column values (unsorted, duplicates expected).
    pub values: Vec<f64>,
    /// Requested interval count.
    pub k: usize,
    /// Which partitioner to check.
    pub strategy: PartitionStrategy,
}

/// A range-to-interval-grid snapping problem.
#[derive(Debug, Clone)]
pub struct SnapCase {
    /// Range lower bound (`lo <= hi`).
    pub lo: f64,
    /// Range upper bound.
    pub hi: f64,
    /// Interval grid origin.
    pub origin: f64,
    /// Interval width (`> 0`).
    pub w: f64,
}

/// An Equation-2 interval-count computation.
#[derive(Debug, Clone)]
pub struct IntervalsCase {
    /// Number of quantitative attributes.
    pub num_quantitative: usize,
    /// Minimum support fraction.
    pub minsup: f64,
    /// Partial-completeness level (deliberately sometimes invalid).
    pub level: f64,
}

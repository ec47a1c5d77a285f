//! Shared experiment plumbing: the Section 6 parameter sets and dataset
//! construction used by every figure binary.

use qar_core::{InterestConfig, InterestMode, MinerConfig, PartitionSpec};
use qar_datagen::{CreditConfig, CreditDataset};

/// The paper's Section 6 parameters. Maximum support is the stated 40 %,
/// except that runs below minsup 20 % cap it at 2 × minsup: a fixed 40 %
/// cap at minsup 10 % would make *independent* wide-window pairs frequent
/// (0.4 × 0.4 = 0.16 ≥ 0.1), blowing the frequent-pair count into the
/// millions — which no 1996 hardware could have survived either.
pub fn section6_config(
    minsup: f64,
    minconf: f64,
    completeness: f64,
    interest: Option<f64>,
) -> MinerConfig {
    MinerConfig {
        min_support: minsup,
        min_confidence: minconf,
        max_support: (2.0 * minsup).min(0.4).max(minsup),
        partitioning: PartitionSpec::CompletenessLevel(completeness),
        partition_strategy: Default::default(),
        taxonomies: Default::default(),
        interest: interest.map(|level| InterestConfig {
            level,
            mode: InterestMode::SupportOrConfidence,
            prune_candidates: false,
        }),
        max_itemset_size: 0,
        parallelism: None,
    }
}

/// Generate the simulated Section 6 dataset at a given size (fixed seed).
pub fn credit(num_records: usize) -> CreditDataset {
    CreditDataset::generate(CreditConfig {
        num_records,
        ..CreditConfig::default()
    })
}

/// Records for the full experiments; figure binaries accept an override as
/// their first CLI argument so EXPERIMENTS.md runs are reproducible at any
/// scale.
pub fn records_arg(default: usize) -> usize {
    std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// Render one table row with right-aligned fixed-width columns.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(c, &w)| format!("{c:>w$}"))
        .collect::<Vec<_>>()
        .join("  ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_is_valid() {
        assert!(section6_config(0.2, 0.25, 1.5, Some(1.1))
            .validate()
            .is_ok());
        assert!(section6_config(0.1, 0.5, 5.0, None).validate().is_ok());
    }

    #[test]
    fn row_alignment() {
        let s = row(&["a".into(), "42".into()], &[3, 5]);
        assert_eq!(s, "  a     42");
    }
}

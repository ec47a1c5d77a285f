//! The five-step pipeline (Section 2.1), end to end.

use std::sync::Arc;
use std::time::Duration;

use crate::config::{MinerConfig, MinerError, PartitionSpec, PartitionStrategy};
use crate::frequent::QuantFrequentItemsets;
use crate::interest::{ItemSupports, RuleInterest};
use crate::mine::MineStats;
use crate::output;
use crate::rules::QuantRule;
use qar_partition::{num_intervals, EquiDepth, EquiWidth, KMeans1D, Partitioner};
use qar_table::{AttributeEncoder, EncodedTable, Histogram, QuantHistogram, Schema, Table};

/// Run-wide statistics and provenance.
#[derive(Debug, Clone)]
pub struct MiningStats {
    /// Intervals chosen per attribute (schema order); `None` for
    /// categorical or unpartitioned attributes.
    pub intervals_per_attribute: Vec<Option<usize>>,
    /// Level-wise pass statistics.
    pub mine: MineStats,
    /// Total number of rules before the interest filter.
    pub rules_total: usize,
    /// Rules surviving the interest filter (equal to `rules_total` when no
    /// interest measure was configured).
    pub rules_interesting: usize,
    /// Wall-clock time of the whole pipeline.
    pub elapsed: Duration,
    /// Wall-clock time of the frequent-itemset passes alone (the part the
    /// paper's scale-up experiment measures).
    pub elapsed_mining: Duration,
    /// True when this run reused the [`crate::Miner`]'s cached encoding
    /// instead of re-partitioning and re-encoding the table (always false
    /// for the first run on a table and for runs over an encoded table or
    /// another source).
    pub encoding_reused: bool,
    /// True when this run reused the [`crate::Miner`]'s cached Step 3
    /// (its frequent itemsets and pass statistics) and ran only Steps
    /// 4–5; `elapsed_mining` is zero then. Never persisted in catalogs.
    pub frequent_reused: bool,
}

impl MiningStats {
    /// A copy with every volatile field zeroed: wall-clock durations,
    /// machine parallelism, and the per-pass kernel/shard/cache numbers
    /// (each [`crate::supercand::PassStats`] is replaced by its default,
    /// preserving only the entry count). What survives is exactly the
    /// algorithmic trace — intervals per attribute, candidate counts per
    /// pass, pruned items, rule totals — so two catalogs written with
    /// normalized stats are byte-identical iff the *mining results*
    /// agree, regardless of which machine, thread count, kernel, or
    /// execution strategy (serial, distributed, out-of-core) produced
    /// them. `encoding_reused` and `frequent_reused` are pinned to
    /// `false` for the same reason.
    pub fn normalized(&self) -> MiningStats {
        MiningStats {
            intervals_per_attribute: self.intervals_per_attribute.clone(),
            mine: crate::mine::MineStats {
                candidates_per_pass: self.mine.candidates_per_pass.clone(),
                pass_stats: self
                    .mine
                    .pass_stats
                    .iter()
                    .map(|_| Default::default())
                    .collect(),
                interest_pruned_items: self.mine.interest_pruned_items,
                pass1_scan_time: Duration::ZERO,
                parallelism: 0,
            },
            rules_total: self.rules_total,
            rules_interesting: self.rules_interesting,
            elapsed: Duration::ZERO,
            elapsed_mining: Duration::ZERO,
            encoding_reused: false,
            frequent_reused: false,
        }
    }
}

/// Everything a mining run produces.
pub struct MiningOutput {
    /// The encoded table (kept so rules can be rendered and recounted).
    pub encoded: EncodedTable,
    /// All frequent itemsets with exact supports, shared with the
    /// [`crate::Miner`]'s Step 3 cache rather than copied.
    pub frequent: Arc<QuantFrequentItemsets>,
    /// All rules meeting `min_confidence`.
    pub rules: Vec<QuantRule>,
    /// Interest verdicts aligned with `rules` (`None` when the config had
    /// no interest measure).
    pub interest: Option<Vec<RuleInterest>>,
    /// Exact item supports (for downstream interest computations).
    pub item_supports: ItemSupports,
    /// Statistics.
    pub stats: MiningStats,
}

impl MiningOutput {
    /// The rules the interest filter kept (all rules when disabled).
    pub fn interesting_rules(&self) -> Vec<&QuantRule> {
        match &self.interest {
            Some(verdicts) => self
                .rules
                .iter()
                .zip(verdicts)
                .filter(|(_, v)| v.interesting)
                .map(|(r, _)| r)
                .collect(),
            None => self.rules.iter().collect(),
        }
    }

    /// Render rule `index` in the paper's style.
    pub fn format_rule(&self, index: usize) -> String {
        output::format_rule(&self.rules[index], self.frequent.num_rows, &self.encoded)
    }
}

/// Validate the data-independent half of the partitioning policy for
/// `schema`: the [`num_intervals`] computation a
/// [`PartitionSpec::CompletenessLevel`] demands, which depends only on
/// the schema's quantitative-attribute count and the configured minimum
/// support. [`build_encoders`] performs the same check; running it up
/// front keeps rejection row-count-independent, so an empty table with
/// impossible partitioning parameters reports the partitioning error on
/// every path instead of whichever of the two errors that path reaches
/// first.
pub fn validate_partitioning(
    schema: &qar_table::Schema,
    config: &MinerConfig,
) -> Result<(), MinerError> {
    if let PartitionSpec::CompletenessLevel(k) = &config.partitioning {
        let n_quant = schema.quantitative_ids().len();
        num_intervals(n_quant.max(1), config.min_support, *k)
            .map_err(|e| MinerError::Partition(e.to_string()))?;
    }
    Ok(())
}

/// Build per-attribute encoders according to the partitioning policy
/// (Steps 1 and 2): the table's value histograms, one column per task on
/// the config's [`MinerConfig::effective_parallelism`] threads, then
/// [`build_encoders_from_histograms`].
pub fn build_encoders(
    table: &Table,
    config: &MinerConfig,
) -> Result<(Vec<AttributeEncoder>, Vec<Option<usize>>), MinerError> {
    let histograms = table.histograms_threaded(config.effective_parallelism(), &|| false)?;
    build_encoders_from_histograms(table.schema(), &histograms, config)
}

/// Steps 1 and 2 from one value histogram per attribute (schema order),
/// as [`Table::histograms`] computes them or a chunked read's
/// [`qar_table::TableSummary`] merges them. Returns the encoders and the
/// intervals chosen per attribute (`None` for categorical or
/// unpartitioned attributes).
pub fn build_encoders_from_histograms(
    schema: &Schema,
    histograms: &[Histogram],
    config: &MinerConfig,
) -> Result<(Vec<AttributeEncoder>, Vec<Option<usize>>), MinerError> {
    assert_eq!(
        histograms.len(),
        schema.len(),
        "one histogram per attribute"
    );
    let n_quant = schema.quantitative_ids().len();
    let default_intervals: Option<usize> = match &config.partitioning {
        PartitionSpec::None => None,
        PartitionSpec::FixedIntervals(m) => Some(*m),
        PartitionSpec::CompletenessLevel(k) => Some(
            num_intervals(n_quant.max(1), config.min_support, *k)
                .map_err(|e| MinerError::Partition(e.to_string()))?,
        ),
        PartitionSpec::PerAttribute(_) => None,
    };

    let mut encoders = Vec::with_capacity(schema.len());
    let mut intervals = Vec::with_capacity(schema.len());
    for ((_, def), histogram) in schema.iter().zip(histograms) {
        match histogram {
            Histogram::Categorical(labels) => {
                encoders.push(match config.taxonomies.get(def.name()) {
                    Some(taxonomy) => {
                        AttributeEncoder::categorical_with_taxonomy(labels, taxonomy)?
                    }
                    None => AttributeEncoder::categorical_from(labels),
                });
                intervals.push(None);
            }
            Histogram::Quantitative(values) => {
                let wanted = match &config.partitioning {
                    PartitionSpec::PerAttribute(map) => map.get(def.name()).copied(),
                    _ => default_intervals,
                };
                let (encoder, achieved) =
                    quant_encoder_from(values, wanted, config.partition_strategy);
                encoders.push(encoder);
                intervals.push(achieved);
            }
        }
    }
    Ok((encoders, intervals))
}

/// The quantitative half of Step 1/2 for one attribute: partition (or
/// not) and build the encoder, in O(distinct values) for the
/// histogram-walking strategies.
fn quant_encoder_from(
    histogram: &QuantHistogram,
    wanted: Option<usize>,
    strategy: PartitionStrategy,
) -> (AttributeEncoder, Option<usize>) {
    match wanted {
        // "If the number of values is small, we do not partition": fewer
        // distinct values than intervals means full resolution already
        // satisfies the completeness target.
        Some(k) if histogram.len() > k && k >= 1 => {
            let kmeans = KMeans1D::default();
            let partitioner: &dyn Partitioner = match strategy {
                PartitionStrategy::EquiDepth => &EquiDepth,
                PartitionStrategy::EquiWidth => &EquiWidth,
                PartitionStrategy::KMeans => &kmeans,
            };
            let cuts = partitioner.cut_points(histogram.values(), histogram.counts(), k);
            let achieved = cuts.len() + 1;
            (
                AttributeEncoder::quant_intervals_from(histogram, cuts),
                Some(achieved),
            )
        }
        _ => (AttributeEncoder::quant_values_from(histogram), None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{InterestConfig, InterestMode};
    use qar_table::{Schema, Value};

    fn mine(table: &Table, config: &MinerConfig) -> Result<MiningOutput, MinerError> {
        crate::Miner::new(config.clone()).mine(table)
    }

    fn people_table() -> Table {
        let schema = Schema::builder()
            .quantitative("Age")
            .categorical("Married")
            .quantitative("NumCars")
            .build()
            .unwrap();
        let mut t = Table::new(schema);
        for (age, married, cars) in [
            (23, "No", 1),
            (25, "Yes", 1),
            (29, "No", 0),
            (34, "Yes", 2),
            (38, "Yes", 2),
        ] {
            t.push_row(&[Value::Int(age), Value::from(married), Value::Int(cars)])
                .unwrap();
        }
        t
    }

    fn fig1_config() -> MinerConfig {
        MinerConfig {
            min_support: 0.4,
            min_confidence: 0.5,
            max_support: 1.0,
            partitioning: PartitionSpec::None,
            partition_strategy: Default::default(),
            taxonomies: Default::default(),
            interest: None,
            max_itemset_size: 0,
            parallelism: None,
        }
    }

    #[test]
    fn figure_1_rules_found_end_to_end() {
        let out = mine(&people_table(), &fig1_config()).unwrap();
        let rendered: Vec<String> = (0..out.rules.len()).map(|i| out.format_rule(i)).collect();
        // Figure 1's two sample rules (full resolution: 30..39 appears as
        // the observed 34..38).
        assert!(
            rendered.iter().any(
                |r| r.contains("⟨Age: 34..38⟩ and ⟨Married: Yes⟩ ⇒ ⟨NumCars: 2⟩")
                    && r.contains("40.0% sup, 100.0% conf")
            ),
            "headline rule missing from {rendered:#?}"
        );
        assert!(
            rendered
                .iter()
                .any(|r| r.contains("⟨NumCars: 0..1⟩ ⇒ ⟨Married: No⟩")
                    && r.contains("40.0% sup, 66.7% conf")),
            "second Figure 1 rule missing from {rendered:#?}"
        );
    }

    #[test]
    fn partitioning_reduces_cardinality() {
        let mut config = fig1_config();
        config.partitioning = PartitionSpec::FixedIntervals(2);
        let out = mine(&people_table(), &config).unwrap();
        // Age (5 distinct) partitioned to 2; NumCars (3 distinct) also > 2.
        assert_eq!(out.stats.intervals_per_attribute[0], Some(2));
        assert_eq!(out.stats.intervals_per_attribute[1], None); // categorical
        assert_eq!(out.stats.intervals_per_attribute[2], Some(2));
    }

    #[test]
    fn completeness_level_drives_interval_count() {
        let mut config = fig1_config();
        // K=3, minsup 0.4, n=2 quantitative: 2·2/(0.4·2) = 5 intervals;
        // Age has exactly 5 distinct values -> NOT partitioned (5 <= 5).
        config.partitioning = PartitionSpec::CompletenessLevel(3.0);
        let out = mine(&people_table(), &config).unwrap();
        assert_eq!(out.stats.intervals_per_attribute[0], None);
    }

    #[test]
    fn interest_annotations_present_when_configured() {
        let mut config = fig1_config();
        config.interest = Some(InterestConfig {
            level: 1.1,
            mode: InterestMode::SupportOrConfidence,
            prune_candidates: false,
        });
        let out = mine(&people_table(), &config).unwrap();
        let verdicts = out.interest.as_ref().expect("interest configured");
        assert_eq!(verdicts.len(), out.rules.len());
        assert_eq!(out.stats.rules_interesting, out.interesting_rules().len());
        assert!(out.stats.rules_interesting <= out.stats.rules_total);
    }

    #[test]
    fn empty_table_rejected() {
        let schema = Schema::builder().quantitative("x").build().unwrap();
        let t = Table::new(schema);
        assert!(matches!(
            mine(&t, &fig1_config()),
            Err(MinerError::Schema(_))
        ));
    }

    #[test]
    fn invalid_config_rejected_before_work() {
        let mut config = fig1_config();
        config.min_support = 0.0;
        assert!(matches!(
            mine(&people_table(), &config),
            Err(MinerError::Config(_))
        ));
    }

    #[test]
    fn per_attribute_partitioning() {
        let mut config = fig1_config();
        let mut map = std::collections::BTreeMap::new();
        map.insert("Age".to_string(), 2usize);
        config.partitioning = PartitionSpec::PerAttribute(map);
        let out = mine(&people_table(), &config).unwrap();
        assert_eq!(out.stats.intervals_per_attribute[0], Some(2));
        assert_eq!(out.stats.intervals_per_attribute[2], None); // unlisted
    }
}

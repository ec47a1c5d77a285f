//! Persisted support counts: the raw tallies a mine accumulated, kept
//! alongside the rules so a later run can *update* the catalog by
//! scanning only appended rows.
//!
//! The count-distribution invariant (see [`crate::source`]) is what makes
//! this sound: counts over disjoint row partitions merge by element-wise
//! `u64` addition. A base table's persisted counts plus a delta-only scan
//! therefore equal a full scan of base+delta exactly — bit for bit — as
//! long as the *encoding* (schema + per-attribute encoders) of the
//! combined table is the one the base counts were taken under.
//! [`encoding_fingerprint`] pins that encoding; [`update_precheck`]
//! decides up front whether appending the delta would change it.

use std::collections::BTreeMap;

use crate::config::{InterestConfig, MinerConfig, PartitionSpec, PartitionStrategy};
use qar_itemset::Itemset;
use qar_table::{AttributeEncoder, Schema};

/// The semantic slice of a [`MinerConfig`] that determines mining output
/// (thresholds, partitioning policy, interest measure). The performance
/// knob — parallelism — is deliberately excluded: it never changes what a
/// mine finds, so an update may run with a different one.
///
/// Taxonomies are also excluded: their effect is fully captured by the
/// persisted encoders (and therefore by the encoding fingerprint).
#[derive(Debug, Clone, PartialEq)]
pub struct CountsConfig {
    /// Minimum fractional support.
    pub min_support: f64,
    /// Minimum confidence.
    pub min_confidence: f64,
    /// Maximum fractional support for combined ranges.
    pub max_support: f64,
    /// Frequent-itemset size cap (0 = unbounded).
    pub max_itemset_size: usize,
    /// The interest measure, if one was configured.
    pub interest: Option<InterestConfig>,
    /// Step 1 policy: how many intervals.
    pub partitioning: PartitionSpec,
    /// Step 1 policy: where the cut points go.
    pub partition_strategy: PartitionStrategy,
}

impl CountsConfig {
    /// Snapshot the semantic fields of `config`.
    pub fn from_config(config: &MinerConfig) -> Self {
        CountsConfig {
            min_support: config.min_support,
            min_confidence: config.min_confidence,
            max_support: config.max_support,
            max_itemset_size: config.max_itemset_size,
            interest: config.interest,
            partitioning: config.partitioning.clone(),
            partition_strategy: config.partition_strategy,
        }
    }

    /// Rebuild a full [`MinerConfig`] from the snapshot (default
    /// performance knobs, no taxonomies — the persisted encoders already
    /// embed any taxonomy structure).
    pub fn miner_config(&self) -> MinerConfig {
        MinerConfig {
            min_support: self.min_support,
            min_confidence: self.min_confidence,
            max_support: self.max_support,
            max_itemset_size: self.max_itemset_size,
            interest: self.interest,
            partitioning: self.partitioning.clone(),
            partition_strategy: self.partition_strategy,
            taxonomies: BTreeMap::new(),
            ..MinerConfig::default()
        }
    }

    /// `Err(description)` when `config`'s semantic fields disagree with
    /// this snapshot (an update run must mine under the exact thresholds
    /// the base counts were taken under).
    pub fn check_matches(&self, config: &MinerConfig) -> Result<(), String> {
        let theirs = CountsConfig::from_config(config);
        if *self == theirs {
            return Ok(());
        }
        let mut diffs = Vec::new();
        if self.min_support != theirs.min_support {
            diffs.push(format!(
                "min_support {} vs {}",
                theirs.min_support, self.min_support
            ));
        }
        if self.min_confidence != theirs.min_confidence {
            diffs.push(format!(
                "min_confidence {} vs {}",
                theirs.min_confidence, self.min_confidence
            ));
        }
        if self.max_support != theirs.max_support {
            diffs.push(format!(
                "max_support {} vs {}",
                theirs.max_support, self.max_support
            ));
        }
        if self.max_itemset_size != theirs.max_itemset_size {
            diffs.push(format!(
                "max_itemset_size {} vs {}",
                theirs.max_itemset_size, self.max_itemset_size
            ));
        }
        if self.interest != theirs.interest {
            diffs.push("interest configuration".to_string());
        }
        if self.partitioning != theirs.partitioning {
            diffs.push("partitioning".to_string());
        }
        if self.partition_strategy != theirs.partition_strategy {
            diffs.push("partition strategy".to_string());
        }
        Err(format!(
            "configuration differs from the catalog's persisted counts: {}",
            diffs.join(", ")
        ))
    }
}

/// The raw counting state captured while a mine ran: the pass-1 value
/// histograms, pass 2's pair-histogram cells, and every candidate counted
/// explicitly with its raw (unfiltered) tally — frequent and infrequent
/// alike, because an update needs the infrequent ones too (their supports
/// may cross `minsup` as rows arrive).
#[derive(Debug, Clone, PartialEq)]
pub struct CapturedCounts {
    /// `value_counts[attr][code]`: pass-1 per-attribute histograms.
    pub value_counts: Vec<Vec<u64>>,
    /// Pass 2's histograms: per attribute pair `(a, b)` the driver
    /// histogrammed, in increasing pair order, its `card(a) × card(b)`
    /// raw cells, row-major over `(code_a, code_b)`. Every pass-2
    /// candidate on such a pair is a rectangle sum over them. Empty when
    /// pass 2 never ran.
    pub pair_cells: Vec<((u32, u32), Vec<u64>)>,
    /// `(pass, [(candidate, raw count)])` per explicitly counted pass, in
    /// pass order: pass 2's candidates on pairs over
    /// [`crate::supercand::CELL_BUDGET`] cells, and every candidate
    /// of each pass `k ≥ 3`. A pass with an empty candidate set is never
    /// counted and so never appears here.
    pub passes: Vec<(u32, Vec<(Itemset, u64)>)>,
}

impl CapturedCounts {
    /// Counting passes `k ≥ 2` with a record — pass 2 once, whether its
    /// counts are cells, explicit records, or both.
    pub fn counting_passes(&self) -> usize {
        let pass2_cells_only =
            !self.pair_cells.is_empty() && !self.passes.iter().any(|(pass, _)| *pass == 2);
        self.passes.len() + usize::from(pass2_cells_only)
    }

    /// Total pass-2 histogram cells.
    pub fn total_cells(&self) -> usize {
        self.pair_cells.iter().map(|(_, cells)| cells.len()).sum()
    }

    /// Explicit records of pass `pass` (0 when it has none).
    pub fn explicit_records(&self, pass: u32) -> usize {
        self.passes
            .iter()
            .find(|(p, _)| *p == pass)
            .map_or(0, |(_, entries)| entries.len())
    }
}

/// Everything an incremental update needs from the base mine, persisted
/// in the catalog's `COUNTS` section: the raw tallies, the row total,
/// the encoding fingerprint they were taken under, and the semantic
/// mining configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SupportCounts {
    /// Rows of the table the counts were taken over.
    pub num_rows: u64,
    /// [`encoding_fingerprint`] of the schema + encoders at capture time.
    pub fingerprint: (u64, u64),
    /// The semantic mining configuration of the capture run.
    pub config: CountsConfig,
    /// Achieved interval counts per attribute (the partitioning
    /// provenance [`crate::pipeline::MiningStats`] records) — restored
    /// into the stats of update runs so updated catalogs stay
    /// byte-identical to mine-from-scratch.
    pub intervals_per_attribute: Vec<Option<usize>>,
    /// The captured tallies.
    pub captured: CapturedCounts,
}

impl SupportCounts {
    /// Assemble persisted counts from a finished capture run.
    pub fn assemble(
        schema: &Schema,
        encoders: &[AttributeEncoder],
        num_rows: u64,
        config: &MinerConfig,
        intervals_per_attribute: Vec<Option<usize>>,
        captured: CapturedCounts,
    ) -> Self {
        SupportCounts {
            num_rows,
            fingerprint: encoding_fingerprint(schema, encoders),
            config: CountsConfig::from_config(config),
            intervals_per_attribute,
            captured,
        }
    }

    /// Candidates tallied explicitly across all counting passes (pass-2
    /// histogram cells not included).
    pub fn total_candidates(&self) -> usize {
        self.captured.passes.iter().map(|(_, v)| v.len()).sum()
    }
}

/// Decide whether appending `delta_rows` new rows can reuse `encoders`
/// unchanged — the precondition of an incremental update. Returns
/// `Err(reason)` when a full re-mine is required.
///
/// The rule: equi-depth/equi-width/k-means *interval* encoders depend on
/// the whole value distribution (cut points and observed display bounds
/// both move when rows arrive), so any non-empty delta forces a re-mine.
/// Value-list and categorical encoders are append-stable as long as the
/// delta introduces no unseen value — which [`qar_table::EncodedTable::encode`]
/// detects as `UnencodableValue`, handled by the caller.
pub fn update_precheck(
    schema: &Schema,
    encoders: &[AttributeEncoder],
    delta_rows: u64,
) -> Result<(), String> {
    if delta_rows == 0 {
        return Ok(());
    }
    for (id, def) in schema.iter() {
        if let AttributeEncoder::QuantIntervals { .. } = &encoders[id.index()] {
            return Err(format!(
                "attribute {} is interval-partitioned; new rows would move its \
                 cut points, changing the encoding fingerprint",
                def.name()
            ));
        }
    }
    Ok(())
}

/// A 128-bit fingerprint of an *encoding*: the schema (names and kinds)
/// plus every encoder's full contents, mixed through two
/// independently-seeded SplitMix64 lanes. Two tables with equal
/// fingerprints decode item codes identically, so counts taken under one
/// are valid under the other.
pub fn encoding_fingerprint(schema: &Schema, encoders: &[AttributeEncoder]) -> (u64, u64) {
    let mut lanes = [
        Lane::new(0x243f_6a88_85a3_08d3),
        Lane::new(0x1319_8a2e_0370_7344),
    ];
    let mut absorb = |word: u64| {
        for lane in &mut lanes {
            lane.absorb(word);
        }
    };
    let absorb_str = |absorb: &mut dyn FnMut(u64), s: &str| {
        absorb(s.len() as u64);
        for chunk in s.as_bytes().chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            absorb(u64::from_le_bytes(word));
        }
    };
    absorb(schema.len() as u64);
    for (id, def) in schema.iter() {
        absorb_str(&mut absorb, def.name());
        absorb(match def.kind() {
            qar_table::AttributeKind::Quantitative => 0,
            qar_table::AttributeKind::Categorical => 1,
        });
        match &encoders[id.index()] {
            AttributeEncoder::Categorical { labels } => {
                absorb(10);
                absorb(labels.len() as u64);
                for l in labels {
                    absorb_str(&mut absorb, l);
                }
            }
            AttributeEncoder::QuantValues { values, integral } => {
                absorb(11);
                absorb(u64::from(*integral));
                absorb(values.len() as u64);
                for v in values {
                    absorb(v.to_bits());
                }
            }
            AttributeEncoder::QuantIntervals {
                cuts,
                display,
                integral,
            } => {
                absorb(12);
                absorb(u64::from(*integral));
                absorb(cuts.len() as u64);
                for c in cuts {
                    absorb(c.to_bits());
                }
                absorb(display.len() as u64);
                for spec in display {
                    absorb(spec.lo.to_bits());
                    absorb(spec.hi.to_bits());
                }
            }
            AttributeEncoder::CategoricalTaxonomy {
                labels,
                sorted_index,
                groups,
            } => {
                absorb(13);
                absorb(labels.len() as u64);
                for l in labels {
                    absorb_str(&mut absorb, l);
                }
                absorb(sorted_index.len() as u64);
                for &i in sorted_index {
                    absorb(i as u64);
                }
                absorb(groups.len() as u64);
                for (name, lo, hi) in groups {
                    absorb_str(&mut absorb, name);
                    absorb(*lo as u64);
                    absorb(*hi as u64);
                }
            }
        }
    }
    (lanes[0].finish(), lanes[1].finish())
}

/// One SplitMix64-style absorbing lane (shared with the table
/// fingerprint of [`crate::miner`]).
pub(crate) struct Lane(u64);

impl Lane {
    pub(crate) fn new(seed: u64) -> Self {
        Lane(seed)
    }

    pub(crate) fn absorb(&mut self, word: u64) {
        let mut z = self.0 ^ word.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        self.0 = z ^ (z >> 31);
    }

    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qar_table::Schema;

    fn schema() -> Schema {
        Schema::builder()
            .quantitative("x")
            .categorical("c")
            .build()
            .unwrap()
    }

    fn encoders() -> Vec<AttributeEncoder> {
        vec![
            AttributeEncoder::quant_values_from(&qar_table::QuantHistogram::from_values(&[
                1.0, 2.0, 3.0,
            ])),
            AttributeEncoder::categorical_from(&qar_table::CatHistogram::from_labels(&[
                "a".to_string(),
                "b".to_string(),
            ])),
        ]
    }

    #[test]
    fn fingerprint_is_deterministic_and_content_sensitive() {
        let base = encoding_fingerprint(&schema(), &encoders());
        assert_eq!(base, encoding_fingerprint(&schema(), &encoders()));

        let mut other = encoders();
        other[0] = AttributeEncoder::quant_values_from(&qar_table::QuantHistogram::from_values(&[
            1.0, 2.0, 4.0,
        ]));
        assert_ne!(base, encoding_fingerprint(&schema(), &other));

        let renamed = Schema::builder()
            .quantitative("y")
            .categorical("c")
            .build()
            .unwrap();
        assert_ne!(base, encoding_fingerprint(&renamed, &encoders()));
    }

    #[test]
    fn fingerprint_distinguishes_encoder_variants() {
        let values =
            AttributeEncoder::quant_values_from(&qar_table::QuantHistogram::from_values(&[
                1.0, 2.0,
            ]));
        let intervals = AttributeEncoder::quant_intervals_from(
            &qar_table::QuantHistogram::from_values(&[1.0, 2.0]),
            vec![1.5],
        );
        let s = Schema::builder().quantitative("x").build().unwrap();
        assert_ne!(
            encoding_fingerprint(&s, std::slice::from_ref(&values)),
            encoding_fingerprint(&s, std::slice::from_ref(&intervals))
        );
    }

    #[test]
    fn config_snapshot_round_trips_and_detects_mismatch() {
        let config = MinerConfig::default();
        let snap = CountsConfig::from_config(&config);
        assert!(snap.check_matches(&config).is_ok());
        assert_eq!(
            CountsConfig::from_config(&snap.miner_config()),
            snap,
            "snapshot survives the rebuild round trip"
        );

        let mut other = config.clone();
        other.min_support = 0.31;
        let err = snap.check_matches(&other).unwrap_err();
        assert!(err.contains("min_support"), "{err}");

        // The performance knob is not semantic: it may differ freely.
        let mut perf = config;
        perf.parallelism = std::num::NonZeroUsize::new(7);
        assert!(snap.check_matches(&perf).is_ok());
    }

    #[test]
    fn precheck_rejects_interval_encoders_only_for_nonempty_deltas() {
        let s = schema();
        let stable = encoders();
        assert!(update_precheck(&s, &stable, 100).is_ok());

        let intervals = vec![
            AttributeEncoder::quant_intervals_from(
                &qar_table::QuantHistogram::from_values(&[1.0, 2.0, 3.0]),
                vec![1.5, 2.5],
            ),
            AttributeEncoder::categorical_from(&qar_table::CatHistogram::from_labels(&[
                "a".to_string()
            ])),
        ];
        assert!(update_precheck(&s, &intervals, 1).is_err());
        assert!(
            update_precheck(&s, &intervals, 0).is_ok(),
            "an empty delta cannot move any cut point"
        );
    }
}

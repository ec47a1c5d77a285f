//! Shared generator for the store property tests: structurally valid —
//! but otherwise arbitrary — catalogs, built directly from parts rather
//! than through the miner so edge cases (empty rulesets, single-partition
//! intervals, extreme float values, NaN confidences) are actually hit.

use std::time::Duration;

use qar_analytics::{AnalyticsSet, RuleAnalytics};
use qar_core::mine::MineStats;
use qar_core::pipeline::MiningStats;
use qar_core::supercand::PassStats;
use qar_core::{
    encoding_fingerprint, CapturedCounts, CountsConfig, InterestConfig, InterestMode,
    PartitionSpec, PartitionStrategy, QuantRule, RuleInterest, SupportCounts,
};
use qar_itemset::{Item, Itemset};
use qar_prng::Prng;
use qar_store::Catalog;
use qar_table::encode::IntervalSpec;
use qar_table::{AttributeEncoder, Schema};

/// Finite values spanning the f64 range, kept strictly increasing so any
/// ascending subsequence is a valid encoder value/cut list.
const EXTREME_SORTED: [f64; 9] = [
    f64::MIN,
    -1.0e10,
    -2.5,
    -f64::MIN_POSITIVE,
    0.0,
    f64::MIN_POSITIVE,
    3.75,
    1.0e10,
    f64::MAX,
];

/// A strictly increasing sequence of `n` finite values, sometimes drawn
/// from the extreme pool, otherwise small integers spaced apart.
fn ascending_values(rng: &mut Prng, n: usize) -> Vec<f64> {
    if rng.gen_bool(0.3) && n <= EXTREME_SORTED.len() {
        let start = rng.gen_range(0..EXTREME_SORTED.len() - n + 1);
        return EXTREME_SORTED[start..start + n].to_vec();
    }
    let mut v = Vec::with_capacity(n);
    let mut x = rng.gen_range(-100.0..100.0);
    for _ in 0..n {
        v.push(x);
        x += rng.gen_range(0.25..10.0);
    }
    v
}

fn arb_encoder(rng: &mut Prng, quantitative: bool) -> AttributeEncoder {
    if quantitative {
        if rng.gen_bool(0.5) {
            let n = rng.gen_range(1..6);
            AttributeEncoder::QuantValues {
                values: ascending_values(rng, n),
                integral: rng.gen_bool(0.5),
            }
        } else {
            // `num_cuts == 0` is the single-partition case: one interval
            // covering the whole attribute.
            let num_cuts = rng.gen_range(0..5);
            AttributeEncoder::QuantIntervals {
                cuts: ascending_values(rng, num_cuts),
                display: ascending_values(rng, num_cuts + 1)
                    .into_iter()
                    .map(|v| IntervalSpec { lo: v, hi: v })
                    .collect(),
                integral: rng.gen_bool(0.5),
            }
        }
    } else if rng.gen_bool(0.5) {
        let n = rng.gen_range(1..6);
        AttributeEncoder::Categorical {
            labels: (0..n).map(|i| format!("label-{i:02}")).collect(),
        }
    } else {
        // Taxonomy labels are in DFS order, not sorted; scramble them and
        // recover the lexicographic permutation.
        let n: usize = rng.gen_range(1..6);
        let mut labels: Vec<String> = (0..n).map(|i| format!("leaf-{i:02}")).collect();
        rng.shuffle(&mut labels);
        let mut sorted_index: Vec<u32> = (0..n as u32).collect();
        sorted_index.sort_by(|&a, &b| labels[a as usize].cmp(&labels[b as usize]));
        let groups = (0..rng.gen_range(0..3usize))
            .map(|g| {
                let lo = rng.gen_range(0..n as u32);
                let hi = rng.gen_range(lo..n as u32);
                (format!("group-{g}"), lo, hi)
            })
            .collect();
        AttributeEncoder::CategoricalTaxonomy {
            labels,
            sorted_index,
            groups,
        }
    }
}

fn arb_itemset(rng: &mut Prng, attrs: &[u32], encoders: &[AttributeEncoder]) -> Itemset {
    Itemset::new(
        attrs
            .iter()
            .map(|&attr| {
                let card = encoders[attr as usize].cardinality();
                let lo = rng.gen_range(0..card);
                let hi = rng.gen_range(lo..card);
                Item::range(attr, lo, hi)
            })
            .collect(),
    )
}

fn arb_duration(rng: &mut Prng) -> Duration {
    Duration::new(rng.next_u64() >> 34, rng.gen_range(0..1_000_000_000))
}

fn arb_stats(rng: &mut Prng, num_attrs: usize, num_rules: usize) -> MiningStats {
    let passes = rng.gen_range(0..3usize);
    MiningStats {
        intervals_per_attribute: (0..num_attrs)
            .map(|_| rng.gen_bool(0.5).then(|| rng.gen_range(1..32usize)))
            .collect(),
        mine: MineStats {
            candidates_per_pass: (0..passes).map(|_| rng.gen_range(0..1000)).collect(),
            pass_stats: (0..passes)
                .map(|_| PassStats {
                    super_candidates: rng.gen_range(0..100),
                    array_backed: rng.gen_range(0..100),
                    rtree_backed: rng.gen_range(0..100),
                    hash_tree_nodes: rng.gen_range(0..10_000),
                    counter_bytes: rng.gen_range(0..1_000_000),
                    scan_time: arb_duration(rng),
                    merge_time: arb_duration(rng),
                    shard_scan_times: (0..rng.gen_range(0..4usize))
                        .map(|_| arb_duration(rng))
                        .collect(),
                    pooled: rng.gen_bool(0.5),
                    kernel: ["direct", "bitmask", "cells", "cells+bitmask"]
                        [rng.gen_range(0..4usize)]
                    .to_string(),
                })
                .collect(),
            interest_pruned_items: rng.gen_range(0..50),
            pass1_scan_time: arb_duration(rng),
            parallelism: rng.gen_range(1..16),
        },
        rules_total: num_rules,
        rules_interesting: rng.gen_range(0..num_rules + 1),
        elapsed: arb_duration(rng),
        elapsed_mining: arb_duration(rng),
        encoding_reused: rng.gen_bool(0.5),
        frequent_reused: false,
    }
}

/// An f64 that exercises the format's bit-exactness: NaN, infinities,
/// and signed zero alongside ordinary values.
fn adversarial_f64(rng: &mut Prng) -> f64 {
    match rng.gen_range(0..8u32) {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => -0.0,
        _ => rng.gen_f64(),
    }
}

/// Arbitrary analytics aligned with `rules`: any floats at all (the
/// format carries them bit-exactly), Shapley entries over exactly the
/// antecedent's attributes (the one structural invariant).
fn arb_analytics(rng: &mut Prng, rules: &[QuantRule]) -> AnalyticsSet {
    AnalyticsSet {
        shapley_samples: rng.gen_range(1..128u32),
        seed: rng.next_u64(),
        rules: rules
            .iter()
            .map(|r| RuleAnalytics {
                count_antecedent: rng.next_u64(),
                count_consequent: rng.next_u64(),
                lift: adversarial_f64(rng),
                conviction: adversarial_f64(rng),
                leverage: adversarial_f64(rng),
                chi2: adversarial_f64(rng),
                p_value: adversarial_f64(rng),
                p_adjusted: adversarial_f64(rng),
                jmeasure: adversarial_f64(rng),
                shapley: r
                    .antecedent
                    .items()
                    .iter()
                    .map(|it| (it.attr, adversarial_f64(rng)))
                    .collect(),
            })
            .collect(),
    }
}

/// Arbitrary persisted support counts that satisfy every invariant
/// [`Catalog::with_counts`] checks: row total and fingerprint taken from
/// the catalog, a valid semantic config, histograms spanning exactly the
/// encoders' code spaces, pass-2 cells on random attribute pairs whose
/// marginals are those histograms, in-range candidates with arbitrary
/// tallies.
fn arb_counts(rng: &mut Prng, catalog: &Catalog) -> SupportCounts {
    let schema = catalog.schema();
    let encoders = catalog.encoders();
    let num_attrs = schema.len();
    let min_support = rng.gen_range(0.01..0.9);
    let config = CountsConfig {
        min_support,
        min_confidence: rng.gen_range(0.0..1.0),
        max_support: rng.gen_range(min_support..1.0),
        max_itemset_size: rng.gen_range(0..5usize),
        interest: rng.gen_bool(0.3).then(|| InterestConfig {
            level: rng.gen_range(1.1..4.0),
            mode: if rng.gen_bool(0.5) {
                InterestMode::SupportAndConfidence
            } else {
                InterestMode::SupportOrConfidence
            },
            prune_candidates: rng.gen_bool(0.5),
        }),
        partitioning: match rng.gen_range(0..4u32) {
            0 => PartitionSpec::None,
            1 => PartitionSpec::CompletenessLevel(rng.gen_range(1.5..5.0)),
            2 => PartitionSpec::FixedIntervals(rng.gen_range(1..8usize)),
            _ => {
                let mut map = std::collections::BTreeMap::new();
                for (_, def) in schema.iter() {
                    if rng.gen_bool(0.5) {
                        map.insert(def.name().to_string(), rng.gen_range(1..8usize));
                    }
                }
                PartitionSpec::PerAttribute(map)
            }
        },
        partition_strategy: [
            PartitionStrategy::EquiDepth,
            PartitionStrategy::EquiWidth,
            PartitionStrategy::KMeans,
        ][rng.gen_range(0..3usize)],
    };
    // Weighted random rows: the histograms and pass-2 cells are their
    // exact marginals, as a real mine records them.
    let cards: Vec<u32> = encoders.iter().map(|e| e.cardinality()).collect();
    let rows: Vec<(Vec<u32>, u64)> = if cards.contains(&0) {
        Vec::new()
    } else {
        (0..rng.gen_range(0..30usize))
            .map(|_| {
                let codes = cards.iter().map(|&c| rng.gen_range(0..c)).collect();
                (codes, rng.gen_range(0..1u64 << 40))
            })
            .collect()
    };
    let mut value_counts: Vec<Vec<u64>> = cards.iter().map(|&c| vec![0; c as usize]).collect();
    for (codes, weight) in &rows {
        for (hist, &code) in value_counts.iter_mut().zip(codes) {
            hist[code as usize] += weight;
        }
    }
    let mut pair_cells = Vec::new();
    for a in 0..num_attrs {
        for b in a + 1..num_attrs {
            if rng.gen_bool(0.5) {
                let mut cells = vec![0u64; (cards[a] * cards[b]) as usize];
                for (codes, weight) in &rows {
                    cells[(codes[a] * cards[b] + codes[b]) as usize] += weight;
                }
                pair_cells.push(((a as u32, b as u32), cells));
            }
        }
    }
    let mut passes = Vec::new();
    let mut pass = 2u32;
    for _ in 0..rng.gen_range(0..3usize) {
        let entries = (0..rng.gen_range(0..12usize))
            .map(|_| {
                let mut attrs: Vec<u32> = (0..num_attrs as u32).collect();
                rng.shuffle(&mut attrs);
                let used = rng.gen_range(1..num_attrs + 1);
                let mut sub = attrs[..used].to_vec();
                sub.sort_unstable();
                (arb_itemset(rng, &sub, encoders), rng.next_u64())
            })
            .collect();
        passes.push((pass, entries));
        pass += rng.gen_range(1..3u32);
    }
    SupportCounts {
        num_rows: catalog.num_rows(),
        fingerprint: encoding_fingerprint(schema, encoders),
        config,
        intervals_per_attribute: (0..num_attrs)
            .map(|_| rng.gen_bool(0.5).then(|| rng.gen_range(1..32usize)))
            .collect(),
        captured: CapturedCounts {
            value_counts,
            pair_cells,
            passes,
        },
    }
}

/// A random structurally valid catalog: 1–5 attributes of mixed kinds,
/// 0–20 rules over them (possibly none — the empty-ruleset edge case),
/// interest verdicts half the time, and adversarial float values in both
/// encoders and confidences (including NaN and infinities, which the
/// format must carry bit-exactly).
pub fn arb_catalog(rng: &mut Prng) -> Catalog {
    let num_attrs = rng.gen_range(1..6usize);
    let kinds: Vec<bool> = (0..num_attrs).map(|_| rng.gen_bool(0.5)).collect();
    let mut builder = Schema::builder();
    for (i, &quant) in kinds.iter().enumerate() {
        let name = format!("attr{i}");
        builder = if quant {
            builder.quantitative(name)
        } else {
            builder.categorical(name)
        };
    }
    let schema = builder.build().expect("distinct names");
    let encoders: Vec<AttributeEncoder> =
        kinds.iter().map(|&quant| arb_encoder(rng, quant)).collect();

    // A rule needs disjoint non-empty sides, so at least two attributes.
    let num_rules = if num_attrs < 2 || rng.gen_bool(0.15) {
        0 // empty-ruleset edge case
    } else {
        rng.gen_range(1..20usize)
    };
    let rules: Vec<QuantRule> = (0..num_rules)
        .map(|_| {
            // Split a random non-trivial subset of attributes into
            // disjoint antecedent / consequent halves.
            let mut attrs: Vec<u32> = (0..num_attrs as u32).collect();
            rng.shuffle(&mut attrs);
            let used = rng.gen_range(2..num_attrs + 1);
            let cut = rng.gen_range(1..used);
            let (mut ant, mut cons) = (attrs[..cut].to_vec(), attrs[cut..used].to_vec());
            ant.sort_unstable();
            cons.sort_unstable();
            let confidence = match rng.gen_range(0..8u32) {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => -0.0,
                _ => rng.gen_f64(),
            };
            QuantRule {
                antecedent: arb_itemset(rng, &ant, &encoders),
                consequent: arb_itemset(rng, &cons, &encoders),
                support: rng.next_u64(),
                confidence,
            }
        })
        .collect();
    let interest = rng.gen_bool(0.5).then(|| {
        rules
            .iter()
            .map(|_| RuleInterest {
                interesting: rng.gen_bool(0.5),
                has_ancestors: rng.gen_bool(0.5),
            })
            .collect()
    });

    let stats = arb_stats(rng, num_attrs, num_rules);
    let catalog = Catalog::new(schema, encoders, rng.next_u64(), rules, interest, stats)
        .expect("generated catalog is valid");
    // Half the catalogs carry the optional analytics section and half
    // carry persisted counts (independently), so every property
    // downstream (round trip, corruption, truncation, queries) covers
    // all four trailing-section layouts.
    let catalog = if rng.gen_bool(0.5) {
        let analytics = arb_analytics(rng, catalog.rules());
        catalog
            .with_analytics(analytics)
            .expect("generated analytics are valid")
    } else {
        catalog
    };
    if rng.gen_bool(0.5) {
        let counts = arb_counts(rng, &catalog);
        catalog
            .with_counts(counts)
            .expect("generated counts are valid")
    } else {
        catalog
    }
}

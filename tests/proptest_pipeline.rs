//! Randomized property tests over the whole pipeline: for random small
//! tables and random thresholds, the miner must agree with the brute-force
//! reference, a parallel run must agree exactly with a serial one, and the
//! outputs must satisfy the paper's definitional invariants.

use qar_prng::{cases, Prng};
use quantrules::core::naive::naive_mine;
use quantrules::core::{
    generate_rules, ItemsetSetDelta, Miner, MinerConfig, PartitionSpec, RuleSetDelta,
};
use quantrules::table::{EncodedTable, Schema, Table, Value};
use std::num::NonZeroUsize;

/// Random small table: 2 quantitative attributes (domains ≤ 6) + 1
/// categorical (≤ 3 labels), 8–59 rows.
fn arbitrary_table(rng: &mut Prng) -> Table {
    let schema = Schema::builder()
        .quantitative("q1")
        .quantitative("q2")
        .categorical("c")
        .build()
        .expect("static schema");
    let mut t = Table::new(schema);
    let labels = ["a", "b", "c"];
    let num_rows = rng.gen_range(8..60usize);
    for _ in 0..num_rows {
        let q1 = rng.gen_range(0i64..6);
        let q2 = rng.gen_range(0i64..6);
        let c = rng.gen_range(0..labels.len());
        t.push_row(&[Value::Int(q1), Value::Int(q2), Value::from(labels[c])])
            .expect("row matches schema");
    }
    t
}

/// Random all-distinct table: every row's `(c0, c1)` categorical tuple
/// is unique, plus one quantitative attribute (domain ≤ 6), 8–59 rows.
fn all_distinct_table(rng: &mut Prng) -> Table {
    let schema = Schema::builder()
        .categorical("c0")
        .categorical("c1")
        .quantitative("q")
        .build()
        .expect("static schema");
    let mut t = Table::new(schema);
    let num_rows = rng.gen_range(8..60usize);
    let width = rng.gen_range(2..8usize);
    let offset = rng.gen_range(0..100usize);
    for i in 0..num_rows {
        // Distinct `j` give distinct `(j % width, j / width)` tuples.
        let j = i + offset;
        t.push_row(&[
            Value::from(format!("v{}", j % width)),
            Value::from(format!("v{}", j / width)),
            Value::Int(rng.gen_range(0i64..6)),
        ])
        .expect("row matches schema");
    }
    t
}

/// What the default kernel reports: plans with range dimensions counted
/// as cells, the rest (purely categorical, or over the cell budget) with
/// masks.
const DEFAULT_KERNELS: [&str; 3] = ["cells", "bitmask", "cells+bitmask"];

fn base_config() -> MinerConfig {
    MinerConfig {
        min_support: 0.2,
        min_confidence: 0.5,
        max_support: 0.7,
        partitioning: PartitionSpec::None,
        partition_strategy: Default::default(),
        taxonomies: Default::default(),
        interest: None,
        max_itemset_size: 0,
        parallelism: None,
        kernel: Default::default(),
    }
}

/// Miner == brute force on arbitrary tables and thresholds.
#[test]
fn miner_equals_naive() {
    cases(48, 0x5EED_4242_0001, |case, rng| {
        let table = arbitrary_table(rng);
        let config = MinerConfig {
            min_support: rng.gen_range(5u32..60) as f64 / 100.0,
            max_support: rng.gen_range(60u32..100) as f64 / 100.0,
            ..base_config()
        };
        let encoded = EncodedTable::encode_full_resolution(&table).expect("encode");
        let naive = naive_mine(&encoded, &config);
        let (real, _) = Miner::new(config.clone())
            .frequent_itemsets(&encoded)
            .expect("mine");
        let delta = ItemsetSetDelta::between(&naive, &real);
        assert!(delta.is_empty(), "case {case}: {delta}");
    });
}

/// The tentpole equivalence property: mining with one worker thread and
/// mining with four must produce *identical* rule sets — same rules, same
/// supports, same confidences — after a canonical sort. Counting shards
/// hold disjoint row ranges and integer counts merge by exact addition, so
/// this holds bit-for-bit, not just approximately.
#[test]
fn parallel_mining_equals_serial() {
    cases(48, 0x5EED_4242_0005, |case, rng| {
        let table = arbitrary_table(rng);
        let mut config = MinerConfig {
            min_support: rng.gen_range(5u32..40) as f64 / 100.0,
            min_confidence: rng.gen_range(10u32..90) as f64 / 100.0,
            max_support: 1.0,
            ..base_config()
        };
        let encoded = EncodedTable::encode_full_resolution(&table).expect("encode");

        config.parallelism = NonZeroUsize::new(1);
        let (serial_freq, serial_stats) = Miner::new(config.clone())
            .frequent_itemsets(&encoded)
            .expect("serial");
        let serial_rules = generate_rules(&serial_freq, config.min_confidence);

        config.parallelism = NonZeroUsize::new(4);
        let (par_freq, par_stats) = Miner::new(config.clone())
            .frequent_itemsets(&encoded)
            .expect("parallel");
        let par_rules = generate_rules(&par_freq, config.min_confidence);

        assert_eq!(serial_stats.parallelism, 1, "case {case}");
        assert_eq!(par_stats.parallelism, 4, "case {case}");

        // Frequent itemsets: identical levels, supports included.
        let freq_delta = ItemsetSetDelta::between(&serial_freq, &par_freq);
        assert!(freq_delta.is_empty(), "case {case}: {freq_delta}");

        // Rules: identical, bit-for-bit (0-ulp confidence tolerance) —
        // shards hold disjoint row ranges and integer counts merge
        // exactly, so parallelism never perturbs a rule.
        let rule_delta = RuleSetDelta::between(&serial_rules, &par_rules, 0);
        assert!(rule_delta.is_empty(), "case {case}: {rule_delta}");
    });
}

/// The scan-kernel equivalence property on both table shapes: the
/// bitmask scan must count every candidate bit-identically to the direct
/// reference scan and to the brute-force recount, at any thread count,
/// on duplicate-heavy tables (small domains, so categorical tuples repeat
/// on nearly every row) and on all-distinct ones (every row's
/// categorical tuple unique). Candidates are the miner's own frequent
/// itemsets plus each row's categorical tuple, so multi-predicate
/// categorical plans occur on both shapes.
#[test]
fn bitmask_scan_equals_direct_on_duplicate_heavy_and_all_distinct_tables() {
    use quantrules::core::supercand::{count_candidates, count_candidates_naive, ScanOptions};
    use quantrules::core::ScanKernel;
    use quantrules::itemset::{Item, Itemset};
    cases(48, 0x5EED_4242_0006, |case, rng| {
        let shapes = [
            ("duplicate-heavy", arbitrary_table(rng)),
            ("all-distinct", all_distinct_table(rng)),
        ];
        for (shape, table) in shapes {
            let config = MinerConfig {
                min_support: rng.gen_range(5u32..30) as f64 / 100.0,
                max_support: 1.0,
                ..base_config()
            };
            let encoded = EncodedTable::encode_full_resolution(&table).expect("encode");
            let (frequent, _) = Miner::new(config)
                .frequent_itemsets(&encoded)
                .expect("mine");
            let mut candidates: Vec<Itemset> =
                frequent.iter().map(|(set, _)| set.clone()).collect();
            let cats = encoded.schema().categorical_ids();
            for row in 0..encoded.num_rows() {
                candidates.push(Itemset::new(
                    cats.iter()
                        .map(|&id| Item::value(id.index() as u32, encoded.codes(id)[row]))
                        .collect(),
                ));
            }
            let naive = count_candidates_naive(&encoded, &candidates);
            for threads in [1usize, 2, 4, 7] {
                for kernel in [ScanKernel::Direct(None), ScanKernel::Bitmask] {
                    let opts = ScanOptions {
                        kernel,
                        ..ScanOptions::new(threads)
                    };
                    let (counts, stats) =
                        count_candidates(&encoded, &candidates, opts).expect("no cancel token");
                    assert_eq!(
                        counts, naive,
                        "case {case}: {shape}, threads {threads}, {kernel:?}"
                    );
                    let expected: &[&str] = match kernel {
                        ScanKernel::Direct(_) => &["direct"],
                        ScanKernel::Bitmask => &DEFAULT_KERNELS,
                    };
                    assert!(
                        expected.contains(&stats.kernel.as_str()),
                        "case {case}: {shape}, {kernel:?} reported `{}`",
                        stats.kernel
                    );
                }
            }
        }
    });
}

/// The bitmask-kernel equivalence property: the blocked bitmask scan
/// must count every candidate bit-identically to the direct scan and to
/// the brute-force recount, at any thread count. Tables
/// are small (tail-masking territory) with codes concentrated at the
/// domain boundaries, so `lo == hi` rectangles and dead-predicate
/// pre-screening both occur.
#[test]
fn bitmask_scan_equals_direct_and_naive() {
    use quantrules::core::supercand::{count_candidates, count_candidates_naive, ScanOptions};
    use quantrules::core::ScanKernel;
    cases(48, 0x5EED_4242_0007, |case, rng| {
        let table = arbitrary_table(rng);
        let config = MinerConfig {
            min_support: rng.gen_range(5u32..30) as f64 / 100.0,
            max_support: 1.0,
            ..base_config()
        };
        let encoded = EncodedTable::encode_full_resolution(&table).expect("encode");
        let (frequent, _) = Miner::new(config)
            .frequent_itemsets(&encoded)
            .expect("mine");
        let candidates: Vec<_> = frequent.iter().map(|(set, _)| set.clone()).collect();
        if candidates.is_empty() {
            return;
        }
        let naive = count_candidates_naive(&encoded, &candidates);
        let direct = count_candidates(
            &encoded,
            &candidates,
            ScanOptions {
                kernel: ScanKernel::Direct(None),
                ..ScanOptions::new(1)
            },
        )
        .expect("no cancel token")
        .0;
        assert_eq!(direct, naive, "case {case}: direct vs naive");
        for threads in [1usize, 2, 4, 7] {
            let (counts, stats) =
                count_candidates(&encoded, &candidates, ScanOptions::new(threads))
                    .expect("no cancel token");
            assert_eq!(counts, naive, "case {case}: threads {threads}");
            assert!(
                DEFAULT_KERNELS.contains(&stats.kernel.as_str()),
                "case {case}: `{}`",
                stats.kernel
            );
        }
    });
}

/// Every generated rule satisfies its definition exactly.
#[test]
fn rules_satisfy_definitions() {
    cases(48, 0x5EED_4242_0002, |case, rng| {
        let table = arbitrary_table(rng);
        let config = MinerConfig {
            min_support: 0.15,
            min_confidence: rng.gen_range(10u32..95) as f64 / 100.0,
            max_support: 0.8,
            ..base_config()
        };
        let encoded = EncodedTable::encode_full_resolution(&table).expect("encode");
        let (frequent, _) = Miner::new(config.clone())
            .frequent_itemsets(&encoded)
            .expect("mine");
        let rules = generate_rules(&frequent, config.min_confidence);
        for rule in &rules {
            // Attribute-disjoint sides.
            let ants = rule.antecedent.attributes();
            let cons = rule.consequent.attributes();
            assert!(ants.iter().all(|a| !cons.contains(a)), "case {case}");
            // Confidence and support are exact recounts.
            let both = quantrules::core::supercand::count_candidates_naive(
                &encoded,
                &[rule.itemset(), rule.antecedent.clone()],
            );
            assert_eq!(rule.support, both[0], "case {case}");
            let conf = both[0] as f64 / both[1] as f64;
            assert!((rule.confidence - conf).abs() < 1e-12, "case {case}");
            assert!(rule.confidence >= config.min_confidence, "case {case}");
            // The rule's itemset meets minimum support.
            let min_count = (config.min_support * table.num_rows() as f64).ceil() as u64;
            assert!(rule.support >= min_count, "case {case}");
        }
    });
}

/// Monotonicity in minsup: raising it never adds itemsets, and the
/// surviving sets keep their exact supports.
#[test]
fn minsup_monotone() {
    cases(48, 0x5EED_4242_0003, |case, rng| {
        let table = arbitrary_table(rng);
        let encoded = EncodedTable::encode_full_resolution(&table).expect("encode");
        let mk = |minsup: f64| MinerConfig {
            min_support: minsup,
            max_support: 1.0,
            ..base_config()
        };
        let (lo, _) = Miner::new(mk(0.1))
            .frequent_itemsets(&encoded)
            .expect("mine");
        let (hi, _) = Miner::new(mk(0.3))
            .frequent_itemsets(&encoded)
            .expect("mine");
        assert!(hi.total() <= lo.total(), "case {case}");
        for (itemset, count) in hi.iter() {
            assert_eq!(lo.support_of(itemset), Some(*count), "case {case}");
        }
    });
}

/// The counting backends agree end to end: the reference kernel pinned
/// to the array, pinned to the R*-tree, and the default bitmask kernel.
#[test]
fn backends_agree() {
    cases(48, 0x5EED_4242_0004, |case, rng| {
        use quantrules::itemset::CounterKind;
        let table = arbitrary_table(rng);
        let encoded = EncodedTable::encode_full_resolution(&table).expect("encode");
        let config = base_config();
        let (auto, _) = Miner::new(config.clone())
            .frequent_itemsets(&encoded)
            .expect("auto");
        let (arr, _) = Miner::new(config.clone())
            .with_counter(CounterKind::Array)
            .frequent_itemsets(&encoded)
            .expect("array");
        let (rt, _) = Miner::new(config.clone())
            .with_counter(CounterKind::RTree)
            .frequent_itemsets(&encoded)
            .expect("rtree");
        assert_eq!(auto.total(), arr.total(), "case {case}");
        assert_eq!(auto.total(), rt.total(), "case {case}");
        for (itemset, count) in auto.iter() {
            assert_eq!(arr.support_of(itemset), Some(*count), "case {case}");
            assert_eq!(rt.support_of(itemset), Some(*count), "case {case}");
        }
    });
}

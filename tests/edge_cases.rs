//! Failure injection and degenerate inputs through the public API.

use quantrules::core::{
    InterestConfig, InterestMode, Miner, MinerConfig, MinerError, PartitionSpec,
};
use quantrules::table::{csv, Schema, Table, TableError, Value};

fn base_config() -> MinerConfig {
    MinerConfig {
        min_support: 0.3,
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
fn single_row_table() {
    let schema = Schema::builder()
        .quantitative("x")
        .categorical("c")
        .build()
        .unwrap();
    let mut t = Table::new(schema);
    t.push_row(&[Value::Int(5), Value::from("only")]).unwrap();
    let out = Miner::new(base_config())
        .mine(&t)
        .expect("one row is minable");
    // Both singletons and their pair are frequent at any threshold ≤ 1.
    assert_eq!(out.frequent.total(), 3);
    assert_eq!(out.rules.len(), 2); // x⇒c and c⇒x, both 100% confident
}

#[test]
fn constant_columns() {
    let schema = Schema::builder()
        .quantitative("x")
        .quantitative("y")
        .build()
        .unwrap();
    let mut t = Table::new(schema);
    for _ in 0..50 {
        t.push_row(&[Value::Int(7), Value::Int(3)]).unwrap();
    }
    // Partitioning a constant column must not blow up (no valid cuts).
    let mut cfg = base_config();
    cfg.partitioning = PartitionSpec::FixedIntervals(4);
    let out = Miner::new(cfg.clone())
        .mine(&t)
        .expect("constant columns are fine");
    assert_eq!(out.frequent.total(), 3);
    assert!(
        out.stats
            .intervals_per_attribute
            .iter()
            .all(|i| i.is_none()),
        "1 distinct value -> never partitioned"
    );
}

#[test]
fn all_distinct_quantitative_column() {
    // No single value reaches minsup; only ranges do.
    let schema = Schema::builder().quantitative("x").build().unwrap();
    let mut t = Table::new(schema);
    for i in 0..40 {
        t.push_row(&[Value::Int(i)]).unwrap();
    }
    let mut cfg = base_config();
    cfg.max_support = 0.5;
    let out = Miner::new(cfg.clone()).mine(&t).expect("mines");
    assert!(out.frequent.total() > 0);
    for (itemset, count) in out.frequent.iter() {
        let item = itemset.items()[0];
        assert!(item.lo < item.hi, "only ranges can be frequent here");
        assert!(*count >= 12 && *count <= 20, "30%..50% of 40");
    }
}

#[test]
fn interest_with_pruning_and_all_modes_runs() {
    let schema = Schema::builder()
        .quantitative("x")
        .categorical("c")
        .build()
        .unwrap();
    let mut t = Table::new(schema);
    for i in 0..100 {
        let c = if i % 3 == 0 { "a" } else { "b" };
        t.push_row(&[Value::Int(i % 10), Value::from(c)]).unwrap();
    }
    for mode in [
        InterestMode::SupportAndConfidence,
        InterestMode::SupportOrConfidence,
    ] {
        for prune in [false, true] {
            let mut cfg = base_config();
            cfg.min_support = 0.1;
            cfg.max_support = 0.6;
            cfg.interest = Some(InterestConfig {
                level: 1.2,
                mode,
                prune_candidates: prune,
            });
            let out = Miner::new(cfg.clone()).mine(&t).expect("mines");
            let verdicts = out.interest.expect("interest configured");
            assert_eq!(verdicts.len(), out.rules.len());
        }
    }
}

#[test]
fn csv_with_crlf_line_endings() {
    let schema = Schema::builder()
        .quantitative("x")
        .categorical("c")
        .build()
        .unwrap();
    let data = "x,c\r\n1,a\r\n2,b\r\n";
    let t = csv::read_table(data.as_bytes(), &schema).expect("CRLF parses");
    assert_eq!(t.num_rows(), 2);
    assert_eq!(t.row(1).value(1), Value::Cat("b".into()));
}

#[test]
fn errors_are_reported_not_panicked() {
    // Empty table.
    let schema = Schema::builder().quantitative("x").build().unwrap();
    let t = Table::new(schema.clone());
    assert!(matches!(
        Miner::new(base_config()).mine(&t),
        Err(MinerError::Schema(TableError::EmptyTable))
    ));
    // Bad thresholds.
    let mut one = Table::new(schema);
    one.push_row(&[Value::Int(1)]).unwrap();
    for (minsup, maxsup) in [(0.0, 1.0), (-1.0, 1.0), (0.5, 0.2), (1.1, 1.2)] {
        let mut cfg = base_config();
        cfg.min_support = minsup;
        cfg.max_support = maxsup;
        assert!(
            matches!(
                Miner::new(cfg.clone()).mine(&one),
                Err(MinerError::Config(_))
            ),
            "minsup {minsup} maxsup {maxsup} must be rejected"
        );
    }
}

#[test]
fn very_high_minsup_yields_empty_output() {
    let schema = Schema::builder()
        .quantitative("x")
        .categorical("c")
        .build()
        .unwrap();
    let mut t = Table::new(schema);
    for i in 0..20 {
        t.push_row(&[
            Value::Int(i),
            Value::from(if i % 2 == 0 { "a" } else { "b" }),
        ])
        .unwrap();
    }
    let mut cfg = base_config();
    cfg.min_support = 1.0;
    cfg.max_support = 1.0;
    let out = Miner::new(cfg.clone()).mine(&t).expect("mines");
    // Only the full x-range is in every record.
    assert!(out.frequent.total() <= 1);
    assert!(out.rules.is_empty());
}

#[test]
fn kmeans_strategy_end_to_end() {
    use quantrules::core::PartitionStrategy;
    // Bimodal data: k-means should split at the gap.
    let schema = Schema::builder()
        .quantitative("x")
        .categorical("c")
        .build()
        .unwrap();
    let mut t = Table::new(schema);
    for i in 0..60 {
        let x = if i % 2 == 0 { i % 10 } else { 100 + i % 10 };
        let c = if x < 50 { "low" } else { "high" };
        t.push_row(&[Value::Int(x), Value::from(c)]).unwrap();
    }
    let mut cfg = base_config();
    cfg.partitioning = PartitionSpec::FixedIntervals(2);
    cfg.partition_strategy = PartitionStrategy::KMeans;
    cfg.min_support = 0.3;
    cfg.min_confidence = 0.9;
    let out = Miner::new(cfg.clone()).mine(&t).expect("mines");
    let rendered: Vec<String> = (0..out.rules.len()).map(|i| out.format_rule(i)).collect();
    assert!(
        rendered.iter().any(|r| r.contains("⇒ ⟨c: low⟩")),
        "k-means cluster rule missing from {rendered:?}"
    );
}

/// `-0.0` and `0` are one value: both are stored as `0`, so a column
/// holding both encodes at full resolution, and a fractional column shows
/// the merged value as `0`.
#[test]
fn negative_zero_beside_zero_mines_at_full_resolution() {
    let schema = Schema::builder()
        .quantitative("x")
        .categorical("c")
        .build()
        .unwrap();
    let input = "x,c\n-0.0,a\n0,b\n1,a\n2,b\n";
    let t = csv::read_table(input.as_bytes(), &schema).expect("parse");
    let out = Miner::new(base_config())
        .mine(&t)
        .expect("-0.0 beside 0 must encode");
    let x = quantrules::table::AttributeId(0);
    assert_eq!(out.encoded.codes(x), &[0, 0, 1, 2]);
    assert_eq!(out.encoded.encoder(x).describe_range(0, 0), "0");

    let fractional = "x,c\n-0.0,a\n0.5,b\n";
    let t = csv::read_table(fractional.as_bytes(), &schema).expect("parse");
    let encoded = quantrules::table::EncodedTable::encode_full_resolution(&t).unwrap();
    assert_eq!(encoded.encoder(x).describe_range(0, 1), "0..0.5");
}

//! Lemma 3, executable: mining over equi-depth-partitioned attributes
//! yields a K-complete set of itemsets w.r.t. mining the raw values.
//!
//! Both runs are decoded back to raw value bounds so itemsets from the two
//! encodings can be compared. The asserted level is the *achieved* K from
//! Equation (1) over the measured interval supports (the requested level
//! is only an upper bound when interval counts are rounded and ties
//! exist).

use quantrules::core::pipeline::build_encoders;
use quantrules::core::{Miner, MinerConfig, PartitionSpec};
use quantrules::itemset::Itemset;
use quantrules::partition::achieved_level;
use quantrules::partition::partitioner::interval_supports;
use quantrules::partition::{EquiDepth, Partitioner};
use quantrules::table::{AttributeId, EncodedTable, Schema, Table, Value};

/// Per-attribute raw bounds: `(attribute, lo, hi)`.
type Bounds = Vec<(u32, f64, f64)>;

/// Decode an itemset to per-attribute raw bounds (categorical values map
/// to their code, encoded identically across runs).
fn decode(itemset: &Itemset, table: &EncodedTable) -> Bounds {
    itemset
        .items()
        .iter()
        .map(|item| {
            let id = AttributeId(item.attr as usize);
            match table.encoder(id).numeric_bounds(item.lo, item.hi) {
                Some((lo, hi)) => (item.attr, lo, hi),
                None => (item.attr, item.lo as f64, item.hi as f64),
            }
        })
        .collect()
}

fn generalizes(g: &[(u32, f64, f64)], x: &[(u32, f64, f64)]) -> bool {
    g.len() == x.len()
        && g.iter()
            .zip(x)
            .all(|(a, b)| a.0 == b.0 && a.1 <= b.1 && b.2 <= a.2)
}

/// A small-domain correlated table: raw-value mining is only feasible for
/// modest cardinalities (the paper's very motivation for partitioning), so
/// the reference run uses attributes with ~30 distinct values.
fn small_domain_table(records: usize, seed: u64) -> Table {
    let schema = Schema::builder()
        .quantitative("a")
        .quantitative("b")
        .categorical("c")
        .build()
        .expect("static schema");
    let mut table = Table::with_capacity(schema, records);
    let mut state = seed;
    let mut next = move |m: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) % m) as i64
    };
    for _ in 0..records {
        let a = next(30);
        // b tracks a with noise; c tracks a's band.
        let b = (a + next(17) - 8).clamp(0, 29);
        let c = if a < 12 {
            "low"
        } else if a < 22 {
            "mid"
        } else {
            "high"
        };
        table
            .push_row(&[Value::Int(a), Value::Int(b), Value::from(c)])
            .expect("rows match schema");
    }
    table
}

#[test]
fn partitioned_mining_is_k_complete() {
    let table = &small_domain_table(4_000, 321);
    let minsup = 0.25;
    let requested_k = 3.0;
    // max_support must be 1.0: Lemmas 2-3 presuppose that *every* range
    // combination with minimum support is kept; the max-support cap
    // deliberately trades completeness for speed and would break the
    // guarantee (generalizations spanning partition boundaries can exceed
    // any cap).
    let base = MinerConfig {
        min_support: minsup,
        min_confidence: 0.5,
        max_support: 1.0,
        partitioning: PartitionSpec::None,
        partition_strategy: Default::default(),
        taxonomies: Default::default(),
        interest: None,
        max_itemset_size: 2,
        parallelism: None,
        kernel: Default::default(),
    };

    // Reference: raw values (no partitioning).
    let (raw_encoders, _) = build_encoders(table, &base).expect("encoders");
    let raw_encoded = EncodedTable::encode(table, raw_encoders).expect("encode");
    let (raw_frequent, _) = Miner::new(base.clone())
        .frequent_itemsets(&raw_encoded)
        .expect("mine");

    // Partitioned run at the requested completeness level.
    let mut part_cfg = base.clone();
    part_cfg.partitioning = PartitionSpec::CompletenessLevel(requested_k);
    let (part_encoders, intervals) = build_encoders(table, &part_cfg).expect("encoders");
    let part_encoded = EncodedTable::encode(table, part_encoders.clone()).expect("encode");
    let (part_frequent, _) = Miner::new(part_cfg.clone())
        .frequent_itemsets(&part_encoded)
        .expect("mine");
    assert!(
        intervals.iter().any(|i| i.is_some()),
        "test must actually partition something"
    );

    // The achieved level per Equation (1), from measured interval supports.
    let quant_ids = table.schema().quantitative_ids();
    let sups: Vec<Vec<(f64, bool)>> = quant_ids
        .iter()
        .map(|&id| {
            let col = table.column(id).as_quantitative().expect("quantitative");
            let k_intervals = intervals[id.index()].unwrap_or(0);
            let cuts = if k_intervals > 0 {
                let h = table.histogram(id);
                let h = h.as_quantitative().expect("quantitative");
                EquiDepth.cut_points(h.values(), h.counts(), k_intervals)
            } else {
                Vec::new()
            };
            interval_supports(col, &cuts)
        })
        .collect();
    // Lemma 3's n is the number of quantitative attributes an itemset can
    // hold; this test mines 2-itemsets, so n = 2.
    let k = achieved_level(2, minsup, &sups);

    // Every frequent itemset of the raw run must have a generalization in
    // the partitioned run within K× support.
    let part_decoded: Vec<(Bounds, u64)> = part_frequent
        .iter()
        .map(|(s, c)| (decode(s, &part_encoded), *c))
        .collect();
    let mut checked = 0;
    for (x, x_count) in raw_frequent.iter() {
        let xd = decode(x, &raw_encoded);
        let best = part_decoded
            .iter()
            .filter(|(g, _)| generalizes(g, &xd))
            .map(|(_, c)| *c)
            .min();
        let x_hat_count = best.unwrap_or_else(|| panic!("no generalization for {x}"));
        assert!(
            x_hat_count as f64 <= k * *x_count as f64 + 1e-9,
            "{x}: generalization support {x_hat_count} exceeds K={k:.2} × {x_count}"
        );
        checked += 1;
    }
    assert!(
        checked > 30,
        "only {checked} itemsets checked — too few to be meaningful"
    );
}

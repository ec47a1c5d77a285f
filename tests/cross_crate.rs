//! Cross-crate consistency: the quantitative miner, the boolean Apriori
//! over the Section 1.1 mapping, the PS91 baseline, and CSV I/O must all
//! agree where their domains overlap.

use quantrules::apriori::bridge::to_transactions;
use quantrules::apriori::{apriori, apriori_tid};
use quantrules::core::{Miner, MinerConfig, PartitionSpec};
use quantrules::itemset::Itemset;
use quantrules::ps91::{mine_pair_rules, Ps91Config};
use quantrules::table::{csv, AttributeId, EncodedTable, Schema, Table, Value};

fn synthetic_table(records: usize, seed: u64) -> Table {
    let schema = Schema::builder()
        .quantitative("q1")
        .categorical("c1")
        .quantitative("q2")
        .categorical("c2")
        .build()
        .expect("static schema");
    let mut t = Table::with_capacity(schema, records);
    let mut state = seed;
    let mut next = move |m: u64| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        ((state >> 33) % m) as i64
    };
    let c1s = ["x", "y", "z"];
    let c2s = ["u", "v"];
    for _ in 0..records {
        let q1 = next(8);
        let c1 = c1s[((q1 / 3) as usize).min(2)];
        let q2 = (q1 + next(4)).min(9);
        let c2 = c2s[next(2) as usize];
        t.push_row(&[
            Value::Int(q1),
            Value::from(c1),
            Value::Int(q2),
            Value::from(c2),
        ])
        .expect("rows match schema");
    }
    t
}

fn no_combining_config(minsup: f64) -> MinerConfig {
    MinerConfig {
        min_support: minsup,
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

/// Restricted to single-value items (width-1 ranges), the quantitative
/// miner's frequent itemsets must coincide with boolean Apriori over the
/// Figure 2 mapping — same sets, same supports.
#[test]
fn quantitative_restricted_to_values_equals_boolean_apriori() {
    let table = synthetic_table(400, 5);
    let encoded = EncodedTable::encode_full_resolution(&table).expect("encode");
    let minsup = 0.15;

    let (frequent, _) = Miner::new(no_combining_config(minsup))
        .frequent_itemsets(&encoded)
        .expect("mine");
    let mut quant_value_itemsets: Vec<(Vec<u32>, u64)> = frequent
        .iter()
        .filter(|(s, _)| s.items().iter().all(|i| i.lo == i.hi))
        .map(|(s, c)| {
            let ids: Vec<u32> = s
                .items()
                .iter()
                .map(|i| encode_bool_id(&encoded, i.attr, i.lo))
                .collect();
            (sorted(ids), *c)
        })
        .collect();
    quant_value_itemsets.sort();

    let (db, mapping) = to_transactions(&encoded);
    let bool_frequent = apriori(&db, minsup);
    let mut bool_itemsets: Vec<(Vec<u32>, u64)> = bool_frequent
        .iter()
        .map(|f| (f.items.clone(), f.support))
        .collect();
    bool_itemsets.sort();

    assert_eq!(quant_value_itemsets, bool_itemsets);
    // Sanity: the mapping covered every attribute.
    assert_eq!(mapping.num_items() as usize, total_cardinality(&encoded));
}

fn encode_bool_id(encoded: &EncodedTable, attr: u32, code: u32) -> u32 {
    let mut base = 0;
    for (id, _) in encoded.schema().iter() {
        if id.index() == attr as usize {
            return base + code;
        }
        base += encoded.cardinality(id);
    }
    unreachable!("attribute in schema")
}

fn total_cardinality(encoded: &EncodedTable) -> usize {
    encoded
        .schema()
        .iter()
        .map(|(id, _)| encoded.cardinality(id) as usize)
        .sum()
}

fn sorted(mut v: Vec<u32>) -> Vec<u32> {
    v.sort_unstable();
    v
}

/// Apriori and AprioriTid agree on the bridged table.
#[test]
fn apriori_variants_agree_on_bridge() {
    let table = synthetic_table(300, 9);
    let encoded = EncodedTable::encode_full_resolution(&table).expect("encode");
    let (db, _) = to_transactions(&encoded);
    for minsup in [0.05, 0.1, 0.3] {
        let a = apriori(&db, minsup);
        let t = apriori_tid(&db, minsup);
        assert_eq!(a.total(), t.total(), "minsup {minsup}");
        for level in &a.by_size {
            for f in level {
                assert_eq!(t.support_of(&f.items), Some(f.support));
            }
        }
    }
}

/// PS91 pair rules are exactly the width-1, 1⇒1 slice of the quantitative
/// miner's rules (same supports, same confidences).
#[test]
fn ps91_is_the_single_pair_slice() {
    let table = synthetic_table(400, 13);
    let encoded = EncodedTable::encode_full_resolution(&table).expect("encode");
    let minsup = 0.12;
    let minconf = 0.5;

    let (frequent, _) = Miner::new(no_combining_config(minsup))
        .frequent_itemsets(&encoded)
        .expect("mine");
    let rules = quantrules::core::generate_rules(&frequent, minconf);
    let mut quant_pairs: Vec<(u32, u32, u32, u32, u64)> = rules
        .iter()
        .filter(|r| {
            r.antecedent.len() == 1
                && r.consequent.len() == 1
                && r.antecedent.items()[0].lo == r.antecedent.items()[0].hi
                && r.consequent.items()[0].lo == r.consequent.items()[0].hi
        })
        .map(|r| {
            let a = r.antecedent.items()[0];
            let c = r.consequent.items()[0];
            (a.attr, a.lo, c.attr, c.lo, r.support)
        })
        .collect();
    quant_pairs.sort_unstable();

    let mut ps91: Vec<(u32, u32, u32, u32, u64)> = mine_pair_rules(
        &encoded,
        &Ps91Config {
            min_support: minsup,
            min_confidence: minconf,
        },
    )
    .into_iter()
    .map(|r| {
        (
            r.antecedent_attr.index() as u32,
            r.antecedent_code,
            r.consequent_attr.index() as u32,
            r.consequent_code,
            r.support_count,
        )
    })
    .collect();
    ps91.sort_unstable();

    assert_eq!(quant_pairs, ps91);
}

/// CSV round trip feeds the miner identically.
#[test]
fn csv_roundtrip_preserves_mining_results() {
    let table = synthetic_table(250, 3);
    let mut buf = Vec::new();
    csv::write_table(&mut buf, &table).expect("write");
    let reread = csv::read_table(buf.as_slice(), table.schema()).expect("read");
    assert_eq!(reread.num_rows(), table.num_rows());

    let config = no_combining_config(0.1);
    let a = Miner::new(config.clone())
        .mine(&table)
        .expect("mine original");
    let b = Miner::new(config.clone())
        .mine(&reread)
        .expect("mine reread");
    assert_eq!(a.frequent.total(), b.frequent.total());
    assert_eq!(a.rules.len(), b.rules.len());
    for (x, y) in a.rules.iter().zip(&b.rules) {
        assert_eq!(x, y);
    }
}

/// The full pipeline is deterministic: two runs over the same table give
/// byte-identical rule listings.
#[test]
fn pipeline_is_deterministic() {
    let table = synthetic_table(500, 77);
    let config = MinerConfig {
        min_support: 0.1,
        min_confidence: 0.4,
        max_support: 0.5,
        partitioning: PartitionSpec::FixedIntervals(4),
        partition_strategy: Default::default(),
        taxonomies: Default::default(),
        interest: Some(quantrules::core::InterestConfig {
            level: 1.2,
            mode: quantrules::core::InterestMode::SupportOrConfidence,
            prune_candidates: false,
        }),
        max_itemset_size: 0,
        parallelism: None,
    };
    let a = Miner::new(config.clone()).mine(&table).expect("run 1");
    let b = Miner::new(config.clone()).mine(&table).expect("run 2");
    let ra: Vec<String> = (0..a.rules.len()).map(|i| a.format_rule(i)).collect();
    let rb: Vec<String> = (0..b.rules.len()).map(|i| b.format_rule(i)).collect();
    assert_eq!(ra, rb);
    assert_eq!(a.interest, b.interest);
}

/// Mining is insensitive to record order (supports are counts).
#[test]
fn record_order_does_not_matter() {
    let table = synthetic_table(300, 21);
    // Rebuild with rows reversed.
    let mut reversed = Table::new(table.schema().clone());
    for i in (0..table.num_rows()).rev() {
        reversed
            .push_row(&table.row(i).to_values())
            .expect("same schema");
    }
    let config = no_combining_config(0.1);
    let a = Miner::new(config.clone()).mine(&table).expect("mine");
    let b = Miner::new(config.clone())
        .mine(&reversed)
        .expect("mine reversed");
    assert_eq!(a.frequent.total(), b.frequent.total());
    for (itemset, count) in a.frequent.iter() {
        let same: Option<u64> = b.frequent.support_of(itemset);
        assert_eq!(same, Some(*count), "{itemset}");
    }
}

/// Attribute order in the schema doesn't change what is found (only ids).
#[test]
fn rules_survive_schema_permutation() {
    let table = synthetic_table(300, 33);
    let config = no_combining_config(0.12);
    let out = Miner::new(config.clone()).mine(&table).expect("mine");

    // Permuted schema: move q2, c2 in front.
    let schema2 = Schema::builder()
        .quantitative("q2")
        .categorical("c2")
        .quantitative("q1")
        .categorical("c1")
        .build()
        .expect("schema");
    let mut permuted = Table::new(schema2);
    for i in 0..table.num_rows() {
        let v = table.row(i).to_values();
        permuted
            .push_row(&[v[2].clone(), v[3].clone(), v[0].clone(), v[1].clone()])
            .expect("permuted row");
    }
    let out2 = Miner::new(config.clone())
        .mine(&permuted)
        .expect("mine permuted");
    assert_eq!(out.frequent.total(), out2.frequent.total());
    assert_eq!(out.rules.len(), out2.rules.len());
}

/// Check the `Itemset` slice of the public API is actually reachable from
/// the facade crate (compile-time reexport smoke test).
#[test]
fn facade_reexports_compile() {
    let _ = Itemset::empty();
    let _ = AttributeId(0);
}

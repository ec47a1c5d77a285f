//! The miner's frequent itemsets checked against the references of
//! `qar_oracle::reference`: the brute-force enumerator, with its own
//! level 1, and the paper's counting with either backend pinned.

use qar_core::{mine_source, Miner, MinerConfig, PartitionSpec};
use qar_itemset::{Item, Itemset};
use qar_oracle::reference::{count_candidates_naive, naive_mine, ReferenceSource};
use qar_oracle::CounterKind;
use qar_table::{AttributeEncoder, EncodedTable, Schema, Table, Value};

/// Figure 3's People table with the Figure 3(b) Age partitioning.
fn people_fig3() -> EncodedTable {
    let schema = Schema::builder()
        .quantitative("age")
        .categorical("married")
        .quantitative("num_cars")
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
    let h = t.histograms();
    let encoders = vec![
        AttributeEncoder::quant_intervals_from(
            h[0].as_quantitative().unwrap(),
            vec![25.0, 30.0, 35.0],
        ),
        AttributeEncoder::categorical_from(h[1].as_categorical().unwrap()),
        AttributeEncoder::quant_values_from(h[2].as_quantitative().unwrap()),
    ];
    EncodedTable::encode(&t, encoders).unwrap()
}

fn fig3_config() -> MinerConfig {
    MinerConfig {
        min_support: 0.4,
        min_confidence: 0.5,
        max_support: 1.0,
        partitioning: PartitionSpec::None, // already encoded
        interest: None,
        ..MinerConfig::default()
    }
}

#[test]
fn all_reported_supports_are_exact() {
    let enc = people_fig3();
    let (frequent, _) = Miner::new(fig3_config()).frequent_itemsets(&enc).unwrap();
    for (itemset, count) in frequent.iter() {
        let recount = count_candidates_naive(&enc, std::slice::from_ref(itemset))[0];
        assert_eq!(*count, recount, "{itemset}");
    }
}

/// The reference source pinned to the array and to the R*-tree finds the
/// miner's itemsets and supports.
#[test]
fn counting_backends_agree_end_to_end() {
    let enc = people_fig3();
    let cfg = fig3_config();
    let (miner, _) = Miner::new(cfg.clone()).frequent_itemsets(&enc).unwrap();
    for kind in [CounterKind::Array, CounterKind::RTree] {
        let mut source = ReferenceSource::new(&enc, Some(kind), 2);
        let pinned = mine_source(&mut source, &cfg, None, None).unwrap().frequent;
        assert_eq!(pinned.total(), miner.total(), "{kind:?}");
        for (itemset, count) in miner.iter() {
            assert_eq!(pinned.support_of(itemset), Some(*count), "{kind:?}");
        }
    }
}

fn tiny_table() -> EncodedTable {
    let schema = Schema::builder()
        .quantitative("a")
        .categorical("b")
        .quantitative("c")
        .build()
        .unwrap();
    let mut t = Table::new(schema);
    let rows = [
        (1, "x", 10),
        (2, "x", 10),
        (2, "y", 20),
        (3, "y", 20),
        (3, "x", 30),
        (4, "y", 30),
        (1, "x", 20),
        (2, "y", 10),
    ];
    for (a, b, c) in rows {
        t.push_row(&[Value::Int(a), Value::from(b), Value::Int(c)])
            .unwrap();
    }
    EncodedTable::encode_full_resolution(&t).unwrap()
}

fn tiny_config(min_support: f64, max_support: f64) -> MinerConfig {
    MinerConfig {
        min_support,
        min_confidence: 0.5,
        max_support,
        partitioning: PartitionSpec::None,
        interest: None,
        ..MinerConfig::default()
    }
}

#[test]
fn naive_matches_real_miner() {
    let enc = tiny_table();
    for (minsup, maxsup) in [(0.2, 1.0), (0.3, 0.6), (0.5, 0.7), (0.125, 0.5)] {
        let config = tiny_config(minsup, maxsup);
        let naive = naive_mine(&enc, &config);
        let (real, _) = Miner::new(config.clone()).frequent_itemsets(&enc).unwrap();
        assert_eq!(
            naive.total(),
            real.total(),
            "minsup {minsup} maxsup {maxsup}: naive {} vs real {}",
            naive.total(),
            real.total()
        );
        for (itemset, count) in naive.iter() {
            assert_eq!(
                real.support_of(itemset),
                Some(*count),
                "missing {itemset} at minsup {minsup}"
            );
        }
    }
}

#[test]
fn scan_support_agrees_with_counts() {
    let enc = tiny_table();
    let naive = naive_mine(&enc, &tiny_config(0.25, 1.0));
    for (itemset, count) in naive.iter() {
        assert_eq!(
            count_candidates_naive(&enc, std::slice::from_ref(itemset)),
            [*count]
        );
    }
}

/// The enumerator's level 1 follows Section 2's rules at the max-support
/// boundary: a range or taxonomy group whose support equals the cap is
/// kept and one above it is not, while single values above the cap stay.
#[test]
fn naive_level_one_caps_ranges_and_groups_at_max_support() {
    let schema = Schema::builder()
        .quantitative("q")
        .categorical("t")
        .build()
        .unwrap();
    let mut t = Table::new(schema);
    // q: 0 ×5, 1 ×1, 2 ×2, 3 ×2; t: a ×2, b ×2, c ×6 under the groups
    // ab = {a, b} (4 rows) and its parent all = {a, b, c} (10 rows).
    for (q, label) in [(0, "a"), (0, "a"), (0, "b"), (0, "b"), (0, "c")]
        .into_iter()
        .chain([(1, "c"), (2, "c"), (2, "c"), (3, "c"), (3, "c")])
    {
        t.push_row(&[Value::Int(q), Value::from(label)]).unwrap();
    }
    let edges = [("a", "ab"), ("b", "ab"), ("ab", "all"), ("c", "all")];
    let taxonomy = qar_table::Taxonomy::from_edges(&edges).unwrap();
    let config = MinerConfig {
        max_itemset_size: 1,
        taxonomies: [("t".to_string(), taxonomy)].into_iter().collect(),
        ..tiny_config(0.2, 0.4)
    };
    let mut miner = Miner::new(config.clone());
    let enc = miner.mine(&t).unwrap().encoded;
    let naive = naive_mine(&enc, &config);
    let items: Vec<(Item, u64)> = naive.levels[0]
        .iter()
        .map(|(set, count)| (set.items()[0], *count))
        .collect();
    // min_count = 2, max_count = 4: the single value q = 0 (5 rows) and
    // the range q = 2..3 (4 rows, on the cap) stay; q = 1..3 (5) goes.
    assert!(items.contains(&(Item::value(0, 0), 5)), "{items:?}");
    assert!(items.contains(&(Item::range(0, 2, 3), 4)), "{items:?}");
    assert!(items.iter().all(|&(item, _)| item != Item::range(0, 1, 3)));
    let groups = enc.encoder(qar_table::AttributeId(1)).taxonomy_groups();
    assert_eq!(groups.len(), 2);
    for &(ref name, lo, hi) in groups {
        let count = count_candidates_naive(&enc, &[Itemset::singleton(Item::range(1, lo, hi))])[0];
        let kept = items.contains(&(Item::range(1, lo, hi), count));
        assert_eq!(kept, (2..=4).contains(&count), "group {name}: {count} rows");
    }
    let (real, _) = Miner::new(config).frequent_itemsets(&enc).unwrap();
    assert_eq!(naive.levels, real.levels);
}

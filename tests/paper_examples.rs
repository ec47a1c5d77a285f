//! The paper's worked examples (Figures 1–3), end to end through the
//! public API.

use quantrules::apriori::bridge::to_transactions;
use quantrules::core::{Miner, MinerConfig, PartitionSpec};
use quantrules::datagen::people::fig3_age_cuts;
use quantrules::datagen::people_table;
use quantrules::itemset::{Item, Itemset};
use quantrules::table::{AttributeEncoder, AttributeId, EncodedTable, Histogram};

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
        kernel: Default::default(),
    }
}

/// Figure 1: both sample rules, with their exact support and confidence.
#[test]
fn figure_1_sample_rules() {
    let out = Miner::new(fig1_config())
        .mine(&people_table())
        .expect("mining succeeds");
    let rendered: Vec<String> = (0..out.rules.len()).map(|i| out.format_rule(i)).collect();
    assert!(rendered.iter().any(
        |r| r.contains("⟨Age: 34..38⟩ and ⟨Married: Yes⟩ ⇒ ⟨NumCars: 2⟩")
            && r.contains("40.0% sup, 100.0% conf")
    ));
    assert!(rendered
        .iter()
        .any(|r| r.contains("⟨NumCars: 0..1⟩ ⇒ ⟨Married: No⟩")
            && r.contains("40.0% sup, 66.7% conf")));
}

/// Figure 2: the boolean mapping of the People table.
#[test]
fn figure_2_boolean_mapping() {
    let table = people_table();
    let encoded = EncodedTable::encode_full_resolution(&table).expect("encode");
    let (db, mapping) = to_transactions(&encoded);
    // 5 age values + 2 married + 3 num_cars = 10 boolean fields.
    assert_eq!(mapping.num_items(), 10);
    assert_eq!(db.len(), 5);
    // Record 100 (row 0): Age=23 (code 0), Married=No (code 0), NumCars=1
    // (code 1) — exactly three 1-fields, as in the figure.
    let age = table.schema().id_of("Age").unwrap();
    let married = table.schema().id_of("Married").unwrap();
    let cars = table.schema().id_of("NumCars").unwrap();
    let expected = {
        let mut v = vec![
            mapping.item_id(age, 0),
            mapping.item_id(married, 0),
            mapping.item_id(cars, 1),
        ];
        v.sort_unstable();
        v
    };
    assert_eq!(db.transaction(0), expected.as_slice());
}

/// Figure 3: partitioning Age per Figure 3(b), mapping per 3(d), frequent
/// itemsets per 3(f), rules per 3(g).
#[test]
fn figure_3_problem_decomposition() {
    let table = people_table();
    let histograms = table.histograms();
    let [Histogram::Quantitative(ages), Histogram::Categorical(married), Histogram::Quantitative(cars)] =
        histograms.as_slice()
    else {
        panic!("Age, Married, NumCars");
    };
    let encoders = vec![
        AttributeEncoder::quant_intervals_from(ages, fig3_age_cuts()),
        AttributeEncoder::categorical_from(married),
        AttributeEncoder::quant_values_from(cars),
    ];
    let encoded = EncodedTable::encode(&table, encoders).expect("encode");

    // Figure 3(e): the mapped table. Age codes per row: 23→0, 25→1, 29→1,
    // 34→2, 38→3. NumCars codes are the values. Married: Yes→1, No→0
    // (sorted dictionary; the paper's arbitrary mapping uses 1/2).
    assert_eq!(encoded.codes(AttributeId(0)), &[0, 1, 1, 2, 3]);
    assert_eq!(encoded.codes(AttributeId(1)), &[0, 1, 0, 1, 1]);
    assert_eq!(encoded.codes(AttributeId(2)), &[1, 1, 0, 2, 2]);

    // Figure 3(f): sample frequent itemsets at minsup 40 % (= 2 records).
    let (frequent, _) = Miner::new(fig1_config())
        .frequent_itemsets(&encoded)
        .expect("mine");
    let support = |items: Vec<Item>| frequent.support_of(&Itemset::new(items));
    assert_eq!(support(vec![Item::range(0, 2, 3)]), Some(2)); // ⟨Age: 30..39⟩
    assert_eq!(support(vec![Item::range(0, 0, 1)]), Some(3)); // ⟨Age: 20..29⟩
    assert_eq!(support(vec![Item::value(1, 1)]), Some(3)); // ⟨Married: Yes⟩
    assert_eq!(support(vec![Item::value(1, 0)]), Some(2)); // ⟨Married: No⟩
    assert_eq!(support(vec![Item::range(2, 0, 1)]), Some(3)); // ⟨NumCars: 0..1⟩
    assert_eq!(
        support(vec![Item::range(0, 2, 3), Item::value(1, 1)]),
        Some(2)
    ); // ⟨Age: 30..39⟩ ⟨Married: Yes⟩

    // Figure 3(g): both sample rules.
    let rules = quantrules::core::generate_rules(&frequent, 0.5);
    let headline_ant = Itemset::new(vec![Item::range(0, 2, 3), Item::value(1, 1)]);
    let headline = rules
        .iter()
        .find(|r| {
            r.antecedent == headline_ant && r.consequent == Itemset::singleton(Item::value(2, 2))
        })
        .expect("⟨Age: 30..39⟩ and ⟨Married: Yes⟩ ⇒ ⟨NumCars: 2⟩");
    assert_eq!(headline.support, 2);
    assert_eq!(headline.confidence, 1.0);

    let age_rule = rules
        .iter()
        .find(|r| {
            r.antecedent == Itemset::singleton(Item::range(0, 0, 1))
                && r.consequent == Itemset::singleton(Item::range(2, 0, 1))
        })
        .expect("⟨Age: 20..29⟩ ⇒ ⟨NumCars: 0..1⟩");
    // 60 % support, 100 % confidence over the 5 records: 3 of 3 young
    // records have 0..1 cars. (The paper's figure prints 66.6 % because it
    // lists the rule for an earlier variant of the table; the support of
    // the itemset is what Figure 3(f) fixes, and 3/3 follows from it.)
    assert_eq!(age_rule.support, 3);
}

/// Section 3.1's worked 1.5-completeness example over hand-built itemsets.
#[test]
fn section_3_1_partial_completeness_example() {
    // Itemsets (supports %): 1:{age 20..30} 5, 2:{age 20..40} 6,
    // 3:{age 20..50} 8, 4:{cars 1..2} 5, 5:{cars 1..3} 6,
    // 6:{age 20..30, cars 1..2} 4, 7:{age 20..40, cars 1..3} 5.
    let age = |lo, hi| Item::range(0, lo, hi);
    let cars = |lo, hi| Item::range(1, lo, hi);
    let all: Vec<(Itemset, f64)> = vec![
        (Itemset::new(vec![age(20, 30)]), 5.0),
        (Itemset::new(vec![age(20, 40)]), 6.0),
        (Itemset::new(vec![age(20, 50)]), 8.0),
        (Itemset::new(vec![cars(1, 2)]), 5.0),
        (Itemset::new(vec![cars(1, 3)]), 6.0),
        (Itemset::new(vec![age(20, 30), cars(1, 2)]), 4.0),
        (Itemset::new(vec![age(20, 40), cars(1, 3)]), 5.0),
    ];
    // P = {2, 3, 5, 7} is 1.5-complete: every itemset has a generalization
    // in P within 1.5x support.
    let p: Vec<usize> = vec![1, 2, 4, 6];
    for (x, x_sup) in &all {
        let ok = p.iter().any(|&i| {
            let (g, g_sup) = &all[i];
            g.generalizes(x) && *g_sup <= 1.5 * x_sup
        });
        assert!(ok, "{x} lacks a close generalization");
    }
    // {3, 5, 7} alone is NOT 1.5-complete: itemset 1's only generalization
    // is 3, whose support is 8 > 1.5 × 5.
    let q: Vec<usize> = vec![2, 4, 6];
    let (x1, x1_sup) = &all[0];
    let covered = q.iter().any(|&i| {
        let (g, g_sup) = &all[i];
        g.generalizes(x1) && *g_sup <= 1.5 * x1_sup
    });
    assert!(!covered, "the paper says {{3,5,7}} is not 1.5-complete");
}

//! End-to-end taxonomy mining: generalized categorical rules that no
//! single leaf value could support (the \[SA95\] connection the paper
//! points out: "the taxonomy can be used to implicitly combine values of
//! a categorical attribute").

use quantrules::core::{Miner, MinerConfig, PartitionSpec};
use quantrules::table::{Schema, Table, Taxonomy, Value};

const WEST: [&str; 4] = ["CA", "WA", "OR", "NV"];
const EAST: [&str; 4] = ["NY", "MA", "NJ", "CT"];

fn regions() -> Taxonomy {
    let mut edges: Vec<(&str, &str)> = Vec::new();
    for s in WEST {
        edges.push((s, "West"));
    }
    for s in EAST {
        edges.push((s, "East"));
    }
    edges.push(("West", "USA"));
    edges.push(("East", "USA"));
    Taxonomy::from_edges(&edges).unwrap()
}

/// Eight states at ~12.5 % support each; West stores sell high, East
/// stores sell low (with noise).
fn store_table(records: usize, seed: u64) -> Table {
    let schema = Schema::builder()
        .categorical("state")
        .quantitative("sales")
        .build()
        .unwrap();
    let mut t = Table::with_capacity(schema, records);
    let mut state = seed;
    let mut next = move |m: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) % m) as usize
    };
    for _ in 0..records {
        let west = next(2) == 0;
        let st = if west { WEST[next(4)] } else { EAST[next(4)] };
        let sales = if west {
            70 + next(30) as i64 // 70..99
        } else {
            10 + next(30) as i64 // 10..39
        };
        // 10% noise crossing the pattern.
        let sales = if next(10) == 0 { 100 - sales } else { sales };
        t.push_row(&[Value::from(st), Value::Int(sales)]).unwrap();
    }
    t
}

fn config_with_taxonomy() -> MinerConfig {
    let mut taxonomies = std::collections::BTreeMap::new();
    taxonomies.insert("state".to_string(), regions());
    MinerConfig {
        min_support: 0.2,
        min_confidence: 0.7,
        max_support: 0.6,
        partitioning: PartitionSpec::FixedIntervals(10),
        partition_strategy: Default::default(),
        taxonomies,
        interest: None,
        max_itemset_size: 0,
        parallelism: None,
    }
}

#[test]
fn region_rule_emerges_where_no_state_rule_can() {
    let table = store_table(8_000, 42);
    let out = Miner::new(config_with_taxonomy())
        .mine(&table)
        .expect("mining succeeds");
    let rendered: Vec<String> = (0..out.rules.len()).map(|i| out.format_rule(i)).collect();

    // The region-level rule must exist and render by its taxonomy name.
    let west_rule = rendered
        .iter()
        .find(|r| r.starts_with("⟨state: West⟩ ⇒ ⟨sales:"))
        .unwrap_or_else(|| panic!("no West rule in {rendered:#?}"));
    assert!(west_rule.contains("% conf"));

    // No single state reaches the 20 % support floor, so no leaf rule.
    for st in WEST.iter().chain(EAST.iter()) {
        assert!(
            !rendered
                .iter()
                .any(|r| r.contains(&format!("⟨state: {st}⟩"))),
            "leaf rule for {st} should be below minsup"
        );
    }

    // The East region implies low sales symmetrically.
    assert!(rendered
        .iter()
        .any(|r| r.starts_with("⟨state: East⟩ ⇒ ⟨sales:")));
}

#[test]
fn taxonomy_supports_are_exact() {
    let table = store_table(3_000, 7);
    let out = Miner::new(config_with_taxonomy())
        .mine(&table)
        .expect("mining succeeds");
    for (itemset, count) in out.frequent.iter() {
        let recount = qar_oracle::reference::count_candidates_naive(
            &out.encoded,
            std::slice::from_ref(itemset),
        )[0];
        assert_eq!(*count, recount, "{itemset}");
    }
}

#[test]
fn without_taxonomy_the_region_rule_is_invisible() {
    let table = store_table(8_000, 42);
    let mut cfg = config_with_taxonomy();
    cfg.taxonomies.clear();
    let out = Miner::new(cfg.clone())
        .mine(&table)
        .expect("mining succeeds");
    let rendered: Vec<String> = (0..out.rules.len()).map(|i| out.format_rule(i)).collect();
    assert!(
        !rendered
            .iter()
            .any(|r| r.contains("West") || r.contains("East")),
        "region names cannot appear without the taxonomy: {rendered:?}"
    );
    // And no state-antecedent rules exist at all (each leaf ~12.5% < 20%).
    assert!(!rendered.iter().any(|r| r.starts_with("⟨state:")));
}

#[test]
fn interest_measure_handles_taxonomy_generalizations() {
    // With the USA-level rule present (support 100 % antecedent), region
    // rules are its specializations; the interest machinery must process
    // the generalization lattice over taxonomy ranges without panicking
    // and keep the region rules (their confidence far exceeds the
    // USA-level expectation).
    let table = store_table(8_000, 99);
    let mut cfg = config_with_taxonomy();
    cfg.max_support = 1.0; // let the USA node through
    cfg.interest = Some(quantrules::core::InterestConfig {
        level: 1.3,
        mode: quantrules::core::InterestMode::SupportOrConfidence,
        prune_candidates: false,
    });
    let out = Miner::new(cfg.clone())
        .mine(&table)
        .expect("mining succeeds");
    let verdicts = out.interest.as_ref().expect("configured");
    let west_interesting = out.rules.iter().zip(verdicts).any(|(r, v)| {
        v.interesting
            && quantrules::core::output::format_itemset(&r.antecedent, &out.encoded)
                == "⟨state: West⟩"
    });
    assert!(
        west_interesting,
        "West rule should survive the interest filter"
    );
}

//! Taxonomy-generalized rules: a retail chain's per-store records where no
//! single state clears the support floor, but region-level patterns do.
//!
//! The paper: "the taxonomy can be used to implicitly combine values of a
//! categorical attribute (see [SA95]) ... somewhat similar to considering
//! ranges over quantitative attributes." This implementation makes that
//! literal — states are numbered in taxonomy DFS order, so `West` is a
//! contiguous code range and rides the same machinery as `⟨Age: 30..39⟩`.
//!
//! Run with: `cargo run --release --example retail_regions`

use qar_prng::Prng;
use quantrules::core::{Miner, MinerConfig, PartitionSpec};
use quantrules::table::{Schema, Table, Taxonomy, Value};

fn main() {
    // A three-level taxonomy: states -> regions -> USA.
    let taxonomy = Taxonomy::from_edges(&[
        ("CA", "West"),
        ("WA", "West"),
        ("OR", "West"),
        ("NV", "West"),
        ("NY", "East"),
        ("MA", "East"),
        ("NJ", "East"),
        ("CT", "East"),
        ("West", "USA"),
        ("East", "USA"),
    ])
    .expect("valid taxonomy");

    // Synthetic store records: West stores sell big-ticket items.
    let schema = Schema::builder()
        .categorical("state")
        .quantitative("avg_ticket")
        .quantitative("footfall")
        .build()
        .expect("schema");
    let mut table = Table::new(schema);
    let mut rng = Prng::seed_from_u64(1996);
    let west = ["CA", "WA", "OR", "NV"];
    let east = ["NY", "MA", "NJ", "CT"];
    for _ in 0..30_000 {
        let is_west = rng.gen_bool(0.5);
        let state = if is_west {
            west[rng.gen_range(0..4)]
        } else {
            east[rng.gen_range(0..4)]
        };
        let ticket: i64 = if is_west {
            rng.gen_range(60..120)
        } else {
            rng.gen_range(15..70)
        };
        let footfall: i64 = rng.gen_range(100..1000);
        table
            .push_row(&[Value::from(state), Value::Int(ticket), Value::Int(footfall)])
            .expect("row");
    }

    let mut taxonomies = std::collections::BTreeMap::new();
    taxonomies.insert("state".to_string(), taxonomy);
    let config = MinerConfig {
        min_support: 0.2,
        min_confidence: 0.6,
        max_support: 0.6,
        partitioning: PartitionSpec::FixedIntervals(12),
        partition_strategy: Default::default(),
        taxonomies,
        interest: None,
        max_itemset_size: 2,
        parallelism: None,
    };
    let out = Miner::new(config).mine(&table).expect("mining succeeds");
    println!(
        "{} records, {} frequent itemsets, {} rules\n",
        table.num_rows(),
        out.frequent.total(),
        out.rules.len()
    );

    println!("Region-level rules (each state alone sits at ~12.5% support, below the 20% floor):");
    for i in 0..out.rules.len() {
        let rendered = out.format_rule(i);
        if rendered.contains("West") || rendered.contains("East") {
            println!("  {rendered}");
        }
    }

    let leaf_rules = (0..out.rules.len())
        .map(|i| out.format_rule(i))
        .filter(|r| {
            ["CA", "WA", "OR", "NV", "NY", "MA", "NJ", "CT"]
                .iter()
                .any(|s| r.contains(&format!("⟨state: {s}⟩")))
        })
        .count();
    println!("\nState-level (leaf) rules found: {leaf_rules} — the taxonomy is what makes the pattern visible.");
}

//! A marketing-survey scenario: who owns how many cars?
//!
//! Demonstrates the knobs the paper introduces — maximum support,
//! partial-completeness-driven partitioning, and the interest measure —
//! on a synthetic survey with planted demographics, including recovery of
//! the planted ground-truth rules.
//!
//! Run with: `cargo run --release --example marketing_survey`

use quantrules::core::{InterestConfig, InterestMode, Miner, MinerConfig, PartitionSpec};
use quantrules::datagen::{PlantedConfig, PlantedDataset};

fn main() {
    // A survey with two planted patterns:
    //   x0 ∈ [20..39]  ⇒  c = "A"        (90 % confidence)
    //   x0 ∈ [60..79]  ⇒  x1 ∈ [10..19]  (85 % confidence)
    let data = PlantedDataset::generate(PlantedConfig {
        num_records: 20_000,
        seed: 2026,
    });
    println!(
        "Survey: {} records, planted rules: {:#?}",
        data.table.num_rows(),
        data.rules
    );

    let config = MinerConfig {
        min_support: 0.1,
        min_confidence: 0.6,
        max_support: 0.3,
        partitioning: PartitionSpec::None, // x-attributes have 100 values
        partition_strategy: Default::default(),
        taxonomies: Default::default(),
        interest: Some(InterestConfig {
            level: 1.2,
            mode: InterestMode::SupportOrConfidence,
            prune_candidates: false,
        }),
        max_itemset_size: 2,
        parallelism: None,
    };
    let output = Miner::new(config)
        .mine(&data.table)
        .expect("mining succeeds");
    println!(
        "\n{} rules at ≥60% confidence, {} interesting.",
        output.stats.rules_total, output.stats.rules_interesting
    );

    // Did we recover the planted rules? Look for mined rules whose
    // rendered form names the planted ranges.
    for needle in ["⟨x0: 20..39⟩ ⇒ ⟨c: A⟩", "⟨x0: 60..79⟩ ⇒ ⟨x1: 10..19⟩"] {
        let found = (0..output.rules.len())
            .map(|i| output.format_rule(i))
            .find(|r| r.contains(needle));
        match found {
            Some(r) => println!("recovered: {r}"),
            None => println!("NOT recovered: {needle}"),
        }
    }

    // Show how the interest measure trims near-duplicate range rules.
    let verdicts = output.interest.as_ref().expect("configured");
    let x0_to_c: Vec<usize> = (0..output.rules.len())
        .filter(|&i| {
            let r = &output.rules[i];
            r.antecedent.attributes() == vec![0] && r.consequent.attributes() == vec![3]
        })
        .collect();
    let kept = x0_to_c.iter().filter(|&&i| verdicts[i].interesting).count();
    println!(
        "\nx0 ⇒ c rules: {} mined, {} kept by the interest measure",
        x0_to_c.len(),
        kept
    );
}

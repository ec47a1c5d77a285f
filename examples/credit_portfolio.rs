//! Mine a credit-card portfolio — the Section 6 scenario.
//!
//! Generates the simulated "real-life" dataset (five quantitative, two
//! categorical attributes), partitions the quantitative attributes to a
//! chosen partial-completeness level, mines, and prints the interesting
//! rules the greater-than-expected-value measure keeps.
//!
//! Run with: `cargo run --release --example credit_portfolio [records] [K]`

use quantrules::core::{InterestConfig, InterestMode, Miner, MinerConfig, PartitionSpec};
use quantrules::datagen::{CreditConfig, CreditDataset};

fn main() {
    let records: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(50_000);
    let completeness: f64 = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(2.0);

    println!("Generating {records} credit records (seed fixed)...");
    let data = CreditDataset::generate(CreditConfig {
        num_records: records,
        ..CreditConfig::default()
    });

    // Section 6 parameters: minsup 20 %, minconf 25 %, maxsup 40 %.
    let config = MinerConfig {
        min_support: 0.20,
        min_confidence: 0.25,
        max_support: 0.40,
        partitioning: PartitionSpec::CompletenessLevel(completeness),
        partition_strategy: Default::default(),
        taxonomies: Default::default(),
        interest: Some(InterestConfig {
            level: 1.5,
            mode: InterestMode::SupportOrConfidence,
            prune_candidates: false,
        }),
        max_itemset_size: 0,
        parallelism: None,
    };

    let output = Miner::new(config)
        .mine(&data.table)
        .expect("mining succeeds");

    println!(
        "Partial completeness K = {completeness}; intervals per attribute: {:?}",
        output.stats.intervals_per_attribute
    );
    println!(
        "Frequent itemsets per level: {:?}",
        output
            .frequent
            .levels
            .iter()
            .map(|l| l.len())
            .collect::<Vec<_>>()
    );
    println!(
        "{} rules total; {} interesting (interest level 1.5). Mining took {:?}.",
        output.stats.rules_total, output.stats.rules_interesting, output.stats.elapsed_mining
    );

    // Show the most confident interesting rules.
    let verdicts = output.interest.as_ref().expect("interest configured");
    let mut interesting: Vec<usize> = (0..output.rules.len())
        .filter(|&i| verdicts[i].interesting)
        .collect();
    interesting.sort_by(|&a, &b| {
        output.rules[b]
            .confidence
            .total_cmp(&output.rules[a].confidence)
    });
    println!("\nTop interesting rules by confidence:");
    for &i in interesting.iter().take(15) {
        println!("  {}", output.format_rule(i));
    }
}

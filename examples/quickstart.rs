//! Quickstart: mine the paper's five-record People table (Figure 1) and
//! print the rules it reports.
//!
//! Run with: `cargo run --example quickstart`

use quantrules::core::{Miner, MinerConfig, PartitionSpec};
use quantrules::datagen::people_table;

fn main() {
    // The People table from Figure 1 of the paper:
    //   Age (quantitative), Married (categorical), NumCars (quantitative).
    let table = people_table();

    // Figure 1's parameters: minimum support 40 %, minimum confidence 50 %.
    // The table is tiny, so no partitioning and no maximum-support cap.
    let config = MinerConfig {
        min_support: 0.4,
        min_confidence: 0.5,
        max_support: 1.0,
        partitioning: PartitionSpec::None,
        partition_strategy: Default::default(),
        taxonomies: Default::default(),
        interest: None,
        max_itemset_size: 0,
        parallelism: None,
    };

    let output = Miner::new(config)
        .mine(&table)
        .expect("mining the example table succeeds");

    println!("People table: {} records", table.num_rows());
    println!(
        "Frequent itemsets: {} across {} levels",
        output.frequent.total(),
        output.frequent.levels.len()
    );
    println!("Rules at ≥50% confidence:\n");
    for i in 0..output.rules.len() {
        println!("  {}", output.format_rule(i));
    }

    // The paper's headline rule must be among them:
    //   ⟨Age: 30..39⟩ and ⟨Married: Yes⟩ ⇒ ⟨NumCars: 2⟩ (40% sup, 100% conf)
    let headline = (0..output.rules.len())
        .map(|i| output.format_rule(i))
        .find(|r| r.contains("⟨Age: 34..38⟩ and ⟨Married: Yes⟩ ⇒ ⟨NumCars: 2⟩"));
    println!(
        "\nFigure 1 headline rule: {}",
        headline.expect("the paper's rule is found")
    );
}

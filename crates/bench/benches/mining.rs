//! Microbench: the full quantitative mining pipeline on the simulated
//! Section 6 data, at three partial-completeness levels, plus the
//! rule-generation and interest stages separately.

use qar_bench::experiments::{credit, section6_config};
use qar_bench::harness::bench;
use qar_core::frequent::attribute_value_counts;
use qar_core::interest::ItemSupports;
use qar_core::pipeline::build_encoders;
use qar_core::{annotate_interest, generate_rules, InterestConfig, InterestMode, Miner};
use qar_table::EncodedTable;

fn main() {
    let data = credit(10_000);

    for k in [1.5f64, 2.0, 3.0] {
        let config = section6_config(0.20, 0.25, k, None);
        let (encoders, _) = build_encoders(&data.table, &config).expect("encoders");
        let encoded = EncodedTable::encode(&data.table, encoders).expect("encode");
        let miner = Miner::new(config.clone());
        bench(&format!("mine_encoded/K{k}"), || {
            miner.frequent_itemsets(&encoded).expect("mine").0.total()
        });
    }

    // Rule generation + interest on a fixed mining result.
    let config = section6_config(0.20, 0.25, 1.5, None);
    let (encoders, _) = build_encoders(&data.table, &config).expect("encoders");
    let encoded = EncodedTable::encode(&data.table, encoders).expect("encode");
    let (frequent, _) = Miner::new(config.clone())
        .frequent_itemsets(&encoded)
        .expect("mine");
    bench("generate_rules/K1.5", || {
        generate_rules(&frequent, 0.25).len()
    });
    let rules = generate_rules(&frequent, 0.25);
    let supports = ItemSupports::from_value_counts(
        &attribute_value_counts(&encoded),
        encoded.num_rows() as u64,
    );
    bench("interest/K1.5", || {
        let verdicts = annotate_interest(
            &rules,
            &frequent,
            &supports,
            &InterestConfig {
                level: 1.1,
                mode: InterestMode::SupportOrConfidence,
                prune_candidates: false,
            },
        );
        verdicts.iter().filter(|v| v.interesting).count()
    });
}

//! Baselines from the paper's Sections 1.1 and 1.3:
//!
//! * **base-bool** — map the table to boolean items over fixed intervals
//!   *without* combining adjacent ranges (Section 1.1's strawman) and run
//!   \[AS94\] Apriori. Demonstrates the paper's "catch-22": coarse
//!   intervals lose confidence (MinConf), fine intervals lose support
//!   (MinSup). Only the quantitative miner recovers the planted rule at
//!   every granularity.
//! * **base-ps91** — \[PS91\] single-⟨attribute, value⟩-pair rules: no
//!   ranges, no multi-attribute antecedents, so the planted range rule is
//!   invisible at any support threshold a single value can't clear.
//!
//! Usage: `cargo run --release -p qar-bench --bin baselines [records]`

use qar_apriori::bridge::to_transactions;
use qar_apriori::{apriori, generate_rules as bool_rules};
use qar_bench::experiments::{records_arg, row};
use qar_core::{Miner, MinerConfig, PartitionSpec};
use qar_datagen::{PlantedConfig, PlantedDataset};
use qar_partition::Partitioner;
use qar_ps91::{mine_pair_rules, Ps91Config};
use qar_table::{AttributeEncoder, AttributeId, EncodedTable, Histogram};

fn main() {
    let records = records_arg(50_000);
    println!("Baselines — planted-rule dataset, {records} records");
    println!("ground truth: x0 ∈ [20..39] ⇒ c = \"A\" at 90% confidence (20% support)\n");
    let data = PlantedDataset::generate(PlantedConfig {
        num_records: records,
        seed: 424242,
    });
    let minsup = 0.1;
    let minconf = 0.6;

    // --- The quantitative miner (ours). ---
    let config = MinerConfig {
        min_support: minsup,
        min_confidence: minconf,
        max_support: 0.3,
        partitioning: PartitionSpec::None,
        partition_strategy: Default::default(),
        taxonomies: Default::default(),
        interest: None,
        max_itemset_size: 2,
        parallelism: None,
    };
    let out = Miner::new(config)
        .mine(&data.table)
        .expect("mining succeeds");
    let recovered = (0..out.rules.len())
        .map(|i| out.format_rule(i))
        .find(|r| r.contains("⟨x0: 20..39⟩ ⇒ ⟨c: A⟩"));
    println!("quantitative miner (range combining, minsup 10%, minconf 60%):");
    match &recovered {
        Some(r) => println!("  RECOVERED: {r}"),
        None => println!("  NOT RECOVERED"),
    }

    // --- Section 1.1 boolean strawman at several fixed granularities. ---
    println!("\nbase-bool — boolean mapping, fixed intervals, no range combining:");
    let widths = [10usize, 16, 14, 20];
    println!(
        "{}",
        row(
            &[
                "intervals".into(),
                "best conf x0⇒A".into(),
                "rules found".into(),
                "failure mode".into(),
            ],
            &widths,
        )
    );
    for intervals in [2usize, 4, 10, 25] {
        let encoders: Vec<AttributeEncoder> = data
            .table
            .schema()
            .iter()
            .map(|(id, _)| match data.table.histogram(id) {
                Histogram::Categorical(labels) => AttributeEncoder::categorical_from(&labels),
                Histogram::Quantitative(values) => {
                    let cuts = qar_partition::EquiDepth.cut_points(
                        values.values(),
                        values.counts(),
                        intervals,
                    );
                    AttributeEncoder::quant_intervals_from(&values, cuts)
                }
            })
            .collect();
        let encoded = EncodedTable::encode(&data.table, encoders).expect("encode");
        let (db, mapping) = to_transactions(&encoded);
        let frequent = apriori(&db, minsup);
        let rules = bool_rules(&frequent, minconf);
        // Find rules ⟨x0 interval⟩ ⇒ ⟨c = A⟩.
        let x0 = AttributeId(0);
        let c_attr = data.table.schema().id_of("c").expect("attribute c");
        let a_code = encoded
            .encoder(c_attr)
            .encode("c", &qar_table::Value::from("A"))
            .expect("label A");
        let target_item = mapping.item_id(c_attr, a_code);
        let mut best_conf: Option<f64> = None;
        let mut found = 0;
        for r in &rules {
            if r.consequent == vec![target_item]
                && r.antecedent.len() == 1
                && mapping.decode(r.antecedent[0]).0 == x0
            {
                found += 1;
                best_conf = Some(best_conf.map_or(r.confidence, |b: f64| b.max(r.confidence)));
            }
        }
        let failure = match (found, intervals) {
            (0, i) if i >= 10 => "MinSup: intervals too thin",
            (0, _) => "MinConf: intervals too coarse",
            _ if best_conf.unwrap_or(0.0) < 0.85 => "MinConf: diluted",
            _ => "partial (covers one interval)",
        };
        println!(
            "{}",
            row(
                &[
                    format!("{intervals}"),
                    best_conf.map_or("-".into(), |c| format!("{:.1}%", 100.0 * c)),
                    format!("{found}"),
                    failure.into(),
                ],
                &widths,
            )
        );
    }
    println!(
        "  (the strawman can at best report one fixed interval; it never reassembles\n   the true [20..39] antecedent, and fine partitionings drop below minsup)"
    );

    // --- PS91 single-pair rules. ---
    println!("\nbase-ps91 — single ⟨attribute, value⟩ pair rules:");
    let encoded = EncodedTable::encode_full_resolution(&data.table).expect("encode");
    let pair_rules = mine_pair_rules(
        &encoded,
        &Ps91Config {
            min_support: minsup,
            min_confidence: minconf,
        },
    );
    let x0 = AttributeId(0);
    let from_x0 = pair_rules
        .iter()
        .filter(|r| r.antecedent_attr == x0)
        .count();
    println!(
        "  {} pair rules total; {} with antecedent x0 (each x0 value has ~1% support,\n   far below minsup 10% — the planted range rule is structurally unreachable)",
        pair_rules.len(),
        from_x0
    );
}

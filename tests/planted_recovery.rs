//! End-to-end recovery oracle: rules planted by the generator must come
//! out of the full pipeline, and the interest measure must keep them.

use quantrules::core::{InterestConfig, InterestMode, Miner, MinerConfig, PartitionSpec};
use quantrules::datagen::{PlantedConfig, PlantedDataset};
use quantrules::itemset::{Item, Itemset};

fn config() -> MinerConfig {
    MinerConfig {
        min_support: 0.1,
        min_confidence: 0.6,
        max_support: 0.3,
        partitioning: PartitionSpec::None,
        partition_strategy: Default::default(),
        taxonomies: Default::default(),
        interest: None,
        max_itemset_size: 2,
        parallelism: None,
    }
}

#[test]
fn both_planted_rules_recovered_exactly() {
    let data = PlantedDataset::generate(PlantedConfig {
        num_records: 8_000,
        seed: 31337,
    });
    let out = Miner::new(config())
        .mine(&data.table)
        .expect("mining succeeds");
    // x0 values are 0..=99 and all present at this size, so code == value.
    // Rule 1: x0 ∈ [20..39] ⇒ c = "A" (c codes: A=0 in sorted dictionary).
    let r1 = out
        .rules
        .iter()
        .find(|r| {
            r.antecedent == Itemset::singleton(Item::range(0, 20, 39))
                && r.consequent == Itemset::singleton(Item::value(3, 0))
        })
        .expect("planted rule 1 missing");
    assert!(r1.confidence > 0.85, "confidence {}", r1.confidence);

    // Rule 2: x0 ∈ [60..79] ⇒ x1 ∈ [10..19].
    let r2 = out
        .rules
        .iter()
        .find(|r| {
            r.antecedent == Itemset::singleton(Item::range(0, 60, 79))
                && r.consequent == Itemset::singleton(Item::range(1, 10, 19))
        })
        .expect("planted rule 2 missing");
    assert!(r2.confidence > 0.8, "confidence {}", r2.confidence);
}

#[test]
fn recovery_survives_partitioning() {
    // Partition x-attributes into 20 equi-depth intervals (width 5 over
    // the uniform 0..100 domain): the planted [20..39] antecedent is a
    // union of whole intervals, so a close generalization must appear.
    let data = PlantedDataset::generate(PlantedConfig {
        num_records: 8_000,
        seed: 99,
    });
    let mut cfg = config();
    cfg.partitioning = PartitionSpec::FixedIntervals(20);
    let out = Miner::new(cfg.clone())
        .mine(&data.table)
        .expect("mining succeeds");
    let hit = (0..out.rules.len())
        .map(|i| out.format_rule(i))
        .find(|r| r.contains("⇒ ⟨c: A⟩") && r.contains("⟨x0: 2") && r.contains("..3"));
    assert!(
        hit.is_some(),
        "no rule close to x0∈[20..39] ⇒ c=A after partitioning"
    );
}

#[test]
fn interest_measure_keeps_planted_rules() {
    let data = PlantedDataset::generate(PlantedConfig {
        num_records: 8_000,
        seed: 7,
    });
    let mut cfg = config();
    cfg.interest = Some(InterestConfig {
        level: 1.15,
        mode: InterestMode::SupportOrConfidence,
        prune_candidates: false,
    });
    let out = Miner::new(cfg.clone())
        .mine(&data.table)
        .expect("mining succeeds");
    let verdicts = out.interest.as_ref().expect("interest configured");
    // A tight refinement of the planted confidence plateau must survive:
    // rules hugging [20..39] ⇒ A beat the expectation set by the widest
    // (maxsup-capped) generalizations by ~(0.9/0.68); rules far from the
    // plateau behave exactly as expected and get pruned. (The *literal*
    // [20..39] window can be edged out by a ±1 neighbour under sampling
    // noise, so the assertion accepts the tight neighbourhood.)
    let survivor = out.rules.iter().zip(verdicts).find(|(r, v)| {
        if !v.interesting || r.consequent != Itemset::singleton(Item::value(3, 0)) {
            return false;
        }
        let ant = r.antecedent.items();
        ant.len() == 1
            && ant[0].attr == 0
            && ant[0].lo >= 18
            && ant[0].lo <= 22
            && ant[0].hi >= 37
            && ant[0].hi <= 41
    });
    assert!(
        survivor.is_some(),
        "no tight refinement of the planted rule survived the interest filter"
    );
    // And the filter must actually prune some of the fuzzed variants.
    assert!(
        out.stats.rules_interesting < out.stats.rules_total,
        "interest filter did nothing: {} of {}",
        out.stats.rules_interesting,
        out.stats.rules_total
    );
}

#[test]
fn supports_reported_are_exact_counts() {
    let data = PlantedDataset::generate(PlantedConfig {
        num_records: 3_000,
        seed: 55,
    });
    let out = Miner::new(config())
        .mine(&data.table)
        .expect("mining succeeds");
    // Spot-check a sample of reported rules against a raw scan.
    for rule in out.rules.iter().step_by(97) {
        let both = rule.itemset();
        let recount = qar_oracle::reference::count_candidates_naive(
            &out.encoded,
            &[both.clone(), rule.antecedent.clone()],
        );
        assert_eq!(rule.support, recount[0], "{both}");
        let conf = recount[0] as f64 / recount[1] as f64;
        assert!((rule.confidence - conf).abs() < 1e-12);
    }
}

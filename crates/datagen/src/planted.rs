//! A generator that plants known quantitative rules — the recovery oracle
//! for the end-to-end tests: whatever the miner's internals do, the
//! planted rules must come out.

use crate::dist::rng;
use qar_table::{Schema, Table, Value};

/// One planted implication over the generated table.
#[derive(Debug, Clone, PartialEq)]
pub struct PlantedRule {
    /// Antecedent: `x0 ∈ [lo, hi]` (raw integer values).
    pub antecedent_range: (i64, i64),
    /// Consequent description: either the categorical label forced on
    /// attribute `c`, or the range forced on `x1`.
    pub consequent: PlantedConsequent,
    /// Probability the consequent was applied inside the antecedent range.
    pub confidence: f64,
}

/// The consequent side of a planted rule.
#[derive(Debug, Clone, PartialEq)]
pub enum PlantedConsequent {
    /// Attribute `c` takes this label.
    Category(&'static str),
    /// Attribute `x1` falls in this raw-value range.
    Range(i64, i64),
}

/// Generation parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlantedConfig {
    /// Number of records.
    pub num_records: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for PlantedConfig {
    fn default() -> Self {
        PlantedConfig {
            num_records: 10_000,
            seed: 1996,
        }
    }
}

/// The generated table plus the ground truth.
pub struct PlantedDataset {
    /// The table: quantitative `x0`, `x1`, `x2` (uniform 0..=99 where not
    /// forced) and categorical `c` over {"A","B","C","D"}.
    pub table: Table,
    /// The rules that were planted.
    pub rules: Vec<PlantedRule>,
}

impl PlantedDataset {
    /// Generate with two planted rules:
    /// 1. `x0 ∈ [20, 39] ⇒ c = "A"` at 90 % confidence;
    /// 2. `x0 ∈ [60, 79] ⇒ x1 ∈ [10, 19]` at 85 % confidence.
    ///
    /// `x2` is pure noise, and outside the antecedent ranges the
    /// consequents are uniform, so the planted rules stand far above
    /// background confidence (≈ 25 % and ≈ 10 %).
    pub fn generate(config: PlantedConfig) -> Self {
        let schema = Schema::builder()
            .quantitative("x0")
            .quantitative("x1")
            .quantitative("x2")
            .categorical("c")
            .build()
            .expect("static schema");
        let mut table = Table::with_capacity(schema, config.num_records);
        let mut r = rng(config.seed);
        let labels = ["A", "B", "C", "D"];
        for _ in 0..config.num_records {
            let x0: i64 = r.gen_range(0..100);
            let in_rule1 = (20..=39).contains(&x0);
            let in_rule2 = (60..=79).contains(&x0);
            let c = if in_rule1 && r.gen_range(0.0..1.0) < 0.9 {
                "A"
            } else {
                labels[r.gen_range(0..4)]
            };
            let x1: i64 = if in_rule2 && r.gen_range(0.0..1.0) < 0.85 {
                r.gen_range(10..20)
            } else {
                r.gen_range(0..100)
            };
            let x2: i64 = r.gen_range(0..100);
            table
                .push_row(&[
                    Value::Int(x0),
                    Value::Int(x1),
                    Value::Int(x2),
                    Value::from(c),
                ])
                .expect("rows match schema");
        }
        PlantedDataset {
            table,
            rules: vec![
                PlantedRule {
                    antecedent_range: (20, 39),
                    consequent: PlantedConsequent::Category("A"),
                    confidence: 0.9,
                },
                PlantedRule {
                    antecedent_range: (60, 79),
                    consequent: PlantedConsequent::Range(10, 19),
                    confidence: 0.85,
                },
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qar_table::AttributeId;

    #[test]
    fn planted_confidences_hold_in_raw_data() {
        let d = PlantedDataset::generate(PlantedConfig::default());
        let x0 = d.table.column(AttributeId(0)).as_quantitative().unwrap();
        let x1 = d.table.column(AttributeId(1)).as_quantitative().unwrap();
        let c = d.table.column(AttributeId(3)).as_categorical().unwrap();

        let in1: Vec<usize> = (0..d.table.num_rows())
            .filter(|&i| (20.0..=39.0).contains(&x0[i]))
            .collect();
        let conf1 = in1.iter().filter(|&&i| c.get(i) == "A").count() as f64 / in1.len() as f64;
        assert!(conf1 > 0.85, "rule 1 confidence {conf1}");
        // Antecedent covers ~20 % of records.
        let frac = in1.len() as f64 / d.table.num_rows() as f64;
        assert!((frac - 0.2).abs() < 0.02, "antecedent fraction {frac}");

        let in2: Vec<usize> = (0..d.table.num_rows())
            .filter(|&i| (60.0..=79.0).contains(&x0[i]))
            .collect();
        let conf2 = in2
            .iter()
            .filter(|&&i| (10.0..=19.0).contains(&x1[i]))
            .count() as f64
            / in2.len() as f64;
        assert!(conf2 > 0.8, "rule 2 confidence {conf2}");

        // Background confidence stays low outside the ranges.
        let out1: Vec<usize> = (0..d.table.num_rows())
            .filter(|&i| !(20.0..=39.0).contains(&x0[i]))
            .collect();
        let bg = out1.iter().filter(|&&i| c.get(i) == "A").count() as f64 / out1.len() as f64;
        assert!(bg < 0.35, "background confidence {bg}");
    }

    #[test]
    fn deterministic() {
        let a = PlantedDataset::generate(PlantedConfig::default());
        let b = PlantedDataset::generate(PlantedConfig::default());
        for i in (0..a.table.num_rows()).step_by(997) {
            assert_eq!(a.table.row(i).to_values(), b.table.row(i).to_values());
        }
        assert_eq!(a.rules, b.rules);
    }
}

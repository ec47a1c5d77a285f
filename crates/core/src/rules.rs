//! Rule generation (Step 4).
//!
//! "If, say, ABCD and AB are frequent itemsets, then we can determine if
//! the rule AB ⇒ CD holds by computing the ratio conf =
//! support(ABCD)/support(AB)." Confidence is antitone in the consequent,
//! so consequents are grown apriori-style and failing ones never extended
//! (the \[AS94\] rule generator the paper reuses).

use crate::frequent::QuantFrequentItemsets;
use qar_itemset::{Item, Itemset};

/// A quantitative association rule `antecedent ⇒ consequent`.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantRule {
    /// Antecedent itemset (non-empty).
    pub antecedent: Itemset,
    /// Consequent itemset (non-empty, attribute-disjoint from the
    /// antecedent).
    pub consequent: Itemset,
    /// Support count of `antecedent ∪ consequent`.
    pub support: u64,
    /// `support / support(antecedent)`.
    pub confidence: f64,
}

impl QuantRule {
    /// The rule's full itemset `antecedent ∪ consequent`.
    pub fn itemset(&self) -> Itemset {
        self.antecedent.union_disjoint(&self.consequent)
    }

    /// Fractional support given the table size.
    pub fn support_fraction(&self, num_rows: u64) -> f64 {
        self.support as f64 / num_rows as f64
    }

    /// Is `other` a strict generalization of this rule (same attribute
    /// split, each side's ranges containing ours, at least one strictly)?
    pub fn is_generalization_of(&self, other: &QuantRule) -> bool {
        self.antecedent.generalizes(&other.antecedent)
            && self.consequent.generalizes(&other.consequent)
            && (self.antecedent != other.antecedent || self.consequent != other.consequent)
    }
}

/// Generate every rule meeting `min_confidence` from the frequent
/// itemsets, sorted by (antecedent, consequent).
pub fn generate_rules(frequent: &QuantFrequentItemsets, min_confidence: f64) -> Vec<QuantRule> {
    generate_rules_until(frequent, min_confidence, &|| false).expect("never stopped")
}

/// [`generate_rules`], asking `stop` once per frequent itemset: `None`
/// once it answers true.
pub(crate) fn generate_rules_until(
    frequent: &QuantFrequentItemsets,
    min_confidence: f64,
    stop: &dyn Fn() -> bool,
) -> Option<Vec<QuantRule>> {
    let mut rules = Vec::new();
    for level in frequent.levels.iter().skip(1) {
        for (itemset, support) in level {
            if stop() {
                return None;
            }
            let seeds: Vec<Itemset> = itemset
                .items()
                .iter()
                .map(|&i| Itemset::singleton(i))
                .collect();
            grow(
                frequent,
                itemset,
                *support,
                seeds,
                min_confidence,
                &mut rules,
            );
        }
    }
    rules.sort_by(|a, b| {
        a.antecedent
            .cmp(&b.antecedent)
            .then_with(|| a.consequent.cmp(&b.consequent))
    });
    Some(rules)
}

fn grow(
    frequent: &QuantFrequentItemsets,
    itemset: &Itemset,
    support: u64,
    consequents: Vec<Itemset>,
    min_confidence: f64,
    rules: &mut Vec<QuantRule>,
) {
    if consequents.is_empty() || consequents[0].len() >= itemset.len() {
        return;
    }
    let mut passing: Vec<Itemset> = Vec::new();
    for consequent in consequents {
        let antecedent = itemset.minus_attributes(&consequent);
        let ant_support = frequent
            .support_of(&antecedent)
            .expect("subsets of frequent itemsets are frequent");
        let confidence = support as f64 / ant_support as f64;
        if confidence >= min_confidence {
            rules.push(QuantRule {
                antecedent,
                consequent: consequent.clone(),
                support,
                confidence,
            });
            passing.push(consequent);
        }
    }
    // Grow consequents: join passing m-consequents sharing m-1 items.
    let mut next: Vec<Itemset> = Vec::new();
    for i in 0..passing.len() {
        for j in (i + 1)..passing.len() {
            let a = &passing[i];
            let b = &passing[j];
            let m = a.len();
            if a.items()[..m - 1] == b.items()[..m - 1]
                && a.items()[m - 1].attr != b.items()[m - 1].attr
            {
                let mut items: Vec<Item> = a.items().to_vec();
                items.push(b.items()[m - 1]);
                next.push(Itemset::new(items));
            }
        }
    }
    grow(frequent, itemset, support, next, min_confidence, rules);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Build the Figure 3 frequent itemsets by hand (5 records).
    fn fig3_frequent() -> QuantFrequentItemsets {
        let mut f = QuantFrequentItemsets::new(5);
        let age_30_39 = Item::range(0, 2, 3);
        let age_20_29 = Item::range(0, 0, 1);
        let married_yes = Item::value(1, 1);
        let married_no = Item::value(1, 0);
        let cars_0_1 = Item::range(2, 0, 1);
        let cars_2 = Item::value(2, 2);
        f.push_level(vec![
            (Itemset::singleton(age_30_39), 2),
            (Itemset::singleton(age_20_29), 3),
            (Itemset::singleton(married_yes), 3),
            (Itemset::singleton(married_no), 2),
            (Itemset::singleton(cars_0_1), 3),
            (Itemset::singleton(cars_2), 2),
        ]);
        f.push_level(vec![
            (Itemset::new(vec![age_30_39, married_yes]), 2),
            (Itemset::new(vec![age_30_39, cars_2]), 2),
            (Itemset::new(vec![married_yes, cars_2]), 2),
            (Itemset::new(vec![age_20_29, cars_0_1]), 3),
        ]);
        f.push_level(vec![(
            Itemset::new(vec![age_30_39, married_yes, cars_2]),
            2,
        )]);
        f
    }

    #[test]
    fn figure_1_headline_rule() {
        // ⟨Age: 30..39⟩ and ⟨Married: Yes⟩ ⇒ ⟨NumCars: 2⟩,
        // support 40 %, confidence 100 %.
        let rules = generate_rules(&fig3_frequent(), 0.5);
        let ant = Itemset::new(vec![Item::range(0, 2, 3), Item::value(1, 1)]);
        let con = Itemset::singleton(Item::value(2, 2));
        let r = rules
            .iter()
            .find(|r| r.antecedent == ant && r.consequent == con)
            .expect("headline rule missing");
        assert_eq!(r.support, 2);
        assert_eq!(r.confidence, 1.0);
        assert_eq!(r.support_fraction(5), 0.4);
    }

    #[test]
    fn figure_3g_age_rule() {
        // ⟨Age: 20..29⟩ ⇒ ⟨NumCars: 0..1⟩, support 60 %, conf 100 %...
        // support({Age 20..29, NumCars 0..1}) = 3, support({Age 20..29}) = 3.
        let rules = generate_rules(&fig3_frequent(), 0.5);
        let r = rules
            .iter()
            .find(|r| {
                r.antecedent == Itemset::singleton(Item::range(0, 0, 1))
                    && r.consequent == Itemset::singleton(Item::range(2, 0, 1))
            })
            .expect("rule missing");
        assert_eq!(r.support, 3);
        assert!((r.confidence - 1.0).abs() < 1e-12);
    }

    /// Rule generation asks its stop check once per frequent itemset of
    /// two or more items and gives up at the first true answer.
    #[test]
    fn stop_is_asked_once_per_itemset() {
        let f = fig3_frequent();
        let asked = std::cell::Cell::new(0);
        let counting = || {
            asked.set(asked.get() + 1);
            false
        };
        let rules = generate_rules_until(&f, 0.5, &counting);
        assert_eq!(rules, Some(generate_rules(&f, 0.5)));
        assert_eq!(asked.get(), f.levels[1].len() + f.levels[2].len());
        assert_eq!(generate_rules_until(&f, 0.5, &|| true), None);
    }

    #[test]
    fn confidence_threshold_respected_and_exact() {
        let f = fig3_frequent();
        for minconf in [0.0, 0.5, 0.8, 1.0] {
            let rules = generate_rules(&f, minconf);
            for r in &rules {
                assert!(r.confidence >= minconf);
                let ant_sup = f.support_of(&r.antecedent).unwrap();
                assert!((r.confidence - r.support as f64 / ant_sup as f64).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn rules_match_exhaustive_enumeration() {
        let f = fig3_frequent();
        let minconf = 0.5;
        let fast: Vec<(Itemset, Itemset)> = generate_rules(&f, minconf)
            .into_iter()
            .map(|r| (r.antecedent, r.consequent))
            .collect();
        let mut brute = Vec::new();
        for (itemset, support) in f.iter().filter(|(s, _)| s.len() >= 2) {
            let k = itemset.len();
            for mask in 1u32..(1 << k) - 1 {
                let consequent: Itemset = (0..k)
                    .filter(|&i| mask & (1 << i) != 0)
                    .map(|i| itemset.items()[i])
                    .collect();
                let antecedent = itemset.minus_attributes(&consequent);
                let conf = *support as f64 / f.support_of(&antecedent).unwrap() as f64;
                if conf >= minconf {
                    brute.push((antecedent, consequent));
                }
            }
        }
        brute.sort();
        assert_eq!(fast, brute);
    }

    #[test]
    fn rule_generalization_relation() {
        let wide = QuantRule {
            antecedent: Itemset::singleton(Item::range(0, 0, 9)),
            consequent: Itemset::singleton(Item::range(1, 0, 5)),
            support: 10,
            confidence: 0.8,
        };
        let narrow = QuantRule {
            antecedent: Itemset::singleton(Item::range(0, 2, 5)),
            consequent: Itemset::singleton(Item::range(1, 0, 5)),
            support: 4,
            confidence: 0.7,
        };
        assert!(wide.is_generalization_of(&narrow));
        assert!(!narrow.is_generalization_of(&wide));
        assert!(!wide.is_generalization_of(&wide));
        assert_eq!(narrow.itemset().len(), 2);
    }
}

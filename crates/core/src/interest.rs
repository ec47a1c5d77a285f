//! The greater-than-expected-value interest measure (Section 4, "Final
//! Interest Measure").
//!
//! * The *expected* support of an itemset `Z` based on a generalization
//!   `Ẑ` is `Π_i (Pr(z_i)/Pr(ẑ_i)) · Pr(Ẑ)`; expected confidence is
//!   analogous over the consequent items.
//! * An itemset `X` is R-interesting w.r.t. `X̂` if its support is at
//!   least `R ×` expected **and** for every frequent specialization `X′`
//!   with `X − X′ ∈ I_R` (one attribute's range shrunk, sharing an
//!   endpoint — the only case where the difference is itself an itemset),
//!   the difference `X − X′` also beats `R ×` its expectation based on
//!   `X̂`. This is what kills the "Decoy" interval of Figure 6.
//! * A rule is R-interesting w.r.t. an ancestor rule if its support
//!   and/or confidence (per [`InterestMode`]) beat `R ×` expectation *and*
//!   its itemset is R-interesting w.r.t. the ancestor's itemset.
//! * A rule is *interesting* in the output if it has no interesting
//!   ancestors, or it is R-interesting w.r.t. every *close* interesting
//!   ancestor (no interesting rule strictly between them).

use crate::config::{InterestConfig, InterestMode};
use crate::frequent::QuantFrequentItemsets;
use crate::rules::QuantRule;
use qar_itemset::{Item, Itemset};
use std::collections::HashMap;

/// Exact fractional support of *any* single item, computed from the
/// per-attribute value counts of pass 1 (prefix sums).
#[derive(Debug, Clone)]
pub struct ItemSupports {
    prefix: Vec<Vec<u64>>,
    num_rows: u64,
}

impl ItemSupports {
    /// Build from per-attribute value counts (`value_counts[attr][code]`).
    pub fn from_value_counts(value_counts: &[Vec<u64>], num_rows: u64) -> Self {
        let prefix = value_counts
            .iter()
            .map(|counts| {
                let mut p = Vec::with_capacity(counts.len() + 1);
                p.push(0);
                for &c in counts {
                    p.push(p.last().unwrap() + c);
                }
                p
            })
            .collect();
        ItemSupports { prefix, num_rows }
    }

    /// Fractional support of `item`.
    pub fn fraction(&self, item: Item) -> f64 {
        let p = &self.prefix[item.attr as usize];
        let count = p[item.hi as usize + 1] - p[item.lo as usize];
        count as f64 / self.num_rows as f64
    }
}

/// `E_{Pr(Ẑ)}[Pr(Z)]`: expected fractional support of `Z` based on its
/// generalization `Ẑ` with fractional support `z_hat_frac`.
pub fn expected_fraction(
    z: &Itemset,
    z_hat: &Itemset,
    z_hat_frac: f64,
    items: &ItemSupports,
) -> f64 {
    debug_assert!(z_hat.generalizes(z));
    let mut e = z_hat_frac;
    for (zi, zhi) in z.items().iter().zip(z_hat.items()) {
        e *= items.fraction(*zi) / items.fraction(*zhi);
    }
    e
}

/// The contiguous difference `X − X′`, when it is an itemset: `X′` must
/// specialize exactly one attribute's range and share an endpoint with it.
pub fn contiguous_difference(x: &Itemset, x_spec: &Itemset) -> Option<Itemset> {
    debug_assert!(x.strictly_generalizes(x_spec));
    let mut replaced: Option<Item> = None;
    for (a, b) in x.items().iter().zip(x_spec.items()) {
        if a == b {
            continue;
        }
        if replaced.is_some() {
            return None; // two attributes differ: L-shaped difference
        }
        let diff = if a.lo == b.lo && b.hi < a.hi {
            Item::range(a.attr, b.hi + 1, a.hi)
        } else if a.hi == b.hi && b.lo > a.lo {
            Item::range(a.attr, a.lo, b.lo - 1)
        } else {
            return None; // interior specialization: two disjoint strips
        };
        replaced = Some(diff);
    }
    let diff_item = replaced?;
    let items: Vec<Item> = x
        .items()
        .iter()
        .map(|&i| {
            if i.attr == diff_item.attr {
                diff_item
            } else {
                i
            }
        })
        .collect();
    Some(Itemset::new(items))
}

/// Is itemset `x` (fractional support `x_frac`) R-interesting w.r.t.
/// `x_hat` (fractional support `x_hat_frac`)? `specializations` are the
/// frequent itemsets over the same attributes that `x` strictly
/// generalizes, with their fractional supports.
#[allow(clippy::too_many_arguments)]
pub fn itemset_r_interesting(
    x: &Itemset,
    x_frac: f64,
    x_hat: &Itemset,
    x_hat_frac: f64,
    specializations: &[(&Itemset, f64)],
    items: &ItemSupports,
    level: f64,
) -> bool {
    if x_frac < level * expected_fraction(x, x_hat, x_hat_frac, items) {
        return false;
    }
    for (spec, spec_frac) in specializations {
        if let Some(diff) = contiguous_difference(x, spec) {
            // sup(X − X′) = sup(X) − sup(X′): the difference rectangle is
            // exactly the records in X but not X′.
            let diff_frac = x_frac - spec_frac;
            if diff_frac < level * expected_fraction(&diff, x_hat, x_hat_frac, items) {
                return false;
            }
        }
    }
    true
}

/// Interest verdict for one rule, aligned with the input rule order.
#[derive(Debug, Clone, PartialEq)]
pub struct RuleInterest {
    /// Survives the interest filter.
    pub interesting: bool,
    /// Whether the rule had any generalizations among the mined rules at
    /// all (rules without ancestors are interesting by definition).
    pub has_ancestors: bool,
}

/// Annotate every rule with its interest verdict.
pub fn annotate_interest(
    rules: &[QuantRule],
    frequent: &QuantFrequentItemsets,
    items: &ItemSupports,
    config: &InterestConfig,
) -> Vec<RuleInterest> {
    annotate_interest_until(rules, frequent, items, config, &|| false).expect("never stopped")
}

/// [`annotate_interest`], asking `stop` once per rule: `None` once it
/// answers true.
pub(crate) fn annotate_interest_until(
    rules: &[QuantRule],
    frequent: &QuantFrequentItemsets,
    items: &ItemSupports,
    config: &InterestConfig,
    stop: &dyn Fn() -> bool,
) -> Option<Vec<RuleInterest>> {
    let num_rows = frequent.num_rows as f64;

    // Frequent itemsets grouped by attribute set, for specialization
    // lookups.
    let mut itemset_groups: HashMap<Vec<u32>, Vec<(&Itemset, f64)>> = HashMap::new();
    for (itemset, count) in frequent.iter() {
        itemset_groups
            .entry(itemset.attributes())
            .or_default()
            .push((itemset, *count as f64 / num_rows));
    }

    // Rules grouped by (antecedent attrs, consequent attrs).
    let mut rule_groups: HashMap<(Vec<u32>, Vec<u32>), Vec<usize>> = HashMap::new();
    for (i, rule) in rules.iter().enumerate() {
        rule_groups
            .entry((rule.antecedent.attributes(), rule.consequent.attributes()))
            .or_default()
            .push(i);
    }

    let mut verdicts = vec![
        RuleInterest {
            interesting: true,
            has_ancestors: false,
        };
        rules.len()
    ];

    for indices in rule_groups.values() {
        // Most general first: strict generalization implies strictly larger
        // total width, so width-descending is a topological order.
        let mut order: Vec<usize> = indices.clone();
        let width = |i: usize| -> u64 {
            let r = &rules[i];
            r.antecedent
                .items()
                .iter()
                .chain(r.consequent.items())
                .map(|it| it.width() as u64)
                .sum()
        };
        order.sort_by_key(|&i| std::cmp::Reverse(width(i)));

        for (pos, &ri) in order.iter().enumerate() {
            if stop() {
                return None;
            }
            let rule = &rules[ri];
            // Ancestors can only appear earlier in the order.
            let mut interesting_ancestors: Vec<usize> = Vec::new();
            let mut has_any = false;
            for &aj in &order[..pos] {
                if rules[aj].is_generalization_of(rule) {
                    has_any = true;
                    if verdicts[aj].interesting {
                        interesting_ancestors.push(aj);
                    }
                }
            }
            verdicts[ri].has_ancestors = has_any;
            // Close = minimal under generalization among the interesting
            // ancestors.
            let close: Vec<usize> = interesting_ancestors
                .iter()
                .copied()
                .filter(|&a| {
                    !interesting_ancestors
                        .iter()
                        .any(|&b| b != a && rules[a].is_generalization_of(&rules[b]))
                })
                .collect();
            let interesting = close.iter().all(|&a| {
                rule_r_interesting(rule, &rules[a], frequent, items, &itemset_groups, config)
            });
            verdicts[ri].interesting = interesting;
        }
    }
    Some(verdicts)
}

fn rule_r_interesting(
    rule: &QuantRule,
    ancestor: &QuantRule,
    frequent: &QuantFrequentItemsets,
    items: &ItemSupports,
    itemset_groups: &HashMap<Vec<u32>, Vec<(&Itemset, f64)>>,
    config: &InterestConfig,
) -> bool {
    let n = frequent.num_rows as f64;
    let rule_itemset = rule.itemset();
    let anc_itemset = ancestor.itemset();
    let rule_frac = rule.support as f64 / n;
    let anc_frac = ancestor.support as f64 / n;

    let expected_sup = expected_fraction(&rule_itemset, &anc_itemset, anc_frac, items);
    let sup_ok = rule_frac >= config.level * expected_sup;

    let mut expected_conf = ancestor.confidence;
    for (y, y_hat) in rule
        .consequent
        .items()
        .iter()
        .zip(ancestor.consequent.items())
    {
        expected_conf *= items.fraction(*y) / items.fraction(*y_hat);
    }
    let conf_ok = rule.confidence >= config.level * expected_conf;

    let deviation_ok = match config.mode {
        InterestMode::SupportAndConfidence => sup_ok && conf_ok,
        InterestMode::SupportOrConfidence => sup_ok || conf_ok,
    };
    if !deviation_ok {
        return false;
    }

    // Final measure: the combined itemset must be R-interesting too.
    let empty = Vec::new();
    let group = itemset_groups
        .get(&rule_itemset.attributes())
        .unwrap_or(&empty);
    let specializations: Vec<(&Itemset, f64)> = group
        .iter()
        .filter(|(s, _)| rule_itemset.strictly_generalizes(s))
        .map(|&(s, f)| (s, f))
        .collect();
    itemset_r_interesting(
        &rule_itemset,
        rule_frac,
        &anc_itemset,
        anc_frac,
        &specializations,
        items,
        config.level,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Lemma 5 is worded with a strict inequality — "if the support of
    /// `x` is greater than `1/R`, the itemset cannot be R-interesting" —
    /// so an item whose support is *exactly* `1/R` must survive the
    /// prune, including when neither `1/R` nor `count/rows` is exactly
    /// representable (count·R == rows in the reals).
    #[test]
    fn lemma5_prune_keeps_support_exactly_one_over_r() {
        use crate::candidate::interest_prune_level1;

        // rows = 3·count with R = 3: count/rows = 1/3 exactly equals 1/R
        // in the reals, but both sides round in f64. Scan a spread of
        // magnitudes including counts where `count/rows` rounds *above*
        // `1/3` (the two-division form misclassifies some of these).
        for count in [1u64, 2, 7, 49_999_999, 3_002_399_751_580_330] {
            let rows = 3 * count;
            let exact = Itemset::singleton(Item::value(0, 0));
            let above = Itemset::singleton(Item::value(0, 1));
            let level1 = vec![(exact.clone(), count), (above.clone(), count + 1)];
            let kept = interest_prune_level1(level1, rows, 3.0, &|_| true);
            let kept: Vec<&Itemset> = kept.iter().map(|(s, _)| s).collect();
            assert!(
                kept.contains(&&exact),
                "support exactly 1/R must be kept (count {count})"
            );
            assert!(
                !kept.contains(&&above),
                "support just above 1/R must be pruned (count {count})"
            );
        }

        // Non-integer R at the boundary: R = 2.5, count·R == rows exactly.
        let exact = Itemset::singleton(Item::value(0, 0));
        let kept = interest_prune_level1(vec![(exact.clone(), 2)], 5, 2.5, &|_| true);
        assert_eq!(kept.len(), 1, "2/5 == 1/2.5 must be kept");

        // Categorical items are exempt regardless of support.
        let cat = Itemset::singleton(Item::value(1, 0));
        let kept = interest_prune_level1(vec![(cat.clone(), 4)], 4, 2.0, &|a| a != 1);
        assert_eq!(kept.len(), 1, "categorical item must be exempt");
    }

    fn items_xy() -> ItemSupports {
        // Attribute 0 ("x"): ten values, 1900 records each (N = 19000).
        // Attribute 1 ("y"): code 1 = "y" with 2100 records.
        ItemSupports::from_value_counts(&[vec![1900; 10], vec![16900, 2100]], 19000)
    }

    /// The Figure 6 world: joint counts of (x = v ∧ y) are
    /// [100,100,100,200,1100,100,100,100,100,100] for v = 1..10
    /// (codes 0..9) — "Interesting" is x=5 (code 4), "Decoy" is x∈[3..5]
    /// (codes 2..4), "Boring" is x∈[3..4] (codes 2..3).
    fn fig6_frequent() -> QuantFrequentItemsets {
        let mut f = QuantFrequentItemsets::new(19000);
        let y = Item::value(1, 1);
        let x_all = Item::range(0, 0, 9);
        let x_decoy = Item::range(0, 2, 4);
        let x_int = Item::value(0, 4);
        let x_boring = Item::range(0, 2, 3);
        f.push_level(vec![
            (Itemset::singleton(x_all), 19000),
            (Itemset::singleton(x_decoy), 5700),
            (Itemset::singleton(x_int), 1900),
            (Itemset::singleton(x_boring), 3800),
            (Itemset::singleton(y), 2100),
        ]);
        f.push_level(vec![
            (Itemset::new(vec![x_all, y]), 2100),
            (Itemset::new(vec![x_decoy, y]), 1400),
            (Itemset::new(vec![x_int, y]), 1100),
            (Itemset::new(vec![x_boring, y]), 300),
        ]);
        f
    }

    fn fig6_rules(f: &QuantFrequentItemsets) -> Vec<QuantRule> {
        let y = Itemset::singleton(Item::value(1, 1));
        [(0u32, 9u32), (2, 4), (4, 4), (2, 3)]
            .iter()
            .map(|&(lo, hi)| {
                let ant = Itemset::singleton(Item::range(0, lo, hi));
                let sup = f.support_of(&ant.union_disjoint(&y)).expect("frequent");
                let ant_sup = f.support_of(&ant).unwrap();
                QuantRule {
                    antecedent: ant,
                    consequent: y.clone(),
                    support: sup,
                    confidence: sup as f64 / ant_sup as f64,
                }
            })
            .collect()
    }

    #[test]
    fn expected_fraction_formula() {
        let items = items_xy();
        let y = Item::value(1, 1);
        let z = Itemset::new(vec![Item::range(0, 2, 4), y]);
        let z_hat = Itemset::new(vec![Item::range(0, 0, 9), y]);
        // E = (0.3 / 1.0) * (Pr(y)/Pr(y)) * Pr(Ẑ) with Pr(Ẑ) = 2100/19000.
        let e = expected_fraction(&z, &z_hat, 2100.0 / 19000.0, &items);
        assert!((e - 0.3 * 2100.0 / 19000.0).abs() < 1e-12);
    }

    #[test]
    fn contiguous_difference_cases() {
        let y = Item::value(1, 1);
        let x = Itemset::new(vec![Item::range(0, 2, 4), y]);
        // Shares the upper endpoint: difference is the lower strip.
        let upper = Itemset::new(vec![Item::value(0, 4), y]);
        assert_eq!(
            contiguous_difference(&x, &upper),
            Some(Itemset::new(vec![Item::range(0, 2, 3), y]))
        );
        // Shares the lower endpoint.
        let lower = Itemset::new(vec![Item::range(0, 2, 3), y]);
        assert_eq!(
            contiguous_difference(&x, &lower),
            Some(Itemset::new(vec![Item::value(0, 4), y]))
        );
        // Interior: no contiguous difference.
        let interior = Itemset::new(vec![Item::value(0, 3), y]);
        assert_eq!(contiguous_difference(&x, &interior), None);
        // Two attributes shrunk: no contiguous difference.
        let wide = Itemset::new(vec![Item::range(0, 2, 4), Item::range(2, 0, 5)]);
        let both = Itemset::new(vec![Item::range(0, 2, 3), Item::range(2, 0, 4)]);
        assert_eq!(contiguous_difference(&wide, &both), None);
    }

    #[test]
    fn figure_6_decoy_killed_by_specialization() {
        // Plain support condition at R = 2: Decoy passes
        // (0.0737 >= 2 × 0.0332), but the specialization ⟨x:5⟩ leaves the
        // difference ⟨x:3..4⟩ with support 300/19000 = 0.0158 against an
        // expectation of 0.0221 → R-interesting fails.
        let f = fig6_frequent();
        let items = items_xy();
        let y = Item::value(1, 1);
        let decoy = Itemset::new(vec![Item::range(0, 2, 4), y]);
        let x_hat = Itemset::new(vec![Item::range(0, 0, 9), y]);
        let spec = Itemset::new(vec![Item::value(0, 4), y]);
        let spec_frac = f.fraction_of(&spec).unwrap();
        let decoy_frac = f.fraction_of(&decoy).unwrap();
        let hat_frac = f.fraction_of(&x_hat).unwrap();

        // Without the specialization check it would pass:
        assert!(decoy_frac >= 2.0 * expected_fraction(&decoy, &x_hat, hat_frac, &items));
        // With it, it fails:
        assert!(!itemset_r_interesting(
            &decoy,
            decoy_frac,
            &x_hat,
            hat_frac,
            &[(&spec, spec_frac)],
            &items,
            2.0,
        ));
    }

    #[test]
    fn figure_6_interesting_interval_survives() {
        let f = fig6_frequent();
        let items = items_xy();
        let y = Item::value(1, 1);
        let int = Itemset::new(vec![Item::value(0, 4), y]);
        let x_hat = Itemset::new(vec![Item::range(0, 0, 9), y]);
        assert!(itemset_r_interesting(
            &int,
            f.fraction_of(&int).unwrap(),
            &x_hat,
            f.fraction_of(&x_hat).unwrap(),
            &[],
            &items,
            2.0,
        ));
    }

    #[test]
    fn figure_6_boring_fails_plain_condition() {
        let f = fig6_frequent();
        let items = items_xy();
        let y = Item::value(1, 1);
        let boring = Itemset::new(vec![Item::range(0, 2, 3), y]);
        let x_hat = Itemset::new(vec![Item::range(0, 0, 9), y]);
        assert!(!itemset_r_interesting(
            &boring,
            f.fraction_of(&boring).unwrap(),
            &x_hat,
            f.fraction_of(&x_hat).unwrap(),
            &[],
            &items,
            2.0,
        ));
    }

    #[test]
    fn end_to_end_rule_annotation_matches_figure_6() {
        let f = fig6_frequent();
        let items = items_xy();
        let rules = fig6_rules(&f);
        let verdicts = annotate_interest(
            &rules,
            &f,
            &items,
            &InterestConfig {
                level: 2.0,
                mode: InterestMode::SupportOrConfidence,
                prune_candidates: false,
            },
        );
        // rules[0] = whole (no ancestors -> interesting),
        // rules[1] = decoy (killed by specialization),
        // rules[2] = interesting x=5,
        // rules[3] = boring.
        assert!(verdicts[0].interesting && !verdicts[0].has_ancestors);
        assert!(!verdicts[1].interesting && verdicts[1].has_ancestors);
        assert!(verdicts[2].interesting && verdicts[2].has_ancestors);
        assert!(!verdicts[3].interesting);
    }

    /// The interest measure asks its stop check once per rule and gives
    /// up at the first true answer.
    #[test]
    fn stop_is_asked_once_per_rule() {
        let f = fig6_frequent();
        let items = items_xy();
        let rules = fig6_rules(&f);
        let config = InterestConfig {
            level: 2.0,
            mode: InterestMode::SupportOrConfidence,
            prune_candidates: false,
        };
        let asked = std::cell::Cell::new(0);
        let counting = || {
            asked.set(asked.get() + 1);
            false
        };
        let verdicts = annotate_interest_until(&rules, &f, &items, &config, &counting);
        assert_eq!(
            verdicts,
            Some(annotate_interest(&rules, &f, &items, &config))
        );
        assert_eq!(asked.get(), rules.len());
        asked.set(0);
        let third_call = || {
            asked.set(asked.get() + 1);
            asked.get() == 3
        };
        assert_eq!(
            annotate_interest_until(&rules, &f, &items, &config, &third_call),
            None
        );
        assert_eq!(asked.get(), 3);
    }

    #[test]
    fn interest_level_monotone() {
        // Raising R can only shrink the interesting set.
        let f = fig6_frequent();
        let items = items_xy();
        let rules = fig6_rules(&f);
        let mut last = usize::MAX;
        for level in [1.1, 1.5, 2.0, 3.0] {
            let verdicts = annotate_interest(
                &rules,
                &f,
                &items,
                &InterestConfig {
                    level,
                    mode: InterestMode::SupportOrConfidence,
                    prune_candidates: false,
                },
            );
            let count = verdicts.iter().filter(|v| v.interesting).count();
            assert!(count <= last, "interest level {level}: {count} > {last}");
            last = count;
        }
    }

    #[test]
    fn and_mode_is_stricter_than_or_mode() {
        let f = fig6_frequent();
        let items = items_xy();
        let rules = fig6_rules(&f);
        let or_count = annotate_interest(
            &rules,
            &f,
            &items,
            &InterestConfig {
                level: 1.5,
                mode: InterestMode::SupportOrConfidence,
                prune_candidates: false,
            },
        )
        .iter()
        .filter(|v| v.interesting)
        .count();
        let and_count = annotate_interest(
            &rules,
            &f,
            &items,
            &InterestConfig {
                level: 1.5,
                mode: InterestMode::SupportAndConfidence,
                prune_candidates: false,
            },
        )
        .iter()
        .filter(|v| v.interesting)
        .count();
        assert!(and_count <= or_count);
    }

    #[test]
    fn item_supports_fractions() {
        let items = items_xy();
        assert!((items.fraction(Item::range(0, 0, 9)) - 1.0).abs() < 1e-12);
        assert!((items.fraction(Item::value(0, 4)) - 0.1).abs() < 1e-12);
        assert!((items.fraction(Item::range(0, 2, 4)) - 0.3).abs() < 1e-12);
        assert!((items.fraction(Item::value(1, 1)) - 2100.0 / 19000.0).abs() < 1e-12);
    }
}

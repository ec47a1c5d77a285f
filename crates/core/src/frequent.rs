//! Frequent items and the frequent-itemset store.
//!
//! The first half of Step 3: "Find the support for each value of both
//! quantitative and categorical attributes. Additionally, for quantitative
//! attributes, adjacent values are combined as long as their support is
//! less than the user-specified max support." The resulting frequent items
//! seed the level-wise search in [`crate::mine`].

use qar_itemset::{Item, Itemset};
use qar_table::{AttributeKind, EncodedTable};
use std::collections::HashMap;

/// All frequent itemsets found by a mining run, with exact support counts.
#[derive(Debug, Clone, Default)]
pub struct QuantFrequentItemsets {
    /// `levels[k-1]` holds the frequent `k`-itemsets with their support
    /// counts, sorted for deterministic output.
    pub levels: Vec<Vec<(Itemset, u64)>>,
    support: HashMap<Itemset, u64>,
    /// Number of records in the mined table (denominator for fractions).
    pub num_rows: u64,
}

impl QuantFrequentItemsets {
    /// Create an empty store for a table of `num_rows` records.
    pub fn new(num_rows: u64) -> Self {
        QuantFrequentItemsets {
            levels: Vec::new(),
            support: HashMap::new(),
            num_rows,
        }
    }

    /// Append one level (sorted and indexed).
    pub fn push_level(&mut self, mut level: Vec<(Itemset, u64)>) {
        level.sort_by(|a, b| a.0.cmp(&b.0));
        for (itemset, count) in &level {
            self.support.insert(itemset.clone(), *count);
        }
        self.levels.push(level);
    }

    /// Support count of `itemset`, if it is frequent.
    pub fn support_of(&self, itemset: &Itemset) -> Option<u64> {
        self.support.get(itemset).copied()
    }

    /// Fractional support of `itemset`, if frequent.
    pub fn fraction_of(&self, itemset: &Itemset) -> Option<f64> {
        self.support_of(itemset)
            .map(|c| c as f64 / self.num_rows as f64)
    }

    /// Fractional support of a single frequent item.
    pub fn item_fraction(&self, item: Item) -> Option<f64> {
        self.fraction_of(&Itemset::singleton(item))
    }

    /// Total number of frequent itemsets across all levels.
    pub fn total(&self) -> usize {
        self.levels.iter().map(|l| l.len()).sum()
    }

    /// Iterate over every `(itemset, support)` pair.
    pub fn iter(&self) -> impl Iterator<Item = &(Itemset, u64)> {
        self.levels.iter().flatten()
    }
}

/// Per-attribute frequent items plus bookkeeping the later passes need.
#[derive(Debug, Clone)]
pub struct FrequentItems {
    /// All frequent items across attributes, sorted by (attr, lo, hi).
    pub items: Vec<(Item, u64)>,
    /// Per-attribute value counts (index = code), for the interest
    /// measure's expected values and for Lemma 5.
    pub value_counts: Vec<Vec<u64>>,
}

/// Compute the frequent items of `table` (Step 3, first half).
///
/// * A categorical value is a frequent item iff its count ≥ `min_count`.
/// * A single quantitative value/interval likewise (even above
///   `max_count` — "any single interval/value whose support exceeds
///   maximum support is still considered").
/// * A combined range `[l..u]`, `l < u`, is a frequent item iff
///   `min_count ≤ count ≤ max_count` — adjacent intervals are combined
///   only "as long as their support is less than the user-specified max
///   support".
pub fn find_frequent_items(table: &EncodedTable, min_count: u64, max_count: u64) -> FrequentItems {
    frequent_items_from_counts(table, attribute_value_counts(table), min_count, max_count)
}

/// The scan half of pass 1: per-attribute value histograms of `table`
/// (index = code). Histograms over disjoint row partitions merge by
/// element-wise addition into exactly the whole-table histogram — the
/// property the distributed and out-of-core paths rely on.
pub fn attribute_value_counts(table: &EncodedTable) -> Vec<Vec<u64>> {
    table
        .schema()
        .iter()
        .map(|(id, _)| {
            let mut counts = vec![0u64; table.cardinality(id) as usize];
            for &code in table.codes(id) {
                counts[code as usize] += 1;
            }
            counts
        })
        .collect()
}

/// The combination half of pass 1: derive the frequent items from
/// already-computed per-attribute histograms. `meta` supplies only
/// schema kinds, cardinalities and taxonomy groups, so a decode-only
/// header table ([`EncodedTable::header_only`]) works.
pub fn frequent_items_from_counts(
    meta: &EncodedTable,
    value_counts: Vec<Vec<u64>>,
    min_count: u64,
    max_count: u64,
) -> FrequentItems {
    let table = meta;
    let schema = table.schema();
    let mut items: Vec<(Item, u64)> = Vec::new();
    for (id, def) in schema.iter() {
        let card = table.cardinality(id) as usize;
        let counts = &value_counts[id.index()];
        debug_assert_eq!(counts.len(), card, "histogram length != cardinality");
        let attr = id.index() as u32;
        match def.kind() {
            AttributeKind::Categorical => {
                for (code, &c) in counts.iter().enumerate() {
                    if c >= min_count {
                        items.push((Item::value(attr, code as u32), c));
                    }
                }
                // Taxonomy-generalized items: interior nodes are contiguous
                // code spans of the DFS-ordered encoding. Like combined
                // quantitative ranges, multi-leaf groups respect the
                // max-support cap (the same ExecTime/ManyRules pressure
                // applies to wide generalizations).
                let groups = table.encoder(id).taxonomy_groups();
                if !groups.is_empty() {
                    let mut prefix = vec![0u64; card + 1];
                    for (i, &c) in counts.iter().enumerate() {
                        prefix[i + 1] = prefix[i] + c;
                    }
                    for &(_, lo, hi) in groups {
                        let c = prefix[hi as usize + 1] - prefix[lo as usize];
                        if c >= min_count && c <= max_count {
                            items.push((Item::range(attr, lo, hi), c));
                        }
                    }
                }
            }
            AttributeKind::Quantitative => {
                // Prefix sums: count of [l..u] = prefix[u+1] - prefix[l].
                let mut prefix = vec![0u64; card + 1];
                for (i, &c) in counts.iter().enumerate() {
                    prefix[i + 1] = prefix[i] + c;
                }
                for l in 0..card {
                    // Single value first (no max_support cap).
                    let single = counts[l];
                    if single >= min_count {
                        items.push((Item::value(attr, l as u32), single));
                    }
                    // Combined ranges, stopping once the cap is crossed
                    // (support only grows with u).
                    for u in (l + 1)..card {
                        let c = prefix[u + 1] - prefix[l];
                        if c > max_count {
                            break;
                        }
                        if c >= min_count {
                            items.push((Item::range(attr, l as u32, u as u32), c));
                        }
                    }
                }
            }
        }
    }
    items.sort_by_key(|&(item, _)| item);
    FrequentItems {
        items,
        value_counts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qar_table::{Schema, Table, Value};

    /// Figure 3's People table, ages partitioned as in Figure 3(b).
    fn people_fig3() -> EncodedTable {
        let schema = Schema::builder()
            .quantitative("age")
            .categorical("married")
            .quantitative("num_cars")
            .build()
            .unwrap();
        let mut t = Table::new(schema);
        for (age, married, cars) in [
            (23, "No", 1),
            (25, "Yes", 1),
            (29, "No", 0),
            (34, "Yes", 2),
            (38, "Yes", 2),
        ] {
            t.push_row(&[Value::Int(age), Value::from(married), Value::Int(cars)])
                .unwrap();
        }
        let h = t.histograms();
        let encoders = vec![
            qar_table::AttributeEncoder::quant_intervals_from(
                h[0].as_quantitative().unwrap(),
                vec![25.0, 30.0, 35.0],
            ),
            qar_table::AttributeEncoder::categorical_from(h[1].as_categorical().unwrap()),
            qar_table::AttributeEncoder::quant_values_from(h[2].as_quantitative().unwrap()),
        ];
        EncodedTable::encode(&t, encoders).unwrap()
    }

    #[test]
    fn figure_3f_frequent_items() {
        // Minimum support 40 % of 5 records = 2; max support 100 %.
        let enc = people_fig3();
        let fi = find_frequent_items(&enc, 2, 5);
        let has = |attr: u32, lo: u32, hi: u32, count: u64| {
            fi.items
                .iter()
                .any(|&(i, c)| i == Item::range(attr, lo, hi) && c == count)
        };
        // ⟨Age: 20..29⟩ = intervals 0..1, support 3.
        assert!(has(0, 0, 1, 3));
        // ⟨Age: 30..39⟩ = intervals 2..3, support 2.
        assert!(has(0, 2, 3, 2));
        // ⟨Married: Yes⟩ (code 1) support 3; ⟨Married: No⟩ support 2.
        assert!(has(1, 1, 1, 3));
        assert!(has(1, 0, 0, 2));
        // ⟨NumCars: 0..1⟩ support 3; ⟨NumCars: 2⟩ support 2.
        assert!(has(2, 0, 1, 3));
        assert!(has(2, 2, 2, 2));
    }

    #[test]
    fn max_support_caps_ranges_but_not_singles() {
        let enc = people_fig3();
        // max_count 2: the range Age 0..1 (support 3) must vanish, but the
        // single interval ⟨Married: Yes⟩-like singles stay. Age interval 1
        // alone has support 2 (ages 25, 29).
        let fi = find_frequent_items(&enc, 2, 2);
        assert!(
            !fi.items.iter().any(|&(i, _)| i == Item::range(0, 0, 1)),
            "capped range kept"
        );
        assert!(fi
            .items
            .iter()
            .any(|&(i, c)| i == Item::value(0, 1) && c == 2));
        // Categorical single above the cap is still kept.
        assert!(fi
            .items
            .iter()
            .any(|&(i, c)| i == Item::value(1, 1) && c == 3));
    }

    #[test]
    fn value_counts_are_exact() {
        let enc = people_fig3();
        let fi = find_frequent_items(&enc, 1, 5);
        assert_eq!(fi.value_counts[0], vec![1, 2, 1, 1]); // age intervals
        assert_eq!(fi.value_counts[1], vec![2, 3]); // married No/Yes
        assert_eq!(fi.value_counts[2], vec![1, 2, 2]); // cars 0/1/2
    }

    #[test]
    fn items_sorted_and_min_support_respected() {
        let enc = people_fig3();
        let fi = find_frequent_items(&enc, 2, 5);
        assert!(fi.items.windows(2).all(|w| w[0].0 < w[1].0));
        assert!(fi.items.iter().all(|&(_, c)| c >= 2));
    }

    #[test]
    fn store_roundtrip() {
        let mut store = QuantFrequentItemsets::new(10);
        let a = Itemset::singleton(Item::value(0, 1));
        store.push_level(vec![(a.clone(), 4)]);
        assert_eq!(store.support_of(&a), Some(4));
        assert_eq!(store.fraction_of(&a), Some(0.4));
        assert_eq!(store.item_fraction(Item::value(0, 1)), Some(0.4));
        assert_eq!(store.item_fraction(Item::value(0, 2)), None);
        assert_eq!(store.total(), 1);
    }
}

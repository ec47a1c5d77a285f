//! Randomized property tests: the hash tree must agree with a naive subset
//! scan, and generalization and support behave as the paper defines them.

use qar_itemset::{HashTree, Item, Itemset};
use qar_prng::{cases, Prng};
use std::collections::BTreeSet;

/// A random sorted key of `len` distinct elements drawn from `0..domain`.
fn random_key(rng: &mut Prng, domain: u64, len: usize) -> Vec<u64> {
    let mut set = BTreeSet::new();
    while set.len() < len {
        set.insert(rng.gen_range(0..domain));
    }
    set.into_iter().collect()
}

fn random_subset(rng: &mut Prng, domain: u64, max_len: usize) -> BTreeSet<u64> {
    let len = rng.gen_range(0..max_len + 1);
    let mut set = BTreeSet::new();
    for _ in 0..len {
        set.insert(rng.gen_range(0..domain));
    }
    set
}

/// Hash-tree subset enumeration == brute force, under heavy collisions.
#[test]
fn hash_tree_equals_naive() {
    cases(128, 0x5EED_17E3_0001, |case, rng| {
        let num_keys = rng.gen_range(1..120usize);
        let keys: Vec<Vec<u64>> = {
            let mut set = BTreeSet::new();
            for _ in 0..num_keys {
                set.insert(random_key(rng, 30, 3));
            }
            set.into_iter().collect()
        };
        let mut tree = HashTree::new();
        for (i, k) in keys.iter().enumerate() {
            tree.insert(k.clone(), i);
        }
        let num_records = rng.gen_range(1..20usize);
        for _ in 0..num_records {
            let record = random_subset(rng, 30, 14);
            let rec: Vec<u64> = record.iter().copied().collect();
            let mut got: Vec<usize> = Vec::new();
            tree.for_each_subset_of(&rec, |_, &mut i| got.push(i));
            got.sort_unstable();
            let want: Vec<usize> = keys
                .iter()
                .enumerate()
                .filter(|(_, k)| k.iter().all(|x| record.contains(x)))
                .map(|(i, _)| i)
                .collect();
            assert_eq!(got, want, "case {case}");
        }
    });
}

/// Generalization is a partial order on same-attribute itemsets.
#[test]
fn generalization_is_partial_order() {
    cases(128, 0x5EED_17E3_0003, |case, rng| {
        let n = rng.gen_range(1..5usize);
        let a: Itemset = (0..n)
            .map(|i| {
                let x = rng.gen_range(0..20u32);
                let y = rng.gen_range(0..20u32);
                Item::range(i as u32, x.min(y), x.max(y))
            })
            .collect();
        // b widens every range of a => b generalizes a.
        let b: Itemset = a
            .items()
            .iter()
            .map(|item| {
                let dl = rng.gen_range(0..3u32);
                let dr = rng.gen_range(0..3u32);
                Item::range(item.attr, item.lo.saturating_sub(dl), item.hi + dr)
            })
            .collect();
        assert!(b.generalizes(&a), "case {case}");
        // Reflexive.
        assert!(a.generalizes(&a), "case {case}");
        // Antisymmetric: mutual generalization implies equality.
        if a.generalizes(&b) {
            assert_eq!(a, b, "case {case}");
        }
        // c widening b keeps transitivity.
        let c: Itemset = b
            .items()
            .iter()
            .map(|item| Item::range(item.attr, item.lo.saturating_sub(1), item.hi + 1))
            .collect();
        assert!(c.generalizes(&a), "case {case}");
    });
}

/// `supported_by` is monotone under generalization: if a record supports X,
/// it supports every generalization of X.
#[test]
fn support_monotone_under_generalization() {
    cases(128, 0x5EED_17E3_0004, |case, rng| {
        let record: Vec<u32> = (0..3).map(|_| rng.gen_range(0..20u32)).collect();
        let x: Itemset = (0..3)
            .map(|i| {
                let a = rng.gen_range(0..20u32);
                let b = rng.gen_range(0..20u32);
                Item::range(i as u32, a.min(b), a.max(b))
            })
            .collect();
        let wider: Itemset = x
            .items()
            .iter()
            .map(|i| Item::range(i.attr, i.lo.saturating_sub(2), i.hi + 2))
            .collect();
        if x.supported_by(&record) {
            assert!(wider.supported_by(&record), "case {case}");
        }
    });
}

/// Hash-tree visit counts are exact (each contained key once) even for
/// adversarial records; validated by counting into values.
#[test]
fn hash_tree_counts_are_exact() {
    cases(128, 0x5EED_17E3_0005, |case, rng| {
        let num_keys = rng.gen_range(1..60usize);
        let keys: Vec<Vec<u64>> = {
            let mut set = BTreeSet::new();
            for _ in 0..num_keys {
                set.insert(random_key(rng, 16, 2));
            }
            set.into_iter().collect()
        };
        let mut tree = HashTree::new();
        for k in &keys {
            tree.insert(k.clone(), 0u32);
        }
        let rec_set = random_subset(rng, 16, 15);
        let rec: Vec<u64> = rec_set.iter().copied().collect();
        tree.for_each_subset_of(&rec, |_, v| *v += 1);
        for (k, v) in tree.into_entries() {
            let contained = k.iter().all(|x| rec_set.contains(x));
            assert_eq!(v, u32::from(contained), "case {case} key {k:?}");
        }
    });
}

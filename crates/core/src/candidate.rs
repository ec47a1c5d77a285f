//! Candidate generation (Section 5.1): join, subset prune, interest prune.

use crate::frequent::support_in;
use qar_itemset::{Item, Itemset};
use qar_trace::CancelToken;

/// The pairs [`generate_candidates`] joins between two checks of its
/// cancel token: one run of a level may hold millions of pairs.
const CANCEL_CHECK_PAIRS: usize = 4096;

/// Join `L_{k-1}` with itself and subset-prune, returning `C_k`.
///
/// Join condition: "the lexicographically ordered first k−2 items are the
/// same, and the attributes of the last two items are different". Two
/// items of the same attribute can never co-occur in an itemset (records
/// hold each attribute once), so same-attribute pairs are skipped rather
/// than joined.
///
/// `prev` must be sorted (as [`crate::QuantFrequentItemsets::push_level`]
/// guarantees): the join walks its prefix runs and the subset prune
/// binary-searches it. `cancel` is checked once per run of itemsets
/// sharing a prefix and every 4,096 pairs within a run; `None` is
/// returned when it fired.
pub fn generate_candidates(
    prev: &[(Itemset, u64)],
    cancel: Option<&CancelToken>,
) -> Option<Vec<Itemset>> {
    if prev.is_empty() {
        return Some(Vec::new());
    }
    let k1 = prev[0].0.len();
    debug_assert!(prev.iter().all(|(s, _)| s.len() == k1));
    let mut candidates = Vec::new();
    let mut subset: Vec<Item> = Vec::with_capacity(k1);
    let cancelled = || cancel.is_some_and(CancelToken::is_cancelled);
    let mut unchecked_pairs = 0;

    let mut run_start = 0;
    while run_start < prev.len() {
        if cancelled() {
            return None;
        }
        let prefix = &prev[run_start].0.items()[..k1 - 1];
        let mut run_end = run_start + 1;
        while run_end < prev.len() && &prev[run_end].0.items()[..k1 - 1] == prefix {
            run_end += 1;
        }
        for i in run_start..run_end {
            let parent = prev[i].0.items();
            let last_i = parent[k1 - 1];
            for j in (i + 1)..run_end {
                unchecked_pairs += 1;
                if unchecked_pairs == CANCEL_CHECK_PAIRS {
                    if cancelled() {
                        return None;
                    }
                    unchecked_pairs = 0;
                }
                let last_j = prev[j].0.items()[k1 - 1];
                if last_i.attr == last_j.attr {
                    continue;
                }
                // Subset prune: every (k-1)-subset must be frequent. The
                // two parents are by construction; check the rest, each
                // `parent` without one of its first k-2 items plus `last_j`.
                let keep = (0..k1 - 1).all(|p| {
                    subset.clear();
                    subset.extend_from_slice(&parent[..p]);
                    subset.extend_from_slice(&parent[p + 1..]);
                    subset.push(last_j);
                    support_in(prev, &subset).is_some()
                });
                if keep {
                    let mut items = parent.to_vec();
                    items.push(last_j);
                    candidates.push(Itemset::new(items));
                }
            }
        }
        run_start = run_end;
    }
    Some(candidates)
}

/// Interest Prune Phase (Lemma 5): items whose fractional support exceeds
/// `1/R` cannot appear in any itemset whose support beats `R ×` expected,
/// so delete them from `L_1` at the end of the first pass. Applies to
/// quantitative items only (the lemma is stated for quantitative `x`;
/// categorical single values are their own full information).
pub fn interest_prune_level1(
    level1: Vec<(Itemset, u64)>,
    num_rows: u64,
    interest_level: f64,
    is_quantitative: &dyn Fn(u32) -> bool,
) -> Vec<(Itemset, u64)> {
    level1
        .into_iter()
        .filter(|(itemset, count)| {
            let item = itemset.items()[0];
            if !is_quantitative(item.attr) {
                return true;
            }
            // Keep iff support ≤ 1/R — the lemma prunes on *strict*
            // excess. Stated multiplicatively (`count · R ≤ rows`) so a
            // support sitting exactly on 1/R survives: the division form
            // `count/rows ≤ 1/R` misjudges the boundary when both
            // quotients round in opposite directions (e.g. rows = 3·10¹⁵,
            // count = 10¹⁵, R = 3).
            *count as f64 * interest_level <= num_rows as f64
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QuantFrequentItemsets;

    fn level(sets: &[&[(u32, u32, u32)]]) -> Vec<(Itemset, u64)> {
        let mut v: Vec<(Itemset, u64)> = sets
            .iter()
            .map(|items| {
                (
                    items
                        .iter()
                        .map(|&(a, l, u)| Item::range(a, l, u))
                        .collect::<Itemset>(),
                    2,
                )
            })
            .collect();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
    }

    #[test]
    fn paper_join_example() {
        // Section 5.1's example:
        // L2 = {⟨Married:Yes⟩⟨Age:20..24⟩}, {⟨Married:Yes⟩⟨Age:20..29⟩},
        //      {⟨Married:Yes⟩⟨NumCars:0..1⟩}, {⟨Age:20..29⟩⟨NumCars:0..1⟩}
        // (attrs: age=0, married=1, cars=2; Yes=1.)
        // Join yields the two 3-candidates with both age ranges; prune
        // deletes the 20..24 one because {⟨Age:20..24⟩⟨NumCars:0..1⟩} ∉ L2.
        let l2 = level(&[
            &[(1, 1, 1), (0, 0, 0)], // Married:Yes, Age interval 0 (20..24)
            &[(1, 1, 1), (0, 0, 1)], // Married:Yes, Age 0..1 (20..29)
            &[(1, 1, 1), (2, 0, 1)], // Married:Yes, NumCars 0..1
            &[(0, 0, 1), (2, 0, 1)], // Age 0..1, NumCars 0..1
        ]);
        let c3 = generate_candidates(&l2, None).unwrap();
        assert_eq!(c3.len(), 1);
        let expected: Itemset = vec![
            Item::range(0, 0, 1),
            Item::value(1, 1),
            Item::range(2, 0, 1),
        ]
        .into_iter()
        .collect();
        assert_eq!(c3[0], expected);
    }

    #[test]
    fn same_attribute_pairs_never_join() {
        // Two ranges of the same attribute never form a 2-candidate.
        let l1 = level(&[&[(0, 0, 1)], &[(0, 2, 3)], &[(1, 0, 0)]]);
        let c2 = generate_candidates(&l1, None).unwrap();
        assert_eq!(c2.len(), 2); // each age range with the categorical item
        assert!(c2.iter().all(|c| {
            let attrs = c.attributes();
            attrs.windows(2).all(|w| w[0] != w[1])
        }));
    }

    #[test]
    fn empty_and_single_input() {
        assert!(generate_candidates(&[], None).unwrap().is_empty());
        let l1 = level(&[&[(0, 0, 0)]]);
        assert!(generate_candidates(&l1, None).unwrap().is_empty());
    }

    /// A fired token stops the join at its first prefix run.
    #[test]
    fn fired_token_stops_the_join() {
        let l2 = level(&[
            &[(0, 0, 1), (1, 0, 0)],
            &[(0, 0, 1), (2, 1, 1)],
            &[(1, 0, 0), (2, 1, 1)],
        ]);
        let token = CancelToken::new();
        assert_eq!(generate_candidates(&l2, Some(&token)).unwrap().len(), 1);
        token.cancel();
        assert_eq!(generate_candidates(&l2, Some(&token)), None);
    }

    /// A deadline that passes inside one run stops the join there: a level
    /// of one run holding about 4M cross-attribute pairs, which takes
    /// seconds to join whole, ends soon after a 20 ms deadline.
    #[test]
    fn deadline_stops_the_join_inside_one_run() {
        let items: Vec<(u32, u32, u32)> = (0..2900).map(|attr| (attr, 0, 0)).collect();
        let sets: Vec<&[(u32, u32, u32)]> = items.iter().map(std::slice::from_ref).collect();
        let l1 = level(&sets);
        let token = CancelToken::with_deadline(std::time::Duration::from_millis(20));
        let started = std::time::Instant::now();
        let joined = generate_candidates(&l1, Some(&token)).map(|c| c.len());
        let took = started.elapsed();
        assert_eq!(joined, None, "joined every pair in {took:?}");
        assert!(took < std::time::Duration::from_millis(300), "{took:?}");
    }

    #[test]
    fn candidates_contain_all_frequent_supersets() {
        // Completeness: C_k ⊇ every itemset whose (k-1)-subsets are all in
        // L_{k-1}. Build a closed family and check.
        let l2 = level(&[
            &[(0, 0, 1), (1, 0, 0)],
            &[(0, 0, 1), (2, 1, 1)],
            &[(1, 0, 0), (2, 1, 1)],
        ]);
        let c3 = generate_candidates(&l2, None).unwrap();
        let expected: Itemset = vec![Item::range(0, 0, 1), Item::value(1, 0), Item::value(2, 1)]
            .into_iter()
            .collect();
        assert_eq!(c3, vec![expected]);
    }

    #[test]
    fn interest_prune_drops_wide_quantitative_items() {
        let wide = Itemset::singleton(Item::range(0, 0, 9)); // support 95
        let narrow = Itemset::singleton(Item::range(0, 2, 3)); // support 40
        let cat = Itemset::singleton(Item::value(1, 0)); // support 95, categorical
        let l1 = vec![(wide.clone(), 95), (narrow.clone(), 40), (cat.clone(), 95)];
        // R = 2 over 100 rows: threshold 1/2 = 50 records.
        let pruned = interest_prune_level1(l1, 100, 2.0, &|attr| attr == 0);
        let kept: Vec<&Itemset> = pruned.iter().map(|(s, _)| s).collect();
        assert!(!kept.contains(&&wide), "wide quantitative item must go");
        assert!(kept.contains(&&narrow));
        assert!(kept.contains(&&cat), "categorical items exempt");
    }

    /// Attributes and codes of the random levels below: few enough that
    /// prefixes repeat and joins happen.
    const ATTRS: u32 = 5;
    const CODES: u32 = 4;

    fn random_item(rng: &mut qar_prng::Prng, attr: u32) -> Item {
        let lo = rng.gen_range(0..CODES);
        Item::range(attr, lo, rng.gen_range(lo..CODES))
    }

    /// Random levels `1..=depth`: level 1 holds random items, level `k`
    /// random extensions of level `k − 1` by a level-1 item plus a few
    /// random `k`-itemsets, so some `(k−1)`-subsets are missing.
    fn random_store(rng: &mut qar_prng::Prng, depth: usize) -> QuantFrequentItemsets {
        let mut store = QuantFrequentItemsets::new(1000);
        let mut level: Vec<Itemset> = Vec::new();
        for k in 1..=depth {
            let mut next: Vec<Itemset> = Vec::new();
            for parent in &level {
                for (item, _) in &store.levels[0] {
                    let item = item.items()[0];
                    if item.attr > parent.items()[k - 2].attr && rng.gen_bool(0.4) {
                        next.push(Itemset::new([parent.items(), &[item]].concat()));
                    }
                }
            }
            for _ in 0..rng.gen_range(0..8usize) {
                let mut attrs: Vec<u32> = (0..ATTRS).collect();
                rng.shuffle(&mut attrs);
                next.push(attrs[..k].iter().map(|&a| random_item(rng, a)).collect());
            }
            next.sort();
            next.dedup();
            level = next;
            let counts = level.iter().map(|s| (s.clone(), rng.gen_range(1..1000u64)));
            store.push_level(counts.collect());
        }
        store
    }

    /// `support_of` binary-searches the sorted levels: it equals a linear
    /// scan on every stored itemset, on every `(k−1)`-subset of one and on
    /// every itemset one range bound away from one, and finds neither the
    /// empty itemset nor one longer than the last level.
    #[test]
    fn support_of_equals_a_linear_scan() {
        let (mut absent_subsets, mut absent_neighbours) = (0, 0);
        qar_prng::cases(200, 0x5EED_0033_5EA3, |case, rng| {
            let depth = rng.gen_range(1..4usize);
            let store = random_store(rng, depth);
            let linear = |probe: &Itemset| store.iter().find(|(s, _)| s == probe).map(|&(_, c)| c);
            assert_eq!(store.support_of(&Itemset::empty()), None, "case {case}");
            let longer: Itemset = (0..=depth as u32).map(|a| Item::value(a, 0)).collect();
            assert_eq!(store.support_of(&longer), None, "case {case}");
            for (itemset, count) in store.iter() {
                assert_eq!(store.support_of(itemset), Some(*count), "case {case}");
                for sub in itemset.subsets_dropping_one().filter(|s| !s.is_empty()) {
                    let want = linear(&sub);
                    absent_subsets += usize::from(want.is_none());
                    assert_eq!(store.support_of(&sub), want, "case {case}: {sub}");
                }
                for (p, item) in itemset.items().iter().enumerate() {
                    let (lo, hi) = (i64::from(item.lo), i64::from(item.hi));
                    for (lo, hi) in [(lo - 1, hi), (lo + 1, hi), (lo, hi - 1), (lo, hi + 1)] {
                        if lo < 0 || lo > hi {
                            continue;
                        }
                        let mut items = itemset.items().to_vec();
                        items[p] = Item::range(item.attr, lo as u32, hi as u32);
                        let near = Itemset::new(items);
                        let want = linear(&near);
                        absent_neighbours += usize::from(want.is_none());
                        assert_eq!(store.support_of(&near), want, "case {case}: {near}");
                    }
                }
            }
        });
        assert!(absent_subsets > 0 && absent_neighbours > 0);
    }

    /// The join with its binary-search prune equals a naive join over
    /// every pair of `L_{k−1}` plus a subset prune through a `HashSet`.
    #[test]
    fn join_equals_a_naive_join_with_a_set_prune() {
        let (mut joined, mut pruned) = (0, 0);
        qar_prng::cases(200, 0x5EED_0033_701E, |case, rng| {
            let store = random_store(rng, 3);
            for prev in &store.levels {
                let set: std::collections::HashSet<&Itemset> =
                    prev.iter().map(|(s, _)| s).collect();
                let mut want = Vec::new();
                for (i, (a, _)) in prev.iter().enumerate() {
                    for (b, _) in &prev[i + 1..] {
                        let (a, b) = (a.items(), b.items());
                        let k1 = a.len();
                        if a[..k1 - 1] != b[..k1 - 1] || a[k1 - 1].attr == b[k1 - 1].attr {
                            continue;
                        }
                        joined += 1;
                        let cand = Itemset::new([a, &b[k1 - 1..]].concat());
                        if cand.subsets_dropping_one().all(|s| set.contains(&s)) {
                            want.push(cand);
                        } else {
                            pruned += 1;
                        }
                    }
                }
                assert_eq!(generate_candidates(prev, None), Some(want), "case {case}");
            }
        });
        assert!(
            joined > pruned && pruned > 0,
            "{joined} joined, {pruned} pruned"
        );
    }
}

//! The references the oracle checks the miner against, sharing no code
//! with what they check:
//!
//! * [`ReferenceSource`] — the paper's Section 5.2 counting as a
//!   [`CountSource`]: a hash tree over the categorical items finds the
//!   super-candidates a record supports, and the record's quantitative
//!   point is counted against each one's rectangles in an n-dimensional
//!   array or an R*-tree (the paper's memory heuristic picks per
//!   super-candidate unless a backend is pinned). It implements only the
//!   required methods and [`CountSource::take_pass_stats`], so pass 2 is
//!   the trait's point-cell default — counted here too, not by the pair
//!   histograms it checks.
//! * [`naive_mine`] and [`count_candidates_naive`] — brute force, one row
//!   scan per itemset.

use crate::counter::{CounterKind, RectCounter};
use qar_core::supercand::PassStats;
use qar_core::{CountError, CountSource, MinerConfig, QuantFrequentItemsets};
use qar_itemset::{HashTree, Item, Itemset, VisitScratch};
use qar_table::threads::run_sharded;
use qar_table::{AttributeId, AttributeKind, EncodedTable};
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Rows of `table` supporting `itemset`, by one scan.
pub fn scan_support(table: &EncodedTable, itemset: &Itemset) -> u64 {
    let supports = |row: &usize| {
        let code = |item: &Item| table.codes(AttributeId(item.attr as usize))[*row];
        itemset.items().iter().all(|item| item.matches(code(item)))
    };
    (0..table.num_rows()).filter(supports).count() as u64
}

/// The support of every candidate, each by its own row scan.
pub fn count_candidates_naive(table: &EncodedTable, candidates: &[Itemset]) -> Vec<u64> {
    candidates.iter().map(|c| scan_support(table, c)).collect()
}

/// Level 1 by Section 2's rules, each item counted by its own row scan:
/// every single value needs `min_count`; a range `[l..u]`, `l < u`, of a
/// quantitative attribute and a taxonomy group need at most `max_count`
/// too.
fn frequent_items(table: &EncodedTable, min_count: u64, max_count: u64) -> Vec<(Item, u64)> {
    let mut items = Vec::new();
    for (id, def) in table.schema().iter() {
        let card = table.cardinality(id);
        let mut spans: Vec<(u32, u32)> = (0..card).map(|v| (v, v)).collect();
        if def.kind() == AttributeKind::Quantitative {
            spans.extend((0..card).flat_map(|l| (l + 1..card).map(move |u| (l, u))));
        }
        let groups = table.encoder(id).taxonomy_groups().iter();
        spans.extend(groups.map(|&(_, lo, hi)| (lo, hi)));
        for (lo, hi) in spans {
            let item = Item::range(id.index() as u32, lo, hi);
            let count = scan_support(table, &Itemset::singleton(item));
            if count >= min_count && (lo == hi || count <= max_count) {
                items.push((item, count));
            }
        }
    }
    items
}

/// Mine all frequent itemsets by exhaustive enumeration: every combination
/// of frequent items over distinct attributes, each counted by a full
/// scan. Only suitable for tiny tables.
pub fn naive_mine(table: &EncodedTable, config: &MinerConfig) -> QuantFrequentItemsets {
    let num_rows = table.num_rows() as u64;
    let min_count = ((config.min_support * num_rows as f64).ceil() as u64).max(1);
    let max_count = (config.max_support * num_rows as f64).floor() as u64;
    let items = frequent_items(table, min_count, max_count);

    let mut frequent = QuantFrequentItemsets::new(num_rows);
    let mut current: Vec<(Itemset, u64)> = items
        .iter()
        .map(|&(item, count)| (Itemset::singleton(item), count))
        .collect();
    while !current.is_empty() {
        frequent.push_level(current.clone());
        if config.max_itemset_size != 0 && frequent.levels.len() >= config.max_itemset_size {
            break;
        }
        let mut next = Vec::new();
        for (itemset, _) in &current {
            let last = itemset.items().last().expect("non-empty").attr;
            for &(item, _) in items.iter().filter(|(item, _)| item.attr > last) {
                let candidate =
                    Itemset::new(itemset.items().iter().copied().chain([item]).collect());
                let support = scan_support(table, &candidate);
                if support >= min_count {
                    next.push((candidate, support));
                }
            }
        }
        current = next;
    }
    frequent
}

/// A hash-tree key element for categorical item `code` of `attr`:
/// attribute-major, so keys sorted by attribute sort numerically.
fn key_of(attr: u32, code: u32) -> u64 {
    (u64::from(attr) << 32) | u64::from(code)
}

/// One super-candidate: the candidates sharing their categorical items
/// and their range attributes.
struct Plan<'t> {
    /// The shared categorical items, as a sorted hash-tree key.
    key: Vec<u64>,
    /// The code columns of the shared range attributes.
    cols: Vec<&'t [u32]>,
    /// Indices of the members into the candidate list.
    members: Vec<usize>,
    /// With range attributes, what every shard builds the plan's
    /// [`RectCounter`] from: the backend, the attributes' code domains,
    /// and the members' rectangles.
    counter: Option<(CounterKind, Vec<u32>, Rects)>,
}

/// Inclusive `(lo, hi)` corner pairs, one per member.
type Rects = Arc<[(Vec<u32>, Vec<u32>)]>;

/// Group `candidates` into super-candidates and pick each one's backend,
/// adding the plans, backends and counter bytes to `stats`.
fn plans<'t>(
    table: &'t EncodedTable,
    candidates: &[Itemset],
    pin: Option<CounterKind>,
    stats: &mut PassStats,
) -> Vec<Plan<'t>> {
    let attrs = table.schema().attributes();
    let mut groups: BTreeMap<(Vec<u64>, Vec<u32>), Vec<usize>> = BTreeMap::new();
    for (i, candidate) in candidates.iter().enumerate() {
        let (mut key, mut ranges) = (Vec::new(), Vec::new());
        // A categorical value is an equality test; quantitative items,
        // points included, and taxonomy groups are rectangle dimensions.
        for item in candidate.items() {
            let quant = attrs[item.attr as usize].kind() == AttributeKind::Quantitative;
            if quant || item.lo < item.hi {
                ranges.push(item.attr);
            } else {
                key.push(key_of(item.attr, item.lo));
            }
        }
        groups.entry((key, ranges)).or_default().push(i);
    }
    stats.super_candidates += groups.len();
    let id = |attr: u32| AttributeId(attr as usize);
    let plans = groups.into_iter().map(|((key, ranges), members)| {
        let counter = (!ranges.is_empty()).then(|| {
            let dims: Vec<u32> = ranges.iter().map(|&a| table.cardinality(id(a))).collect();
            let rect = |m: usize| -> (Vec<u32>, Vec<u32>) {
                let item = |a| candidates[m].item_for(a).expect("grouped by attributes");
                ranges.iter().map(|&a| (item(a).lo, item(a).hi)).unzip()
            };
            let rects: Rects = members.iter().map(|&m| rect(m)).collect();
            let kind = pin.unwrap_or_else(|| RectCounter::choose_kind(&dims, rects.len()));
            match kind {
                CounterKind::Array => stats.array_backed += 1,
                CounterKind::RTree => stats.rtree_backed += 1,
            }
            let bytes = RectCounter::estimated_bytes(kind, &dims, rects.len());
            stats.counter_bytes = stats.counter_bytes.saturating_add(bytes);
            (kind, dims, rects)
        });
        let cols = ranges.iter().map(|&a| table.codes(id(a))).collect();
        Plan {
            key,
            cols,
            members,
            counter,
        }
    });
    plans.collect()
}

/// Where the plans with categorical items are found per record: one
/// hash tree per key length (the plans without any match every record).
type Trees = BTreeMap<usize, HashTree<usize>>;

/// Count rows `rows` of `table` into each plan's members: per row, the
/// hash trees' subset walk finds the matched plans, and each counts the
/// row's point in its own [`RectCounter`]. Also returns the busy time.
fn scan(
    table: &EncodedTable,
    plans: &[Plan<'_>],
    (always, trees): (&[usize], &Trees),
    rows: Range<usize>,
) -> (Vec<Vec<u64>>, Duration) {
    let started = Instant::now();
    let mut counters: Vec<Option<RectCounter>> = plans
        .iter()
        .map(|plan| {
            let (kind, dims, rects) = plan.counter.as_ref()?;
            Some(RectCounter::build_shared(*kind, dims, Arc::clone(rects)))
        })
        .collect();
    let mut matches = vec![0u64; plans.len()];
    let cat_cols: Vec<(u32, &[u32])> = (table.schema().categorical_ids().into_iter())
        .map(|id| (id.index() as u32, table.codes(id)))
        .collect();
    let mut scratches: Vec<VisitScratch> = trees.values().map(|_| VisitScratch::new()).collect();
    let (mut record, mut matched, mut point) = (Vec::new(), Vec::new(), Vec::new());
    for row in rows {
        record.clear();
        record.extend(cat_cols.iter().map(|&(attr, col)| key_of(attr, col[row])));
        matched.clear();
        matched.extend_from_slice(always);
        for (tree, scratch) in trees.values().zip(&mut scratches) {
            tree.for_each_subset_of_shared(scratch, &record, |_, &plan| matched.push(plan));
        }
        for &p in &matched {
            match &mut counters[p] {
                Some(counter) => {
                    point.clear();
                    point.extend(plans[p].cols.iter().map(|col| col[row]));
                    counter.count_record(&point);
                }
                None => matches[p] += 1,
            }
        }
    }
    let counts = plans.iter().zip(counters).zip(matches);
    let counts = counts.map(|((plan, counter), n)| match counter {
        Some(counter) => counter.finish(),
        None => vec![n; plan.members.len()],
    });
    (counts.collect(), started.elapsed())
}

/// The support of every candidate by the paper's counting, over up to
/// `threads` contiguous row shards whose tallies are summed — with the
/// statistics of the pass (kernel `"direct"`). `pin` forces one backend
/// for every super-candidate with range attributes.
pub fn count_direct(
    table: &EncodedTable,
    candidates: &[Itemset],
    pin: Option<CounterKind>,
    threads: usize,
) -> (Vec<u64>, PassStats) {
    let mut stats = PassStats {
        kernel: "direct".to_string(),
        ..PassStats::default()
    };
    let plans = plans(table, candidates, pin, &mut stats);
    let (mut always, mut trees) = (Vec::new(), Trees::new());
    for (i, plan) in plans.iter().enumerate() {
        match plan.key.len() {
            0 => always.push(i),
            len => trees.entry(len).or_default().insert(plan.key.clone(), i),
        }
    }
    stats.hash_tree_nodes = trees.values().map(HashTree::node_count).sum();
    let rows = table.num_rows();
    let shards = threads.clamp(1, rows.max(1));
    stats.counter_bytes = stats.counter_bytes.saturating_mul(shards);
    stats.pooled = shards > 1;
    let (plans, index) = (&plans, (&always[..], &trees));
    let bounds = |s: usize| rows * s / shards..rows * (s + 1) / shards;
    let tasks = (0..shards).map(|s| move || scan(table, plans, index, bounds(s)));
    let started = Instant::now();
    let tallies = run_sharded(tasks.collect());
    stats.scan_time = started.elapsed();
    let merge_started = Instant::now();
    let mut counts = vec![0u64; candidates.len()];
    for (tally, busy) in tallies {
        stats.shard_scan_times.push(busy);
        for (plan, members) in plans.iter().zip(tally) {
            for (&m, n) in plan.members.iter().zip(members) {
                counts[m] += n;
            }
        }
    }
    if shards > 1 {
        stats.merge_time = merge_started.elapsed();
    }
    (counts, stats)
}

/// The paper's counting as a [`CountSource`] over an in-memory table (see
/// the module docs).
pub struct ReferenceSource<'t> {
    table: &'t EncodedTable,
    pin: Option<CounterKind>,
    threads: usize,
    stats: Option<PassStats>,
}

impl<'t> ReferenceSource<'t> {
    /// A source over `table` counting on up to `threads` row shards,
    /// every super-candidate with range attributes in the `pin` backend
    /// if one is given.
    pub fn new(table: &'t EncodedTable, pin: Option<CounterKind>, threads: usize) -> Self {
        ReferenceSource {
            table,
            pin,
            threads,
            stats: None,
        }
    }
}

impl CountSource for ReferenceSource<'_> {
    fn meta(&self) -> &EncodedTable {
        self.table
    }

    fn num_rows(&self) -> u64 {
        self.table.num_rows() as u64
    }

    fn value_counts(&mut self) -> Result<Vec<Vec<u64>>, CountError> {
        let histogram = |id| {
            let mut counts = vec![0u64; self.table.cardinality(id) as usize];
            for &code in self.table.codes(id) {
                counts[code as usize] += 1;
            }
            counts
        };
        Ok(self
            .table
            .schema()
            .iter()
            .map(|(id, _)| histogram(id))
            .collect())
    }

    fn count(&mut self, _pass: usize, candidates: &[Itemset]) -> Result<Vec<u64>, CountError> {
        let (counts, stats) = count_direct(self.table, candidates, self.pin, self.threads);
        match &mut self.stats {
            Some(pass) => pass.absorb(&stats),
            None => self.stats = Some(stats),
        }
        Ok(counts)
    }

    fn take_pass_stats(&mut self) -> Option<PassStats> {
        self.stats.take()
    }
}

//! The level-wise search (Step 3, Section 5) over an abstract counting
//! backend.
//!
//! The search needs only three things from the data: the pass-1
//! per-attribute value histograms, pass 2's 2-D histograms over attribute
//! pairs, and for every later pass the raw support count of each
//! candidate itemset. All are sums over rows, so counts taken over
//! *disjoint row partitions* merge by element-wise `u64` addition into
//! exactly the whole-table counts.
//!
//! [`CountSource`] abstracts that contract, and one driver runs the search
//! over any source: [`crate::Miner`], every `qar mine` topology and the
//! incremental update alike. [`mine_source`] wraps it into the complete
//! Steps 3–5 pipeline — candidate generation, rule generation and the
//! interest measure all happen on the caller's side, only counting is
//! delegated — which is precisely the *count distribution* scheme for
//! distributed Apriori: every participant counts its partition, the
//! coordinator merges and decides. Because candidate generation is global
//! and counts are exact integers, the result is bit-identical whatever the
//! partitioning.
//!
//! One local source lives here: [`InMemorySource`] counts the rows this
//! process holds — a [`Backing`] of an in-memory [`EncodedTable`] (what
//! [`crate::Miner`] mines through) or a spilled [`ChunkStore`] read one
//! chunk at a time, so tables larger than memory mine out-of-core. Given
//! the rows' value histograms from Steps 1–2, it answers pass 1 by
//! summing them instead of reading the rows.
//!
//! The TCP-backed source of the `qar-dist` crate implements the same
//! trait over a pool of worker processes; each worker counts its
//! partition, and the coordinator any partition it lost, through an
//! [`InMemorySource`].

use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::candidate::{generate_candidates, interest_prune_level1};
use crate::config::{MinerConfig, MinerError};
use crate::counts::{CapturedCounts, SupportCounts};
use crate::frequent::{
    attribute_value_counts, frequent_items_from_counts, histogram_value_counts,
    QuantFrequentItemsets,
};
use crate::interest::{annotate_interest_until, ItemSupports};
use crate::mine::{pass_finished_event, MineStats, RunCtx};
use crate::pipeline::{MiningOutput, MiningStats};
use crate::rules::generate_rules_until;
use crate::supercand::{
    cell_groups, count_candidates, fold_stats, pair_cells, PairHistograms, PassStats, ScanOptions,
    CELLS_KERNEL, CELL_BUDGET,
};
use qar_itemset::{Item, Itemset};
use qar_table::{AttributeId, AttributeKind, ChunkStore, EncodedTable, Histogram};
use qar_trace::{event::micros, CancelToken, ProgressSink, TraceEvent};

/// Why a [`CountSource`] call did not produce counts.
#[derive(Debug)]
pub enum CountError {
    /// The run's cancellation token tripped mid-count; the driver turns
    /// this into [`MinerError::Cancelled`] with the completed passes'
    /// statistics.
    Cancelled,
    /// The source failed for real (I/O, a lost worker, a corrupt chunk).
    Failed(MinerError),
}

impl From<MinerError> for CountError {
    fn from(e: MinerError) -> Self {
        CountError::Failed(e)
    }
}

impl From<qar_table::TableError> for CountError {
    fn from(e: qar_table::TableError) -> Self {
        CountError::Failed(MinerError::from(e))
    }
}

impl From<crate::supercand::ScanCancelled> for CountError {
    fn from(_: crate::supercand::ScanCancelled) -> Self {
        CountError::Cancelled
    }
}

/// A counting backend for the level-wise search.
///
/// Implementations must satisfy the count-distribution contract: the
/// returned vectors and histogram cells are the *exact whole-table*
/// tallies (raw, unfiltered by support thresholds), as if computed by a
/// single serial scan. Any partitioning — across chunks, processes, or
/// machines — must be over disjoint row subsets whose per-partition
/// counts are merged by `u64` addition.
pub trait CountSource {
    /// The schema and encoders of the table being mined. A decode-only
    /// header table ([`EncodedTable::header_only`]) is sufficient — the
    /// driver never scans it.
    fn meta(&self) -> &EncodedTable;

    /// Total number of rows across all partitions.
    fn num_rows(&self) -> u64;

    /// Pass 1: the per-attribute value histograms (`counts[attr][code]`),
    /// merged across partitions. A source holding Steps 1–2's value
    /// histograms of its rows sums them ([`histogram_value_counts`])
    /// instead of reading the rows.
    fn value_counts(&mut self) -> Result<Vec<Vec<u64>>, CountError>;

    /// Pass `k ≥ 2`: the raw support count of each candidate, aligned
    /// with `candidates`, merged across partitions.
    fn count(&mut self, pass: usize, candidates: &[Itemset]) -> Result<Vec<u64>, CountError>;

    /// Pass 2: add every row to `hist` — zeroed histograms over the
    /// attribute pairs the driver asks for — as raw cells merged across
    /// partitions, never prefix-summed.
    ///
    /// The default counts every `(code_a, code_b)` cell as a point
    /// 2-itemset through [`CountSource::count`] — in one call unless the
    /// histograms hold over [`POINT_BATCH`] cells — so a wrapper that
    /// forwards only the required methods still yields exact cells. The
    /// sources of this crate and the distributed one scan rows straight
    /// into the histograms.
    fn count_pair_cells(&mut self, hist: &mut PairHistograms) -> Result<(), CountError> {
        count_pair_points(self, hist)
    }

    /// The scan statistics of the counting calls made since the last
    /// take, for a source that keeps them. The default keeps none, and
    /// the driver reports the pass's wall time as its `scan_time`.
    fn take_pass_stats(&mut self) -> Option<PassStats> {
        None
    }
}

/// Most point cells the default [`CountSource::count_pair_cells`] hands
/// one [`CountSource::count`] call (a few MB of 2-itemsets).
pub const POINT_BATCH: usize = 1 << 16;

/// Count `hist` cell by cell: every pair's `(code_a, code_b)` as a point
/// 2-itemset, in [`CountSource::count`] calls at pass 2 of at most
/// [`POINT_BATCH`] itemsets, the counts added to the cells (the default
/// [`CountSource::count_pair_cells`]).
fn count_pair_points<S: CountSource + ?Sized>(
    source: &mut S,
    hist: &mut PairHistograms,
) -> Result<(), CountError> {
    let card = |attr: u32| source.meta().cardinality(AttributeId(attr as usize));
    let domains: Vec<(u32, u32, u32, u32)> = hist
        .pairs()
        .iter()
        .map(|&(a, b)| (a, card(a), b, card(b)))
        .collect();
    let spanned: usize = domains
        .iter()
        .map(|&(_, card_a, _, card_b)| card_a as usize * card_b as usize)
        .sum();
    if spanned != hist.cells().len() {
        return Err(CountError::Failed(MinerError::Distributed(format!(
            "pass 2: the histograms hold {} cells but the source's header spans {spanned}",
            hist.cells().len()
        ))));
    }
    let mut points = domains.into_iter().flat_map(|(a, card_a, b, card_b)| {
        (0..card_a).flat_map(move |x| {
            (0..card_b).map(move |y| Itemset::new(vec![Item::value(a, x), Item::value(b, y)]))
        })
    });
    let mut cells = Vec::with_capacity(spanned);
    loop {
        let batch: Vec<Itemset> = points.by_ref().take(POINT_BATCH).collect();
        if batch.is_empty() {
            break;
        }
        cells.extend(counted(source, 2, &batch)?);
    }
    hist.merge_cells(&cells);
    Ok(())
}

/// [`CountSource::count`], checked to return one count per candidate.
fn counted<S: CountSource + ?Sized>(
    source: &mut S,
    pass: usize,
    candidates: &[Itemset],
) -> Result<Vec<u64>, CountError> {
    let counts = source.count(pass, candidates)?;
    if counts.len() != candidates.len() {
        return Err(CountError::Failed(MinerError::Distributed(format!(
            "pass {pass}: source returned {} counts for {} candidates",
            counts.len(),
            candidates.len()
        ))));
    }
    Ok(counts)
}

/// Count `candidates` at pass `pass` and keep those reaching `min_count`.
fn count_frequent<S: CountSource + ?Sized>(
    source: &mut S,
    pass: usize,
    candidates: Vec<Itemset>,
    min_count: u64,
) -> Result<Vec<(Itemset, u64)>, CountError> {
    let counts = counted(source, pass, &candidates)?;
    Ok(candidates
        .into_iter()
        .zip(counts)
        .filter(|(_, c)| *c >= min_count)
        .collect())
}

/// Pass 2 over a level 1: the members of `C_2` — the cross product of
/// the level's items over distinct attribute pairs — without building
/// `C_2`.
///
/// Every pair `(a, b)`, `a < b`, of attributes holding a level-1 item is
/// split by [`CELL_BUDGET`]: pairs within it are histogrammed,
/// pairs over it keep their cross product as explicit candidates.
struct PairPass {
    /// Each attribute's level-1 items.
    items: BTreeMap<u32, Vec<Item>>,
    /// The pairs within the budget, and their cells.
    pairs: Vec<(u32, u32)>,
    cells: Vec<usize>,
    /// The cross products of the pairs over the budget.
    explicit: Vec<Itemset>,
}

impl PairPass {
    fn plan(meta: &EncodedTable, level1: &[(Itemset, u64)]) -> Self {
        let mut items: BTreeMap<u32, Vec<Item>> = BTreeMap::new();
        for (itemset, _) in level1 {
            let item = itemset.items()[0];
            items.entry(item.attr).or_default().push(item);
        }
        let attrs: Vec<u32> = items.keys().copied().collect();
        let (mut pairs, mut cells, mut explicit) = (Vec::new(), Vec::new(), Vec::new());
        for (i, &a) in attrs.iter().enumerate() {
            for &b in &attrs[i + 1..] {
                let n = pair_cells(meta, a, b);
                if n <= CELL_BUDGET {
                    pairs.push((a, b));
                    cells.push(n);
                } else {
                    for &ia in &items[&a] {
                        explicit.extend(items[&b].iter().map(|&ib| Itemset::new(vec![ia, ib])));
                    }
                }
            }
        }
        PairPass {
            items,
            pairs,
            cells,
            explicit,
        }
    }

    /// The counters pass 2 fills — histogram cells plus explicit
    /// candidates — reported as its candidate count.
    fn counters(&self) -> usize {
        self.cells.iter().sum::<usize>() + self.explicit.len()
    }

    /// The members reaching `min_count`, in cross-product order. The
    /// histogrammed pairs go to [`CountSource::count_pair_cells`] in
    /// groups of at most the budget's cells, are prefix-summed and read
    /// out by [`read_pair`]; the explicit candidates are counted in one
    /// [`CountSource::count`] call.
    fn count(
        self,
        source: &mut dyn CountSource,
        min_count: u64,
    ) -> Result<Vec<(Itemset, u64)>, CountError> {
        let mut level = Vec::new();
        for group in cell_groups(&self.cells, CELL_BUDGET) {
            let mut hist = PairHistograms::new(source.meta(), self.pairs[group].to_vec());
            source.count_pair_cells(&mut hist)?;
            hist.build_prefix_sums();
            for (p, (a, b)) in hist.pairs().iter().enumerate() {
                let support = |ia, ib| hist.rect_sum(p, ia, ib);
                read_pair(
                    &self.items[a],
                    &self.items[b],
                    support,
                    min_count,
                    &mut level,
                );
            }
        }
        if !self.explicit.is_empty() {
            level.extend(count_frequent(source, 2, self.explicit, min_count)?);
        }
        Ok(level)
    }
}

/// `items` as index runs that share `lo` with `hi` rising: within a run
/// each item's range contains the one before it, so a support over the
/// run never decreases. Level-1 items, sorted by `(lo, hi)` within an
/// attribute, form one run per `lo`.
fn lo_runs(items: &[Item]) -> Vec<Range<usize>> {
    let mut runs = Vec::new();
    let mut start = 0;
    for i in 1..=items.len() {
        if i == items.len() || items[i].lo != items[i - 1].lo || items[i].hi <= items[i - 1].hi {
            runs.push(start..i);
            start = i;
        }
    }
    runs
}

/// Push every pair `(ia, ib)` of `items_a × items_b` whose `support`
/// reaches `min_count`, in the cross product's order (`ia`-major).
///
/// Support never decreases as either item widens within its
/// [`lo_runs`] run. So a pair of runs whose two widest items fall short
/// holds nothing frequent and is skipped after one rectangle sum; in the
/// others, one binary search finds the first `a`-item of the run that
/// reaches `min_count` with the widest `b`-item, and for each later
/// `a`-item another finds the first frequent `b`-item. The readout costs
/// the frequent pairs plus a few searches per pair of runs, not
/// `|items_a| · |items_b|` rectangle sums.
fn read_pair(
    items_a: &[Item],
    items_b: &[Item],
    support: impl Fn(Item, Item) -> u64,
    min_count: u64,
    level: &mut Vec<(Itemset, u64)>,
) {
    let runs_b = lo_runs(items_b);
    for run_a in lo_runs(items_a) {
        let run_a = &items_a[run_a];
        let widest_a = run_a[run_a.len() - 1];
        // Each b-run with a frequent pair, and the first a-item with one.
        let live: Vec<(&[Item], usize)> = runs_b
            .iter()
            .map(|run_b| &items_b[run_b.clone()])
            .filter(|run_b| support(widest_a, run_b[run_b.len() - 1]) >= min_count)
            .map(|run_b| {
                let widest_b = run_b[run_b.len() - 1];
                (
                    run_b,
                    run_a.partition_point(|&ia| support(ia, widest_b) < min_count),
                )
            })
            .collect();
        for (i, &ia) in run_a.iter().enumerate() {
            for &(run_b, first_a) in &live {
                if i < first_a {
                    continue;
                }
                let first_b = run_b.partition_point(|&ib| support(ia, ib) < min_count);
                for &ib in &run_b[first_b..] {
                    level.push((Itemset::new(vec![ia, ib]), support(ia, ib)));
                }
            }
        }
    }
}

/// What a pass `k ≥ 2` counts.
enum PassWork {
    /// Pass 2's pair histograms.
    Pairs(PairPass),
    /// A later pass's joined candidates.
    Candidates(Vec<Itemset>),
}

/// Mine all frequent itemsets using `source` for every counting scan: the
/// one level-wise loop of every mining path.
///
/// Pass 1 derives the frequent items from the source's merged histograms
/// (then applies the Lemma 5 prune), pass 2 reads the frequent pairs out
/// of pair histograms the source fills, and every later pass counts the
/// candidates [`generate_candidates`] joins from the previous level; a
/// token that fires during the join ends the run in
/// [`MinerError::Cancelled`] naming candidate generation.
/// Pass 2's candidate count is the counters it fills (histogram cells
/// plus explicit candidates). A pass reports the source's own
/// [`PassStats`] when it keeps them, else the wall time of its counting
/// calls as `scan_time`.
///
/// Also returns the merged pass-1 value counts (Step 5 builds its
/// [`ItemSupports`] from them instead of re-scanning).
pub(crate) fn mine_with_source_ctx(
    source: &mut dyn CountSource,
    config: &MinerConfig,
    ctx: RunCtx<'_>,
) -> Result<Step3, MinerError> {
    config.validate()?;
    let num_rows = source.num_rows();
    if num_rows == 0 {
        return Err(MinerError::Schema(qar_table::TableError::EmptyTable));
    }
    let min_count = ((config.min_support * num_rows as f64).ceil() as u64).max(1);
    let max_count = (config.max_support * num_rows as f64).floor() as u64;

    let mut frequent = QuantFrequentItemsets::new(num_rows);
    let mut stats = MineStats {
        parallelism: config.effective_parallelism(),
        ..MineStats::default()
    };

    let run_started = Instant::now();
    ctx.emit(|| TraceEvent::RunStarted {
        rows: num_rows,
        attributes: source.meta().schema().len(),
        min_count,
        max_count,
        parallelism: stats.parallelism,
    });
    if ctx.is_cancelled() {
        return Err(ctx.cancelled(1, stats));
    }

    // Pass 1: frequent items from the merged histograms.
    ctx.emit(|| TraceEvent::PassStarted {
        pass: 1,
        candidates: 0,
    });
    let pass1_started = Instant::now();
    let value_counts = match source.value_counts() {
        Ok(v) => v,
        Err(CountError::Cancelled) => return Err(ctx.cancelled(1, stats)),
        Err(CountError::Failed(e)) => return Err(e),
    };
    let items = frequent_items_from_counts(source.meta(), value_counts, min_count, max_count);
    stats.pass1_scan_time = pass1_started.elapsed();
    let mut level1: Vec<(Itemset, u64)> = items
        .items
        .iter()
        .map(|&(item, count)| (Itemset::singleton(item), count))
        .collect();
    let value_counts = items.value_counts;

    // Lemma 5 interest prune (only sound when the user wants support AND
    // confidence above expectation; it depends only on level-1 fractions
    // and the schema).
    if let Some(interest) = &config.interest {
        if interest.prunes() {
            let before = level1.len();
            let schema = source.meta().schema();
            let is_quant = |attr: u32| {
                schema.attributes()[attr as usize].kind() == AttributeKind::Quantitative
            };
            level1 = interest_prune_level1(level1, num_rows, interest.level, &is_quant);
            stats.interest_pruned_items = before - level1.len();
        }
    }
    ctx.emit(|| TraceEvent::PassFinished {
        pass: 1,
        candidates: 0,
        frequent: level1.len(),
        pruned: stats.interest_pruned_items,
        super_candidates: 0,
        array_backed: 0,
        rtree_backed: 0,
        hash_tree_nodes: 0,
        counter_bytes: 0,
        scan_us: micros(stats.pass1_scan_time),
        merge_us: 0,
        shard_scan_us: Vec::new(),
        pooled: false,
        // Pass 1 counts each attribute's value histogram.
        kernel: CELLS_KERNEL.to_string(),
    });
    if level1.is_empty() {
        ctx.emit(|| TraceEvent::RunFinished {
            passes: 1,
            frequent_total: 0,
            elapsed_us: micros(run_started.elapsed()),
        });
        return Ok(Step3::new(frequent, stats, value_counts));
    }
    frequent.push_level(level1);

    // Passes k >= 2: global candidate generation, delegated counting.
    loop {
        let k = frequent.levels.len() + 1;
        if config.max_itemset_size != 0 && k > config.max_itemset_size {
            break;
        }
        if ctx.is_cancelled() {
            return Err(ctx.cancelled(k, stats));
        }
        let prev = frequent.levels.last().expect("level 1 pushed");
        // Pass 2 reads pair histograms instead of building `C_2`.
        let work = if k == 2 {
            PassWork::Pairs(PairPass::plan(source.meta(), prev))
        } else {
            let Some(candidates) = generate_candidates(prev, ctx.cancel) else {
                return Err(ctx.stop(k, Some(CANDIDATE_GENERATION), stats));
            };
            if candidates.is_empty() {
                break;
            }
            PassWork::Candidates(candidates)
        };
        let size = match &work {
            PassWork::Pairs(pairs) => pairs.counters(),
            PassWork::Candidates(candidates) => candidates.len(),
        };
        stats.candidates_per_pass.push(size);
        ctx.emit(|| TraceEvent::PassStarted {
            pass: k,
            candidates: size,
        });
        let started = Instant::now();
        let counted = match work {
            PassWork::Pairs(pairs) => pairs.count(source, min_count),
            PassWork::Candidates(candidates) => count_frequent(source, k, candidates, min_count),
        };
        let level = match counted {
            Ok(level) => level,
            Err(CountError::Cancelled) => return Err(ctx.cancelled(k, stats)),
            Err(CountError::Failed(e)) => return Err(e),
        };
        let pass = source.take_pass_stats().unwrap_or_else(|| PassStats {
            scan_time: started.elapsed(),
            ..PassStats::default()
        });
        ctx.emit(|| pass_finished_event(k, size, level.len(), &pass));
        stats.pass_stats.push(pass);
        if level.is_empty() {
            break;
        }
        frequent.push_level(level);
    }
    ctx.emit(|| TraceEvent::RunFinished {
        passes: 1 + stats.pass_stats.len(),
        frequent_total: frequent.total(),
        elapsed_us: micros(run_started.elapsed()),
    });
    Ok(Step3::new(frequent, stats, value_counts))
}

/// What Step 3 leaves for Steps 4–5: the frequent itemsets, the run's
/// pass statistics and the merged pass-1 value counts.
pub(crate) struct Step3 {
    pub frequent: Arc<QuantFrequentItemsets>,
    pub stats: MineStats,
    pub value_counts: Vec<Vec<u64>>,
}

impl Step3 {
    fn new(frequent: QuantFrequentItemsets, stats: MineStats, value_counts: Vec<Vec<u64>>) -> Self {
        Step3 {
            frequent: Arc::new(frequent),
            stats,
            value_counts,
        }
    }
}

/// The phase a run stopped in while joining a pass's candidates.
const CANDIDATE_GENERATION: &str = "candidate generation";
/// The phase a run stopped in during rule generation.
const STEP_4: &str = "Step 4 (rule generation)";
/// The phase a run stopped in during the interest measure.
const STEP_5: &str = "Step 5 (the interest measure)";

/// Steps 4–5 over a finished Step 3: the rules, then the interest
/// measure from the merged pass-1 histograms, which equal a whole-table
/// scan. `started` is when the run began and `elapsed_mining` what its
/// Step 3 took. The token is checked before rule generation, once per
/// frequent itemset in it and once per rule in the interest measure; a
/// stop ends in [`MinerError::Cancelled`] naming the step, with Step 3's
/// statistics.
pub(crate) fn rules_and_interest(
    meta: &EncodedTable,
    step3: &Step3,
    config: &MinerConfig,
    ctx: RunCtx<'_>,
    started: Instant,
    elapsed_mining: Duration,
) -> Result<MiningOutput, MinerError> {
    let stop = || ctx.is_cancelled();
    let stopped = |phase| ctx.stopped_in(phase, step3.stats.clone());
    let frequent = &step3.frequent;
    if stop() {
        return Err(stopped(STEP_4));
    }
    let rules = generate_rules_until(frequent, config.min_confidence, &stop)
        .ok_or_else(|| stopped(STEP_4))?;
    let item_supports = ItemSupports::from_value_counts(&step3.value_counts, frequent.num_rows);
    let interest = match &config.interest {
        Some(ic) => Some(
            annotate_interest_until(&rules, frequent, &item_supports, ic, &stop)
                .ok_or_else(|| stopped(STEP_5))?,
        ),
        None => None,
    };

    let rules_total = rules.len();
    let rules_interesting = match &interest {
        Some(v) => v.iter().filter(|x| x.interesting).count(),
        None => rules_total,
    };
    Ok(MiningOutput {
        encoded: meta.clone(),
        frequent: Arc::clone(frequent),
        rules,
        interest,
        item_supports,
        stats: MiningStats {
            intervals_per_attribute: Vec::new(),
            mine: step3.stats.clone(),
            rules_total,
            rules_interesting,
            elapsed: started.elapsed(),
            elapsed_mining,
            encoding_reused: false,
            frequent_reused: false,
        },
    })
}

/// Run the complete Steps 3–5 pipeline (frequent itemsets, rules,
/// interest) over an abstract counting backend.
///
/// The result is bit-identical whichever source counts the same rows:
/// same frequent itemsets and supports, same rules, same interest
/// verdicts. Statistics differ only in their volatile fields (timings,
/// kernels) — [`MiningStats::normalized`] projections agree exactly.
pub fn mine_source(
    source: &mut dyn CountSource,
    config: &MinerConfig,
    sink: Option<&dyn ProgressSink>,
    cancel: Option<&CancelToken>,
) -> Result<MiningOutput, MinerError> {
    config.validate()?;
    let started = Instant::now();
    let ctx = RunCtx { sink, cancel };
    let step3 = mine_with_source_ctx(source, config, ctx)?;
    rules_and_interest(
        source.meta(),
        &step3,
        config,
        ctx,
        started,
        started.elapsed(),
    )
}

/// A pass-through [`CountSource`] that records everything the driver
/// asked of the inner source: the pass-1 histograms, pass 2's raw pair
/// cells, and every `(pass, candidate, raw count)` triple counted
/// explicitly. The recording is exactly the [`CapturedCounts`] a catalog
/// persists for later incremental updates.
pub struct CaptureSource<'s> {
    inner: &'s mut dyn CountSource,
    value_counts: Option<Vec<Vec<u64>>>,
    pair_cells: Vec<((u32, u32), Vec<u64>)>,
    passes: Vec<(u32, Vec<(Itemset, u64)>)>,
}

impl<'s> CaptureSource<'s> {
    /// Wrap `inner`, recording every count it serves.
    pub fn new(inner: &'s mut dyn CountSource) -> Self {
        CaptureSource {
            inner,
            value_counts: None,
            pair_cells: Vec::new(),
            passes: Vec::new(),
        }
    }

    /// The recording (valid once a mine over this source has finished).
    pub fn into_captured(self) -> CapturedCounts {
        CapturedCounts {
            value_counts: self.value_counts.unwrap_or_default(),
            pair_cells: self.pair_cells,
            passes: self.passes,
        }
    }
}

impl CountSource for CaptureSource<'_> {
    fn meta(&self) -> &EncodedTable {
        self.inner.meta()
    }

    fn num_rows(&self) -> u64 {
        self.inner.num_rows()
    }

    fn value_counts(&mut self) -> Result<Vec<Vec<u64>>, CountError> {
        let counts = self.inner.value_counts()?;
        self.value_counts = Some(counts.clone());
        Ok(counts)
    }

    fn count(&mut self, pass: usize, candidates: &[Itemset]) -> Result<Vec<u64>, CountError> {
        let counts = self.inner.count(pass, candidates)?;
        if counts.len() == candidates.len() {
            self.passes.push((
                pass as u32,
                candidates
                    .iter()
                    .cloned()
                    .zip(counts.iter().copied())
                    .collect(),
            ));
        }
        Ok(counts)
    }

    fn count_pair_cells(&mut self, hist: &mut PairHistograms) -> Result<(), CountError> {
        self.inner.count_pair_cells(hist)?;
        for (p, &pair) in hist.pairs().iter().enumerate() {
            self.pair_cells.push((pair, hist.pair_cells(p).to_vec()));
        }
        Ok(())
    }

    fn take_pass_stats(&mut self) -> Option<PassStats> {
        self.inner.take_pass_stats()
    }
}

/// [`mine_source`] with count capture: returns the finished output
/// together with the raw tallies the run accumulated, ready to persist
/// as a catalog `COUNTS` section.
pub fn mine_source_captured(
    source: &mut dyn CountSource,
    config: &MinerConfig,
    sink: Option<&dyn ProgressSink>,
    cancel: Option<&CancelToken>,
) -> Result<(MiningOutput, CapturedCounts), MinerError> {
    let mut capture = CaptureSource::new(source);
    let output = mine_source(&mut capture, config, sink, cancel)?;
    Ok((output, capture.into_captured()))
}

/// The incremental-update [`CountSource`]: persisted base counts plus a
/// delta-only source, merged element-wise.
///
/// `value_counts` is base histograms + delta histograms, and
/// `count_pair_cells` base cells + delta cells for any subset of the
/// pairs the base recorded. `count` serves each candidate as its base
/// tally (looked up in the persisted pass records) plus the delta
/// source's tally — so the only rows ever scanned are the delta's. By
/// the count-distribution invariant the sums equal a full base+delta
/// scan exactly.
///
/// A pair or candidate the base run never counted (an attribute gained
/// its first frequent item, or a support crossed a threshold, as rows
/// arrived — changing a frequent level and hence what the next pass
/// counts) cannot be served incrementally; the lookup fails with
/// [`MinerError::Update`] and the caller falls back to a full re-mine.
pub struct MergeSource<'a> {
    base: &'a SupportCounts,
    delta: Option<&'a mut dyn CountSource>,
    meta: EncodedTable,
    pass_maps: HashMap<u32, HashMap<Itemset, u64>>,
}

/// The update error of a pass the base run counted differently.
fn diverged(pass: usize, what: &str) -> CountError {
    CountError::Failed(MinerError::Update(format!(
        "pass {pass}: {what} diverged from the base run \
         (a support crossed a threshold); full re-mine required"
    )))
}

impl<'a> MergeSource<'a> {
    /// A source over `base` counts plus `delta` (pass `None` for an
    /// empty delta — no scan at all then). `meta` must be a decode-only
    /// header whose `num_rows` is the combined base+delta total and whose
    /// schema/encoders are the ones `base.fingerprint` pins.
    pub fn new(
        base: &'a SupportCounts,
        delta: Option<&'a mut dyn CountSource>,
        meta: EncodedTable,
    ) -> Self {
        MergeSource {
            base,
            delta,
            meta,
            pass_maps: HashMap::new(),
        }
    }

    fn base_counts(&mut self, pass: usize, candidates: &[Itemset]) -> Result<Vec<u64>, CountError> {
        let map = match self.pass_maps.entry(pass as u32) {
            std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::hash_map::Entry::Vacant(e) => {
                let recorded = self
                    .base
                    .captured
                    .passes
                    .iter()
                    .find(|(p, _)| *p == pass as u32)
                    .ok_or_else(|| diverged(pass, "the candidate set"))?;
                e.insert(recorded.1.iter().cloned().collect())
            }
        };
        candidates
            .iter()
            .map(|c| {
                map.get(c)
                    .copied()
                    .ok_or_else(|| diverged(pass, "the candidate set"))
            })
            .collect()
    }
}

impl CountSource for MergeSource<'_> {
    fn meta(&self) -> &EncodedTable {
        &self.meta
    }

    fn num_rows(&self) -> u64 {
        self.base.num_rows + self.delta.as_ref().map_or(0, |d| d.num_rows())
    }

    fn value_counts(&mut self) -> Result<Vec<Vec<u64>>, CountError> {
        let mut merged = self.base.captured.value_counts.clone();
        if let Some(delta) = &mut self.delta {
            let add = delta.value_counts()?;
            if add.len() != merged.len() || add.iter().zip(&merged).any(|(a, m)| a.len() != m.len())
            {
                return Err(CountError::Failed(MinerError::Update(
                    "delta histograms do not align with the persisted base counts".to_string(),
                )));
            }
            for (acc, a) in merged.iter_mut().zip(add) {
                for (x, y) in acc.iter_mut().zip(a) {
                    *x += y;
                }
            }
        }
        Ok(merged)
    }

    fn count(&mut self, pass: usize, candidates: &[Itemset]) -> Result<Vec<u64>, CountError> {
        let mut counts = self.base_counts(pass, candidates)?;
        if let Some(delta) = &mut self.delta {
            let add = counted(&mut **delta, pass, candidates)?;
            for (x, y) in counts.iter_mut().zip(add) {
                *x += y;
            }
        }
        Ok(counts)
    }

    fn count_pair_cells(&mut self, hist: &mut PairHistograms) -> Result<(), CountError> {
        for p in 0..hist.pairs().len() {
            let pair = hist.pairs()[p];
            let (_, cells) = self
                .base
                .captured
                .pair_cells
                .iter()
                .find(|(recorded, _)| *recorded == pair)
                .ok_or_else(|| diverged(2, "the histogrammed attribute pairs"))?;
            if cells.len() != hist.pair_cells(p).len() {
                return Err(CountError::Failed(MinerError::Update(format!(
                    "pair {pair:?}: persisted cells do not match the encoders' code domains"
                ))));
            }
            hist.merge_pair_cells(p, cells);
        }
        match &mut self.delta {
            Some(delta) => delta.count_pair_cells(hist),
            None => Ok(()),
        }
    }
}

/// The rows this process holds: an in-memory table, or a spilled chunk
/// store read back one chunk at a time.
#[derive(Clone, Copy)]
pub enum Backing<'a> {
    /// An in-memory encoded table.
    Memory(&'a EncodedTable),
    /// An out-of-core chunk store; chunks are re-read from disk on
    /// demand, so peak memory stays one chunk.
    Chunks(&'a ChunkStore),
}

impl<'a> From<&'a EncodedTable> for Backing<'a> {
    fn from(table: &'a EncodedTable) -> Self {
        Backing::Memory(table)
    }
}

impl<'a> From<&'a ChunkStore> for Backing<'a> {
    fn from(store: &'a ChunkStore) -> Self {
        Backing::Chunks(store)
    }
}

impl Backing<'_> {
    /// Rows the backing holds.
    pub fn num_rows(&self) -> usize {
        match self {
            Backing::Memory(table) => table.num_rows(),
            Backing::Chunks(store) => store.num_rows(),
        }
    }

    /// Hand every row to `f` in order, unless there are none: an
    /// in-memory table whole and borrowed, a chunk store one chunk at a
    /// time as read from disk.
    pub fn for_each_block(
        &self,
        f: &mut dyn FnMut(Cow<'_, EncodedTable>) -> Result<(), CountError>,
    ) -> Result<(), CountError> {
        match *self {
            _ if self.num_rows() == 0 => Ok(()),
            Backing::Memory(table) => f(Cow::Borrowed(table)),
            Backing::Chunks(store) => {
                (0..store.num_chunks()).try_for_each(|index| f(Cow::Owned(store.chunk(index)?)))
            }
        }
    }
}

/// The local [`CountSource`]: counts the rows this process holds with the
/// scan kernel — rows held in memory, or read one spilled chunk at a
/// time so peak memory is one chunk — and scans pass 2 straight into the
/// pair histograms.
///
/// Every count walks the [`Backing`]'s rows block by block and sums the
/// blocks' counts. A whole in-memory table is one block, handed to the
/// kernels without a copy; spilled chunks are one block each, their scan
/// statistics folded into one scan's over all their rows. Pass 1 reads
/// no row when the source was given the rows' value histograms
/// ([`InMemorySource::with_histograms`]).
pub struct InMemorySource<'a> {
    rows: Backing<'a>,
    /// The in-memory table itself, or a chunk store's header.
    meta: Cow<'a, EncodedTable>,
    /// Steps 1–2's value histograms of the rows, when the caller has them.
    histograms: Option<Cow<'a, [Histogram]>>,
    num_threads: usize,
    cancel: Option<CancelToken>,
    pass_stats: Option<PassStats>,
}

impl<'a> InMemorySource<'a> {
    /// A source over all of `rows` — an [`EncodedTable`] or a
    /// [`ChunkStore`] — with parallelism from `config`.
    pub fn new(rows: impl Into<Backing<'a>>, config: &MinerConfig) -> Self {
        let rows = rows.into();
        let meta = match rows {
            Backing::Memory(table) => Cow::Borrowed(table),
            Backing::Chunks(store) => Cow::Owned(store.header()),
        };
        InMemorySource {
            rows,
            meta,
            histograms: None,
            num_threads: config.effective_parallelism(),
            cancel: None,
            pass_stats: None,
        }
    }

    /// Answer pass 1 from `histograms`, Steps 1–2's value histograms
    /// (schema order) of exactly the rows this source counts, by
    /// [`histogram_value_counts`] instead of a scan.
    pub fn with_histograms(mut self, histograms: impl Into<Cow<'a, [Histogram]>>) -> Self {
        self.histograms = Some(histograms.into());
        self
    }

    /// Attach the run's cancellation token, if any, checked between
    /// blocks and inside every counting scan.
    pub fn with_cancel(mut self, cancel: Option<&CancelToken>) -> Self {
        self.cancel = cancel.cloned();
        self
    }

    /// Hand every block of the counted rows to `scan` with the source's
    /// scan options, and fold the blocks' statistics into the pass's as
    /// one scan's: the same counting work over all the blocks' rows.
    fn scan(
        &mut self,
        mut scan: impl FnMut(&EncodedTable, ScanOptions<'_>) -> Result<PassStats, CountError>,
    ) -> Result<(), CountError> {
        let opts = ScanOptions {
            cancel: self.cancel.as_ref(),
            ..ScanOptions::new(self.num_threads)
        };
        let mut call = None;
        self.rows.for_each_block(&mut |block| {
            // Between blocks; a scan checks the token itself.
            if call.is_some() && opts.cancel.is_some_and(CancelToken::is_cancelled) {
                return Err(CountError::Cancelled);
            }
            fold_stats(&mut call, scan(&block, opts)?, PassStats::absorb_rows);
            Ok(())
        })?;
        if let Some(call) = call {
            fold_stats(&mut self.pass_stats, call, PassStats::absorb);
        }
        Ok(())
    }
}

impl CountSource for InMemorySource<'_> {
    /// The in-memory table, or the chunk store's decode-only header.
    fn meta(&self) -> &EncodedTable {
        &self.meta
    }

    fn num_rows(&self) -> u64 {
        self.rows.num_rows() as u64
    }

    fn value_counts(&mut self) -> Result<Vec<Vec<u64>>, CountError> {
        if let Some(histograms) = &self.histograms {
            return Ok(histogram_value_counts(&self.meta, histograms)?);
        }
        let mut merged: Vec<Vec<u64>> = self
            .meta
            .schema()
            .iter()
            .map(|(id, _)| vec![0u64; self.meta.cardinality(id) as usize])
            .collect();
        self.scan(|block, _| {
            for (acc, add) in merged.iter_mut().zip(attribute_value_counts(block)) {
                for (a, b) in acc.iter_mut().zip(add) {
                    *a += b;
                }
            }
            // Pass 1 reports no scan statistics.
            Ok(PassStats::default())
        })?;
        Ok(merged)
    }

    fn count(&mut self, _pass: usize, candidates: &[Itemset]) -> Result<Vec<u64>, CountError> {
        let mut sums = vec![0u64; candidates.len()];
        self.scan(|block, opts| {
            let (add, scan) = count_candidates(block, candidates, opts)?;
            for (a, b) in sums.iter_mut().zip(add) {
                *a += b;
            }
            Ok(scan)
        })?;
        Ok(sums)
    }

    /// One histogram scan of every block.
    fn count_pair_cells(&mut self, hist: &mut PairHistograms) -> Result<(), CountError> {
        self.scan(|block, opts| Ok(hist.scan(block, opts)?))
    }

    fn take_pass_stats(&mut self) -> Option<PassStats> {
        self.pass_stats.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{InterestMode, PartitionSpec};
    use crate::miner::Miner;
    use qar_table::{Schema, Table, Value};

    fn people_table() -> Table {
        let schema = Schema::builder()
            .quantitative("Age")
            .categorical("Married")
            .quantitative("NumCars")
            .build()
            .unwrap();
        let mut t = Table::new(schema);
        for (age, married, cars) in [
            (23, "No", 1),
            (25, "Yes", 1),
            (29, "No", 0),
            (34, "Yes", 2),
            (38, "Yes", 2),
            (41, "No", 1),
            (45, "Yes", 3),
            (52, "Yes", 2),
            (58, "No", 0),
            (63, "Yes", 2),
        ] {
            t.push_row(&[Value::Int(age), Value::from(married), Value::Int(cars)])
                .unwrap();
        }
        t
    }

    fn config() -> MinerConfig {
        MinerConfig {
            min_support: 0.2,
            min_confidence: 0.5,
            max_support: 1.0,
            partitioning: PartitionSpec::FixedIntervals(3),
            interest: None,
            ..MinerConfig::default()
        }
    }

    fn encoded() -> EncodedTable {
        let table = people_table();
        let (encoders, _) = crate::pipeline::build_encoders(&table, &config()).unwrap();
        EncodedTable::encode(&table, encoders).unwrap()
    }

    fn assert_outputs_identical(a: &MiningOutput, b: &MiningOutput) {
        assert_eq!(a.frequent.levels, b.frequent.levels);
        assert_eq!(a.rules, b.rules);
        assert_eq!(a.stats.rules_total, b.stats.rules_total);
        assert_eq!(a.stats.rules_interesting, b.stats.rules_interesting);
        assert_eq!(
            a.stats.mine.candidates_per_pass,
            b.stats.mine.candidates_per_pass
        );
        assert_eq!(a.stats.mine.pass_stats.len(), b.stats.mine.pass_stats.len());
        assert_eq!(
            a.stats.mine.interest_pruned_items,
            b.stats.mine.interest_pruned_items
        );
    }

    /// The miner's implicit pair pass and the explicit `C_2` a recording
    /// wrapper sees produce the same output.
    #[test]
    fn in_memory_source_matches_serial_miner() {
        let enc = encoded();
        let serial = Miner::new(config()).mine_encoded(&enc).unwrap();
        let mut source = InMemorySource::new(&enc, &config());
        let (sourced, _) = mine_source_captured(&mut source, &config(), None, None).unwrap();
        assert_outputs_identical(&serial, &sourced);
    }

    #[test]
    fn in_memory_source_matches_with_interest() {
        let mut cfg = config();
        cfg.interest = Some(crate::config::InterestConfig {
            level: 1.1,
            mode: InterestMode::SupportAndConfidence,
            prune_candidates: true,
        });
        let enc = encoded();
        let serial = Miner::new(cfg.clone()).mine_encoded(&enc).unwrap();
        let mut source = InMemorySource::new(&enc, &cfg);
        let (sourced, _) = mine_source_captured(&mut source, &cfg, None, None).unwrap();
        assert_outputs_identical(&serial, &sourced);
        let sv: Vec<bool> = serial
            .interest
            .as_ref()
            .unwrap()
            .iter()
            .map(|v| v.interesting)
            .collect();
        let dv: Vec<bool> = sourced
            .interest
            .as_ref()
            .unwrap()
            .iter()
            .map(|v| v.interesting)
            .collect();
        assert_eq!(sv, dv);
    }

    /// The people table spilled in chunks of `chunk_rows` rows.
    fn chunk_store(enc: &EncodedTable, chunk_rows: usize, name: &str) -> ChunkStore {
        let dir = qar_table::chunk::default_spill_dir(&format!("{name}_{chunk_rows}"));
        let mut store =
            ChunkStore::create(&dir, enc.schema().clone(), enc.encoders().to_vec()).unwrap();
        let table = people_table();
        let mut i = 0;
        while i < table.num_rows() {
            let end = (i + chunk_rows).min(table.num_rows());
            let mut part = Table::new(table.schema().clone());
            for r in i..end {
                part.push_row(&table.row(r).to_values()).unwrap();
            }
            store.append_chunk(&part).unwrap();
            i = end;
        }
        store
    }

    #[test]
    fn chunked_source_matches_serial_for_every_chunk_size() {
        let enc = encoded();
        let serial = Miner::new(config()).mine_encoded(&enc).unwrap();
        for chunk_rows in [1usize, 3, 4, 10, 100] {
            let store = chunk_store(&enc, chunk_rows, "src_test");
            let mut source = InMemorySource::new(&store, &config());
            let sourced = mine_source(&mut source, &config(), None, None).unwrap();
            assert_outputs_identical(&serial, &sourced);
        }
    }

    /// The `(pass, kernel, super_candidates, shards)` of every
    /// `pass_finished` a mine over `source` emits.
    fn pass_reports(source: &mut dyn CountSource) -> Vec<(usize, String, usize, usize)> {
        let sink = qar_trace::CollectingSink::new();
        mine_source(source, &config(), Some(&sink), None).unwrap();
        sink.events()
            .into_iter()
            .filter_map(|event| match event {
                TraceEvent::PassFinished {
                    pass,
                    kernel,
                    super_candidates,
                    shard_scan_us,
                    ..
                } => Some((pass, kernel, super_candidates, shard_scan_us.len())),
                _ => None,
            })
            .collect()
    }

    /// A chunked run reports each pass's scans as one scan over all the
    /// chunks' rows: the same kernels and super-candidates as the
    /// in-memory run, and one scan time per shard.
    #[test]
    fn chunked_run_reports_the_in_memory_pass_stats() {
        let enc = encoded();
        let in_memory = pass_reports(&mut InMemorySource::new(&enc, &config()));
        assert!(in_memory.len() >= 3, "the table reaches pass 3");
        for chunk_rows in [3usize, 10] {
            let store = chunk_store(&enc, chunk_rows, "src_stats");
            let chunked = pass_reports(&mut InMemorySource::new(&store, &config()));
            assert_eq!(chunked.len(), in_memory.len(), "chunks of {chunk_rows}");
            for (c, m) in chunked.iter().zip(&in_memory).skip(1) {
                assert_eq!((c.0, &c.1, c.2), (m.0, &m.1, m.2), "chunks of {chunk_rows}");
                assert!(!c.1.is_empty() && c.2 > 0 && c.3 > 0, "{c:?}");
            }
        }
    }

    #[test]
    fn normalized_stats_agree_between_serial_and_source() {
        let enc = encoded();
        let serial = Miner::new(config()).mine_encoded(&enc).unwrap();
        let mut source = InMemorySource::new(&enc, &config());
        let (sourced, _) = mine_source_captured(&mut source, &config(), None, None).unwrap();
        let a = serial.stats.normalized();
        let b = sourced.stats.normalized();
        assert_eq!(a.mine, b.mine);
        assert_eq!(a.rules_total, b.rules_total);
        assert_eq!(a.rules_interesting, b.rules_interesting);
    }

    /// `Miner::mine` reports the in-memory source's own scan statistics:
    /// every pass-≥2 `pass_finished` names its kernel and carries the
    /// super-candidates and per-shard scan times of the returned stats.
    #[test]
    fn miner_pass_events_carry_the_source_stats() {
        let sink = std::sync::Arc::new(qar_trace::CollectingSink::new());
        let out = Miner::new(config())
            .with_progress(sink.clone())
            .mine(&people_table())
            .unwrap();
        let mut counted = 0;
        for event in &sink.events() {
            if let TraceEvent::PassFinished {
                pass,
                kernel,
                super_candidates,
                shard_scan_us,
                ..
            } = event
            {
                if *pass >= 2 {
                    let stats = &out.stats.mine.pass_stats[pass - 2];
                    assert!(!kernel.is_empty(), "pass {pass}");
                    assert_eq!(*super_candidates, stats.super_candidates, "pass {pass}");
                    let shards: Vec<u64> =
                        stats.shard_scan_times.iter().map(|&d| micros(d)).collect();
                    assert_eq!(*shard_scan_us, shards, "pass {pass}");
                    counted += 1;
                }
            }
        }
        assert_eq!(counted, out.stats.mine.pass_stats.len());
        assert!(counted >= 2, "the table reaches pass 3");
    }

    /// A capture forwards its inner source's scan statistics: every
    /// `pass_finished` of a captured run names the same kernels and
    /// super-candidate counts as the uncaptured run's.
    #[test]
    fn captured_run_reports_the_inner_pass_stats() {
        let enc = encoded();
        let passes = |capture: bool| {
            let sink = qar_trace::CollectingSink::new();
            let mut source = InMemorySource::new(&enc, &config());
            if capture {
                mine_source_captured(&mut source, &config(), Some(&sink), None).unwrap();
            } else {
                mine_source(&mut source, &config(), Some(&sink), None).unwrap();
            }
            let passes: Vec<(usize, String, usize)> = sink
                .events()
                .into_iter()
                .filter_map(|event| match event {
                    TraceEvent::PassFinished {
                        pass,
                        kernel,
                        super_candidates,
                        ..
                    } => Some((pass, kernel, super_candidates)),
                    _ => None,
                })
                .collect();
            passes
        };
        let captured = passes(true);
        assert_eq!(captured, passes(false));
        assert!(captured.len() >= 3, "the table reaches pass 3");
        for (pass, kernel, super_candidates) in &captured[1..] {
            assert!(!kernel.is_empty(), "pass {pass}");
            assert!(*super_candidates > 0, "pass {pass}");
        }
    }

    #[test]
    fn empty_source_rejected() {
        let schema = Schema::builder().quantitative("x").build().unwrap();
        let t = Table::new(schema);
        let enc = EncodedTable::encode_full_resolution(&t).unwrap();
        let mut source = InMemorySource::new(&enc, &config());
        assert!(matches!(
            mine_source(&mut source, &config(), None, None),
            Err(MinerError::Schema(_))
        ));
    }

    #[test]
    fn mismatched_count_length_is_a_distributed_error() {
        struct Broken<'a>(InMemorySource<'a>);
        impl CountSource for Broken<'_> {
            fn meta(&self) -> &EncodedTable {
                self.0.meta()
            }
            fn num_rows(&self) -> u64 {
                self.0.num_rows()
            }
            fn value_counts(&mut self) -> Result<Vec<Vec<u64>>, CountError> {
                self.0.value_counts()
            }
            fn count(
                &mut self,
                _pass: usize,
                _candidates: &[Itemset],
            ) -> Result<Vec<u64>, CountError> {
                Ok(vec![0]) // wrong length
            }
        }
        let enc = encoded();
        let mut broken = Broken(InMemorySource::new(&enc, &config()));
        assert!(matches!(
            mine_source(&mut broken, &config(), None, None),
            Err(MinerError::Distributed(_))
        ));
    }

    fn sub_table(rows: std::ops::Range<usize>) -> Table {
        let table = people_table();
        let mut part = Table::new(table.schema().clone());
        for r in rows {
            part.push_row(&table.row(r).to_values()).unwrap();
        }
        part
    }

    #[test]
    fn capture_records_histograms_and_every_counting_pass() {
        let enc = encoded();
        let mut source = InMemorySource::new(&enc, &config());
        let (out, captured) = mine_source_captured(&mut source, &config(), None, None).unwrap();
        assert_eq!(captured.value_counts, attribute_value_counts(&enc));
        // One record per pass with a non-empty candidate set: pass 2 as
        // the raw cells of every pair of attributes with a frequent item,
        // later passes with raw counts kept for infrequent candidates too.
        let candidates = &out.stats.mine.candidates_per_pass;
        let counting_passes = candidates.iter().filter(|&&c| c > 0).count();
        assert_eq!(captured.counting_passes(), counting_passes);
        let pairs: Vec<(u32, u32)> = captured.pair_cells.iter().map(|(p, _)| *p).collect();
        assert_eq!(pairs, [(0, 1), (0, 2), (1, 2)]);
        let mut hist = PairHistograms::new(&enc, pairs);
        hist.scan(&enc, ScanOptions::new(1)).unwrap();
        for (p, (_, cells)) in captured.pair_cells.iter().enumerate() {
            assert_eq!(cells, hist.pair_cells(p));
        }
        // Pass 2 reports the cells it filled as its candidates.
        assert_eq!(candidates[0], hist.cells().len());
        for ((pass, entries), (k, &cands)) in captured
            .passes
            .iter()
            .zip(candidates.iter().enumerate().skip(1))
        {
            assert_eq!(*pass as usize, k + 2);
            assert_eq!(entries.len(), cands);
        }
    }

    #[test]
    fn merge_of_split_counts_equals_full_mine() {
        let full_table = people_table();
        let (encoders, _) = crate::pipeline::build_encoders(&full_table, &config()).unwrap();
        let full_enc = EncodedTable::encode(&full_table, encoders.clone()).unwrap();
        let mut full_src = InMemorySource::new(&full_enc, &config());
        let (full_out, full_cap) =
            mine_source_captured(&mut full_src, &config(), None, None).unwrap();

        for cut in [0usize, 4, 7, 10] {
            let base_enc = EncodedTable::encode(&sub_table(0..cut), encoders.clone()).unwrap();
            let delta_enc = EncodedTable::encode(&sub_table(cut..10), encoders.clone()).unwrap();

            // Base counts: captured from a real mine when the base is
            // non-empty, synthesized otherwise (a zero-row base mines
            // nothing, so the empty-base case starts from zero tallies).
            let base_counts = if cut > 0 {
                let mut base_src = InMemorySource::new(&base_enc, &config());
                let (_, cap) = mine_source_captured(&mut base_src, &config(), None, None).unwrap();
                SupportCounts::assemble(
                    full_enc.schema(),
                    &encoders,
                    cut as u64,
                    &config(),
                    Vec::new(),
                    cap,
                )
            } else {
                SupportCounts::assemble(
                    full_enc.schema(),
                    &encoders,
                    0,
                    &config(),
                    Vec::new(),
                    CapturedCounts {
                        pair_cells: Vec::new(),
                        value_counts: full_enc
                            .schema()
                            .iter()
                            .map(|(id, _)| vec![0u64; full_enc.cardinality(id) as usize])
                            .collect(),
                        passes: Vec::new(),
                    },
                )
            };

            let meta = EncodedTable::header_only(
                full_enc.schema().clone(),
                encoders.clone(),
                full_table.num_rows(),
            );
            let mut delta_src = (cut < 10).then(|| InMemorySource::new(&delta_enc, &config()));
            let delta = delta_src.as_mut().map(|s| s as &mut dyn CountSource);
            let mut merge = MergeSource::new(&base_counts, delta, meta);
            match mine_source_captured(&mut merge, &config(), None, None) {
                Ok((out, cap)) => {
                    assert_outputs_identical(&full_out, &out);
                    assert_eq!(cap, full_cap, "cut {cut}: captured counts diverge");
                }
                // A candidate-set divergence is a legitimate outcome (the
                // caller re-mines); anything else is a bug.
                Err(MinerError::Update(_)) => assert!(
                    cut < 10,
                    "an empty delta can never diverge from the base run"
                ),
                Err(other) => panic!("cut {cut}: unexpected error {other:?}"),
            }
        }
    }

    #[test]
    fn merge_with_empty_delta_never_scans() {
        let enc = encoded();
        let mut src = InMemorySource::new(&enc, &config());
        let (full_out, cap) = mine_source_captured(&mut src, &config(), None, None).unwrap();
        let counts = SupportCounts::assemble(
            enc.schema(),
            enc.encoders(),
            enc.num_rows() as u64,
            &config(),
            Vec::new(),
            cap,
        );
        let meta = EncodedTable::header_only(
            enc.schema().clone(),
            enc.encoders().to_vec(),
            enc.num_rows(),
        );
        let mut merge = MergeSource::new(&counts, None, meta);
        let replay = mine_source(&mut merge, &config(), None, None).unwrap();
        assert_outputs_identical(&full_out, &replay);
    }

    #[test]
    fn cancelled_source_surfaces_cancellation() {
        let enc = encoded();
        let token = CancelToken::new();
        token.cancel();
        let mut source = InMemorySource::new(&enc, &config()).with_cancel(Some(&token));
        match mine_source(&mut source, &config(), None, Some(&token)) {
            Err(MinerError::Cancelled(info)) => assert_eq!(info.pass, 1),
            Err(other) => panic!("expected Cancelled, got {other:?}"),
            Ok(_) => panic!("expected Cancelled, got Ok"),
        }
    }

    /// A random encoded table for the pair readout: quantitative,
    /// categorical and taxonomy attributes of small cardinality, codes
    /// skewed toward low values so ranges gather support. With `wide`,
    /// attributes 0 and 1 get 3,000 codes each, so their pair is past
    /// [`CELL_BUDGET`] and counted as explicit candidates.
    fn readout_table(rng: &mut qar_prng::Prng, wide: bool) -> EncodedTable {
        use qar_table::AttributeEncoder;
        let attrs = rng.gen_range(2usize..5);
        let rows = rng.gen_range(40usize..120);
        let mut builder = Schema::builder();
        let (mut encoders, mut columns) = (Vec::new(), Vec::new());
        for a in 0..attrs {
            let card = if wide && a < 2 {
                3000
            } else {
                rng.gen_range(2u32..10)
            };
            let labels = |card: u32| (0..card).map(|c| format!("v{c:04}")).collect::<Vec<_>>();
            // The wide pair is categorical × taxonomy: a 3,000-code
            // quantitative domain would make pass 1 walk ~4.5M ranges.
            let kind = if wide && a < 2 {
                a as u32 + 1
            } else {
                rng.gen_range(0u32..3)
            };
            encoders.push(match kind {
                0 => {
                    builder = builder.quantitative(format!("q{a}"));
                    AttributeEncoder::QuantValues {
                        values: (0..card).map(f64::from).collect(),
                        integral: true,
                    }
                }
                1 => {
                    builder = builder.categorical(format!("c{a}"));
                    AttributeEncoder::Categorical {
                        labels: labels(card),
                    }
                }
                _ => {
                    builder = builder.categorical(format!("t{a}"));
                    let groups = (0..rng.gen_range(1usize..4))
                        .map(|g| {
                            let lo = rng.gen_range(0..card - 1);
                            (format!("g{g}"), lo, rng.gen_range(lo + 1..card))
                        })
                        .collect();
                    AttributeEncoder::CategoricalTaxonomy {
                        labels: labels(card),
                        sorted_index: (0..card).collect(),
                        groups,
                    }
                }
            });
            let spread = card.min(10);
            columns.push(
                (0..rows)
                    .map(|_| rng.gen_range(0..spread).min(rng.gen_range(0..spread)))
                    .collect(),
            );
        }
        EncodedTable::from_parts(builder.build().unwrap(), encoders, columns, rows)
    }

    /// Counts each candidate by testing every row against it, sharing no
    /// code with the histograms or the pass-≥3 scan.
    fn row_scan_counts(table: &EncodedTable, candidates: &[Itemset]) -> Vec<u64> {
        let mut record = vec![0u32; table.schema().len()];
        let mut counts = vec![0u64; candidates.len()];
        for row in 0..table.num_rows() {
            for (a, slot) in record.iter_mut().enumerate() {
                *slot = table.codes(AttributeId(a))[row];
            }
            for (count, cand) in counts.iter_mut().zip(candidates) {
                *count += u64::from(cand.supported_by(&record));
            }
        }
        counts
    }

    /// The pruned pair readout returns exactly the `(Itemset, count)`
    /// sequence of reading the whole cross product — the same pairs, the
    /// same counts (those of a row-by-row recount) and the same order.
    /// Level 1 comes from the pass-1 code at random thresholds, so
    /// it holds single values above maxsup and taxonomy group ranges,
    /// randomly thinned as the Lemma 5 prune would; a quarter of the
    /// tables have a pair past the budget on the explicit path.
    #[test]
    fn pair_readout_equals_the_full_cross_product() {
        // Cases with a single value above maxsup, a taxonomy group, a
        // categorical × quantitative pair and an explicit pair.
        let mut seen = [0usize; 4];
        qar_prng::cases(40, 0x5EED_2E4D_0023, |case, rng| {
            let wide = case % 4 == 0;
            let enc = readout_table(rng, wide);
            let rows = enc.num_rows() as u64;
            let min_count = rng.gen_range(1..rows / 4 + 2);
            let max_count = rng.gen_range(min_count..rows + 1);
            let counts = attribute_value_counts(&enc);
            let items = frequent_items_from_counts(&enc, counts, min_count, max_count).items;
            let keep = rng.gen_range(0.5..1.0);
            let level1: Vec<(Itemset, u64)> = items
                .into_iter()
                .filter(|_| rng.gen_bool(keep))
                .map(|(item, count)| (Itemset::singleton(item), count))
                .collect();
            let pass = PairPass::plan(&enc, &level1);
            let is_quant = |attr: u32| enc.encoder(AttributeId(attr as usize)).is_quantitative();
            let features = [
                level1.iter().any(|&(_, c)| c > max_count),
                level1.iter().any(|(set, _)| {
                    let item = set.items()[0];
                    !is_quant(item.attr) && item.lo < item.hi
                }),
                pass.pairs.iter().any(|&(a, b)| is_quant(a) != is_quant(b)),
                !pass.explicit.is_empty(),
            ];
            for (n, feature) in seen.iter_mut().zip(features) {
                *n += usize::from(feature);
            }
            assert_eq!(
                !pass.explicit.is_empty(),
                wide && pass.items.contains_key(&0) && pass.items.contains_key(&1),
                "case {case}"
            );

            let mut cross: Vec<Itemset> = Vec::new();
            for (a, b) in &pass.pairs {
                for &ia in &pass.items[a] {
                    for &ib in &pass.items[b] {
                        cross.push(Itemset::new(vec![ia, ib]));
                    }
                }
            }
            cross.extend(pass.explicit.iter().cloned());
            let counts = row_scan_counts(&enc, &cross);
            let expected: Vec<(Itemset, u64)> = cross
                .into_iter()
                .zip(counts)
                .filter(|&(_, c)| c >= min_count)
                .collect();
            let mut source = InMemorySource::new(&enc, &config());
            let got = pass.count(&mut source, min_count).unwrap();
            assert_eq!(got, expected, "case {case}");
        });
        assert!(seen.iter().all(|&n| n > 0), "{seen:?}");
    }

    /// CSV text of a random table: an integral column of heavily
    /// repeated values, a fractional one holding `-0.0` beside `0`, a
    /// skewed categorical column, and a column of [`CITY_TAXONOMY`]'s
    /// leaves.
    fn random_csv(rng: &mut qar_prng::Prng) -> String {
        use std::fmt::Write;
        let rows = rng.gen_range(1..250usize);
        let distinct = rng.gen_range(1..12i64);
        let mut text = String::from("n,x,c,t\n");
        for _ in 0..rows {
            let n = rng.gen_range(0..distinct) * 7 - 20;
            let x = match rng.gen_range(0..4u32) {
                0 => "-0.0".to_string(),
                1 => "0".to_string(),
                _ => (rng.gen_range(-12..12i64) as f64 / 4.0).to_string(),
            };
            let c = if rng.gen_bool(0.7) {
                "a"
            } else {
                ["b", "c"][rng.gen_range(0..2usize)]
            };
            let t = CITY_TAXONOMY[rng.gen_range(0..4usize)].0;
            writeln!(text, "{n},{x},{c},{t}").unwrap();
        }
        text
    }

    /// Leaf → parent edges of the taxonomy of [`random_csv`]'s `t`.
    const CITY_TAXONOMY: [(&str, &str); 4] = [
        ("NY", "East"),
        ("Boston", "East"),
        ("SF", "West"),
        ("LA", "West"),
    ];

    /// On random tables with no partitioning and under several K, pass 1
    /// summed from the value histograms equals the scan of the encoded
    /// table; and Step 3 over the rows in memory and over the same text
    /// spilled in chunks, each answering pass 1 from its histograms (the
    /// chunks' from the stats pass), equals Step 3 over rows that scan.
    #[test]
    fn histogram_pass_one_equals_a_scan_on_random_tables() {
        use crate::pipeline::build_encoders_from_histograms;
        let schema = Schema::builder()
            .quantitative("n")
            .quantitative("x")
            .categorical("c")
            .categorical("t")
            .build()
            .unwrap();
        let taxonomy = qar_table::Taxonomy::from_edges(&CITY_TAXONOMY).unwrap();
        let step3 = |mined: Result<MiningOutput, MinerError>| {
            mined
                .map(|out| {
                    (
                        out.frequent.levels.clone(),
                        out.stats.mine.candidates_per_pass,
                    )
                })
                .map_err(|e| e.to_string())
        };
        qar_prng::cases(40, 0x5EED_0035_4157, |case, rng| {
            let text = random_csv(rng);
            let table = qar_table::csv::read_table(text.as_bytes(), &schema).unwrap();
            let histograms = table.histograms();
            let chunk_rows = rng.gen_range(1..64usize);
            let summary =
                qar_table::chunk::summarize_csv(text.as_bytes(), &schema, chunk_rows).unwrap();
            assert_eq!(summary.histograms(), histograms, "case {case}");
            for partitioning in [
                PartitionSpec::None,
                PartitionSpec::CompletenessLevel(1.5),
                PartitionSpec::CompletenessLevel(2.0),
                PartitionSpec::CompletenessLevel(4.0),
            ] {
                let at = format!("case {case}, {partitioning:?}");
                let cfg = MinerConfig {
                    min_support: 0.1,
                    max_support: 0.6,
                    max_itemset_size: 3,
                    partitioning,
                    taxonomies: [("t".to_string(), taxonomy.clone())].into(),
                    ..config()
                };
                let (encoders, _) =
                    build_encoders_from_histograms(&schema, &histograms, &cfg).unwrap();
                let encoded = EncodedTable::encode(&table, encoders.clone()).unwrap();
                assert_eq!(
                    histogram_value_counts(&encoded, &histograms).unwrap(),
                    attribute_value_counts(&encoded),
                    "{at}"
                );
                let scanned = step3(mine_source(
                    &mut InMemorySource::new(&encoded, &cfg),
                    &cfg,
                    None,
                    None,
                ));
                let in_memory = step3(mine_source(
                    &mut InMemorySource::new(&encoded, &cfg).with_histograms(&histograms[..]),
                    &cfg,
                    None,
                    None,
                ));
                let dir = qar_table::chunk::default_spill_dir("histogram_pass_one");
                let store = qar_table::chunk::spill_csv(
                    text.as_bytes(),
                    &schema,
                    encoders,
                    chunk_rows,
                    dir,
                )
                .unwrap();
                let chunked = step3(mine_source(
                    &mut InMemorySource::new(&store, &cfg).with_histograms(summary.histograms()),
                    &cfg,
                    None,
                    None,
                ));
                assert_eq!(in_memory, scanned, "{at}: in memory");
                assert_eq!(chunked, scanned, "{at}: chunked by {chunk_rows}");
            }
        });
    }
}

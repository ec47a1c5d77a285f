//! The level-wise search (Step 3, Section 5) over an abstract counting
//! backend.
//!
//! The search needs only two things from the data: the pass-1
//! per-attribute value histograms and, for every later pass, the raw
//! support count of each candidate itemset. Both are sums over rows, so
//! counts taken over *disjoint row partitions* merge by element-wise
//! `u64` addition into exactly the whole-table counts.
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
//! Two local sources live here:
//!
//! * [`InMemorySource`] — counts an [`EncodedTable`] directly and answers
//!   pass 2 without materializing `C_2` (what [`crate::Miner`] mines
//!   through),
//! * [`ChunkedSource`] — counts a [`qar_table::ChunkStore`] one spilled
//!   chunk at a time, so tables larger than memory mine out-of-core.
//!
//! The TCP-backed source of the `qar-dist` crate implements the same
//! trait over a pool of worker processes.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Instant;

use crate::candidate::{generate_candidates, interest_prune_level1};
use crate::config::{InterestMode, MinerConfig, MinerError};
use crate::counts::{CapturedCounts, SupportCounts};
use crate::frequent::{attribute_value_counts, frequent_items_from_counts, QuantFrequentItemsets};
use crate::interest::{annotate_interest, ItemSupports};
use crate::mine::{pass_finished_event, MineStats, RunCtx};
use crate::pipeline::{MiningOutput, MiningStats};
use crate::pool::WorkerPool;
use crate::rules::generate_rules;
use crate::supercand::{
    count_candidates_opts, count_pairs_opts, PairPlan, PassStats, ScanOptions, PAIR_CELL_BUDGET,
};
use qar_itemset::{CounterKind, Item, Itemset};
use qar_table::{AttributeKind, ChunkStore, EncodedTable};
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
/// returned vectors are the *exact whole-table* tallies (raw, unfiltered
/// by support thresholds), as if computed by a single serial scan. Any
/// partitioning — across chunks, processes, or machines — must be over
/// disjoint row subsets whose per-partition counts are merged by `u64`
/// addition.
pub trait CountSource {
    /// The schema and encoders of the table being mined. A decode-only
    /// header table ([`EncodedTable::header_only`]) is sufficient — the
    /// driver never scans it.
    fn meta(&self) -> &EncodedTable;

    /// Total number of rows across all partitions.
    fn num_rows(&self) -> u64;

    /// Pass 1: the per-attribute value histograms (`counts[attr][code]`),
    /// merged across partitions.
    fn value_counts(&mut self) -> Result<Vec<Vec<u64>>, CountError>;

    /// Pass `k ≥ 2`: the raw support count of each candidate, aligned
    /// with `candidates`, merged across partitions.
    fn count(&mut self, pass: usize, candidates: &[Itemset]) -> Result<Vec<u64>, CountError>;

    /// Pass 2: the members of `C_2` — the cross product of `level1`'s
    /// items over distinct attribute pairs — whose count reaches
    /// `min_count`, with those counts.
    ///
    /// The default builds `C_2` with [`generate_candidates`] and hands it
    /// to [`CountSource::count`], so a wrapper that records or times
    /// counts sees pass 2 like any other pass; an empty `C_2` is never
    /// counted. [`InMemorySource`] overrides it to count pairs without
    /// materializing `C_2`.
    fn frequent_pairs(
        &mut self,
        level1: &[(Itemset, u64)],
        min_count: u64,
    ) -> Result<Vec<(Itemset, u64)>, CountError> {
        count_pairs_explicitly(self, level1, min_count)
    }

    /// The scan statistics of the counting call just made, for a source
    /// that keeps them. The default keeps none, and the driver reports
    /// the call's wall time as the pass's `scan_time`.
    fn take_pass_stats(&mut self) -> Option<PassStats> {
        None
    }
}

/// The default [`CountSource::frequent_pairs`]: materialize `C_2` and
/// count it like any other pass.
fn count_pairs_explicitly<S: CountSource + ?Sized>(
    source: &mut S,
    level1: &[(Itemset, u64)],
    min_count: u64,
) -> Result<Vec<(Itemset, u64)>, CountError> {
    let candidates = generate_candidates(level1);
    if candidates.is_empty() {
        return Ok(Vec::new());
    }
    count_frequent(source, 2, candidates, min_count)
}

/// Count `candidates` at pass `pass` and keep those reaching `min_count`.
fn count_frequent<S: CountSource + ?Sized>(
    source: &mut S,
    pass: usize,
    candidates: Vec<Itemset>,
    min_count: u64,
) -> Result<Vec<(Itemset, u64)>, CountError> {
    let counts = source.count(pass, &candidates)?;
    if counts.len() != candidates.len() {
        return Err(CountError::Failed(MinerError::Distributed(format!(
            "pass {pass}: source returned {} counts for {} candidates",
            counts.len(),
            candidates.len()
        ))));
    }
    Ok(candidates
        .into_iter()
        .zip(counts)
        .filter(|(_, c)| *c >= min_count)
        .collect())
}

/// `|C_2|` for `level1`: the sum over attribute pairs of the product of
/// their frequent-item counts — what [`generate_candidates`] would build.
fn pair_candidates(level1: &[(Itemset, u64)]) -> usize {
    let mut per_attr: BTreeMap<u32, usize> = BTreeMap::new();
    for (itemset, _) in level1 {
        *per_attr.entry(itemset.items()[0].attr).or_default() += 1;
    }
    let (mut total, mut seen) = (0, 0);
    for n in per_attr.into_values() {
        total += seen * n;
        seen += n;
    }
    total
}

/// Mine all frequent itemsets using `source` for every counting scan: the
/// one level-wise loop of every mining path.
///
/// Pass 1 derives the frequent items from the source's merged histograms
/// (then applies the Lemma 5 prune), pass 2 asks
/// [`CountSource::frequent_pairs`], and every later pass counts the
/// candidates [`generate_candidates`] joins from the previous level. A
/// pass reports the source's own [`PassStats`] when it keeps them, else
/// the wall time of its counting call as `scan_time`.
///
/// Also returns the merged pass-1 value counts (the driver reuses them
/// for [`ItemSupports`] instead of re-scanning).
pub(crate) fn mine_with_source_ctx(
    source: &mut dyn CountSource,
    config: &MinerConfig,
    ctx: RunCtx<'_>,
) -> Result<(QuantFrequentItemsets, MineStats, Vec<Vec<u64>>), MinerError> {
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
        if interest.prune_candidates && interest.mode == InterestMode::SupportAndConfidence {
            let before = level1.len();
            let mut probe = QuantFrequentItemsets::new(num_rows);
            probe.push_level(level1.clone());
            let schema = source.meta().schema();
            let is_quant = |attr: u32| {
                schema.attributes()[attr as usize].kind() == AttributeKind::Quantitative
            };
            level1 = interest_prune_level1(level1, &probe, interest.level, &is_quant);
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
        memoized: false,
        // Pass 1 is a plain per-attribute value count — no hash tree, no
        // cache, no masks — which is the direct kernel's shape.
        kernel: "direct".to_string(),
        distinct_tuples: 0,
        memo_hits: 0,
    });
    if level1.is_empty() {
        ctx.emit(|| TraceEvent::RunFinished {
            passes: 1,
            frequent_total: 0,
            elapsed_us: micros(run_started.elapsed()),
        });
        return Ok((frequent, stats, value_counts));
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
        // `C_2` is only sized here: the source decides whether to build it.
        let candidates = if k == 2 {
            None
        } else {
            let candidates = generate_candidates(prev);
            if candidates.is_empty() {
                break;
            }
            Some(candidates)
        };
        let size = candidates
            .as_ref()
            .map_or_else(|| pair_candidates(prev), Vec::len);
        stats.candidates_per_pass.push(size);
        ctx.emit(|| TraceEvent::PassStarted {
            pass: k,
            candidates: size,
        });
        let started = Instant::now();
        let counted = match candidates {
            None => source.frequent_pairs(prev, min_count),
            Some(candidates) => count_frequent(source, k, candidates, min_count),
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
    Ok((frequent, stats, value_counts))
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

    let mining_started = Instant::now();
    let (frequent, mine_stats, value_counts) = mine_with_source_ctx(source, config, ctx)?;
    let elapsed_mining = mining_started.elapsed();

    // Step 4: rules.
    let rules = generate_rules(&frequent, config.min_confidence);

    // Step 5: interest — from the merged pass-1 histograms, which equal a
    // whole-table scan.
    let item_supports = ItemSupports::from_value_counts(&value_counts, frequent.num_rows);
    let interest = config
        .interest
        .as_ref()
        .map(|ic| annotate_interest(&rules, &frequent, &item_supports, ic));

    let rules_total = rules.len();
    let rules_interesting = match &interest {
        Some(v) => v.iter().filter(|x| x.interesting).count(),
        None => rules_total,
    };
    Ok(MiningOutput {
        encoded: source.meta().clone(),
        frequent,
        rules,
        interest,
        item_supports,
        stats: MiningStats {
            intervals_per_attribute: Vec::new(),
            mine: mine_stats,
            rules_total,
            rules_interesting,
            elapsed: started.elapsed(),
            elapsed_mining,
            encoding_reused: false,
        },
    })
}

/// A pass-through [`CountSource`] that records everything the driver
/// asked of the inner source: the pass-1 histograms and every
/// `(pass, candidate, raw count)` triple. The recording is exactly the
/// [`CapturedCounts`] a catalog persists for later incremental updates.
pub struct CaptureSource<'s> {
    inner: &'s mut dyn CountSource,
    value_counts: Option<Vec<Vec<u64>>>,
    passes: Vec<(u32, Vec<(Itemset, u64)>)>,
}

impl<'s> CaptureSource<'s> {
    /// Wrap `inner`, recording every count it serves.
    pub fn new(inner: &'s mut dyn CountSource) -> Self {
        CaptureSource {
            inner,
            value_counts: None,
            passes: Vec::new(),
        }
    }

    /// The recording (valid once a mine over this source has finished).
    pub fn into_captured(self) -> CapturedCounts {
        CapturedCounts {
            value_counts: self.value_counts.unwrap_or_default(),
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
/// `value_counts` is base histograms + delta histograms. `count` serves
/// each candidate as its base tally (looked up in the persisted pass
/// records) plus the delta source's tally — so the only rows ever
/// scanned are the delta's. By the count-distribution invariant the sums
/// equal a full base+delta scan exactly.
///
/// A candidate the base run never counted (a support crossed a threshold
/// as rows arrived, changing a frequent level and hence the candidate
/// sets derived from it) cannot be served incrementally; the lookup
/// fails with [`MinerError::Update`] and the caller falls back to a full
/// re-mine.
pub struct MergeSource<'a> {
    base: &'a SupportCounts,
    delta: Option<&'a mut dyn CountSource>,
    meta: EncodedTable,
    pass_maps: HashMap<u32, HashMap<Itemset, u64>>,
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
        let diverged = || {
            CountError::Failed(MinerError::Update(format!(
                "pass {pass}: candidate set diverged from the base run \
                 (a support crossed a threshold); full re-mine required"
            )))
        };
        let map = match self.pass_maps.entry(pass as u32) {
            std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::hash_map::Entry::Vacant(e) => {
                let recorded = self
                    .base
                    .captured
                    .passes
                    .iter()
                    .find(|(p, _)| *p == pass as u32)
                    .ok_or_else(diverged)?;
                e.insert(recorded.1.iter().cloned().collect())
            }
        };
        candidates
            .iter()
            .map(|c| map.get(c).copied().ok_or_else(diverged))
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
            let add = delta.count(pass, candidates)?;
            if add.len() != counts.len() {
                return Err(CountError::Failed(MinerError::Distributed(format!(
                    "pass {pass}: delta source returned {} counts for {} candidates",
                    add.len(),
                    candidates.len()
                ))));
            }
            for (x, y) in counts.iter_mut().zip(add) {
                *x += y;
            }
        }
        Ok(counts)
    }
}

/// The reference [`CountSource`]: counts an in-memory [`EncodedTable`]
/// with the scan kernels, answering pass 2 from one 2-D histogram per
/// attribute pair ([`count_pairs_opts`]) without materializing `C_2`.
pub struct InMemorySource<'a> {
    table: &'a EncodedTable,
    num_threads: usize,
    kernel: crate::config::ScanKernel,
    cancel: Option<CancelToken>,
    /// Runs the shard tasks; `None` uses [`WorkerPool::global`].
    pub(crate) pool: Option<Arc<WorkerPool>>,
    /// A pinned quantitative counting backend (the Array/R*-tree
    /// ablation): every pass, pass 2 included, then counts explicit
    /// candidates through it.
    pub(crate) counter: Option<CounterKind>,
    pass_stats: Option<PassStats>,
}

impl<'a> InMemorySource<'a> {
    /// A source over `table`, with parallelism and kernel from `config`.
    pub fn new(table: &'a EncodedTable, config: &MinerConfig) -> Self {
        InMemorySource {
            table,
            num_threads: config.effective_parallelism(),
            kernel: config.kernel,
            cancel: None,
            pool: None,
            counter: None,
            pass_stats: None,
        }
    }

    /// Attach the run's cancellation token, if any, checked inside every
    /// counting scan.
    pub fn with_cancel(mut self, cancel: Option<&CancelToken>) -> Self {
        self.cancel = cancel.cloned();
        self
    }

    fn opts(&self) -> ScanOptions<'_> {
        ScanOptions {
            cancel: self.cancel.as_ref(),
            pool: self.pool.as_deref(),
            kernel: self.kernel,
            ..ScanOptions::new(self.num_threads)
        }
    }
}

impl CountSource for InMemorySource<'_> {
    fn meta(&self) -> &EncodedTable {
        self.table
    }

    fn num_rows(&self) -> u64 {
        self.table.num_rows() as u64
    }

    fn value_counts(&mut self) -> Result<Vec<Vec<u64>>, CountError> {
        Ok(attribute_value_counts(self.table))
    }

    /// A list of 2-itemsets — pass 2 as a recording or timing wrapper
    /// hands it over — is answered from pair histograms; any other list,
    /// and every list under a pinned backend, goes through the scan
    /// kernels, whose statistics the driver then reports.
    fn count(&mut self, _pass: usize, candidates: &[Itemset]) -> Result<Vec<u64>, CountError> {
        let table = self.table;
        if self.counter.is_none() && candidates.iter().all(|c| c.len() == 2) {
            return count_blocks(table, candidates, PAIR_CELL_BUDGET, self.opts(), &mut |f| {
                f(table)
            });
        }
        let (counts, pass) = count_candidates_opts(table, candidates, self.counter, self.opts())?;
        self.pass_stats = Some(pass);
        Ok(counts)
    }

    fn frequent_pairs(
        &mut self,
        level1: &[(Itemset, u64)],
        min_count: u64,
    ) -> Result<Vec<(Itemset, u64)>, CountError> {
        if self.counter.is_some() {
            return count_pairs_explicitly(self, level1, min_count);
        }
        let mut items_by_attr: BTreeMap<u32, Vec<(Item, u64)>> = BTreeMap::new();
        for (itemset, count) in level1 {
            let item = itemset.items()[0];
            items_by_attr
                .entry(item.attr)
                .or_default()
                .push((item, *count));
        }
        let (level, pass) = count_pairs_opts(
            self.table,
            &items_by_attr,
            min_count,
            PAIR_CELL_BUDGET,
            self.opts(),
        )?;
        self.pass_stats = Some(pass);
        Ok(level)
    }

    fn take_pass_stats(&mut self) -> Option<PassStats> {
        self.pass_stats.take()
    }
}

/// Hands each row block of a table to the callback in turn.
type BlockVisitor<'v> = dyn FnMut(&mut dyn FnMut(&EncodedTable) -> Result<(), CountError>) -> Result<(), CountError>
    + 'v;

/// Count `candidates` over a table that `visit` presents as row blocks
/// (one whole table, or spilled chunks one at a time), summing the
/// blocks' raw tallies. A list made only of 2-itemsets — pass 2 — is
/// counted through [`PairHistograms`]: the blocks are scanned into one
/// set of histograms and every candidate is a rectangle sum. Candidates
/// on a pair over `cell_budget` cells, and every longer candidate list,
/// go through [`count_candidates_opts`] block by block.
///
/// [`PairHistograms`]: crate::supercand::PairHistograms
pub(crate) fn count_blocks(
    meta: &EncodedTable,
    candidates: &[Itemset],
    cell_budget: usize,
    opts: ScanOptions<'_>,
    visit: &mut BlockVisitor<'_>,
) -> Result<Vec<u64>, CountError> {
    let Some(plan) = PairPlan::new(meta, candidates, cell_budget) else {
        return count_each_block(candidates, opts, visit);
    };
    let mut counts = vec![0u64; candidates.len()];
    for group in plan.groups(cell_budget) {
        let mut hist = plan.histograms(meta, group.clone());
        visit(&mut |block| {
            hist.scan(block, opts)?;
            Ok(())
        })?;
        hist.build_prefix_sums();
        plan.answer(candidates, &group, &hist, &mut counts);
    }
    if !plan.explicit().is_empty() {
        let subset: Vec<Itemset> = plan
            .explicit()
            .iter()
            .map(|&i| candidates[i].clone())
            .collect();
        let sums = count_each_block(&subset, opts, visit)?;
        for (&i, sum) in plan.explicit().iter().zip(sums) {
            counts[i] = sum;
        }
    }
    Ok(counts)
}

/// [`count_candidates_opts`] on every block, tallies summed.
fn count_each_block(
    candidates: &[Itemset],
    opts: ScanOptions<'_>,
    visit: &mut BlockVisitor<'_>,
) -> Result<Vec<u64>, CountError> {
    let mut sums = vec![0u64; candidates.len()];
    visit(&mut |block| {
        let (add, _) = count_candidates_opts(block, candidates, None, opts)?;
        for (a, b) in sums.iter_mut().zip(add) {
            *a += b;
        }
        Ok(())
    })?;
    Ok(sums)
}

/// A [`CountSource`] over a spilled [`ChunkStore`]: every counting pass
/// streams the chunks from disk one at a time and merges their counts by
/// addition, so peak memory is one chunk regardless of table size.
pub struct ChunkedSource<'a> {
    store: &'a ChunkStore,
    meta: EncodedTable,
    num_threads: usize,
    kernel: crate::config::ScanKernel,
    cancel: Option<&'a CancelToken>,
}

impl<'a> ChunkedSource<'a> {
    /// A source over `store`, with parallelism and kernel from `config`.
    pub fn new(store: &'a ChunkStore, config: &MinerConfig) -> Self {
        ChunkedSource {
            store,
            meta: store.header(),
            num_threads: config.effective_parallelism(),
            kernel: config.kernel,
            cancel: None,
        }
    }

    /// Attach the run's cancellation token, if any, checked inside every
    /// counting scan.
    pub fn with_cancel(mut self, cancel: Option<&'a CancelToken>) -> Self {
        self.cancel = cancel;
        self
    }

    fn opts(&self) -> ScanOptions<'a> {
        ScanOptions {
            cancel: self.cancel,
            kernel: self.kernel,
            ..ScanOptions::new(self.num_threads)
        }
    }
}

impl CountSource for ChunkedSource<'_> {
    fn meta(&self) -> &EncodedTable {
        &self.meta
    }

    fn num_rows(&self) -> u64 {
        self.store.num_rows() as u64
    }

    fn value_counts(&mut self) -> Result<Vec<Vec<u64>>, CountError> {
        let mut merged: Option<Vec<Vec<u64>>> = None;
        for i in 0..self.store.num_chunks() {
            if self.cancel.is_some_and(CancelToken::is_cancelled) {
                return Err(CountError::Cancelled);
            }
            let chunk = self.store.chunk(i)?;
            let counts = attribute_value_counts(&chunk);
            match &mut merged {
                None => merged = Some(counts),
                Some(m) => {
                    for (acc, add) in m.iter_mut().zip(&counts) {
                        for (a, b) in acc.iter_mut().zip(add) {
                            *a += b;
                        }
                    }
                }
            }
        }
        Ok(merged.unwrap_or_else(|| {
            self.meta
                .schema()
                .iter()
                .map(|(id, _)| vec![0u64; self.meta.cardinality(id) as usize])
                .collect()
        }))
    }

    fn count(&mut self, _pass: usize, candidates: &[Itemset]) -> Result<Vec<u64>, CountError> {
        let store = self.store;
        count_blocks(
            &self.meta,
            candidates,
            PAIR_CELL_BUDGET,
            self.opts(),
            &mut |f| {
                for i in 0..store.num_chunks() {
                    f(&store.chunk(i)?)?;
                }
                Ok(())
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PartitionSpec;
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

    #[test]
    fn chunked_source_matches_serial_for_every_chunk_size() {
        let enc = encoded();
        let serial = Miner::new(config()).mine_encoded(&enc).unwrap();
        for chunk_rows in [1usize, 3, 4, 10, 100] {
            let dir = qar_table::chunk::default_spill_dir(&format!("src_test_{chunk_rows}"));
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
            let mut source = ChunkedSource::new(&store, &config());
            let sourced = mine_source(&mut source, &config(), None, None).unwrap();
            assert_outputs_identical(&serial, &sourced);
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

    /// Property: on random tables the in-memory pass-2 override returns
    /// the frequent pairs the trait's default returns — with a pinned
    /// backend (which must skip the override and the pair plan), with an
    /// empty `C_2`, and under `max_itemset_size = 1`.
    #[test]
    fn pair_override_matches_the_default() {
        qar_prng::cases(32, 0x9A12_0FF5_E7ED_0002, |case, rng| {
            let attrs = rng.gen_range(1..4usize);
            let mut builder = Schema::builder();
            for a in 0..attrs {
                builder = if a % 2 == 0 {
                    builder.quantitative(format!("q{a}"))
                } else {
                    builder.categorical(format!("c{a}"))
                };
            }
            let mut table = Table::new(builder.build().unwrap());
            for _ in 0..rng.gen_range(1..60usize) {
                let row: Vec<Value> = (0..attrs)
                    .map(|a| {
                        if a % 2 == 0 {
                            Value::Int(rng.gen_range(0i64..6))
                        } else {
                            Value::from(["x", "y", "z"][rng.gen_range(0..3usize)])
                        }
                    })
                    .collect();
                table.push_row(&row).unwrap();
            }
            let enc = EncodedTable::encode_full_resolution(&table).unwrap();
            let min_count = rng.gen_range(1..5u64);
            let level1: Vec<(Itemset, u64)> =
                crate::frequent::find_frequent_items(&enc, min_count, u64::MAX)
                    .items
                    .into_iter()
                    .map(|(item, count)| (Itemset::singleton(item), count))
                    .collect();
            let sorted = |mut v: Vec<(Itemset, u64)>| {
                v.sort();
                v
            };
            let cfg = MinerConfig {
                partitioning: PartitionSpec::None,
                ..config()
            };
            let want = sorted(
                count_pairs_explicitly(&mut InMemorySource::new(&enc, &cfg), &level1, min_count)
                    .unwrap(),
            );
            if pair_candidates(&level1) == 0 {
                assert!(want.is_empty(), "case {case}");
            }
            if attrs == 1 {
                // No attribute pair: `C_2` is empty, so a capture gains no
                // pass-2 record.
                let mut src = InMemorySource::new(&enc, &cfg);
                let (_, captured) = mine_source_captured(&mut src, &cfg, None, None).unwrap();
                assert!(captured.passes.is_empty(), "case {case}");
            }
            let mut source = InMemorySource::new(&enc, &cfg);
            let got = source.frequent_pairs(&level1, min_count).unwrap();
            assert_eq!(sorted(got), want, "case {case}");
            assert!(source.take_pass_stats().is_some(), "case {case}");

            for kind in [CounterKind::Array, CounterKind::RTree] {
                let mut pinned = InMemorySource::new(&enc, &cfg);
                pinned.counter = Some(kind);
                let got = pinned.frequent_pairs(&level1, min_count).unwrap();
                assert_eq!(sorted(got), want, "case {case}, {kind:?}");
                // A pinned pass 2 reaches its backend through the scan
                // kernels, never through the pair histograms.
                if pair_candidates(&level1) > 0 {
                    let pass = pinned.take_pass_stats().expect("pinned pass 2 is scanned");
                    let (pinned_kind, other) = match kind {
                        CounterKind::Array => (pass.array_backed, pass.rtree_backed),
                        CounterKind::RTree => (pass.rtree_backed, pass.array_backed),
                    };
                    assert!(pinned_kind > 0 && other == 0, "case {case}, {kind:?}");
                }
            }

            let capped = MinerConfig {
                max_itemset_size: 1,
                ..cfg.clone()
            };
            for miner in [
                Miner::new(capped.clone()),
                Miner::new(capped).with_counter(CounterKind::RTree),
            ] {
                let (frequent, stats) = miner.frequent_itemsets(&enc).unwrap();
                assert!(frequent.levels.len() <= 1, "case {case}");
                assert!(stats.candidates_per_pass.is_empty(), "case {case}");
            }
        });
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
        // One pass record per non-empty candidate set, raw counts kept for
        // infrequent candidates too.
        let counting_passes = out
            .stats
            .mine
            .candidates_per_pass
            .iter()
            .filter(|&&c| c > 0)
            .count();
        assert_eq!(captured.passes.len(), counting_passes);
        for ((pass, entries), (k, &cands)) in captured
            .passes
            .iter()
            .zip(out.stats.mine.candidates_per_pass.iter().enumerate())
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
}

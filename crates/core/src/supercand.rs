//! Super-candidate support counting (Section 5.2), serial and sharded.
//!
//! Candidates sharing (a) identical categorical items and (b) the same set
//! of quantitative attributes are fused into one *super-candidate*: a
//! record supports a member when it matches the shared categorical items
//! and its quantitative values, read as a point, fall in the member's
//! rectangle.
//!
//! # Parallel counting
//!
//! The paper's Section 6 cost model observes that pass runtime is
//! dominated by the record scan; everything else (grouping, backend
//! choice, summation) is record-independent. The scan parallelizes over
//! *data shards*: the table's rows are split into `num_threads` contiguous
//! ranges, every worker runs the identical per-record counting loop over
//! its range with private counters, and the per-shard tallies are merged
//! by integer addition in shard order before the frequency filter.
//!
//! Each sharded scan runs in one [`std::thread::scope`]: shards 1.. on
//! threads spawned for the scan, shard 0 on the calling thread, all
//! joined before the scan returns. Every piece of record-independent
//! state is shared rather than cloned: plans are built once and read by
//! every shard.
//!
//! Because each record is counted by exactly one shard and `u64` addition
//! is exact, the merged counts are **bit-identical** to a serial scan for
//! every thread count — parallelism is pure performance, never semantics.
//! The serial-equivalence property is enforced by unit tests here and a
//! randomized end-to-end test in `tests/proptest_pipeline.rs`.
//!
//! # The kernel
//!
//! Every mining path counts with one kernel. It has no per-row control
//! flow: for each [`CANCEL_CHECK_INTERVAL`]-row block it evaluates every
//! categorical predicate over the whole block into `u64` bitsets — one
//! equality mask per *distinct* `(attribute, code)` pair, shared by all
//! plans that test it — ANDs each plan's masks together, and then counts
//! the plan one of two ways:
//!
//! * **Cells.** A plan with range dimensions is the paper's
//!   n-dimensional array, compressed to its members' breakpoints: per
//!   dimension, the sorted distinct `{lo, hi + 1}` of the members cut the
//!   code domain into slots, plus one top slot where codes no member
//!   covers are discarded. A `card(d)`-entry lookup table maps each code
//!   to its slot times the dimension's stride, so a row's cell is the sum
//!   of one lookup per dimension; rows the plan's categorical items
//!   reject go to one sink cell. After the scan the cells are
//!   prefix-summed once and every member is an inclusion–exclusion
//!   rectangle sum in slot coordinates. Per-row work no longer grows with
//!   the member count: credit's pass 3 at K = 1.5 has 430 members in five
//!   plans of 27–4,394 cells each (310k–795k uncompressed).
//! * **Masks** (the fallback). A purely categorical plan popcounts its
//!   mask. A plan whose cells no longer fit [`CELL_BUDGET`] ANDs one
//!   branchless `lo <= code <= hi` range mask per member dimension onto
//!   it and popcounts per member — a shape the autovectorizer turns into
//!   SIMD compares.
//!
//! Per-block min/max summaries of each touched column pre-screen plans and
//! members: a predicate code or rectangle that cannot intersect the
//! block's value range skips the block without touching a single row, and
//! a mask word that has gone all-zero short-circuits the remaining ANDs.
//! [`PassStats::kernel`] reports `"cells"`, `"bitmask"` or
//! `"cells+bitmask"` for what the pass ran, and `array_backed` counts the
//! plans counted as cells.
//!
//! # The reference kernel
//!
//! The paper's own walk — a hash tree over the categorical parts, then
//! each super-candidate's rectangles in an n-dimensional array or an
//! R*-tree — lives in the `qar-oracle` crate's `reference` module, as a
//! count source sharing no code with this one. The fuzz oracle, the
//! backend ablation and the scan bench check this kernel against it.
//!
//! # Pass 2: pair histograms
//!
//! Every member of `C_2` over an attribute pair shares one super-candidate,
//! so pass 2 needs no hash tree and no rectangle list: [`PairHistograms`]
//! keeps one dense `card(a) × card(b)` array of raw cells per pair, scans
//! rows into it, merges partitions by addition, prefix-sums once and
//! answers any item pair as a rectangle sum. Every [`crate::CountSource`]
//! fills such histograms for the pairs the level-wise driver asks for
//! ([`crate::CountSource::count_pair_cells`]); the driver reads the
//! frequent pairs out of them, and a capture persists their raw cells.
//! Pairs over [`CELL_BUDGET`] cells keep explicit candidates. Pair
//! histograms and pass ≥ 3 cells share one prefix-sum and rectangle-sum
//! routine ([`qar_itemset::ndcounter::prefix_sums`] and
//! [`qar_itemset::ndcounter::rect_sum`]).

use qar_itemset::ndcounter::{prefix_sums, rect_sum};
use qar_itemset::{Item, Itemset};
use qar_table::threads::run_sharded;
use qar_table::{AttributeId, AttributeKind, EncodedTable};
use qar_trace::CancelToken;
use std::collections::{BTreeMap, HashMap};
use std::ops::Range;
use std::time::{Duration, Instant};

/// A shard scan observed its [`CancelToken`] and stopped early. The pass's
/// partial counts are meaningless (some shards may not have finished), so
/// the counting entry points return this marker instead of tallies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanCancelled;

/// How many records a shard scans between [`CancelToken`] checks. Small
/// enough that cancellation lands "within one shard's worth of work" even
/// on wide tables, large enough that the atomic load is invisible next to
/// the per-record counting cost. The interval is relative to the rows a
/// shard has scanned (not the absolute row index), so every shard hits
/// its first checkpoint after at most one interval regardless of where
/// its range starts.
pub const CANCEL_CHECK_INTERVAL: usize = 1024;

/// The kernel name histogram counting reports in [`PassStats::kernel`]:
/// pass 1's value histograms, pass 2's [`PairHistograms`] and the
/// compressed cells of later passes count cells, not candidates.
pub const CELLS_KERNEL: &str = "cells";

/// Tuning knobs for one counting scan. [`ScanOptions::new`] gives the
/// defaults.
#[derive(Debug, Clone, Copy)]
pub struct ScanOptions<'a> {
    /// Upper bound on data shards scanned in parallel (`<= 1` is serial).
    pub num_threads: usize,
    /// Cooperative cancellation token, checked every
    /// [`CANCEL_CHECK_INTERVAL`] rows within each shard.
    pub cancel: Option<&'a CancelToken>,
}

impl<'a> ScanOptions<'a> {
    /// Default options for an uncancellable scan on `num_threads`
    /// shards.
    pub fn new(num_threads: usize) -> Self {
        ScanOptions {
            num_threads,
            cancel: None,
        }
    }
}

/// Statistics of one counting pass, reported in [`crate::MiningStats`].
///
/// `rtree_backed` and `hash_tree_nodes` describe the paper's counting
/// structures, which only the reference count source builds; this crate's
/// kernel always leaves them zero. They stay because catalogs and the
/// `pass_finished` trace event persist them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PassStats {
    /// Number of super-candidates formed.
    pub super_candidates: usize,
    /// How many were counted in an n-dimensional array: one of pass 2's
    /// [`PairHistograms`], compressed cells, or the reference source's
    /// array backend.
    pub array_backed: usize,
    /// How many the reference source counted in an R*-tree.
    pub rtree_backed: usize,
    /// Wall-clock time of the record scan (the component the paper's cost
    /// model calls "counting support", proportional to the table size;
    /// the rest of a pass — candidate generation and summation — is
    /// record-independent). With `n` shards this is the elapsed time of
    /// the whole fan-out/join region, so speedup is visible as
    /// `sum(shard_scan_times) / scan_time`.
    pub scan_time: Duration,
    /// Per-shard busy time of the record scan, in shard order. Length is
    /// the number of shards the pass actually used (1 for a serial scan).
    pub shard_scan_times: Vec<Duration>,
    /// Time spent summing per-shard counters into the final tallies and
    /// reading the cell plans' members out of their prefix sums (zero
    /// for a serial scan without cells — there is nothing to merge).
    pub merge_time: Duration,
    /// Total nodes across the reference source's categorical hash trees.
    pub hash_tree_nodes: usize,
    /// Estimated peak heap bytes of the pass's counting structures —
    /// per-shard counters are live simultaneously, so this is the
    /// single-shard figure times the shard count (and the maximum over
    /// sequential sub-scans of one pass): the per-plan and per-member
    /// tallies plus the cells.
    pub counter_bytes: usize,
    /// True when the scan ran on more than one shard thread; a serial
    /// scan never leaves the calling thread.
    pub pooled: bool,
    /// What counted the pass: `"bitmask"`, [`CELLS_KERNEL`] for histogram
    /// counting, or the reference source's `"direct"`. A pass that
    /// counted plans both ways, or made several physical scans that ran
    /// differently, joins the names with `+` (e.g. `"cells+bitmask"` for pass 3 with a
    /// purely categorical plan, or pass 2 with over-budget pairs).
    pub kernel: String,
}

impl PassStats {
    /// Number of data shards the scan used.
    pub fn num_shards(&self) -> usize {
        self.shard_scan_times.len().max(1)
    }

    /// Fold another scan's statistics into this one (used when one
    /// logical pass issues several physical scans, e.g. pass 2's
    /// histogram groups and its explicit over-budget candidates).
    pub fn absorb(&mut self, other: &PassStats) {
        self.super_candidates += other.super_candidates;
        self.array_backed += other.array_backed;
        self.rtree_backed += other.rtree_backed;
        self.hash_tree_nodes += other.hash_tree_nodes;
        self.absorb_rows(other);
    }

    /// Fold in the same counting work over other rows (e.g. the next
    /// spilled chunk): times and shard times add up, the super-candidate
    /// and backend counts stay.
    pub(crate) fn absorb_rows(&mut self, other: &PassStats) {
        self.scan_time += other.scan_time;
        self.merge_time += other.merge_time;
        // Sequential sub-scans free their counters before the next one
        // allocates, so the peak is the max, not the sum.
        self.counter_bytes = self.counter_bytes.max(other.counter_bytes);
        self.pooled |= other.pooled;
        for part in other.kernel.split('+').filter(|k| !k.is_empty()) {
            if !self.kernel.split('+').any(|k| k == part) {
                if !self.kernel.is_empty() {
                    self.kernel.push('+');
                }
                self.kernel.push_str(part);
            }
        }
        add_shard_times(&mut self.shard_scan_times, &other.shard_scan_times);
    }
}

/// Fold `scan` into the statistics `into` keeps so far, through `fold`
/// ([`PassStats::absorb`] or [`PassStats::absorb_rows`]).
pub(crate) fn fold_stats(
    into: &mut Option<PassStats>,
    scan: PassStats,
    fold: fn(&mut PassStats, &PassStats),
) {
    match into {
        Some(stats) => fold(stats, &scan),
        None => *into = Some(scan),
    }
}

/// Element-wise sum of per-shard durations, extending `dst` as needed.
fn add_shard_times(dst: &mut Vec<Duration>, src: &[Duration]) {
    if dst.len() < src.len() {
        dst.resize(src.len(), Duration::ZERO);
    }
    for (a, &b) in dst.iter_mut().zip(src) {
        *a += b;
    }
}

/// Split `num_rows` into at most `num_threads` contiguous, non-empty,
/// near-equal ranges covering `0..num_rows` in order. Always returns at
/// least one range (possibly `0..0` for an empty table) so callers can
/// treat the serial scan as the one-shard case.
fn shard_bounds(num_rows: usize, num_threads: usize) -> Vec<Range<usize>> {
    let shards = num_threads.max(1).min(num_rows.max(1));
    let base = num_rows / shards;
    let extra = num_rows % shards;
    let mut bounds = Vec::with_capacity(shards);
    let mut start = 0;
    for i in 0..shards {
        let len = base + usize::from(i < extra);
        bounds.push(start..start + len);
        start += len;
    }
    debug_assert_eq!(start, num_rows);
    bounds
}

/// Hand `rows` to `scan` in [`CANCEL_CHECK_INTERVAL`]-row blocks, checking
/// `cancel` before each block. Returns true when the token fired.
fn scan_blocks(
    rows: Range<usize>,
    cancel: Option<&CancelToken>,
    mut scan: impl FnMut(Range<usize>),
) -> bool {
    let mut start = rows.start;
    while start < rows.end {
        if cancel.is_some_and(CancelToken::is_cancelled) {
            return true;
        }
        let end = rows.end.min(start + CANCEL_CHECK_INTERVAL);
        scan(start..end);
        start = end;
    }
    false
}

/// The record-independent description of one super-candidate: everything a
/// shard needs to build its private counters. Built once, shared read-only
/// by every worker.
struct SuperPlan {
    /// The shared categorical items as `(attribute, code)`, sorted.
    cat_key: Vec<(u32, u32)>,
    /// Sorted quantitative attribute ids shared by all members.
    quant_attrs: Vec<u32>,
    /// Indices into the candidate list.
    members: Vec<usize>,
    /// Code-domain sizes of `quant_attrs`.
    dims: Vec<u32>,
    /// The member rectangles column-major: `lo_cols[d][m]`/`hi_cols[d][m]`
    /// is member `m`'s inclusive range over dimension `d` — contiguous
    /// per dimension so the member loop streams bounds.
    lo_cols: Vec<Vec<u32>>,
    hi_cols: Vec<Vec<u32>>,
    /// Per-dimension union of the member ranges (`min` of the lows,
    /// `max` of the highs), for whole-plan block pre-screening.
    dim_lo_min: Vec<u32>,
    dim_hi_max: Vec<u32>,
    /// The plan's compressed k-D histogram, when it is counted as cells
    /// rather than with range masks.
    cells: Option<CellPlan>,
}

/// One super-candidate counted as a k-D histogram whose dimensions are
/// cut at its members' breakpoints (see module docs). Built once, read
/// by every shard.
struct CellPlan {
    /// Slots per dimension: one per gap between consecutive breakpoints,
    /// plus the top slot, where codes no member covers are discarded.
    slots: Vec<u32>,
    /// Per dimension, code → slot × the dimension's row-major stride, so
    /// a row's cell is the sum of one lookup per dimension.
    luts: Vec<Vec<u32>>,
    /// Where the plan's cells start in a shard's cell array: `len` cells,
    /// then one sink cell for rows its categorical items reject.
    offset: usize,
    len: usize,
    /// Member rectangles in slot coordinates, in member order.
    rects: Vec<(Vec<u32>, Vec<u32>)>,
}

impl CellPlan {
    /// Compress `plan`'s dimensions to its members' breakpoints, the
    /// cells placed at `offset`; `None` when the cells, their sink and
    /// the lookup tables would exceed `budget`.
    fn compress(plan: &SuperPlan, offset: usize, budget: usize) -> Option<Self> {
        let breaks: Vec<Vec<u32>> = (0..plan.dims.len())
            .map(|d| {
                let mut b: Vec<u32> = plan.lo_cols[d].clone();
                b.extend(plan.hi_cols[d].iter().map(|&hi| hi + 1));
                b.sort_unstable();
                b.dedup();
                b
            })
            .collect();
        // `k` breakpoints leave `k - 1` gaps plus the discard slot.
        let slots: Vec<u32> = breaks.iter().map(|b| b.len() as u32).collect();
        let len = slots
            .iter()
            .try_fold(1usize, |n, &s| n.checked_mul(s as usize))?;
        let lut_entries: usize = plan.dims.iter().map(|&card| card as usize).sum();
        if len.checked_add(1 + lut_entries)? > budget {
            return None;
        }
        let mut stride = len;
        let luts = breaks
            .iter()
            .zip(&plan.dims)
            .map(|(b, &card)| {
                stride /= b.len();
                let discard = (b.len() - 1) * stride;
                let mut lut = vec![discard as u32; card as usize];
                for (slot, gap) in b.windows(2).enumerate() {
                    let end = (gap[1] as usize).min(lut.len());
                    let start = (gap[0] as usize).min(end);
                    lut[start..end].fill((slot * stride) as u32);
                }
                lut
            })
            .collect();
        let slot_of =
            |d: usize, code: u32| breaks[d].binary_search(&code).expect("a breakpoint") as u32;
        let dims = 0..plan.dims.len();
        let rects = (0..plan.members.len())
            .map(|m| {
                let lo_slots = dims
                    .clone()
                    .map(|d| slot_of(d, plan.lo_cols[d][m]))
                    .collect();
                let hi_slots = dims.clone().map(|d| slot_of(d, plan.hi_cols[d][m] + 1) - 1);
                (lo_slots, hi_slots.collect())
            })
            .collect();
        Some(CellPlan {
            slots,
            luts,
            offset,
            len,
            rects,
        })
    }

    /// This plan's cells and sink within a shard's cell array.
    fn span(&self) -> Range<usize> {
        self.offset..self.offset + self.len + 1
    }

    /// What the plan takes of the cell budget: its cells, its sink and
    /// its lookup-table entries.
    fn cost(&self) -> usize {
        self.len + 1 + self.luts.iter().map(Vec::len).sum::<usize>()
    }
}

/// One shard's private tallies, merged in shard order after the scan.
struct ShardTally {
    /// Per plan, its members' counts in member order (empty for a plan
    /// counted as cells).
    counts: Vec<Vec<u64>>,
    /// The raw cells of every plan counted as cells, plan after plan.
    cells: Vec<u64>,
    /// Busy time of this shard's scan loop.
    scan_time: Duration,
    /// True when the scan stopped early on a fired [`CancelToken`] — the
    /// tallies are partial and must be discarded.
    cancelled: bool,
}

/// Group candidates into super-candidate plans and decide how each is
/// counted: as cells or with range masks. Deterministic: grouping uses a
/// `BTreeMap` and every choice is a pure function of the
/// (record-independent) inputs. Also returns the cells one shard
/// allocates.
fn build_plans(table: &EncodedTable, candidates: &[Itemset]) -> (Vec<SuperPlan>, PassStats, usize) {
    let schema = table.schema();
    let is_quant: Vec<bool> = schema
        .attributes()
        .iter()
        .map(|a| a.kind() == AttributeKind::Quantitative)
        .collect();

    let mut groups: BTreeMap<_, Vec<usize>> = BTreeMap::new();
    for (idx, cand) in candidates.iter().enumerate() {
        let mut cat_key = Vec::new();
        let mut quant_attrs = Vec::new();
        for item in cand.items() {
            // Range items — quantitative attributes AND taxonomy-
            // generalized categorical items — are counted as rectangle
            // dimensions; single categorical values are equality
            // predicates. A point item on a quantitative attribute still
            // counts as a (width-1) rectangle so candidates over the same
            // attribute set share one super-candidate.
            if is_quant[item.attr as usize] || item.lo < item.hi {
                quant_attrs.push(item.attr);
            } else {
                cat_key.push((item.attr, item.lo));
            }
        }
        groups.entry((cat_key, quant_attrs)).or_default().push(idx);
    }

    let mut stats = PassStats::default();
    let mut plans: Vec<SuperPlan> = Vec::with_capacity(groups.len());
    // Cells allocated so far, the budget they and their lookup tables
    // use, and the members left to range masks.
    let (mut cells, mut budget_used, mut mask_members) = (0usize, 0usize, 0usize);
    for ((cat_key, quant_attrs), members) in groups {
        let dims: Vec<u32> = quant_attrs
            .iter()
            .map(|&a| table.cardinality(AttributeId(a as usize)))
            .collect();
        let (lo_cols, hi_cols): (Vec<Vec<u32>>, Vec<Vec<u32>>) = quant_attrs
            .iter()
            .map(|&a| {
                let item = |&m: &usize| candidates[m].item_for(a).expect("grouped by attributes");
                members.iter().map(|m| (item(m).lo, item(m).hi)).unzip()
            })
            .unzip();
        let dim_lo_min = lo_cols
            .iter()
            .map(|c| c.iter().copied().min().unwrap_or(u32::MAX));
        let dim_hi_max = hi_cols.iter().map(|c| c.iter().copied().max().unwrap_or(0));
        let mut plan = SuperPlan {
            dim_lo_min: dim_lo_min.collect(),
            dim_hi_max: dim_hi_max.collect(),
            cat_key,
            quant_attrs,
            members,
            dims,
            lo_cols,
            hi_cols,
            cells: None,
        };
        // A plan with range dimensions is counted as cells while the
        // pass's cells fit the budget.
        if !plan.dims.is_empty() {
            plan.cells = CellPlan::compress(&plan, cells, CELL_BUDGET - budget_used);
            if let Some(cell_plan) = &plan.cells {
                cells = cell_plan.span().end;
                budget_used += cell_plan.cost();
                stats.array_backed += 1;
            }
        }
        if plan.cells.is_none() {
            mask_members += plan.members.len();
        }
        plans.push(plan);
    }
    stats.super_candidates = plans.len();
    // One tally per plan, one per member counted with range masks, and
    // the cells (see `scan_bitmask`).
    stats.counter_bytes = (plans.len() + mask_members + cells) * std::mem::size_of::<u64>();
    stats.kernel = match (stats.array_backed, plans.len() - stats.array_backed) {
        (0, _) => "bitmask",
        (_, 0) => CELLS_KERNEL,
        _ => "cells+bitmask",
    }
    .to_string();
    (plans, stats, cells)
}

/// Words per bitmask block: one bit per row of a
/// [`CANCEL_CHECK_INTERVAL`]-row block.
const BLOCK_WORDS: usize = CANCEL_CHECK_INTERVAL / 64;

/// Count set bits across the active words of a block mask.
#[inline]
fn popcount(mask: &[u64]) -> u64 {
    mask.iter().map(|w| u64::from(w.count_ones())).sum()
}

/// Set the first `n` bits of `mask` (the block's row count), clear the
/// tail of the last active word.
#[inline]
fn fill_ones(mask: &mut [u64; BLOCK_WORDS], n: usize) {
    let words = n.div_ceil(64);
    mask[..words].fill(!0u64);
    let rem = n % 64;
    if rem != 0 {
        mask[words - 1] = !0u64 >> (64 - rem);
    }
}

/// Per-shard state of the kernel (see module docs): the deduped
/// predicate table built once per shard, plus the per-block mask, cell
/// and min/max scratch reused across blocks.
struct BitmaskScan<'t> {
    /// Distinct code columns touched by any categorical predicate or
    /// quantitative dimension.
    cols: Vec<&'t [u32]>,
    /// Per-column `(min, max)` over the current block, the pre-screening
    /// summaries (aligned with `cols`).
    minmax: Vec<(u32, u32)>,
    /// Deduped categorical equality predicates `(column slot, code)` —
    /// every plan testing the same `(attribute, code)` shares one mask.
    preds: Vec<(usize, u32)>,
    /// Per-predicate equality masks over the current block.
    pred_masks: Vec<[u64; BLOCK_WORDS]>,
    /// `true` when the predicate's code lies outside the block's
    /// `[min, max]` — its mask was never computed and every plan using
    /// it skips the block.
    pred_dead: Vec<bool>,
    /// Per plan: indices into `preds`.
    plan_preds: Vec<Vec<usize>>,
    /// Per plan: column slot of each quantitative dimension.
    plan_dims: Vec<Vec<usize>>,
    /// Per row of the current block, the cell a cells plan counts it in.
    cell_of: Vec<u32>,
}

/// Intern `attr`'s code column, returning its slot in `cols`.
fn col_slot<'t>(
    table: &'t EncodedTable,
    attr: u32,
    slot_of: &mut HashMap<u32, usize>,
    cols: &mut Vec<&'t [u32]>,
) -> usize {
    *slot_of.entry(attr).or_insert_with(|| {
        cols.push(table.codes(AttributeId(attr as usize)));
        cols.len() - 1
    })
}

impl<'t> BitmaskScan<'t> {
    fn new(table: &'t EncodedTable, plans: &[SuperPlan]) -> Self {
        let mut slot_of: HashMap<u32, usize> = HashMap::new();
        let mut cols: Vec<&[u32]> = Vec::new();
        let mut pred_of: HashMap<(u32, u32), usize> = HashMap::new();
        let mut preds: Vec<(usize, u32)> = Vec::new();
        let mut plan_preds = Vec::with_capacity(plans.len());
        let mut plan_dims = Vec::with_capacity(plans.len());
        for plan in plans {
            let mut pp = Vec::with_capacity(plan.cat_key.len());
            for &(attr, code) in &plan.cat_key {
                let idx = *pred_of.entry((attr, code)).or_insert_with(|| {
                    let slot = col_slot(table, attr, &mut slot_of, &mut cols);
                    preds.push((slot, code));
                    preds.len() - 1
                });
                pp.push(idx);
            }
            plan_preds.push(pp);
            plan_dims.push(
                plan.quant_attrs
                    .iter()
                    .map(|&a| col_slot(table, a, &mut slot_of, &mut cols))
                    .collect(),
            );
        }
        let minmax = vec![(0, 0); cols.len()];
        let pred_masks = vec![[0u64; BLOCK_WORDS]; preds.len()];
        let pred_dead = vec![false; preds.len()];
        BitmaskScan {
            cols,
            minmax,
            preds,
            pred_masks,
            pred_dead,
            plan_preds,
            plan_dims,
            cell_of: vec![0; CANCEL_CHECK_INTERVAL],
        }
    }

    /// Count one block of rows into `direct` (purely categorical plans),
    /// `cells` (plans counted as cells) and `member_counts` (the other
    /// plans' per-member rectangle matches).
    fn scan_block(
        &mut self,
        plans: &[SuperPlan],
        rows: Range<usize>,
        direct: &mut [u64],
        cells: &mut [u64],
        member_counts: &mut [Vec<u64>],
    ) {
        let n = rows.len();
        let words = n.div_ceil(64);

        // Block summaries: one min/max sweep per touched column.
        for (col, mm) in self.cols.iter().zip(&mut self.minmax) {
            let block = &col[rows.clone()];
            let (mut lo, mut hi) = (u32::MAX, 0u32);
            for &v in block {
                lo = lo.min(v);
                hi = hi.max(v);
            }
            *mm = (lo, hi);
        }

        // Equality masks, once per distinct (attribute, code) predicate;
        // codes outside the block's range are dead without touching rows.
        for ((&(slot, code), dead), mask) in self
            .preds
            .iter()
            .zip(&mut self.pred_dead)
            .zip(&mut self.pred_masks)
        {
            let (lo, hi) = self.minmax[slot];
            *dead = code < lo || code > hi;
            if *dead {
                continue;
            }
            let block = &self.cols[slot][rows.clone()];
            for (w, chunk) in block.chunks(64).enumerate() {
                let mut bits = 0u64;
                for (i, &v) in chunk.iter().enumerate() {
                    bits |= u64::from(v == code) << i;
                }
                mask[w] = bits;
            }
        }

        let mut plan_mask = [0u64; BLOCK_WORDS];
        let mut member_mask = [0u64; BLOCK_WORDS];
        'plans: for (pi, plan) in plans.iter().enumerate() {
            // Pre-screen the whole plan: a dead predicate, or a dimension
            // whose member-range union misses the block's value range,
            // rules every member out without touching a row.
            for &p in &self.plan_preds[pi] {
                if self.pred_dead[p] {
                    continue 'plans;
                }
            }
            let dims = &self.plan_dims[pi];
            for (d, &slot) in dims.iter().enumerate() {
                let (blo, bhi) = self.minmax[slot];
                if plan.dim_lo_min[d] > bhi || plan.dim_hi_max[d] < blo {
                    continue 'plans;
                }
            }

            // AND the plan's shared categorical masks (all-ones for a
            // plan with no categorical part).
            fill_ones(&mut plan_mask, n);
            for &p in &self.plan_preds[pi] {
                let mut any = 0u64;
                for (m, &b) in plan_mask[..words]
                    .iter_mut()
                    .zip(&self.pred_masks[p][..words])
                {
                    *m &= b;
                    any |= *m;
                }
                if any == 0 {
                    continue 'plans;
                }
            }
            if dims.is_empty() {
                direct[pi] += popcount(&plan_mask[..words]);
                continue;
            }
            if let Some(cell_plan) = &plan.cells {
                // One lookup per dimension sums to each row's cell; rows
                // the categorical items reject go to the sink.
                let (&last, rest) = dims.split_last().expect("a range dimension");
                let cell_of = &mut self.cell_of[..n];
                cell_of.fill(0);
                for (lut, &slot) in cell_plan.luts.iter().zip(rest) {
                    for (cell, &v) in cell_of.iter_mut().zip(&self.cols[slot][rows.clone()]) {
                        *cell += lut[v as usize];
                    }
                }
                let lut = &cell_plan.luts[rest.len()];
                let block = &self.cols[last][rows.clone()];
                let hist = &mut cells[cell_plan.span()];
                if self.plan_preds[pi].is_empty() {
                    for (&cell, &v) in cell_of.iter().zip(block) {
                        hist[(cell + lut[v as usize]) as usize] += 1;
                    }
                } else {
                    for (i, (&cell, &v)) in cell_of.iter().zip(block).enumerate() {
                        let keep = (plan_mask[i / 64] >> (i % 64)) & 1 != 0;
                        let cell = if keep {
                            cell + lut[v as usize]
                        } else {
                            cell_plan.len as u32
                        };
                        hist[cell as usize] += 1;
                    }
                }
                continue;
            }

            // Per member: start from the categorical mask and AND one
            // branchless range mask per dimension, skipping words already
            // all-zero and members whose rectangle misses the block.
            'members: for (m, count) in member_counts[pi].iter_mut().enumerate() {
                member_mask[..words].copy_from_slice(&plan_mask[..words]);
                for (d, &slot) in dims.iter().enumerate() {
                    let lo = plan.lo_cols[d][m];
                    let hi = plan.hi_cols[d][m];
                    let (blo, bhi) = self.minmax[slot];
                    if lo > bhi || hi < blo {
                        continue 'members;
                    }
                    let span = hi - lo;
                    let block = &self.cols[slot][rows.clone()];
                    let mut any = 0u64;
                    for (w, chunk) in block.chunks(64).enumerate() {
                        if member_mask[w] == 0 {
                            continue;
                        }
                        let mut bits = 0u64;
                        for (i, &v) in chunk.iter().enumerate() {
                            bits |= u64::from(v.wrapping_sub(lo) <= span) << i;
                        }
                        member_mask[w] &= bits;
                        any |= member_mask[w];
                    }
                    if any == 0 {
                        continue 'members;
                    }
                }
                *count += popcount(&member_mask[..words]);
            }
        }
    }
}

/// The kernel over one contiguous row range: per-plan tallies
/// for purely categorical plans, `num_cells` raw cells for the plans
/// counted as cells, per-member tallies for the rest, counted a block at
/// a time with the cancellation checkpoint at each block boundary —
/// relative to the rows this shard has scanned, so a shard starting
/// mid-interval still checks after at most one block.
fn scan_bitmask(
    table: &EncodedTable,
    plans: &[SuperPlan],
    num_cells: usize,
    rows: Range<usize>,
    cancel: Option<&CancelToken>,
) -> ShardTally {
    let started = Instant::now();
    let mut direct = vec![0u64; plans.len()];
    let mut counts: Vec<Vec<u64>> = plans
        .iter()
        .map(|plan| match plan.cells {
            Some(_) => Vec::new(),
            None => vec![0u64; plan.members.len()],
        })
        .collect();
    let mut cells = vec![0u64; num_cells];
    let mut scan = BitmaskScan::new(table, plans);
    let cancelled = scan_blocks(rows, cancel, |block| {
        scan.scan_block(plans, block, &mut direct, &mut cells, &mut counts)
    });
    for ((plan, members), direct) in plans.iter().zip(&mut counts).zip(direct) {
        if plan.dims.is_empty() {
            members.fill(direct);
        }
    }
    ShardTally {
        counts,
        cells,
        scan_time: started.elapsed(),
        cancelled,
    }
}

/// Count the support of every candidate in one pass over `table`,
/// scanning up to `opts.num_threads` contiguous row shards in parallel.
///
/// Counts are bit-identical for every thread count — threads are a
/// performance choice, never semantics (see module docs);
/// `num_threads <= 1` runs the scan inline without spawning.
/// Every shard checks `opts.cancel` every [`CANCEL_CHECK_INTERVAL`] of its
/// own records and at the scan start, so a fired token stops the pass
/// within roughly one check interval per shard; a cancelled pass returns
/// [`ScanCancelled`] — its partial tallies are discarded, never
/// observable.
pub fn count_candidates(
    table: &EncodedTable,
    candidates: &[Itemset],
    opts: ScanOptions<'_>,
) -> Result<(Vec<u64>, PassStats), ScanCancelled> {
    let (plans, mut stats, num_cells) = build_plans(table, candidates);
    let bounds = shard_bounds(table.num_rows(), opts.num_threads);
    stats.counter_bytes = stats.counter_bytes.saturating_mul(bounds.len());
    stats.pooled = bounds.len() > 1;

    let scan = |rows: Range<usize>| scan_bitmask(table, &plans, num_cells, rows, opts.cancel);
    let scan_started = Instant::now();
    let scan = &scan;
    let tallies: Vec<ShardTally> =
        run_sharded(bounds.into_iter().map(|rows| move || scan(rows)).collect());
    if tallies.iter().any(|t| t.cancelled) {
        return Err(ScanCancelled);
    }
    stats.scan_time = scan_started.elapsed();
    stats.shard_scan_times = tallies.iter().map(|t| t.scan_time).collect();

    // Merge per-shard tallies and cells in shard order (u64 sums:
    // order-independent, fixed anyway for determinism of the timing
    // bookkeeping), read the cells plans' members as rectangle sums,
    // then scatter the counts back to candidate order.
    let merge_started = Instant::now();
    let mut tallies = tallies.into_iter();
    let first = tallies.next().expect("at least one shard");
    let (mut merged, mut cells) = (first.counts, first.cells);
    for tally in tallies {
        for (into, from) in merged.iter_mut().zip(tally.counts) {
            for (a, b) in into.iter_mut().zip(from) {
                *a += b;
            }
        }
        for (a, b) in cells.iter_mut().zip(tally.cells) {
            *a += b;
        }
    }
    for (plan, members) in plans.iter().zip(&mut merged) {
        if let Some(cell_plan) = &plan.cells {
            let hist = &mut cells[cell_plan.offset..cell_plan.offset + cell_plan.len];
            prefix_sums(hist, &cell_plan.slots);
            *members = cell_plan
                .rects
                .iter()
                .map(|(lo, hi)| rect_sum(hist, &cell_plan.slots, lo, hi))
                .collect();
        }
    }
    if stats.shard_scan_times.len() > 1 || num_cells > 0 {
        stats.merge_time = merge_started.elapsed();
    }
    let mut counts = vec![0u64; candidates.len()];
    for (plan, members) in plans.iter().zip(merged) {
        for (&member, count) in plan.members.iter().zip(members) {
            counts[member] = count;
        }
    }
    Ok((counts, stats))
}

/// Cell budget of one counting scan (64 MB of `u64` cells per shard).
/// In pass 2, an attribute pair whose full code domain exceeds it is
/// counted explicitly instead, and the pairs one table scan counts
/// together stay under it. In later passes, the compressed cells (and
/// lookup-table entries) of the plans counted as cells stay under it;
/// the plans past it are counted with range masks.
pub const CELL_BUDGET: usize = 8 << 20;

/// Cells of the 2-D histogram over attribute pair `(a, b)` of `meta`
/// (saturating, so absurd domains compare as over any budget).
pub(crate) fn pair_cells(meta: &EncodedTable, a: u32, b: u32) -> usize {
    (meta.cardinality(AttributeId(a as usize)) as usize)
        .saturating_mul(meta.cardinality(AttributeId(b as usize)) as usize)
}

/// Split consecutive pairs into groups whose summed cells stay within
/// `max_cells` — one table scan (or one wire frame) per group. A group
/// always holds at least one pair.
pub fn cell_groups(cells: &[usize], max_cells: usize) -> Vec<Range<usize>> {
    let mut groups = Vec::new();
    let mut start = 0;
    while start < cells.len() {
        let mut end = start + 1;
        let mut total = cells[start];
        while end < cells.len() && total.saturating_add(cells[end]) <= max_cells {
            total += cells[end];
            end += 1;
        }
        groups.push(start..end);
        start = end;
    }
    groups
}

/// Mergeable 2-D histograms over attribute pairs: pass 2's n-dimensional
/// arrays (Section 5.2). Every member of `C_2` over an attribute pair
/// `(a, b)` shares one array of `card(a) × card(b)` raw `u64` cells; one
/// scan increments the cell of each row's `(code_a, code_b)` point, and
/// after one prefix-sum pass every item pair's support is a constant-time
/// [`PairHistograms::rect_sum`].
///
/// Raw cells are sums over rows, so histograms of disjoint row partitions
/// [`merge`](PairHistograms::merge) by element-wise addition into exactly
/// the whole-table histograms — the property that lets shards, spilled
/// chunks and remote workers each count their rows and ship cells rather
/// than candidate lists.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PairHistograms {
    pairs: Vec<(u32, u32)>,
    /// Per pair, the code-domain sizes `[card(a), card(b)]` of its
    /// row-major `(code_a, code_b)` array (`card(b)` is the row stride).
    dims: Vec<[u32; 2]>,
    /// `offsets[p]..offsets[p + 1]` are pair `p`'s cells in the pairs'
    /// concatenated arrays.
    offsets: Vec<usize>,
    /// Where `cells` starts in the concatenated arrays: 0 unless this is
    /// a [`PairHistograms::window`].
    start: usize,
    cells: Vec<u64>,
    prefixed: bool,
}

impl PairHistograms {
    /// Zeroed histograms for `pairs` over the code domains of `meta` (a
    /// decode-only header is enough).
    pub fn new(meta: &EncodedTable, pairs: Vec<(u32, u32)>) -> Self {
        Self::window(meta, pairs, 0..usize::MAX)
    }

    /// Zeroed cells `cells` (clamped to the layout) of the pairs'
    /// concatenated row-major arrays — how a pair too large for one wire
    /// frame is counted a frame at a time. A window scans and merges like
    /// whole histograms; only whole ones read single pairs or build
    /// prefix sums.
    pub fn window(meta: &EncodedTable, pairs: Vec<(u32, u32)>, cells: Range<usize>) -> Self {
        let mut offsets = Vec::with_capacity(pairs.len() + 1);
        let mut total = 0usize;
        offsets.push(0);
        for &(a, b) in &pairs {
            total += pair_cells(meta, a, b);
            offsets.push(total);
        }
        let card = |attr: u32| meta.cardinality(AttributeId(attr as usize));
        let dims = pairs.iter().map(|&(a, b)| [card(a), card(b)]).collect();
        let end = cells.end.min(total);
        let start = cells.start.min(end);
        PairHistograms {
            pairs,
            dims,
            offsets,
            start,
            cells: vec![0; end - start],
            prefixed: false,
        }
    }

    /// The range of the pairs' concatenated arrays these cells cover.
    pub fn window_range(&self) -> Range<usize> {
        self.start..self.start + self.cells.len()
    }

    fn assert_whole(&self) {
        assert!(
            self.start == 0 && self.cells.len() == self.offsets[self.pairs.len()],
            "a window of cells holds no whole pair"
        );
    }

    /// The attribute pairs, in cell order.
    pub fn pairs(&self) -> &[(u32, u32)] {
        &self.pairs
    }

    /// All cells, pair after pair, each pair's array row-major (those of
    /// [`PairHistograms::window_range`] for a window).
    pub fn cells(&self) -> &[u64] {
        &self.cells
    }

    /// Consume into the raw cells (what a worker ships).
    pub fn into_cells(self) -> Vec<u64> {
        self.cells
    }

    /// Pair `pair`'s cells alone, row-major over `(code_a, code_b)`.
    pub fn pair_cells(&self, pair: usize) -> &[u64] {
        self.assert_whole();
        &self.cells[self.offsets[pair]..self.offsets[pair + 1]]
    }

    /// Add raw cells shaped like [`PairHistograms::pair_cells`] to pair
    /// `pair` alone — a partition's tallies for that pair.
    pub fn merge_pair_cells(&mut self, pair: usize, cells: &[u64]) {
        self.assert_whole();
        let len = self.offsets[pair + 1] - self.offsets[pair];
        assert_eq!(len, cells.len(), "cell counts differ");
        self.merge_cells_at(self.offsets[pair], cells);
    }

    /// Count rows `rows` of `table` into `cells` (shaped like `self`).
    /// Pair-major within each [`CANCEL_CHECK_INTERVAL`]-row block, so the
    /// block's two columns stay in cache while one array is updated.
    /// Returns true when `cancel` fired.
    fn scan_rows(
        &self,
        table: &EncodedTable,
        cells: &mut [u64],
        rows: Range<usize>,
        cancel: Option<&CancelToken>,
    ) -> bool {
        // Per pair within the window: its columns, its row stride, how far
        // into its array the window starts, and its part of `cells`.
        let end = self.start + cells.len();
        let parts: Vec<_> = (0..self.pairs.len())
            .filter_map(|p| {
                let (a, b) = self.pairs[p];
                let lo = self.offsets[p].max(self.start);
                let hi = self.offsets[p + 1].min(end);
                (lo < hi).then(|| {
                    (
                        table.codes(AttributeId(a as usize)),
                        table.codes(AttributeId(b as usize)),
                        self.dims[p][1] as usize,
                        lo - self.offsets[p],
                        lo - self.start..hi - self.start,
                    )
                })
            })
            .collect();
        scan_blocks(rows, cancel, |block| {
            for (col_a, col_b, stride, skip, part) in &parts {
                let hist = &mut cells[part.clone()];
                for (&x, &y) in col_a[block.clone()].iter().zip(&col_b[block.clone()]) {
                    let cell = (x as usize * stride + y as usize).wrapping_sub(*skip);
                    if let Some(count) = hist.get_mut(cell) {
                        *count += 1;
                    }
                }
            }
        })
    }

    /// Add every row of `table` (a whole table, a spilled chunk or a row
    /// block encoded like the histograms' header) to the raw cells,
    /// scanning up to `opts.num_threads` row shards whose private arrays
    /// are summed in shard order. A cancelled scan returns
    /// [`ScanCancelled`] and leaves the cells partial — discard them.
    pub fn scan(
        &mut self,
        table: &EncodedTable,
        opts: ScanOptions<'_>,
    ) -> Result<PassStats, ScanCancelled> {
        assert!(!self.prefixed, "cannot scan into prefix sums");
        let bounds = shard_bounds(table.num_rows(), opts.num_threads);
        let mut stats = PassStats {
            counter_bytes: self
                .cells
                .len()
                .saturating_mul(std::mem::size_of::<u64>())
                .saturating_mul(bounds.len()),
            pooled: bounds.len() > 1,
            kernel: CELLS_KERNEL.to_string(),
            // Each pair's array is one super-candidate.
            super_candidates: self.pairs.len(),
            array_backed: self.pairs.len(),
            ..PassStats::default()
        };
        let started = Instant::now();
        if bounds.len() <= 1 {
            let mut cells = std::mem::take(&mut self.cells);
            let cancelled = self.scan_rows(table, &mut cells, 0..table.num_rows(), opts.cancel);
            self.cells = cells;
            if cancelled {
                return Err(ScanCancelled);
            }
            stats.shard_scan_times = vec![started.elapsed()];
        } else {
            let this = &*self;
            let tasks: Vec<_> = bounds
                .into_iter()
                .map(|range| {
                    move || {
                        let t0 = Instant::now();
                        let mut cells = vec![0u64; this.cells.len()];
                        let cancelled = this.scan_rows(table, &mut cells, range, opts.cancel);
                        (cells, t0.elapsed(), cancelled)
                    }
                })
                .collect();
            let shards: Vec<(Vec<u64>, Duration, bool)> = run_sharded(tasks);
            if shards.iter().any(|(_, _, cancelled)| *cancelled) {
                return Err(ScanCancelled);
            }
            let merge_started = Instant::now();
            for (cells, t, _) in shards {
                self.merge_cells(&cells);
                stats.shard_scan_times.push(t);
            }
            stats.merge_time = merge_started.elapsed();
        }
        stats.scan_time = started.elapsed();
        Ok(stats)
    }

    /// Add another partition's histograms over the same pairs.
    pub fn merge(&mut self, other: &PairHistograms) {
        assert_eq!(self.pairs, other.pairs, "cannot merge different pairs");
        assert_eq!(self.start, other.start, "cannot merge different windows");
        assert!(!other.prefixed, "cannot merge prefix sums");
        self.merge_cells(&other.cells);
    }

    /// Add raw cells shaped like [`PairHistograms::cells`] — another
    /// partition's tallies, e.g. as a worker shipped them.
    pub fn merge_cells(&mut self, cells: &[u64]) {
        assert_eq!(self.cells.len(), cells.len(), "cell counts differ");
        self.merge_cells_at(self.start, cells);
    }

    /// Add raw cells to those from `start` on in the pairs' concatenated
    /// arrays — e.g. a window's tallies into whole histograms.
    pub fn merge_cells_at(&mut self, start: usize, cells: &[u64]) {
        assert!(!self.prefixed, "cannot merge into prefix sums");
        let from = start - self.start;
        for (a, b) in self.cells[from..from + cells.len()].iter_mut().zip(cells) {
            *a += b;
        }
    }

    /// Turn every pair's cells into inclusive 2-D prefix sums. After this
    /// the histograms answer [`PairHistograms::rect_sum`] and take no more
    /// rows.
    pub fn build_prefix_sums(&mut self) {
        assert!(!self.prefixed, "prefix sums already built");
        self.assert_whole();
        for p in 0..self.pairs.len() {
            prefix_sums(
                &mut self.cells[self.offsets[p]..self.offsets[p + 1]],
                &self.dims[p],
            );
        }
        self.prefixed = true;
    }

    /// Rows whose pair-`pair` codes lie in `a`'s range and in `b`'s range
    /// (`a` on the pair's first attribute, `b` on its second).
    pub fn rect_sum(&self, pair: usize, a: Item, b: Item) -> u64 {
        assert!(self.prefixed, "call build_prefix_sums first");
        let hist = &self.cells[self.offsets[pair]..self.offsets[pair + 1]];
        rect_sum(hist, &self.dims[pair], &[a.lo, b.lo], &[a.hi, b.hi])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qar_itemset::Item;
    use qar_table::{Schema, Table, Value};

    fn people() -> EncodedTable {
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
        EncodedTable::encode_full_resolution(&t).unwrap()
    }

    fn candidates() -> Vec<Itemset> {
        vec![
            // ⟨Age: 30..39⟩ (codes 3..4) and ⟨Married: Yes⟩ (code 1)
            vec![Item::range(0, 3, 4), Item::value(1, 1)]
                .into_iter()
                .collect(),
            // ⟨Age: 30..39⟩ and ⟨NumCars: 2⟩
            vec![Item::range(0, 3, 4), Item::value(2, 2)]
                .into_iter()
                .collect(),
            // ⟨Married: Yes⟩ and ⟨NumCars: 2⟩ — purely categorical + quant
            vec![Item::value(1, 1), Item::value(2, 2)]
                .into_iter()
                .collect(),
            // ⟨Age: 20..29⟩ (codes 0..2) and ⟨NumCars: 0..1⟩
            vec![Item::range(0, 0, 2), Item::range(2, 0, 1)]
                .into_iter()
                .collect(),
            // Purely categorical singleton group: ⟨Married: No⟩ + ⟨Age: any⟩?
            // keep a 2-itemset with married only + age full range
            vec![Item::value(1, 0), Item::range(0, 0, 4)]
                .into_iter()
                .collect(),
        ]
    }

    /// An uncancellable scan of `cands` on `threads` shards.
    fn count(enc: &EncodedTable, cands: &[Itemset], threads: usize) -> (Vec<u64>, PassStats) {
        count_candidates(enc, cands, ScanOptions::new(threads)).unwrap()
    }

    /// The default pass builds no hash tree and no R*-tree: it counts
    /// every plan with range dimensions as cells and the purely
    /// categorical one with masks, and its memory figure is the tallies
    /// and cells it allocates per shard.
    #[test]
    fn default_pass_reports_cells_and_no_trees() {
        let (enc, cands) = mixed_wide();
        let (_, _, cells) = build_plans(&enc, &cands);
        for threads in [1, 4] {
            let opts = ScanOptions::new(threads);
            let (_, stats) = count_candidates(&enc, &cands, opts).unwrap();
            assert_eq!(stats.kernel, "cells+bitmask");
            assert_eq!(stats.array_backed, stats.super_candidates - 1);
            assert_eq!(stats.rtree_backed, 0);
            assert_eq!(stats.hash_tree_nodes, 0);
            // A tally per plan, the categorical plan's member, the cells.
            let tallies = stats.super_candidates + 1 + cells;
            assert_eq!(stats.counter_bytes, tallies * 8 * threads);
        }
    }

    #[test]
    fn empty_candidate_list() {
        let enc = people();
        let (counts, stats) = count(&enc, &[], 1);
        assert!(counts.is_empty());
        assert_eq!(stats.super_candidates, 0);
    }

    #[test]
    fn shard_bounds_cover_rows_contiguously() {
        for (rows, threads) in [
            (0usize, 1usize),
            (0, 4),
            (1, 4),
            (3, 4),
            (4, 4),
            (5, 4),
            (100, 7),
            (100, 1),
        ] {
            let bounds = shard_bounds(rows, threads);
            assert!(!bounds.is_empty(), "{rows} rows / {threads} threads");
            assert!(bounds.len() <= threads.max(1));
            assert_eq!(bounds.first().unwrap().start, 0);
            assert_eq!(bounds.last().unwrap().end, rows);
            for w in bounds.windows(2) {
                assert_eq!(w[0].end, w[1].start, "contiguous");
                assert!(!w[0].is_empty(), "non-empty shards when rows > 0");
            }
            // Near-equal: sizes differ by at most one.
            let sizes: Vec<usize> = bounds.iter().map(|r| r.len()).collect();
            let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            assert!(max - min <= 1, "sizes {sizes:?}");
        }
    }

    #[test]
    fn one_row_shards() {
        // rows == threads: every shard scans exactly one row.
        let enc = people();
        let cands = candidates();
        let (serial, _) = count(&enc, &cands, 1);
        let (sharded, stats) = count(&enc, &cands, 5);
        assert_eq!(sharded, serial);
        assert_eq!(stats.num_shards(), 5);
    }

    #[test]
    fn more_threads_than_rows() {
        let schema = Schema::builder().quantitative("x").build().unwrap();
        let mut t = Table::new(schema);
        t.push_row(&[Value::Int(1)]).unwrap();
        t.push_row(&[Value::Int(2)]).unwrap();
        let enc = EncodedTable::encode_full_resolution(&t).unwrap();
        let cands: Vec<Itemset> = vec![vec![Item::range(0, 0, 1)].into_iter().collect()];
        let (counts, stats) = count(&enc, &cands, 16);
        assert_eq!(counts, vec![2]);
        assert_eq!(stats.num_shards(), 2, "clamped to one row per shard");
    }

    #[test]
    fn empty_table_zero_counts_any_threads() {
        // An empty table has zero-cardinality code domains, so no valid
        // quantitative rectangle exists; categorical candidates exercise
        // the zero-row scan path.
        let schema = Schema::builder()
            .quantitative("x")
            .categorical("c")
            .build()
            .unwrap();
        let t = Table::new(schema);
        let enc = EncodedTable::encode_full_resolution(&t).unwrap();
        let cands: Vec<Itemset> = vec![vec![Item::value(1, 0)].into_iter().collect()];
        for threads in [1, 4] {
            let (counts, stats) = count(&enc, &cands, threads);
            assert_eq!(counts, vec![0], "threads={threads}");
            assert_eq!(stats.num_shards(), 1, "empty table collapses to one shard");
        }
    }

    /// A wide mixed table exercising the bitmask kernel's edge geometry:
    /// multiple blocks plus a partial tail block, degenerate `lo == hi`
    /// rectangles, boundary-hugging codes, purely categorical plans,
    /// purely quantitative plans, and a sorted column whose narrow
    /// per-block ranges make the pre-screen actually skip work.
    fn mixed_wide() -> (EncodedTable, Vec<Itemset>) {
        let schema = Schema::builder()
            .categorical("c0")
            .quantitative("q0")
            .quantitative("q1")
            .build()
            .unwrap();
        let mut t = Table::new(schema);
        for i in 0..2500i64 {
            // q0 is sorted (0..=96): later blocks sit in narrow value
            // ranges, so low rectangles pre-screen whole blocks away.
            t.push_row(&[
                Value::from(["a", "b", "c", "d", "e", "f", "g"][(i % 7) as usize]),
                Value::Int(i / 26),
                Value::Int((i * 31) % 53),
            ])
            .unwrap();
        }
        let enc = EncodedTable::encode_full_resolution(&t).unwrap();
        let mut cands: Vec<Itemset> = Vec::new();
        for c in 0..7u32 {
            // Categorical + degenerate one-code rectangle (lo == hi).
            cands.push(
                vec![Item::value(0, c), Item::range(1, 0, 0)]
                    .into_iter()
                    .collect(),
            );
            // Categorical + low range that later (sorted) blocks miss.
            cands.push(
                vec![Item::value(0, c), Item::range(1, 0, 3)]
                    .into_iter()
                    .collect(),
            );
            // Categorical + full-range + second dimension.
            cands.push(
                vec![
                    Item::value(0, c),
                    Item::range(1, 0, 96),
                    Item::range(2, 10, 40),
                ]
                .into_iter()
                .collect(),
            );
        }
        // Purely quantitative plans, including both domain boundaries.
        cands.push(vec![Item::range(1, 96, 96)].into_iter().collect());
        cands.push(
            vec![Item::range(1, 90, 96), Item::range(2, 0, 52)]
                .into_iter()
                .collect(),
        );
        cands.push(
            vec![Item::range(1, 0, 96), Item::range(2, 52, 52)]
                .into_iter()
                .collect(),
        );
        // Purely categorical plan.
        cands.push(vec![Item::value(0, 6)].into_iter().collect());
        (enc, cands)
    }

    /// A table of the given code columns: quantitative attributes over
    /// `0..card` values, categorical ones over `card` sorted labels.
    fn coded_table(attrs: &[(bool, u32)], columns: Vec<Vec<u32>>, rows: usize) -> EncodedTable {
        let mut builder = Schema::builder();
        let mut encoders = Vec::new();
        for (i, &(quant, card)) in attrs.iter().enumerate() {
            if quant {
                builder = builder.quantitative(format!("q{i}"));
                let values: Vec<f64> = (0..card).map(f64::from).collect();
                encoders.push(qar_table::AttributeEncoder::quant_values_from(
                    &qar_table::QuantHistogram::from_values(&values),
                ));
            } else {
                builder = builder.categorical(format!("c{i}"));
                encoders.push(qar_table::AttributeEncoder::Categorical {
                    labels: (0..card).map(|c| format!("v{c:03}")).collect(),
                });
            }
        }
        EncodedTable::from_parts(builder.build().unwrap(), encoders, columns, rows)
    }

    /// Rows `rows` of `table` as a table of their own.
    fn slice_rows(table: &EncodedTable, rows: Range<usize>) -> EncodedTable {
        let columns = table
            .schema()
            .iter()
            .map(|(id, _)| table.codes(id)[rows.clone()].to_vec())
            .collect();
        EncodedTable::from_parts(
            table.schema().clone(),
            table.encoders().to_vec(),
            columns,
            rows.len(),
        )
    }

    /// A table of `rows` rows over attributes `(quantitative, card)`,
    /// its codes drawn from `code(row, attribute)`.
    fn table_of(
        attrs: &[(bool, u32)],
        rows: usize,
        code: impl Fn(usize, usize) -> u32,
    ) -> EncodedTable {
        let columns = (0..attrs.len())
            .map(|a| (0..rows).map(|r| code(r, a) % attrs[a].1).collect())
            .collect();
        coded_table(attrs, columns, rows)
    }

    /// A cells plan's slots are its members' distinct breakpoints per
    /// dimension; its cells are their product plus the sink.
    #[test]
    fn cells_plan_slots_cut_at_member_breakpoints() {
        let enc = table_of(&[(true, 20), (true, 12), (true, 6)], 30, |r, a| {
            (r + a) as u32
        });
        let cands: Vec<Itemset> = [(3, 5, 2, 4, 1, 2), (9, 9, 7, 9, 3, 3), (4, 10, 3, 3, 1, 4)]
            .iter()
            .map(|&(alo, ahi, blo, bhi, clo, chi)| {
                Itemset::new(vec![
                    Item::range(0, alo, ahi),
                    Item::range(1, blo, bhi),
                    Item::range(2, clo, chi),
                ])
            })
            .collect();
        let (plans, _, cells) = build_plans(&enc, &cands);
        let cell_plan = plans[0].cells.as_ref().unwrap();
        // Breakpoints {3, 4, 6, 9, 10, 11} × {2, 3, 4, 5, 7, 10} × {1, 3, 4, 5}.
        assert_eq!(cell_plan.slots, [6, 6, 4]);
        assert_eq!(cells, 6 * 6 * 4 + 1);
    }

    /// A fired token stops a cells scan: the pass returns
    /// [`ScanCancelled`], serial or sharded.
    #[test]
    fn cancelled_cells_scan_is_reported() {
        let enc = table_of(&[(true, 9), (true, 7)], 3000, |r, a| (r * (2 + a)) as u32);
        let cands = vec![Itemset::new(vec![
            Item::range(0, 1, 5),
            Item::range(1, 0, 3),
        ])];
        let token = CancelToken::new();
        token.cancel();
        for threads in [1, 2] {
            let opts = ScanOptions {
                cancel: Some(&token),
                ..ScanOptions::new(threads)
            };
            assert_eq!(
                count_candidates(&enc, &cands, opts).err(),
                Some(ScanCancelled)
            );
        }
        assert_eq!(count(&enc, &cands, 1).1.kernel, "cells");
    }

    /// Folding scans joins kernel names part by part, never repeating
    /// one; `absorb` adds the plans, `absorb_rows` only the times.
    #[test]
    fn absorbed_stats_join_kernels_without_duplicates() {
        let scan = |kernel: &str, plans: usize| PassStats {
            kernel: kernel.to_string(),
            super_candidates: plans,
            shard_scan_times: vec![Duration::from_micros(5); 2],
            ..PassStats::default()
        };
        let mut pass = scan("cells", 3);
        for other in ["cells+bitmask", "cells+bitmask", "bitmask", "cells", ""] {
            pass.absorb(&scan(other, 1));
        }
        assert_eq!(pass.kernel, "cells+bitmask");
        assert_eq!(pass.super_candidates, 8);
        let mut pass = scan("bitmask", 2);
        pass.absorb_rows(&scan("cells+bitmask", 2));
        pass.absorb_rows(&scan("direct", 2));
        assert_eq!(pass.kernel, "bitmask+cells+direct");
        assert_eq!(pass.super_candidates, 2);
        assert_eq!(pass.shard_scan_times, vec![Duration::from_micros(15); 2]);
        let mut empty = PassStats::default();
        empty.absorb(&scan("cells+bitmask", 1));
        assert_eq!(empty.kernel, "cells+bitmask");
    }

    #[test]
    fn pair_histograms_merge_across_partitions_and_shards() {
        let (enc, _) = mixed_wide();
        let pairs = vec![(0, 1), (0, 2), (1, 2)];
        let mut whole = PairHistograms::new(&enc, pairs.clone());
        whole.scan(&enc, ScanOptions::new(1)).unwrap();
        for threads in [2, 3, 8] {
            let mut sharded = PairHistograms::new(&enc, pairs.clone());
            let stats = sharded.scan(&enc, ScanOptions::new(threads)).unwrap();
            assert_eq!(sharded, whole, "threads={threads}");
            assert!(stats.pooled);
            assert_eq!(stats.shard_scan_times.len(), threads);
        }
        for cut in [0, 1, 1023, 1024, 1025, 2500] {
            let mut left = PairHistograms::new(&enc, pairs.clone());
            left.scan(&slice_rows(&enc, 0..cut), ScanOptions::new(1))
                .unwrap();
            let mut right = PairHistograms::new(&enc, pairs.clone());
            right
                .scan(&slice_rows(&enc, cut..2500), ScanOptions::new(2))
                .unwrap();
            left.merge(&right);
            assert_eq!(left, whole, "cut={cut}");
        }
    }

    /// A window of cells — inside one pair, across pair boundaries,
    /// empty, or past the layout's end — scans to exactly that slice of
    /// the whole histograms, sharded or not, and merges back into them.
    #[test]
    fn pair_histogram_windows_scan_their_slice() {
        let (enc, _) = mixed_wide();
        let pairs = vec![(0, 1), (0, 2), (1, 2)];
        let mut whole = PairHistograms::new(&enc, pairs.clone());
        whole.scan(&enc, ScanOptions::new(1)).unwrap();
        let total = whole.cells().len();
        let mut rebuilt = PairHistograms::new(&enc, pairs.clone());
        for window in [0..1, 1..7, 5..total - 3, total - 3..total + 9, 4..4] {
            for threads in [1, 3] {
                let mut part = PairHistograms::window(&enc, pairs.clone(), window.clone());
                let range = part.window_range();
                assert_eq!(range.start, window.start);
                assert_eq!(range.end, window.end.min(total));
                part.scan(&enc, ScanOptions::new(threads)).unwrap();
                assert_eq!(part.cells(), &whole.cells()[range], "{window:?}, {threads}");
            }
        }
        for start in (0..total).step_by(7) {
            let mut part = PairHistograms::window(&enc, pairs.clone(), start..start + 7);
            part.scan(&slice_rows(&enc, 0..900), ScanOptions::new(2))
                .unwrap();
            part.scan(&slice_rows(&enc, 900..2500), ScanOptions::new(1))
                .unwrap();
            rebuilt.merge_cells_at(start, part.cells());
        }
        assert_eq!(rebuilt, whole);
    }

    #[test]
    fn cancelled_pair_scan_is_reported() {
        let (enc, _) = mixed_wide();
        let token = CancelToken::new();
        token.cancel();
        let opts = ScanOptions {
            cancel: Some(&token),
            ..ScanOptions::new(2)
        };
        let mut hist = PairHistograms::new(&enc, vec![(0, 1)]);
        assert_eq!(hist.scan(&enc, opts), Err(ScanCancelled));
    }

    #[test]
    fn cell_groups_respect_the_budget() {
        assert!(cell_groups(&[], 10).is_empty());
        assert_eq!(cell_groups(&[4, 4, 4], 8), vec![0..2, 2..3]);
        assert_eq!(cell_groups(&[20, 1, 1], 8), vec![0..1, 1..3]);
        assert_eq!(cell_groups(&[0, 0], 0), vec![0..2]);
    }
}

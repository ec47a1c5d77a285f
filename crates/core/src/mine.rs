//! The level-wise mining loop (Step 3, second half; Section 5).

use crate::candidate::{generate_candidates, interest_prune_level1};
use crate::config::{CancelledInfo, InterestMode, MinerConfig, MinerError};
use crate::frequent::{find_frequent_items, QuantFrequentItemsets};
use crate::pool::WorkerPool;
use crate::supercand::{
    count_candidates_opts, count_pairs_opts, PassStats, ScanCancelled, ScanOptions,
    PAIR_CELL_BUDGET,
};
use qar_itemset::{CounterKind, Itemset};
use qar_table::{AttributeKind, EncodedTable};
use qar_trace::{event::micros, CancelToken, ProgressSink, TraceEvent};

/// Per-pass numbers collected while mining.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MineStats {
    /// `candidates[k-2]` — |C_k| before counting, for k ≥ 2.
    pub candidates_per_pass: Vec<usize>,
    /// Super-candidate statistics per pass, aligned with
    /// `candidates_per_pass`.
    pub pass_stats: Vec<PassStats>,
    /// Frequent items removed by the Lemma 5 interest prune.
    pub interest_pruned_items: usize,
    /// Record-scan time of pass 1 (per-attribute value counting).
    pub pass1_scan_time: std::time::Duration,
    /// Worker threads the counting passes were allowed to use (the
    /// resolved [`MinerConfig::effective_parallelism`]; actual shard
    /// counts per pass are in [`PassStats::shard_scan_times`]).
    pub parallelism: usize,
}

impl MineStats {
    /// Total record-scan time across all passes — the component of the
    /// runtime the paper's Section 6 cost model says is "directly
    /// proportional to the number of records".
    pub fn total_scan_time(&self) -> std::time::Duration {
        self.pass1_scan_time
            + self
                .pass_stats
                .iter()
                .map(|p| p.scan_time)
                .sum::<std::time::Duration>()
    }
}

/// The observability context a mining run carries: an optional event sink
/// and an optional cancellation token. Built by the [`crate::Miner`]
/// facade; the deprecated free functions run with [`RunCtx::none`].
#[derive(Clone, Copy, Default)]
pub(crate) struct RunCtx<'a> {
    /// Receives one [`TraceEvent`] per pipeline milestone.
    pub sink: Option<&'a dyn ProgressSink>,
    /// Checked at pass boundaries and inside shard scans.
    pub cancel: Option<&'a CancelToken>,
    /// Runs the shard tasks of every counting pass. `None` falls back to
    /// the process-wide [`WorkerPool::global`].
    pub pool: Option<&'a WorkerPool>,
}

impl<'a> RunCtx<'a> {
    /// No observers, no cancellation — the legacy behavior.
    pub fn none() -> Self {
        RunCtx::default()
    }

    /// Emit an event if a sink is attached (the closure keeps event
    /// construction off the unobserved path).
    pub(crate) fn emit(&self, make: impl FnOnce() -> TraceEvent) {
        if let Some(sink) = self.sink {
            sink.on_event(&make());
        }
    }

    pub(crate) fn is_cancelled(&self) -> bool {
        self.cancel.is_some_and(CancelToken::is_cancelled)
    }

    /// Emit the `cancelled` event and build the [`MinerError::Cancelled`]
    /// carrying the completed passes' statistics.
    pub(crate) fn cancelled(&self, pass: usize, stats: MineStats) -> MinerError {
        let deadline = self.cancel.is_some_and(CancelToken::deadline_exceeded);
        self.emit(|| TraceEvent::Cancelled { pass, deadline });
        MinerError::Cancelled(CancelledInfo {
            pass,
            deadline_exceeded: deadline,
            stats,
        })
    }
}

/// A [`TraceEvent::PassFinished`] for a counting pass `k ≥ 2`.
pub(crate) fn pass_finished_event(
    pass: usize,
    candidates: usize,
    frequent: usize,
    stats: &PassStats,
) -> TraceEvent {
    TraceEvent::PassFinished {
        pass,
        candidates,
        frequent,
        pruned: 0,
        super_candidates: stats.super_candidates,
        array_backed: stats.array_backed,
        rtree_backed: stats.rtree_backed,
        hash_tree_nodes: stats.hash_tree_nodes,
        counter_bytes: stats.counter_bytes,
        scan_us: micros(stats.scan_time),
        merge_us: micros(stats.merge_time),
        shard_scan_us: stats.shard_scan_times.iter().map(|&d| micros(d)).collect(),
        pooled: stats.pooled,
        memoized: stats.memoized,
        distinct_tuples: stats.distinct_tuples,
        memo_hits: stats.memo_hits,
        kernel: stats.kernel.clone(),
    }
}

/// Mine all frequent itemsets of an already-encoded table.
///
/// `force_counter` pins the quantitative counting backend for ablations.
#[deprecated(
    since = "0.1.0",
    note = "use the `Miner` facade: `Miner::new(config).mine_encoded(&table)` \
            (or `.with_counter(..)` for the backend pin)"
)]
pub fn mine_encoded(
    table: &EncodedTable,
    config: &MinerConfig,
    force_counter: Option<CounterKind>,
) -> Result<(QuantFrequentItemsets, MineStats), MinerError> {
    mine_encoded_ctx(table, config, force_counter, RunCtx::none())
}

/// [`mine_encoded`] with an observability context: every pass emits trace
/// events into `ctx.sink`, and `ctx.cancel` aborts the run cooperatively
/// (pass boundaries plus periodic checks inside every shard scan),
/// returning the completed passes' statistics in
/// [`MinerError::Cancelled`].
pub(crate) fn mine_encoded_ctx(
    table: &EncodedTable,
    config: &MinerConfig,
    force_counter: Option<CounterKind>,
    ctx: RunCtx<'_>,
) -> Result<(QuantFrequentItemsets, MineStats), MinerError> {
    config.validate()?;
    let num_rows = table.num_rows() as u64;
    if num_rows == 0 {
        return Err(MinerError::Schema(qar_table::TableError::EmptyTable));
    }
    let min_count = ((config.min_support * num_rows as f64).ceil() as u64).max(1);
    let max_count = (config.max_support * num_rows as f64).floor() as u64;

    let mut frequent = QuantFrequentItemsets::new(num_rows);
    let mut stats = MineStats::default();
    let num_threads = config.effective_parallelism();
    stats.parallelism = num_threads;
    let scan_opts = ScanOptions {
        cancel: ctx.cancel,
        pool: ctx.pool,
        kernel: config.kernel,
        ..ScanOptions::new(num_threads)
    };

    let run_started = std::time::Instant::now();
    ctx.emit(|| TraceEvent::RunStarted {
        rows: num_rows,
        attributes: table.schema().len(),
        min_count,
        max_count,
        parallelism: num_threads,
    });
    if ctx.is_cancelled() {
        return Err(ctx.cancelled(1, stats));
    }

    // Pass 1: frequent items.
    ctx.emit(|| TraceEvent::PassStarted {
        pass: 1,
        candidates: 0,
    });
    let pass1_started = std::time::Instant::now();
    let items = find_frequent_items(table, min_count, max_count);
    stats.pass1_scan_time = pass1_started.elapsed();
    let mut level1: Vec<(Itemset, u64)> = items
        .items
        .iter()
        .map(|&(item, count)| (Itemset::singleton(item), count))
        .collect();

    // Lemma 5 interest prune (only sound when the user wants support AND
    // confidence above expectation).
    if let Some(interest) = &config.interest {
        if interest.prune_candidates && interest.mode == InterestMode::SupportAndConfidence {
            let before = level1.len();
            // Build a transient store so the prune can see fractions.
            let mut probe = QuantFrequentItemsets::new(num_rows);
            probe.push_level(level1.clone());
            let schema = table.schema();
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
        distinct_tuples: 0,
        memo_hits: 0,
        // Pass 1 is a plain per-attribute value count — no hash tree, no
        // cache, no masks — which is the direct kernel's shape.
        kernel: "direct".to_string(),
    });
    if level1.is_empty() {
        ctx.emit(|| TraceEvent::RunFinished {
            passes: 1,
            frequent_total: 0,
            elapsed_us: micros(run_started.elapsed()),
        });
        return Ok((frequent, stats));
    }
    frequent.push_level(level1);

    // Passes k >= 2.
    loop {
        let k = frequent.levels.len() + 1;
        if config.max_itemset_size != 0 && k > config.max_itemset_size {
            break;
        }
        if ctx.is_cancelled() {
            return Err(ctx.cancelled(k, stats));
        }
        let prev = frequent.levels.last().expect("level 1 pushed");
        let level: Vec<(Itemset, u64)> = if k == 2 && force_counter.is_none() {
            // C_2 is the cross product of frequent items over distinct
            // attribute pairs — count it implicitly (one 2-D array per
            // attribute pair) instead of materializing millions of pairs.
            let mut items_by_attr: std::collections::BTreeMap<u32, Vec<(qar_itemset::Item, u64)>> =
                std::collections::BTreeMap::new();
            let mut c2_size = 0usize;
            for (itemset, count) in prev {
                items_by_attr
                    .entry(itemset.items()[0].attr)
                    .or_default()
                    .push((itemset.items()[0], *count));
            }
            let sizes: Vec<usize> = items_by_attr.values().map(|v| v.len()).collect();
            for i in 0..sizes.len() {
                for j in (i + 1)..sizes.len() {
                    c2_size += sizes[i] * sizes[j];
                }
            }
            stats.candidates_per_pass.push(c2_size);
            ctx.emit(|| TraceEvent::PassStarted {
                pass: k,
                candidates: c2_size,
            });
            let (level, pass) = match count_pairs_opts(
                table,
                &items_by_attr,
                min_count,
                PAIR_CELL_BUDGET,
                scan_opts,
            ) {
                Ok(result) => result,
                Err(ScanCancelled) => return Err(ctx.cancelled(k, stats)),
            };
            ctx.emit(|| pass_finished_event(k, c2_size, level.len(), &pass));
            stats.pass_stats.push(pass);
            level
        } else {
            let candidates = generate_candidates(prev);
            if candidates.is_empty() {
                break;
            }
            stats.candidates_per_pass.push(candidates.len());
            ctx.emit(|| TraceEvent::PassStarted {
                pass: k,
                candidates: candidates.len(),
            });
            let (counts, pass) =
                match count_candidates_opts(table, &candidates, force_counter, scan_opts) {
                    Ok(result) => result,
                    Err(ScanCancelled) => return Err(ctx.cancelled(k, stats)),
                };
            let level: Vec<(Itemset, u64)> = candidates
                .into_iter()
                .zip(counts)
                .filter(|(_, c)| *c >= min_count)
                .collect();
            ctx.emit(|| {
                pass_finished_event(k, stats.candidates_per_pass[k - 2], level.len(), &pass)
            });
            stats.pass_stats.push(pass);
            level
        };
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
    Ok((frequent, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PartitionSpec;
    use qar_itemset::Item;
    use qar_table::{AttributeEncoder, AttributeId, Schema, Table, Value};

    fn mine(
        table: &EncodedTable,
        config: &MinerConfig,
        force: Option<CounterKind>,
    ) -> Result<(QuantFrequentItemsets, MineStats), MinerError> {
        mine_encoded_ctx(table, config, force, RunCtx::none())
    }

    /// Figure 3's People table with the Figure 3(b) Age partitioning.
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
        let ages = t.column(AttributeId(0)).as_quantitative().unwrap().to_vec();
        let cars = t.column(AttributeId(2)).as_quantitative().unwrap().to_vec();
        let encoders = vec![
            AttributeEncoder::quant_intervals_from(&ages, vec![25.0, 30.0, 35.0], true),
            AttributeEncoder::categorical_from(t.column(AttributeId(1)).as_categorical().unwrap()),
            AttributeEncoder::quant_values_from(&cars, true),
        ];
        EncodedTable::encode(&t, encoders).unwrap()
    }

    fn fig3_config() -> MinerConfig {
        MinerConfig {
            min_support: 0.4,
            min_confidence: 0.5,
            max_support: 1.0,
            partitioning: PartitionSpec::None, // already encoded
            partition_strategy: Default::default(),
            taxonomies: Default::default(),
            interest: None,
            max_itemset_size: 0,
            parallelism: None,
            kernel: Default::default(),
        }
    }

    #[test]
    fn figure_3f_frequent_itemsets() {
        let enc = people_fig3();
        let (frequent, _) = mine(&enc, &fig3_config(), None).unwrap();
        // The paper's sample (Figure 3f):
        // {⟨Age: 30..39⟩} support 2, {⟨Age: 20..29⟩} support 3,
        // {⟨Married: Yes⟩} 3, {⟨Married: No⟩} 2, {⟨NumCars: 0..1⟩} 3,
        // {⟨Age: 30..39⟩, ⟨Married: Yes⟩} 2.
        let sup = |items: Vec<Item>| frequent.support_of(&Itemset::new(items));
        assert_eq!(sup(vec![Item::range(0, 2, 3)]), Some(2)); // Age 30..39
        assert_eq!(sup(vec![Item::range(0, 0, 1)]), Some(3)); // Age 20..29
        assert_eq!(sup(vec![Item::value(1, 1)]), Some(3)); // Married Yes
        assert_eq!(sup(vec![Item::value(1, 0)]), Some(2)); // Married No
        assert_eq!(sup(vec![Item::range(2, 0, 1)]), Some(3)); // NumCars 0..1
        assert_eq!(sup(vec![Item::range(0, 2, 3), Item::value(1, 1)]), Some(2));
        // The headline rule's 3-itemset:
        // {⟨Age: 30..39⟩, ⟨Married: Yes⟩, ⟨NumCars: 2⟩} support 2.
        assert_eq!(
            sup(vec![
                Item::range(0, 2, 3),
                Item::value(1, 1),
                Item::value(2, 2)
            ]),
            Some(2)
        );
    }

    #[test]
    fn all_reported_supports_are_exact() {
        let enc = people_fig3();
        let (frequent, _) = mine(&enc, &fig3_config(), None).unwrap();
        for (itemset, count) in frequent.iter() {
            let recount =
                crate::supercand::count_candidates_naive(&enc, std::slice::from_ref(itemset))[0];
            assert_eq!(*count, recount, "{itemset}");
        }
    }

    #[test]
    fn support_is_anti_monotone_across_levels() {
        let enc = people_fig3();
        let (frequent, _) = mine(&enc, &fig3_config(), None).unwrap();
        for level in frequent.levels.iter().skip(1) {
            for (itemset, count) in level {
                for sub in itemset.subsets_dropping_one() {
                    let sub_count = frequent.support_of(&sub).expect("subset frequent");
                    assert!(sub_count >= *count);
                }
            }
        }
    }

    #[test]
    fn max_itemset_size_caps_levels() {
        let enc = people_fig3();
        let mut cfg = fig3_config();
        cfg.max_itemset_size = 1;
        let (frequent, stats) = mine(&enc, &cfg, None).unwrap();
        assert_eq!(frequent.levels.len(), 1);
        assert!(stats.candidates_per_pass.is_empty());
    }

    #[test]
    fn empty_table_rejected() {
        let schema = Schema::builder().quantitative("x").build().unwrap();
        let t = Table::new(schema);
        let enc = EncodedTable::encode_full_resolution(&t).unwrap();
        assert!(matches!(
            mine(&enc, &fig3_config(), None),
            Err(MinerError::Schema(_))
        ));
    }

    #[test]
    fn interest_prune_reduces_items() {
        // With R = 2 items of support > 50% are pruned: ⟨NumCars: 0..2⟩
        // (the full range, support 5) and friends.
        let enc = people_fig3();
        let mut cfg = fig3_config();
        cfg.interest = Some(crate::config::InterestConfig {
            level: 2.0,
            mode: InterestMode::SupportAndConfidence,
            prune_candidates: true,
        });
        let (pruned, stats) = mine(&enc, &cfg, None).unwrap();
        assert!(stats.interest_pruned_items > 0);
        // ⟨Age: 20..29⟩ has support 3/5 = 0.6 > 0.5 -> pruned.
        assert_eq!(
            pruned.support_of(&Itemset::singleton(Item::range(0, 0, 1))),
            None
        );
        // Categorical ⟨Married: Yes⟩ (0.6) stays.
        assert_eq!(
            pruned.support_of(&Itemset::singleton(Item::value(1, 1))),
            Some(3)
        );
    }

    #[test]
    fn counting_backends_agree_end_to_end() {
        let enc = people_fig3();
        let cfg = fig3_config();
        let (a, _) = mine(&enc, &cfg, Some(CounterKind::Array)).unwrap();
        let (r, _) = mine(&enc, &cfg, Some(CounterKind::RTree)).unwrap();
        assert_eq!(a.total(), r.total());
        for (itemset, count) in a.iter() {
            assert_eq!(r.support_of(itemset), Some(*count));
        }
    }

    #[test]
    fn events_cover_every_pass_and_run_lifecycle() {
        let enc = people_fig3();
        let sink = qar_trace::CollectingSink::new();
        let ctx = RunCtx {
            sink: Some(&sink),
            ..RunCtx::none()
        };
        let (frequent, stats) = mine_encoded_ctx(&enc, &fig3_config(), None, ctx).unwrap();
        let events = sink.events();
        assert_eq!(events[0].name(), "run_started");
        assert_eq!(events.last().unwrap().name(), "run_finished");
        let started = events.iter().filter(|e| e.name() == "pass_started").count();
        let finished = events
            .iter()
            .filter(|e| e.name() == "pass_finished")
            .count();
        // One started/finished pair per counting pass (pass 1 + each k).
        assert_eq!(started, 1 + stats.pass_stats.len());
        assert_eq!(started, finished);
        assert!(frequent.total() > 0);
        // Pass-finished events agree with the returned stats.
        for event in &events {
            if let TraceEvent::PassFinished {
                pass,
                candidates,
                super_candidates,
                ..
            } = event
            {
                if *pass >= 2 {
                    assert_eq!(*candidates, stats.candidates_per_pass[pass - 2]);
                    assert_eq!(
                        *super_candidates,
                        stats.pass_stats[pass - 2].super_candidates
                    );
                }
            }
        }
    }

    #[test]
    fn pre_cancelled_token_stops_before_pass_one() {
        let enc = people_fig3();
        let token = CancelToken::new();
        token.cancel();
        let ctx = RunCtx {
            cancel: Some(&token),
            ..RunCtx::none()
        };
        match mine_encoded_ctx(&enc, &fig3_config(), None, ctx) {
            Err(MinerError::Cancelled(info)) => {
                assert_eq!(info.pass, 1);
                assert!(!info.deadline_exceeded);
                assert!(info.stats.pass_stats.is_empty());
            }
            other => panic!("expected Cancelled, got {other:?}"),
        }
    }

    #[test]
    fn uncancelled_token_changes_nothing() {
        let enc = people_fig3();
        let token = CancelToken::new();
        let ctx = RunCtx {
            cancel: Some(&token),
            ..RunCtx::none()
        };
        let (with_token, _) = mine_encoded_ctx(&enc, &fig3_config(), None, ctx).unwrap();
        let (plain, _) = mine(&enc, &fig3_config(), None).unwrap();
        assert_eq!(with_token.total(), plain.total());
        for (itemset, count) in plain.iter() {
            assert_eq!(with_token.support_of(itemset), Some(*count));
        }
    }
}

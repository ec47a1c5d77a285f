//! [`TimedSource`]: a [`CountSource`] wrapper that timestamps every call
//! the level-wise miner makes into its counting backend.
//!
//! Under `mine_source_captured` (the path `qar mine --store` runs) the
//! miner calls `value_counts` once (pass 1) and `count` once per later
//! pass; everything the miner does between those calls — frequent-item
//! selection, the Lemma 5 prune, candidate generation — is the gap
//! between them. Wrapping the source therefore splits a run into scan
//! and candidate-generation layers from outside the program.

use std::time::Instant;

use qar_core::{CountError, CountSource};
use qar_itemset::Itemset;
use qar_table::EncodedTable;

use crate::sink::count_span_name;
use crate::spans::{SpanId, SpanRecorder};

/// One call into the wrapped source.
#[derive(Debug, Clone, PartialEq)]
pub struct SourceCall {
    /// 1 for `value_counts`, `k` for `count(k, …)`.
    pub pass: usize,
    /// Candidates passed to `count` (0 for pass 1).
    pub candidates: usize,
    /// Call entry.
    pub start: Instant,
    /// Call return.
    pub end: Instant,
}

/// Times each call into `S` and otherwise forwards it unchanged.
pub struct TimedSource<S> {
    inner: S,
    calls: Vec<SourceCall>,
}

impl<S: CountSource> TimedSource<S> {
    /// Wrap `inner`.
    pub fn new(inner: S) -> Self {
        TimedSource {
            inner,
            calls: Vec::new(),
        }
    }

    /// Every call so far, in order.
    pub fn calls(&self) -> &[SourceCall] {
        &self.calls
    }

    /// Record the calls as spans under `parent` for a mining call made
    /// between `call_start` and `call_end`: `core.source.prepare` up to
    /// the first scan, one span per scan (named as in [`count_span_name`]),
    /// `core.candidate.gen` for each gap between scans, and
    /// `core.rules_interest` from the last scan to the return.
    pub fn record_spans(
        &self,
        rec: &mut SpanRecorder,
        parent: SpanId,
        call_start: Instant,
        call_end: Instant,
    ) {
        let mut previous_end = call_start;
        for (i, call) in self.calls.iter().enumerate() {
            let gap = if i == 0 {
                "core.source.prepare"
            } else {
                "core.candidate.gen"
            };
            rec.record(gap, Some(parent), previous_end, call.start);
            rec.record(
                count_span_name(call.pass),
                Some(parent),
                call.start,
                call.end,
            );
            previous_end = call.end;
        }
        rec.record("core.rules_interest", Some(parent), previous_end, call_end);
    }

    fn timed<R>(&mut self, pass: usize, candidates: usize, f: impl FnOnce(&mut S) -> R) -> R {
        let start = Instant::now();
        let result = f(&mut self.inner);
        self.calls.push(SourceCall {
            pass,
            candidates,
            start,
            end: Instant::now(),
        });
        result
    }
}

impl<S: CountSource> CountSource for TimedSource<S> {
    fn meta(&self) -> &EncodedTable {
        self.inner.meta()
    }

    fn num_rows(&self) -> u64 {
        self.inner.num_rows()
    }

    fn value_counts(&mut self) -> Result<Vec<Vec<u64>>, CountError> {
        self.timed(1, 0, |s| s.value_counts())
    }

    fn count(&mut self, pass: usize, candidates: &[Itemset]) -> Result<Vec<u64>, CountError> {
        self.timed(pass, candidates.len(), |s| s.count(pass, candidates))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qar_core::{mine_source_captured, InMemorySource, MinerConfig, PartitionSpec};
    use qar_table::{Schema, Table, Value};

    fn encoded() -> (EncodedTable, MinerConfig) {
        let schema = Schema::builder()
            .quantitative("x")
            .categorical("c")
            .quantitative("y")
            .build()
            .unwrap();
        let mut t = Table::new(schema);
        for i in 0..600i64 {
            t.push_row(&[
                Value::Int(i % 7),
                Value::from(if i % 3 == 0 { "a" } else { "b" }),
                Value::Int((i * 5) % 4),
            ])
            .unwrap();
        }
        let config = MinerConfig {
            min_support: 0.05,
            max_support: 0.6,
            min_confidence: 0.2,
            partitioning: PartitionSpec::None,
            parallelism: std::num::NonZeroUsize::new(1),
            ..MinerConfig::default()
        };
        (EncodedTable::encode_full_resolution(&t).unwrap(), config)
    }

    #[test]
    fn timed_source_counts_match_the_bare_source() {
        let (table, config) = encoded();
        let (bare_out, bare_counts) = mine_source_captured(
            &mut InMemorySource::new(&table, &config),
            &config,
            None,
            None,
        )
        .unwrap();
        let mut timed = TimedSource::new(InMemorySource::new(&table, &config));
        let (timed_out, timed_counts) =
            mine_source_captured(&mut timed, &config, None, None).unwrap();

        assert_eq!(timed_counts, bare_counts);
        assert_eq!(timed_out.frequent.levels, bare_out.frequent.levels);
        assert_eq!(timed_out.rules, bare_out.rules);
        // One value_counts call, then one count call per later pass.
        assert_eq!(timed.calls()[0].pass, 1);
        let counted: Vec<usize> = timed.calls()[1..].iter().map(|c| c.candidates).collect();
        assert_eq!(counted, timed_out.stats.mine.candidates_per_pass);
        assert!(
            timed.calls().len() >= 3,
            "expects passes 1..=3 on this table"
        );
    }

    #[test]
    fn recorded_spans_tile_the_mining_call() {
        let (table, config) = encoded();
        let mut rec = SpanRecorder::new();
        let root = rec.begin("mine");
        let mut timed = TimedSource::new(InMemorySource::new(&table, &config));
        let start = Instant::now();
        mine_source_captured(&mut timed, &config, None, None).unwrap();
        let end = Instant::now();
        timed.record_spans(&mut rec, root, start, end);
        rec.end(root);

        let names = rec.self_times_by_name(Some(root));
        assert_eq!(names["core.frequent.pass1"].1, 1);
        assert_eq!(names["core.supercand.count_pass2"].1, 1);
        assert!(names["core.supercand.count_pass3plus"].1 >= 1);
        assert_eq!(names["core.candidate.gen"].1, timed.calls().len() - 1);
        assert_eq!(names["core.rules_interest"].1, 1);
        let coverage = rec.coverage(root);
        assert!(coverage > 0.5 && coverage <= 1.0 + 1e-9, "{coverage}");
    }
}

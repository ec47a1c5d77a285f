//! The [`Miner`] facade: one configured entry point for the whole
//! pipeline, with progress events, cooperative cancellation, and
//! encoding reuse across repeated runs.

use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::config::{MinerConfig, MinerError};
use crate::counts::{encoding_fingerprint, update_precheck, Lane, SupportCounts};
use crate::frequent::QuantFrequentItemsets;
use crate::mine::{MineStats, RunCtx};
use crate::pipeline::{build_encoders_from_histograms, MiningOutput};
use crate::source::{
    mine_source, mine_source_captured, mine_with_source_ctx, rules_and_interest, CountSource,
    InMemorySource, MergeSource, Step3,
};
use qar_table::{AttributeEncoder, Column, EncodedTable, Schema, Table, TableError, TableRanks};
use qar_trace::{event::micros, CancelToken, ProgressSink, TraceEvent};

/// A configured miner: the builder-style entry point for the pipeline.
///
/// A `Miner`:
///
/// - emits one structured [`qar_trace::TraceEvent`] per pipeline
///   milestone into an attached [`ProgressSink`],
/// - honors a [`CancelToken`] cooperatively (pass boundaries plus
///   periodic checks inside every shard scan), returning partial
///   statistics via [`MinerError::Cancelled`],
/// - caches the partitioned/encoded form of the last table it mined, and
///   the frequent itemsets [`Miner::mine`] last counted on it, so
///   re-mining the same table with only a different confidence or
///   interest level skips Steps 1–3 and runs Steps 4–5 alone
///   ([`crate::MiningStats::frequent_reused`]). An interest change still
///   re-counts while Lemma 5's prune is in effect in either
///   configuration, and so does any other configuration change. The
///   same table or a clone is recognized by [`Table::identity`] without
///   reading a cell; a table built apart is fingerprinted once. A change
///   that re-partitions (K, strategy, taxonomies, minimum support)
///   re-encodes from the cached histograms and value ranks by one lookup
///   per cell, a column per task on the configured threads, and
///   [`crate::MiningStats::encoding_reused`] is false there,
/// - runs Steps 3–5 through the one level-wise driver of
///   [`crate::source`] over an [`InMemorySource`] that carries its
///   thread count, cancellation token and the cached histograms, from
///   which pass 1 sums its counts without reading a row.
///
/// ```
/// use qar_core::{Miner, MinerConfig};
/// use qar_table::{Schema, Table, Value};
///
/// let schema = Schema::builder().quantitative("x").build().unwrap();
/// let mut table = Table::new(schema);
/// for v in [1, 1, 2] {
///     table.push_row(&[Value::Int(v)]).unwrap();
/// }
/// let output = Miner::new(MinerConfig {
///     min_support: 0.5,
///     max_support: 1.0,
///     interest: None,
///     ..MinerConfig::default()
/// })
/// .mine(&table)
/// .unwrap();
/// assert!(output.frequent.total() > 0);
/// ```
pub struct Miner {
    config: MinerConfig,
    sink: Option<Arc<dyn ProgressSink>>,
    cancel: Option<CancelToken>,
    cache: Option<EncodingCache>,
}

/// The memoized Steps 1–2 of the previous [`Miner::mine`] call.
struct EncodingCache {
    /// [`Table::identity`] of the last table seen with these contents:
    /// while it matches, the table is not fingerprinted again.
    identity: u64,
    /// [`table_fingerprint`] of the table the other fields describe.
    fingerprint: (u64, u64),
    /// The table's value histograms and value ranks; they hold under any
    /// configuration.
    ranks: TableRanks,
    /// The encoding under the current partitioning policy; dropped when
    /// the policy changes.
    encoded: Option<Encoding>,
    /// The code columns of the encoding a policy change dropped, when no
    /// output still shares them: the next encoding is written into them.
    spare: Vec<Vec<u32>>,
}

/// One encoding of the cached table, and what was last mined on it.
struct Encoding {
    table: EncodedTable,
    /// The intervals chosen per attribute.
    intervals: Vec<Option<usize>>,
    /// The last Step 3 [`Miner::mine`] ran on `table`, under the
    /// configuration whose [`step3_key`] is kept beside it.
    step3: Option<(MinerConfig, Step3)>,
}

/// What of `config` Step 3 reads: all of it but the minimum confidence
/// and the interest measure, which act only in Steps 4–5 — save for
/// Lemma 5's prune where it is in effect. Two configurations with equal
/// keys count the same frequent itemsets the same way.
fn step3_key(config: &MinerConfig) -> MinerConfig {
    MinerConfig {
        min_confidence: 0.0,
        interest: config.interest.filter(|ic| ic.prunes()),
        ..config.clone()
    }
}

impl std::fmt::Debug for Miner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Miner")
            .field("config", &self.config)
            .field("sink", &self.sink.as_ref().map(|_| "dyn ProgressSink"))
            .field("cancel", &self.cancel)
            .field("cached_encoding", &self.cache.is_some())
            .finish()
    }
}

impl Miner {
    /// A miner with the given configuration and no observers.
    pub fn new(config: MinerConfig) -> Self {
        Miner {
            config,
            sink: None,
            cancel: None,
            cache: None,
        }
    }

    /// Attach a progress sink; every subsequent run reports its trace
    /// events there.
    pub fn with_progress(mut self, sink: Arc<dyn ProgressSink>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Attach a cancellation token; runs abort cooperatively once it
    /// trips (explicitly or by deadline), returning
    /// [`MinerError::Cancelled`] with the completed passes' statistics.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// The configuration this miner runs with.
    pub fn config(&self) -> &MinerConfig {
        &self.config
    }

    /// Replace the configuration. The cached encoding survives only if
    /// the partitioning policy is unchanged (Steps 1–2 depend on it); the
    /// cached histograms always do. The cached frequent itemsets go with
    /// the encoding, and serve the next [`Miner::mine`] only if it
    /// differs from the run that counted them in nothing Step 3 reads.
    pub fn set_config(&mut self, config: MinerConfig) {
        if config.partitioning != self.config.partitioning
            || config.partition_strategy != self.config.partition_strategy
            || config.taxonomies != self.config.taxonomies
            || config.min_support != self.config.min_support
        {
            if let Some(cache) = &mut self.cache {
                if let Some(dropped) = cache.encoded.take() {
                    cache.spare = dropped.table.take_columns().unwrap_or_default();
                }
            }
        }
        self.config = config;
    }

    /// Drop the cached encoding, histograms and frequent itemsets (e.g.
    /// to release memory between runs).
    pub fn clear_cache(&mut self) {
        self.cache = None;
    }

    /// An [`InMemorySource`] over `table` carrying this miner's thread
    /// count and cancellation token.
    fn source<'t>(&self, table: &'t EncodedTable) -> InMemorySource<'t> {
        InMemorySource::new(table, &self.config).with_cancel(self.cancel.as_ref())
    }

    /// Steps 1 + 2: partition and encode `table` into the cache, unless
    /// the cache already holds the encoding of a bit-identical table.
    /// Returns whether the encoding was reused. A cache miss on a
    /// bit-identical table still reuses its histograms and re-encodes
    /// by value rank. The table is fingerprinted only when its
    /// [`Table::identity`] is not the cached one.
    fn encode_cached(&mut self, table: &Table) -> Result<bool, MinerError> {
        self.config.validate()?;
        crate::pipeline::validate_partitioning(table.schema(), &self.config)?;
        if table.is_empty() {
            return Err(MinerError::Schema(TableError::EmptyTable));
        }
        let identity = table.identity();
        if self.cache.as_ref().is_none_or(|c| c.identity != identity) {
            let fingerprint = table_fingerprint(table);
            match &mut self.cache {
                Some(cache) if cache.fingerprint == fingerprint => cache.identity = identity,
                cache => {
                    *cache = Some(EncodingCache {
                        identity,
                        fingerprint,
                        ranks: TableRanks::new(table),
                        encoded: None,
                        spare: Vec::new(),
                    })
                }
            }
        }
        let cache = self.cache.as_mut().expect("cache populated above");
        let reused = cache.encoded.is_some();
        if !reused {
            let (encoders, intervals) = build_encoders_from_histograms(
                table.schema(),
                cache.ranks.histograms(),
                &self.config,
            )?;
            let spare = std::mem::take(&mut cache.spare);
            let threads = self.config.effective_parallelism();
            let encoded = cache.ranks.encode(table, encoders, spare, threads)?;
            cache.encoded = Some(Encoding {
                table: encoded,
                intervals,
                step3: None,
            });
        }
        Ok(reused)
    }

    /// Run the full five-step pipeline over a raw [`Table`].
    ///
    /// Repeated calls on a table with identical contents reuse the
    /// partitioned encoding from the previous call
    /// ([`crate::MiningStats::encoding_reused`] reports which path ran).
    /// A call that changes nothing Step 3 reads since the last one on
    /// that encoding also reuses its frequent itemsets, pass statistics
    /// and pass-1 counts, emits no pass events and runs only Steps 4–5
    /// ([`crate::MiningStats::frequent_reused`]).
    pub fn mine(&mut self, table: &Table) -> Result<MiningOutput, MinerError> {
        let started = Instant::now();
        let encoding_reused = self.encode_cached(table)?;
        let key = step3_key(&self.config);
        let (config, cancel) = (&self.config, self.cancel.as_ref());
        let ctx = RunCtx {
            sink: self.sink.as_deref(),
            cancel,
        };
        let cache = self.cache.as_mut().expect("encode_cached ran");
        let encoding = cache.encoded.as_mut().expect("encode_cached ran");
        let frequent_reused = encoding.step3.as_ref().is_some_and(|(k, _)| *k == key);
        let mut elapsed_mining = Duration::ZERO;
        if !frequent_reused {
            let counting = Instant::now();
            let mut source = InMemorySource::new(&encoding.table, config)
                .with_cancel(cancel)
                .with_histograms(cache.ranks.histograms());
            let step3 = mine_with_source_ctx(&mut source, config, ctx)?;
            elapsed_mining = counting.elapsed();
            encoding.step3 = Some((key, step3));
        }
        let (_, step3) = encoding.step3.as_ref().expect("Step 3 ran or was cached");
        let mut output =
            rules_and_interest(&encoding.table, step3, config, ctx, started, elapsed_mining)?;
        output.stats.intervals_per_attribute = encoding.intervals.clone();
        output.stats.encoding_reused = encoding_reused;
        output.stats.frequent_reused = frequent_reused;
        output.stats.elapsed = started.elapsed();
        Ok(output)
    }

    /// [`Miner::mine`] with count capture: additionally returns the raw
    /// support tallies of every counting pass as a [`SupportCounts`],
    /// ready to persist in a catalog `COUNTS` section so later runs can
    /// update incrementally via [`Miner::update`]. Results are identical
    /// to [`Miner::mine`]'s (statistics agree under
    /// [`crate::MiningStats::normalized`]).
    pub fn mine_with_counts(
        &mut self,
        table: &Table,
    ) -> Result<(MiningOutput, SupportCounts), MinerError> {
        let started = Instant::now();
        let reused = self.encode_cached(table)?;
        let cache = self.cache.as_ref().expect("encode_cached ran");
        let encoding = cache.encoded.as_ref().expect("encode_cached ran");
        let (encoded, intervals) = (&encoding.table, &encoding.intervals);
        let (mut output, captured) = mine_source_captured(
            &mut self
                .source(encoded)
                .with_histograms(cache.ranks.histograms()),
            &self.config,
            self.sink.as_deref(),
            self.cancel.as_ref(),
        )?;
        output.stats.intervals_per_attribute = intervals.clone();
        output.stats.encoding_reused = reused;
        output.stats.elapsed = started.elapsed();
        let counts = SupportCounts::assemble(
            encoded.schema(),
            encoded.encoders(),
            table.num_rows() as u64,
            &self.config,
            intervals.clone(),
            captured,
        );
        Ok((output, counts))
    }

    /// Incrementally refresh a catalog's mining results after `delta`
    /// rows were appended to its table, scanning **only** the delta:
    /// [`Miner::update_source`] over the delta encoded in memory with the
    /// catalog's encoders, with `base_rows` (when given) for the full
    /// re-mine fallback.
    pub fn update(&mut self, input: UpdateInput<'_>) -> Result<UpdateOutput, MinerError> {
        let UpdateInput {
            schema,
            encoders,
            counts,
            delta,
            base_rows,
        } = input;
        if delta.schema() != schema {
            return Err(MinerError::Update(
                "delta schema differs from the catalog schema".to_string(),
            ));
        }
        let encoded = (delta.num_rows() > 0)
            .then(|| EncodedTable::encode(delta, encoders.to_vec()))
            .transpose();
        let mut source = encoded
            .as_ref()
            .ok()
            .and_then(Option::as_ref)
            .map(|enc| self.source(enc));
        let delta_source = match &encoded {
            Ok(_) => Ok(source.as_mut().map(|s| s as &mut dyn CountSource)),
            Err(e) => Err(MinerError::Schema(e.clone())),
        };
        self.update_source(
            schema,
            encoders,
            counts,
            delta_source,
            base_rows.map(|base| (base, delta)),
        )
    }

    /// Refresh the persisted `counts` of a catalog (`schema`, `encoders`)
    /// with appended rows counted by any [`CountSource`] — the one
    /// incremental-update path. [`Miner::update`] hands it an
    /// [`InMemorySource`]; `qar mine --update` the source its topology
    /// builds.
    ///
    /// `delta` is the delta's source (`None` for an empty delta, which
    /// needs no scan) or the error building it raised. The miner's
    /// configuration must semantically match the one the counts were
    /// taken under ([`crate::counts::CountsConfig::check_matches`]);
    /// the performance knob (parallelism) may differ freely.
    ///
    /// The merged counts are exact, so the result — including the new
    /// [`SupportCounts`] — is identical to mining base+delta from
    /// scratch. When the persisted state cannot answer exactly (an
    /// encoding fingerprint mismatch, interval encoders, a delta value
    /// the encoders cannot encode, a support crossing a threshold that
    /// changes a candidate set), the update emits a pinned
    /// `incremental_fallback` trace event with the reason and re-mines
    /// `remine_rows` — the (base, delta) tables — from scratch; without
    /// them it returns [`MinerError::Update`] naming the reason.
    pub fn update_source(
        &mut self,
        schema: &Schema,
        encoders: &[AttributeEncoder],
        counts: &SupportCounts,
        delta: Result<Option<&mut dyn CountSource>, MinerError>,
        remine_rows: Option<(&Table, &Table)>,
    ) -> Result<UpdateOutput, MinerError> {
        self.config.validate()?;
        counts
            .config
            .check_matches(&self.config)
            .map_err(MinerError::Update)?;
        if counts.fingerprint != encoding_fingerprint(schema, encoders) {
            return self.update_fallback(
                "persisted counts were taken under a different encoding fingerprint".to_string(),
                remine_rows,
            );
        }
        // An unseen value means the combined table would be encoded
        // differently — the persisted counts are invalid for it.
        let delta = match delta {
            Ok(delta) => delta,
            Err(MinerError::Schema(e @ TableError::UnencodableValue { .. })) => {
                return self.update_fallback(
                    format!("delta is not encodable under the catalog's encoders ({e})"),
                    remine_rows,
                );
            }
            Err(e) => return Err(e),
        };
        let delta_rows = delta.as_ref().map_or(0, |d| d.num_rows());
        if let Err(reason) = update_precheck(schema, encoders, delta_rows) {
            return self.update_fallback(reason, remine_rows);
        }

        let started = Instant::now();
        let total_rows = counts.num_rows + delta_rows;
        let meta =
            EncodedTable::header_only(schema.clone(), encoders.to_vec(), total_rows as usize);
        let mut merge = MergeSource::new(counts, delta.map(|d| d as &mut dyn CountSource), meta);
        let mined = mine_source_captured(
            &mut merge,
            &self.config,
            self.sink.as_deref(),
            self.cancel.as_ref(),
        );
        let (mut output, captured) = match mined {
            Ok(mined) => mined,
            Err(MinerError::Update(reason)) => return self.update_fallback(reason, remine_rows),
            Err(e) => return Err(e),
        };
        output.stats.intervals_per_attribute = counts.intervals_per_attribute.clone();
        let new_counts = SupportCounts {
            num_rows: total_rows,
            fingerprint: counts.fingerprint,
            config: counts.config.clone(),
            intervals_per_attribute: counts.intervals_per_attribute.clone(),
            captured,
        };
        self.emit(TraceEvent::IncrementalUpdate {
            base_rows: counts.num_rows,
            delta_rows,
            total_rows,
            passes: new_counts.captured.counting_passes() + 1,
            elapsed_us: micros(started.elapsed()),
        });
        Ok(UpdateOutput {
            output,
            counts: new_counts,
            incremental: true,
            fallback: None,
        })
    }

    /// The full re-mine escape hatch of [`Miner::update_source`].
    fn update_fallback(
        &mut self,
        reason: String,
        remine_rows: Option<(&Table, &Table)>,
    ) -> Result<UpdateOutput, MinerError> {
        self.emit(TraceEvent::IncrementalFallback {
            reason: reason.clone(),
        });
        let Some((base, delta)) = remine_rows else {
            return Err(MinerError::Update(format!(
                "{reason}; base rows unavailable for a full re-mine"
            )));
        };
        let mut combined = Table::new(base.schema().clone());
        for rows in [base, delta] {
            for r in 0..rows.num_rows() {
                combined.push_row(&rows.row(r).to_values())?;
            }
        }
        let (output, counts) = self.mine_with_counts(&combined)?;
        Ok(UpdateOutput {
            output,
            counts,
            incremental: false,
            fallback: Some(reason),
        })
    }

    fn emit(&self, event: TraceEvent) {
        if let Some(sink) = &self.sink {
            sink.on_event(&event);
        }
    }

    /// Run Steps 3–5 over an already-encoded table (partitioning was
    /// done by the caller, so
    /// [`crate::MiningStats::intervals_per_attribute`] is empty and
    /// nothing is cached).
    pub fn mine_encoded(&self, table: &EncodedTable) -> Result<MiningOutput, MinerError> {
        mine_source(
            &mut self.source(table),
            &self.config,
            self.sink.as_deref(),
            self.cancel.as_ref(),
        )
    }

    /// Frequent itemsets only (Step 3) over an already-encoded table.
    pub fn frequent_itemsets(
        &self,
        table: &EncodedTable,
    ) -> Result<(QuantFrequentItemsets, MineStats), MinerError> {
        let ctx = RunCtx {
            sink: self.sink.as_deref(),
            cancel: self.cancel.as_ref(),
        };
        let step3 = mine_with_source_ctx(&mut self.source(table), &self.config, ctx)?;
        Ok((Arc::unwrap_or_clone(step3.frequent), step3.stats))
    }
}

/// Everything [`Miner::update`] needs from the existing catalog plus the
/// newly appended rows.
pub struct UpdateInput<'a> {
    /// The catalog's schema.
    pub schema: &'a Schema,
    /// The catalog's per-attribute encoders (what the persisted counts
    /// were encoded under).
    pub encoders: &'a [AttributeEncoder],
    /// The catalog's persisted support counts.
    pub counts: &'a SupportCounts,
    /// The appended rows (may be empty).
    pub delta: &'a Table,
    /// The base table's rows, if still available — enables the full
    /// re-mine fallback when the delta invalidates the counts.
    pub base_rows: Option<&'a Table>,
}

/// What [`Miner::update`] produced.
pub struct UpdateOutput {
    /// The refreshed mining results over base+delta. On the incremental
    /// path `output.encoded` is a decode-only header (rules render, but
    /// there are no code columns to re-scan).
    pub output: MiningOutput,
    /// Refreshed support counts, ready to persist (identical to what a
    /// from-scratch capture mine of base+delta would produce).
    pub counts: SupportCounts,
    /// True when only the delta was scanned.
    pub incremental: bool,
    /// The fallback reason, when a full re-mine was required.
    pub fallback: Option<String>,
}

impl std::fmt::Debug for UpdateOutput {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UpdateOutput")
            .field("rules", &self.output.rules.len())
            .field("num_rows", &self.counts.num_rows)
            .field("incremental", &self.incremental)
            .field("fallback", &self.fallback)
            .finish()
    }
}

/// A 128-bit content fingerprint of a table: schema (names and kinds),
/// row count, and every cell — numbers by their bits, categorical cells by
/// their dictionary code plus the dictionary's labels — mixed through two
/// independently-seeded SplitMix64 lanes. Collisions would silently reuse
/// a stale encoding, so two lanes keep the probability negligible for
/// same-process reuse.
fn table_fingerprint(table: &Table) -> (u64, u64) {
    let mut lanes = [
        Lane::new(0x9e37_79b9_7f4a_7c15),
        Lane::new(0x1234_5678_9abc_def0),
    ];
    let mut absorb = |word: u64| {
        for lane in &mut lanes {
            lane.absorb(word);
        }
    };
    fn absorb_str(s: &str, absorb: &mut impl FnMut(u64)) {
        absorb(s.len() as u64);
        for chunk in s.as_bytes().chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            absorb(u64::from_le_bytes(word));
        }
    }
    absorb(table.num_rows() as u64);
    for (id, def) in table.schema().iter() {
        absorb_str(def.name(), &mut absorb);
        match table.column(id) {
            Column::Quantitative { data, integral } => {
                absorb(1 + u64::from(*integral));
                for v in data {
                    absorb(v.to_bits());
                }
            }
            Column::Categorical(cells) => {
                absorb(3);
                absorb(cells.dictionary().len() as u64);
                for label in cells.dictionary().labels() {
                    absorb_str(label, &mut absorb);
                }
                for &code in cells.codes() {
                    absorb(u64::from(code));
                }
            }
        }
    }
    (lanes[0].finish(), lanes[1].finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{InterestConfig, InterestMode, PartitionSpec};
    use qar_table::{Schema, Value};

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
        ] {
            t.push_row(&[Value::Int(age), Value::from(married), Value::Int(cars)])
                .unwrap();
        }
        t
    }

    fn config() -> MinerConfig {
        MinerConfig {
            min_support: 0.4,
            min_confidence: 0.5,
            max_support: 1.0,
            partitioning: PartitionSpec::None,
            interest: None,
            ..MinerConfig::default()
        }
    }

    /// A second run reuses the encoding and repeats the first exactly,
    /// and every thread count's miner matches the serial one.
    #[test]
    fn second_run_reuses_encoding_and_matches() {
        let table = people_table();
        let mut serial = None;
        for threads in [1, 2, 3] {
            let mut miner = Miner::new(MinerConfig {
                parallelism: std::num::NonZeroUsize::new(threads),
                ..config()
            });
            let first = miner.mine(&table).unwrap();
            assert!(!first.stats.encoding_reused);
            let second = miner.mine(&table).unwrap();
            assert!(second.stats.encoding_reused);
            for out in [&second, serial.as_ref().unwrap_or(&first)] {
                assert_eq!(first.frequent.levels, out.frequent.levels, "{threads}");
                assert_eq!(first.rules, out.rules, "{threads}");
                assert_eq!(
                    first.stats.intervals_per_attribute,
                    out.stats.intervals_per_attribute
                );
            }
            serial.get_or_insert(first);
        }
    }

    #[test]
    fn changed_cell_invalidates_the_cache() {
        let mut miner = Miner::new(config());
        miner.mine(&people_table()).unwrap();
        let mut other = people_table();
        other
            .push_row(&[Value::Int(60), Value::from("Yes"), Value::Int(3)])
            .unwrap();
        let out = miner.mine(&other).unwrap();
        assert!(!out.stats.encoding_reused);
        assert_eq!(out.frequent.num_rows, 6);
    }

    #[test]
    fn set_config_keeps_cache_only_when_encoding_unaffected() {
        let table = people_table();
        let mut miner = Miner::new(config());
        miner.mine(&table).unwrap();

        // Confidence does not affect Steps 1-2: cache survives.
        let mut same_encoding = config();
        same_encoding.min_confidence = 0.9;
        miner.set_config(same_encoding);
        assert!(miner.mine(&table).unwrap().stats.encoding_reused);

        // Partitioning does: cache dropped.
        let mut repartitioned = config();
        repartitioned.partitioning = PartitionSpec::FixedIntervals(2);
        miner.set_config(repartitioned);
        assert!(!miner.mine(&table).unwrap().stats.encoding_reused);
    }

    #[test]
    fn repartitioning_recuts_from_cached_histograms() {
        let table = bigger_table(0..300);
        let mut miner = Miner::new(config());
        miner.mine(&table).unwrap();
        for intervals in [2, 3, 7] {
            let mut repartitioned = config();
            repartitioned.partitioning = PartitionSpec::FixedIntervals(intervals);
            miner.set_config(repartitioned.clone());
            let recut = miner.mine(&table).unwrap();
            assert!(!recut.stats.encoding_reused);
            let fresh = Miner::new(repartitioned).mine(&table).unwrap();
            assert_eq!(recut.rules, fresh.rules, "{intervals} intervals");
            assert_eq!(recut.encoded.encoders(), fresh.encoded.encoders());
            assert_eq!(
                recut.stats.intervals_per_attribute,
                fresh.stats.intervals_per_attribute
            );
        }
        // Another table after a policy change gets its own histograms.
        let mut repartitioned = config();
        repartitioned.partitioning = PartitionSpec::FixedIntervals(4);
        miner.set_config(repartitioned.clone());
        let other = bigger_table(100..250);
        let mined = miner.mine(&other).unwrap();
        let fresh = Miner::new(repartitioned).mine(&other).unwrap();
        assert_eq!(mined.encoded.encoders(), fresh.encoded.encoders());
        assert_eq!(mined.rules, fresh.rules);
    }

    #[test]
    fn fingerprint_sensitive_to_content_and_schema() {
        let base = table_fingerprint(&people_table());
        assert_eq!(base, table_fingerprint(&people_table()));

        let mut more_rows = people_table();
        more_rows
            .push_row(&[Value::Int(23), Value::from("No"), Value::Int(1)])
            .unwrap();
        assert_ne!(base, table_fingerprint(&more_rows));

        let renamed = Schema::builder()
            .quantitative("Age2")
            .categorical("Married")
            .quantitative("NumCars")
            .build()
            .unwrap();
        let mut t = Table::new(renamed);
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
        assert_ne!(base, table_fingerprint(&t));

        // The same labels on other rows, and a changed label.
        let relabel = |labels: [&str; 5]| {
            let mut t = Table::new(people_table().schema().clone());
            for (i, label) in labels.into_iter().enumerate() {
                let age = people_table().row(i).value(0);
                let cars = people_table().row(i).value(2);
                t.push_row(&[age, Value::from(label), cars]).unwrap();
            }
            table_fingerprint(&t)
        };
        assert_eq!(base, relabel(["No", "Yes", "No", "Yes", "Yes"]));
        assert_ne!(base, relabel(["Yes", "No", "No", "Yes", "Yes"]));
        assert_ne!(base, relabel(["No", "Yes", "No", "Yes", "No"]));
        assert_ne!(base, relabel(["No", "Yes", "No", "Yes", "Yea"]));
    }

    #[test]
    fn table_grown_after_a_mine_is_not_reused() {
        let mut table = people_table();
        let mut miner = Miner::new(config());
        miner.mine(&table).unwrap();
        table
            .push_row(&[Value::Int(60), Value::from("Yes"), Value::Int(3)])
            .unwrap();
        let grown = miner.mine(&table).unwrap();
        assert!(!grown.stats.encoding_reused);
        assert_eq!(grown.frequent.num_rows, 6);
        let fresh = Miner::new(config()).mine(&table).unwrap();
        assert_eq!(grown.rules, fresh.rules);
        assert!(miner.mine(&table).unwrap().stats.encoding_reused);
    }

    #[test]
    fn clone_and_bit_identical_table_are_reused() {
        let table = people_table();
        let mut miner = Miner::new(config());
        let first = miner.mine(&table).unwrap();
        let clone = table.clone();
        assert_eq!(clone.identity(), table.identity());
        assert!(miner.mine(&clone).unwrap().stats.encoding_reused);
        // Built apart: another identity, the same fingerprint.
        let rebuilt = people_table();
        assert_ne!(rebuilt.identity(), table.identity());
        let again = miner.mine(&rebuilt).unwrap();
        assert!(again.stats.encoding_reused);
        assert_eq!(again.rules, first.rules);
        // The fingerprint adopted the new identity; the old one still hits.
        assert!(miner.mine(&rebuilt).unwrap().stats.encoding_reused);
        assert!(miner.mine(&table).unwrap().stats.encoding_reused);
    }

    /// Codes re-cut through the cached value ranks equal a fresh
    /// `EncodedTable::encode` column for column, under every strategy and
    /// interval policy, a taxonomy, and `-0.0` cells, on 1, 2 and 3
    /// threads. The table is past the row count below which Steps 1–2
    /// stay on one thread, so the re-cut runs a column per thread.
    #[test]
    fn recut_codes_equal_a_fresh_encode() {
        use crate::config::PartitionStrategy;
        let schema = Schema::builder()
            .quantitative("x")
            .quantitative("y")
            .categorical("c")
            .build()
            .unwrap();
        let mut table = Table::new(schema);
        let labels = ["NY", "SF", "LA", "Boston"];
        for r in 0..33_000usize {
            let x = match r % 7 {
                0 => -0.0,
                1 => 0.0,
                _ => ((r * 37) % 101) as f64 / 4.0 - 10.0,
            };
            let y = ((r * r) % 53) as i64 - 20;
            table
                .push_row(&[Value::Float(x), Value::Int(y), Value::from(labels[r % 4])])
                .unwrap();
        }
        let taxonomy = qar_table::Taxonomy::from_edges(&[
            ("NY", "East"),
            ("Boston", "East"),
            ("SF", "West"),
            ("LA", "West"),
        ])
        .unwrap();
        let base = MinerConfig {
            min_support: 0.1,
            max_support: 0.5,
            max_itemset_size: 2,
            ..config()
        };
        let per_attribute = [("x".to_string(), 5), ("y".to_string(), 3)];
        let policies = [
            (
                PartitionSpec::FixedIntervals(4),
                PartitionStrategy::EquiDepth,
            ),
            (
                PartitionSpec::FixedIntervals(6),
                PartitionStrategy::EquiWidth,
            ),
            (PartitionSpec::FixedIntervals(5), PartitionStrategy::KMeans),
            (
                PartitionSpec::CompletenessLevel(3.0),
                PartitionStrategy::EquiDepth,
            ),
            (
                PartitionSpec::PerAttribute(per_attribute.into_iter().collect()),
                PartitionStrategy::EquiDepth,
            ),
            (PartitionSpec::None, PartitionStrategy::EquiDepth),
        ];
        for threads in 1..=3 {
            let base = MinerConfig {
                parallelism: std::num::NonZeroUsize::new(threads),
                ..base.clone()
            };
            let mut miner = Miner::new(base.clone());
            for (partitioning, partition_strategy) in policies.clone() {
                for taxonomies in [
                    Default::default(),
                    [("c".to_string(), taxonomy.clone())].into(),
                ] {
                    let cfg = MinerConfig {
                        partitioning: partitioning.clone(),
                        partition_strategy,
                        taxonomies,
                        ..base.clone()
                    };
                    miner.set_config(cfg.clone());
                    let recut = miner.mine(&table).unwrap();
                    let (encoders, _) = crate::pipeline::build_encoders(&table, &cfg).unwrap();
                    let fresh = EncodedTable::encode(&table, encoders).unwrap();
                    let at = format!("{threads} threads, {cfg:?}");
                    assert_eq!(recut.encoded.encoders(), fresh.encoders(), "{at}");
                    for (id, _) in table.schema().iter() {
                        assert_eq!(recut.encoded.codes(id), fresh.codes(id), "{at} {id:?}");
                    }
                }
            }
        }
    }

    /// A re-cut writes its codes into the columns of the encoding it
    /// replaces once no output shares them; an output still holding the
    /// old encoding keeps its codes, and the re-cut gets columns of its
    /// own.
    #[test]
    fn recut_reuses_the_replaced_columns_unless_shared() {
        let table = ladder_table(0..400);
        let cut = |k| ladder_with(|c| c.partitioning = PartitionSpec::CompletenessLevel(k));
        let x = qar_table::AttributeId(0);
        let mut miner = Miner::new(cut(3.0));
        let replaced = miner.mine(&table).unwrap().encoded.codes(x).as_ptr();
        miner.set_config(cut(1.5));
        let kept = miner.mine(&table).unwrap();
        assert_eq!(kept.encoded.codes(x).as_ptr(), replaced);
        let kept_codes = kept.encoded.codes(x).to_vec();
        miner.set_config(cut(3.0));
        let recut = miner.mine(&table).unwrap();
        assert_ne!(
            recut.encoded.codes(x).as_ptr(),
            kept.encoded.codes(x).as_ptr()
        );
        assert_eq!(kept.encoded.codes(x), kept_codes);
        let (encoders, _) = crate::pipeline::build_encoders(&table, &cut(3.0)).unwrap();
        let fresh = EncodedTable::encode(&table, encoders).unwrap();
        for (id, _) in table.schema().iter() {
            assert_eq!(recut.encoded.codes(id), fresh.codes(id), "{id:?}");
        }
        assert_fresh(&recut, &table, &cut(3.0), "re-cut beside a kept output");
    }

    fn bigger_table(rows: std::ops::Range<usize>) -> Table {
        // Small integer domains so full-resolution encoders are
        // append-stable (every delta value already occurs in the base).
        let schema = Schema::builder()
            .quantitative("x")
            .quantitative("y")
            .categorical("c")
            .build()
            .unwrap();
        let mut t = Table::new(schema);
        for r in rows {
            t.push_row(&[
                Value::Int((r % 5) as i64),
                Value::Int(((r * 7) % 4) as i64),
                Value::from(if r % 3 == 0 { "a" } else { "b" }),
            ])
            .unwrap();
        }
        t
    }

    fn update_config() -> MinerConfig {
        MinerConfig {
            min_support: 0.2,
            min_confidence: 0.4,
            max_support: 0.9,
            partitioning: PartitionSpec::None,
            interest: None,
            ..MinerConfig::default()
        }
    }

    #[test]
    fn incremental_update_matches_scratch_mine() {
        let base = bigger_table(0..40);
        let delta = bigger_table(40..50);
        let full = bigger_table(0..50);

        let mut miner = Miner::new(update_config());
        let (_, base_counts) = miner.mine_with_counts(&base).unwrap();
        let (full_out, full_counts) = Miner::new(update_config()).mine_with_counts(&full).unwrap();

        let schema = base.schema().clone();
        let (encoders, _) = crate::pipeline::build_encoders(&base, &update_config()).unwrap();
        let updated = miner
            .update(UpdateInput {
                schema: &schema,
                encoders: &encoders,
                counts: &base_counts,
                delta: &delta,
                base_rows: Some(&base),
            })
            .unwrap();

        assert_eq!(updated.output.frequent.levels, full_out.frequent.levels);
        assert_eq!(updated.output.rules, full_out.rules);
        assert_eq!(updated.counts, full_counts);
        if updated.incremental {
            assert!(updated.fallback.is_none());
        } else {
            assert!(updated.fallback.is_some());
        }
    }

    #[test]
    fn empty_delta_update_is_a_pure_replay() {
        let base = bigger_table(0..40);
        let mut miner = Miner::new(update_config());
        let (base_out, base_counts) = miner.mine_with_counts(&base).unwrap();
        let schema = base.schema().clone();
        let (encoders, _) = crate::pipeline::build_encoders(&base, &update_config()).unwrap();
        let empty_delta = Table::new(schema.clone());
        let updated = miner
            .update(UpdateInput {
                schema: &schema,
                encoders: &encoders,
                counts: &base_counts,
                delta: &empty_delta,
                base_rows: None,
            })
            .unwrap();
        assert!(updated.incremental);
        assert_eq!(updated.output.frequent.levels, base_out.frequent.levels);
        assert_eq!(updated.output.rules, base_out.rules);
        assert_eq!(updated.counts, base_counts);
    }

    #[test]
    fn interval_encoders_force_fallback() {
        let base = people_table();
        let mut cfg = update_config();
        cfg.partitioning = PartitionSpec::FixedIntervals(2);
        let mut miner = Miner::new(cfg.clone());
        let (_, counts) = miner.mine_with_counts(&base).unwrap();
        let schema = base.schema().clone();
        let (encoders, _) = crate::pipeline::build_encoders(&base, &cfg).unwrap();

        let mut delta = Table::new(schema.clone());
        delta
            .push_row(&[Value::Int(99), Value::from("Yes"), Value::Int(1)])
            .unwrap();

        // Without base rows the fallback is unavailable.
        let sink = Arc::new(qar_trace::CollectingSink::new());
        let mut observed = Miner::new(cfg.clone()).with_progress(sink.clone());
        let (_, counts2) = observed.mine_with_counts(&base).unwrap();
        assert_eq!(counts, counts2);
        let err = observed
            .update(UpdateInput {
                schema: &schema,
                encoders: &encoders,
                counts: &counts,
                delta: &delta,
                base_rows: None,
            })
            .unwrap_err();
        assert!(matches!(err, MinerError::Update(_)), "{err:?}");
        assert!(
            sink.events()
                .iter()
                .any(|e| e.name() == "incremental_fallback"),
            "fallback event must be pinned"
        );

        // With base rows the fallback re-mines and matches scratch.
        let updated = miner
            .update(UpdateInput {
                schema: &schema,
                encoders: &encoders,
                counts: &counts,
                delta: &delta,
                base_rows: Some(&base),
            })
            .unwrap();
        assert!(!updated.incremental);
        assert!(updated.fallback.is_some());
        let mut full = people_table();
        full.push_row(&[Value::Int(99), Value::from("Yes"), Value::Int(1)])
            .unwrap();
        let (full_out, full_counts) = Miner::new(cfg).mine_with_counts(&full).unwrap();
        assert_eq!(updated.output.frequent.levels, full_out.frequent.levels);
        assert_eq!(updated.counts, full_counts);
    }

    #[test]
    fn config_drift_is_an_update_error() {
        let base = bigger_table(0..40);
        let mut miner = Miner::new(update_config());
        let (_, counts) = miner.mine_with_counts(&base).unwrap();
        let schema = base.schema().clone();
        let (encoders, _) = crate::pipeline::build_encoders(&base, &update_config()).unwrap();
        let mut drifted_cfg = update_config();
        drifted_cfg.min_support = 0.3;
        let mut drifted = Miner::new(drifted_cfg);
        let err = drifted
            .update(UpdateInput {
                schema: &schema,
                encoders: &encoders,
                counts: &counts,
                delta: &bigger_table(40..45),
                base_rows: Some(&base),
            })
            .unwrap_err();
        assert!(matches!(err, MinerError::Update(_)), "{err:?}");
    }

    #[test]
    fn mine_with_counts_matches_plain_mine() {
        let table = people_table();
        let plain = Miner::new(config()).mine(&table).unwrap();
        let (captured, counts) = Miner::new(config()).mine_with_counts(&table).unwrap();
        assert_eq!(plain.frequent.levels, captured.frequent.levels);
        assert_eq!(plain.rules, captured.rules);
        let a = plain.stats.normalized();
        let b = captured.stats.normalized();
        assert_eq!(a.mine, b.mine);
        assert_eq!(a.intervals_per_attribute, b.intervals_per_attribute);
        assert_eq!(counts.num_rows, table.num_rows() as u64);
        assert_eq!(
            counts.fingerprint,
            encoding_fingerprint(captured.encoded.schema(), captured.encoded.encoders())
        );
    }

    /// A table whose ranges and categories give Steps 4–5 real work:
    /// rules at several confidences, with ancestors for the interest
    /// measure to test.
    fn ladder_table(rows: std::ops::Range<usize>) -> Table {
        let schema = Schema::builder()
            .quantitative("x")
            .quantitative("y")
            .categorical("c")
            .build()
            .unwrap();
        let mut t = Table::new(schema);
        for r in rows {
            let x = (r * 7) % 10;
            let y = if r % 3 == 0 { x / 2 } else { (r * 5) % 8 };
            t.push_row(&[
                Value::Int(x as i64),
                Value::Int(y as i64),
                Value::from(if x < 4 { "a" } else { "b" }),
            ])
            .unwrap();
        }
        t
    }

    fn ladder_config() -> MinerConfig {
        MinerConfig {
            min_support: 0.1,
            min_confidence: 0.3,
            max_support: 0.5,
            partitioning: PartitionSpec::None,
            interest: Some(InterestConfig {
                level: 1.1,
                mode: InterestMode::SupportOrConfidence,
                prune_candidates: false,
            }),
            parallelism: std::num::NonZeroUsize::new(2),
            ..MinerConfig::default()
        }
    }

    /// [`ladder_config`] changed by `change`.
    fn ladder_with(change: impl FnOnce(&mut MinerConfig)) -> MinerConfig {
        let mut config = ladder_config();
        change(&mut config);
        config
    }

    /// `out` equals a fresh miner's run of `config` on `table`: itemsets,
    /// rules, interest verdicts and candidate counts.
    fn assert_fresh(out: &MiningOutput, table: &Table, config: &MinerConfig, what: &str) {
        let fresh = Miner::new(config.clone()).mine(table).unwrap();
        assert_eq!(out.frequent.levels, fresh.frequent.levels, "{what}");
        assert_eq!(out.rules, fresh.rules, "{what}");
        assert_eq!(out.interest, fresh.interest, "{what}");
        assert_eq!(
            out.stats.mine.candidates_per_pass, fresh.stats.mine.candidates_per_pass,
            "{what}"
        );
        assert_eq!(out.stats.rules_interesting, fresh.stats.rules_interesting);
    }

    /// A confidence, interest-level or interest-mode change runs Steps
    /// 4–5 alone on the cached Step 3 and equals a fresh run.
    #[test]
    fn confidence_and_interest_changes_reuse_step3() {
        let table = ladder_table(0..400);
        let mut miner = Miner::new(ladder_config());
        let first = miner.mine(&table).unwrap();
        assert!(!first.stats.frequent_reused);
        assert!(first.frequent.levels.len() >= 2 && !first.rules.is_empty());
        let interest =
            |change: fn(&mut InterestConfig)| ladder_with(|c| change(c.interest.as_mut().unwrap()));
        let changes = [
            ("minconf", ladder_with(|c| c.min_confidence = 0.7)),
            ("R", interest(|ic| ic.level = 1.5)),
            (
                "mode",
                interest(|ic| ic.mode = InterestMode::SupportAndConfidence),
            ),
            ("interest off", ladder_with(|c| c.interest = None)),
            (
                "prune asked for but unsound",
                interest(|ic| ic.prune_candidates = true),
            ),
        ];
        for (what, config) in changes {
            miner.set_config(config.clone());
            let hit = miner.mine(&table).unwrap();
            assert!(hit.stats.frequent_reused, "{what}");
            assert!(hit.stats.encoding_reused, "{what}");
            assert_eq!(hit.stats.elapsed_mining, Duration::ZERO, "{what}");
            assert!(Arc::ptr_eq(&hit.frequent, &first.frequent), "{what}");
            assert!(!hit.stats.normalized().frequent_reused);
            assert_fresh(&hit, &table, &config, what);
        }
    }

    /// Every change Step 3 reads misses the cache and equals a fresh
    /// run, as do a new table and a cleared cache.
    #[test]
    fn step3_changes_recount() {
        let table = ladder_table(0..400);
        let pruning = |level| {
            ladder_with(|c| {
                c.interest = Some(InterestConfig {
                    level,
                    mode: InterestMode::SupportAndConfidence,
                    prune_candidates: true,
                })
            })
        };
        let changes = [
            ("minsup", ladder_with(|c| c.min_support = 0.2)),
            ("maxsup", ladder_with(|c| c.max_support = 0.3)),
            ("max size", ladder_with(|c| c.max_itemset_size = 2)),
            ("prune on", pruning(1.1)),
            ("R under the prune", pruning(3.0)),
            ("prune off again", ladder_config()),
            (
                "K",
                ladder_with(|c| c.partitioning = PartitionSpec::CompletenessLevel(3.0)),
            ),
            (
                "threads",
                ladder_with(|c| c.parallelism = std::num::NonZeroUsize::new(1)),
            ),
        ];
        let mut miner = Miner::new(ladder_config());
        miner.mine(&table).unwrap();
        for (what, config) in changes {
            miner.set_config(config.clone());
            let out = miner.mine(&table).unwrap();
            assert!(!out.stats.frequent_reused, "{what}");
            assert_fresh(&out, &table, &config, what);
        }

        // A new table, then the same table after `clear_cache`.
        let mut miner = Miner::new(ladder_config());
        miner.mine(&table).unwrap();
        let other = ladder_table(100..450);
        let out = miner.mine(&other).unwrap();
        assert!(!out.stats.frequent_reused);
        assert_fresh(&out, &other, &ladder_config(), "new table");
        assert!(miner.mine(&other).unwrap().stats.frequent_reused);
        miner.clear_cache();
        let out = miner.mine(&other).unwrap();
        assert!(!out.stats.encoding_reused && !out.stats.frequent_reused);
        assert_fresh(&out, &other, &ladder_config(), "cleared cache");
    }

    #[test]
    fn invalid_config_rejected() {
        let mut bad = config();
        bad.min_support = 0.0;
        assert!(matches!(
            Miner::new(bad).mine(&people_table()),
            Err(MinerError::Config(_))
        ));
    }

    #[test]
    fn empty_table_rejected() {
        let schema = Schema::builder().quantitative("x").build().unwrap();
        assert!(matches!(
            Miner::new(config()).mine(&Table::new(schema)),
            Err(MinerError::Schema(_))
        ));
    }
}

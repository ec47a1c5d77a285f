//! Pass 2 as pair-histogram cells, across every count source.
//!
//! The level-wise driver reads its frequent pairs out of histograms a
//! [`CountSource`] fills, and a capturing mine persists those raw cells
//! in the catalog's `COUNTS` section. This suite checks that every source
//! — in memory, spilled chunks, a thread-spawned worker cluster, base
//! counts merged with a delta, a wrapper that forwards only the four
//! required methods, and the oracle's reference source with the paper's
//! backend heuristic or a pinned backend — fills the same cells as a
//! per-row tally and writes the same catalog bytes, and that incremental
//! updates follow the pair-subset rule.

use qar_oracle::reference::ReferenceSource;
use qar_oracle::CounterKind;
use quantrules::core::mine::MineStats;
use quantrules::core::pipeline::{build_encoders, MiningOutput};
use quantrules::core::supercand::{PairHistograms, CELL_BUDGET};
use quantrules::core::{
    mine_source_captured, CaptureSource, CapturedCounts, CountError, CountSource, InMemorySource,
    MergeSource, Miner, MinerConfig, MinerError, PartitionSpec, SupportCounts, UpdateInput,
};
use quantrules::dist::{DistOptions, DistSource, RangeInput, WorkerOptions, WorkerSpawn};
use quantrules::itemset::Itemset;
use quantrules::store::Catalog;
use quantrules::table::{
    csv, AttributeId, AttributeKind, ChunkStore, EncodedTable, Schema, Table, Value,
};

/// Forwards only the four required methods, so pass 2 takes the trait's
/// point-cell default.
struct Forwarding<S>(S);

impl<S: CountSource> CountSource for Forwarding<S> {
    fn meta(&self) -> &EncodedTable {
        self.0.meta()
    }
    fn num_rows(&self) -> u64 {
        self.0.num_rows()
    }
    fn value_counts(&mut self) -> Result<Vec<Vec<u64>>, CountError> {
        self.0.value_counts()
    }
    fn count(&mut self, pass: usize, candidates: &[Itemset]) -> Result<Vec<u64>, CountError> {
        self.0.count(pass, candidates)
    }
}

/// `(a, b)`'s raw cells, tallied row by row.
fn naive_cells(table: &EncodedTable, a: u32, b: u32) -> Vec<u64> {
    let (ca, cb) = (AttributeId(a as usize), AttributeId(b as usize));
    let stride = table.cardinality(cb);
    let mut cells = vec![0u64; (table.cardinality(ca) * stride) as usize];
    for row in 0..table.num_rows() {
        cells[(table.codes(ca)[row] * stride + table.codes(cb)[row]) as usize] += 1;
    }
    cells
}

/// Every attribute pair whose histogram fits the cell budget.
fn budget_pairs(table: &EncodedTable) -> Vec<(u32, u32)> {
    let n = table.schema().len() as u32;
    let card = |a: u32| table.cardinality(AttributeId(a as usize)) as usize;
    (0..n)
        .flat_map(|a| (a + 1..n).map(move |b| (a, b)))
        .filter(|&(a, b)| card(a) * card(b) <= CELL_BUDGET)
        .collect()
}

/// Rows `rows` of `table` as a table of their own.
fn slice(table: &EncodedTable, rows: std::ops::Range<usize>) -> EncodedTable {
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

fn spill(table: &EncodedTable, chunk_rows: usize) -> ChunkStore {
    let dir = quantrules::table::chunk::default_spill_dir("pair_cells");
    let mut store = ChunkStore::create(&dir, table.schema().clone(), table.encoders().to_vec())
        .expect("spill dir");
    let mut start = 0;
    while start < table.num_rows() {
        let end = (start + chunk_rows).min(table.num_rows());
        store.append_encoded(&slice(table, start..end)).unwrap();
        start = end;
    }
    store
}

/// Two thread-spawned workers, on real TCP connections, over `raw`
/// written as CSV, each parsing its own range and encoding it under
/// `table`'s encoders.
fn cluster(raw: &Table, table: &EncodedTable, config: &MinerConfig) -> Box<DistSource<'static>> {
    let options = DistOptions {
        workers: 2,
        spawn: WorkerSpawn::Threads(WorkerOptions::default()),
        ..DistOptions::default()
    };
    let path = quantrules::table::chunk::default_spill_dir("pair_cells").with_extension("csv");
    let mut text = Vec::new();
    csv::write_table(&mut text, raw).unwrap();
    std::fs::write(&path, text).unwrap();
    let file = std::fs::File::open(&path).unwrap();
    let input = RangeInput::new(file, &path, raw.schema(), options.workers).unwrap();
    let encoders = Some(table.encoders().to_vec());
    let loaded = DistSource::start_ranges(input, encoders, config, &options, None, None);
    let _ = std::fs::remove_file(&path);
    loaded.unwrap().unwrap().0
}

/// Base counts for `base`: the pass-1 histograms and every pair's cells,
/// recorded by a capture wrapper.
fn base_counts(base: &EncodedTable, config: &MinerConfig, rows: u64) -> SupportCounts {
    let mut source = InMemorySource::new(base, config);
    let mut capture = CaptureSource::new(&mut source);
    capture.value_counts().unwrap();
    let mut hist = PairHistograms::new(base, budget_pairs(base));
    capture.count_pair_cells(&mut hist).unwrap();
    let captured: CapturedCounts = capture.into_captured();
    SupportCounts::assemble(
        base.schema(),
        base.encoders(),
        rows,
        config,
        vec![None; base.schema().len()],
        captured,
    )
}

/// The catalog a capturing mine over `source` writes: normalized stats
/// plus its `COUNTS` section.
fn captured_catalog(
    source: &mut dyn CountSource,
    config: &MinerConfig,
    intervals: &[Option<usize>],
) -> Result<Vec<u8>, MinerError> {
    let (output, captured) = mine_source_captured(source, config, None, None)?;
    Ok(catalog_bytes(output, captured, config, intervals))
}

fn catalog_bytes(
    mut output: MiningOutput,
    captured: CapturedCounts,
    config: &MinerConfig,
    intervals: &[Option<usize>],
) -> Vec<u8> {
    output.stats.intervals_per_attribute = intervals.to_vec();
    output.stats = output.stats.normalized();
    let counts = SupportCounts::assemble(
        output.encoded.schema(),
        output.encoded.encoders(),
        output.frequent.num_rows,
        config,
        intervals.to_vec(),
        captured,
    );
    Catalog::from_mining(&output)
        .with_counts(counts)
        .expect("captured counts validate")
        .encode()
}

/// Every source fills `raw`'s pair histograms (those within the cell
/// budget) with the naive tally and writes the same capturing catalog
/// (or fails the same way); `cut` splits base from delta rows for the
/// merged source.
fn check_every_source(raw: &Table, config: &MinerConfig, cut: usize, ctx: &str) {
    let (encoders, intervals) = build_encoders(raw, config).unwrap();
    let table = EncodedTable::encode(raw, encoders).unwrap();
    let rows = table.num_rows();
    let pairs = budget_pairs(&table);
    let want: Vec<u64> = pairs
        .iter()
        .flat_map(|&(a, b)| naive_cells(&table, a, b))
        .collect();
    let (base, delta) = (slice(&table, 0..cut), slice(&table, cut..rows));
    let base = base_counts(&base, config, cut as u64);
    let meta = EncodedTable::header_only(table.schema().clone(), table.encoders().to_vec(), rows);
    let store = spill(&table, (rows / 3).max(1));

    let mut in_memory = InMemorySource::new(&table, config);
    let mut chunked = InMemorySource::new(&store, config);
    let mut dist = cluster(raw, &table, config);
    let mut forwarding = Forwarding(InMemorySource::new(&table, config));
    let mut delta_source = InMemorySource::new(&delta, config);
    let mut merge = MergeSource::new(&base, Some(&mut delta_source), meta.clone());
    let mut reference = ReferenceSource::new(&table, None, 1);
    let mut array = ReferenceSource::new(&table, Some(CounterKind::Array), 2);
    let mut rtree = ReferenceSource::new(&table, Some(CounterKind::RTree), 3);
    let mut sources: Vec<(&str, &mut dyn CountSource)> = vec![
        ("in-memory", &mut in_memory),
        ("chunked", &mut chunked),
        ("distributed", &mut *dist),
        ("forwarding", &mut forwarding),
        ("merge", &mut merge),
        ("reference", &mut reference),
        ("reference array", &mut array),
        ("reference rtree", &mut rtree),
    ];
    for (name, source) in &mut sources {
        let mut hist = PairHistograms::new(&table, pairs.clone());
        source.count_pair_cells(&mut hist).unwrap();
        assert_eq!(hist.cells(), &want[..], "{ctx}: {name} cells");
    }

    let scratch = captured_catalog(&mut InMemorySource::new(&table, config), config, &intervals);
    let reference = |pin: Option<CounterKind>| {
        let mut source = ReferenceSource::new(&table, pin, 2);
        mine_source_captured(&mut source, config, None, None).map(|(output, captured)| {
            assert_eq!(captured.value_counts.len(), table.schema().len());
            if let Some(kind) = pin {
                assert_pinned_pass2(&table, config, &output.stats.mine, &captured, kind, ctx);
            }
            catalog_bytes(output, captured, config, &intervals)
        })
    };
    if table.schema().len() == 1 {
        // No attribute pair: a capture records no pass 2.
        let mut source = InMemorySource::new(&table, config);
        if let Ok((_, captured)) = mine_source_captured(&mut source, config, None, None) {
            assert!(captured.pair_cells.is_empty(), "{ctx}");
            assert!(captured.passes.is_empty(), "{ctx}");
        }
    }
    let mut outcomes: Vec<(String, Result<Vec<u8>, MinerError>)> = Vec::new();
    let store = spill(&table, (rows / 2).max(1));
    let mut delta_source = InMemorySource::new(&delta, config);
    let base_table = slice(&table, 0..cut);
    let base_run = (cut > 0).then(|| {
        let mut base_source = InMemorySource::new(&base_table, config);
        let (_, captured) = mine_source_captured(&mut base_source, config, None, None).unwrap();
        SupportCounts::assemble(
            table.schema(),
            table.encoders(),
            cut as u64,
            config,
            intervals.clone(),
            captured,
        )
    });
    let fresh: Vec<(&str, Box<dyn CountSource + '_>)> = vec![
        ("chunked", Box::new(InMemorySource::new(&store, config))),
        ("distributed", cluster(raw, &table, config)),
        (
            "forwarding",
            Box::new(Forwarding(InMemorySource::new(&table, config))),
        ),
    ];
    for (name, mut source) in fresh {
        outcomes.push((
            name.into(),
            captured_catalog(&mut *source, config, &intervals),
        ));
    }
    for pin in [None, Some(CounterKind::Array), Some(CounterKind::RTree)] {
        outcomes.push((format!("reference {pin:?}"), reference(pin)));
    }
    if let Some(base_run) = &base_run {
        let mut merge = MergeSource::new(base_run, Some(&mut delta_source), meta);
        match captured_catalog(&mut merge, config, &intervals) {
            // A candidate or pair the base run never counted is a
            // legitimate divergence: the caller re-mines.
            Err(MinerError::Update(_)) => {}
            other => outcomes.push(("merge".into(), other)),
        }
    }
    for (name, outcome) in outcomes {
        match (&scratch, outcome) {
            (Ok(want), Ok(got)) => assert!(got == *want, "{ctx}: {name} catalog bytes"),
            (Err(want), Err(got)) => {
                assert_eq!(got.to_string(), want.to_string(), "{ctx}: {name} error")
            }
            (want, got) => panic!("{ctx}: {name} gave {got:?}, in-memory {want:?}"),
        }
    }
}

/// A pinned backend counts pass 2's cells through its own counters: a
/// histogrammed pair (as `captured` records them) with a quantitative
/// attribute reaches it, the other backend is never built, and
/// `max_itemset_size = 1` never reaches pass 2 at all.
fn assert_pinned_pass2(
    table: &EncodedTable,
    config: &MinerConfig,
    stats: &MineStats,
    captured: &CapturedCounts,
    kind: CounterKind,
    ctx: &str,
) {
    if config.max_itemset_size == 1 {
        assert!(stats.candidates_per_pass.is_empty(), "{ctx}, {kind:?}");
    }
    let Some(pass) = stats.pass_stats.first() else {
        return;
    };
    let (pinned, other) = match kind {
        CounterKind::Array => (pass.array_backed, pass.rtree_backed),
        CounterKind::RTree => (pass.rtree_backed, pass.array_backed),
    };
    assert_eq!(other, 0, "{ctx}, {kind:?}");
    let quant =
        |a: u32| table.schema().attributes()[a as usize].kind() == AttributeKind::Quantitative;
    let reaches = captured
        .pair_cells
        .iter()
        .any(|&((a, b), _)| quant(a) || quant(b));
    assert!(
        pinned > 0 || !reaches,
        "{ctx}, {kind:?}: pass 2 missed the backend"
    );
}

fn random_table(rng: &mut qar_prng::Prng, rows: usize) -> Table {
    let attrs = rng.gen_range(1..5usize);
    let mut builder = Schema::builder();
    for a in 0..attrs {
        builder = if a % 2 == 0 {
            builder.quantitative(format!("q{a}"))
        } else {
            builder.categorical(format!("c{a}"))
        };
    }
    let mut table = Table::new(builder.build().unwrap());
    let skew = rng.gen_range(2i64..7);
    for _ in 0..rows {
        let row: Vec<Value> = (0..attrs)
            .map(|a| {
                if a % 2 == 0 {
                    Value::Int(rng.gen_range(0..skew))
                } else {
                    Value::from(["x", "y", "z", "w"][rng.gen_range(0..skew as usize % 4 + 1)])
                }
            })
            .collect();
        table.push_row(&row).unwrap();
    }
    table
}

/// Property: on random tables of 0, 1, 63, 64, 65 and more rows, under
/// thresholds that range from an empty level 1 to deep passes and with
/// `max_itemset_size` 1, 2 or unbounded, every source fills the same
/// raw cells as a per-row tally and writes byte-identical capturing
/// catalogs.
#[test]
fn every_source_fills_the_same_cells_and_catalog() {
    qar_prng::cases(24, 0x9A12_CE11_5000_0015, |case, rng| {
        let rows = *rng.choose(&[0usize, 1, 63, 64, 65, 150]).unwrap();
        let table = random_table(rng, rows);
        let config = MinerConfig {
            // 1.0 with a spread-out column leaves level 1 empty.
            min_support: *rng.choose(&[0.05, 0.2, 0.45, 1.0]).unwrap(),
            min_confidence: 0.3,
            max_support: 1.0,
            max_itemset_size: *rng.choose(&[0usize, 1, 2]).unwrap(),
            partitioning: PartitionSpec::None,
            interest: None,
            ..MinerConfig::default()
        };
        let cut = rng.gen_range(0..rows + 1);
        check_every_source(&table, &config, cut, &format!("case {case}"));
    });
}

/// A pair whose code domain exceeds the cell budget keeps explicit
/// candidates — recorded as pass-2 records beside the other pairs'
/// cells — and a pair over one wire frame reaches the workers a window
/// of cells at a time; every source still agrees byte for byte.
#[test]
fn over_budget_pair_keeps_explicit_candidates() {
    // Two categorical attributes of 2,901 labels each: 8.4M cells, over
    // the 8M-cell budget. "a" holds a third of the rows on both.
    let schema = Schema::builder()
        .categorical("c1")
        .categorical("c2")
        .quantitative("q")
        .build()
        .unwrap();
    let mut table = Table::new(schema);
    for i in 0..4400i64 {
        let label = |salt: i64| {
            if i < 1500 {
                "a".to_string()
            } else {
                format!("v{:05}", (i * salt) % 2900)
            }
        };
        table
            .push_row(&[
                Value::from(label(1).as_str()),
                Value::from(label(7).as_str()),
                Value::Int(i % 181),
            ])
            .unwrap();
    }
    let config = MinerConfig {
        min_support: 0.3,
        min_confidence: 0.3,
        max_support: 1.0,
        partitioning: PartitionSpec::None,
        interest: None,
        ..MinerConfig::default()
    };
    let (_, counts) = Miner::new(config.clone()).mine_with_counts(&table).unwrap();
    let captured = &counts.captured;
    assert!(
        captured.pair_cells.iter().all(|(pair, _)| *pair != (0, 1)),
        "the over-budget pair is never histogrammed"
    );
    assert_eq!(
        captured.explicit_records(2),
        1,
        "c1=a × c2=a, counted explicitly"
    );
    check_every_source(&table, &config, 2000, "over budget");
}

fn cat_table(rows: &[(&str, &str, &str)]) -> Table {
    let schema = Schema::builder()
        .categorical("x")
        .categorical("y")
        .categorical("z")
        .build()
        .unwrap();
    let mut table = Table::new(schema);
    for &(x, y, z) in rows {
        table
            .push_row(&[Value::from(x), Value::from(y), Value::from(z)])
            .unwrap();
    }
    table
}

/// `z` with the given value counts, beside constant `x` and `y`.
fn z_rows(counts: &[(&'static str, usize)]) -> Vec<(&'static str, &'static str, &'static str)> {
    counts
        .iter()
        .flat_map(|&(z, n)| vec![("a", "b", z); n])
        .collect()
}

fn update_config() -> MinerConfig {
    MinerConfig {
        min_support: 0.35,
        min_confidence: 0.3,
        max_support: 1.0,
        partitioning: PartitionSpec::None,
        interest: None,
        ..MinerConfig::default()
    }
}

/// Update `base` with `delta` and mine `base ++ delta` from scratch;
/// returns the update and both catalogs' bytes.
fn update_and_scratch(
    base: &[(&str, &str, &str)],
    delta: &[(&str, &str, &str)],
) -> (bool, Option<String>, Vec<u8>, Vec<u8>) {
    let (base_table, delta_table) = (cat_table(base), cat_table(delta));
    let full = cat_table(&[base, delta].concat());
    let config = update_config();
    let mut miner = Miner::new(config.clone());
    let (_, counts) = miner.mine_with_counts(&base_table).unwrap();
    let (encoders, _) = build_encoders(&base_table, &config).unwrap();
    let updated = miner
        .update(UpdateInput {
            schema: base_table.schema(),
            encoders: &encoders,
            counts: &counts,
            delta: &delta_table,
            base_rows: Some(&base_table),
        })
        .unwrap();
    let intervals = updated.counts.intervals_per_attribute.clone();
    let bytes = catalog_bytes(updated.output, updated.counts.captured, &config, &intervals);
    let (scratch, scratch_counts) = Miner::new(config.clone()).mine_with_counts(&full).unwrap();
    let scratch = catalog_bytes(scratch, scratch_counts.captured, &config, &intervals);
    (updated.incremental, updated.fallback, bytes, scratch)
}

/// After the delta `z` has no frequent item left, so pass 2 asks for a
/// subset of the base's pairs: the update stays incremental and writes
/// the scratch mine's catalog byte for byte.
#[test]
fn losing_an_attributes_last_frequent_item_stays_incremental() {
    let base = z_rows(&[("k", 4), ("m", 2), ("n", 2), ("p", 2)]);
    let delta = z_rows(&[("k", 2), ("m", 2), ("n", 3), ("p", 3)]);
    let (incremental, fallback, updated, scratch) = update_and_scratch(&base, &delta);
    assert!(incremental, "fallback: {fallback:?}");
    assert!(
        updated == scratch,
        "updated catalog differs from the scratch mine"
    );
}

/// After the delta `z` gains its first frequent item, so pass 2 asks for
/// pairs the base never histogrammed: the update falls back to a full
/// re-mine, which again matches the scratch mine.
#[test]
fn gaining_an_attributes_first_frequent_item_falls_back() {
    let base = z_rows(&[("k", 2), ("m", 3), ("n", 3), ("p", 2)]);
    let delta = z_rows(&[("k", 6), ("m", 1), ("n", 1), ("p", 2)]);
    let (incremental, fallback, updated, scratch) = update_and_scratch(&base, &delta);
    assert!(!incremental);
    let reason = fallback.expect("a fallback names its reason");
    assert!(reason.contains("pass 2"), "{reason}");
    assert!(
        updated == scratch,
        "re-mined catalog differs from the scratch mine"
    );
}

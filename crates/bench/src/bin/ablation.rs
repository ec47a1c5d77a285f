//! Ablations of the paper's design choices (DESIGN.md §4):
//!
//! * **abl-count** — n-dimensional array vs. R*-tree support counting
//!   (Section 5.2's CPU/memory tradeoff) by the oracle's reference count
//!   source, plus the paper's memory heuristic and the miner's own
//!   kernel, its row named after what counted it (cells, with range
//!   masks as the fallback);
//! * **abl-part** — equi-depth vs. equi-width vs. 1-D k-means partitioning
//!   on the skewed credit data (Lemma 4 / the future-work suggestion);
//! * **abl-iprune** — the Lemma 5 interest prune on/off.
//!
//! Usage: `cargo run --release -p qar-bench --bin ablation [records]`

use qar_bench::experiments::{credit, records_arg, row, section6_config};
use qar_core::{
    mine_source, CountSource, InMemorySource, InterestConfig, InterestMode, Miner, MinerConfig,
    PartitionSpec,
};
use qar_itemset::Itemset;
use qar_oracle::reference::ReferenceSource;
use qar_oracle::CounterKind;
use qar_partition::partitioner::interval_supports;
use qar_partition::{achieved_level, EquiDepth, EquiWidth, KMeans1D, Partitioner};
use qar_table::{AttributeEncoder, EncodedTable, Histogram, Table};
use std::collections::BTreeMap;
use std::time::Instant;

/// Encode `table` with a specific partitioner at a fixed interval count.
fn encode_with(table: &Table, partitioner: &dyn Partitioner, intervals: usize) -> EncodedTable {
    let encoders: Vec<AttributeEncoder> = table
        .schema()
        .iter()
        .map(|(id, _)| match table.histogram(id) {
            Histogram::Categorical(labels) => AttributeEncoder::categorical_from(&labels),
            Histogram::Quantitative(values) => {
                let cuts = partitioner.cut_points(values.values(), values.counts(), intervals);
                AttributeEncoder::quant_intervals_from(&values, cuts)
            }
        })
        .collect();
    EncodedTable::encode(table, encoders).expect("encoders derived from the table")
}

fn counting_ablation(table: &Table, config: &MinerConfig) {
    println!("— abl-count: counting structure (Section 5.2) —");
    println!("(coarse partitioning, K = 3: the explicit R*-tree path must visit every");
    println!(" matching rectangle per record, so fine partitionings make it explode —");
    println!(" which is the tradeoff this ablation demonstrates; the reference source counts");
    println!(" pass 2 as every attribute pair's point cells, passes >= 3 as C_k's ranges)");
    let widths = [22usize, 12, 12, 12, 12];
    println!(
        "{}",
        row(
            &[
                "backend".into(),
                "time ms".into(),
                "itemsets".into(),
                "arrays".into(),
                "rtrees".into(),
            ],
            &widths,
        )
    );
    let (encoders, _) = qar_core::pipeline::build_encoders(table, config).expect("encoders");
    let encoded = EncodedTable::encode(table, encoders).expect("encode");
    let mut reference: Option<usize> = None;
    let threads = config.effective_parallelism();
    // The miner's source, then the reference source unpinned and pinned.
    for (name, pin) in [
        ("default", None),
        ("heuristic", Some(None)),
        ("array", Some(Some(CounterKind::Array))),
        ("rtree", Some(Some(CounterKind::RTree))),
    ] {
        let t0 = Instant::now();
        let mut source: Box<dyn CountSource> = match pin {
            None => Box::new(InMemorySource::new(&encoded, config)),
            Some(pin) => Box::new(ReferenceSource::new(&encoded, pin, threads)),
        };
        let out = mine_source(&mut *source, config, None, None).expect("mining succeeds");
        let (frequent, stats) = (&out.frequent, &out.stats.mine);
        let elapsed = t0.elapsed();
        let arrays: usize = stats.pass_stats.iter().map(|p| p.array_backed).sum();
        let rtrees: usize = stats.pass_stats.iter().map(|p| p.rtree_backed).sum();
        match pin {
            Some(Some(CounterKind::Array)) => assert_eq!(rtrees, 0, "{name}"),
            Some(Some(CounterKind::RTree)) => assert_eq!(arrays, 0, "{name}"),
            _ => {}
        }
        // The default kernel's row names what counted its passes.
        let mut counted_by: Vec<&str> = Vec::new();
        for part in stats.pass_stats.iter().flat_map(|p| p.kernel.split('+')) {
            if !counted_by.contains(&part) {
                counted_by.push(part);
            }
        }
        let name = match pin {
            None => format!("{name} ({})", counted_by.join("+")),
            Some(_) => name.to_string(),
        };
        println!(
            "{}",
            row(
                &[
                    name.clone(),
                    format!("{:.1}", elapsed.as_secs_f64() * 1e3),
                    format!("{}", frequent.total()),
                    format!("{arrays}"),
                    format!("{rtrees}"),
                ],
                &widths,
            )
        );
        match reference {
            None => reference = Some(frequent.total()),
            Some(r) => assert_eq!(r, frequent.total(), "backends disagree!"),
        }
    }
    println!("expected: identical itemset counts; array wins CPU at these dimensionalities.\n");
}

fn partitioning_ablation(table: &Table, config: &MinerConfig) {
    println!("— abl-part: partitioning strategy (Lemma 4 / future work) —");
    let intervals = 25;
    let n_quant = table.schema().quantitative_ids().len();
    let widths = [12usize, 12, 12, 12, 12];
    println!(
        "{}",
        row(
            &[
                "strategy".into(),
                "achieved K".into(),
                "itemsets".into(),
                "rules".into(),
                "time ms".into(),
            ],
            &widths,
        )
    );
    for p in [
        &EquiDepth as &dyn Partitioner,
        &EquiWidth,
        &KMeans1D::default(),
    ] {
        let encoded = encode_with(table, p, intervals);
        // Achieved partial completeness from measured interval supports.
        let sups: Vec<Vec<(f64, bool)>> = table
            .schema()
            .quantitative_ids()
            .iter()
            .map(|&id| {
                let data = table.column(id).as_quantitative().expect("quantitative");
                let h = table.histogram(id);
                let h = h.as_quantitative().expect("quantitative");
                let cuts = p.cut_points(h.values(), h.counts(), intervals);
                interval_supports(data, &cuts)
            })
            .collect();
        let k = achieved_level(n_quant, config.min_support, &sups);
        let t0 = Instant::now();
        let (frequent, _) = Miner::new(config.clone())
            .frequent_itemsets(&encoded)
            .expect("mining succeeds");
        let rules = qar_core::generate_rules(&frequent, config.min_confidence);
        let elapsed = t0.elapsed();
        println!(
            "{}",
            row(
                &[
                    p.name().into(),
                    format!("{k:.2}"),
                    format!("{}", frequent.total()),
                    format!("{}", rules.len()),
                    format!("{:.1}", elapsed.as_secs_f64() * 1e3),
                ],
                &widths,
            )
        );
    }
    println!("expected: equi-depth achieves the lowest partial-completeness level K\non this skewed (lognormal) data; equi-width piles records into few intervals.\n");
}

/// |C_2| over a level 1: the item cross product of every attribute pair
/// (pass 2 itself reports the histogram cells it fills instead).
fn pair_candidates(level1: Option<&Vec<(Itemset, u64)>>) -> usize {
    let mut per_attr: BTreeMap<u32, usize> = BTreeMap::new();
    for (itemset, _) in level1.into_iter().flatten() {
        *per_attr.entry(itemset.items()[0].attr).or_default() += 1;
    }
    let (mut total, mut seen) = (0, 0);
    for n in per_attr.into_values() {
        total += seen * n;
        seen += n;
    }
    total
}

fn interest_prune_ablation(table: &Table) {
    println!("— abl-iprune: the Lemma 5 candidate prune —");
    // The prune bites when items may exceed 1/R support: allow wide ranges
    // (maxsup 60 %) and ask for R = 2 (threshold 50 %).
    let mk = |prune: bool| MinerConfig {
        min_support: 0.2,
        min_confidence: 0.25,
        max_support: 0.6,
        partitioning: PartitionSpec::CompletenessLevel(2.0),
        partition_strategy: Default::default(),
        taxonomies: Default::default(),
        interest: Some(InterestConfig {
            level: 2.0,
            mode: InterestMode::SupportAndConfidence,
            prune_candidates: prune,
        }),
        // Wide ranges (maxsup 60 %) make C2 quadratic in the item count;
        // cap the pass depth so the no-prune arm stays measurable.
        max_itemset_size: 2,
        parallelism: None,
    };
    let widths = [8usize, 12, 14, 14, 12];
    println!(
        "{}",
        row(
            &[
                "prune".into(),
                "items L1".into(),
                "C2".into(),
                "itemsets".into(),
                "time ms".into(),
            ],
            &widths,
        )
    );
    for prune in [false, true] {
        let config = mk(prune);
        let (encoders, _) = qar_core::pipeline::build_encoders(table, &config).expect("encoders");
        let encoded = EncodedTable::encode(table, encoders).expect("encode");
        let t0 = Instant::now();
        let (frequent, _) = Miner::new(config.clone())
            .frequent_itemsets(&encoded)
            .expect("mining succeeds");
        let elapsed = t0.elapsed();
        println!(
            "{}",
            row(
                &[
                    format!("{prune}"),
                    format!("{}", frequent.levels.first().map_or(0, |l| l.len())),
                    format!("{}", pair_candidates(frequent.levels.first())),
                    format!("{}", frequent.total()),
                    format!("{:.1}", elapsed.as_secs_f64() * 1e3),
                ],
                &widths,
            )
        );
    }
    println!("expected: pruning drops items with support > 1/R = 50%, shrinking C2 and time.\n");
}

fn main() {
    let records = records_arg(50_000);
    println!("Ablations — simulated credit data, {records} records\n");
    let data = credit(records);
    let config = section6_config(0.20, 0.25, 2.0, None);
    let mut count_config = section6_config(0.20, 0.25, 3.0, None);
    count_config.max_itemset_size = 3;
    let count_data = credit(records.min(10_000));
    counting_ablation(&count_data.table, &count_config);
    partitioning_ablation(&data.table, &config);
    interest_prune_ablation(&data.table);
}

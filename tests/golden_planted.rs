//! Golden regression test: mining the planted-rules dataset with a fixed
//! seed must reproduce a checked-in rule listing byte-for-byte.
//!
//! The snapshot pins the whole visible pipeline — partitioning, counting,
//! rule generation, formatting — so any unintended behavioural change
//! (including a nondeterminism bug in the parallel counting path) shows up
//! as a diff. To regenerate after an *intended* change:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test --test golden_planted
//! ```
//!
//! and review the diff of `tests/golden/planted_rules.snap` like code.

use quantrules::core::{Miner, MinerConfig, PartitionSpec};
use quantrules::datagen::{PlantedConfig, PlantedDataset};
use quantrules::trace::{CollectingSink, TraceEvent};
use std::fmt::Write as _;
use std::num::NonZeroUsize;
use std::sync::Arc;

const SNAPSHOT_PATH: &str = "tests/golden/planted_rules.snap";

fn config(parallelism: Option<NonZeroUsize>) -> MinerConfig {
    MinerConfig {
        min_support: 0.1,
        min_confidence: 0.8,
        max_support: 0.3,
        partitioning: PartitionSpec::FixedIntervals(20),
        partition_strategy: Default::default(),
        taxonomies: Default::default(),
        interest: None,
        max_itemset_size: 2,
        parallelism,
    }
}

/// Mine the fixed dataset and render a canonical listing: a header with
/// the aggregate counts, then one line per rule, sorted lexicographically
/// (rule generation order is already deterministic; the sort makes the
/// snapshot robust to harmless reorderings too).
fn render(parallelism: Option<NonZeroUsize>) -> String {
    let data = PlantedDataset::generate(PlantedConfig {
        num_records: 4_000,
        seed: 1996,
    });
    let sink = Arc::new(CollectingSink::new());
    let out = Miner::new(config(parallelism))
        .with_progress(sink.clone())
        .mine(&data.table)
        .expect("mining succeeds");
    assert_pass_coverage(&sink.events(), &out.stats.mine);
    let mut lines: Vec<String> = (0..out.rules.len()).map(|i| out.format_rule(i)).collect();
    lines.sort_unstable();
    let mut s = String::new();
    writeln!(
        s,
        "# planted dataset: 4000 records, seed 1996; minsup 10%, minconf 80%, maxsup 30%, 20 equi-depth intervals, rules <= 2 items"
    )
    .unwrap();
    writeln!(
        s,
        "# frequent itemsets: {}; rules: {}",
        out.frequent.total(),
        out.rules.len()
    )
    .unwrap();
    for line in lines {
        writeln!(s, "{line}").unwrap();
    }
    s
}

/// Every pass of the run shows up in the trace: exactly one
/// `pass_started`/`pass_finished` pair per pass (pass 1 plus each
/// counting pass), bracketed by `run_started`/`run_finished`.
fn assert_pass_coverage(events: &[TraceEvent], mine: &quantrules::core::mine::MineStats) {
    let passes = 1 + mine.pass_stats.len();
    let started: Vec<usize> = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::PassStarted { pass, .. } => Some(*pass),
            _ => None,
        })
        .collect();
    let finished: Vec<usize> = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::PassFinished { pass, .. } => Some(*pass),
            _ => None,
        })
        .collect();
    let want: Vec<usize> = (1..=passes).collect();
    assert_eq!(started, want, "one pass_started per pass");
    assert_eq!(finished, want, "one pass_finished per pass");
    assert!(matches!(
        events.first(),
        Some(TraceEvent::RunStarted { .. })
    ));
    assert!(matches!(
        events.last(),
        Some(TraceEvent::RunFinished { .. })
    ));
}

#[test]
fn mined_rules_match_snapshot() {
    let got = render(NonZeroUsize::new(1));

    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(SNAPSHOT_PATH, &got).expect("write snapshot");
        return;
    }

    let want = std::fs::read_to_string(SNAPSHOT_PATH)
        .expect("snapshot missing — run with UPDATE_GOLDEN=1 to create it");
    if got != want {
        // Show a compact diff rather than two multi-KB strings.
        let mut diffs = Vec::new();
        for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
            if g != w {
                diffs.push(format!("line {}: got  {g}\n          want {w}", i + 1));
            }
        }
        let (gn, wn) = (got.lines().count(), want.lines().count());
        if gn != wn {
            diffs.push(format!("line count: got {gn}, want {wn}"));
        }
        panic!(
            "mined rules diverged from {SNAPSHOT_PATH} ({} differing lines):\n{}",
            diffs.len(),
            diffs.join("\n")
        );
    }
}

/// The snapshot is thread-count independent: a 4-way parallel run renders
/// the identical listing.
#[test]
fn snapshot_is_parallelism_independent() {
    assert_eq!(render(NonZeroUsize::new(1)), render(NonZeroUsize::new(4)));
}

/// The store round-trips the golden mine: save the catalog to disk,
/// reopen it, and the reopened copy re-encodes byte-identically, renders
/// the same rule listing, and ranks top-k by confidence exactly as the
/// mined ruleset does.
#[test]
fn catalog_round_trips_golden_mine() {
    use quantrules::store::{Catalog, RankBy, RuleIndex};

    let data = PlantedDataset::generate(PlantedConfig {
        num_records: 4_000,
        seed: 1996,
    });
    let out = Miner::new(config(NonZeroUsize::new(1)))
        .mine(&data.table)
        .expect("mining succeeds");
    let catalog = Catalog::from_mining(&out);

    let path = std::env::temp_dir().join(format!("qar-golden-{}.qarcat", std::process::id()));
    catalog.save(&path, None).expect("save catalog");
    let reloaded = Catalog::load(&path, None).expect("reload catalog");
    std::fs::remove_file(&path).ok();
    assert_eq!(reloaded.encode(), catalog.encode(), "bit-exact reload");

    // The reopened catalog renders the mined rules identically, without
    // the original table.
    let mined: Vec<String> = (0..out.rules.len()).map(|i| out.format_rule(i)).collect();
    let stored: Vec<String> = reloaded
        .rules()
        .iter()
        .map(|r| quantrules::core::output::format_rule(r, reloaded.num_rows(), &reloaded))
        .collect();
    assert_eq!(stored, mined);

    // Top-k by confidence agrees with ranking the mined ruleset directly
    // (confidence desc, support desc, then rule id — the index's order).
    let index = RuleIndex::build(&reloaded, None);
    let mut want: Vec<u32> = (0..out.rules.len() as u32).collect();
    want.sort_by(|&a, &b| {
        let (ra, rb) = (&out.rules[a as usize], &out.rules[b as usize]);
        rb.confidence
            .total_cmp(&ra.confidence)
            .then(rb.support.cmp(&ra.support))
            .then(a.cmp(&b))
    });
    assert_eq!(index.top_k(RankBy::Confidence, out.rules.len()), want);
    assert_eq!(
        index.top_k(RankBy::Confidence, 3),
        want[..3.min(want.len())]
    );
}

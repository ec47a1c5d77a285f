//! Cross-version catalog compatibility: `.qarcat` files written BEFORE
//! optional trailing sections existed (`ANALYTICS`, then `COUNTS`) are
//! checked in as frozen artifacts, and this suite proves the current
//! reader serves them unchanged — loads them, answers classic queries,
//! refuses newer-only features with the documented error, and re-encodes
//! them byte-for-byte. A catalog with the retired v1 `COUNTS` layout
//! loads without counts and refuses updates. It also proves the forward
//! path: backfilling
//! analytics (or persisted support counts) into a golden catalog yields
//! a strictly-appended file that round-trips byte-exactly.
//!
//! To regenerate the artifact after an *intended* format change:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test --test catalog_compat
//! ```
//!
//! and review the new bytes like code (the file should only change when
//! the format version does).

use quantrules::analytics::AnalyticsConfig;
use quantrules::core::{Miner, MinerConfig, PartitionSpec};
use quantrules::store::{analytics_from_encoded, section_inventory, Catalog, RankBy, RuleIndex};
use quantrules::table::EncodedTable;

const GOLDEN_PATH: &str = "tests/golden/pre_analytics.qarcat";

/// The deterministic source table the golden catalog was mined from.
fn source_table() -> quantrules::table::Table {
    quantrules::datagen::people_table()
}

/// The mine that produced the golden catalog: people dataset, raw
/// values, thresholds loose enough for a handful of rules.
fn golden_mine_config() -> MinerConfig {
    MinerConfig {
        min_support: 0.4,
        min_confidence: 0.5,
        max_support: 1.0,
        partitioning: PartitionSpec::None,
        interest: None,
        max_itemset_size: 2,
        ..MinerConfig::default()
    }
}

fn golden_bytes() -> Vec<u8> {
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        let out = Miner::new(golden_mine_config())
            .mine(&source_table())
            .expect("golden mine succeeds");
        let bytes = Catalog::from_mining(&out).encode();
        std::fs::write(GOLDEN_PATH, &bytes).expect("write golden catalog");
    }
    std::fs::read(GOLDEN_PATH).unwrap_or_else(|e| {
        panic!("cannot read {GOLDEN_PATH} (regenerate with UPDATE_GOLDEN=1): {e}")
    })
}

/// The frozen pre-analytics catalog loads, answers classic queries, and
/// re-encodes byte-for-byte — old catalogs keep working, unchanged.
#[test]
fn pre_analytics_catalog_loads_and_serves_unchanged() {
    let bytes = golden_bytes();
    let catalog = Catalog::load_bytes(&bytes, None).expect("golden catalog loads");
    assert!(catalog.analytics().is_none(), "artifact predates analytics");
    assert!(!catalog.rules().is_empty());
    assert_eq!(
        catalog.encode(),
        bytes,
        "decode/encode round trip is byte-identical"
    );

    // Exactly the three original sections, every checksum intact.
    let sections = section_inventory(&bytes).expect("walkable");
    assert_eq!(
        sections.iter().map(|s| s.name).collect::<Vec<_>>(),
        ["schema", "rules", "stats"]
    );
    assert!(sections.iter().all(|s| s.crc_ok));

    // Classic queries behave as they always did.
    let index = RuleIndex::build(&catalog, None);
    assert!(!index.has_analytics());
    let all = index.top_k(RankBy::Confidence, catalog.rules().len());
    assert_eq!(all.len(), catalog.rules().len());

    // Analytics-only features refuse with the documented pointer at the
    // backfill path instead of silently misbehaving.
    let mut ids: Vec<u32> = (0..catalog.rules().len() as u32).collect();
    let err = index
        .filter_analytics(&mut ids, Some(1.0), None)
        .expect_err("filters need analytics");
    assert!(err.to_string().contains("qar analyze"), "{err}");
}

/// Backfilling analytics into the golden catalog strictly appends the
/// `ANALYTICS` section — the original bytes are untouched — and the
/// annotated file round-trips byte-exactly with bit-identical floats.
#[test]
fn golden_catalog_backfills_and_round_trips_with_analytics() {
    let bytes = golden_bytes();
    let catalog = Catalog::load_bytes(&bytes, None).expect("golden catalog loads");

    // Re-encode the source data with the catalog's own encoders, the
    // `qar analyze` path.
    let table = source_table();
    assert_eq!(table.num_rows() as u64, catalog.num_rows());
    let encoded =
        EncodedTable::encode(&table, catalog.encoders().to_vec()).expect("source re-encodes");
    let set = analytics_from_encoded(catalog.rules(), &encoded, &AnalyticsConfig::default(), None);

    let annotated = catalog
        .with_analytics(set.clone())
        .expect("analytics attach")
        .encode();
    assert_eq!(
        &annotated[..bytes.len()],
        &bytes[..],
        "annotation strictly appends"
    );
    let sections = section_inventory(&annotated).expect("walkable");
    assert_eq!(
        sections.iter().map(|s| s.name).collect::<Vec<_>>(),
        ["schema", "rules", "stats", "analytics"]
    );
    assert!(sections.iter().all(|s| s.crc_ok));

    let reloaded = Catalog::load_bytes(&annotated, None).expect("annotated loads");
    assert!(reloaded
        .analytics()
        .expect("analytics decoded")
        .bits_eq(&set));
    assert_eq!(
        reloaded.encode(),
        annotated,
        "annotated round trip is byte-identical"
    );

    // The annotated catalog now ranks and filters by the new metrics.
    let index = RuleIndex::build(&reloaded, None);
    assert!(index.has_analytics());
    let by_lift = index.top_k(RankBy::Lift, 3);
    assert!(!by_lift.is_empty());
    let mut ids: Vec<u32> = (0..reloaded.rules().len() as u32).collect();
    index
        .filter_analytics(&mut ids, Some(0.0), Some(1.0))
        .expect("filters work with analytics");
}

/// An OLD reader — simulated by truncating the file at the analytics
/// boundary — sees a valid analytics-less catalog: the trailing-section
/// design means new sections never break old consumers, and this reader
/// skips unknown future sections the same way.
#[test]
fn analytics_section_is_invisible_to_pre_analytics_readers() {
    let bytes = golden_bytes();
    let catalog = Catalog::load_bytes(&bytes, None).expect("golden catalog loads");
    let table = source_table();
    let encoded =
        EncodedTable::encode(&table, catalog.encoders().to_vec()).expect("source re-encodes");
    let set = analytics_from_encoded(catalog.rules(), &encoded, &AnalyticsConfig::default(), None);
    let num_rules = catalog.rules().len();
    let annotated = catalog.with_analytics(set).expect("attach").encode();

    // Truncating at the boundary of the old format's last section yields
    // exactly the golden bytes — i.e. the old reader's view.
    let truncated = &annotated[..golden_bytes().len()];
    let old_view = Catalog::load_bytes(truncated, None).expect("old view loads");
    assert!(old_view.analytics().is_none());
    assert_eq!(old_view.rules().len(), num_rules);
}

const PRE_COUNTS_PATH: &str = "tests/golden/pre_counts.qarcat";

/// The frozen pre-`COUNTS` catalog: the golden mine plus backfilled
/// analytics — the richest file the format could write before persisted
/// support counts existed.
fn pre_counts_bytes() -> Vec<u8> {
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        let out = Miner::new(golden_mine_config())
            .mine(&source_table())
            .expect("golden mine succeeds");
        let encoded = EncodedTable::encode(&source_table(), out.encoded.encoders().to_vec())
            .expect("source re-encodes");
        let set = analytics_from_encoded(&out.rules, &encoded, &AnalyticsConfig::default(), None);
        let bytes = Catalog::from_mining(&out)
            .with_analytics(set)
            .expect("analytics attach")
            .encode();
        std::fs::write(PRE_COUNTS_PATH, &bytes).expect("write golden catalog");
    }
    std::fs::read(PRE_COUNTS_PATH).unwrap_or_else(|e| {
        panic!("cannot read {PRE_COUNTS_PATH} (regenerate with UPDATE_GOLDEN=1): {e}")
    })
}

/// The frozen pre-counts catalog loads with no counts, serves its rules,
/// and re-encodes byte-for-byte — catalogs from before incremental
/// mining keep working, unchanged.
#[test]
fn pre_counts_catalog_loads_and_serves_unchanged() {
    let bytes = pre_counts_bytes();
    let catalog = Catalog::load_bytes(&bytes, None).expect("golden catalog loads");
    assert!(catalog.counts().is_none(), "artifact predates COUNTS");
    assert!(catalog.analytics().is_some(), "artifact carries analytics");
    assert!(!catalog.rules().is_empty());
    assert_eq!(
        catalog.encode(),
        bytes,
        "decode/encode round trip is byte-identical"
    );

    let sections = section_inventory(&bytes).expect("walkable");
    assert_eq!(
        sections.iter().map(|s| s.name).collect::<Vec<_>>(),
        ["schema", "rules", "stats", "analytics"]
    );
    assert!(sections.iter().all(|s| s.crc_ok));
}

/// Backfilling persisted support counts into the golden catalog (the
/// `qar mine --update`-enabling path) strictly appends the `COUNTS`
/// section — the original bytes are untouched — and the counted file
/// round-trips byte-exactly with the tallies intact.
#[test]
fn golden_catalog_backfills_counts_strictly_appended() {
    let bytes = pre_counts_bytes();
    let catalog = Catalog::load_bytes(&bytes, None).expect("golden catalog loads");

    // Re-run the golden mine with count capture; determinism makes its
    // encoders (and so the counts' fingerprint) match the frozen file's.
    let (_, counts) = Miner::new(golden_mine_config())
        .mine_with_counts(&source_table())
        .expect("golden mine succeeds");

    let counted = catalog
        .with_counts(counts.clone())
        .expect("counts attach to the catalog they were mined for")
        .encode();
    assert_eq!(
        &counted[..bytes.len()],
        &bytes[..],
        "counts backfill strictly appends"
    );
    let sections = section_inventory(&counted).expect("walkable");
    assert_eq!(
        sections.iter().map(|s| s.name).collect::<Vec<_>>(),
        ["schema", "rules", "stats", "analytics", "counts"]
    );
    assert!(sections.iter().all(|s| s.crc_ok));

    let reloaded = Catalog::load_bytes(&counted, None).expect("counted catalog loads");
    assert_eq!(
        reloaded.counts(),
        Some(&counts),
        "persisted tallies survive the round trip exactly"
    );
    assert_eq!(
        reloaded.encode(),
        counted,
        "counted round trip is byte-identical"
    );
}

/// An OLD reader — simulated by truncating at the counts boundary —
/// sees exactly the frozen pre-counts catalog: the trailing-section
/// design keeps `COUNTS` invisible to consumers that predate it.
#[test]
fn counts_section_is_invisible_to_pre_counts_readers() {
    let bytes = pre_counts_bytes();
    let catalog = Catalog::load_bytes(&bytes, None).expect("golden catalog loads");
    let num_rules = catalog.rules().len();
    let (_, counts) = Miner::new(golden_mine_config())
        .mine_with_counts(&source_table())
        .expect("golden mine succeeds");
    let counted = catalog.with_counts(counts).expect("attach").encode();

    let truncated = &counted[..bytes.len()];
    let old_view = Catalog::load_bytes(truncated, None).expect("old view loads");
    assert!(old_view.counts().is_none());
    assert!(old_view.analytics().is_some());
    assert_eq!(old_view.rules().len(), num_rules);
    assert_eq!(old_view.encode(), bytes, "old view is the frozen artifact");
}

const COUNTS_V1_PATH: &str = "tests/golden/counts_v1.qarcat";

/// A catalog written with the first `COUNTS` layout (tag 5, which
/// recorded every member of `C_2` with its tally) by the release before
/// pass-2 counts became pair-histogram cells: `qar mine --store` on the
/// people table with the golden mine's thresholds. It loads with no
/// counts, serves the rules a current mine finds, re-encodes as its
/// three mandatory sections, and `qar mine --update` refuses it with the
/// pointer at a re-mine.
#[test]
fn counts_v1_catalog_serves_and_refuses_updates() {
    let bytes = std::fs::read(COUNTS_V1_PATH)
        .unwrap_or_else(|e| panic!("cannot read {COUNTS_V1_PATH}: {e}"));
    let sections = section_inventory(&bytes).expect("walkable");
    assert_eq!(
        sections.iter().map(|s| (s.tag, s.name)).collect::<Vec<_>>(),
        [(1, "schema"), (2, "rules"), (3, "stats"), (5, "counts-v1")]
    );
    assert!(sections.iter().all(|s| s.crc_ok));

    let catalog = Catalog::load_bytes(&bytes, None).expect("v1 catalog loads");
    assert!(catalog.counts().is_none(), "v1 counts are skipped");
    let mut report = Vec::new();
    quantrules::cli::run_store_check(&bytes, &mut report).expect("store-check passes");
    let report = String::from_utf8(report).unwrap();
    for line in [
        "counts-v1 (tag 5):",
        "[skipped]",
        "0 unknown section(s) skipped",
        "v1 counts section skipped",
        "counts: none",
    ] {
        assert!(report.contains(line), "{line:?} missing from:\n{report}");
    }
    let v1_framed = sections[3].len as usize + 16; // tag + len + crc + payload
    assert_eq!(
        catalog.encode(),
        &bytes[..bytes.len() - v1_framed],
        "re-encoding keeps the mandatory sections byte for byte"
    );
    let current = Miner::new(golden_mine_config())
        .mine(&source_table())
        .expect("golden mine succeeds");
    assert_eq!(catalog.rules(), &current.rules[..]);
    let index = RuleIndex::build(&catalog, None);
    let all = index.top_k(RankBy::Confidence, catalog.rules().len());
    assert_eq!(all.len(), catalog.rules().len());

    let delta = std::env::temp_dir().join(format!("qar-v1-delta-{}.csv", std::process::id()));
    std::fs::write(&delta, "Age,Married,NumCars\n23,No,1\n").expect("write delta");
    let args: Vec<String> = [
        "mine",
        "--input",
        delta.to_str().unwrap(),
        "--update",
        COUNTS_V1_PATH,
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let Ok(quantrules::cli::Command::Mine(update)) = quantrules::cli::parse_command(&args) else {
        panic!("`qar mine --update` parses");
    };
    let err = quantrules::cli::run_mine(&update, None, None, &mut Vec::new())
        .expect_err("a v1 catalog cannot be updated");
    std::fs::remove_file(&delta).ok();
    assert!(
        err.to_string().contains("no persisted support counts"),
        "{err}"
    );
}

//! Property tests for the query engine: [`RuleIndex`] answers must match
//! the naive linear-scan reference on arbitrary catalogs and on catalogs
//! produced by a real mine of the planted dataset.

mod common;

use common::arb_catalog;
use qar_core::{Miner, MinerConfig, PartitionSpec};
use qar_datagen::{PlantedConfig, PlantedDataset};
use qar_itemset::Item;
use qar_prng::Prng;
use qar_store::{naive_query_range, naive_query_record, Catalog, RuleIndex};
use qar_table::AttributeKind;

/// A random record in code space: a subset of attributes (sometimes all,
/// sometimes partial, sometimes with out-of-range codes the index must
/// treat as non-matching).
fn arb_record(rng: &mut Prng, catalog: &Catalog) -> Vec<(u32, u32)> {
    let mut record = Vec::new();
    for attr in 0..catalog.schema().len() as u32 {
        if !rng.gen_bool(0.8) {
            continue;
        }
        let card = catalog.encoders()[attr as usize].cardinality();
        // Occasionally one past the end: unknown codes never match.
        record.push((attr, rng.gen_range(0..card + 1)));
    }
    record
}

/// Every item of every rule, either side of the arrow.
fn all_items(catalog: &Catalog) -> impl Iterator<Item = &Item> {
    (catalog.rules().iter())
        .flat_map(|rule| [&rule.antecedent, &rule.consequent])
        .flat_map(|side| side.items())
}

/// [`arb_record`] with each supplied code moved, half the time, onto the
/// `lo` or `hi` of a range item (`lo < hi`) of its attribute, where the
/// inclusive ends of the index's intervals are tested.
fn arb_boundary_record(rng: &mut Prng, catalog: &Catalog) -> Vec<(u32, u32)> {
    let mut record = arb_record(rng, catalog);
    for (attr, code) in &mut record {
        let ends: Vec<u32> = all_items(catalog)
            .filter(|item| item.attr == *attr && item.lo < item.hi)
            .flat_map(|item| [item.lo, item.hi])
            .collect();
        if !ends.is_empty() && rng.gen_bool(0.5) {
            *code = ends[rng.gen_range(0..ends.len())];
        }
    }
    record
}

/// Value ranges on `attr` bounded by the catalog's own items: each item's
/// endpoints as a point range and as one bound of a range whose other
/// bound is random (both bounds are inclusive), and a range strictly
/// inside each gap between two observed values an item spans.
fn boundary_ranges(rng: &mut Prng, catalog: &Catalog, attr: u32) -> Vec<(f64, f64)> {
    let Some(enc) = catalog.encoders().get(attr as usize) else {
        return Vec::new();
    };
    let mut ranges = Vec::new();
    for item in all_items(catalog).filter(|item| item.attr == attr) {
        let Some((lo, hi)) = enc.numeric_bounds(item.lo, item.hi) else {
            continue;
        };
        let below = lo.min(rng.gen_range(-1.0e11..1.0e11));
        let above = hi.max(rng.gen_range(-1.0e11..1.0e11));
        ranges.extend([(lo, lo), (hi, hi), (below, lo), (hi, above), (lo, hi)]);
        for code in item.lo..item.hi {
            let last = enc.numeric_bounds(code, code).expect("quantitative").1;
            let next = enc
                .numeric_bounds(code + 1, code + 1)
                .expect("quantitative")
                .0;
            let (a, b) = (last * 0.75 + next * 0.25, last * 0.25 + next * 0.75);
            if last < a && a <= b && b < next {
                ranges.push((a, b));
            }
        }
    }
    ranges
}

#[test]
fn point_queries_match_naive_scan() {
    qar_prng::cases(48, 0x901147, |case, rng| {
        let catalog = arb_catalog(rng);
        let index = RuleIndex::build(&catalog, None);
        for i in 0..32 {
            let record = if i < 16 {
                arb_record(rng, &catalog)
            } else {
                arb_boundary_record(rng, &catalog)
            };
            let got = index.query_record(&record);
            let want = naive_query_record(&catalog, &record);
            assert_eq!(got, want, "case {case}: record {record:?}");
            // Double-entry check: every reported rule really covers the
            // record.
            for &id in &got {
                let rule = &catalog.rules()[id as usize];
                for item in rule.antecedent.items() {
                    assert!(
                        record
                            .iter()
                            .any(|&(a, c)| a == item.attr && item.matches(c)),
                        "case {case}: rule {id} does not cover {record:?}"
                    );
                }
            }
        }
    });
}

#[test]
fn range_queries_match_naive_scan() {
    qar_prng::cases(48, 0x9A25E, |case, rng| {
        let catalog = arb_catalog(rng);
        let index = RuleIndex::build(&catalog, None);
        for _ in 0..16 {
            let attr = rng.gen_range(0..catalog.schema().len() as u32);
            let a = rng.gen_range(-1.0e11..1.0e11);
            let b = rng.gen_range(-1.0e11..1.0e11);
            let (lo, hi) = (a.min(b), a.max(b));
            assert_eq!(
                index.query_range(attr, lo, hi),
                naive_query_range(&catalog, attr, lo, hi),
                "case {case}: range {attr}={lo}..{hi}"
            );
        }
        for attr in 0..catalog.schema().len() as u32 {
            for (lo, hi) in boundary_ranges(rng, &catalog, attr) {
                assert_eq!(
                    index.query_range(attr, lo, hi),
                    naive_query_range(&catalog, attr, lo, hi),
                    "case {case}: boundary range {attr}={lo}..{hi}"
                );
            }
        }
    });
}

/// The same agreement holds for a catalog captured from an actual mine,
/// with records drawn from the mined table itself (so most queries hit).
#[test]
fn mined_catalog_queries_match_naive_scan() {
    let data = PlantedDataset::generate(PlantedConfig {
        num_records: 2_000,
        seed: 1996,
    });
    let config = MinerConfig {
        min_support: 0.05,
        min_confidence: 0.4,
        max_support: 0.5,
        partitioning: PartitionSpec::FixedIntervals(10),
        interest: None,
        max_itemset_size: 2,
        ..MinerConfig::default()
    };
    let out = Miner::new(config).mine(&data.table).expect("mine");
    let catalog = Catalog::from_mining(&out);
    assert!(!catalog.rules().is_empty(), "planted mine found rules");
    let index = RuleIndex::build(&catalog, None);

    // Records straight from the encoded table rows.
    let encoded = &out.encoded;
    for row in (0..2_000).step_by(37) {
        let record: Vec<(u32, u32)> = catalog
            .schema()
            .iter()
            .map(|(id, _)| (id.index() as u32, encoded.codes(id)[row]))
            .collect();
        assert_eq!(
            index.query_record(&record),
            naive_query_record(&catalog, &record),
            "row {row}"
        );
    }

    // Value-space windows over every quantitative attribute.
    let mut rng = Prng::seed_from_u64(7);
    for (id, def) in catalog.schema().iter() {
        if def.kind() != AttributeKind::Quantitative {
            continue;
        }
        let attr = id.index() as u32;
        for _ in 0..32 {
            let a = rng.gen_range(-50.0..150.0);
            let b = rng.gen_range(-50.0..150.0);
            let (lo, hi) = (a.min(b), a.max(b));
            assert_eq!(
                index.query_range(attr, lo, hi),
                naive_query_range(&catalog, attr, lo, hi),
                "attr {attr} range {lo}..{hi}"
            );
        }
        for (lo, hi) in boundary_ranges(&mut rng, &catalog, attr) {
            assert_eq!(
                index.query_range(attr, lo, hi),
                naive_query_range(&catalog, attr, lo, hi),
                "attr {attr} boundary range {lo}..{hi}"
            );
        }
    }
}

//! The miner's support counting checked against the references of
//! `qar_oracle::reference`: the paper's direct kernel under each backend
//! choice and the brute-force recount, across thread counts, candidate
//! shapes and the kernel's edge geometry, plus pass 2's pair histograms
//! against the brute-force recount.

use qar_core::supercand::{count_candidates, PairHistograms, PassStats, ScanOptions, CELL_BUDGET};
use qar_itemset::{Item, Itemset};
use qar_oracle::reference::{count_candidates_naive, count_direct};
use qar_oracle::CounterKind;
use qar_table::{AttributeId, EncodedTable, Schema, Table, Value};
use std::ops::Range;

/// An uncancellable scan of `cands` under `kernel` on `threads` shards.
fn count(
    enc: &EncodedTable,
    cands: &[Itemset],
    kernel: Kernel,
    threads: usize,
) -> (Vec<u64>, PassStats) {
    match kernel {
        Kernel::Bitmask => count_candidates(enc, cands, ScanOptions::new(threads)).unwrap(),
        Kernel::Direct(pin) => count_direct(enc, cands, pin, threads),
    }
}

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

/// The miner's kernel, and the reference's under the paper's heuristic
/// or a pinned backend.
#[derive(Debug, Clone, Copy)]
enum Kernel {
    Bitmask,
    Direct(Option<CounterKind>),
}

/// Every kernel.
const KERNELS: [Kernel; 4] = [
    Kernel::Bitmask,
    Kernel::Direct(None),
    Kernel::Direct(Some(CounterKind::Array)),
    Kernel::Direct(Some(CounterKind::RTree)),
];

#[test]
fn counts_match_naive() {
    let enc = people();
    let cands = candidates();
    let naive = count_candidates_naive(&enc, &cands);
    for kernel in KERNELS {
        let (fast, stats) = count(&enc, &cands, kernel, 1);
        assert_eq!(fast, naive, "{kernel:?}");
        assert!(stats.super_candidates > 0);
    }
    assert_eq!(naive, vec![2, 2, 2, 3, 2]);
}

#[test]
fn super_candidate_grouping_counts() {
    // Candidates 0 and... candidate 0 (married-Yes + age) and candidate 4
    // (married-No + age) have different categorical parts -> different
    // super-candidates. Candidates 1 & 3... candidate 1 has quant attrs
    // {age, cars}, candidate 3 also {age, cars} and no categorical part
    // -> same super-candidate.
    let enc = people();
    let cands = candidates();
    let (_, stats) = count(&enc, &cands, Kernel::Direct(None), 1);
    // Groups: {age,cars} (cands 1,3), {married=Yes}+{age} (cand 0),
    // {married=Yes}+{cars} (cand 2), {married=No}+{age} (cand 4).
    assert_eq!(stats.super_candidates, 4);
    assert_eq!(stats.array_backed + stats.rtree_backed, 4);
    assert_eq!(stats.kernel, "direct");
}

/// A pinned reference pass builds only the pinned backend, for every
/// super-candidate with a quantitative part, on every shard count.
#[test]
fn pinned_direct_pass_reports_only_its_backend() {
    let (enc, cands) = mixed_wide();
    for kind in [CounterKind::Array, CounterKind::RTree] {
        for threads in [1, 3] {
            let (_, stats) = count(&enc, &cands, Kernel::Direct(Some(kind)), threads);
            let (pinned, other) = match kind {
                CounterKind::Array => (stats.array_backed, stats.rtree_backed),
                CounterKind::RTree => (stats.rtree_backed, stats.array_backed),
            };
            // 7 codes × 2 attribute sets and 2 purely quantitative
            // groups have a backend; the purely categorical plan has
            // none.
            assert_eq!((pinned, other), (stats.super_candidates - 1, 0), "{kind:?}");
            assert!(stats.hash_tree_nodes > 0);
            assert_eq!(stats.kernel, "direct");
        }
    }
}

#[test]
fn purely_categorical_candidates() {
    let schema = Schema::builder()
        .categorical("a")
        .categorical("b")
        .build()
        .unwrap();
    let mut t = Table::new(schema);
    for (a, b) in [("x", "u"), ("x", "v"), ("y", "u"), ("x", "u")] {
        t.push_row(&[Value::from(a), Value::from(b)]).unwrap();
    }
    let enc = EncodedTable::encode_full_resolution(&t).unwrap();
    let cands: Vec<Itemset> = vec![
        vec![Item::value(0, 0), Item::value(1, 0)]
            .into_iter()
            .collect(), // x,u
        vec![Item::value(0, 1), Item::value(1, 0)]
            .into_iter()
            .collect(), // y,u
    ];
    for kernel in KERNELS {
        let (counts, stats) = count(&enc, &cands, kernel, 1);
        assert_eq!(counts, vec![2, 1]);
        assert_eq!(stats.array_backed + stats.rtree_backed, 0);
    }
}

#[test]
fn purely_quantitative_candidates_always_match_group() {
    let schema = Schema::builder()
        .quantitative("x")
        .quantitative("y")
        .build()
        .unwrap();
    let mut t = Table::new(schema);
    for (x, y) in [(1, 1), (2, 2), (3, 3), (4, 4)] {
        t.push_row(&[Value::Int(x), Value::Int(y)]).unwrap();
    }
    let enc = EncodedTable::encode_full_resolution(&t).unwrap();
    let cands: Vec<Itemset> = vec![
        vec![Item::range(0, 0, 1), Item::range(1, 0, 1)]
            .into_iter()
            .collect(),
        vec![Item::range(0, 2, 3), Item::range(1, 2, 3)]
            .into_iter()
            .collect(),
        vec![Item::range(0, 0, 3), Item::range(1, 0, 0)]
            .into_iter()
            .collect(),
    ];
    for kernel in KERNELS {
        let (counts, stats) = count(&enc, &cands, kernel, 1);
        assert_eq!(counts, vec![2, 2, 1]);
        assert_eq!(stats.super_candidates, 1, "one quant attr set");
    }
}

/// Every thread count yields the serial counts exactly, across
/// kernels and backends.
#[test]
fn sharded_counts_equal_serial_for_all_thread_counts() {
    let enc = people();
    let cands = candidates();
    for kernel in KERNELS {
        let (serial, _) = count(&enc, &cands, kernel, 1);
        for threads in [2, 3, 4, 5, 8, 64] {
            let (sharded, stats) = count(&enc, &cands, kernel, threads);
            assert_eq!(sharded, serial, "{kernel:?} threads={threads}");
            // 5 rows: at most 5 shards regardless of the request.
            assert!(stats.num_shards() <= 5);
            assert_eq!(stats.shard_scan_times.len(), stats.num_shards());
        }
    }
}

/// A duplicate-heavy categorical table: 2 categorical attributes with
/// 2–3 labels over many rows, so a few distinct tuples cover all rows.
fn duplicate_heavy() -> EncodedTable {
    let schema = Schema::builder()
        .categorical("c0")
        .categorical("c1")
        .quantitative("q")
        .build()
        .unwrap();
    let mut t = Table::new(schema);
    for i in 0..60i64 {
        let c0 = ["a", "b"][(i % 2) as usize];
        let c1 = ["u", "v", "w"][(i % 3) as usize];
        t.push_row(&[Value::from(c0), Value::from(c1), Value::Int(i % 5)])
            .unwrap();
    }
    EncodedTable::encode_full_resolution(&t).unwrap()
}

fn duplicate_heavy_candidates() -> Vec<Itemset> {
    let mut cands: Vec<Itemset> = Vec::new();
    for c0 in 0..2u32 {
        for c1 in 0..3u32 {
            cands.push(
                vec![Item::value(0, c0), Item::value(1, c1)]
                    .into_iter()
                    .collect(),
            );
            cands.push(
                vec![Item::value(0, c0), Item::value(1, c1), Item::range(2, 0, 2)]
                    .into_iter()
                    .collect(),
            );
        }
        cands.push(
            vec![Item::value(0, c0), Item::range(2, 1, 4)]
                .into_iter()
                .collect(),
        );
    }
    cands
}

/// Both kernels are bit-identical to the naive reference, for every
/// thread count, and report what counted in [`PassStats::kernel`].
#[test]
fn every_kernel_equals_naive_for_all_thread_counts() {
    let enc = duplicate_heavy();
    let cands = duplicate_heavy_candidates();
    let naive = count_candidates_naive(&enc, &cands);
    for threads in [1, 2, 4, 7] {
        for (kernel, name) in [
            (Kernel::Direct(None), "direct"),
            (Kernel::Bitmask, "cells+bitmask"),
        ] {
            let (counts, stats) = count(&enc, &cands, kernel, threads);
            assert_eq!(counts, naive, "threads={threads} {kernel:?}");
            assert_eq!(stats.kernel, name);
        }
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

/// The bitmask kernel matches the direct kernel and the naive
/// reference bit-for-bit across thread counts on a table whose blocks
/// hit the tail, pre-screen, and degenerate-rectangle paths.
#[test]
fn bitmask_matches_direct_on_mixed_wide_table() {
    let (enc, cands) = mixed_wide();
    let naive = count_candidates_naive(&enc, &cands);
    let (direct, _) = count(&enc, &cands, Kernel::Direct(None), 1);
    assert_eq!(direct, naive);
    for threads in [1, 2, 3, 8] {
        let (counts, stats) = count(&enc, &cands, Kernel::Bitmask, threads);
        assert_eq!(counts, naive, "threads={threads}");
        assert_eq!(stats.kernel, "cells+bitmask");
        assert_eq!(stats.pooled, threads > 1, "threads={threads}");
    }
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

/// Count `cands` with the default kernel on 1, 2, 5 and 16 shards,
/// each equal to the reference kernel and the naive recount; returns
/// the serial pass's statistics.
fn default_equals_direct_and_naive(enc: &EncodedTable, cands: &[Itemset]) -> PassStats {
    let naive = count_candidates_naive(enc, cands);
    let (direct, _) = count(enc, cands, Kernel::Direct(None), 1);
    assert_eq!(direct, naive, "direct");
    let (serial, stats) = count(enc, cands, Kernel::Bitmask, 1);
    assert_eq!(serial, naive, "threads=1");
    for threads in [2, 5, 16] {
        let (counts, sharded) = count(enc, cands, Kernel::Bitmask, threads);
        assert_eq!(counts, naive, "threads={threads}");
        assert_eq!(sharded.kernel, stats.kernel, "threads={threads}");
        assert_eq!(sharded.shard_scan_times.len(), sharded.num_shards());
    }
    stats
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

/// Member rectangles reaching code 0 and the top code of each
/// dimension: the first and last gaps hold real codes, and a member
/// spanning the whole domain leaves the discard slot empty.
#[test]
fn cells_count_rectangles_at_both_domain_edges() {
    let enc = table_of(&[(true, 9), (true, 7)], 1500, |r, a| {
        (r * (3 + a) + r / 7) as u32
    });
    let cands: Vec<Itemset> = [(0, 8, 0, 6), (0, 0, 6, 6), (8, 8, 0, 0), (0, 3, 2, 6)]
        .iter()
        .map(|&(alo, ahi, blo, bhi)| {
            Itemset::new(vec![Item::range(0, alo, ahi), Item::range(1, blo, bhi)])
        })
        .collect();
    let stats = default_equals_direct_and_naive(&enc, &cands);
    assert_eq!((stats.kernel.as_str(), stats.array_backed), ("cells", 1));
}

/// Codes outside every member land in the discard slot and count for
/// no member: members cover only the middle of each domain, with
/// uncovered gaps between them.
#[test]
fn cells_discard_codes_outside_every_member() {
    let enc = table_of(&[(true, 20), (true, 12), (true, 6)], 2100, |r, a| {
        (r * (5 + 2 * a) + r / 11) as u32
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
    let stats = default_equals_direct_and_naive(&enc, &cands);
    assert_eq!((stats.kernel.as_str(), stats.array_backed), ("cells", 1));
}

/// Plans with a categorical item (or two) and two or three range
/// dimensions: the categorical items filter rows into the sink, and
/// plans sharing range attributes but not categorical items keep
/// separate cells.
#[test]
fn cells_filter_rows_by_categorical_items() {
    let attrs = [(false, 3), (true, 8), (false, 2), (true, 5), (true, 4)];
    let enc = table_of(&attrs, 2600, |r, a| (r * (1 + a) + r / (3 + a)) as u32);
    let mut cands = Vec::new();
    for c in 0..3u32 {
        for (lo, hi) in [(0, 2), (1, 7), (5, 7)] {
            cands.push(Itemset::new(vec![
                Item::value(0, c),
                Item::range(1, lo, hi),
                Item::range(3, 1, 3),
            ]));
            cands.push(Itemset::new(vec![
                Item::value(0, c),
                Item::range(1, lo, hi),
                Item::value(2, c % 2),
                Item::range(3, 0, 4),
                Item::range(4, c, 3),
            ]));
        }
    }
    let stats = default_equals_direct_and_naive(&enc, &cands);
    assert_eq!(stats.kernel, "cells");
    assert_eq!(stats.array_backed, stats.super_candidates);
    assert_eq!(stats.super_candidates, 6);
}

/// 3 dimensions with 205 breakpoints each (205³ cells) exceed the
/// cell budget: that plan falls back to range masks, with the same
/// counts; alone it is a bitmask pass, beside a plan that fits it is
/// a mixed one.
#[test]
fn over_budget_plans_fall_back_to_bitmask() {
    let attrs = [(true, 240), (true, 230), (true, 220), (true, 4)];
    let enc = table_of(&attrs, 1100, |r, a| (r * (7 + a) + r / 5) as u32);
    let big: Vec<Itemset> = (0..204u32)
        .map(|i| {
            Itemset::new(vec![
                Item::range(0, i, i),
                Item::range(1, i, i + 3),
                Item::range(2, 0, i),
            ])
        })
        .collect();
    assert!(205usize.pow(3) > CELL_BUDGET);
    let stats = default_equals_direct_and_naive(&enc, &big);
    assert_eq!((stats.kernel.as_str(), stats.array_backed), ("bitmask", 0));

    let mut mixed = big;
    mixed.push(Itemset::new(vec![
        Item::range(0, 3, 90),
        Item::range(3, 1, 2),
    ]));
    let stats = default_equals_direct_and_naive(&enc, &mixed);
    assert_eq!(stats.kernel, "cells+bitmask");
    assert_eq!((stats.super_candidates, stats.array_backed), (2, 1));
}

#[test]
fn pair_histograms_answer_every_rectangle() {
    // age (3 codes) × cars (3 codes) over the five people rows.
    let enc = people();
    let mut hist = PairHistograms::new(&enc, vec![(0, 2), (1, 2)]);
    hist.scan(&enc, ScanOptions::new(1)).unwrap();
    assert_eq!(hist.cells().len(), 5 * 3 + 2 * 3);
    assert_eq!(
        hist.cells().iter().sum::<u64>(),
        10,
        "each row once per pair"
    );
    let raw = hist.clone();
    hist.build_prefix_sums();
    for (p, &(a, b)) in raw.pairs().iter().enumerate() {
        let (ca, cb) = (
            enc.cardinality(AttributeId(a as usize)),
            enc.cardinality(AttributeId(b as usize)),
        );
        for (alo, ahi) in (0..ca).flat_map(|lo| (lo..ca).map(move |hi| (lo, hi))) {
            for (blo, bhi) in (0..cb).flat_map(|lo| (lo..cb).map(move |hi| (lo, hi))) {
                let cand = Itemset::new(vec![Item::range(a, alo, ahi), Item::range(b, blo, bhi)]);
                let naive = count_candidates_naive(&enc, std::slice::from_ref(&cand))[0];
                let got = hist.rect_sum(p, Item::range(a, alo, ahi), Item::range(b, blo, bhi));
                assert_eq!(got, naive, "{cand}");
            }
        }
    }
}

/// Property: rectangle sums over pair histograms — scanned whole on
/// one or three shards, or over a table split at a random row and
/// merged pair by pair — equal the naive recount of random value,
/// range and span 2-itemsets on random categorical and quantitative
/// tables.
#[test]
fn pair_histograms_equal_naive_property() {
    qar_prng::cases(64, 0x5EED_4242_0012, |case, rng| {
        let num_attrs = rng.gen_range(2usize..6);
        let attrs: Vec<(bool, u32)> = (0..num_attrs)
            .map(|_| (rng.gen_bool(0.5), rng.gen_range(1u32..10)))
            .collect();
        let rows = *rng.choose(&[0usize, 1, 63, 64, 65, 200]).unwrap();
        let columns: Vec<Vec<u32>> = attrs
            .iter()
            .map(|&(_, card)| {
                (0..rows)
                    .map(|_| match rng.gen_range(0u32..3) {
                        0 => 0,
                        1 => card - 1,
                        _ => rng.gen_range(0..card),
                    })
                    .collect()
            })
            .collect();
        let table = coded_table(&attrs, columns, rows);

        // Random value, range and span items on random attribute pairs.
        let item = |rng: &mut qar_prng::Prng, attr: usize| {
            let card = attrs[attr].1;
            let lo = rng.gen_range(0..card);
            let hi = if rng.gen_bool(0.5) {
                lo
            } else {
                rng.gen_range(lo..card)
            };
            Item::range(attr as u32, lo, hi)
        };
        let candidates: Vec<Itemset> = (0..rng.gen_range(1usize..40))
            .map(|_| {
                let a = rng.gen_range(0..num_attrs - 1);
                let b = rng.gen_range(a + 1..num_attrs);
                Itemset::new(vec![item(rng, a), item(rng, b)])
            })
            .collect();
        let naive = count_candidates_naive(&table, &candidates);

        let mut pairs: Vec<(u32, u32)> = candidates
            .iter()
            .map(|c| (c.items()[0].attr, c.items()[1].attr))
            .collect();
        pairs.sort_unstable();
        pairs.dedup();
        let cut = rng.gen_range(0..rows + 1);
        let (left, right) = (slice_rows(&table, 0..cut), slice_rows(&table, cut..rows));
        let mut split = PairHistograms::new(&table, pairs.clone());
        split.scan(&left, ScanOptions::new(1)).unwrap();
        let mut tail = PairHistograms::new(&table, pairs.clone());
        tail.scan(&right, ScanOptions::new(2)).unwrap();
        for p in 0..pairs.len() {
            split.merge_pair_cells(p, tail.pair_cells(p));
        }
        for (name, mut hist) in [("split", split)]
            .into_iter()
            .chain([1usize, 3].map(|threads| {
                let mut whole = PairHistograms::new(&table, pairs.clone());
                whole.scan(&table, ScanOptions::new(threads)).unwrap();
                ("whole", whole)
            }))
        {
            hist.build_prefix_sums();
            let got: Vec<u64> = candidates
                .iter()
                .map(|c| {
                    let [a, b] = c.items() else { unreachable!() };
                    let p = pairs.binary_search(&(a.attr, b.attr)).unwrap();
                    hist.rect_sum(p, *a, *b)
                })
                .collect();
            assert_eq!(got, naive, "case {case}: {name}, cut {cut}");
        }

        // Two partitions' raw histograms merge into the whole table's.
        let pairs: Vec<(u32, u32)> = (0..num_attrs as u32 - 1).map(|a| (a, a + 1)).collect();
        let mut whole = PairHistograms::new(&table, pairs.clone());
        whole.scan(&table, ScanOptions::new(2)).unwrap();
        let mut merged = PairHistograms::new(&table, pairs.clone());
        merged.scan(&left, ScanOptions::new(1)).unwrap();
        let mut other = PairHistograms::new(&table, pairs);
        other.scan(&right, ScanOptions::new(1)).unwrap();
        merged.merge(&other);
        assert_eq!(merged, whole, "case {case}: cut {cut}");
    });
}

//! Scan-kernel throughput benchmark: the support-counting record scan
//! measured serial vs sharded (labelled `pooled`) for the miner's bitmask
//! kernel (`count_candidates`) and the paper's direct kernel
//! (`qar_oracle::reference::count_direct`), on two tables that bracket
//! the scan's behavior:
//!
//! * **duplicate-heavy** — 3 low-cardinality categorical attributes
//!   (24 distinct tuples cover every row) + 1 small quantitative: every
//!   row repeats one of a few categorical tuples;
//! * **all-distinct** — every row's categorical tuple is unique, so no
//!   per-tuple work can be shared across rows.
//!
//! Usage: `cargo run --release -p qar-bench --bin scan_kernel
//! [records] [--seed S]`
//!
//! `--seed` rotates the deterministic table layouts (default 0 keeps the
//! historical tables bit-for-bit), so a floor violation can be replayed
//! on the exact offending table.
//!
//! Each measurement prints the human harness line plus one JSON line
//! (`rows_per_sec` extra). The whole suite is also written as a single
//! JSON document to `BENCH_scan.json` (override the path with
//! `QAR_BENCH_OUT`) — the committed copy at the repo root is the
//! baseline future perf work diffs against. Exit is non-zero when the
//! pooled bitmask scan falls below the throughput floor, or below its
//! speedup or ratio floors against the direct scan on either table.

use qar_bench::harness::{bench, json_line};
use qar_core::supercand::{count_candidates, ScanOptions};
use qar_itemset::{Item, Itemset};
use qar_oracle::reference::count_direct;
use qar_table::{EncodedTable, Schema, Table, Value};

/// Shard threads for the pooled measurements (the acceptance criteria are
/// stated at 4 threads).
const THREADS: usize = 4;

/// Floors enforced on exit (chosen well under the committed baseline so
/// machine variance in CI cannot trip them spuriously):
/// pooled bitmask rows/sec on the duplicate-heavy table…
const FLOOR_ROWS_PER_SEC: f64 = 1_000_000.0;
/// …pooled bitmask/direct speedup there…
const FLOOR_DUP_SPEEDUP: f64 = 1.4;
/// …the pooled bitmask/direct ratio on the all-distinct worst case…
const FLOOR_DISTINCT_RATIO: f64 = 0.80;
/// …and the bitmask/direct serial speedup on the all-distinct worst
/// case. The issue floor is ≥ 3× the committed 14.4M rows/s direct
/// baseline; measuring against the same run's direct scan makes the
/// ratio machine-independent, so the floor holds on slower CI hosts too.
const FLOOR_BITMASK_SPEEDUP: f64 = 3.0;

/// Maximum rows before the all-distinct table's tuples would repeat.
const DISTINCT_SPAN: usize = 59 * 61 * 57;

/// The duplicate-heavy table: c0 × c1 × c2 cycle through 2 × 3 × 4
/// labels (24 distinct categorical tuples regardless of row count) and
/// q cycles through 5 values. `seed` rotates the starting phase.
fn duplicate_heavy(rows: usize, seed: u64) -> EncodedTable {
    let schema = Schema::builder()
        .categorical("c0")
        .categorical("c1")
        .categorical("c2")
        .quantitative("q")
        .build()
        .expect("static schema");
    let mut t = Table::new(schema);
    let c0 = ["a", "b"];
    let c1 = ["u", "v", "w"];
    let c2 = ["p", "q", "r", "s"];
    for i in 0..rows {
        let j = i.wrapping_add(seed as usize);
        t.push_row(&[
            Value::from(c0[j % c0.len()]),
            Value::from(c1[j % c1.len()]),
            Value::from(c2[j % c2.len()]),
            Value::Int((j % 5) as i64),
        ])
        .expect("row matches schema");
    }
    EncodedTable::encode_full_resolution(&t).expect("encode")
}

/// The all-distinct worst case: three coprime-cardinality categorical
/// attributes whose combined tuple is unique for every row up to
/// 59 × 61 × 57 ≈ 205k. `seed`
/// rotates through the tuple space (i ↦ i + seed is injective, so the
/// tuples stay pairwise distinct for any seed).
fn all_distinct(rows: usize, seed: u64) -> EncodedTable {
    assert!(rows <= DISTINCT_SPAN, "tuples would repeat");
    let schema = Schema::builder()
        .categorical("c0")
        .categorical("c1")
        .categorical("c2")
        .quantitative("q")
        .build()
        .expect("static schema");
    let mut t = Table::new(schema);
    for i in 0..rows {
        let j = (i + (seed as usize % DISTINCT_SPAN)) % DISTINCT_SPAN;
        t.push_row(&[
            Value::from(format!("v{}", j % 59)),
            Value::from(format!("v{}", (j / 59) % 61)),
            Value::from(format!("v{}", (j / (59 * 61)) % 57)),
            Value::Int((j % 5) as i64),
        ])
        .expect("row matches schema");
    }
    EncodedTable::encode_full_resolution(&t).expect("encode")
}

/// A fixed candidate set over the first few codes of each categorical
/// attribute plus quant-range supersets — enough hash-tree depth and
/// rectangle work that the scan resembles a real pass `k ≥ 2`.
fn candidates(encoded: &EncodedTable) -> Vec<Itemset> {
    let card = |attr: usize| {
        encoded
            .encoder(qar_table::AttributeId(attr))
            .cardinality()
            .min(4)
    };
    let (n0, n1, n2) = (card(0), card(1), card(2));
    let mut out = Vec::new();
    for a in 0..n0 {
        for b in 0..n1 {
            out.push(Itemset::new(vec![Item::value(0, a), Item::value(1, b)]));
            for c in 0..n2 {
                out.push(Itemset::new(vec![
                    Item::value(0, a),
                    Item::value(1, b),
                    Item::value(2, c),
                ]));
            }
        }
    }
    // Mixed categorical + quantitative candidates exercise the rect
    // counters behind the tree walk.
    for a in 0..n0 {
        for (lo, hi) in [(0u32, 1u32), (1, 3), (0, 4)] {
            out.push(Itemset::new(vec![
                Item::value(0, a),
                Item::range(3, lo, hi),
            ]));
        }
    }
    out
}

struct Measurement {
    label: String,
    json: String,
    rows_per_sec: f64,
}

/// Time one scan configuration and return its JSON line + throughput.
fn measure(
    table_name: &str,
    encoded: &EncodedTable,
    cands: &[Itemset],
    threads: usize,
    kernel: &str,
) -> Measurement {
    let rows = encoded.num_rows() as f64;
    let exec = if threads == 1 {
        "serial".to_string()
    } else {
        format!("pooled{threads}")
    };
    let label = format!("{table_name} {exec} {kernel}");
    let sample = bench(&label, || match kernel {
        "direct" => count_direct(encoded, cands, None, threads).0,
        "bitmask" => {
            count_candidates(encoded, cands, ScanOptions::new(threads))
                .expect("no cancel token")
                .0
        }
        other => unreachable!("no kernel named {other}"),
    });
    let rows_per_sec = rows / sample.median.as_secs_f64();
    let json = json_line(
        &label,
        &sample,
        &[("rows_per_sec", rows_per_sec), ("threads", threads as f64)],
    );
    println!("{json}");
    Measurement {
        label,
        json,
        rows_per_sec,
    }
}

/// `[records] [--seed S]`: an optional positional record count and an
/// optional table seed (0 keeps the historical layouts).
fn parse_args(default_records: usize) -> (usize, u64) {
    let mut records = default_records;
    let mut seed = 0u64;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        if argv[i] == "--seed" {
            seed = argv
                .get(i + 1)
                .and_then(|s| s.parse().ok())
                .unwrap_or_else(|| {
                    eprintln!("scan_kernel: --seed needs an unsigned integer");
                    std::process::exit(2);
                });
            i += 2;
        } else {
            if let Ok(n) = argv[i].parse() {
                records = n;
            }
            i += 1;
        }
    }
    (records, seed)
}

fn main() {
    let (records, seed) = parse_args(200_000);

    let mut results: Vec<Measurement> = Vec::new();
    let mut suite = Vec::new();
    for (name, encoded) in [
        ("dup_heavy", duplicate_heavy(records, seed)),
        (
            "all_distinct",
            all_distinct(records.min(DISTINCT_SPAN), seed),
        ),
    ] {
        let cands = candidates(&encoded);
        println!(
            "\n{name}: {} rows, {} candidates (seed {seed})",
            encoded.num_rows(),
            cands.len()
        );
        for threads in [1, THREADS] {
            for kernel in ["direct", "bitmask"] {
                results.push(measure(name, &encoded, &cands, threads, kernel));
            }
        }
        suite.push((name, results.split_off(0)));
    }

    fn find<'m>(rs: &'m [Measurement], needle: &str) -> &'m Measurement {
        rs.iter()
            .find(|m| m.label.contains(needle))
            .expect("measurement present")
    }
    let dup = &suite[0].1;
    let distinct = &suite[1].1;
    let pooled_bitmask = format!("pooled{THREADS} bitmask");
    let pooled_direct = format!("pooled{THREADS} direct");
    let dup_bitmask_4t = find(dup, &pooled_bitmask).rows_per_sec;
    let dup_direct_4t = find(dup, &pooled_direct).rows_per_sec;
    let distinct_bitmask_4t = find(distinct, &pooled_bitmask).rows_per_sec;
    let distinct_direct_4t = find(distinct, &pooled_direct).rows_per_sec;
    let distinct_direct_1t = find(distinct, "serial direct").rows_per_sec;
    let distinct_bitmask_1t = find(distinct, "serial bitmask");
    let dup_speedup = dup_bitmask_4t / dup_direct_4t;
    let distinct_ratio = distinct_bitmask_4t / distinct_direct_4t;
    let bitmask_speedup = distinct_bitmask_1t.rows_per_sec / distinct_direct_1t;

    // Assemble the committed baseline document: suite metadata, every
    // per-measurement JSON object, and the acceptance ratios.
    let mut doc = String::from("{\"suite\":\"scan_kernel\"");
    doc.push_str(&format!(
        ",\"records\":{records},\"threads\":{THREADS},\"seed\":{seed}"
    ));
    doc.push_str(&format!(
        ",\"dup_bitmask_speedup_4t\":{dup_speedup:.4},\"distinct_bitmask_ratio_4t\":{distinct_ratio:.4}"
    ));
    doc.push_str(&format!(
        ",\"distinct_bitmask_speedup_1t\":{bitmask_speedup:.4}"
    ));
    doc.push_str(",\"results\":[");
    let all: Vec<&str> = suite
        .iter()
        .flat_map(|(_, rs)| rs.iter().map(|m| m.json.as_str()))
        .collect();
    doc.push_str(&all.join(","));
    doc.push_str("]}");
    let out_path = std::env::var("QAR_BENCH_OUT").unwrap_or_else(|_| "BENCH_scan.json".to_string());
    std::fs::write(&out_path, format!("{doc}\n")).expect("write bench JSON");

    println!(
        "\nduplicate-heavy @{THREADS}t: bitmask {dup_bitmask_4t:.0} rows/s vs direct \
         {dup_direct_4t:.0} rows/s ({dup_speedup:.2}x, floor {FLOOR_DUP_SPEEDUP}x)"
    );
    println!(
        "all-distinct  @{THREADS}t: bitmask {distinct_bitmask_4t:.0} rows/s vs direct \
         {distinct_direct_4t:.0} rows/s (ratio {distinct_ratio:.2}, floor {FLOOR_DISTINCT_RATIO})"
    );
    println!(
        "all-distinct  @1t: bitmask {:.0} rows/s vs direct {distinct_direct_1t:.0} rows/s \
         ({bitmask_speedup:.2}x, floor {FLOOR_BITMASK_SPEEDUP}x)",
        distinct_bitmask_1t.rows_per_sec
    );
    println!("wrote {out_path}");

    let mut failed = false;
    if dup_bitmask_4t < FLOOR_ROWS_PER_SEC {
        eprintln!("scan_kernel: bitmask pooled scan below {FLOOR_ROWS_PER_SEC} rows/sec");
        failed = true;
    }
    if dup_speedup < FLOOR_DUP_SPEEDUP {
        eprintln!(
            "scan_kernel: bitmask pooled speedup {dup_speedup:.2}x below {FLOOR_DUP_SPEEDUP}x \
             on the duplicate-heavy case"
        );
        failed = true;
    }
    if distinct_ratio < FLOOR_DISTINCT_RATIO {
        eprintln!(
            "scan_kernel: bitmask pooled scan regresses the all-distinct case \
             ({distinct_ratio:.2} < {FLOOR_DISTINCT_RATIO})"
        );
        failed = true;
    }
    if bitmask_speedup < FLOOR_BITMASK_SPEEDUP {
        eprintln!(
            "scan_kernel: bitmask kernel speedup {bitmask_speedup:.2}x below \
             {FLOOR_BITMASK_SPEEDUP}x on the all-distinct case; failing record: {}",
            distinct_bitmask_1t.json
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}

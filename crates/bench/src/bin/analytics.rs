//! Rule-quality analytics benchmark: mines a planted ruleset, then times
//! the analytics pass two ways — with one Shapley sample per rule, which
//! is the closed-form measures (lift, conviction, leverage, chi² + p,
//! J-measure, BH correction) as rules/sec, and with [`SAMPLES`] samples
//! per rule, the Monte-Carlo Shapley attribution as samples/sec.
//!
//! Usage: `cargo run --release -p qar-bench --bin analytics`
//!
//! It takes no arguments. `QAR_BENCH_QUICK` mines 1,000 records instead
//! of 5,000 and keeps the best of 2 runs instead of 5. The summary is one
//! JSON line written to `BENCH_analytics.json` (override the path with
//! `QAR_BENCH_OUT`); the committed copy at the repo root is the baseline.
//! Exit is non-zero when the closed-form measures fall below
//! [`FLOOR_RULES_PER_SEC`].

use std::time::Instant;

use qar_analytics::AnalyticsConfig;
use qar_core::{Miner, MinerConfig, PartitionSpec};
use qar_datagen::{PlantedConfig, PlantedDataset};
use qar_store::analytics_from_mining;

/// Planted records mined into the benchmark ruleset.
const RECORDS: usize = 5_000;
/// The same under `QAR_BENCH_QUICK`.
const QUICK_RECORDS: usize = 1_000;
/// Shapley permutations per rule in the attribution timing.
const SAMPLES: u32 = 64;
/// Closed-form rules/sec floor, ~30x under the committed baseline so
/// machine variance cannot trip it.
const FLOOR_RULES_PER_SEC: f64 = 50_000.0;

fn main() {
    let quick = std::env::var_os("QAR_BENCH_QUICK").is_some();
    let (records, iters) = if quick {
        (QUICK_RECORDS, 2)
    } else {
        (RECORDS, 5)
    };

    let data = PlantedDataset::generate(PlantedConfig {
        num_records: records,
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
    let result = Miner::new(config)
        .mine(&data.table)
        .expect("benchmark mine");
    let rules = result.rules.len();
    assert!(rules > 0, "benchmark mine produced no rules");

    // Best-of-N wall time for one full analytics computation at the
    // given sampling level. One Shapley sample is the computation's
    // floor (samples are clamped to >= 1), so that run times the
    // closed-form measures; the delta to the full-sampling run is
    // attribution work.
    let time_at = |samples: u32| -> f64 {
        let config = AnalyticsConfig {
            shapley_samples: samples,
            ..AnalyticsConfig::default()
        };
        let mut best = f64::INFINITY;
        for _ in 0..iters {
            let start = Instant::now();
            let set = analytics_from_mining(&result, &config, None);
            best = best.min(start.elapsed().as_secs_f64());
            std::hint::black_box(set);
        }
        best
    };
    let closed_s = time_at(1);
    let shapley_s = time_at(SAMPLES);

    let rules_per_sec = rules as f64 / closed_s.max(1e-9);
    let total_samples = rules as u64 * SAMPLES as u64;
    let samples_per_sec = total_samples as f64 / shapley_s.max(1e-9);

    println!("{rules} rule(s) from {records} planted record(s); best of {iters} run(s)");
    println!(
        "closed-form measures: {rules_per_sec:.0} rules/sec ({:.3}ms per pass)",
        closed_s * 1e3
    );
    println!(
        "Shapley attribution: {samples_per_sec:.0} samples/sec \
         ({SAMPLES} samples/rule, {:.3}ms per pass)",
        shapley_s * 1e3
    );

    let json = format!(
        "{{\"suite\":\"bench_analytics\",\"records\":{records},\"rules\":{rules},\
         \"samples\":{SAMPLES},\"closed_form_rules_per_sec\":{rules_per_sec:.1},\
         \"shapley_samples_per_sec\":{samples_per_sec:.1},\"closed_form_s\":{closed_s:.6},\
         \"shapley_s\":{shapley_s:.6},\"floor\":{FLOOR_RULES_PER_SEC:.1}}}"
    );
    let out_path =
        std::env::var("QAR_BENCH_OUT").unwrap_or_else(|_| "BENCH_analytics.json".to_string());
    std::fs::write(&out_path, format!("{json}\n")).expect("write bench JSON");
    println!("wrote {out_path}");

    if rules_per_sec < FLOOR_RULES_PER_SEC {
        eprintln!(
            "analytics: closed-form measures at {rules_per_sec:.0} rules/sec, \
             below the {FLOOR_RULES_PER_SEC} floor"
        );
        std::process::exit(1);
    }
}

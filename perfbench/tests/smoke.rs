//! Keeps the benchmark from rotting without a `qar` binary: the explore
//! workload in process on a small table, the span maths over a real mine,
//! `compare` on fixture result files, and `BENCHMARK.json` against the
//! metrics and workloads the code reports.

use std::path::PathBuf;
use std::time::Instant;

use perfbench::compare;
use perfbench::report::{Outcome, END_TO_END, PER_LAYER};
use perfbench::spans::SpanRecorder;
use perfbench::timed::TimedSource;
use perfbench::workloads::explore::{check_ladders, ladder, run_ladders};
use perfbench::workloads::{CREDIT_SPEC, WORKLOADS};
use qar_core::{mine_source_captured, InMemorySource};
use qar_datagen::{CreditConfig, CreditDataset};
use qar_table::EncodedTable;
use qar_trace::json::{self, Json};

fn credit(rows: usize) -> qar_table::Table {
    CreditDataset::generate(CreditConfig {
        num_records: rows,
        seed: 3,
        ..CreditConfig::default()
    })
    .table
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("perfbench-smoke-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn explore_workload_runs_and_passes_its_gates_at_5k_rows() {
    let runs = run_ladders(&credit(5_000), 0.0, 2).unwrap();
    assert_eq!(runs.len(), 2);
    assert_eq!(runs[0].steps.len(), ladder().len());
    let mut out = Outcome::default();
    check_ladders(&runs, &mut out);
    assert!(out.correct(), "{:?}", out.failures);
    assert_eq!(out.attempted, 4);
}

#[test]
fn timed_pipeline_spans_cover_the_mine() {
    let table = credit(5_000);
    let config = CREDIT_SPEC.miner_config(2);
    let (encoders, _) = qar_core::pipeline::build_encoders(&table, &config).unwrap();
    let encoded = EncodedTable::encode(&table, encoders).unwrap();
    let mut rec = SpanRecorder::new();
    let root = rec.begin("pipeline");
    let mut timed = TimedSource::new(InMemorySource::new(&encoded, &config));
    let started = Instant::now();
    mine_source_captured(&mut timed, &config, None, None).unwrap();
    timed.record_spans(&mut rec, root, started, Instant::now());
    rec.end(root);
    let coverage = rec.coverage(root);
    assert!(
        coverage > 0.9 && coverage <= 1.0 + 1e-9,
        "coverage {coverage}"
    );
    let by_name = rec.self_times_by_name(Some(root));
    assert!(by_name.contains_key("core.supercand.count_pass2"));
}

#[test]
fn compare_flags_a_regression_and_passes_a_repeat() {
    let dir = scratch("compare");
    let spec = dir.join("BENCHMARK.json");
    std::fs::write(
        &spec,
        r#"{"end_to_end":[{"name":"latency_p50_ms","unit":"ms","better":"lower","bound":0.1}],
            "per_layer":[{"name":"table.csv_read_s","unit":"s","better":"lower"}]}"#,
    )
    .unwrap();
    let write = |name: &str, latency: f64| {
        let path = dir.join(name);
        std::fs::write(
            &path,
            format!(
                r#"{{"workload":"mine_credit","metrics":{{"latency_p50_ms":{{"value":{latency},"unit":"ms"}},
                     "table.csv_read_s":{{"value":0.5,"unit":"s"}}}}}}"#
            ),
        )
        .unwrap();
        path.display().to_string()
    };
    let a: Vec<String> = (0..5)
        .map(|i| write(&format!("a{i}.json"), 100.0 + i as f64))
        .collect();
    let same: Vec<String> = (0..5)
        .map(|i| write(&format!("s{i}.json"), 101.0 + i as f64))
        .collect();
    let slow: Vec<String> = (0..5)
        .map(|i| write(&format!("b{i}.json"), 130.0 + i as f64))
        .collect();
    assert_eq!(compare::run(&spec, &a, &same).unwrap(), 0);
    assert_eq!(compare::run(&spec, &a, &slow).unwrap(), 1);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn benchmark_json_matches_the_reported_metrics() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let spec = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let field = |k: &str| spec.as_object().unwrap()[k].as_array().unwrap().to_vec();
    let names_units = |list: Vec<Json>| -> Vec<(String, String)> {
        list.iter()
            .map(|m| {
                let o = m.as_object().unwrap();
                (
                    o["name"].as_str().unwrap().to_string(),
                    o["unit"].as_str().unwrap().to_string(),
                )
            })
            .collect()
    };
    let expect = |specs: &[perfbench::report::MetricSpec]| -> Vec<(String, String)> {
        specs
            .iter()
            .map(|s| (s.name.to_string(), s.unit.to_string()))
            .collect()
    };
    assert_eq!(names_units(field("end_to_end")), expect(&END_TO_END));
    assert_eq!(names_units(field("per_layer")), expect(&PER_LAYER));
    let workloads: Vec<String> = field("workloads")
        .iter()
        .map(|w| w.as_object().unwrap()["name"].as_str().unwrap().to_string())
        .collect();
    assert_eq!(workloads, WORKLOADS);
    compare::bounds_from_spec(&spec).unwrap();
}

//! Every trace event a real mining run or a serving daemon emits must
//! validate against the checked-in JSON schema
//! (`schemas/trace_events.schema.json`) — the contract `qar trace-check`
//! and the CI trace-smoke job enforce — and the `Miner` facade must reuse
//! its encoding and Step 3 caches across runs without changing the output.

use quantrules::core::{Miner, MinerConfig, PartitionSpec};
use quantrules::table::{Schema, Table, Value};
use quantrules::trace::schema::{validate_lines, Schema as TraceSchema};
use quantrules::trace::{CollectingSink, TraceEvent};
use std::sync::Arc;

const SCHEMA_TEXT: &str = include_str!("../schemas/trace_events.schema.json");

fn config() -> MinerConfig {
    MinerConfig {
        min_support: 0.15,
        min_confidence: 0.5,
        max_support: 1.0,
        partitioning: PartitionSpec::FixedIntervals(4),
        partition_strategy: Default::default(),
        taxonomies: Default::default(),
        interest: None,
        max_itemset_size: 0,
        parallelism: None,
    }
}

fn sample_table() -> Table {
    let schema = Schema::builder()
        .quantitative("age")
        .quantitative("income")
        .categorical("married")
        .build()
        .unwrap();
    let mut t = Table::new(schema);
    let labels = ["yes", "no"];
    for i in 0..180 {
        t.push_row(&[
            Value::Int(20 + (i % 40) as i64),
            Value::Int(30 + ((i * 7) % 50) as i64),
            Value::from(labels[i % 2]),
        ])
        .unwrap();
    }
    t
}

#[test]
fn every_emitted_event_validates_against_the_checked_in_schema() {
    let schema: TraceSchema = SCHEMA_TEXT.parse().expect("checked-in schema parses");
    let sink = Arc::new(CollectingSink::new());
    let table = sample_table();
    Miner::new(config())
        .with_progress(sink.clone())
        .mine(&table)
        .expect("mining succeeds");

    let events = sink.events();
    assert!(!events.is_empty(), "a run must emit events");
    let lines: String = events.iter().map(|e| e.to_json() + "\n").collect();
    let counts = match validate_lines(&schema, &lines) {
        Ok(counts) => counts,
        Err((line, err)) => panic!("trace line {line} rejected by schema: {err}"),
    };

    let count_of = |name: &str| {
        counts
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, c)| *c)
            .unwrap_or_else(|| panic!("schema does not know event {name}"))
    };
    assert_eq!(count_of("run_started"), 1);
    assert_eq!(count_of("run_finished"), 1);
    let passes = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::PassStarted { .. }))
        .count();
    assert!(passes >= 2, "workload must reach a counting pass");
    assert_eq!(count_of("pass_started"), passes);
    assert_eq!(count_of("pass_finished"), passes);

    // Every pass_finished must name the kernel that counted it, so
    // benches and `qar trace-check` observe kernel selection directly.
    let kernels: Vec<(usize, String)> = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::PassFinished { pass, kernel, .. } => Some((*pass, kernel.clone())),
            _ => None,
        })
        .collect();
    assert_eq!(kernels.len(), passes);
    for (pass, kernel) in &kernels {
        if *pass == 1 {
            // Pass 1 counts per-attribute value histograms.
            assert_eq!(kernel, "cells", "pass 1 kernel");
        } else {
            // Pass 2 scans pair histograms (plus explicit candidates for
            // over-budget pairs); later passes run the default kernel.
            // "direct" appears only when the reference kernel is pinned.
            assert!(
                ["cells", "bitmask", "cells+bitmask"].contains(&kernel.as_str()),
                "pass {pass} reported unknown kernel `{kernel}`"
            );
        }
    }
}

#[test]
fn second_run_reuses_the_encoding_and_is_identical() {
    let table = sample_table();
    let mut miner = Miner::new(config());
    let first = miner.mine(&table).expect("first run");
    assert!(!first.stats.encoding_reused);
    let second = miner.mine(&table).expect("second run");
    assert!(
        second.stats.encoding_reused,
        "same table must hit the cache"
    );
    assert_eq!(first.frequent.levels, second.frequent.levels);
    assert_eq!(first.rules.len(), second.rules.len());
    for (a, b) in first.rules.iter().zip(&second.rules) {
        assert_eq!(a.support, b.support);
        assert_eq!(a.confidence.to_bits(), b.confidence.to_bits());
    }
    assert_eq!(
        first.stats.intervals_per_attribute,
        second.stats.intervals_per_attribute
    );
}

/// The analyst's ladder on credit data (K outer, R inner, the interest
/// prune off): each R-only step reuses the encoding and the frequent
/// itemsets and emits no pass event, each K step reuses neither, and
/// every step equals a fresh miner's run.
#[test]
fn credit_ladder_reuses_step3_on_r_only_steps() {
    use quantrules::core::{InterestConfig, InterestMode};
    let table = quantrules::datagen::CreditDataset::small(6_000, 2).table;
    let ladder_config = |k: f64, r: f64| MinerConfig {
        min_support: 0.2,
        max_support: 0.4,
        min_confidence: 0.25,
        partitioning: PartitionSpec::CompletenessLevel(k),
        interest: Some(InterestConfig {
            level: r,
            mode: InterestMode::SupportOrConfidence,
            prune_candidates: false,
        }),
        parallelism: std::num::NonZeroUsize::new(2),
        ..config()
    };
    let sink = Arc::new(CollectingSink::new());
    let mut miner = Miner::new(ladder_config(1.5, 1.1)).with_progress(sink.clone());
    for k in [1.5, 2.0, 3.0] {
        for (step, r) in [1.1, 1.5].into_iter().enumerate() {
            let config = ladder_config(k, r);
            miner.set_config(config.clone());
            let events = sink.events().len();
            let out = miner.mine(&table).expect("ladder step");
            let r_only = step == 1;
            assert_eq!(out.stats.encoding_reused, r_only, "K {k}, R {r}");
            assert_eq!(out.stats.frequent_reused, r_only, "K {k}, R {r}");
            assert_eq!(sink.events().len() == events, r_only, "K {k}, R {r}");
            let fresh = Miner::new(config).mine(&table).expect("fresh run");
            assert_eq!(out.frequent.levels, fresh.frequent.levels);
            assert_eq!(out.rules, fresh.rules);
            assert_eq!(out.interest, fresh.interest);
            assert_eq!(
                out.stats.mine.candidates_per_pass,
                fresh.stats.mine.candidates_per_pass
            );
        }
    }
}

/// On the paper's credit table, pass 3's super-candidates are triples of
/// quantitative attributes whose compressed cells fit the budget, so the
/// pass counts them all as cells — serial or sharded.
#[test]
fn credit_pass_three_counts_as_cells() {
    use quantrules::core::{InterestConfig, InterestMode};
    let table = quantrules::datagen::CreditDataset::small(6_000, 1).table;
    for threads in [1, 2] {
        let config = MinerConfig {
            min_support: 0.2,
            max_support: 0.4,
            min_confidence: 0.25,
            partitioning: PartitionSpec::CompletenessLevel(1.5),
            interest: Some(InterestConfig {
                level: 1.1,
                mode: InterestMode::SupportOrConfidence,
                prune_candidates: false,
            }),
            parallelism: std::num::NonZeroUsize::new(threads),
            ..config()
        };
        let sink = Arc::new(CollectingSink::new());
        Miner::new(config)
            .with_progress(sink.clone())
            .mine(&table)
            .expect("mining succeeds");
        let pass3 = sink
            .events()
            .into_iter()
            .find_map(|e| match e {
                TraceEvent::PassFinished {
                    pass: 3,
                    kernel,
                    super_candidates,
                    array_backed,
                    shard_scan_us,
                    ..
                } => Some((kernel, super_candidates, array_backed, shard_scan_us.len())),
                _ => None,
            })
            .expect("the credit table reaches pass 3");
        let (kernel, super_candidates, array_backed, shards) = pass3;
        assert_eq!(kernel, "cells", "threads {threads}");
        assert!(super_candidates > 0);
        assert_eq!(
            array_backed, super_candidates,
            "every plan counted as cells"
        );
        assert_eq!(shards, threads);
    }
}

/// A serving daemon's events validate too, and every request kind a
/// client sends — point, range, top-k, batch, a query of an unknown slot
/// (an error reply) and the shutdown — shows up as a `request_served`
/// line the schema accepts.
#[test]
fn served_requests_validate_against_the_checked_in_schema() {
    use quantrules::datagen::{PlantedConfig, PlantedDataset};
    use quantrules::store::protocol::{ErrorCode, Query, QueryOptions};
    use quantrules::store::serve::ServeClient;
    use quantrules::store::{Catalog, RankBy, Request, Response, Server, ServerConfig};
    use quantrules::trace::{json, TraceFormat, WriterSink};

    let schema: TraceSchema = SCHEMA_TEXT.parse().expect("checked-in schema parses");
    let data = PlantedDataset::generate(PlantedConfig {
        num_records: 2_000,
        seed: 7,
    });
    let mined = Miner::new(MinerConfig {
        min_support: 0.1,
        min_confidence: 0.5,
        max_support: 0.4,
        partitioning: PartitionSpec::FixedIntervals(10),
        ..MinerConfig::default()
    })
    .mine(&data.table)
    .expect("mining succeeds");
    let path = std::env::temp_dir().join(format!("qar_trace_serve_{}.qarcat", std::process::id()));
    Catalog::from_mining(&mined)
        .save(&path, None)
        .expect("save catalog");

    let sink = Arc::new(WriterSink::new(TraceFormat::Json, Vec::new()));
    let server = Server::bind(
        &[("cat".to_string(), path.clone())],
        &ServerConfig {
            port: 0,
            threads: 2,
        },
        Some(sink.clone()),
    )
    .expect("bind");
    let addr = server.local_addr();
    let serving = std::thread::spawn(move || server.serve());

    let query = |catalog: &str, query: Query| Request::Query {
        catalog: catalog.to_string(),
        deadline_ms: None,
        query,
    };
    let point = Query::Point {
        record: vec![(0, 0), (3, 0)],
        opts: QueryOptions::default(),
    };
    let mut client = ServeClient::connect(addr).expect("connect");
    for request in [
        query("cat", point.clone()),
        query(
            "cat",
            Query::Range {
                attr: 1,
                lo: 20.0,
                hi: 40.0,
                opts: QueryOptions::default(),
            },
        ),
        query(
            "cat",
            Query::TopK {
                by: RankBy::Support,
                k: 5,
            },
        ),
    ] {
        let response = client.request(&request).expect("answered");
        assert!(matches!(response, Response::Ids { .. }), "{response:?}");
    }
    let batch = Request::Batch {
        catalog: "cat".to_string(),
        deadline_ms: None,
        queries: vec![point.clone(), point.clone()],
    };
    let response = client.request(&batch).expect("answered");
    assert!(matches!(response, Response::Batch { .. }), "{response:?}");
    match client
        .request(&query("no_such_slot", point))
        .expect("answered")
    {
        Response::Error(e) => assert_eq!(e.code, ErrorCode::UnknownCatalog),
        other => panic!("unknown slot answered {other:?}"),
    }
    let response = client.request(&Request::Shutdown).expect("answered");
    assert!(matches!(response, Response::ShuttingDown), "{response:?}");
    drop(client);
    serving
        .join()
        .expect("server thread")
        .expect("serve returns");
    std::fs::remove_file(&path).ok();

    let sink = Arc::try_unwrap(sink).expect("the stopped server released its sink");
    let lines = String::from_utf8(sink.into_inner()).expect("UTF-8 trace");
    if let Err((line, err)) = validate_lines(&schema, &lines) {
        panic!("trace line {line} rejected by schema: {err}");
    }
    let served: Vec<(String, bool)> = lines
        .lines()
        .map(|line| json::parse(line).expect("trace line parses"))
        .filter_map(|event| {
            let fields = event.as_object().expect("an event is an object");
            (fields["event"].as_str() == Some("request_served")).then(|| {
                let kind = fields["kind"].as_str().expect("kind").to_string();
                (kind, fields["ok"].as_bool().expect("ok"))
            })
        })
        .collect();
    let served: Vec<(&str, bool)> = served.iter().map(|(k, ok)| (k.as_str(), *ok)).collect();
    assert_eq!(
        served,
        [
            ("point", true),
            ("range", true),
            ("top_k", true),
            ("batch", true),
            ("point", false),
            ("shutdown", true),
        ]
    );
}

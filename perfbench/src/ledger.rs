//! The traced run: a per-layer ledger of one workload, measured from the
//! benchmark's own files.
//!
//! Spans are opened around calls into each crate's public functions
//! (`qar_table::csv::read_table`, `qar_core::pipeline::build_encoders`,
//! `EncodedTable::encode`, `mine_source_captured`, `Catalog::encode`,
//! `fs::write`, `Catalog::load`, `RuleIndex::build`, …) and derived from
//! [`TimedSource`] call timestamps and [`ArrivalSink`] event arrivals.
//! Child processes of the real `qar` binary give what only a process
//! shows: its overhead over the in-process path, the distributed
//! coordinator's merge time (`pass_merged`), and the daemon's per-request
//! service time (`request_served`). Nothing is traced inside the program
//! beyond the trace events it already emits.
//!
//! Every workload's ledger covers the CSV → catalog → query path on the
//! workload's own data. The core-layer times come from the workload's
//! own operation: the CSV → catalog pipeline for the mine and serve
//! workloads, the threshold ladder for `explore_credit`, and the
//! 20-delta refresh stream for `update_stream`.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use qar_core::pipeline::{build_encoders, MiningOutput};
use qar_core::{
    annotate_interest, generate_rules, mine_source_captured, InMemorySource, Miner, SupportCounts,
    UpdateInput,
};
use qar_store::{section_inventory, Catalog, RuleIndex};
use qar_table::{csv, EncodedTable, Schema, Table};
use qar_trace::json::{self, Json};

use crate::report::{num, Outcome};
use crate::sink::{record_miner_spans, ArrivalSink, PassWindow};
use crate::spans::{SpanId, SpanRecorder};
use crate::stats::median;
use crate::timed::TimedSource;
use crate::workloads::explore::{ladder, LADDER_K};
use crate::workloads::serve::{expected, is_error, Conn, Daemon, QuerySpace, SLOT};
use crate::workloads::update::{BASE_ROWS, DELTAS, DELTA_ROWS, UPDATE_SPEC};
use crate::workloads::{mine_args, stderr_tail, Ctx, MineSpec, CREDIT_ROWS, CREDIT_SPEC, THREADS};
use crate::{gen, proc};

/// Requests sent to the traced daemon and timed per query kind in
/// process.
const PROBE_REQUESTS: usize = 2_000;

/// The input of a workload's CSV → catalog pipeline.
struct Input {
    csv: PathBuf,
    schema: Schema,
    spec: MineSpec,
    /// Worker processes of the `qar mine` child the process overhead is
    /// measured against (0 = serial).
    workers: usize,
}

/// What the traced pipeline produced.
struct Pipeline {
    root: SpanId,
    wall: Duration,
    table: Table,
    encoded: EncodedTable,
    output: MiningOutput,
    catalog: PathBuf,
    bytes: Vec<u8>,
}

/// Run the traced ledger for `workload`, returning the per-layer
/// metrics and the span recorder (for `--spans`).
pub fn run(workload: &str, ctx: &Ctx) -> io::Result<(Outcome, SpanRecorder)> {
    let mut out = Outcome::default();
    let mut rec = SpanRecorder::new();
    let stream = match workload {
        "update_stream" => Some(gen::write_update_stream(
            &ctx.work, BASE_ROWS, DELTA_ROWS, DELTAS, ctx.seed,
        )?),
        _ => None,
    };
    let input = match &stream {
        Some(stream) => Input {
            csv: stream.base.clone(),
            schema: gen::update_schema(),
            spec: UPDATE_SPEC,
            workers: 0,
        },
        _ => {
            let csv = ctx.work.join("credit.csv");
            gen::write_credit_csv(&csv, CREDIT_ROWS, ctx.seed)?;
            Input {
                csv,
                schema: qar_datagen::credit::credit_schema(),
                spec: CREDIT_SPEC,
                workers: if workload == "mine_credit_workers2" {
                    2
                } else {
                    0
                },
            }
        }
    };

    // The pipeline twice traced and twice untraced, alternating: the
    // tracing overhead is the ratio of the medians.
    let mut traced = Vec::new();
    let mut untraced = Vec::new();
    let mut pipeline = None;
    for _ in 0..2 {
        untraced.push(pipeline_untraced(
            &input,
            &ctx.work.join("untraced.qarcat"),
        )?);
        let p = pipeline_traced(&mut rec, &input, &ctx.work.join("pipeline.qarcat"))?;
        traced.push(p.wall.as_secs_f64());
        pipeline = Some(p);
    }
    let p = pipeline.expect("two pipelines ran");
    out.set(
        "trace.overhead_ratio",
        median(&traced) / median(&untraced) - 1.0,
    );

    let store_root = store_layers(&mut rec, &p, ctx.seed, &mut out)?;
    capture_extra(&p, &input.spec, &mut out)?;
    rules_layers(&p, &input.spec, &mut out);
    process_layers(ctx, &input, &p, &mut out)?;
    serve_layers(ctx, &p, &mut out)?;

    // The workload's own operation, then where a layer it does not call
    // directly is measured instead.
    let roots = match (workload, &stream) {
        ("explore_credit", _) => {
            let (ladder, encode) = explore_layers(&mut rec, &p, &mut out)?;
            vec![ladder, encode, p.root, store_root]
        }
        (_, Some(stream)) => vec![
            update_layers(&mut rec, ctx, stream, &p, &mut out)?,
            p.root,
            store_root,
        ],
        _ => {
            pass_ratios(&source_passes(&p.output), &mut out);
            out.set("core.miner.encoding_reuse_ratio", 0.0);
            out.set("core.counts.fallback_ratio", 0.0);
            vec![p.root, store_root]
        }
    };
    for (metric, span) in LAYER_SPANS {
        let time = roots
            .iter()
            .find_map(|&root| {
                rec.self_times_by_name(Some(root))
                    .get(span)
                    .map(|(d, _)| d.as_secs_f64())
            })
            .unwrap_or(0.0);
        out.set(metric, time);
    }
    out.set("trace.coverage", rec.coverage(roots[0]));
    out.extra("ledger", ledger_json(&rec, roots[0]));
    Ok((out, rec))
}

/// Per-layer time metrics and the span names they sum. Each is taken from
/// the first root (the workload's operation first) that has such spans.
const LAYER_SPANS: [(&str, &str); 11] = [
    ("table.csv_read_s", "table.csv_read"),
    ("partition.build_encoders_s", "partition.build_encoders"),
    ("table.encode_s", "table.encode"),
    ("core.frequent.pass1_s", "core.frequent.pass1"),
    ("core.candidate.gen_s", "core.candidate.gen"),
    ("core.supercand.count_pass2_s", "core.supercand.count_pass2"),
    (
        "core.supercand.count_pass3plus_s",
        "core.supercand.count_pass3plus",
    ),
    ("store.catalog.encode_s", "store.catalog.encode"),
    ("store.catalog.write_s", "store.catalog.write"),
    ("store.catalog.load_s", "store.catalog.load"),
    ("store.index.build_s", "store.index.build"),
];

/// Load, partition, encode, mine with count capture, and store — what
/// `qar mine --store --normalize-stats` does — with a span around each
/// call and [`TimedSource`] splitting the mine into scans and candidate
/// generation.
fn pipeline_traced(rec: &mut SpanRecorder, input: &Input, catalog: &Path) -> io::Result<Pipeline> {
    let config = input.spec.miner_config(THREADS);
    let root = rec.begin("pipeline");
    let table = rec.time("table.csv_read", |_| read_csv(&input.csv, &input.schema))?;
    let (encoders, intervals) = rec
        .time("partition.build_encoders", |_| {
            build_encoders(&table, &config)
        })
        .map_err(io::Error::other)?;
    let encoded = rec
        .time("table.encode", |_| EncodedTable::encode(&table, encoders))
        .map_err(io::Error::other)?;
    let mine = rec.begin("core.mine_source");
    let mut timed = TimedSource::new(InMemorySource::new(&encoded, &config));
    let started = Instant::now();
    let mined = mine_source_captured(&mut timed, &config, None, None);
    timed.record_spans(rec, mine, started, Instant::now());
    rec.end(mine);
    let (mut output, captured) = mined.map_err(io::Error::other)?;
    output.stats.intervals_per_attribute = intervals.clone();
    output.stats = output.stats.normalized();
    let counts = SupportCounts::assemble(
        encoded.schema(),
        encoded.encoders(),
        table.num_rows() as u64,
        &config,
        intervals,
        captured,
    );
    let bytes = rec.time("store.catalog.encode", |_| {
        Catalog::from_mining(&output)
            .with_counts(counts)
            .map(|c| c.encode())
    });
    let bytes = bytes.map_err(io::Error::other)?;
    rec.time("store.catalog.write", |_| std::fs::write(catalog, &bytes))?;
    rec.end(root);
    Ok(Pipeline {
        root,
        wall: rec.spans()[root].duration(),
        table,
        encoded,
        output,
        catalog: catalog.to_path_buf(),
        bytes,
    })
}

/// [`pipeline_traced`] without spans or the timing wrapper; its wall time.
fn pipeline_untraced(input: &Input, catalog: &Path) -> io::Result<f64> {
    let config = input.spec.miner_config(THREADS);
    let started = Instant::now();
    let table = read_csv(&input.csv, &input.schema)?;
    let (encoders, intervals) = build_encoders(&table, &config).map_err(io::Error::other)?;
    let encoded = EncodedTable::encode(&table, encoders).map_err(io::Error::other)?;
    let (mut output, captured) = mine_source_captured(
        &mut InMemorySource::new(&encoded, &config),
        &config,
        None,
        None,
    )
    .map_err(io::Error::other)?;
    output.stats.intervals_per_attribute = intervals.clone();
    output.stats = output.stats.normalized();
    let counts = SupportCounts::assemble(
        encoded.schema(),
        encoded.encoders(),
        table.num_rows() as u64,
        &config,
        intervals,
        captured,
    );
    let catalog_bytes = Catalog::from_mining(&output)
        .with_counts(counts)
        .map_err(io::Error::other)?
        .encode();
    std::fs::write(catalog, catalog_bytes)?;
    Ok(started.elapsed().as_secs_f64())
}

fn read_csv(path: &Path, schema: &Schema) -> io::Result<Table> {
    let file = io::BufReader::new(std::fs::File::open(path)?);
    csv::read_table(file, schema).map_err(io::Error::other)
}

/// The passes of a source-driven mine, as windows (kernels are not
/// reported on this path).
fn source_passes(output: &MiningOutput) -> Vec<PassWindow> {
    output
        .stats
        .mine
        .candidates_per_pass
        .iter()
        .enumerate()
        .map(|(i, &candidates)| PassWindow {
            pass: i + 2,
            candidates,
            frequent: output.frequent.levels.get(i + 1).map_or(0, Vec::len),
            kernel: String::new(),
            seconds: 0.0,
        })
        .collect()
}

/// Candidate counts and scan shares over the operation's passes.
fn pass_ratios(passes: &[PassWindow], out: &mut Outcome) {
    let counted: Vec<&PassWindow> = passes.iter().filter(|p| p.pass >= 2).collect();
    let candidates: usize = counted.iter().map(|p| p.candidates).sum();
    let frequent: usize = counted.iter().map(|p| p.frequent).sum();
    out.set("core.supercand.candidates", candidates as f64);
    out.set(
        "core.supercand.frequent_per_candidate",
        frequent as f64 / candidates.max(1) as f64,
    );
    let deep = counted.iter().filter(|p| p.pass >= 3);
    let (memo_s, deep_s) = deep.fold((0.0, 0.0), |(memo, all), p| {
        let memoized = if p.kernel == "memoized" {
            p.seconds
        } else {
            0.0
        };
        (memo + memoized, all + p.seconds)
    });
    out.set(
        "core.supercand.memoized_scan_share",
        if deep_s > 0.0 { memo_s / deep_s } else { 0.0 },
    );
}

/// `Catalog::load`, `RuleIndex::build`, per-kind `execute_query`, the
/// protocol codec, and the catalog's section sizes.
fn store_layers(
    rec: &mut SpanRecorder,
    p: &Pipeline,
    seed: u64,
    out: &mut Outcome,
) -> io::Result<SpanId> {
    let root = rec.begin("store");
    let catalog = rec
        .time("store.catalog.load", |_| Catalog::load(&p.catalog, None))
        .map_err(io::Error::other)?;
    let index = rec.time("store.index.build", |_| RuleIndex::build(&catalog, None));
    rec.end(root);

    let requests = QuerySpace::of(&catalog).requests(PROBE_REQUESTS, seed);
    let mut per_kind: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut queries = Vec::new();
    let mut codec = Vec::new();
    for request in &requests {
        if let qar_store::Request::Query { query, .. } = request {
            let t = Instant::now();
            let answer = qar_store::serve::execute_query(&index, query);
            let us = t.elapsed().as_secs_f64() * 1e6;
            per_kind.entry(query.kind()).or_default().push(us);
            queries.push(us);
            std::hint::black_box(answer).ok();
        }
        let response = expected(&index, request).expect("queries and batches have answers");
        let t = Instant::now();
        let frame = request.to_frame().map_err(io::Error::other)?;
        let back = qar_store::protocol::decode_request(&frame).map_err(io::Error::other)?;
        let reply = response.to_frame().map_err(io::Error::other)?;
        let decoded = qar_store::protocol::decode_response(&reply).map_err(io::Error::other)?;
        codec.push(t.elapsed().as_secs_f64() * 1e6);
        out.check(back == *request && decoded == response, || {
            "protocol round trip changed a message".to_string()
        });
    }
    out.set("store.index.query_us", median(&queries));
    for (kind, us) in &per_kind {
        out.extra(&format!("store.index.{kind}_us"), num(median(us)));
    }
    out.set("store.protocol.roundtrip_us", median(&codec));

    let sections = section_inventory(&p.bytes).map_err(io::Error::other)?;
    let counts: u64 = sections
        .iter()
        .filter(|s| s.name == "counts")
        .map(|s| s.len)
        .sum();
    out.set("store.catalog.counts_bytes", counts as f64);
    out.set(
        "store.catalog.other_bytes",
        (p.bytes.len() as u64 - counts) as f64,
    );
    Ok(root)
}

/// What count capture adds: `mine_source_captured` over the encoded
/// table minus `Miner::mine_encoded` on the same table.
fn capture_extra(p: &Pipeline, spec: &MineSpec, out: &mut Outcome) -> io::Result<()> {
    let config = spec.miner_config(THREADS);
    let t = Instant::now();
    let captured = mine_source_captured(
        &mut InMemorySource::new(&p.encoded, &config),
        &config,
        None,
        None,
    )
    .map_err(io::Error::other)?;
    let with_capture = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let plain = Miner::new(config)
        .mine_encoded(&p.encoded)
        .map_err(io::Error::other)?;
    let without = t.elapsed().as_secs_f64();
    out.check(plain.rules == captured.0.rules, || {
        "captured and plain mines disagree on rules".to_string()
    });
    out.set("core.source.capture_extra_s", with_capture - without);
    Ok(())
}

/// `generate_rules` and `annotate_interest` re-run on the pipeline's
/// frequent itemsets.
fn rules_layers(p: &Pipeline, spec: &MineSpec, out: &mut Outcome) {
    let t = Instant::now();
    let rules = generate_rules(&p.output.frequent, spec.minconf);
    out.set("core.rules.gen_s", t.elapsed().as_secs_f64());
    out.check(rules == p.output.rules, || {
        "re-generated rules differ".to_string()
    });
    if let Some(ic) = &spec.miner_config(THREADS).interest {
        let t = Instant::now();
        std::hint::black_box(annotate_interest(
            &rules,
            &p.output.frequent,
            &p.output.item_supports,
            ic,
        ));
        out.set("core.interest.annotate_s", t.elapsed().as_secs_f64());
    }
}

/// The `qar mine` child on the same input (untraced): its wall time over
/// the in-process pipeline's, and its catalog must be the pipeline's.
/// Then the `--workers 2 --trace json` coordinator: its `pass_merged`
/// times, and again the same catalog.
fn process_layers(ctx: &Ctx, input: &Input, p: &Pipeline, out: &mut Outcome) -> io::Result<()> {
    let schema = gen::schema_decls(&input.schema);
    let child_catalog = ctx.work.join("child.qarcat");
    let args = mine_args(
        &input.csv,
        &schema,
        &input.spec,
        input.workers,
        &child_catalog,
    );
    let exit = proc::run(&mut ctx.qar(&args, "child.err")?)?;
    out.check(exit.success(), || {
        format!("qar mine failed: {}", stderr_tail(ctx, "child.err"))
    });
    out.check(
        std::fs::read(&child_catalog).unwrap_or_default() == p.bytes,
        || "qar mine's catalog differs from the in-process pipeline's".to_string(),
    );
    out.set(
        "qar.process_overhead_s",
        exit.wall.as_secs_f64() - p.wall.as_secs_f64(),
    );

    let dist_catalog = ctx.work.join("dist.qarcat");
    let mut args = mine_args(&input.csv, &schema, &input.spec, 2, &dist_catalog);
    args.extend(["--trace".to_string(), "json".to_string()]);
    let exit = proc::run(&mut ctx.qar(&args, "dist.trace")?)?;
    out.check(exit.success(), || {
        format!(
            "qar mine --workers 2 failed: {}",
            stderr_tail(ctx, "dist.trace")
        )
    });
    out.check(
        std::fs::read(&dist_catalog).unwrap_or_default() == p.bytes,
        || "the --workers 2 catalog differs from the in-process pipeline's".to_string(),
    );
    let mut merge = [0.0f64; 2];
    for event in trace_events(&ctx.work.join("dist.trace"), "pass_merged") {
        let pass = field_u64(&event, "pass");
        if pass >= 2 {
            merge[usize::from(pass >= 3)] += field_u64(&event, "elapsed_us") as f64 / 1e6;
        }
    }
    out.set("dist.merge_s", merge[0] + merge[1]);
    out.extra("dist.merge_pass2_s", num(merge[0]));
    out.extra("dist.merge_pass3plus_s", num(merge[1]));
    Ok(())
}

/// A `qar serve --trace json` daemon on the pipeline's catalog: each
/// request's client round trip against the daemon's `request_served`
/// service time; the rest is the wire. Means, because the daemon reports
/// whole microseconds and a median of those barely moves.
fn serve_layers(ctx: &Ctx, p: &Pipeline, out: &mut Outcome) -> io::Result<()> {
    let catalog = ctx.work.join(format!("{SLOT}.qarcat"));
    std::fs::copy(&p.catalog, &catalog)?;
    let loaded = Catalog::load(&catalog, None).map_err(io::Error::other)?;
    let requests = QuerySpace::of(&loaded).requests(PROBE_REQUESTS, ctx.seed ^ 1);
    let daemon = Daemon::start(ctx, &catalog, &["--trace", "json"], "serve.trace")?;
    let mut client_us = Vec::new();
    match Conn::connect(&daemon.addr) {
        Ok(mut conn) => {
            for request in &requests {
                let frame = request.to_frame().map_err(io::Error::other)?;
                let t = Instant::now();
                let ok = conn.call(&frame).is_ok_and(|r| !is_error(&r));
                client_us.push(t.elapsed().as_secs_f64() * 1e6);
                out.check(ok, || "traced daemon answered with an error".to_string());
            }
        }
        Err(e) => out.check(false, || format!("cannot reach the traced daemon: {e}")),
    }
    let exit = daemon.stop()?;
    out.check(exit.success(), || {
        format!("traced qar serve exited with {:?}", exit.code)
    });
    let server_us: Vec<f64> = trace_events(&ctx.work.join("serve.trace"), "request_served")
        .iter()
        .filter(|e| {
            e.as_object()
                .and_then(|o| o.get("kind"))
                .and_then(Json::as_str)
                != Some("shutdown")
        })
        .map(|e| field_u64(e, "elapsed_us") as f64)
        .collect();
    let wire: Vec<f64> = client_us
        .iter()
        .zip(&server_us)
        .map(|(c, s)| c - s)
        .collect();
    out.set("store.serve.server_us_mean", mean(&server_us));
    out.set("store.serve.wire_us_mean", mean(&wire));
    Ok(())
}

/// `explore_credit`: the ladder on one `Miner`, split into layers by
/// event arrival; Steps 1–2 timed directly once per K.
fn explore_layers(
    rec: &mut SpanRecorder,
    p: &Pipeline,
    out: &mut Outcome,
) -> io::Result<(SpanId, SpanId)> {
    let encode_root = rec.begin("explore.encode");
    for k in LADDER_K {
        let config = MineSpec {
            completeness: Some(k),
            ..CREDIT_SPEC
        }
        .miner_config(THREADS);
        let (encoders, _) = rec
            .time("partition.build_encoders", |_| {
                build_encoders(&p.table, &config)
            })
            .map_err(io::Error::other)?;
        rec.time("table.encode", |_| EncodedTable::encode(&p.table, encoders))
            .map_err(io::Error::other)?;
    }
    rec.end(encode_root);

    let sink = Arc::new(ArrivalSink::new());
    let mut miner = Miner::new(CREDIT_SPEC.miner_config(THREADS)).with_progress(sink.clone());
    let root = rec.begin("explore.ladder");
    let mut passes = Vec::new();
    let mut reused = 0;
    let steps = ladder();
    for spec in &steps {
        miner.set_config(spec.miner_config(THREADS));
        let step = rec.begin("explore.step");
        let started = Instant::now();
        let mined = miner.mine(&p.table);
        let ended = Instant::now();
        passes.extend(record_miner_spans(rec, step, started, ended, &sink.drain()));
        rec.end(step);
        let mined = mined.map_err(io::Error::other)?;
        reused += usize::from(mined.stats.encoding_reused);
    }
    rec.end(root);
    pass_ratios(&passes, out);
    out.set(
        "core.miner.encoding_reuse_ratio",
        reused as f64 / steps.len() as f64,
    );
    out.set("core.counts.fallback_ratio", 0.0);
    Ok((root, encode_root))
}

/// `update_stream`: the 20 refreshes in process — `Catalog::load`, the
/// delta read, `Miner::update` (split by event arrival, falling back to
/// its own re-mine with the base rows at hand), `Catalog::encode`, write.
fn update_layers(
    rec: &mut SpanRecorder,
    ctx: &Ctx,
    stream: &gen::UpdateStream,
    p: &Pipeline,
    out: &mut Outcome,
) -> io::Result<SpanId> {
    let schema = gen::update_schema();
    let catalog_path = ctx.work.join("stream.qarcat");
    std::fs::write(&catalog_path, &p.bytes)?;
    let mut full = p.table.clone();
    let sink = Arc::new(ArrivalSink::new());
    let mut passes = Vec::new();
    let (mut update_s, mut remine_s, mut fell_back) = (0.0, 0.0, Vec::new());
    let root = rec.begin("update.stream");
    for (k, delta_path) in (1..).zip(&stream.deltas) {
        let refresh = rec.begin("update.refresh");
        let catalog = rec
            .time("store.catalog.load", |_| Catalog::load(&catalog_path, None))
            .map_err(io::Error::other)?;
        let delta = rec.time("table.csv_read", |_| read_csv(delta_path, &schema))?;
        let counts = catalog
            .counts()
            .ok_or_else(|| io::Error::other("stream catalog has no COUNTS section"))?;
        let mut miner = Miner::new(UPDATE_SPEC.miner_config(THREADS)).with_progress(sink.clone());
        let call = rec.begin("core.miner.update");
        let started = Instant::now();
        let updated = miner.update(UpdateInput {
            schema: catalog.schema(),
            encoders: catalog.encoders(),
            counts,
            delta: &delta,
            base_rows: Some(&full),
        });
        let ended = Instant::now();
        passes.extend(record_miner_spans(rec, call, started, ended, &sink.drain()));
        rec.end(call);
        let mut updated = updated.map_err(io::Error::other)?;
        if updated.incremental {
            update_s += (ended - started).as_secs_f64();
        } else {
            remine_s += (ended - started).as_secs_f64();
            fell_back.push(k);
        }
        updated.output.stats = updated.output.stats.normalized();
        let bytes = rec.time("store.catalog.encode", |_| {
            Catalog::from_mining(&updated.output)
                .with_counts(updated.counts)
                .map(|c| c.encode())
        });
        let bytes = bytes.map_err(io::Error::other)?;
        rec.time("store.catalog.write", |_| {
            std::fs::write(&catalog_path, bytes)
        })?;
        rec.end(refresh);
        for r in 0..delta.num_rows() {
            full.push_row(&delta.row(r).to_values())
                .map_err(io::Error::other)?;
        }
    }
    rec.end(root);
    out.check(fell_back == stream.fallbacks, || {
        format!(
            "in-process fallbacks on {fell_back:?}, planned {:?}",
            stream.fallbacks
        )
    });
    pass_ratios(&passes, out);
    out.set("core.miner.encoding_reuse_ratio", 0.0);
    out.set(
        "core.counts.fallback_ratio",
        fell_back.len() as f64 / DELTAS as f64,
    );
    out.extra("core.counts.update_s", num(update_s));
    out.extra("core.counts.remine_s", num(remine_s));
    Ok(root)
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Events named `name` from a `--trace json` error stream.
fn trace_events(path: &Path, name: &str) -> Vec<Json> {
    std::fs::read_to_string(path)
        .unwrap_or_default()
        .lines()
        .filter_map(|line| json::parse(line).ok())
        .filter(|e| {
            e.as_object()
                .and_then(|o| o.get("event"))
                .and_then(Json::as_str)
                == Some(name)
        })
        .collect()
}

fn field_u64(event: &Json, key: &str) -> u64 {
    event
        .as_object()
        .and_then(|o| o.get(key))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

/// Self time and count per span name under `root`, for the result file.
fn ledger_json(rec: &SpanRecorder, root: SpanId) -> Json {
    Json::Obj(
        rec.self_times_by_name(Some(root))
            .into_iter()
            .map(|(name, (d, n))| {
                let entry = crate::report::obj([
                    ("self_s", num(d.as_secs_f64())),
                    ("spans", num(n as f64)),
                ]);
                (name, entry)
            })
            .collect(),
    )
}

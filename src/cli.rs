//! Command-line interface of the `qar` binary: one flag table, one parser
//! over it, and one dispatcher that runs a parsed [`Command`].
//!
//! [`parse_command`] checks a command line against its verb's entry in the
//! flag table and rejects any flag the entry does not list. [`run`] owns
//! stdin, stdout and file I/O and the bench floor checks, so the binary in
//! `src/bin/qar.rs` is a thin `main`. Everything is kept in the library so
//! the parsing and plumbing are unit-testable.
//!
//! ```text
//! qar mine  --input data.csv --schema age:quant,married:cat [options]
//! qar generate credit|people|planted --records N [--seed S] [--output f]
//! ```

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, ErrorKind, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use qar_analytics::AnalyticsConfig;
use qar_core::source::Backing;
use qar_core::{
    mine_source, mine_source_captured, CountError, CountSource, InMemorySource, InterestConfig,
    InterestMode, Miner, MinerConfig, MinerError, MiningOutput, PartitionSpec, PartitionStrategy,
    QuantRule, RuleInterest, SupportCounts, UpdateInput, MAX_THREADS,
};
use qar_dist::{DistOptions, DistSource, WorkerOptions, WorkerSpawn};
use qar_prng::Prng;
use qar_store::format::tag::COUNTS_V1;
use qar_store::protocol::{Query, QueryOptions, Request, Response};
use qar_store::serve::ServeClient;
use qar_store::{
    analytics_from_encoded, analytics_from_mining, section_inventory, Catalog, RankBy, RuleIndex,
    Server, ServerConfig,
};
use qar_table::{
    csv, AttributeKind, ChunkStore, EncodedTable, Schema, SchemaBuilder, Table, TableError, Value,
};
use qar_trace::{CancelToken, ProgressSink, TraceFormat, WriterSink};

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Mine rules from a CSV file.
    Mine(MineArgs),
    /// Generate a synthetic dataset as CSV.
    Generate(GenerateArgs),
    /// Validate a JSON-lines trace stream against the event schema.
    TraceCheck(TraceCheckArgs),
    /// Query a stored rule catalog.
    Query(QueryArgs),
    /// Backfill rule analytics into an existing catalog.
    Analyze(AnalyzeArgs),
    /// Validate a `.qarcat` catalog file.
    StoreCheck(StoreCheckArgs),
    /// Differentially fuzz every mining path against its references.
    Fuzz(FuzzArgs),
    /// Serve one or more catalogs over TCP.
    Serve(ServeArgs),
    /// Benchmark a rule server with concurrent clients.
    BenchServe(BenchServeArgs),
    /// Benchmark the analytics subsystem (closed-form + Shapley).
    BenchAnalytics(BenchAnalyticsArgs),
    /// Benchmark count-distribution counting against the serial scan.
    BenchDist(BenchDistArgs),
    /// Benchmark an incremental catalog update against a full re-mine.
    BenchUpdate(BenchUpdateArgs),
    /// Run as a counting worker connected to a mine coordinator.
    Worker(WorkerArgs),
    /// Print usage.
    Help,
}

/// Arguments of `qar worker`.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerArgs {
    /// Coordinator address (`HOST:PORT`) to connect to.
    pub connect: String,
    /// Threads per counting scan (0 = all cores).
    pub threads: usize,
}

/// Arguments of `qar bench-dist`.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchDistArgs {
    /// Planted-dataset records the benchmark table holds.
    pub records: usize,
    /// Worker partitions the counting is distributed over.
    pub workers: usize,
    /// Minimum counting speedup; the run fails below this (0 = off).
    pub floor: f64,
    /// Where the machine-readable summary JSON goes; `None` falls back
    /// to `$QAR_BENCH_OUT`, then `BENCH_dist.json`.
    pub out: Option<String>,
}

/// Arguments of `qar bench-update`.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchUpdateArgs {
    /// Base-table records mined (with counts) before the delta arrives.
    pub records: usize,
    /// Appended delta size, as a fraction of the base table.
    pub delta: f64,
    /// Minimum update-vs-remine speedup; the run fails below this
    /// (0 = off).
    pub floor: f64,
    /// Where the machine-readable summary JSON goes; `None` falls back
    /// to `$QAR_BENCH_OUT`, then `BENCH_update.json`.
    pub out: Option<String>,
}

/// Arguments of `qar mine`.
#[derive(Debug, Clone, PartialEq)]
pub struct MineArgs {
    /// CSV path ("-" = stdin).
    pub input: String,
    /// Attribute declarations, `name:quant` / `name:cat`, in CSV header
    /// order (any order relative to the file's header is fine — matching
    /// is by name).
    pub schema: Vec<(String, bool)>,
    /// Miner configuration assembled from the flags.
    pub config: MinerConfig,
    /// Print at most this many rules (0 = all).
    pub top: usize,
    /// Show only interesting rules when an interest level is set.
    pub interesting_only: bool,
    /// Output format.
    pub format: OutputFormat,
    /// Taxonomy files: `(attribute, path)` pairs from `--taxonomy a=path`.
    pub taxonomy_files: Vec<(String, String)>,
    /// Emit per-pass trace events to stderr in this format.
    pub trace: Option<TraceFormat>,
    /// Abort the run after this many seconds, reporting partial progress.
    pub deadline: Option<f64>,
    /// Also write the mined ruleset to this `.qarcat` catalog file.
    pub store: Option<String>,
    /// Compute rule analytics (lift, conviction, chi², J-measure,
    /// Shapley attribution) and persist them in the stored catalog.
    pub analytics: bool,
    /// Distribute the counting passes over this many worker processes
    /// (0 = mine serially in this process).
    pub workers: usize,
    /// Stream the CSV in row blocks of this size and spill encoded
    /// chunks to disk instead of loading the table into memory
    /// (0 = in-memory).
    pub chunk_rows: usize,
    /// Zero the volatile statistics (timings, scan shapes) before storing or
    /// reporting, so identical inputs give byte-identical catalogs.
    pub normalize_stats: bool,
    /// Incremental mode: update this existing `.qarcat` catalog by
    /// scanning only the delta rows in `--input`, merging them with the
    /// catalog's persisted support counts. The catalog's schema and
    /// semantic configuration are authoritative; the refreshed catalog is
    /// rewritten in place unless `--store` redirects it.
    pub update: Option<String>,
}

/// Arguments of `qar trace-check`.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceCheckArgs {
    /// Trace file to validate; `-` (the default) reads stdin.
    pub input: String,
    /// Schema file path; `None` uses the checked-in default
    /// (`schemas/trace_events.schema.json`, compiled in).
    pub schema: Option<String>,
}

/// Arguments of `qar query`.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryArgs {
    /// Catalog path (`-` = stdin).
    pub catalog: String,
    /// Point query: `attr=value,...` — rules whose antecedents cover
    /// this record.
    pub record: Option<String>,
    /// Overlap query: `attr=lo..hi` — rules mentioning this value range.
    pub range: Option<String>,
    /// Keep only the first N rules after ranking (`None` = all).
    pub top_k: Option<usize>,
    /// Ranking metric; `None` preserves the catalog's mined order.
    pub by: Option<RankBy>,
    /// Keep only rules with `lift >= min_lift` (needs analytics).
    pub min_lift: Option<f64>,
    /// Keep only rules with BH-adjusted `p <= max_p` (needs analytics).
    pub max_p: Option<f64>,
    /// Output format.
    pub format: OutputFormat,
}

/// Arguments of `qar analyze`.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalyzeArgs {
    /// Catalog file to backfill (a real path — it is rewritten in place
    /// unless `--output` redirects).
    pub catalog: String,
    /// The catalog's source data as CSV (`-` = stdin); must have the
    /// same row count the catalog was mined from.
    pub input: String,
    /// Monte-Carlo permutations per rule for the Shapley attribution.
    pub samples: u32,
    /// Base seed for the deterministic Shapley sampler.
    pub seed: u64,
    /// Destination path; `None` rewrites the catalog in place.
    pub output: Option<String>,
    /// Emit store trace events to stderr in this format.
    pub trace: Option<TraceFormat>,
}

/// Arguments of `qar bench-analytics`.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchAnalyticsArgs {
    /// Planted-dataset records to mine the benchmark ruleset from.
    pub records: usize,
    /// Shapley samples per rule in the attribution timing.
    pub samples: u32,
    /// Minimum closed-form rules/sec; the run fails below this (0 = off).
    pub floor: f64,
    /// Where the machine-readable summary JSON goes; `None` falls back
    /// to `$QAR_BENCH_OUT`, then `BENCH_analytics.json`.
    pub out: Option<String>,
}

/// Arguments of `qar store-check`.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreCheckArgs {
    /// Catalog file to validate; `-` (the default) reads stdin.
    pub input: String,
}

/// Arguments of `qar fuzz`.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzArgs {
    /// Number of fuzz iterations.
    pub iters: u64,
    /// Base RNG seed; each iteration derives its own replayable seed.
    pub seed: u64,
    /// Directory minimized repro fixtures are written to.
    pub out: String,
}

/// Arguments of `qar serve`.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeArgs {
    /// `.qarcat` paths to serve; each becomes a slot named after its
    /// file stem.
    pub catalogs: Vec<String>,
    /// TCP port on 127.0.0.1 (0 lets the OS pick; the bound address is
    /// printed on startup).
    pub port: u16,
    /// Connection worker threads (0 = one per CPU). Each live connection
    /// occupies one worker, so size this to the expected concurrent
    /// client count.
    pub threads: usize,
    /// Emit server trace events to stderr in this format.
    pub trace: Option<TraceFormat>,
}

/// Arguments of `qar bench-serve`.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchServeArgs {
    /// Benchmark an already-running server at this address instead of
    /// spinning one up in-process.
    pub addr: Option<String>,
    /// Catalog the workload queries are drawn from. Required context for
    /// realistic queries; without it (addr mode only) the workload falls
    /// back to a generic query space.
    pub catalog: Option<String>,
    /// Concurrent client connections.
    pub clients: usize,
    /// Requests sent per client.
    pub requests: usize,
    /// Server worker threads in self-hosted mode (0 = one per client).
    pub threads: usize,
    /// Minimum aggregate queries/sec; the run fails below this (0 = off).
    pub floor: f64,
    /// Send a shutdown frame to an `--addr` server when done.
    pub shutdown: bool,
    /// Where the machine-readable summary JSON goes; `None` falls back
    /// to `$QAR_BENCH_OUT`, then `BENCH_serve.json`.
    pub out: Option<String>,
}

/// Output format for `qar mine`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OutputFormat {
    /// Human-readable report (default).
    #[default]
    Text,
    /// CSV with one rule per line.
    Csv,
    /// A JSON array of rule objects.
    Json,
}

/// Arguments of `qar generate`.
#[derive(Debug, Clone, PartialEq)]
pub struct GenerateArgs {
    /// Which dataset: "credit", "people", or "planted".
    pub dataset: String,
    /// Number of records (ignored for "people").
    pub records: usize,
    /// RNG seed.
    pub seed: u64,
    /// Output path ("-" = stdout).
    pub output: String,
}

/// CLI errors with user-facing messages.
#[derive(Debug, Clone, PartialEq)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

fn err(msg: impl Into<String>) -> CliError {
    CliError(msg.into())
}

/// Usage text.
pub const USAGE: &str = "\
qar — mine quantitative association rules (Srikant & Agrawal, SIGMOD '96)

USAGE:
  qar mine --input FILE --schema DECLS [options]
  qar generate DATASET [--records N] [--seed S] [--output FILE]
  qar query CATALOG [--record K=V,...|--range A=LO..HI] [--top-k N] [--by M]
  qar analyze CATALOG --input FILE [--samples N] [--seed S] [--output FILE]
  qar store-check [CATALOG]
  qar trace-check [TRACE] [--schema FILE]
  qar fuzz [--iters N] [--seed S] [--out DIR]
  qar serve CATALOG... [--port P] [--threads N] [--trace F]
  qar worker --connect HOST:PORT [--threads N]
  qar bench-serve [--addr HOST:PORT] [--catalog FILE] [options]
  qar bench-analytics [--records N] [--samples N] [--floor R] [--out FILE]
  qar bench-dist [--records N] [--workers W] [--floor R] [--out FILE]
  qar bench-update [--records N] [--delta F] [--floor R] [--out FILE]
  qar help

MINE OPTIONS:
  --input FILE          CSV file with a header row (\"-\" for stdin)
  --schema DECLS        comma-separated `name:quant` / `name:cat`
  --minsup F            minimum support fraction        [default 0.2]
  --minconf F           minimum confidence              [default 0.25]
  --maxsup F            maximum combined-range support  [default 0.4]
  --completeness K      partial completeness level      [default 2.0]
  --intervals N         fixed interval count (overrides --completeness)
  --no-partition        mine raw values (small domains only)
  --strategy S          equidepth | equiwidth | kmeans  [default equidepth]
  --interest R          interest level (> 1); omit to keep all rules
  --interest-mode M     and | or                        [default or]
  --max-size K          cap itemset size (0 = unbounded)
  --threads N           counting worker threads (0 = all cores) [default 0]
  --top N               print at most N rules (0 = all) [default 50]
  --all-rules           print pruned rules too (with a * marker)
  --format F            text | csv | json               [default text]
                        (csv/json always export ALL rules with verdicts)
  --taxonomy A=FILE     is-a taxonomy for categorical attribute A; FILE has
                        one `child,parent` edge per line (repeatable)
  --trace F             emit per-pass trace events to stderr: json | text
  --deadline SECS       abort after SECS seconds, reporting partial progress
  --store FILE          also write the ruleset to FILE as a .qarcat catalog
                        (query it later with `qar query`, no re-mining)
  --analytics           compute rule analytics (lift, conviction, leverage,
                        chi² + BH-adjusted p, J-measure, Shapley attribution)
                        from the mine's own counts and persist them in the
                        stored catalog (requires --store; incompatible with
                        --workers / --chunk-rows)
  --workers N           distribute the counting passes over N worker
                        processes (spawned from this binary as
                        `qar worker`); candidate generation, frequency
                        decisions, and rule generation stay in the
                        coordinator, and the result is bit-identical to a
                        serial run                      [default 0 = serial]
  --chunk-rows N        stream the CSV in N-row blocks and spill encoded
                        chunks to a temp directory, mining out-of-core
                        with one chunk in memory at a time; needs a real
                        --input file (read twice)    [default 0 = in-memory]
  --normalize-stats     zero the volatile statistics (timings, scan
                        shapes) before storing/reporting so identical
                        inputs give byte-identical .qarcat catalogs
                        across serial, --workers, and --chunk-rows runs
  --update CATALOG      incremental mode: treat --input as the rows
                        APPENDED since CATALOG was mined, scan only
                        them, and merge with the catalog's persisted
                        support counts (a catalog stored by `qar mine
                        --store` carries them). Schema, thresholds, and
                        partitioning come from the catalog, so the
                        corresponding flags are rejected; the refreshed
                        catalog rewrites CATALOG in place unless --store
                        redirects it. The result is identical to mining
                        base+delta from scratch; when the delta would
                        change the encoding (interval repartitioning, an
                        unseen value) or a support crosses a threshold,
                        the update stops with an `incremental_fallback`
                        trace event and an error naming the reason —
                        re-mine from the full data then

GENERATE:
  DATASET               credit | people | planted
  --records N           number of records               [default 10000]
  --seed S              RNG seed                        [default 1996]
  --output FILE         destination (\"-\" for stdout)  [default -]

QUERY:
  CATALOG               .qarcat file written by `qar mine --store`
                        (\"-\" reads the catalog from stdin)
  --record K=V,...      rules that FIRE for this record: every antecedent
                        item is satisfied by the record's value on that
                        attribute
  --range A=LO..HI      rules MENTIONING quantitative attribute A on
                        [LO, HI] (either rule side, bounds inclusive)
  --top-k N             keep only the first N rules after ranking (0 = all)
  --by M                rank by support | confidence | interest, or — with
                        an analytics section — lift | conviction | chi2 |
                        jmeasure   [default: the catalog's mined order]
  --min-lift F          keep only rules with lift >= F (needs analytics)
  --max-p F             keep only rules with BH-adjusted p <= F (needs
                        analytics)
  --format F            text | csv | json               [default text]

ANALYZE:
  Backfills the ANALYTICS section into a catalog mined before analytics
  existed (or re-computes it with different sampling). Re-encodes the
  catalog's source CSV with the catalog's own encoders and counts
  support by direct scan; the result is bit-identical to what
  `qar mine --analytics` would have stored.
  CATALOG               .qarcat file to annotate (rewritten in place)
  --input FILE          the catalog's source data as CSV (\"-\" = stdin);
                        row count must match the catalog
  --samples N           Shapley permutations per rule     [default 64]
  --seed S              Shapley sampler base seed
  --output FILE         write the annotated catalog here instead of
                        rewriting CATALOG in place
  --trace F             emit store trace events to stderr: json | text

STORE-CHECK:
  Decodes a .qarcat catalog (\"-\" or no argument reads stdin), verifying
  magic, version, section checksums, and structural invariants, then
  prints a summary and a section inventory (tag, length, CRC verdict,
  and how many unknown trailing sections this version skips). Exits
  non-zero on any corruption.

TRACE-CHECK:
  Reads a JSON-lines trace stream (as written by --trace json) from TRACE
  (\"-\" or no argument reads stdin) and validates every event against the
  trace-event schema.
  --schema FILE         schema to validate against
                        [default schemas/trace_events.schema.json]

FUZZ:
  Draws random tables and configurations (skewed toward boundary cases)
  and cross-checks every mining path — serial, parallel, the brute-force
  reference, the apriori bridge, the catalog round trip, and the bitmask
  scan kernel against the direct reference scan on boundary-skewed and
  duplicate-heavy tables — for agreement. On divergence the failing
  case is shrunk to a minimal repro and written as a fixture under
  --out; the exit code is non-zero.
  --iters N             fuzz iterations                 [default 200]
  --seed S              base RNG seed (each iteration derives a
                        replayable per-case seed)       [default 42]
  --out DIR             fixture directory    [default tests/fuzz_repros]

SERVE:
  Long-lived rule-serving daemon on 127.0.0.1. Loads each CATALOG into a
  slot named after its file stem and answers point / range / top-k /
  batch queries over a length-prefixed, CRC-framed TCP protocol (see
  DESIGN.md §12). Prints `listening on ADDR` once bound, then blocks.
  Stop it with a shutdown frame (`qar bench-serve --addr A --shutdown`).
  Catalogs hot-reload in place on a reload frame; in-flight queries
  finish on the old snapshot.
  --port P              TCP port (0 = OS-assigned)      [default 0]
  --threads N           connection workers (0 = one per CPU); each live
                        connection occupies one worker  [default 0]
  --trace F             emit server trace events to stderr: json | text

WORKER:
  Counting worker for distributed mining. Connects to a `qar mine
  --workers N` coordinator, receives the schema, encoders, and its row
  partition over the wire, and answers per-pass counting requests with
  raw u64 tallies until the coordinator shuts it down. Normally spawned
  by the coordinator itself; run it by hand only to place workers on
  other machines or debug the protocol.
  --connect HOST:PORT   coordinator address (required)
  --threads N           threads per counting scan (0 = all cores)

BENCH-SERVE:
  Drives a mixed point/range/top-k/batch workload from concurrent client
  connections, reports p50/p99 request latency and aggregate throughput,
  and writes a summary JSON line to BENCH_serve.json. Without --addr it
  mines a planted catalog and serves it in-process on an OS-assigned
  port. Exits non-zero below the throughput floor.
  --addr HOST:PORT      benchmark an already-running server
  --catalog FILE        catalog to draw realistic queries from (used as
                        the slot name via its file stem; in self-hosted
                        mode also the catalog served)
  --clients N           concurrent connections          [default 8]
  --requests M          requests per client             [default 2000]
                        (QAR_BENCH_QUICK=1 caps this at 300)
  --threads N           self-hosted server workers (0 = one per client)
  --floor Q             fail under Q aggregate queries/sec (0 = off)
                        [default 50000]
  --shutdown            send a shutdown frame to an --addr server after
                        the run
  --out FILE            summary JSON destination
                        [default $QAR_BENCH_OUT, then BENCH_serve.json]

BENCH-ANALYTICS:
  Mines a planted catalog, then times the analytics subsystem: the
  closed-form measures (lift, conviction, leverage, chi² + p, J-measure,
  BH correction) as rules/sec and the Monte-Carlo Shapley attribution as
  samples/sec. Writes a summary JSON line to BENCH_analytics.json.
  Exits non-zero below the closed-form floor.
  --records N           planted records to mine         [default 5000]
                        (QAR_BENCH_QUICK=1 caps this at 1000)
  --samples N           Shapley permutations per rule   [default 64]
  --floor R             fail under R closed-form rules/sec (0 = off)
                        [default 500]
  --out FILE            summary JSON destination
                        [default $QAR_BENCH_OUT, then BENCH_analytics.json]

BENCH-DIST:
  Measures what count distribution buys per pass: mines a planted table
  once, timing every counting pass twice — a single serial scan over the
  whole table, and the distributed critical path (the slowest of W
  equal contiguous partitions scanned with the same single-threaded
  kernel, plus the coordinator's element-wise merge). The reported
  speedup = serial / (critical path + merge) isolates the algorithmic
  gain from host core count, so it holds on a single-core machine; it
  still falls below W when merge overhead or partition skew eats the
  margin. Every pass asserts the merged partition counts equal the
  serial counts. Writes a summary JSON line to BENCH_dist.json and
  exits non-zero below the floor.
  --records N           planted records to mine      [default 10000000]
                        (QAR_BENCH_QUICK=1 caps this at 200000)
  --workers W           partitions to distribute over   [default 2]
  --floor R             fail under speedup R (0 = off)  [default 1.6]
  --out FILE            summary JSON destination
                        [default $QAR_BENCH_OUT, then BENCH_dist.json]

BENCH-UPDATE:
  Measures what persisted counts buy: synthesizes a small-domain table,
  mines the base with count capture, appends a --delta fraction of new
  rows, then times a full re-mine of base+delta against an incremental
  `--update` (delta-only scan merged with the persisted counts). Every
  run asserts the update stayed on the incremental path and produced
  counts identical to the from-scratch mine. Writes a summary JSON line
  to BENCH_update.json and exits non-zero below the floor.
  --records N           base-table records              [default 1000000]
                        (QAR_BENCH_QUICK=1 caps this at 50000)
  --delta F             appended fraction of the base   [default 0.01]
  --floor R             fail under speedup R (0 = off)  [default 5.0]
  --out FILE            summary JSON destination
                        [default $QAR_BENCH_OUT, then BENCH_update.json]
";

/// One verb's entry in the flag table: how many positional arguments may
/// lead its command line, the flags it takes (space-separated, by how
/// they take a value), and how the parsed flags become a [`Command`].
struct VerbSpec {
    verb: &'static str,
    /// Most leading positional arguments (`usize::MAX` = any number).
    positionals: usize,
    /// `--flag VALUE`, at most once.
    values: &'static str,
    /// `--flag` alone, at most once.
    switches: &'static str,
    /// `--flag VALUE`, any number of times.
    repeated: &'static str,
    build: fn(&Flags<'_>) -> Result<Command, CliError>,
}

/// The flag table: one entry per verb. [`parse_command`] rejects any
/// flag its verb's entry does not list, and a test holds each entry to
/// the verb's section of [`USAGE`].
const VERBS: &[VerbSpec] = &[
    VerbSpec {
        verb: "mine",
        positionals: 0,
        values: "input schema minsup minconf maxsup completeness intervals strategy interest \
                 interest-mode max-size threads top format trace deadline store workers \
                 chunk-rows update",
        switches: "no-partition all-rules analytics normalize-stats",
        repeated: "taxonomy",
        build: mine_command,
    },
    VerbSpec {
        verb: "generate",
        positionals: 1,
        values: "records seed output",
        switches: "",
        repeated: "",
        build: generate_command,
    },
    VerbSpec {
        verb: "query",
        positionals: 1,
        values: "record range top-k by min-lift max-p format",
        switches: "",
        repeated: "",
        build: query_command,
    },
    VerbSpec {
        verb: "analyze",
        positionals: 1,
        values: "input samples seed output trace",
        switches: "",
        repeated: "",
        build: analyze_command,
    },
    VerbSpec {
        verb: "store-check",
        positionals: 1,
        values: "",
        switches: "",
        repeated: "",
        build: |f| {
            let input = f.positional().unwrap_or("-").to_string();
            Ok(Command::StoreCheck(StoreCheckArgs { input }))
        },
    },
    VerbSpec {
        verb: "trace-check",
        positionals: 1,
        values: "schema",
        switches: "",
        repeated: "",
        build: |f| {
            Ok(Command::TraceCheck(TraceCheckArgs {
                input: f.positional().unwrap_or("-").to_string(),
                schema: f.string("schema"),
            }))
        },
    },
    VerbSpec {
        verb: "fuzz",
        positionals: 0,
        values: "iters seed out",
        switches: "",
        repeated: "",
        build: |f| {
            Ok(Command::Fuzz(FuzzArgs {
                iters: f.at_least("iters", 200, 1)? as u64,
                seed: f.usize_or("seed", 42)? as u64,
                out: f.string("out").unwrap_or("tests/fuzz_repros".into()),
            }))
        },
    },
    VerbSpec {
        verb: "serve",
        positionals: usize::MAX,
        values: "port threads trace",
        switches: "",
        repeated: "",
        build: serve_command,
    },
    VerbSpec {
        verb: "worker",
        positionals: 0,
        values: "connect threads",
        switches: "",
        repeated: "",
        build: |f| {
            Ok(Command::Worker(WorkerArgs {
                connect: f.required("connect", "worker requires --connect HOST:PORT")?,
                threads: f.threads()?,
            }))
        },
    },
    VerbSpec {
        verb: "bench-serve",
        positionals: 0,
        values: "addr catalog clients requests threads floor out",
        switches: "shutdown",
        repeated: "",
        build: bench_serve_command,
    },
    VerbSpec {
        verb: "bench-analytics",
        positionals: 0,
        values: "records samples floor out",
        switches: "",
        repeated: "",
        build: |f| {
            let samples = f.at_least("samples", 64, 1)?;
            Ok(Command::BenchAnalytics(BenchAnalyticsArgs {
                records: f.at_least("records", 5_000, 1)?,
                samples: u32::try_from(samples)
                    .map_err(|_| err("--samples must fit in 32 bits"))?,
                floor: f.f64_or("floor", 500.0)?,
                out: f.string("out"),
            }))
        },
    },
    VerbSpec {
        verb: "bench-dist",
        positionals: 0,
        values: "records workers floor out",
        switches: "",
        repeated: "",
        build: |f| {
            Ok(Command::BenchDist(BenchDistArgs {
                records: f.at_least("records", 10_000_000, 1)?,
                // A one-worker split has no counting to distribute.
                workers: f.at_least("workers", 2, 2)?,
                floor: f.f64_or("floor", 1.6)?,
                out: f.string("out"),
            }))
        },
    },
    VerbSpec {
        verb: "bench-update",
        positionals: 0,
        values: "records delta floor out",
        switches: "",
        repeated: "",
        build: |f| {
            let delta = f.f64_or("delta", 0.01)?;
            if !delta.is_finite() || delta <= 0.0 || delta > 1.0 {
                return Err(err(
                    "--delta must be a fraction of the base table in (0, 1]",
                ));
            }
            Ok(Command::BenchUpdate(BenchUpdateArgs {
                records: f.at_least("records", 1_000_000, 1)?,
                delta,
                floor: f.f64_or("floor", 5.0)?,
                out: f.string("out"),
            }))
        },
    },
    VerbSpec {
        verb: "help",
        positionals: 0,
        values: "",
        switches: "",
        repeated: "",
        build: |_| Ok(Command::Help),
    },
];

/// A command line checked against its verb's [`VerbSpec`]: the leading
/// positional arguments, and the values each given flag took (none for a
/// switch).
struct Flags<'a> {
    positionals: &'a [String],
    values: BTreeMap<&'static str, Vec<&'a str>>,
}

impl<'a> Flags<'a> {
    fn parse(spec: &VerbSpec, args: &'a [String]) -> Result<Flags<'a>, CliError> {
        let split = args
            .iter()
            .position(|a| a.starts_with("--"))
            .unwrap_or(args.len());
        let (positionals, mut rest) = args.split_at(split);
        let unexpected = |arg| err(format!("unexpected argument `{arg}` (expected a --flag)"));
        if let Some(extra) = positionals.get(spec.positionals) {
            return Err(unexpected(extra));
        }
        let mut values: BTreeMap<&'static str, Vec<&'a str>> = BTreeMap::new();
        while let Some((arg, tail)) = rest.split_first() {
            let given = arg.strip_prefix("--").ok_or_else(|| unexpected(arg))?;
            let listed = |list: &'static str| list.split_whitespace().find(|f| *f == given);
            let switch = listed(spec.switches);
            let repeated = listed(spec.repeated);
            let name = (switch.or(repeated))
                .or_else(|| listed(spec.values))
                .ok_or_else(|| err(format!("{} does not take --{given}", spec.verb)))?;
            if repeated.is_none() && values.contains_key(name) {
                return Err(err(format!("--{name} is given more than once")));
            }
            let taken = values.entry(name).or_default();
            rest = tail;
            if switch.is_some() {
                continue;
            }
            let (value, tail) = rest
                .split_first()
                .ok_or_else(|| err(format!("flag --{name} needs a value")))?;
            taken.push(value);
            rest = tail;
        }
        Ok(Flags {
            positionals,
            values,
        })
    }

    fn positional(&self) -> Option<&'a str> {
        self.positionals.first().map(String::as_str)
    }

    fn has(&self, name: &str) -> bool {
        self.values.contains_key(name)
    }

    fn get(&self, name: &str) -> Option<&'a str> {
        self.all(name).first().copied()
    }

    fn all(&self, name: &str) -> &[&'a str] {
        self.values.get(name).map_or(&[], Vec::as_slice)
    }

    fn string(&self, name: &str) -> Option<String> {
        self.get(name).map(str::to_string)
    }

    fn required(&self, name: &str, missing: &str) -> Result<String, CliError> {
        self.string(name).ok_or_else(|| err(missing))
    }

    /// `--name`'s value parsed as a `T`; `expected` says what a value
    /// that does not parse should have been.
    fn parsed<T: std::str::FromStr>(
        &self,
        name: &str,
        expected: &str,
    ) -> Result<Option<T>, CliError> {
        self.get(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| err(format!("--{name}: `{v}` is not {expected}")))
            })
            .transpose()
    }

    fn f64_or(&self, name: &str, default: f64) -> Result<f64, CliError> {
        Ok(self.parsed(name, "a number")?.unwrap_or(default))
    }

    fn usize_or(&self, name: &str, default: usize) -> Result<usize, CliError> {
        Ok(self.parsed(name, "an integer")?.unwrap_or(default))
    }

    fn at_least(&self, name: &str, default: usize, min: usize) -> Result<usize, CliError> {
        match self.usize_or(name, default)? {
            n if n < min => Err(err(format!("--{name} must be at least {min}"))),
            n => Ok(n),
        }
    }

    /// `--threads N` (0 = the default), at most [`MAX_THREADS`].
    fn threads(&self) -> Result<usize, CliError> {
        match self.usize_or("threads", 0)? {
            n if n > MAX_THREADS => Err(err(format!("--threads must be at most {MAX_THREADS}"))),
            n => Ok(n),
        }
    }

    fn trace(&self) -> Result<Option<TraceFormat>, CliError> {
        self.parsed("trace", "json or text")
    }

    fn format(&self) -> Result<OutputFormat, CliError> {
        match self.get("format") {
            None | Some("text") => Ok(OutputFormat::Text),
            Some("csv") => Ok(OutputFormat::Csv),
            Some("json") => Ok(OutputFormat::Json),
            Some(other) => Err(err(format!("unknown format `{other}`"))),
        }
    }
}

/// Parse a full command line (without the program name).
pub fn parse_command(args: &[String]) -> Result<Command, CliError> {
    let Some((verb, rest)) = args.split_first() else {
        return Ok(Command::Help);
    };
    let verb = match verb.as_str() {
        "--help" | "-h" => "help",
        verb => verb,
    };
    let spec = VERBS
        .iter()
        .find(|spec| spec.verb == verb)
        .ok_or_else(|| err(format!("unknown command `{verb}` (try `qar help`)")))?;
    (spec.build)(&Flags::parse(spec, rest)?)
}

/// The flags an `--update` takes from the catalog's persisted counts:
/// re-specifying any of them would silently disagree with what the
/// counts mean.
const PINNED_BY_CATALOG: &str = "schema minsup minconf maxsup completeness intervals \
                                 no-partition strategy interest interest-mode max-size taxonomy";

fn mine_command(f: &Flags<'_>) -> Result<Command, CliError> {
    let input = f.required("input", "mine requires --input FILE")?;
    let update = f.string("update");
    let schema = if update.is_some() {
        if let Some(key) = PINNED_BY_CATALOG.split_whitespace().find(|key| f.has(key)) {
            return Err(err(format!(
                "--{key} cannot be combined with --update: the schema, thresholds, \
                 and partitioning come from the catalog's persisted counts"
            )));
        }
        Vec::new()
    } else {
        parse_schema_decls(
            f.get("schema")
                .ok_or_else(|| err("mine requires --schema DECLS"))?,
        )?
    };
    let partitioning = if f.has("no-partition") {
        PartitionSpec::None
    } else if let Some(n) = f.parsed("intervals", "an integer")? {
        PartitionSpec::FixedIntervals(n)
    } else {
        PartitionSpec::CompletenessLevel(f.f64_or("completeness", 2.0)?)
    };
    let partition_strategy = match f.get("strategy") {
        None | Some("equidepth") => PartitionStrategy::EquiDepth,
        Some("equiwidth") => PartitionStrategy::EquiWidth,
        Some("kmeans") => PartitionStrategy::KMeans,
        Some(other) => return Err(err(format!("unknown strategy `{other}`"))),
    };
    let interest = match f.parsed("interest", "a number")? {
        None => None,
        Some(level) => {
            let mode = match f.get("interest-mode") {
                None | Some("or") => InterestMode::SupportOrConfidence,
                Some("and") => InterestMode::SupportAndConfidence,
                Some(other) => return Err(err(format!("unknown interest mode `{other}`"))),
            };
            Some(InterestConfig {
                level,
                mode,
                prune_candidates: mode == InterestMode::SupportAndConfidence,
            })
        }
    };
    let config = MinerConfig {
        min_support: f.f64_or("minsup", 0.2)?,
        min_confidence: f.f64_or("minconf", 0.25)?,
        max_support: f.f64_or("maxsup", 0.4)?,
        partitioning,
        partition_strategy,
        taxonomies: Default::default(),
        interest,
        max_itemset_size: f.usize_or("max-size", 0)?,
        parallelism: std::num::NonZeroUsize::new(f.threads()?),
        kernel: Default::default(),
    };
    config.validate().map_err(|e| err(e.to_string()))?;
    let format = f.format()?;
    let taxonomy_files = f
        .all("taxonomy")
        .iter()
        .map(|entry| {
            let (attr, path) = entry
                .split_once('=')
                .ok_or_else(|| err(format!("--taxonomy `{entry}` must be attribute=file")))?;
            Ok((attr.trim().to_string(), path.trim().to_string()))
        })
        .collect::<Result<_, CliError>>()?;
    let trace = f.trace()?;
    let deadline = f.parsed::<f64>("deadline", "a number")?;
    if let Some(secs) = deadline.filter(|secs| !secs.is_finite() || *secs <= 0.0) {
        return Err(err(format!("--deadline must be positive, got {secs}")));
    }
    let analytics = f.has("analytics");
    // An update rewrites its catalog in place, so it has a destination
    // for the analytics even without --store.
    if analytics && !f.has("store") && update.is_none() {
        return Err(err(
            "--analytics requires --store FILE (analytics are persisted in the catalog)",
        ));
    }
    let workers = f.usize_or("workers", 0)?;
    let chunk_rows = f.usize_or("chunk-rows", 0)?;
    if analytics && (workers > 0 || chunk_rows > 0) {
        return Err(err(
            "--analytics needs the full in-memory table; drop --workers/--chunk-rows \
             or backfill the catalog later with `qar analyze`",
        ));
    }
    if chunk_rows > 0 && input == "-" {
        return Err(err(
            "--chunk-rows streams the input twice (stats pass, then spill pass), \
             so it needs a real --input file, not stdin",
        ));
    }
    Ok(Command::Mine(MineArgs {
        input,
        schema,
        config,
        top: f.usize_or("top", 50)?,
        interesting_only: !f.has("all-rules"),
        format,
        taxonomy_files,
        trace,
        deadline,
        store: f.string("store"),
        analytics,
        workers,
        chunk_rows,
        normalize_stats: f.has("normalize-stats"),
        update,
    }))
}

fn generate_command(f: &Flags<'_>) -> Result<Command, CliError> {
    let dataset = f
        .positional()
        .ok_or_else(|| err("generate requires a dataset: credit | people | planted"))?;
    if !["credit", "people", "planted"].contains(&dataset) {
        return Err(err(format!("unknown dataset `{dataset}`")));
    }
    Ok(Command::Generate(GenerateArgs {
        dataset: dataset.to_string(),
        records: f.usize_or("records", 10_000)?,
        seed: f.usize_or("seed", 1996)? as u64,
        output: f.string("output").unwrap_or("-".into()),
    }))
}

fn query_command(f: &Flags<'_>) -> Result<Command, CliError> {
    let catalog = f
        .positional()
        .ok_or_else(|| err("query requires a CATALOG path (or `-` for stdin)"))?;
    if f.has("record") && f.has("range") {
        return Err(err("--record and --range are mutually exclusive"));
    }
    let by = f.get("by").map(str::parse::<RankBy>).transpose();
    Ok(Command::Query(QueryArgs {
        catalog: catalog.to_string(),
        record: f.string("record"),
        range: f.string("range"),
        top_k: f.parsed("top-k", "an integer")?,
        by: by.map_err(|e| err(format!("--by: {e}")))?,
        min_lift: f.parsed("min-lift", "a number")?,
        max_p: f.parsed("max-p", "a number")?,
        format: f.format()?,
    }))
}

fn analyze_command(f: &Flags<'_>) -> Result<Command, CliError> {
    let catalog = f.positional().filter(|c| *c != "-").ok_or_else(|| {
        err(
            "analyze requires a CATALOG file path (it is rewritten in place \
             unless --output redirects, so stdin is not supported)",
        )
    })?;
    let defaults = AnalyticsConfig::default();
    let samples = f.at_least("samples", defaults.shapley_samples as usize, 1)?;
    Ok(Command::Analyze(AnalyzeArgs {
        catalog: catalog.to_string(),
        input: f.required(
            "input",
            "analyze requires --input FILE (the catalog's source CSV)",
        )?,
        samples: u32::try_from(samples).map_err(|_| err("--samples must fit in 32 bits"))?,
        seed: f.usize_or("seed", defaults.seed as usize)? as u64,
        output: f.string("output"),
        trace: f.trace()?,
    }))
}

fn serve_command(f: &Flags<'_>) -> Result<Command, CliError> {
    if f.positionals.is_empty() {
        return Err(err("serve requires at least one CATALOG path"));
    }
    let port = f.usize_or("port", 0)?;
    Ok(Command::Serve(ServeArgs {
        catalogs: f.positionals.to_vec(),
        port: u16::try_from(port).map_err(|_| err(format!("--port {port} is not a TCP port")))?,
        threads: f.threads()?,
        trace: f.trace()?,
    }))
}

fn bench_serve_command(f: &Flags<'_>) -> Result<Command, CliError> {
    if f.has("shutdown") && !f.has("addr") {
        return Err(err(
            "--shutdown only applies with --addr (self-hosted servers always stop)",
        ));
    }
    Ok(Command::BenchServe(BenchServeArgs {
        addr: f.string("addr"),
        catalog: f.string("catalog"),
        clients: f.at_least("clients", 8, 1)?,
        requests: f.at_least("requests", 2000, 1)?,
        threads: f.threads()?,
        floor: f.f64_or("floor", 50_000.0)?,
        shutdown: f.has("shutdown"),
        out: f.string("out"),
    }))
}

/// Parse `name:quant,name:cat,...` declarations.
pub fn parse_schema_decls(decls: &str) -> Result<Vec<(String, bool)>, CliError> {
    let mut out = Vec::new();
    for part in decls.split(',') {
        let (name, kind) = part.split_once(':').ok_or_else(|| {
            err(format!(
                "schema entry `{part}` must be name:quant or name:cat"
            ))
        })?;
        let quant = match kind.trim() {
            "quant" | "q" | "quantitative" => true,
            "cat" | "c" | "categorical" => false,
            other => return Err(err(format!("unknown attribute kind `{other}`"))),
        };
        if name.trim().is_empty() {
            return Err(err("empty attribute name in schema"));
        }
        out.push((name.trim().to_string(), quant));
    }
    if out.is_empty() {
        return Err(err("schema has no attributes"));
    }
    Ok(out)
}

/// Build a [`Schema`] from parsed declarations.
pub fn build_schema(decls: &[(String, bool)]) -> Result<Schema, CliError> {
    let mut builder: SchemaBuilder = Schema::builder();
    for (name, quant) in decls {
        builder = if *quant {
            builder.quantitative(name.clone())
        } else {
            builder.categorical(name.clone())
        };
    }
    builder.build().map_err(|e| err(e.to_string()))
}

/// Parse a taxonomy edge file: one `child,parent` pair per line; blank
/// lines and `#` comments ignored.
fn parse_taxonomy(text: &str) -> Result<qar_table::Taxonomy, CliError> {
    let mut edges: Vec<(String, String)> = Vec::new();
    for (no, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (child, parent) = line
            .split_once(',')
            .ok_or_else(|| err(format!("taxonomy line {}: expected `child,parent`", no + 1)))?;
        edges.push((child.trim().to_string(), parent.trim().to_string()));
    }
    if edges.is_empty() {
        return Err(err("taxonomy file has no edges"));
    }
    qar_table::Taxonomy::from_edges(&edges).map_err(|e| err(e.to_string()))
}

/// The stderr trace sink a `--trace` flag asks for, shared between the
/// miner and the catalog store so their events interleave on one stream.
pub fn trace_sink(trace: Option<TraceFormat>) -> Option<Arc<dyn ProgressSink>> {
    trace
        .map(|format| Arc::new(WriterSink::new(format, std::io::stderr())) as Arc<dyn ProgressSink>)
}

/// The [`WorkerSpawn`] a production `qar mine --workers N` uses: child
/// processes of this very binary running `qar worker`, inheriting the
/// mine's thread count. `None` without `--workers`.
pub fn process_spawn(args: &MineArgs) -> Result<Option<WorkerSpawn>, CliError> {
    if args.workers == 0 {
        return Ok(None);
    }
    let exe = std::env::current_exe()
        .map_err(|e| err(format!("cannot locate the qar binary for workers: {e}")))?;
    let mut worker_args = Vec::new();
    if let Some(threads) = args.config.parallelism {
        worker_args.push("--threads".to_string());
        worker_args.push(threads.get().to_string());
    }
    Ok(Some(WorkerSpawn::Processes {
        exe,
        args: worker_args,
    }))
}

/// Run a parsed command: read its inputs, write its report to `out`
/// (stdout in `qar`) and its files, and fail a bench that misses its
/// `--floor`. When the reader of `out` closes it early (`qar query CAT |
/// head -1`), the run ends quietly with `Ok`; every other failure,
/// including a broken socket or file, is returned.
pub fn run(command: &Command, out: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    let mut stdout = Stdout { out, closed: false };
    let result = dispatch(command, &mut stdout);
    let result = result.and_then(|()| Ok(stdout.flush()?));
    match result {
        Err(_) if stdout.closed => Ok(()),
        result => result,
    }
}

/// The dispatcher's `out`, noting whether its reader has hung up.
struct Stdout<'a> {
    out: &'a mut dyn Write,
    closed: bool,
}

impl Write for Stdout<'_> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let written = self.out.write(buf);
        self.closed |= matches!(&written, Err(e) if e.kind() == ErrorKind::BrokenPipe);
        written
    }

    fn flush(&mut self) -> std::io::Result<()> {
        let flushed = self.out.flush();
        self.closed |= matches!(&flushed, Err(e) if e.kind() == ErrorKind::BrokenPipe);
        flushed
    }
}

fn dispatch(command: &Command, out: &mut Stdout<'_>) -> Result<(), Box<dyn Error>> {
    match command {
        Command::Help => out.write_all(USAGE.as_bytes())?,
        Command::Mine(args) => run_mine(args, process_spawn(args)?, trace_sink(args.trace), out)?,
        Command::Generate(args) if args.output == "-" => run_generate(args, out)?,
        Command::Generate(args) => run_generate(args, &mut File::create(&args.output)?)?,
        Command::TraceCheck(args) => {
            let schema = match &args.schema {
                None => TRACE_SCHEMA.to_string(),
                Some(path) => std::fs::read_to_string(path)
                    .map_err(|e| err(format!("cannot read schema `{path}`: {e}")))?,
            };
            let trace = String::from_utf8(read_input(&args.input)?)
                .map_err(|e| err(format!("trace `{}`: {e}", args.input)))?;
            run_trace_check(&schema, &trace, out)?;
        }
        Command::Query(args) => run_query(&read_input(&args.catalog)?, args, out)?,
        Command::Analyze(args) => {
            let catalog = read_input(&args.catalog)?;
            let annotated = run_analyze(&catalog, &read_input(&args.input)?, args, out)?;
            let dest = args.output.as_deref().unwrap_or(&args.catalog);
            std::fs::write(dest, annotated)?;
            writeln!(out, "annotated catalog written to {dest}")?;
        }
        Command::StoreCheck(args) => run_store_check(&read_input(&args.input)?, out)?,
        Command::Fuzz(args) => match run_fuzz(args, out)? {
            0 => {}
            n => return Err(err(format!("{n} divergence(s) found; see fixtures above")).into()),
        },
        Command::Serve(args) => {
            let slots = catalog_slots(&args.catalogs)?;
            let config = ServerConfig {
                port: args.port,
                threads: args.threads,
            };
            let server = Server::bind(&slots, &config, trace_sink(args.trace))?;
            // Scripts parse this line for the bound address (port 0 is
            // OS-assigned), so it is flushed before the accept loop.
            writeln!(
                out,
                "listening on {} ({} catalog(s), {} worker(s))",
                server.local_addr(),
                slots.len(),
                server.threads()
            )?;
            out.flush()?;
            server.serve()?;
        }
        Command::Worker(args) => {
            let options = WorkerOptions {
                num_threads: args.threads,
            };
            qar_dist::run_worker(&args.connect, &options)
                .map_err(|e| err(format!("worker: {e}")))?;
        }
        Command::BenchServe(a) => check_floor("bench-serve", run_bench_serve(a, out)?, a.floor)?,
        Command::BenchAnalytics(a) => {
            check_floor("bench-analytics", run_bench_analytics(a, out)?, a.floor)?
        }
        Command::BenchDist(a) => check_floor("bench-dist", run_bench_dist(a, out)?, a.floor)?,
        Command::BenchUpdate(a) => check_floor("bench-update", run_bench_update(a, out)?, a.floor)?,
    }
    Ok(())
}

/// Fail a bench whose measured number is under its `--floor` (0 = off).
fn check_floor(verb: &str, measured: f64, floor: f64) -> Result<(), CliError> {
    if floor > 0.0 && measured < floor {
        return Err(err(format!(
            "{verb}: {measured:.2} is below the --floor {floor}"
        )));
    }
    Ok(())
}

/// Open an input given as a path, or as `-` for stdin.
fn open_input(path: &str) -> Result<Box<dyn BufRead>, CliError> {
    if path == "-" {
        return Ok(Box::new(std::io::stdin().lock()));
    }
    let file = File::open(path).map_err(|e| err(format!("cannot open `{path}`: {e}")))?;
    Ok(Box::new(BufReader::new(file)))
}

/// The whole of an [`open_input`] input, for commands that decode it in
/// one piece.
fn read_input(path: &str) -> Result<Vec<u8>, CliError> {
    let mut bytes = Vec::new();
    open_input(path)?
        .read_to_end(&mut bytes)
        .map_err(|e| err(format!("cannot read `{path}`: {e}")))?;
    Ok(bytes)
}

/// The deadline token a `--deadline` flag asks for.
fn deadline_token(args: &MineArgs) -> Option<CancelToken> {
    args.deadline
        .map(|secs| CancelToken::with_deadline(Duration::from_secs_f64(secs)))
}

/// The counting source a `qar mine` topology runs on: `--workers N`
/// worker processes, or this process over the in-memory rows or spilled
/// chunks `backing` holds.
fn topology_source<'a>(
    args: &MineArgs,
    config: &'a MinerConfig,
    backing: Backing<'a>,
    spawn: Option<WorkerSpawn>,
    sink: Option<&'a dyn ProgressSink>,
    cancel: Option<&'a CancelToken>,
) -> Result<Box<dyn CountSource + 'a>, MinerError> {
    if args.workers == 0 {
        return Ok(Box::new(
            InMemorySource::new(backing, config).with_cancel(cancel),
        ));
    }
    let spawn = spawn.ok_or_else(|| {
        MinerError::Distributed("distributed mining needs a worker spawn".to_string())
    })?;
    let options = DistOptions {
        workers: args.workers,
        spawn,
        ..DistOptions::default()
    };
    Ok(Box::new(DistSource::start(
        backing, config, &options, sink, cancel,
    )?))
}

/// Execute `qar mine`, writing the report to `out` and trace events to
/// `sink`. With `--workers N` the counting passes run on workers started
/// by `spawn` — [`process_spawn`] in production, in-process threads in
/// tests.
///
/// One flow serves every topology. One loader reads `--input` once
/// into rows in memory, or spilled chunks under `--chunk-rows`. A fresh
/// mine runs the whole pipeline on them. `--update CATALOG` encodes them
/// under the catalog's encoders instead and merges them with its
/// persisted support counts through [`Miner::update_source`], with no
/// base rows, so a fallback ends as an error; the catalog's schema and
/// semantic configuration are authoritative, and only `--threads` and
/// the topology come from this command line. The tail is shared:
/// normalize the stats when asked, save the catalog — with analytics
/// under `--analytics`, and the support counts a later `--update` needs —
/// to `--store` or back over the updated catalog, and write the report.
pub fn run_mine(
    args: &MineArgs,
    spawn: Option<WorkerSpawn>,
    sink: Option<Arc<dyn ProgressSink>>,
    out: &mut impl Write,
) -> Result<(), Box<dyn Error>> {
    let base = match &args.update {
        None => None,
        Some(path) => {
            let catalog = Catalog::load(path, sink.as_deref())
                .map_err(|e| err(format!("cannot load `{path}`: {e}")))?;
            if catalog.counts().is_none() {
                return Err(err(format!(
                    "`{path}` has no persisted support counts; re-mine it with `qar mine \
                     --store` (counts are captured automatically) before updating incrementally"
                ))
                .into());
            }
            Some(catalog)
        }
    };
    let spill_dir = qar_table::chunk::default_spill_dir("mine");
    let mined = mine_input(args, base.as_ref(), spawn, sink.as_ref(), &spill_dir);
    // The spill directory is temporary either way.
    let _ = std::fs::remove_dir_all(&spill_dir);
    let (mut result, counts) = mined?;

    if args.normalize_stats {
        result.stats = result.stats.normalized();
    }
    if let (Some(path), Some(base)) = (&args.update, &base) {
        if base.analytics().is_some() && !args.analytics {
            eprintln!(
                "qar: warning: `{path}` carried analytics the update invalidates; dropping \
                 them (pass --analytics to recompute, or backfill later with `qar analyze`)"
            );
        }
    }
    if let Some(dest) = args.store.as_ref().or(args.update.as_ref()) {
        let mut catalog = Catalog::from_mining(&result);
        if args.analytics {
            let set = analytics_from_mining(&result, &AnalyticsConfig::default(), sink.as_deref());
            catalog = catalog.with_analytics(set)?;
        }
        if let Some(counts) = counts {
            catalog = catalog.with_counts(counts)?;
        }
        catalog.save(dest, sink.as_deref())?;
    }
    write_mine_report(&result, args, out)
}

/// The encoded rows a mine counts.
enum Rows {
    Memory(EncodedTable),
    Chunks(ChunkStore),
}

impl Rows {
    fn backing(&self) -> Backing<'_> {
        match self {
            Rows::Memory(table) => Backing::Memory(table),
            Rows::Chunks(store) => Backing::Chunks(store),
        }
    }
}

/// Mine `--input` on the topology the flags ask for: from scratch, or —
/// given the `base` catalog of an `--update` — merged with its counts. A
/// stored catalog gets support counts so `qar mine --update` can refresh
/// it later; report-only runs skip the capture overhead.
fn mine_input(
    args: &MineArgs,
    base: Option<&Catalog>,
    spawn: Option<WorkerSpawn>,
    sink: Option<&Arc<dyn ProgressSink>>,
    spill_dir: &Path,
) -> Result<(MiningOutput, Option<SupportCounts>), Box<dyn Error>> {
    let sink_ref = sink.map(|sink| &**sink);
    match base {
        None => {
            let mut config = args.config.clone();
            for (attr, path) in &args.taxonomy_files {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| err(format!("cannot read taxonomy `{path}`: {e}")))?;
                config
                    .taxonomies
                    .insert(attr.clone(), parse_taxonomy(&text)?);
            }
            let schema = build_schema(&args.schema)?;
            let Loaded { rows, intervals } = load_rows(args, &schema, &config, None, spill_dir)?;
            let rows = rows?;
            let cancel = deadline_token(args);
            let cancel = cancel.as_ref();
            let mut source =
                topology_source(args, &config, rows.backing(), spawn, sink_ref, cancel)?;
            let (mut result, captured) = if args.store.is_some() {
                let (result, captured) =
                    mine_source_captured(&mut *source, &config, sink_ref, cancel)?;
                (result, Some(captured))
            } else {
                (mine_source(&mut *source, &config, sink_ref, cancel)?, None)
            };
            result.stats.intervals_per_attribute = intervals.clone();
            let counts = captured.map(|captured| {
                SupportCounts::assemble(
                    result.encoded.schema(),
                    result.encoded.encoders(),
                    result.frequent.num_rows,
                    &config,
                    intervals,
                    captured,
                )
            });
            Ok((result, counts))
        }
        Some(base) => {
            let counts = base
                .counts()
                .expect("run_mine refuses a catalog without counts");
            let mut config = counts.config.miner_config();
            config.parallelism = args.config.parallelism;
            let rows = load_rows(args, base.schema(), &config, Some(base), spill_dir)?.rows;
            let cancel = deadline_token(args);
            let mut source = None;
            let delta = match &rows {
                Err(e) => Err(MinerError::Schema(e.clone())),
                Ok(rows) if rows.backing().num_rows() == 0 => Ok(None),
                Ok(rows) => {
                    let cancel = cancel.as_ref();
                    match topology_source(args, &config, rows.backing(), spawn, sink_ref, cancel) {
                        Ok(built) => Ok(Some(&mut **source.insert(built) as &mut dyn CountSource)),
                        Err(e) => Err(e),
                    }
                }
            };
            let mut miner = Miner::new(config.clone());
            if let Some(sink) = sink {
                miner = miner.with_progress(Arc::clone(sink));
            }
            if let Some(token) = &cancel {
                miner = miner.with_cancel(token.clone());
            }
            let updated =
                miner.update_source(base.schema(), base.encoders(), counts, delta, None)?;
            Ok((updated.output, Some(updated.counts)))
        }
    }
}

/// What [`load_rows`] read: the encoded rows, or why the input does not
/// encode (for an update to judge as a fallback), and the intervals a
/// fresh mine's encoders chose per attribute.
struct Loaded {
    rows: Result<Rows, TableError>,
    intervals: Vec<Option<usize>>,
}

/// Read `--input` once into the rows a mine counts: parsed into memory,
/// or streamed into chunk files under `spill_dir` with `--chunk-rows`.
/// A fresh mine builds its encoders from the data's value histograms
/// (Steps 1-2); an update encodes under the `base` catalog's encoders.
fn load_rows(
    args: &MineArgs,
    schema: &Schema,
    config: &MinerConfig,
    base: Option<&Catalog>,
    spill_dir: &Path,
) -> Result<Loaded, Box<dyn Error>> {
    enum Input {
        Table(Table),
        Csv(Box<dyn BufRead>),
    }
    let reader = open_input(&args.input)?;
    let input = if args.chunk_rows == 0 {
        Input::Table(csv::read_table(reader, schema)?)
    } else {
        Input::Csv(reader)
    };
    let (encoders, intervals) = match (base, &input) {
        (Some(base), _) => (base.encoders().to_vec(), Vec::new()),
        (None, Input::Table(table)) => qar_core::pipeline::build_encoders(table, config)?,
        // The stats pass: a second stream over the file merges one value
        // histogram per attribute, the input Steps 1-2 read in memory.
        (None, Input::Csv(_)) => {
            let summary =
                qar_table::chunk::summarize_csv(open_input(&args.input)?, schema, args.chunk_rows)?;
            qar_core::pipeline::build_encoders_from_histograms(
                schema,
                &summary.histograms(),
                config,
            )?
        }
    };
    let rows = match input {
        Input::Table(table) => EncodedTable::encode(&table, encoders).map(Rows::Memory),
        Input::Csv(reader) => {
            qar_table::chunk::spill_csv(reader, schema, encoders, args.chunk_rows, spill_dir)
                .map(Rows::Chunks)
        }
    };
    Ok(Loaded { rows, intervals })
}

/// Write the mined rules to `out` in the requested format.
fn write_mine_report(
    result: &MiningOutput,
    args: &MineArgs,
    out: &mut impl std::io::Write,
) -> Result<(), Box<dyn std::error::Error>> {
    match args.format {
        OutputFormat::Csv => {
            qar_core::export::rules_to_csv(
                out,
                &result.rules,
                result.interest.as_deref(),
                &result.encoded,
                result.frequent.num_rows,
            )?;
            return Ok(());
        }
        OutputFormat::Json => {
            // One object with run/pass statistics alongside the rules, so
            // scripted consumers get the pass-level numbers too.
            let mut stats = Vec::new();
            qar_core::export::stats_to_json(&mut stats, &result.stats)?;
            write!(
                out,
                "{{\"stats\":{},\"rules\":",
                String::from_utf8(stats)?.trim_end()
            )?;
            qar_core::export::rules_to_json(
                out,
                &result.rules,
                result.interest.as_deref(),
                &result.encoded,
                result.frequent.num_rows,
            )?;
            writeln!(out, "}}")?;
            return Ok(());
        }
        OutputFormat::Text => {}
    }
    writeln!(
        out,
        "{} records; {} frequent itemsets across {} levels; {} rules ({} interesting)",
        result.frequent.num_rows,
        result.frequent.total(),
        result.frequent.levels.len(),
        result.stats.rules_total,
        result.stats.rules_interesting,
    )?;
    writeln!(
        out,
        "intervals per attribute: {:?}; mining took {:?}",
        result.stats.intervals_per_attribute, result.stats.elapsed_mining
    )?;
    let verdicts = result.interest.as_deref();
    // Sort by confidence (descending), then support.
    let mut order: Vec<usize> = (0..result.rules.len())
        .filter(|&i| match (args.interesting_only, verdicts) {
            (true, Some(v)) => v[i].interesting,
            _ => true,
        })
        .collect();
    order.sort_by(|&a, &b| {
        result.rules[b]
            .confidence
            .total_cmp(&result.rules[a].confidence)
            .then(result.rules[b].support.cmp(&result.rules[a].support))
    });
    let limit = if args.top == 0 { order.len() } else { args.top };
    for &i in order.iter().take(limit) {
        let marker = match verdicts {
            Some(v) if !v[i].interesting => " *pruned*",
            _ => "",
        };
        writeln!(out, "  {}{marker}", result.format_rule(i))?;
    }
    if order.len() > limit {
        writeln!(out, "  ... and {} more (raise --top)", order.len() - limit)?;
    }
    Ok(())
}

/// Execute `qar generate`, writing CSV to `out` through a 64 KiB buffer.
pub fn run_generate(
    args: &GenerateArgs,
    out: &mut impl std::io::Write,
) -> Result<(), Box<dyn std::error::Error>> {
    let table = match args.dataset.as_str() {
        "credit" => {
            qar_datagen::CreditDataset::generate(qar_datagen::CreditConfig {
                num_records: args.records,
                seed: args.seed,
                ..Default::default()
            })
            .table
        }
        "people" => qar_datagen::people_table(),
        "planted" => {
            qar_datagen::PlantedDataset::generate(qar_datagen::PlantedConfig {
                num_records: args.records,
                seed: args.seed,
            })
            .table
        }
        other => return Err(Box::new(err(format!("unknown dataset `{other}`")))),
    };
    let mut out = BufWriter::with_capacity(1 << 16, out);
    csv::write_table(&mut out, &table)?;
    out.flush()?;
    Ok(())
}

/// The checked-in trace-event schema `qar trace-check` validates against
/// unless given `--schema`, compiled in so it runs from any directory.
const TRACE_SCHEMA: &str = include_str!("../schemas/trace_events.schema.json");

/// Execute `qar trace-check`: validate a JSON-lines trace stream against
/// the given schema document, writing a per-event tally to `out`. Fails on
/// the first invalid line.
pub fn run_trace_check(
    schema_text: &str,
    input: &str,
    out: &mut impl std::io::Write,
) -> Result<(), Box<dyn std::error::Error>> {
    let schema: qar_trace::Schema = schema_text
        .parse()
        .map_err(|e| err(format!("trace schema: {e}")))?;
    let counts = qar_trace::schema::validate_lines(&schema, input)
        .map_err(|(line, e)| err(format!("trace line {line}: {e}")))?;
    let total: usize = counts.iter().map(|(_, n)| n).sum();
    writeln!(out, "{total} events valid")?;
    for (name, n) in &counts {
        writeln!(out, "  {name}: {n}")?;
    }
    Ok(())
}

/// Parse a `--record attr=value,...` spec into `(attribute, code)` pairs
/// using the catalog's schema and encoders. Quantitative values are
/// numbers; categorical values are labels. Rejects unknown attributes,
/// duplicate attributes, and values the encoder has never seen.
pub fn parse_record(catalog: &Catalog, spec: &str) -> Result<Vec<(u32, u32)>, CliError> {
    let mut record: Vec<(u32, u32)> = Vec::new();
    for part in spec.split(',') {
        let (name, value) = part
            .split_once('=')
            .ok_or_else(|| err(format!("record entry `{part}` must be attribute=value")))?;
        let name = name.trim();
        let def = catalog
            .schema()
            .attribute_by_name(name)
            .map_err(|e| err(e.to_string()))?;
        let id = catalog
            .schema()
            .iter()
            .find(|(_, d)| d.name() == name)
            .map(|(id, _)| id)
            .expect("attribute_by_name succeeded");
        if record.iter().any(|&(a, _)| a == id.index() as u32) {
            return Err(err(format!("attribute `{name}` appears twice in --record")));
        }
        let value = value.trim();
        let parsed = match def.kind() {
            AttributeKind::Quantitative => Value::Float(
                value
                    .parse::<f64>()
                    .map_err(|_| err(format!("`{value}` is not a number for `{name}`")))?,
            ),
            AttributeKind::Categorical => Value::from(value),
        };
        let code = catalog.encoders()[id.index()]
            .encode(name, &parsed)
            .map_err(|e| err(e.to_string()))?;
        record.push((id.index() as u32, code));
    }
    if record.is_empty() {
        return Err(err("record has no attributes"));
    }
    Ok(record)
}

/// Parse a `--range attr=lo..hi` spec against the catalog's schema.
/// The attribute must be quantitative.
pub fn parse_range(catalog: &Catalog, spec: &str) -> Result<(u32, f64, f64), CliError> {
    let (name, bounds) = spec
        .split_once('=')
        .ok_or_else(|| err(format!("range `{spec}` must be attribute=lo..hi")))?;
    let name = name.trim();
    let def = catalog
        .schema()
        .attribute_by_name(name)
        .map_err(|e| err(e.to_string()))?;
    if def.kind() != AttributeKind::Quantitative {
        return Err(err(format!(
            "--range needs a quantitative attribute; `{name}` is categorical"
        )));
    }
    let id = catalog
        .schema()
        .iter()
        .find(|(_, d)| d.name() == name)
        .map(|(id, _)| id)
        .expect("attribute_by_name succeeded");
    let (lo, hi) = bounds
        .split_once("..")
        .ok_or_else(|| err(format!("range bounds `{bounds}` must be lo..hi")))?;
    let lo: f64 = lo
        .trim()
        .parse()
        .map_err(|_| err(format!("`{lo}` is not a number")))?;
    let hi: f64 = hi
        .trim()
        .parse()
        .map_err(|_| err(format!("`{hi}` is not a number")))?;
    if lo.is_nan() || hi.is_nan() || lo > hi {
        return Err(err(format!("range {lo}..{hi} is empty")));
    }
    Ok((id.index() as u32, lo, hi))
}

/// Execute `qar query` against catalog bytes (already read from a file
/// or stdin), writing matching rules to `out`.
pub fn run_query(
    bytes: &[u8],
    args: &QueryArgs,
    out: &mut impl std::io::Write,
) -> Result<(), Box<dyn std::error::Error>> {
    let catalog = Catalog::load_bytes(bytes, None)?;
    let index = RuleIndex::build(&catalog, None);

    let (mut ids, what) = if let Some(spec) = &args.record {
        let record = parse_record(&catalog, spec)?;
        (index.query_record(&record), "fire for the record")
    } else if let Some(spec) = &args.range {
        let (attr, lo, hi) = parse_range(&catalog, spec)?;
        (index.query_range(attr, lo, hi), "mention the range")
    } else {
        ((0..catalog.rules().len() as u32).collect(), "stored")
    };
    index.filter_analytics(&mut ids, args.min_lift, args.max_p)?;
    let analytics_ranking = matches!(
        args.by,
        Some(RankBy::Lift | RankBy::Conviction | RankBy::Chi2 | RankBy::JMeasure)
    );
    if analytics_ranking && !index.has_analytics() {
        return Err(Box::new(qar_store::AnalyticsUnavailable));
    }
    let matched = ids.len();
    if args.by.is_some() || args.top_k.is_some() {
        index.rank(&mut ids, args.by.unwrap_or(RankBy::Confidence));
    }
    if let Some(k) = args.top_k {
        if k > 0 {
            ids.truncate(k);
        }
    }

    let rules: Vec<QuantRule> = ids
        .iter()
        .map(|&i| catalog.rules()[i as usize].clone())
        .collect();
    let verdicts: Option<Vec<RuleInterest>> = catalog
        .interest()
        .map(|v| ids.iter().map(|&i| v[i as usize].clone()).collect());
    match args.format {
        OutputFormat::Csv => {
            qar_core::export::rules_to_csv(
                out,
                &rules,
                verdicts.as_deref(),
                &catalog,
                catalog.num_rows(),
            )?;
        }
        OutputFormat::Json => {
            // With an ANALYTICS section each rule object carries its
            // measures. Non-finite values (conviction diverges to +inf at
            // confidence 1; chi² and its p degenerate to NaN on an empty
            // margin) serialize as `null` — JSON has no inf/NaN tokens,
            // and emitting them raw would make the document unparseable.
            match catalog.analytics() {
                Some(set) => {
                    use qar_core::export::json_f64 as f;
                    qar_core::export::rules_to_json_with(
                        out,
                        &rules,
                        verdicts.as_deref(),
                        &catalog,
                        catalog.num_rows(),
                        |i| {
                            let a = &set.rules[ids[i] as usize];
                            format!(
                                ",\"lift\":{},\"conviction\":{},\"leverage\":{},\
                                 \"chi2\":{},\"p_value\":{},\"p_adjusted\":{},\
                                 \"jmeasure\":{}",
                                f(a.lift),
                                f(a.conviction),
                                f(a.leverage),
                                f(a.chi2),
                                f(a.p_value),
                                f(a.p_adjusted),
                                f(a.jmeasure),
                            )
                        },
                    )?;
                }
                None => {
                    qar_core::export::rules_to_json(
                        out,
                        &rules,
                        verdicts.as_deref(),
                        &catalog,
                        catalog.num_rows(),
                    )?;
                }
            }
        }
        OutputFormat::Text => {
            writeln!(
                out,
                "{matched} of {} rules {what}{}",
                catalog.rules().len(),
                if rules.len() < matched {
                    format!(" (showing {})", rules.len())
                } else {
                    String::new()
                }
            )?;
            for rule in &rules {
                writeln!(
                    out,
                    "  {}",
                    qar_core::output::format_rule(rule, catalog.num_rows(), &catalog)
                )?;
            }
        }
    }
    Ok(())
}

/// Execute `qar store-check` against catalog bytes: decode with full
/// validation and print a summary. Any corruption surfaces as an `Err`.
pub fn run_store_check(
    bytes: &[u8],
    out: &mut impl std::io::Write,
) -> Result<(), Box<dyn std::error::Error>> {
    // Walk the section framing first: on corruption the inventory still
    // prints, showing WHICH section's checksum failed before the decode
    // error surfaces.
    let sections = section_inventory(bytes);
    if let Ok(sections) = &sections {
        writeln!(out, "sections:")?;
        for s in sections {
            writeln!(
                out,
                "  {} (tag {}): {} byte(s), crc {}{}",
                s.name,
                s.tag,
                s.len,
                if s.crc_ok { "ok" } else { "MISMATCH" },
                if s.known() && s.tag != COUNTS_V1 {
                    ""
                } else {
                    " [skipped]"
                },
            )?;
        }
        let unknown = sections.iter().filter(|s| !s.known()).count();
        writeln!(out, "  {unknown} unknown section(s) skipped")?;
        if sections.iter().any(|s| s.tag == COUNTS_V1) {
            writeln!(
                out,
                "  v1 counts section skipped: re-mine with `qar mine --store` to update \
                 this catalog incrementally"
            )?;
        }
    }
    let catalog = Catalog::decode(bytes)?;
    let interesting = catalog
        .interest()
        .map(|v| v.iter().filter(|r| r.interesting).count());
    writeln!(
        out,
        "catalog OK: {} bytes, {} attribute(s), {} rule(s), {} row(s)",
        bytes.len(),
        catalog.schema().len(),
        catalog.rules().len(),
        catalog.num_rows(),
    )?;
    for (id, def) in catalog.schema().iter() {
        writeln!(
            out,
            "  {} ({}, {} code(s))",
            def.name(),
            def.kind().name(),
            catalog.encoders()[id.index()].cardinality(),
        )?;
    }
    match interesting {
        Some(n) => writeln!(out, "  interest verdicts: {n} interesting")?,
        None => writeln!(out, "  interest verdicts: none")?,
    }
    match catalog.analytics() {
        Some(set) => writeln!(
            out,
            "  analytics: {} rule(s), {} Shapley sample(s), seed {}",
            set.rules.len(),
            set.shapley_samples,
            set.seed,
        )?,
        None => writeln!(out, "  analytics: none")?,
    }
    match catalog.counts() {
        Some(counts) => {
            let captured = &counts.captured;
            writeln!(
                out,
                "  counts: {} pass(es), {} explicit candidate(s), {} row(s)",
                captured.counting_passes() + 1,
                counts.total_candidates(),
                counts.num_rows,
            )?;
            writeln!(
                out,
                "  counts pass 2: {} pair(s), {} cell(s), {} explicit record(s)",
                captured.pair_cells.len(),
                captured.total_cells(),
                captured.explicit_records(2),
            )?;
        }
        None => writeln!(out, "  counts: none")?,
    }
    Ok(())
}

/// Execute `qar analyze`: backfill the `ANALYTICS` section by re-encoding
/// the catalog's source CSV with the catalog's own encoders and counting
/// support by direct scan. Returns the annotated catalog's bytes (the
/// binary writes them to `--output`, or back over the catalog).
pub fn run_analyze(
    catalog_bytes: &[u8],
    csv_bytes: &[u8],
    args: &AnalyzeArgs,
    out: &mut impl std::io::Write,
) -> Result<Vec<u8>, Box<dyn std::error::Error>> {
    let sink = trace_sink(args.trace);
    let catalog = Catalog::load_bytes(catalog_bytes, sink.as_deref())?;
    let table = csv::read_table(csv_bytes, catalog.schema())?;
    if table.num_rows() as u64 != catalog.num_rows() {
        return Err(Box::new(err(format!(
            "catalog was mined from {} row(s) but --input has {} — \
             is this the catalog's source data?",
            catalog.num_rows(),
            table.num_rows(),
        ))));
    }
    let encoded = EncodedTable::encode(&table, catalog.encoders().to_vec())?;
    let config = AnalyticsConfig {
        shapley_samples: args.samples,
        seed: args.seed,
    };
    let set = analytics_from_encoded(catalog.rules(), &encoded, &config, sink.as_deref());
    writeln!(
        out,
        "backfilled analytics for {} rule(s) ({} Shapley sample(s) per rule)",
        set.rules.len(),
        set.shapley_samples,
    )?;
    Ok(catalog.with_analytics(set)?.encode())
}

/// Execute `qar fuzz`: run the differential oracle, write one fixture
/// file per minimized failure under `args.out`, and return how many
/// divergences were found (the binary exits non-zero when `> 0`).
pub fn run_fuzz(
    args: &FuzzArgs,
    out: &mut impl std::io::Write,
) -> Result<usize, Box<dyn std::error::Error>> {
    writeln!(
        out,
        "fuzzing {} iteration(s) from seed {} ...",
        args.iters, args.seed
    )?;
    let mut progress: Vec<String> = Vec::new();
    let report = qar_oracle::run_fuzz(args.iters, args.seed, |line| {
        progress.push(line.to_string());
    });
    for line in &progress {
        writeln!(out, "  {line}")?;
    }
    let kinds: Vec<String> = report
        .kind_counts
        .iter()
        .map(|(kind, count)| format!("{count} {kind}"))
        .collect();
    writeln!(
        out,
        "ran {} case(s) ({})",
        report.iterations,
        kinds.join(", ")
    )?;
    if report.ok() {
        writeln!(out, "all paths agreed on every case")?;
        return Ok(0);
    }
    std::fs::create_dir_all(&args.out).map_err(|e| {
        err(format!(
            "cannot create fixture directory `{}`: {e}",
            args.out
        ))
    })?;
    for failure in &report.failures {
        let path = std::path::Path::new(&args.out).join(format!(
            "{}_{:016x}.txt",
            failure.case.kind(),
            failure.case_seed
        ));
        std::fs::write(&path, &failure.fixture)
            .map_err(|e| err(format!("cannot write fixture `{}`: {e}", path.display())))?;
        writeln!(out, "DIVERGENCE {}", failure.divergence)?;
        writeln!(out, "  minimized repro written to {}", path.display())?;
    }
    Ok(report.failures.len())
}

/// Map catalog paths to `(slot_name, path)` pairs for [`Server::bind`]:
/// the slot name is the file stem (`rules/cat.qarcat` serves as `cat`).
fn catalog_slots(paths: &[String]) -> Result<Vec<(String, PathBuf)>, CliError> {
    let mut slots = Vec::with_capacity(paths.len());
    for raw in paths {
        let path = PathBuf::from(raw);
        let stem = path
            .file_stem()
            .and_then(|s| s.to_str())
            .filter(|s| !s.is_empty())
            .ok_or_else(|| err(format!("`{raw}` has no usable file stem for a slot name")))?;
        slots.push((stem.to_string(), path));
    }
    Ok(slots)
}

/// The query space a bench workload draws from: per-attribute code
/// cardinalities plus the numeric domain of each quantitative attribute.
struct QuerySpace {
    cards: Vec<u32>,
    quant_domains: Vec<(u32, f64, f64)>,
}

impl QuerySpace {
    fn from_catalog(catalog: &Catalog) -> QuerySpace {
        let cards: Vec<u32> = catalog.encoders().iter().map(|e| e.cardinality()).collect();
        let quant_domains = cards
            .iter()
            .enumerate()
            .filter_map(|(attr, &card)| {
                let encoder = &catalog.encoders()[attr];
                encoder
                    .numeric_bounds(0, card.saturating_sub(1))
                    .map(|(lo, hi)| (attr as u32, lo, hi))
            })
            .collect();
        QuerySpace {
            cards,
            quant_domains,
        }
    }

    /// Without a catalog the workload still exercises the protocol: the
    /// server answers unknown codes with empty result sets.
    fn generic() -> QuerySpace {
        QuerySpace {
            cards: vec![16; 4],
            quant_domains: vec![(0, 0.0, 100.0)],
        }
    }

    fn point(&self, rng: &mut Prng) -> Query {
        let record = self
            .cards
            .iter()
            .enumerate()
            .map(|(attr, &card)| (attr as u32, rng.gen_range(0..card.max(1))))
            .collect();
        Query::Point {
            record,
            opts: QueryOptions::default(),
        }
    }

    fn range(&self, rng: &mut Prng) -> Query {
        let (attr, dom_lo, dom_hi) = match self.quant_domains.as_slice() {
            [] => (0, 0.0, 100.0),
            domains => domains[rng.gen_range(0..domains.len() as u32) as usize],
        };
        let a = dom_lo + rng.gen_f64() * (dom_hi - dom_lo);
        let b = dom_lo + rng.gen_f64() * (dom_hi - dom_lo);
        Query::Range {
            attr,
            lo: a.min(b),
            hi: a.max(b),
            opts: QueryOptions::default(),
        }
    }
}

/// Queries inside one batch request.
const BENCH_BATCH: usize = 4;

/// A deterministic mixed workload for one client: point-heavy with
/// range, top-k, and batch requests interleaved, plus a deadline on
/// every seventh request to keep that path hot.
fn bench_workload(space: &QuerySpace, slot: &str, requests: usize, seed: u64) -> Vec<Request> {
    let mut rng = Prng::seed_from_u64(seed);
    let rank_cycle = [RankBy::Support, RankBy::Confidence, RankBy::Interest];
    (0..requests)
        .map(|i| {
            let deadline_ms = if i % 7 == 6 { Some(10_000) } else { None };
            match i % 8 {
                0 => Request::Query {
                    catalog: slot.to_string(),
                    deadline_ms,
                    query: Query::TopK {
                        by: rank_cycle[i / 8 % rank_cycle.len()],
                        k: 1 + (i as u32 % 20),
                    },
                },
                1 => Request::Query {
                    catalog: slot.to_string(),
                    deadline_ms,
                    query: space.range(&mut rng),
                },
                2 => Request::Batch {
                    catalog: slot.to_string(),
                    deadline_ms,
                    queries: (0..BENCH_BATCH).map(|_| space.point(&mut rng)).collect(),
                },
                _ => Request::Query {
                    catalog: slot.to_string(),
                    deadline_ms,
                    query: space.point(&mut rng),
                },
            }
        })
        .collect()
}

/// Per-client tallies from one bench connection.
struct ClientStats {
    latencies_us: Vec<u64>,
    queries: u64,
    results: u64,
}

/// Run one client's workload against a live server, timing each
/// request round trip.
fn drive_bench_client(addr: &str, workload: &[Request]) -> Result<ClientStats, String> {
    let mut client = ServeClient::connect(addr).map_err(|e| format!("connect to {addr}: {e}"))?;
    let mut stats = ClientStats {
        latencies_us: Vec::with_capacity(workload.len()),
        queries: 0,
        results: 0,
    };
    for request in workload {
        let start = Instant::now();
        let response = client
            .request(request)
            .map_err(|e| format!("request failed: {e}"))?;
        stats
            .latencies_us
            .push(start.elapsed().as_micros().min(u64::MAX as u128) as u64);
        match response {
            Response::Ids { ids, .. } => {
                stats.queries += 1;
                stats.results += ids.len() as u64;
            }
            Response::Batch { items, .. } => {
                stats.queries += items.len() as u64;
                for item in items {
                    match item {
                        Ok(ids) => stats.results += ids.len() as u64,
                        Err(e) => return Err(format!("batch item failed: {e}")),
                    }
                }
            }
            Response::Error(e) => return Err(format!("server error: {e}")),
            other => return Err(format!("unexpected response tag {}", other.tag())),
        }
    }
    Ok(stats)
}

/// Human-readable detail from a joined thread's panic payload. `join`
/// hands back `Box<dyn Any>`; the payload is a `&str` or `String` for
/// every `panic!`/`assert!` in practice, and anything else still gets a
/// generic description instead of propagating the panic.
fn panic_detail(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        format!("thread panicked: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("thread panicked: {s}")
    } else {
        "thread panicked (non-string payload)".to_string()
    }
}

/// The p-th percentile (0–100) of an unsorted latency sample.
fn percentile_us(latencies: &mut [u64], p: f64) -> u64 {
    if latencies.is_empty() {
        return 0;
    }
    latencies.sort_unstable();
    let rank = (p / 100.0 * (latencies.len() - 1) as f64).round() as usize;
    latencies[rank.min(latencies.len() - 1)]
}

/// Mine a small planted catalog for self-hosted benchmarking, written
/// to a temp file (`Server::bind` loads from disk). Looser thresholds
/// than the golden snapshot so the catalog holds a useful rule count.
fn bench_catalog_file(quick: bool) -> Result<PathBuf, Box<dyn std::error::Error>> {
    let records = if quick { 2_000 } else { 20_000 };
    let data = qar_datagen::PlantedDataset::generate(qar_datagen::PlantedConfig {
        num_records: records,
        seed: 1996,
    });
    let config = MinerConfig {
        min_support: 0.08,
        min_confidence: 0.5,
        max_support: 0.4,
        partitioning: PartitionSpec::FixedIntervals(20),
        interest: None,
        max_itemset_size: 2,
        ..MinerConfig::default()
    };
    let result = Miner::new(config).mine(&data.table)?;
    let path = std::env::temp_dir().join(format!("qar_bench_serve_{}.qarcat", std::process::id()));
    Catalog::from_mining(&result).save(&path, None)?;
    Ok(path)
}

/// Send a shutdown frame and wait for the acknowledgement.
fn shutdown_server(addr: &str) -> Result<(), String> {
    let mut client = ServeClient::connect(addr).map_err(|e| format!("connect: {e}"))?;
    match client.request(&Request::Shutdown) {
        Ok(Response::ShuttingDown) => Ok(()),
        Ok(other) => Err(format!("unexpected shutdown response tag {}", other.tag())),
        Err(e) => Err(format!("shutdown request failed: {e}")),
    }
}

/// Execute `qar bench-serve`: run the concurrent-client workload,
/// print a human summary to `out`, write the machine-readable JSON
/// line, and return the aggregate queries/sec (the caller enforces the
/// floor so the exit code carries it).
pub fn run_bench_serve(
    args: &BenchServeArgs,
    out: &mut impl std::io::Write,
) -> Result<f64, Box<dyn std::error::Error>> {
    let quick = std::env::var_os("QAR_BENCH_QUICK").is_some();
    let requests = if quick {
        args.requests.min(300)
    } else {
        args.requests
    };

    // Resolve the catalog the workload is shaped by, and — in
    // self-hosted mode — the file the server loads.
    let mut temp_catalog: Option<PathBuf> = None;
    let catalog_path: Option<PathBuf> = match (&args.catalog, &args.addr) {
        (Some(path), _) => Some(PathBuf::from(path)),
        (None, Some(_)) => None,
        (None, None) => {
            let path = bench_catalog_file(quick)?;
            temp_catalog = Some(path.clone());
            Some(path)
        }
    };
    let slot = catalog_path
        .as_deref()
        .and_then(Path::file_stem)
        .and_then(|s| s.to_str())
        .unwrap_or("cat")
        .to_string();
    let space = match &catalog_path {
        Some(path) => QuerySpace::from_catalog(&Catalog::load(path, None)?),
        None => QuerySpace::generic(),
    };

    // Self-hosted mode spins the server on an OS-assigned port with one
    // worker per client (each live connection occupies a worker).
    let mut server_thread = None;
    let (addr, stop_when_done) = match &args.addr {
        Some(addr) => (addr.clone(), args.shutdown),
        None => {
            let path = catalog_path
                .clone()
                .expect("self-hosted mode has a catalog");
            let threads = if args.threads == 0 {
                args.clients.max(2)
            } else {
                args.threads
            };
            let server = Server::bind(
                &[(slot.clone(), path)],
                &ServerConfig { port: 0, threads },
                None,
            )?;
            let addr = server.local_addr().to_string();
            server_thread = Some(std::thread::spawn(move || server.serve()));
            (addr, true)
        }
    };

    let workloads: Vec<Vec<Request>> = (0..args.clients)
        .map(|c| bench_workload(&space, &slot, requests, 0xBE5E ^ c as u64))
        .collect();

    let started = Instant::now();
    let stats: Vec<Result<ClientStats, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = workloads
            .iter()
            .map(|workload| {
                let addr = addr.as_str();
                scope.spawn(move || drive_bench_client(addr, workload))
            })
            .collect();
        // A panicking client thread must not abort the whole bench via
        // an unwrap on `join` — capture the payload as that client's
        // failure row so the server still gets shut down and the other
        // clients' outcomes still get reported.
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|payload| Err(panic_detail(&*payload)))
            })
            .collect()
    });
    let elapsed = started.elapsed();

    let mut failures: Vec<(usize, String)> = Vec::new();
    let mut latencies: Vec<u64> = Vec::new();
    let mut queries = 0u64;
    let mut results = 0u64;
    for (client, outcome) in stats.into_iter().enumerate() {
        match outcome {
            Ok(s) => {
                latencies.extend_from_slice(&s.latencies_us);
                queries += s.queries;
                results += s.results;
            }
            Err(e) => failures.push((client, e)),
        }
    }

    let mut shutdown_error = None;
    if stop_when_done {
        if let Err(e) = shutdown_server(&addr) {
            shutdown_error = Some(format!("shutdown: {e}"));
        }
    }
    if let Some(handle) = server_thread {
        handle
            .join()
            .map_err(|payload| err(format!("server {}", panic_detail(&*payload))))?
            .map_err(|e| err(format!("server failed: {e}")))?;
    }
    if let Some(path) = temp_catalog {
        let _ = std::fs::remove_file(path);
    }
    if !failures.is_empty() {
        for (client, e) in &failures {
            writeln!(out, "client {client} failed: {e}")?;
        }
        return Err(Box::new(err(format!(
            "{} of {} bench client(s) failed; first: client {}: {}",
            failures.len(),
            args.clients,
            failures[0].0,
            failures[0].1,
        ))));
    }
    if let Some(e) = shutdown_error {
        return Err(Box::new(err(format!("bench cleanup failed: {e}"))));
    }

    let total_requests = latencies.len() as u64;
    let elapsed_s = elapsed.as_secs_f64();
    let qps = queries as f64 / elapsed_s.max(1e-9);
    let rps = total_requests as f64 / elapsed_s.max(1e-9);
    let p50 = percentile_us(&mut latencies, 50.0);
    let p99 = percentile_us(&mut latencies, 99.0);

    writeln!(
        out,
        "{} client(s) x {requests} request(s) against {addr} (slot `{slot}`)",
        args.clients
    )?;
    writeln!(
        out,
        "{total_requests} requests / {queries} queries in {elapsed_s:.3}s: \
         {qps:.0} queries/sec ({rps:.0} requests/sec), {results} rule ids returned"
    )?;
    writeln!(out, "latency p50 {p50}us, p99 {p99}us")?;

    let json = format!(
        "{{\"suite\":\"bench_serve\",\"clients\":{},\"requests\":{total_requests},\
         \"queries\":{queries},\"results\":{results},\"elapsed_s\":{elapsed_s:.6},\
         \"queries_per_sec\":{qps:.1},\"requests_per_sec\":{rps:.1},\
         \"p50_us\":{p50},\"p99_us\":{p99},\"floor\":{:.1}}}",
        args.clients, args.floor
    );
    let json_path = args
        .out
        .clone()
        .or_else(|| std::env::var("QAR_BENCH_OUT").ok())
        .unwrap_or_else(|| "BENCH_serve.json".into());
    std::fs::write(&json_path, format!("{json}\n"))
        .map_err(|e| err(format!("cannot write `{json_path}`: {e}")))?;
    writeln!(out, "summary written to {json_path}")?;

    Ok(qps)
}

/// Execute `qar bench-analytics`: mine a planted ruleset, time the
/// closed-form measures and the Monte-Carlo Shapley attribution, print a
/// human summary, write the machine-readable JSON line, and return the
/// closed-form rules/sec (the caller enforces the floor so the exit code
/// carries it).
pub fn run_bench_analytics(
    args: &BenchAnalyticsArgs,
    out: &mut impl std::io::Write,
) -> Result<f64, Box<dyn std::error::Error>> {
    let quick = std::env::var_os("QAR_BENCH_QUICK").is_some();
    let records = if quick {
        args.records.min(1_000)
    } else {
        args.records
    };
    let iters = if quick { 2 } else { 5 };

    let data = qar_datagen::PlantedDataset::generate(qar_datagen::PlantedConfig {
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
    let result = Miner::new(config).mine(&data.table)?;
    let rules = result.rules.len();
    if rules == 0 {
        return Err(Box::new(err("benchmark mine produced no rules")));
    }

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
    let shapley_s = time_at(args.samples);

    let rules_per_sec = rules as f64 / closed_s.max(1e-9);
    let total_samples = rules as u64 * args.samples as u64;
    let samples_per_sec = total_samples as f64 / shapley_s.max(1e-9);

    writeln!(
        out,
        "{rules} rule(s) from {records} planted record(s); best of {iters} run(s)"
    )?;
    writeln!(
        out,
        "closed-form measures: {rules_per_sec:.0} rules/sec ({:.3}ms per pass)",
        closed_s * 1e3
    )?;
    writeln!(
        out,
        "Shapley attribution: {samples_per_sec:.0} samples/sec \
         ({} samples/rule, {:.3}ms per pass)",
        args.samples,
        shapley_s * 1e3
    )?;

    let json = format!(
        "{{\"suite\":\"bench_analytics\",\"records\":{records},\"rules\":{rules},\
         \"samples\":{},\"closed_form_rules_per_sec\":{rules_per_sec:.1},\
         \"shapley_samples_per_sec\":{samples_per_sec:.1},\"closed_form_s\":{closed_s:.6},\
         \"shapley_s\":{shapley_s:.6},\"floor\":{:.1}}}",
        args.samples, args.floor
    );
    let json_path = args
        .out
        .clone()
        .or_else(|| std::env::var("QAR_BENCH_OUT").ok())
        .unwrap_or_else(|| "BENCH_analytics.json".into());
    std::fs::write(&json_path, format!("{json}\n"))
        .map_err(|e| err(format!("cannot write `{json_path}`: {e}")))?;
    writeln!(out, "summary written to {json_path}")?;

    Ok(rules_per_sec)
}

/// A [`CountSource`] that times every counting pass two ways — one
/// serial scan of the whole table, and the count-distribution critical
/// path (slowest of `parts`, plus the merge) — while returning the
/// serial counts so the level-wise search proceeds normally. Each pass
/// asserts the merged partition counts equal the serial counts, so the
/// benchmark doubles as an exactness check with real candidate sets.
struct BenchDistSource<'a> {
    full: &'a EncodedTable,
    parts: Vec<EncodedTable>,
    serial_s: f64,
    critical_s: f64,
    merge_s: f64,
}

impl BenchDistSource<'_> {
    fn opts() -> qar_core::supercand::ScanOptions<'static> {
        qar_core::supercand::ScanOptions::new(1)
    }
}

impl CountSource for BenchDistSource<'_> {
    fn meta(&self) -> &EncodedTable {
        self.full
    }

    fn num_rows(&self) -> u64 {
        self.full.num_rows() as u64
    }

    fn value_counts(&mut self) -> Result<Vec<Vec<u64>>, CountError> {
        let started = Instant::now();
        let full = qar_core::frequent::attribute_value_counts(self.full);
        self.serial_s += started.elapsed().as_secs_f64();

        let mut worst = 0.0f64;
        let mut part_counts = Vec::with_capacity(self.parts.len());
        for part in &self.parts {
            let started = Instant::now();
            part_counts.push(qar_core::frequent::attribute_value_counts(part));
            worst = worst.max(started.elapsed().as_secs_f64());
        }
        self.critical_s += worst;

        let started = Instant::now();
        let mut merged: Vec<Vec<u64>> = full.iter().map(|v| vec![0u64; v.len()]).collect();
        for counts in &part_counts {
            for (acc, add) in merged.iter_mut().zip(counts) {
                for (a, b) in acc.iter_mut().zip(add) {
                    *a += b;
                }
            }
        }
        self.merge_s += started.elapsed().as_secs_f64();
        if merged != full {
            return Err(CountError::Failed(MinerError::Distributed(
                "pass 1: merged partition histograms diverge from the serial scan".into(),
            )));
        }
        Ok(full)
    }

    fn count(
        &mut self,
        pass: usize,
        candidates: &[qar_itemset::Itemset],
    ) -> Result<Vec<u64>, CountError> {
        let started = Instant::now();
        let (full, _) = qar_core::supercand::count_candidates(self.full, candidates, Self::opts())?;
        self.serial_s += started.elapsed().as_secs_f64();

        let mut worst = 0.0f64;
        let mut part_counts = Vec::with_capacity(self.parts.len());
        for part in &self.parts {
            let started = Instant::now();
            let (counts, _) =
                qar_core::supercand::count_candidates(part, candidates, Self::opts())?;
            part_counts.push(counts);
            worst = worst.max(started.elapsed().as_secs_f64());
        }
        self.critical_s += worst;

        let started = Instant::now();
        let mut merged = vec![0u64; candidates.len()];
        for counts in &part_counts {
            for (a, b) in merged.iter_mut().zip(counts) {
                *a += b;
            }
        }
        self.merge_s += started.elapsed().as_secs_f64();
        if merged != full {
            return Err(CountError::Failed(MinerError::Distributed(format!(
                "pass {pass}: merged partition counts diverge from the serial scan"
            ))));
        }
        Ok(full)
    }
}

/// Split an encoded table into `workers` contiguous row partitions, the
/// same split the distributed coordinator uses: near-even, with the
/// first `rows % workers` partitions one row longer.
fn partition_encoded(encoded: &EncodedTable, workers: usize) -> Vec<EncodedTable> {
    let rows = encoded.num_rows();
    let base = rows / workers;
    let extra = rows % workers;
    let mut parts = Vec::with_capacity(workers);
    let mut start = 0usize;
    for w in 0..workers {
        let len = base + usize::from(w < extra);
        let columns: Vec<Vec<u32>> = encoded
            .schema()
            .iter()
            .map(|(id, _)| encoded.codes(id)[start..start + len].to_vec())
            .collect();
        parts.push(EncodedTable::from_parts(
            encoded.schema().clone(),
            encoded.encoders().to_vec(),
            columns,
            len,
        ));
        start += len;
    }
    parts
}

/// Execute `qar bench-dist`: mine a planted table through
/// `BenchDistSource`, print a human summary, write the
/// machine-readable JSON line, and return the counting speedup (the
/// caller enforces the floor so the exit code carries it).
pub fn run_bench_dist(
    args: &BenchDistArgs,
    out: &mut impl std::io::Write,
) -> Result<f64, Box<dyn std::error::Error>> {
    let quick = std::env::var_os("QAR_BENCH_QUICK").is_some();
    let records = if quick {
        args.records.min(200_000)
    } else {
        args.records
    };

    let data = qar_datagen::PlantedDataset::generate(qar_datagen::PlantedConfig {
        num_records: records,
        seed: 1996,
    });
    let config = MinerConfig {
        min_support: 0.08,
        min_confidence: 0.5,
        max_support: 0.4,
        partitioning: PartitionSpec::FixedIntervals(10),
        interest: None,
        max_itemset_size: 2,
        parallelism: std::num::NonZeroUsize::new(1),
        ..MinerConfig::default()
    };
    let (encoders, _) = qar_core::pipeline::build_encoders(&data.table, &config)?;
    let encoded = EncodedTable::encode(&data.table, encoders)?;
    drop(data);

    let mut source = BenchDistSource {
        parts: partition_encoded(&encoded, args.workers),
        full: &encoded,
        serial_s: 0.0,
        critical_s: 0.0,
        merge_s: 0.0,
    };
    let result = mine_source(&mut source, &config, None, None)?;
    let (serial_s, critical_s, merge_s) = (source.serial_s, source.critical_s, source.merge_s);
    let dist_s = critical_s + merge_s;
    let speedup = serial_s / dist_s.max(1e-9);
    let passes = 1 + result.stats.mine.pass_stats.len();

    writeln!(
        out,
        "{records} planted record(s), {} worker partition(s), {passes} counting pass(es), \
         {} rule(s); partition counts merged exactly on every pass",
        args.workers,
        result.rules.len(),
    )?;
    writeln!(
        out,
        "serial counting {serial_s:.3}s; distributed critical path {critical_s:.3}s \
         + merge {merge_s:.3}s = {dist_s:.3}s"
    )?;
    writeln!(
        out,
        "counting speedup {speedup:.2}x (floor {:.2}x)",
        args.floor
    )?;

    let json = format!(
        "{{\"suite\":\"bench_dist\",\"records\":{records},\"workers\":{},\
         \"passes\":{passes},\"rules\":{},\"serial_s\":{serial_s:.6},\
         \"critical_path_s\":{critical_s:.6},\"merge_s\":{merge_s:.6},\
         \"speedup\":{speedup:.3},\"floor\":{:.2}}}",
        args.workers,
        result.rules.len(),
        args.floor
    );
    let json_path = args
        .out
        .clone()
        .or_else(|| std::env::var("QAR_BENCH_OUT").ok())
        .unwrap_or_else(|| "BENCH_dist.json".into());
    std::fs::write(&json_path, format!("{json}\n"))
        .map_err(|e| err(format!("cannot write `{json_path}`: {e}")))?;
    writeln!(out, "summary written to {json_path}")?;

    Ok(speedup)
}

/// The synthetic update-benchmark table: small integer/categorical
/// domains (append-stable value-list encoders, so the incremental path
/// applies), with the first rows enumerating every value so a delta
/// drawn from the same distribution never introduces an unseen one.
///
/// Every candidate's expected support sits at least 0.03 away from the
/// benchmark's `minsup` (0.10) at any scale: 40% of rows are a planted
/// `(qty=1, price=10, region=north)` triple (items/pairs/triple at
/// 0.40–0.60), and the uniform remainder puts every other pair at
/// 0.05–0.067. Without that separation a pair hovering at the threshold
/// could cross it between the base mine and the combined mine, which
/// changes the next pass's candidate set and legitimately forces the
/// update off the incremental path — the one thing this benchmark must
/// never do.
fn bench_update_table(records: usize, seed: u64) -> Table {
    let schema = Schema::builder()
        .quantitative("qty")
        .quantitative("price")
        .categorical("region")
        .build()
        .expect("static schema");
    let regions = ["south", "east", "west"];
    let mut rng = Prng::seed_from_u64(seed);
    let mut table = Table::new(schema);
    for i in 0..records {
        // The first 10 rows sweep every domain so later draws (and the
        // delta) are always encodable under the base encoders.
        let (qty, price, region) = if i < 10 {
            (
                i as i64 % 4,
                (i as i64 % 3) * 5 + 5,
                if i % 4 == 0 { "north" } else { regions[i % 3] },
            )
        } else if rng.gen_range(0..10u32) < 4 {
            (1, 10, "north")
        } else {
            (
                rng.gen_range(0..4i64),
                rng.gen_range(0..3i64) * 5 + 5,
                regions[rng.gen_range(0..3usize)],
            )
        };
        table
            .push_row(&[
                Value::Int(qty),
                Value::Int(price),
                Value::Cat(region.to_string()),
            ])
            .expect("schema-conformant row");
    }
    table
}

/// Execute `qar bench-update`: mine a base table with count capture,
/// append a delta, and time the incremental `--update` path against a
/// full re-mine of base+delta — asserting along the way that the update
/// stayed incremental and reproduced the from-scratch counts and rules
/// exactly. Returns the update speedup (re-mine time / update time).
pub fn run_bench_update(
    args: &BenchUpdateArgs,
    out: &mut impl std::io::Write,
) -> Result<f64, Box<dyn std::error::Error>> {
    let quick = std::env::var_os("QAR_BENCH_QUICK").is_some();
    let records = if quick {
        args.records.min(50_000)
    } else {
        args.records
    };
    let delta_rows = ((records as f64 * args.delta).ceil() as usize).max(1);

    // Base and delta from the same distribution; raw-value mining keeps
    // the encoders append-stable so the update is genuinely incremental.
    let base = bench_update_table(records, 1996);
    let delta = bench_update_table(delta_rows, 2026);
    let mut combined = Table::new(base.schema().clone());
    for table in [&base, &delta] {
        for r in 0..table.num_rows() {
            combined.push_row(&table.row(r).to_values())?;
        }
    }
    let config = MinerConfig {
        min_support: 0.1,
        min_confidence: 0.3,
        max_support: 1.0,
        partitioning: PartitionSpec::None,
        max_itemset_size: 3,
        parallelism: std::num::NonZeroUsize::new(1),
        ..MinerConfig::default()
    };

    let (base_output, base_counts) = Miner::new(config.clone()).mine_with_counts(&base)?;

    let iters = if quick { 1 } else { 3 };
    let mut remine_s = f64::INFINITY;
    let mut remined = None;
    for _ in 0..iters {
        let t = Instant::now();
        let pair = Miner::new(config.clone()).mine_with_counts(&combined)?;
        remine_s = remine_s.min(t.elapsed().as_secs_f64());
        remined = Some(pair);
    }
    let (remine_output, remine_counts) = remined.expect("at least one re-mine iteration");

    let mut update_s = f64::INFINITY;
    let mut updated = None;
    for _ in 0..iters {
        let t = Instant::now();
        let uo = Miner::new(config.clone()).update(UpdateInput {
            schema: base_output.encoded.schema(),
            encoders: base_output.encoded.encoders(),
            counts: &base_counts,
            delta: &delta,
            base_rows: None,
        })?;
        update_s = update_s.min(t.elapsed().as_secs_f64());
        updated = Some(uo);
    }
    let updated = updated.expect("at least one update iteration");

    // Exactness gates: the benchmark is meaningless if the update fell
    // back or diverged from the from-scratch mine.
    if !updated.incremental {
        return Err(Box::new(err(format!(
            "bench-update fell back to a full re-mine ({})",
            updated.fallback.as_deref().unwrap_or("unknown reason")
        ))));
    }
    if updated.counts != remine_counts {
        return Err(Box::new(err(
            "bench-update: merged counts diverged from the from-scratch mine",
        )));
    }
    if updated.output.rules != remine_output.rules {
        return Err(Box::new(err(
            "bench-update: updated rules diverged from the from-scratch mine",
        )));
    }

    let speedup = remine_s / update_s.max(1e-9);
    let passes = updated.counts.captured.counting_passes() + 1;
    writeln!(
        out,
        "{records} base record(s) + {delta_rows} delta record(s), {passes} counting pass(es), \
         {} rule(s); update counts and rules match the from-scratch mine exactly",
        updated.output.rules.len(),
    )?;
    writeln!(
        out,
        "full re-mine {remine_s:.3}s; incremental update {update_s:.3}s"
    )?;
    writeln!(
        out,
        "update speedup {speedup:.2}x (floor {:.2}x)",
        args.floor
    )?;

    let json = format!(
        "{{\"suite\":\"bench_update\",\"records\":{records},\"delta_rows\":{delta_rows},\
         \"passes\":{passes},\"rules\":{},\"remine_s\":{remine_s:.6},\
         \"update_s\":{update_s:.6},\"speedup\":{speedup:.3},\"floor\":{:.2}}}",
        updated.output.rules.len(),
        args.floor
    );
    let json_path = args
        .out
        .clone()
        .or_else(|| std::env::var("QAR_BENCH_OUT").ok())
        .unwrap_or_else(|| "BENCH_update.json".into());
    std::fs::write(&json_path, format!("{json}\n"))
        .map_err(|e| err(format!("cannot write `{json_path}`: {e}")))?;
    writeln!(out, "summary written to {json_path}")?;

    Ok(speedup)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(|x| x.to_string()).collect()
    }

    /// The paper's people table as CSV bytes, also written to a temp file
    /// unique to `tag` for mines that read it as `--input`.
    fn people_csv(tag: &str) -> (String, Vec<u8>) {
        let gen = GenerateArgs {
            dataset: "people".into(),
            records: 0,
            seed: 0,
            output: "-".into(),
        };
        let mut csv_bytes = Vec::new();
        run_generate(&gen, &mut csv_bytes).expect("generate");
        let path = std::env::temp_dir().join(format!("qar-cli-{tag}-{}.csv", std::process::id()));
        std::fs::write(&path, &csv_bytes).expect("write CSV");
        (path.to_str().unwrap().to_string(), csv_bytes)
    }

    #[test]
    fn help_variants() {
        assert_eq!(parse_command(&[]).unwrap(), Command::Help);
        assert_eq!(parse_command(&argv("help")).unwrap(), Command::Help);
        assert_eq!(parse_command(&argv("--help")).unwrap(), Command::Help);
    }

    #[test]
    fn mine_defaults() {
        let cmd = parse_command(&argv(
            "mine --input data.csv --schema age:quant,married:cat",
        ))
        .unwrap();
        let Command::Mine(args) = cmd else { panic!() };
        assert_eq!(args.input, "data.csv");
        assert_eq!(args.schema.len(), 2);
        assert_eq!(args.config.min_support, 0.2);
        assert_eq!(
            args.config.partitioning,
            PartitionSpec::CompletenessLevel(2.0)
        );
        assert!(args.config.interest.is_none());
        assert_eq!(args.config.kernel, qar_core::ScanKernel::Bitmask);
        assert_eq!(args.top, 50);
    }

    /// Every flag a verb's entry in the flag table lists.
    fn flag_table(spec: &VerbSpec) -> BTreeSet<&'static str> {
        [spec.values, spec.switches, spec.repeated]
            .iter()
            .flat_map(|list| list.split_whitespace())
            .collect()
    }

    /// Every verb rejects a flag its entry in the flag table does not
    /// list — a misspelling, or a switch another verb takes — naming the
    /// verb and the flag.
    #[test]
    fn mine_rejects_unknown_flags() {
        let cases = [
            ("mine --input f --schema a:q", "--kernel bitmask"),
            ("mine --input f --schema a:q", "--bogus 1"),
            ("generate planted", "--recods 50"),
            ("query c", "--topk 1"),
            ("analyze c --input d", "--sample 8"),
            ("store-check c", "--verbose yes"),
            ("trace-check t", "--schemas s"),
            ("fuzz", "--iter 5"),
            ("serve c", "--ports 1"),
            ("worker --connect h:1", "--thread 2"),
            ("bench-serve", "--client 2"),
            ("bench-analytics", "--record 5"),
            ("bench-dist", "--worker 3"),
            ("bench-update", "--deltas 0.5"),
            ("help", "--bogus 1"),
        ];
        let verb_of = |base: &str| base.split(' ').next().unwrap().to_string();
        let covered: BTreeSet<String> = cases.iter().map(|(base, _)| verb_of(base)).collect();
        let verbs: BTreeSet<String> = VERBS.iter().map(|spec| spec.verb.to_string()).collect();
        assert_eq!(covered, verbs, "one case per verb");
        let switches = [
            "--shutdown",
            "--analytics",
            "--no-partition",
            "--all-rules",
            "--normalize-stats",
        ];
        for (base, typo) in cases {
            let verb = verb_of(base);
            parse_command(&argv(base)).unwrap_or_else(|e| panic!("{base}: {e}"));
            let spec = VERBS.iter().find(|spec| spec.verb == verb).unwrap();
            let foreign = switches
                .into_iter()
                .filter(|switch| !flag_table(spec).contains(&switch[2..]));
            for flag in std::iter::once(typo).chain(foreign) {
                let e = parse_command(&argv(&format!("{base} {flag}"))).unwrap_err();
                let name = flag.split(' ').next().unwrap();
                assert_eq!(e.to_string(), format!("{verb} does not take {name}"));
            }
        }
    }

    /// The flag table and the help text cannot drift: each verb's section
    /// of `USAGE` defines exactly the flags its table entry lists, its
    /// synopsis names no other flag, and every `--flag` the text mentions
    /// is one some verb takes.
    #[test]
    fn usage_documents_exactly_the_flag_table() {
        let flags_in = |text: &str| -> BTreeSet<String> {
            text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
                .filter_map(|word| word.strip_prefix("--"))
                .filter(|flag| !flag.is_empty())
                .map(str::to_string)
                .collect()
        };
        // An option line: `  --name [ARG]  description`.
        let option = |line: &str| -> Option<String> {
            let (head, _) = line.strip_prefix("  --")?.split_once("  ")?;
            let mut words = head.split(' ');
            let name = words.next()?;
            (words.count() <= 1).then(|| name.to_string())
        };
        let mut sections: BTreeMap<&str, String> = BTreeMap::new();
        let mut current = "";
        for line in USAGE.lines() {
            if let Some(header) = line.strip_suffix(':').filter(|_| !line.starts_with(' ')) {
                current = header;
            }
            let section = sections.entry(current).or_default();
            section.push_str(line);
            section.push('\n');
        }
        // `help` prints the synopsis section itself.
        let header = |verb: &str| match verb {
            "mine" => "MINE OPTIONS".to_string(),
            "help" => "USAGE".to_string(),
            verb => verb.to_uppercase(),
        };
        let headers: BTreeSet<String> = VERBS.iter().map(|spec| header(spec.verb)).collect();
        let documented: BTreeSet<String> = sections
            .keys()
            .filter(|name| !name.is_empty())
            .map(|name| name.to_string())
            .collect();
        assert_eq!(documented, headers, "one USAGE section per verb");

        let mut every_flag = BTreeSet::new();
        for spec in VERBS {
            let table: BTreeSet<String> = flag_table(spec).into_iter().map(String::from).collect();
            let section = &sections[header(spec.verb).as_str()];
            let defined: BTreeSet<String> = section.lines().filter_map(option).collect();
            assert_eq!(
                defined, table,
                "`qar {}` flags vs its USAGE section",
                spec.verb
            );
            let synopsis = sections["USAGE"]
                .lines()
                .find(|line| {
                    let synopsis = format!("  qar {}", spec.verb);
                    line.strip_prefix(&synopsis)
                        .is_some_and(|rest| rest.is_empty() || rest.starts_with(' '))
                })
                .unwrap_or_else(|| panic!("no synopsis for `qar {}`", spec.verb));
            assert!(flags_in(synopsis).is_subset(&table), "{synopsis}");
            every_flag.extend(table);
        }
        let mentioned = flags_in(USAGE);
        assert!(
            mentioned.is_subset(&every_flag),
            "USAGE mentions flags no verb takes: {:?}",
            mentioned.difference(&every_flag).collect::<Vec<_>>()
        );
    }

    /// A reader that closes stdout early ends the run quietly with
    /// success; a failure anywhere else still surfaces.
    #[test]
    fn closed_stdout_pipe_ends_quietly() {
        struct Failing(std::io::ErrorKind);
        impl Write for Failing {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(self.0.into())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let closed = || Failing(std::io::ErrorKind::BrokenPipe);
        let generate = parse_command(&argv("generate planted --records 50")).unwrap();
        run(&Command::Help, &mut closed()).expect("help into a closed pipe");
        run(&generate, &mut closed()).expect("generate into a closed pipe");

        let full = Failing(std::io::ErrorKind::Other);
        assert!(run(&Command::Help, &mut { full }).is_err());
        let unwritable = parse_command(&argv(
            "generate planted --records 50 --output /nonexistent-dir/p.csv",
        ))
        .unwrap();
        assert!(run(&unwritable, &mut closed()).is_err());
        let missing = parse_command(&argv("query /nonexistent-dir/c.qarcat")).unwrap();
        let e = run(&missing, &mut closed()).unwrap_err();
        assert!(e.to_string().contains("cannot open"), "{e}");
    }

    /// `qar generate` to stdout buffers its rows: 1,000 rows reach the
    /// writer in a few `write` calls, as the bytes `--output FILE` gets.
    #[test]
    fn generate_to_stdout_is_buffered() {
        #[derive(Default)]
        struct Counting {
            bytes: Vec<u8>,
            writes: usize,
        }
        impl Write for Counting {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.writes += 1;
                self.bytes.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let generate = "generate credit --records 1000 --seed 3";
        let mut stdout = Counting::default();
        run(&parse_command(&argv(generate)).unwrap(), &mut stdout).unwrap();
        let path =
            std::env::temp_dir().join(format!("qar-cli-generate-{}.csv", std::process::id()));
        let to_file = format!("{generate} --output {}", path.display());
        run(&parse_command(&argv(&to_file)).unwrap(), &mut Vec::new()).unwrap();
        let file = std::fs::read(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(stdout.bytes, file);
        assert!(file.len() > 20_000, "{} bytes", file.len());
        assert!(stdout.writes <= 3, "{} writes", stdout.writes);
    }

    #[test]
    fn mine_full_flags() {
        let cmd = parse_command(&argv(
            "mine --input - --schema a:q,b:c --minsup 0.1 --minconf 0.6 --maxsup 0.3 \
             --intervals 8 --strategy kmeans --interest 1.5 --interest-mode and \
             --max-size 3 --top 10 --all-rules",
        ))
        .unwrap();
        let Command::Mine(args) = cmd else { panic!() };
        assert_eq!(args.config.min_support, 0.1);
        assert_eq!(args.config.partitioning, PartitionSpec::FixedIntervals(8));
        assert_eq!(args.config.partition_strategy, PartitionStrategy::KMeans);
        let interest = args.config.interest.unwrap();
        assert_eq!(interest.level, 1.5);
        assert_eq!(interest.mode, InterestMode::SupportAndConfidence);
        assert!(interest.prune_candidates);
        assert_eq!(args.config.max_itemset_size, 3);
        assert!(!args.interesting_only);
        assert_eq!(args.format, OutputFormat::Text);
    }

    #[test]
    fn format_flag() {
        for (flag, want) in [
            ("csv", OutputFormat::Csv),
            ("json", OutputFormat::Json),
            ("text", OutputFormat::Text),
        ] {
            let cmd = parse_command(&argv(&format!(
                "mine --input f --schema a:q --format {flag}"
            )))
            .unwrap();
            let Command::Mine(args) = cmd else { panic!() };
            assert_eq!(args.format, want);
        }
        assert!(parse_command(&argv("mine --input f --schema a:q --format yaml")).is_err());
    }

    #[test]
    fn csv_format_end_to_end() {
        let (input, _) = people_csv("csv-format");
        let cmd = parse_command(&argv(&format!(
            "mine --input {input} --schema Age:quant,Married:cat,NumCars:quant \
             --minsup 0.4 --minconf 0.5 --maxsup 1.0 --no-partition --format csv",
        )))
        .unwrap();
        let Command::Mine(args) = cmd else { panic!() };
        let mut report = Vec::new();
        run_mine(&args, None, None, &mut report).expect("mine");
        std::fs::remove_file(&input).ok();
        let text = String::from_utf8(report).unwrap();
        assert!(text.starts_with("antecedent,consequent,"), "{text}");
        assert!(text.contains("Married=Yes,NumCars=2,2,0.400000,1.000000"));
    }

    #[test]
    fn mine_rejects_bad_input() {
        assert!(parse_command(&argv("mine --schema a:q")).is_err()); // no input
        assert!(parse_command(&argv("mine --input f")).is_err()); // no schema
        assert!(parse_command(&argv("mine --input f --schema a:bogus")).is_err());
        assert!(parse_command(&argv("mine --input f --schema a:q --minsup nope")).is_err());
        assert!(parse_command(&argv("mine --input f --schema a:q --minsup 2.0")).is_err());
        assert!(parse_command(&argv("mine --input f --schema a:q --strategy diagonal")).is_err());
        let e = parse_command(&argv(
            "mine --input f --schema a:q --minsup 0.1 --minsup 0.3",
        ))
        .unwrap_err();
        assert!(e.to_string().contains("more than once"), "{e}");
        assert!(parse_command(&argv("frobnicate")).is_err());
    }

    #[test]
    fn fuzz_defaults_and_flags() {
        let cmd = parse_command(&argv("fuzz")).unwrap();
        assert_eq!(
            cmd,
            Command::Fuzz(FuzzArgs {
                iters: 200,
                seed: 42,
                out: "tests/fuzz_repros".into(),
            })
        );
        let cmd = parse_command(&argv("fuzz --iters 1000 --seed 7 --out /tmp/repros")).unwrap();
        assert_eq!(
            cmd,
            Command::Fuzz(FuzzArgs {
                iters: 1000,
                seed: 7,
                out: "/tmp/repros".into(),
            })
        );
        assert!(parse_command(&argv("fuzz --iters 0")).is_err());
        assert!(parse_command(&argv("fuzz --iters nope")).is_err());
        assert!(parse_command(&argv("fuzz --input f")).is_err());
    }

    /// A short in-process fuzz run through the CLI plumbing: clean repo,
    /// zero divergences, nothing written to the fixture directory.
    #[test]
    fn run_fuzz_smoke_reports_clean() {
        let args = FuzzArgs {
            iters: 30,
            seed: 0xCAFE,
            out: "target/test-fuzz-out-should-not-exist".into(),
        };
        let mut report = Vec::new();
        let divergences = run_fuzz(&args, &mut report).expect("fuzz runs");
        let text = String::from_utf8(report).unwrap();
        assert_eq!(divergences, 0, "{text}");
        assert!(text.contains("all paths agreed"), "{text}");
        assert!(
            !std::path::Path::new(&args.out).exists(),
            "clean run must not create the fixture directory"
        );
    }

    #[test]
    fn schema_decl_parsing() {
        let decls = parse_schema_decls("age:quant, income :q,city:cat,flag:c").unwrap();
        assert_eq!(decls.len(), 4);
        assert!(decls[0].1 && decls[1].1);
        assert!(!decls[2].1 && !decls[3].1);
        assert_eq!(decls[1].0, "income");
        assert!(parse_schema_decls("x").is_err());
        assert!(parse_schema_decls(":q").is_err());
        let schema = build_schema(&decls).unwrap();
        assert_eq!(schema.len(), 4);
    }

    #[test]
    fn taxonomy_flag_parses_and_repeats() {
        let cmd = parse_command(&argv(
            "mine --input f --schema a:c,b:c --taxonomy a=ta.txt --taxonomy b=tb.txt",
        ))
        .unwrap();
        let Command::Mine(args) = cmd else { panic!() };
        assert_eq!(
            args.taxonomy_files,
            vec![
                ("a".to_string(), "ta.txt".to_string()),
                ("b".to_string(), "tb.txt".to_string())
            ]
        );
        assert!(parse_command(&argv("mine --input f --schema a:c --taxonomy nofile")).is_err());
    }

    #[test]
    fn taxonomy_file_parsing() {
        let tax = parse_taxonomy("# comment\nCA,West\nWA,West\n\nWest,USA\n").unwrap();
        assert!(tax.is_ancestor("USA", "CA"));
        assert!(parse_taxonomy("").is_err());
        assert!(parse_taxonomy("justoneword\n").is_err());
        assert!(parse_taxonomy("a,b\nb,a\n").is_err()); // cycle
    }

    #[test]
    fn generate_parsing() {
        let cmd = parse_command(&argv("generate credit --records 500 --seed 7")).unwrap();
        let Command::Generate(args) = cmd else {
            panic!()
        };
        assert_eq!(args.dataset, "credit");
        assert_eq!(args.records, 500);
        assert_eq!(args.seed, 7);
        assert_eq!(args.output, "-");
        assert!(parse_command(&argv("generate nonsense")).is_err());
        assert!(parse_command(&argv("generate")).is_err());
    }

    #[test]
    fn trace_and_deadline_flags() {
        let cmd = parse_command(&argv(
            "mine --input f --schema a:q --trace json --deadline 2.5",
        ))
        .unwrap();
        let Command::Mine(args) = cmd else { panic!() };
        assert_eq!(args.trace, Some(TraceFormat::Json));
        assert_eq!(args.deadline, Some(2.5));
        assert!(parse_command(&argv("mine --input f --schema a:q --trace yaml")).is_err());
        assert!(parse_command(&argv("mine --input f --schema a:q --deadline 0")).is_err());
        assert!(parse_command(&argv("mine --input f --schema a:q --deadline -1")).is_err());
    }

    #[test]
    fn trace_check_parsing_and_validation() {
        let cmd = parse_command(&argv("trace-check")).unwrap();
        assert_eq!(
            cmd,
            Command::TraceCheck(TraceCheckArgs {
                input: "-".into(),
                schema: None
            })
        );
        // Positional input: a file path or `-` for stdin.
        let cmd = parse_command(&argv("trace-check run.jsonl --schema custom.json")).unwrap();
        let Command::TraceCheck(args) = cmd else {
            panic!()
        };
        assert_eq!(args.input, "run.jsonl");
        assert_eq!(args.schema.as_deref(), Some("custom.json"));
        let cmd = parse_command(&argv("trace-check -")).unwrap();
        let Command::TraceCheck(args) = cmd else {
            panic!()
        };
        assert_eq!(args.input, "-");

        let schema_text = include_str!("../schemas/trace_events.schema.json");
        let good = "{\"event\":\"pass_started\",\"pass\":2,\"candidates\":7}\n";
        let mut out = Vec::new();
        run_trace_check(schema_text, good, &mut out).expect("valid stream");
        let report = String::from_utf8(out).unwrap();
        assert!(report.starts_with("1 events valid"), "{report}");
        assert!(report.contains("pass_started: 1"), "{report}");

        let bad = "{\"event\":\"pass_started\",\"pass\":2}\n";
        assert!(run_trace_check(schema_text, bad, &mut Vec::new()).is_err());
        assert!(run_trace_check("not json", good, &mut Vec::new()).is_err());
    }

    #[test]
    fn json_format_includes_pass_stats() {
        let (input, _) = people_csv("json-format");
        let cmd = parse_command(&argv(&format!(
            "mine --input {input} --schema Age:quant,Married:cat,NumCars:quant \
             --minsup 0.4 --minconf 0.5 --maxsup 1.0 --no-partition --format json",
        )))
        .unwrap();
        let Command::Mine(args) = cmd else { panic!() };
        let mut report = Vec::new();
        run_mine(&args, None, None, &mut report).expect("mine");
        std::fs::remove_file(&input).ok();
        let text = String::from_utf8(report).unwrap();
        let doc = qar_trace::json::parse(&text).expect("valid JSON output");
        let obj = doc.as_object().expect("top-level object");
        let stats = obj["stats"].as_object().expect("stats object");
        assert!(!stats["passes"].as_array().expect("passes").is_empty());
        assert!(!obj["rules"].as_array().expect("rules array").is_empty());
    }

    #[test]
    fn generate_then_mine_round_trip() {
        // people -> CSV -> parse -> mine, all through the CLI layer.
        let (input, _) = people_csv("round-trip");
        let cmd = parse_command(&argv(&format!(
            "mine --input {input} --schema Age:quant,Married:cat,NumCars:quant \
             --minsup 0.4 --minconf 0.5 --maxsup 1.0 --no-partition --top 0",
        )))
        .expect("parse");
        let Command::Mine(args) = cmd else { panic!() };
        let mut report = Vec::new();
        run_mine(&args, None, None, &mut report).expect("mine");
        std::fs::remove_file(&input).ok();
        let text = String::from_utf8(report).expect("utf8");
        assert!(text.contains("⟨Married: Yes⟩ ⇒ ⟨NumCars: 2⟩"), "{text}");
    }

    #[test]
    fn query_parsing() {
        let cmd = parse_command(&argv("query cat.qarcat")).unwrap();
        let Command::Query(args) = cmd else { panic!() };
        assert_eq!(args.catalog, "cat.qarcat");
        assert!(args.record.is_none() && args.range.is_none());
        assert!(args.by.is_none() && args.top_k.is_none());
        assert_eq!(args.format, OutputFormat::Text);

        let cmd = parse_command(&argv(
            "query - --record Age=30,Married=Yes --top-k 5 --by interest --format json",
        ))
        .unwrap();
        let Command::Query(args) = cmd else { panic!() };
        assert_eq!(args.catalog, "-"); // stdin
        assert_eq!(args.record.as_deref(), Some("Age=30,Married=Yes"));
        assert_eq!(args.top_k, Some(5));
        assert_eq!(args.by, Some(RankBy::Interest));
        assert_eq!(args.format, OutputFormat::Json);

        let cmd = parse_command(&argv("query c.qarcat --range Age=30..40")).unwrap();
        let Command::Query(args) = cmd else { panic!() };
        assert_eq!(args.range.as_deref(), Some("Age=30..40"));

        assert!(parse_command(&argv("query")).is_err()); // catalog required
        assert!(parse_command(&argv("query c --record a=1 --range a=1..2")).is_err());
        assert!(parse_command(&argv("query c --by niceness")).is_err());
        assert!(parse_command(&argv("query c --top-k lots")).is_err());
        assert!(parse_command(&argv("query c --format yaml")).is_err());
    }

    #[test]
    fn store_check_parsing() {
        let cmd = parse_command(&argv("store-check")).unwrap();
        assert_eq!(
            cmd,
            Command::StoreCheck(StoreCheckArgs { input: "-".into() })
        );
        let cmd = parse_command(&argv("store-check cat.qarcat")).unwrap();
        assert_eq!(
            cmd,
            Command::StoreCheck(StoreCheckArgs {
                input: "cat.qarcat".into()
            })
        );
        assert!(parse_command(&argv("store-check cat.qarcat --verbose yes")).is_err());
    }

    #[test]
    fn mine_store_query_end_to_end() {
        let (input, _) = people_csv("store-query");

        let store_path =
            std::env::temp_dir().join(format!("qar-cli-end-to-end-{}.qarcat", std::process::id()));
        let cmd = parse_command(&argv(&format!(
            "mine --input {input} --schema Age:quant,Married:cat,NumCars:quant \
             --minsup 0.4 --minconf 0.5 --maxsup 1.0 --no-partition --format json",
        )))
        .unwrap();
        let Command::Mine(mut args) = cmd else {
            panic!()
        };
        args.store = Some(store_path.to_str().unwrap().to_string());
        let mut mine_out = Vec::new();
        run_mine(&args, None, None, &mut mine_out).expect("mine");
        std::fs::remove_file(&input).ok();
        let mine_text = String::from_utf8(mine_out).unwrap();
        let bytes = std::fs::read(&store_path).expect("catalog written");
        std::fs::remove_file(&store_path).ok();

        // `qar store-check` accepts the pristine catalog, leading with
        // the section inventory...
        let mut check_out = Vec::new();
        run_store_check(&bytes, &mut check_out).expect("store-check");
        let check_text = String::from_utf8(check_out).unwrap();
        assert!(check_text.starts_with("sections:"), "{check_text}");
        assert!(check_text.contains("catalog OK:"), "{check_text}");
        assert!(check_text.contains("rules (tag 2):"), "{check_text}");
        assert!(
            check_text.contains("0 unknown section(s) skipped"),
            "{check_text}"
        );
        assert!(check_text.contains("analytics: none"), "{check_text}");

        // ...and rejects a bit-flipped copy.
        let mut corrupt = bytes.clone();
        let mid = corrupt.len() / 2;
        corrupt[mid] ^= 0x01;
        assert!(run_store_check(&corrupt, &mut Vec::new()).is_err());

        // An unfiltered JSON query reproduces the mined rules array
        // byte-for-byte — the contract the CI store-smoke step relies on.
        let cmd = parse_command(&argv("query - --format json")).unwrap();
        let Command::Query(qargs) = cmd else { panic!() };
        let mut query_out = Vec::new();
        run_query(&bytes, &qargs, &mut query_out).expect("query");
        let query_text = String::from_utf8(query_out).unwrap();
        let rules_at = mine_text.find("\"rules\":").expect("rules key") + "\"rules\":".len();
        let mined_rules = &mine_text[rules_at..mine_text.len() - "}\n".len()];
        assert_eq!(query_text, mined_rules);

        // A record query returns only rules whose antecedents cover it.
        let cmd = parse_command(&argv("query - --record Married=Yes,NumCars=2")).unwrap();
        let Command::Query(qargs) = cmd else { panic!() };
        let mut rec_out = Vec::new();
        run_query(&bytes, &qargs, &mut rec_out).expect("record query");
        let rec_text = String::from_utf8(rec_out).unwrap();
        assert!(rec_text.contains("fire for the record"), "{rec_text}");
        assert!(rec_text.contains("⟨Married: Yes⟩"), "{rec_text}");

        // A range query mentions the interval; an unknown label errors.
        let cmd = parse_command(&argv("query - --range Age=20..30 --top-k 3")).unwrap();
        let Command::Query(qargs) = cmd else { panic!() };
        run_query(&bytes, &qargs, &mut Vec::new()).expect("range query");
        let cmd = parse_command(&argv("query - --record Married=Perhaps")).unwrap();
        let Command::Query(qargs) = cmd else { panic!() };
        assert!(run_query(&bytes, &qargs, &mut Vec::new()).is_err());
        let cmd = parse_command(&argv("query - --range Married=1..2")).unwrap();
        let Command::Query(qargs) = cmd else { panic!() };
        assert!(run_query(&bytes, &qargs, &mut Vec::new()).is_err());
    }

    #[test]
    fn serve_defaults_and_flags() {
        let cmd = parse_command(&argv("serve cat.qarcat")).unwrap();
        assert_eq!(
            cmd,
            Command::Serve(ServeArgs {
                catalogs: vec!["cat.qarcat".into()],
                port: 0,
                threads: 0,
                trace: None,
            })
        );
        let cmd = parse_command(&argv(
            "serve a.qarcat b.qarcat --port 9999 --threads 4 --trace json",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Serve(ServeArgs {
                catalogs: vec!["a.qarcat".into(), "b.qarcat".into()],
                port: 9999,
                threads: 4,
                trace: Some(TraceFormat::Json),
            })
        );
        assert!(parse_command(&argv("serve")).is_err());
        assert!(parse_command(&argv("serve --port 1234")).is_err());
        assert!(parse_command(&argv("serve cat.qarcat --port 70000")).is_err());
        assert!(parse_command(&argv("serve cat.qarcat --bogus 1")).is_err());
    }

    #[test]
    fn bench_serve_defaults_and_flags() {
        let cmd = parse_command(&argv("bench-serve")).unwrap();
        assert_eq!(
            cmd,
            Command::BenchServe(BenchServeArgs {
                addr: None,
                catalog: None,
                clients: 8,
                requests: 2000,
                threads: 0,
                floor: 50_000.0,
                shutdown: false,
                out: None,
            })
        );
        let cmd = parse_command(&argv(
            "bench-serve --addr 127.0.0.1:7000 --catalog cat.qarcat --clients 2 \
             --requests 10 --threads 3 --floor 0 --shutdown --out b.json",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::BenchServe(BenchServeArgs {
                addr: Some("127.0.0.1:7000".into()),
                catalog: Some("cat.qarcat".into()),
                clients: 2,
                requests: 10,
                threads: 3,
                floor: 0.0,
                shutdown: true,
                out: Some("b.json".into()),
            })
        );
        // --shutdown is meaningless without --addr: self-hosted servers
        // are always stopped.
        assert!(parse_command(&argv("bench-serve --shutdown")).is_err());
        assert!(parse_command(&argv("bench-serve --clients 0")).is_err());
        assert!(parse_command(&argv("bench-serve --bogus 1")).is_err());
    }

    #[test]
    fn catalog_slots_use_file_stems() {
        let slots = catalog_slots(&["rules/cat.qarcat".into(), "other.qarcat".into()]).unwrap();
        assert_eq!(
            slots,
            vec![
                ("cat".to_string(), PathBuf::from("rules/cat.qarcat")),
                ("other".to_string(), PathBuf::from("other.qarcat")),
            ]
        );
        assert!(catalog_slots(&["..".into()]).is_err());
    }

    #[test]
    fn bench_workload_is_deterministic_and_mixed() {
        let space = QuerySpace::generic();
        let a = bench_workload(&space, "cat", 32, 7);
        let b = bench_workload(&space, "cat", 32, 7);
        assert_eq!(a, b);
        let kind = |r: &Request| match r {
            Request::Batch { .. } => "batch",
            Request::Query { query, .. } => query.kind(),
            _ => "other",
        };
        for want in ["point", "range", "top_k", "batch"] {
            assert!(a.iter().any(|r| kind(r) == want), "missing {want}");
        }
        // Every seventh request carries a deadline.
        let with_deadline = a
            .iter()
            .filter(|r| match r {
                Request::Query { deadline_ms, .. } | Request::Batch { deadline_ms, .. } => {
                    deadline_ms.is_some()
                }
                _ => false,
            })
            .count();
        assert_eq!(with_deadline, 32 / 7);
    }

    #[test]
    fn analytics_flag_requires_store() {
        let cmd = parse_command(&argv(
            "mine --input f --schema a:q --analytics --store cat.qarcat",
        ))
        .unwrap();
        let Command::Mine(args) = cmd else { panic!() };
        assert!(args.analytics);
        let cmd = parse_command(&argv("mine --input f --schema a:q --store cat.qarcat")).unwrap();
        let Command::Mine(args) = cmd else { panic!() };
        assert!(!args.analytics);
        let e = parse_command(&argv("mine --input f --schema a:q --analytics")).unwrap_err();
        assert!(e.to_string().contains("--store"), "{e}");
    }

    #[test]
    fn analyze_parsing() {
        let cmd = parse_command(&argv("analyze cat.qarcat --input data.csv")).unwrap();
        let Command::Analyze(args) = cmd else {
            panic!()
        };
        assert_eq!(args.catalog, "cat.qarcat");
        assert_eq!(args.input, "data.csv");
        assert_eq!(args.samples, AnalyticsConfig::default().shapley_samples);
        assert_eq!(args.seed, AnalyticsConfig::default().seed);
        assert!(args.output.is_none() && args.trace.is_none());

        let cmd = parse_command(&argv(
            "analyze cat.qarcat --input - --samples 16 --seed 7 --output new.qarcat --trace json",
        ))
        .unwrap();
        let Command::Analyze(args) = cmd else {
            panic!()
        };
        assert_eq!(args.samples, 16);
        assert_eq!(args.seed, 7);
        assert_eq!(args.output.as_deref(), Some("new.qarcat"));
        assert_eq!(args.trace, Some(TraceFormat::Json));

        assert!(parse_command(&argv("analyze --input d.csv")).is_err()); // catalog required
        assert!(parse_command(&argv("analyze - --input d.csv")).is_err()); // no stdin catalog
        assert!(parse_command(&argv("analyze cat.qarcat")).is_err()); // input required
        assert!(parse_command(&argv("analyze cat.qarcat --input d --samples 0")).is_err());
        assert!(parse_command(&argv("analyze cat.qarcat --input d --bogus 1")).is_err());
    }

    #[test]
    fn query_analytics_flags_parse() {
        let cmd = parse_command(&argv(
            "query cat.qarcat --by lift --min-lift 1.5 --max-p 0.05",
        ))
        .unwrap();
        let Command::Query(args) = cmd else { panic!() };
        assert_eq!(args.by, Some(RankBy::Lift));
        assert_eq!(args.min_lift, Some(1.5));
        assert_eq!(args.max_p, Some(0.05));
        for by in ["conviction", "chi2", "jmeasure"] {
            let cmd = parse_command(&argv(&format!("query c --by {by}"))).unwrap();
            let Command::Query(args) = cmd else { panic!() };
            assert!(args.by.is_some(), "--by {by}");
        }
        assert!(parse_command(&argv("query c --min-lift lots")).is_err());
        assert!(parse_command(&argv("query c --max-p often")).is_err());
    }

    #[test]
    fn bench_analytics_parsing() {
        let cmd = parse_command(&argv("bench-analytics")).unwrap();
        assert_eq!(
            cmd,
            Command::BenchAnalytics(BenchAnalyticsArgs {
                records: 5_000,
                samples: 64,
                floor: 500.0,
                out: None,
            })
        );
        let cmd = parse_command(&argv(
            "bench-analytics --records 100 --samples 8 --floor 0 --out b.json",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::BenchAnalytics(BenchAnalyticsArgs {
                records: 100,
                samples: 8,
                floor: 0.0,
                out: Some("b.json".into()),
            })
        );
        assert!(parse_command(&argv("bench-analytics --records 0")).is_err());
        assert!(parse_command(&argv("bench-analytics --samples 0")).is_err());
        assert!(parse_command(&argv("bench-analytics --bogus 1")).is_err());
    }

    /// The full analytics lifecycle through the CLI layer: mine with
    /// `--analytics`, inventory the stored sections, rank and filter by
    /// the new metrics, refuse them on an analytics-less catalog, and
    /// prove `qar analyze` backfills a byte-identical catalog.
    #[test]
    fn mine_analytics_analyze_query_end_to_end() {
        let (input, csv_bytes) = people_csv("analytics");

        let pid = std::process::id();
        let with_path = std::env::temp_dir().join(format!("qar-cli-analytics-{pid}.qarcat"));
        let plain_path = std::env::temp_dir().join(format!("qar-cli-plain-{pid}.qarcat"));
        let base = format!(
            "mine --input {input} --schema Age:quant,Married:cat,NumCars:quant \
             --minsup 0.4 --minconf 0.5 --maxsup 1.0 --no-partition"
        );
        for (flags, path) in [(" --analytics", &with_path), ("", &plain_path)] {
            let cmd = parse_command(&argv(&format!(
                "{base}{flags} --store {}",
                path.to_str().unwrap()
            )))
            .unwrap();
            let Command::Mine(args) = cmd else { panic!() };
            run_mine(&args, None, None, &mut Vec::new()).expect("mine");
        }
        std::fs::remove_file(&input).ok();
        let with_bytes = std::fs::read(&with_path).expect("analytics catalog written");
        let plain_bytes = std::fs::read(&plain_path).expect("plain catalog written");
        std::fs::remove_file(&with_path).ok();
        std::fs::remove_file(&plain_path).ok();

        // store-check inventories the ANALYTICS section on one catalog
        // and reports its absence on the other.
        let mut check_out = Vec::new();
        run_store_check(&with_bytes, &mut check_out).expect("store-check");
        let check_text = String::from_utf8(check_out).unwrap();
        assert!(check_text.contains("analytics (tag 4):"), "{check_text}");
        assert!(check_text.contains("Shapley sample(s)"), "{check_text}");
        let mut check_out = Vec::new();
        run_store_check(&plain_bytes, &mut check_out).expect("store-check");
        let check_text = String::from_utf8(check_out).unwrap();
        assert!(!check_text.contains("analytics (tag 4):"), "{check_text}");
        assert!(check_text.contains("analytics: none"), "{check_text}");

        // Analytics rankings and filters work on the annotated catalog...
        for spec in [
            "query - --by lift",
            "query - --by conviction --top-k 2",
            "query - --by chi2 --max-p 1.0",
            "query - --by jmeasure --min-lift 0",
            "query - --record Married=Yes --by lift --min-lift 0 --max-p 1.0",
        ] {
            let cmd = parse_command(&argv(spec)).unwrap();
            let Command::Query(qargs) = cmd else { panic!() };
            let mut out = Vec::new();
            run_query(&with_bytes, &qargs, &mut out).expect(spec);
            assert!(String::from_utf8(out).unwrap().contains("rules"), "{spec}");
        }

        // ...and are refused with a pointer at the backfill path on the
        // plain catalog, which keeps answering classic queries.
        for spec in ["query - --by lift", "query - --min-lift 1.0"] {
            let cmd = parse_command(&argv(spec)).unwrap();
            let Command::Query(qargs) = cmd else { panic!() };
            let e = run_query(&plain_bytes, &qargs, &mut Vec::new()).unwrap_err();
            assert!(e.to_string().contains("qar analyze"), "{spec}: {e}");
        }
        let cmd = parse_command(&argv("query - --by confidence --top-k 3")).unwrap();
        let Command::Query(qargs) = cmd else { panic!() };
        run_query(&plain_bytes, &qargs, &mut Vec::new()).expect("classic ranking");

        // `qar analyze` backfills the plain catalog into a byte-for-byte
        // copy of what `mine --analytics` stored (same defaults, same
        // deterministic sampler).
        let cmd = parse_command(&argv("analyze plain.qarcat --input -")).unwrap();
        let Command::Analyze(aargs) = cmd else {
            panic!()
        };
        let mut analyze_out = Vec::new();
        let annotated =
            run_analyze(&plain_bytes, &csv_bytes, &aargs, &mut analyze_out).expect("analyze");
        let analyze_text = String::from_utf8(analyze_out).unwrap();
        assert!(
            analyze_text.contains("backfilled analytics for"),
            "{analyze_text}"
        );
        // The annotated catalog is the plain one with the ANALYTICS
        // section spliced in before COUNTS — and that section is
        // byte-identical to what `mine --analytics` stored (the whole
        // files can't be compared: the two mines' STATS sections carry
        // different wall times).
        fn section_ranges(bytes: &[u8]) -> Vec<(u32, std::ops::Range<usize>)> {
            let sections = qar_store::section_inventory(bytes).expect("catalog walks");
            let mut offset = qar_store::format::MAGIC.len() + 4;
            sections
                .iter()
                .map(|s| {
                    let start = offset;
                    offset += 4 + 8 + 4 + s.len as usize;
                    (s.tag, start..offset)
                })
                .collect()
        }
        let analytics_of = |bytes: &[u8]| -> std::ops::Range<usize> {
            section_ranges(bytes)
                .into_iter()
                .find(|(tag, _)| *tag == 4)
                .expect("ANALYTICS section present")
                .1
        };
        let ann_range = analytics_of(&annotated);
        assert_eq!(
            annotated[ann_range.clone()],
            with_bytes[analytics_of(&with_bytes)],
            "backfilled ANALYTICS section is byte-identical"
        );
        let mut without_analytics = annotated.clone();
        without_analytics.drain(ann_range);
        assert_eq!(
            without_analytics, plain_bytes,
            "annotated catalog is the plain one plus the ANALYTICS section"
        );

        // A row-count mismatch is rejected before any annotation.
        let truncated_csv = {
            let text = String::from_utf8(csv_bytes.clone()).unwrap();
            let mut lines: Vec<&str> = text.lines().collect();
            lines.pop();
            lines.join("\n") + "\n"
        };
        let e = run_analyze(
            &plain_bytes,
            truncated_csv.as_bytes(),
            &aargs,
            &mut Vec::new(),
        )
        .unwrap_err();
        assert!(e.to_string().contains("row"), "{e}");
    }

    /// `bench-analytics` produces sane numbers and a parseable summary
    /// line at smoke scale.
    #[test]
    fn bench_analytics_smoke() {
        let out_path = std::env::temp_dir().join(format!(
            "qar-bench-analytics-test-{}.json",
            std::process::id()
        ));
        let args = BenchAnalyticsArgs {
            records: 400,
            samples: 8,
            floor: 0.0,
            out: Some(out_path.to_str().unwrap().to_string()),
        };
        let mut report = Vec::new();
        let rps = run_bench_analytics(&args, &mut report).expect("bench runs");
        assert!(rps > 0.0);
        let text = String::from_utf8(report).unwrap();
        assert!(text.contains("closed-form measures:"), "{text}");
        assert!(text.contains("Shapley attribution:"), "{text}");
        let json = std::fs::read_to_string(&out_path).expect("summary written");
        std::fs::remove_file(&out_path).ok();
        let doc = qar_trace::json::parse(&json).expect("valid JSON");
        let obj = doc.as_object().expect("object");
        assert_eq!(obj["suite"].as_str(), Some("bench_analytics"));
        for key in ["closed_form_rules_per_sec", "shapley_samples_per_sec"] {
            let qar_trace::json::Json::Num(v) = obj[key] else {
                panic!("{key} is not a number");
            };
            assert!(v > 0.0, "{key} = {v}");
        }
    }

    #[test]
    fn percentiles_of_latency_samples() {
        let mut empty: Vec<u64> = Vec::new();
        assert_eq!(percentile_us(&mut empty, 50.0), 0);
        let mut one = vec![42];
        assert_eq!(percentile_us(&mut one, 99.0), 42);
        let mut sample: Vec<u64> = (1..=100).rev().collect();
        // Nearest-rank on 100 samples: rank round(0.5 * 99) = 50.
        assert_eq!(percentile_us(&mut sample, 50.0), 51);
        assert_eq!(percentile_us(&mut sample, 99.0), 99);
        assert_eq!(percentile_us(&mut sample, 100.0), 100);
    }

    #[test]
    fn dist_mine_flags_parse() {
        let cmd = parse_command(&argv(
            "mine --input f --schema a:q --workers 3 --chunk-rows 512 --normalize-stats",
        ))
        .unwrap();
        let Command::Mine(args) = cmd else { panic!() };
        assert_eq!(args.workers, 3);
        assert_eq!(args.chunk_rows, 512);
        assert!(args.normalize_stats);
        // Defaults: serial, in-memory, raw stats.
        let cmd = parse_command(&argv("mine --input f --schema a:q")).unwrap();
        let Command::Mine(args) = cmd else { panic!() };
        assert_eq!(args.workers, 0);
        assert_eq!(args.chunk_rows, 0);
        assert!(!args.normalize_stats);
        // Analytics need the full in-memory table on the coordinator.
        for flags in ["--workers 2", "--chunk-rows 64"] {
            let e = parse_command(&argv(&format!(
                "mine --input f --schema a:q --store c.qarcat --analytics {flags}"
            )))
            .unwrap_err();
            assert!(e.to_string().contains("qar analyze"), "{flags}: {e}");
        }
        // The chunked path reads the file twice, so stdin is out.
        let e = parse_command(&argv("mine --input - --schema a:q --chunk-rows 64")).unwrap_err();
        assert!(e.to_string().contains("stdin"), "{e}");
        assert!(parse_command(&argv("mine --input f --schema a:q --workers lots")).is_err());
    }

    #[test]
    fn threads_flag_is_bounded() {
        for cmd in [
            "mine --input f --schema a:q",
            "serve a.qarcat",
            "worker --connect h:1",
            "bench-serve",
        ] {
            assert!(parse_command(&argv(&format!("{cmd} --threads {MAX_THREADS}"))).is_ok());
            let e =
                parse_command(&argv(&format!("{cmd} --threads {}", MAX_THREADS + 1))).unwrap_err();
            assert!(e.to_string().contains("--threads"), "{cmd}: {e}");
        }
    }

    #[test]
    fn worker_parsing() {
        let cmd = parse_command(&argv("worker --connect 127.0.0.1:7001")).unwrap();
        assert_eq!(
            cmd,
            Command::Worker(WorkerArgs {
                connect: "127.0.0.1:7001".into(),
                threads: 0,
            })
        );
        let cmd = parse_command(&argv("worker --connect h:1 --threads 2")).unwrap();
        assert_eq!(
            cmd,
            Command::Worker(WorkerArgs {
                connect: "h:1".into(),
                threads: 2,
            })
        );
        let e = parse_command(&argv("worker")).unwrap_err();
        assert!(e.to_string().contains("--connect"), "{e}");
        assert!(parse_command(&argv("worker --connect h:1 --kernel bitmask")).is_err());
        assert!(parse_command(&argv("worker --connect h:1 --bogus 1")).is_err());
    }

    #[test]
    fn bench_dist_parsing() {
        let cmd = parse_command(&argv("bench-dist")).unwrap();
        assert_eq!(
            cmd,
            Command::BenchDist(BenchDistArgs {
                records: 10_000_000,
                workers: 2,
                floor: 1.6,
                out: None,
            })
        );
        let cmd = parse_command(&argv(
            "bench-dist --records 1000 --workers 4 --floor 0 --out b.json",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::BenchDist(BenchDistArgs {
                records: 1000,
                workers: 4,
                floor: 0.0,
                out: Some("b.json".into()),
            })
        );
        assert!(parse_command(&argv("bench-dist --records 0")).is_err());
        let e = parse_command(&argv("bench-dist --workers 1")).unwrap_err();
        assert!(e.to_string().contains("at least 2"), "{e}");
        assert!(parse_command(&argv("bench-dist --bogus 1")).is_err());
    }

    /// Count-distribution over in-process worker threads reproduces the
    /// serial miner's JSON report and stored catalog byte-for-byte
    /// (`--normalize-stats` zeroes the volatile timings on both sides).
    #[test]
    fn distributed_mine_matches_serial_byte_for_byte() {
        let (input, _) = people_csv("dist");

        let pid = std::process::id();
        let mut outputs = Vec::new();
        for workers in [0usize, 2, 3] {
            let path = std::env::temp_dir().join(format!("qar-cli-dist-{pid}-{workers}.qarcat"));
            let cmd = parse_command(&argv(&format!(
                "mine --input {input} --schema Age:quant,Married:cat,NumCars:quant \
                 --minsup 0.4 --minconf 0.5 --maxsup 1.0 --no-partition \
                 --normalize-stats --format json",
            )))
            .unwrap();
            let Command::Mine(mut args) = cmd else {
                panic!()
            };
            args.workers = workers;
            args.store = Some(path.to_str().unwrap().to_string());
            let spawn =
                (workers > 0).then(|| WorkerSpawn::Threads(qar_dist::WorkerOptions::default()));
            let mut report = Vec::new();
            run_mine(&args, spawn, None, &mut report)
                .unwrap_or_else(|e| panic!("{workers} workers: {e}"));
            let catalog = std::fs::read(&path).expect("catalog written");
            std::fs::remove_file(&path).ok();
            outputs.push((workers, report, catalog));
        }
        std::fs::remove_file(&input).ok();
        let (_, serial_report, serial_catalog) = &outputs[0];
        assert!(!serial_catalog.is_empty());
        assert!(qar_trace::json::parse(&String::from_utf8(serial_report.clone()).unwrap()).is_ok());
        for (workers, report, catalog) in &outputs[1..] {
            assert_eq!(report, serial_report, "{workers} workers: report differs");
            assert_eq!(
                catalog, serial_catalog,
                "{workers} workers: catalog differs"
            );
        }
    }

    /// An out-of-core mine at an adversarially tiny chunk size — serial
    /// and distributed over worker threads — reproduces the in-memory
    /// catalog and report byte-for-byte (the issue's acceptance bar).
    #[test]
    fn chunked_mine_matches_in_memory_byte_for_byte() {
        let (input, _) = people_csv("chunked");
        let pid = std::process::id();
        // Unpartitioned, and partitioned from the chunks' merged histograms.
        for partition in ["--no-partition", "--intervals 2"] {
            let parse_mine = || {
                let cmd = parse_command(&argv(&format!(
                    "mine --input {input} --schema Age:quant,Married:cat,NumCars:quant \
                 --minsup 0.4 --minconf 0.5 --maxsup 1.0 {partition} \
                 --normalize-stats --format json",
                )))
                .unwrap();
                let Command::Mine(args) = cmd else { panic!() };
                args
            };

            // In-memory reference run.
            let ref_path = std::env::temp_dir().join(format!("qar-cli-chunked-{pid}-ref.qarcat"));
            let mut args = parse_mine();
            args.store = Some(ref_path.to_str().unwrap().to_string());
            let mut ref_report = Vec::new();
            run_mine(&args, None, None, &mut ref_report).expect("in-memory mine");
            let ref_catalog = std::fs::read(&ref_path).expect("reference catalog");
            std::fs::remove_file(&ref_path).ok();

            // Out-of-core runs: 3-row chunks force many spill files; the
            // distributed variant hands whole chunks to worker threads.
            for workers in [0usize, 2] {
                let path =
                    std::env::temp_dir().join(format!("qar-cli-chunked-{pid}-{workers}.qarcat"));
                let mut args = parse_mine();
                args.chunk_rows = 3;
                args.workers = workers;
                args.store = Some(path.to_str().unwrap().to_string());
                let spawn =
                    (workers > 0).then(|| WorkerSpawn::Threads(qar_dist::WorkerOptions::default()));
                let mut report = Vec::new();
                run_mine(&args, spawn, None, &mut report)
                    .unwrap_or_else(|e| panic!("chunked, {workers} workers: {e}"));
                let catalog = std::fs::read(&path).expect("chunked catalog");
                std::fs::remove_file(&path).ok();
                assert_eq!(
                    report, ref_report,
                    "{partition}: chunked report, {workers} workers"
                );
                assert_eq!(
                    catalog, ref_catalog,
                    "{partition}: chunked catalog, {workers} workers"
                );
            }
        }
        std::fs::remove_file(&input).ok();
    }

    #[test]
    fn update_flag_parsing() {
        let cmd = parse_command(&argv("mine --input d.csv --update c.qarcat")).unwrap();
        let Command::Mine(args) = cmd else { panic!() };
        assert_eq!(args.update.as_deref(), Some("c.qarcat"));
        assert!(args.schema.is_empty(), "schema comes from the catalog");

        // The schema, thresholds, and partitioning are the catalog's —
        // every semantic flag is refused in combination with --update.
        for flags in [
            "--schema a:q",
            "--minsup 0.2",
            "--minconf 0.6",
            "--maxsup 0.9",
            "--completeness 2.0",
            "--intervals 5",
            "--no-partition",
            "--strategy depth",
            "--interest 1.1",
            "--interest-mode prune",
            "--max-size 3",
        ] {
            let e = parse_command(&argv(&format!(
                "mine --input d.csv --update c.qarcat {flags}"
            )))
            .unwrap_err();
            assert!(e.to_string().contains("--update"), "{flags}: {e}");
        }

        // Performance and output knobs still compose, and --analytics is
        // legal without --store: the update rewrites the catalog in place.
        for flags in [
            "--workers 2",
            "--chunk-rows 64",
            "--threads 2",
            "--normalize-stats",
            "--analytics",
            "--analytics --store out.qarcat",
            "--format json",
        ] {
            parse_command(&argv(&format!(
                "mine --input d.csv --update c.qarcat {flags}"
            )))
            .unwrap_or_else(|e| panic!("{flags}: {e}"));
        }
    }

    #[test]
    fn bench_update_parsing() {
        let cmd = parse_command(&argv("bench-update")).unwrap();
        assert_eq!(
            cmd,
            Command::BenchUpdate(BenchUpdateArgs {
                records: 1_000_000,
                delta: 0.01,
                floor: 5.0,
                out: None,
            })
        );
        let cmd = parse_command(&argv(
            "bench-update --records 1000 --delta 0.5 --floor 0 --out b.json",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::BenchUpdate(BenchUpdateArgs {
                records: 1000,
                delta: 0.5,
                floor: 0.0,
                out: Some("b.json".into()),
            })
        );
        assert!(parse_command(&argv("bench-update --records 0")).is_err());
        for delta in ["0", "-0.1", "1.5", "nan"] {
            assert!(
                parse_command(&argv(&format!("bench-update --delta {delta}"))).is_err(),
                "--delta {delta} accepted"
            );
        }
        assert!(parse_command(&argv("bench-update --bogus 1")).is_err());
    }

    /// Write the paper's people table and a delta of rows copied from it
    /// (copies are always encodable under the base catalog's value-list
    /// encoders) to temp files, returning
    /// `(base_csv, delta_csv, combined_csv)` paths.
    fn update_fixture(tag: &str, delta_rows: usize) -> (PathBuf, PathBuf, PathBuf) {
        let gen = GenerateArgs {
            dataset: "people".into(),
            records: 0,
            seed: 0,
            output: "-".into(),
        };
        let mut csv_bytes = Vec::new();
        run_generate(&gen, &mut csv_bytes).expect("generate");
        let text = String::from_utf8(csv_bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        let (header, rows) = (lines[0], &lines[1..]);
        assert!(delta_rows <= rows.len());
        let base_csv = text.clone();
        let delta_csv = std::iter::once(header)
            .chain(rows[..delta_rows].iter().copied())
            .collect::<Vec<_>>()
            .join("\n")
            + "\n";
        let combined_csv = text.clone() + &rows[..delta_rows].join("\n") + "\n";

        let pid = std::process::id();
        let dir = std::env::temp_dir();
        let base_path = dir.join(format!("qar-cli-update-{tag}-{pid}-base.csv"));
        let delta_path = dir.join(format!("qar-cli-update-{tag}-{pid}-delta.csv"));
        let combined_path = dir.join(format!("qar-cli-update-{tag}-{pid}-combined.csv"));
        std::fs::write(&base_path, &base_csv).expect("write base CSV");
        std::fs::write(&delta_path, &delta_csv).expect("write delta CSV");
        std::fs::write(&combined_path, &combined_csv).expect("write combined CSV");
        (base_path, delta_path, combined_path)
    }

    const UPDATE_MINE_FLAGS: &str = "--minsup 0.4 --minconf 0.5 --maxsup 1.0 --no-partition \
                                     --normalize-stats --format json";

    /// `qar mine --update` across every topology — serial, worker
    /// threads, tiny chunks, and chunked+distributed — reproduces the
    /// from-scratch mine of base+delta byte-for-byte: same JSON report,
    /// same stored catalog including the merged COUNTS section. An empty
    /// delta reproduces the base catalog unchanged.
    #[test]
    fn mine_update_matches_scratch_mine_byte_for_byte() {
        let (base_path, delta_path, combined_path) = update_fixture("exact", 2);
        let pid = std::process::id();
        let dir = std::env::temp_dir();

        // From-scratch reference over base+delta.
        let scratch_path = dir.join(format!("qar-cli-update-exact-{pid}-scratch.qarcat"));
        let cmd = parse_command(&argv(&format!(
            "mine --input - --schema Age:quant,Married:cat,NumCars:quant {UPDATE_MINE_FLAGS}"
        )))
        .unwrap();
        let Command::Mine(mut args) = cmd else {
            panic!()
        };
        args.input = combined_path.to_str().unwrap().to_string();
        args.store = Some(scratch_path.to_str().unwrap().to_string());
        let mut scratch_report = Vec::new();
        run_mine(&args, None, None, &mut scratch_report).expect("scratch mine");
        let scratch_catalog = std::fs::read(&scratch_path).expect("scratch catalog");
        std::fs::remove_file(&scratch_path).ok();

        // Base catalog with persisted counts.
        let base_cat_path = dir.join(format!("qar-cli-update-exact-{pid}-base.qarcat"));
        args.input = base_path.to_str().unwrap().to_string();
        args.store = Some(base_cat_path.to_str().unwrap().to_string());
        run_mine(&args, None, None, &mut Vec::new()).expect("base mine");
        let base_catalog = std::fs::read(&base_cat_path).expect("base catalog");
        std::fs::remove_file(&base_cat_path).ok();

        for (workers, chunk_rows) in [(0usize, 0usize), (2, 0), (0, 3), (2, 3)] {
            let label = format!("workers={workers} chunk_rows={chunk_rows}");
            let cat_path = dir.join(format!(
                "qar-cli-update-exact-{pid}-w{workers}c{chunk_rows}.qarcat"
            ));
            std::fs::write(&cat_path, &base_catalog).expect("seed catalog copy");
            let cmd = parse_command(&argv(&format!(
                "mine --input {} --update {} --normalize-stats --format json",
                delta_path.to_str().unwrap(),
                cat_path.to_str().unwrap(),
            )))
            .unwrap();
            let Command::Mine(mut uargs) = cmd else {
                panic!()
            };
            uargs.workers = workers;
            uargs.chunk_rows = chunk_rows;
            let spawn =
                (workers > 0).then(|| WorkerSpawn::Threads(qar_dist::WorkerOptions::default()));
            let mut report = Vec::new();
            run_mine(&uargs, spawn, None, &mut report).unwrap_or_else(|e| panic!("{label}: {e}"));
            let updated = std::fs::read(&cat_path).expect("updated catalog");
            std::fs::remove_file(&cat_path).ok();
            assert_eq!(report, scratch_report, "{label}: report differs");
            assert_eq!(updated, scratch_catalog, "{label}: catalog differs");
        }

        // An empty delta (header only) leaves the catalog byte-identical.
        let empty_path = dir.join(format!("qar-cli-update-exact-{pid}-empty.csv"));
        std::fs::write(&empty_path, "Age,Married,NumCars\n").unwrap();
        for (workers, chunk_rows) in [(0usize, 0usize), (0, 3)] {
            let cat_path = dir.join(format!(
                "qar-cli-update-exact-{pid}-noop-w{workers}c{chunk_rows}.qarcat"
            ));
            std::fs::write(&cat_path, &base_catalog).unwrap();
            let cmd = parse_command(&argv(&format!(
                "mine --input {} --update {} --normalize-stats --format json",
                empty_path.to_str().unwrap(),
                cat_path.to_str().unwrap(),
            )))
            .unwrap();
            let Command::Mine(mut uargs) = cmd else {
                panic!()
            };
            uargs.workers = workers;
            uargs.chunk_rows = chunk_rows;
            run_mine(&uargs, None, None, &mut Vec::new())
                .unwrap_or_else(|e| panic!("empty delta, chunk_rows={chunk_rows}: {e}"));
            let updated = std::fs::read(&cat_path).expect("updated catalog");
            std::fs::remove_file(&cat_path).ok();
            assert_eq!(
                updated, base_catalog,
                "empty delta must be a no-op (chunk_rows={chunk_rows})"
            );
        }
        std::fs::remove_file(&empty_path).ok();
        std::fs::remove_file(&base_path).ok();
        std::fs::remove_file(&delta_path).ok();
        std::fs::remove_file(&combined_path).ok();
    }

    /// `--update` surfaces its guardrails as structured errors: a
    /// counts-less catalog points at `qar mine --store`, and a delta the
    /// base encoders cannot represent reports the incremental fallback
    /// (the CLI never silently re-mines without the base rows).
    #[test]
    fn mine_update_guardrails() {
        let (base_path, delta_path, combined_path) = update_fixture("guard", 1);
        let pid = std::process::id();
        let dir = std::env::temp_dir();

        let cmd = parse_command(&argv(&format!(
            "mine --input - --schema Age:quant,Married:cat,NumCars:quant {UPDATE_MINE_FLAGS}"
        )))
        .unwrap();
        let Command::Mine(mut args) = cmd else {
            panic!()
        };
        let cat_path = dir.join(format!("qar-cli-update-guard-{pid}.qarcat"));
        args.input = base_path.to_str().unwrap().to_string();
        args.store = Some(cat_path.to_str().unwrap().to_string());
        run_mine(&args, None, None, &mut Vec::new()).expect("base mine");
        let base_catalog = std::fs::read(&cat_path).expect("base catalog");

        // No counts → a structured error pointing at the re-mine path.
        let stripped = Catalog::load_bytes(&base_catalog, None)
            .expect("load")
            .without_counts();
        let stripped_path = dir.join(format!("qar-cli-update-guard-{pid}-nocounts.qarcat"));
        stripped
            .save(stripped_path.to_str().unwrap(), None)
            .expect("save");
        let cmd = parse_command(&argv(&format!(
            "mine --input {} --update {}",
            delta_path.to_str().unwrap(),
            stripped_path.to_str().unwrap(),
        )))
        .unwrap();
        let Command::Mine(uargs) = cmd else { panic!() };
        let e = run_mine(&uargs, None, None, &mut Vec::new()).unwrap_err();
        assert!(e.to_string().contains("no persisted support counts"), "{e}");
        std::fs::remove_file(&stripped_path).ok();

        // A delta with a value the base never saw cannot be encoded under
        // the frozen value-list encoders; without the base rows every
        // topology reports the fallback — once — instead of guessing.
        let bad_delta_path = dir.join(format!("qar-cli-update-guard-{pid}-bad.csv"));
        std::fs::write(&bad_delta_path, "Age,Married,NumCars\n99,Divorced,7\n").unwrap();
        for (workers, chunk_rows) in [(0usize, 0usize), (0, 3), (2, 0), (2, 3)] {
            let label = format!("workers={workers} chunk_rows={chunk_rows}");
            let cmd = parse_command(&argv(&format!(
                "mine --input {} --update {}",
                bad_delta_path.to_str().unwrap(),
                cat_path.to_str().unwrap(),
            )))
            .unwrap();
            let Command::Mine(mut uargs) = cmd else {
                panic!()
            };
            uargs.workers = workers;
            uargs.chunk_rows = chunk_rows;
            let spawn =
                (workers > 0).then(|| WorkerSpawn::Threads(qar_dist::WorkerOptions::default()));
            let sink = Arc::new(qar_trace::CollectingSink::new());
            let events: Arc<dyn ProgressSink> = sink.clone();
            let e = run_mine(&uargs, spawn, Some(events), &mut Vec::new()).unwrap_err();
            assert!(
                e.to_string().contains("base rows unavailable"),
                "{label}: {e}"
            );
            let fallbacks = sink
                .events()
                .iter()
                .filter(|e| e.name() == "incremental_fallback")
                .count();
            assert_eq!(fallbacks, 1, "{label}: one incremental_fallback event");
            let untouched = std::fs::read(&cat_path).expect("catalog survives");
            assert_eq!(
                untouched, base_catalog,
                "{label}: failed update must not rewrite"
            );
        }
        std::fs::remove_file(&bad_delta_path).ok();
        std::fs::remove_file(&cat_path).ok();
        std::fs::remove_file(&base_path).ok();
        std::fs::remove_file(&delta_path).ok();
        std::fs::remove_file(&combined_path).ok();
    }

    /// Updating a catalog that carries ANALYTICS either recomputes them
    /// (`--analytics`, byte-identical to a from-scratch `mine
    /// --analytics` of base+delta) or drops them, and `store-check`
    /// inventories the COUNTS section either way.
    #[test]
    fn mine_update_analytics_recompute_or_drop() {
        let (base_path, delta_path, combined_path) = update_fixture("stale", 2);
        let pid = std::process::id();
        let dir = std::env::temp_dir();

        // From-scratch reference with analytics over base+delta.
        let scratch_path = dir.join(format!("qar-cli-update-stale-{pid}-scratch.qarcat"));
        let cmd = parse_command(&argv(&format!(
            "mine --input {} --schema Age:quant,Married:cat,NumCars:quant \
             --analytics --store {} {UPDATE_MINE_FLAGS}",
            combined_path.to_str().unwrap(),
            scratch_path.to_str().unwrap()
        )))
        .unwrap();
        let Command::Mine(mut args) = cmd else {
            panic!()
        };
        run_mine(&args, None, None, &mut Vec::new()).expect("scratch mine");
        let scratch_catalog = std::fs::read(&scratch_path).expect("scratch catalog");
        std::fs::remove_file(&scratch_path).ok();

        // Base catalog with analytics and counts.
        let base_cat_path = dir.join(format!("qar-cli-update-stale-{pid}-base.qarcat"));
        args.input = base_path.to_str().unwrap().to_string();
        args.store = Some(base_cat_path.to_str().unwrap().to_string());
        run_mine(&args, None, None, &mut Vec::new()).expect("base mine");
        let base_catalog = std::fs::read(&base_cat_path).expect("base catalog");
        assert!(Catalog::load_bytes(&base_catalog, None)
            .unwrap()
            .analytics()
            .is_some());

        // --analytics recomputes: byte-identical to the scratch mine.
        let cmd = parse_command(&argv(&format!(
            "mine --input {} --update {} --analytics --normalize-stats --format json",
            delta_path.to_str().unwrap(),
            base_cat_path.to_str().unwrap(),
        )))
        .unwrap();
        let Command::Mine(uargs) = cmd else { panic!() };
        run_mine(&uargs, None, None, &mut Vec::new()).expect("update with analytics");
        let recomputed = std::fs::read(&base_cat_path).expect("updated catalog");
        assert_eq!(
            recomputed, scratch_catalog,
            "recomputed analytics must match the from-scratch mine"
        );

        // Without --analytics the stale section is dropped (with a
        // warning on stderr), leaving rules+stats+counts only.
        std::fs::write(&base_cat_path, &base_catalog).unwrap();
        let cmd = parse_command(&argv(&format!(
            "mine --input {} --update {} --normalize-stats",
            delta_path.to_str().unwrap(),
            base_cat_path.to_str().unwrap(),
        )))
        .unwrap();
        let Command::Mine(uargs) = cmd else { panic!() };
        run_mine(&uargs, None, None, &mut Vec::new()).expect("update dropping analytics");
        let dropped_bytes = std::fs::read(&base_cat_path).expect("updated catalog");
        let dropped = Catalog::load_bytes(&dropped_bytes, None).expect("load");
        assert!(dropped.analytics().is_none(), "stale analytics must drop");
        assert!(dropped.counts().is_some(), "counts must persist");

        // store-check inventories the refreshed COUNTS section.
        let mut check_out = Vec::new();
        run_store_check(&dropped_bytes, &mut check_out).expect("store-check");
        let check_text = String::from_utf8(check_out).unwrap();
        assert!(check_text.contains("counts (tag 6):"), "{check_text}");
        assert!(check_text.contains("counts: "), "{check_text}");
        let counts = dropped.counts().unwrap();
        let pass2 = format!(
            "counts pass 2: {} pair(s), {} cell(s), 0 explicit record(s)",
            counts.captured.pair_cells.len(),
            counts.captured.total_cells(),
        );
        assert!(!counts.captured.pair_cells.is_empty());
        assert!(check_text.contains(&pass2), "{check_text}");
        let mut check_out = Vec::new();
        run_store_check(
            &Catalog::load_bytes(&dropped_bytes, None)
                .unwrap()
                .without_counts()
                .encode(),
            &mut check_out,
        )
        .expect("store-check");
        let check_text = String::from_utf8(check_out).unwrap();
        assert!(check_text.contains("counts: none"), "{check_text}");

        std::fs::remove_file(&base_cat_path).ok();
        std::fs::remove_file(&base_path).ok();
        std::fs::remove_file(&delta_path).ok();
        std::fs::remove_file(&combined_path).ok();
    }

    /// `bench-update` produces sane numbers (its internal exactness
    /// gates double as a correctness check) and a parseable summary.
    #[test]
    fn bench_update_smoke() {
        let out_path =
            std::env::temp_dir().join(format!("qar-bench-update-test-{}.json", std::process::id()));
        let args = BenchUpdateArgs {
            records: 2_000,
            delta: 0.01,
            floor: 0.0,
            out: Some(out_path.to_str().unwrap().to_string()),
        };
        let mut report = Vec::new();
        let speedup = run_bench_update(&args, &mut report).expect("bench runs");
        assert!(speedup > 0.0);
        let text = String::from_utf8(report).unwrap();
        assert!(text.contains("speedup"), "{text}");
        let json = std::fs::read_to_string(&out_path).expect("summary written");
        std::fs::remove_file(&out_path).ok();
        let doc = qar_trace::json::parse(&json).expect("valid JSON");
        let obj = doc.as_object().expect("object");
        assert_eq!(obj["suite"].as_str(), Some("bench_update"));
        for key in ["remine_s", "update_s", "speedup"] {
            let qar_trace::json::Json::Num(v) = obj[key] else {
                panic!("{key} is not a number");
            };
            assert!(v > 0.0, "{key} = {v}");
        }
    }

    /// Non-finite analytics values (conviction diverges to +inf at
    /// confidence 1; chi² and its p-values degenerate to NaN) serialize
    /// as `null` in `qar query --format json`, keeping the document
    /// parseable; finite values stay plain numbers.
    #[test]
    fn query_json_nulls_non_finite_analytics() {
        let (input, _) = people_csv("nonfinite");
        let path =
            std::env::temp_dir().join(format!("qar-cli-nonfinite-{}.qarcat", std::process::id()));
        let cmd = parse_command(&argv(&format!(
            "mine --input {input} --schema Age:quant,Married:cat,NumCars:quant \
             --minsup 0.4 --minconf 0.5 --maxsup 1.0 --no-partition",
        )))
        .unwrap();
        let Command::Mine(mut args) = cmd else {
            panic!()
        };
        args.store = Some(path.to_str().unwrap().to_string());
        run_mine(&args, None, None, &mut Vec::new()).expect("mine");
        std::fs::remove_file(&input).ok();
        let bytes = std::fs::read(&path).expect("catalog written");
        std::fs::remove_file(&path).ok();

        // Decorate with handcrafted analytics that pin the worst case:
        // +inf conviction and NaN chi²/p on every rule.
        let catalog = Catalog::load_bytes(&bytes, None).expect("load");
        let rules_analytics: Vec<qar_analytics::RuleAnalytics> = catalog
            .rules()
            .iter()
            .map(|rule| qar_analytics::RuleAnalytics {
                count_antecedent: rule.support,
                count_consequent: rule.support,
                lift: 2.5,
                conviction: f64::INFINITY,
                leverage: 0.125,
                chi2: f64::NAN,
                p_value: f64::NAN,
                p_adjusted: f64::NAN,
                jmeasure: 0.5,
                shapley: rule
                    .antecedent
                    .items()
                    .iter()
                    .map(|it| (it.attr, 0.5))
                    .collect(),
            })
            .collect();
        let annotated = catalog
            .with_analytics(qar_analytics::AnalyticsSet {
                shapley_samples: 1,
                seed: 0,
                rules: rules_analytics,
            })
            .expect("valid analytics")
            .encode();

        let cmd = parse_command(&argv("query - --format json")).unwrap();
        let Command::Query(qargs) = cmd else { panic!() };
        let mut out = Vec::new();
        run_query(&annotated, &qargs, &mut out).expect("query");
        let text = String::from_utf8(out).unwrap();
        let doc = qar_trace::json::parse(&text)
            .unwrap_or_else(|e| panic!("JSON stays parseable ({e}): {text}"));
        let rules = doc.as_array().expect("rules array");
        assert!(!rules.is_empty());
        for rule in rules {
            let obj = rule.as_object().expect("rule object");
            assert!(obj["conviction"].is_null(), "{text}");
            assert!(obj["chi2"].is_null(), "{text}");
            assert!(obj["p_value"].is_null(), "{text}");
            assert!(obj["p_adjusted"].is_null(), "{text}");
            let qar_trace::json::Json::Num(lift) = obj["lift"] else {
                panic!("lift is not a number: {text}");
            };
            assert_eq!(lift, 2.5);
        }
        // The raw text never smuggles bare inf/NaN tokens through.
        assert!(!text.contains("inf") && !text.contains("NaN"), "{text}");
    }

    #[test]
    fn panic_detail_extracts_payload_message() {
        let payload = std::thread::spawn(|| panic!("boom {}", 42))
            .join()
            .unwrap_err();
        assert_eq!(panic_detail(&*payload), "thread panicked: boom 42");
        let payload = std::thread::spawn(|| std::panic::panic_any(7u32))
            .join()
            .unwrap_err();
        assert_eq!(
            panic_detail(&*payload),
            "thread panicked (non-string payload)"
        );
    }
}

//! The coordinator side of count-distribution mining.
//!
//! [`Cluster`] owns the worker pool: it binds a loopback listener,
//! spawns workers (child processes running `qar worker --connect ADDR`,
//! or in-process threads for tests and the differential oracle), and
//! accepts their connections. [`DistSource`] then implements
//! [`CountSource`] over the pool and answers every counting request by
//! broadcasting it and merging the raw per-worker tallies with
//! element-wise `u64` addition.
//!
//! The workers load their own rows ([`DistSource::start_ranges`]): every
//! worker is started on the CSV file, parses its own byte range of it and
//! replies with the range's value histograms. The coordinator merges them,
//! builds the encoders from them as the serial run does (Steps 1–2) or
//! takes given ones, and sends them out, and each worker encodes its own
//! rows. The coordinator parses, encodes and ships no rows, and answers
//! pass 1 from the merged histograms without a request. The ranges are
//! first cut at newlines; if the first range that did not parse holds a
//! `"` byte, the file is cut again at record ends and every range sent
//! again.
//!
//! Pass 2 travels as attribute pairs: workers return [`PairHistograms`]
//! cells, which merge by addition into the histograms the driver reads
//! its frequent pairs from.
//!
//! Partial failure: a worker that times out, drops its connection, or
//! answers out of protocol is declared **lost** (one `worker_lost` trace
//! event). The coordinator recovers by parsing the lost worker's byte
//! range of the file again (and encoding it once the encoders exist), and
//! counting those rows itself from then on. The merged counts, and
//! therefore the mined rules, are unchanged.

use qar_core::frequent::histogram_value_counts;
use qar_core::pipeline::build_encoders_from_histograms;
use qar_core::source::{CountError, CountSource, InMemorySource};
use qar_core::supercand::{cell_groups, PairHistograms};
use qar_core::{MinerConfig, MinerError};
use qar_itemset::Itemset;
use qar_store::dist::{read_response, write_request, DistRequest, DistResponse};
use qar_store::protocol::MAX_PAYLOAD;
use qar_table::csv::{self, RangeRead};
use qar_table::{AttributeEncoder, EncodedTable, Histogram, Schema, TableError};
use qar_trace::{event::micros, CancelToken, ProgressSink, TraceEvent};
use std::fs::File;
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::worker::{run_worker, WorkerOptions};

/// Candidate batches are kept under this wire size — comfortably below
/// the protocol's 16 MiB frame ceiling, and small enough that per-batch
/// count responses never strain socket buffers.
const BATCH_BYTES: usize = 4 << 20;

/// Most histogram cells one `CountPairs` request asks for, so that its
/// `PairCounts` reply (a `u64` count prefix plus one `u64` per cell)
/// stays within [`BATCH_BYTES`].
const FRAME_CELLS: usize = (BATCH_BYTES - 8) / 8;

/// How workers are brought up.
#[derive(Debug, Clone)]
pub enum WorkerSpawn {
    /// Spawn child processes: `exe worker --connect ADDR [args...]` —
    /// the production path (`exe` is the `qar` binary).
    Processes {
        /// Binary to execute.
        exe: PathBuf,
        /// Extra arguments appended after `worker --connect ADDR`.
        args: Vec<String>,
    },
    /// Run workers as in-process threads — no processes to manage, used
    /// by tests and the differential oracle. Counting is still performed
    /// over real TCP connections through the full wire protocol.
    Threads(WorkerOptions),
}

impl WorkerSpawn {
    /// This spawn with every worker started on `input`: `--input FILE`
    /// after a process's arguments, or the thread workers'
    /// [`WorkerOptions::input`].
    fn with_input(&self, input: &Path) -> WorkerSpawn {
        match self {
            WorkerSpawn::Processes { exe, args } => {
                let mut args = args.clone();
                args.extend(["--input".to_string(), input.display().to_string()]);
                WorkerSpawn::Processes {
                    exe: exe.clone(),
                    args,
                }
            }
            WorkerSpawn::Threads(options) => WorkerSpawn::Threads(WorkerOptions {
                input: Some(input.to_path_buf()),
                ..options.clone()
            }),
        }
    }
}

/// How long [`Cluster::start`] waits for every worker to connect.
const ACCEPT_TIMEOUT: Duration = Duration::from_secs(10);

/// One connected worker.
struct Remote {
    stream: TcpStream,
    peer: String,
    alive: bool,
}

impl Remote {
    /// One request/response exchange. Any failure — I/O, timeout, a
    /// protocol error, or an `Error` reply — comes back as the loss
    /// detail string.
    fn request(&mut self, request: &DistRequest) -> Result<DistResponse, String> {
        self.send(request)?;
        self.receive()
    }

    fn send(&mut self, request: &DistRequest) -> Result<(), String> {
        write_request(&mut self.stream, request).map_err(|e| e.to_string())
    }

    /// Write an already-encoded request frame (one encoding shared by
    /// every worker a request is broadcast to).
    fn send_frame(&mut self, frame: &[u8]) -> Result<(), String> {
        self.stream.write_all(frame).map_err(|e| e.to_string())
    }

    fn receive(&mut self) -> Result<DistResponse, String> {
        match read_response(&mut self.stream) {
            Ok(Some(DistResponse::Error { message })) => Err(format!("worker error: {message}")),
            Ok(Some(response)) => Ok(response),
            Ok(None) => Err("connection closed".to_string()),
            Err(e) => Err(e.to_string()),
        }
    }
}

/// A pool of connected workers plus the child processes / threads
/// backing them. Dropping the cluster closes every connection (workers
/// exit on EOF) and reaps the children.
pub struct Cluster {
    remotes: Vec<Remote>,
    children: Vec<Child>,
    threads: Vec<JoinHandle<()>>,
}

impl Cluster {
    /// Bind a loopback listener, start `options.workers` workers, and
    /// wait for them all to connect.
    pub fn start(options: &DistOptions) -> Result<Cluster, MinerError> {
        if options.workers == 0 {
            return Err(MinerError::Distributed(
                "a cluster needs at least one worker".to_string(),
            ));
        }
        let listener = TcpListener::bind("127.0.0.1:0")
            .map_err(|e| MinerError::Distributed(format!("bind coordinator listener: {e}")))?;
        let addr = listener
            .local_addr()
            .map_err(|e| MinerError::Distributed(format!("coordinator listener address: {e}")))?
            .to_string();

        let mut children = Vec::new();
        let mut threads = Vec::new();
        for _ in 0..options.workers {
            match &options.spawn {
                WorkerSpawn::Processes { exe, args } => {
                    let child = Command::new(exe)
                        .arg("worker")
                        .arg("--connect")
                        .arg(&addr)
                        .args(args)
                        .stdin(Stdio::null())
                        .stdout(Stdio::null())
                        .spawn()
                        .map_err(|e| {
                            MinerError::Distributed(format!(
                                "spawn worker process {}: {e}",
                                exe.display()
                            ))
                        })?;
                    children.push(child);
                }
                WorkerSpawn::Threads(worker_options) => {
                    let addr = addr.clone();
                    let worker_options = worker_options.clone();
                    threads.push(std::thread::spawn(move || {
                        let _ = run_worker(&addr, &worker_options);
                    }));
                }
            }
        }

        // Accept until every worker is connected or the deadline passes.
        listener
            .set_nonblocking(true)
            .map_err(|e| MinerError::Distributed(format!("listener nonblocking: {e}")))?;
        let deadline = Instant::now() + ACCEPT_TIMEOUT;
        let mut remotes = Vec::with_capacity(options.workers);
        while remotes.len() < options.workers {
            match listener.accept() {
                Ok((stream, peer)) => {
                    stream.set_nonblocking(false).map_err(|e| {
                        MinerError::Distributed(format!("worker stream blocking: {e}"))
                    })?;
                    let _ = stream.set_nodelay(true);
                    let _ = stream.set_read_timeout(options.read_timeout);
                    remotes.push(Remote {
                        stream,
                        peer: peer.to_string(),
                        alive: true,
                    });
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if Instant::now() >= deadline {
                        return Err(MinerError::Distributed(format!(
                            "only {}/{} workers connected within {:?}",
                            remotes.len(),
                            options.workers,
                            ACCEPT_TIMEOUT
                        )));
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) => {
                    return Err(MinerError::Distributed(format!("accept worker: {e}")));
                }
            }
        }
        Ok(Cluster {
            remotes,
            children,
            threads,
        })
    }

    /// Adopt already-connected worker streams (tests drive misbehaving
    /// workers through this).
    pub fn from_streams(streams: Vec<TcpStream>, read_timeout: Option<Duration>) -> Cluster {
        let remotes = streams
            .into_iter()
            .map(|stream| {
                let peer = stream
                    .peer_addr()
                    .map(|a| a.to_string())
                    .unwrap_or_else(|_| "?".to_string());
                let _ = stream.set_nodelay(true);
                let _ = stream.set_read_timeout(read_timeout);
                Remote {
                    stream,
                    peer,
                    alive: true,
                }
            })
            .collect();
        Cluster {
            remotes,
            children: Vec::new(),
            threads: Vec::new(),
        }
    }

    /// Number of workers in the pool (alive or lost).
    pub fn len(&self) -> usize {
        self.remotes.len()
    }

    /// True when the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.remotes.is_empty()
    }

    /// Give up every worker at once: close the connections without a
    /// word, so a worker still parsing stops at its next write, and reap
    /// them (a child process is killed).
    fn abandon(&mut self) {
        for remote in &mut self.remotes {
            remote.alive = false;
        }
        self.shutdown();
    }

    /// Declare worker `index` lost during `pass` (0 = the load): one
    /// `worker_lost` event.
    fn lose(&mut self, index: usize, pass: usize, detail: String, sink: Option<&dyn ProgressSink>) {
        self.remotes[index].alive = false;
        if let Some(sink) = sink {
            sink.on_event(&TraceEvent::WorkerLost {
                worker: index,
                pass,
                detail,
            });
        }
    }

    /// Gracefully stop every live worker (Shutdown → Bye), close the
    /// connections, and reap children and threads.
    pub fn shutdown(&mut self) {
        for remote in &mut self.remotes {
            if remote.alive {
                let _ = remote.request(&DistRequest::Shutdown);
                remote.alive = false;
            }
        }
        self.remotes.clear(); // closes the sockets; EOF stops stragglers
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
        for mut child in self.children.drain(..) {
            let finished = matches!(child.try_wait(), Ok(Some(_)));
            if !finished {
                let _ = child.kill();
            }
            let _ = child.wait();
        }
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A CSV file cut into one byte range per worker, each worker parsing its
/// own part of it ([`DistSource::start_ranges`]).
pub struct RangeInput {
    file: File,
    path: PathBuf,
    schema: Schema,
    header_lines: usize,
    ranges: Vec<Range<u64>>,
    /// The ranges end on record ends ([`csv::cut_records`]), so their
    /// quoted fields are read.
    records: bool,
}

impl RangeInput {
    /// Cut `file`, opened from `path`, into `parts` byte ranges of whole
    /// lines after its header ([`csv::cut_ranges`]). A header that does
    /// not match `schema` fails here with the serial reader's error.
    pub fn new(
        file: File,
        path: impl Into<PathBuf>,
        schema: &Schema,
        parts: usize,
    ) -> Result<RangeInput, TableError> {
        let (header_lines, ranges) = csv::cut_ranges(&file, schema, parts)?;
        Ok(RangeInput {
            file,
            path: path.into(),
            schema: schema.clone(),
            header_lines,
            ranges,
            records: false,
        })
    }

    /// Cut the file again into as many ranges, at record ends.
    fn cut_records(&mut self) -> Result<(), TableError> {
        let (_, ranges) = csv::cut_records(&self.file, &self.schema, self.ranges.len())?;
        self.ranges = ranges;
        self.records = true;
        Ok(())
    }

    /// The request for range `index`, carrying the time `cancel` has
    /// left, rounded up to whole milliseconds so the worker never stops
    /// before the run does.
    fn request(&self, index: usize, cancel: Option<&CancelToken>) -> DistRequest {
        let deadline_ms = cancel
            .and_then(CancelToken::time_left)
            .map(|left| u32::try_from(left.as_micros().div_ceil(1000)).unwrap_or(u32::MAX));
        DistRequest::ParseRange {
            schema: self.schema.clone(),
            file_len: self.ranges.last().map_or(0, |r| r.end),
            range: self.ranges[index].clone(),
            records: self.records,
            deadline_ms,
        }
    }

    /// Parse range `index` here.
    fn parse(
        &self,
        index: usize,
        threads: usize,
        cancelled: &(dyn Fn() -> bool + Sync),
    ) -> Result<Option<RangeRead>, TableError> {
        let range = self.ranges[index].clone();
        csv::read_range(
            &self.file,
            &self.schema,
            range,
            self.records,
            threads,
            cancelled,
        )
    }
}

/// How [`DistSource::start_ranges`] ended: the source counting over the
/// workers, which hold the rows encoded, with the intervals Steps 1–2
/// chose per attribute (`None` for categorical or unpartitioned
/// attributes; none at all under given encoders). Or the file's error:
/// the serial reader's for a record that does not parse (the first
/// failing range's, its line counted from the file's start), the serial
/// encode's for a value given encoders cannot encode, or
/// [`TableError::Cancelled`] once the run's deadline passed.
pub type RangeLoad<'a> = Result<(Box<DistSource<'a>>, Vec<Option<usize>>), TableError>;

/// One range as the load met it, in range order: parsed, or its error.
type RangePart = Result<Parsed, TableError>;

/// A parsed range: its rows, lines and histograms, and its table when
/// the coordinator parsed it itself.
struct Parsed {
    rows: usize,
    lines: usize,
    histograms: Vec<Histogram>,
    read: Option<RangeRead>,
}

/// The distributed [`CountSource`]: a worker pool plus what the
/// coordinator needs to count a lost worker's rows itself.
pub struct DistSource<'a> {
    cluster: Cluster,
    meta: EncodedTable,
    /// Every range's value histograms, merged: pass 1 sums its counts
    /// from them.
    histograms: Vec<Histogram>,
    /// Each worker's rows, cluster order.
    rows: Vec<usize>,
    /// The file the workers parsed; a lost worker's range is parsed again.
    input: RangeInput,
    /// The lost workers' rows, encoded, counted by this process.
    local: Vec<EncodedTable>,
    /// The cell the serial encode of the file would fail on, among the
    /// ranges encoded so far: keyed by attribute, then range.
    unencodable: Option<((usize, usize), TableError)>,
    config: MinerConfig,
    sink: Option<&'a dyn ProgressSink>,
    cancel: Option<&'a CancelToken>,
}

impl<'a> DistSource<'a> {
    /// Start a cluster of `options.workers` workers on `input`'s file
    /// (each given it at start, never over the wire) and have each parse
    /// and encode its own range of it — the load of every `qar mine
    /// --workers N`. The rows are encoded under `encoders` when given (a
    /// catalog's, for `--update`), else under the encoders Steps 1–2 build
    /// from the ranges' histograms. `input` must be cut into one range per
    /// worker. The cluster shuts down when the source is dropped.
    pub fn start_ranges(
        input: RangeInput,
        encoders: Option<Vec<AttributeEncoder>>,
        config: &MinerConfig,
        options: &DistOptions,
        sink: Option<&'a dyn ProgressSink>,
        cancel: Option<&'a CancelToken>,
    ) -> Result<RangeLoad<'a>, MinerError> {
        let options = DistOptions {
            spawn: options.spawn.with_input(&input.path),
            ..options.clone()
        };
        let cluster = Cluster::start(&options)?;
        DistSource::from_ranges(cluster, input, encoders, config, sink, cancel)
    }

    /// Have the cluster's workers, started on `input`'s file, parse one
    /// range each, and cut the file again at record ends and parse every
    /// range again if the first range that did not parse holds a quote.
    /// Merge their histograms in range order into the encoders, unless
    /// `encoders` are given; send the workers the encoders, on which each
    /// encodes its own rows. A worker lost before it is loaded has its
    /// range parsed here instead. Emits one `worker_joined` event per
    /// loaded worker, once every worker is.
    pub fn from_ranges(
        mut cluster: Cluster,
        mut input: RangeInput,
        encoders: Option<Vec<AttributeEncoder>>,
        config: &MinerConfig,
        sink: Option<&'a dyn ProgressSink>,
        cancel: Option<&'a CancelToken>,
    ) -> Result<RangeLoad<'a>, MinerError> {
        if cluster.len() != input.ranges.len() {
            return Err(MinerError::Distributed(format!(
                "{} workers for an input cut into {} ranges",
                cluster.len(),
                input.ranges.len()
            )));
        }
        let parsed = match parse_ranges(&mut cluster, &mut input, config, sink, cancel) {
            Ok(parsed) => parsed,
            Err(e) => {
                cluster.abandon();
                return Err(e);
            }
        };
        // The first range that did not parse decides, its errors' lines
        // counted after the header's and the earlier ranges'.
        let mut lines = input.header_lines;
        let mut rows = Vec::with_capacity(parsed.len());
        let mut merged: Option<Vec<Histogram>> = None;
        let mut reads = Vec::new();
        for (index, part) in parsed.into_iter().enumerate() {
            let part = match part {
                Ok(part) => part,
                Err(e) => {
                    cluster.abandon();
                    return Ok(Err(e.after_lines(lines)));
                }
            };
            lines += part.lines;
            rows.push(part.rows);
            reads.extend(part.read.map(|read| (index, read)));
            match &mut merged {
                None => merged = Some(part.histograms),
                Some(merged) => {
                    for (merged, part) in merged.iter_mut().zip(part.histograms) {
                        merged.merge(part);
                    }
                }
            }
        }
        let histograms = merged.expect("a cluster has at least one worker");
        let (encoders, intervals) = match encoders {
            Some(encoders) => (encoders, Vec::new()),
            None => build_encoders_from_histograms(&input.schema, &histograms, config)?,
        };
        let num_rows = rows.iter().sum();
        let meta = EncodedTable::header_only(input.schema.clone(), encoders, num_rows);
        let mut source = DistSource {
            cluster,
            meta,
            histograms,
            rows,
            input,
            local: Vec::new(),
            unencodable: None,
            config: config.clone(),
            sink,
            cancel,
        };
        let loaded = reads
            .into_iter()
            .try_for_each(|(index, read)| source.keep_local(index, read))
            .and_then(|()| source.setup_ranges());
        let failed = match (loaded, source.unencodable.take()) {
            (Ok(()), None) => {
                return Ok(Ok((Box::new(source), intervals)));
            }
            (Ok(()), Some((_, e))) => Ok(Err(e)),
            (Err(CountError::Cancelled), _) => Ok(Err(TableError::Cancelled)),
            (Err(CountError::Failed(e)), _) => Err(e),
        };
        source.cluster.abandon();
        failed
    }

    fn emit(&self, event: TraceEvent) {
        if let Some(sink) = self.sink {
            sink.on_event(&event);
        }
    }

    /// Declare worker `index` lost during `pass` (0 = the load): its
    /// range of the file is parsed and encoded here, and its rows counted
    /// here from then on. A parse or encode stopped by the run's
    /// deadline ends in [`CountError::Cancelled`].
    fn lose(&mut self, index: usize, pass: usize, detail: String) -> Result<(), CountError> {
        self.cluster.lose(index, pass, detail, self.sink);
        let threads = self.config.effective_parallelism();
        let cancel = self.cancel;
        let cancelled = move || cancel.is_some_and(CancelToken::is_cancelled);
        let path = self.input.path.display().to_string();
        let again = |detail: String| {
            CountError::Failed(MinerError::Distributed(format!(
                "worker {index}'s range of `{path}` cannot be read again: {detail}"
            )))
        };
        let read = match self.input.parse(index, threads, &cancelled) {
            Ok(Some(read)) if read.table.num_rows() == self.rows[index] => read,
            Ok(Some(_)) => return Err(again("its row count changed".to_string())),
            Ok(None) => return Err(again("it now holds a quote".to_string())),
            Err(TableError::Cancelled) => return Err(CountError::Cancelled),
            Err(e) => return Err(again(e.to_string())),
        };
        self.keep_local(index, read)?;
        match &self.unencodable {
            // Past the load, the encoders took this range once already.
            Some((_, e)) if pass > 0 => Err(again(e.to_string())),
            _ => Ok(()),
        }
    }

    /// Encode `read`, range `index` parsed here, and count its rows here
    /// from now on; a value the encoders cannot encode is noted instead.
    fn keep_local(&mut self, index: usize, read: RangeRead) -> Result<(), CountError> {
        let threads = self.config.effective_parallelism();
        let encoders = self.meta.encoders().to_vec();
        let cancel = self.cancel;
        let cancelled = move || cancel.is_some_and(CancelToken::is_cancelled);
        match EncodedTable::encode_threaded(read.table, encoders, threads, &cancelled) {
            Ok(encoded) => self.local.push(encoded),
            Err(TableError::Cancelled) => return Err(CountError::Cancelled),
            Err(e @ TableError::UnencodableValue { .. }) => self.note_unencodable(index, e),
            Err(e) => return Err(CountError::Failed(e.into())),
        }
        Ok(())
    }

    /// Note `e`, range `index`'s first cell its encoders cannot encode,
    /// if the serial encode of the whole file would meet it first: it
    /// encodes column by column, each column in row order.
    fn note_unencodable(&mut self, index: usize, e: TableError) {
        let TableError::UnencodableValue { attribute, .. } = &e else {
            return;
        };
        let schema = self.meta.schema();
        let key = (
            schema.id_of(attribute).map_or(usize::MAX, |id| id.index()),
            index,
        );
        if self
            .unencodable
            .as_ref()
            .is_none_or(|(first, _)| key < *first)
        {
            self.unencodable = Some((key, e));
        }
    }

    /// Send the encoders to every live worker at once, each then encoding
    /// the range it parsed, and count the rows of any it loses here. A
    /// worker whose rows do not encode names its first such cell.
    fn setup_ranges(&mut self) -> Result<(), CountError> {
        let setup = DistRequest::Setup {
            schema: self.meta.schema().clone(),
            encoders: self.meta.encoders().to_vec(),
        };
        let attributes = self.meta.schema().len();
        let mut refused = Vec::new();
        self.broadcast(0, &setup, |index, response| match response {
            DistResponse::Ready => Ok(()),
            DistResponse::Unencodable { attribute, value } if (attribute as usize) < attributes => {
                refused.push((index, attribute as usize, value));
                Ok(())
            }
            other => Err(other),
        })?;
        for (index, attribute, value) in refused {
            let attribute = self.meta.schema().attributes()[attribute].name().to_owned();
            self.note_unencodable(index, TableError::UnencodableValue { attribute, value });
        }
        if self.unencodable.is_none() {
            for index in self.alive() {
                self.emit_joined(index);
            }
        }
        Ok(())
    }

    /// Report worker `index` loaded with its rows.
    fn emit_joined(&self, index: usize) {
        self.emit(TraceEvent::WorkerJoined {
            worker: index,
            addr: self.cluster.remotes[index].peer.clone(),
            rows: self.rows[index] as u64,
        });
    }

    /// Run `count` over the rows this process counts itself, if it counts
    /// any: the lost workers'.
    fn count_local(
        &self,
        mut count: impl FnMut(&mut InMemorySource<'_>) -> Result<(), CountError>,
    ) -> Result<(), CountError> {
        self.local.iter().try_for_each(|rows| {
            count(&mut InMemorySource::new(rows, &self.config).with_cancel(self.cancel))
        })
    }

    fn is_cancelled(&self) -> bool {
        self.cancel.is_some_and(CancelToken::is_cancelled)
    }

    /// Candidate batches whose encoded frames stay under the wire
    /// budget: byte size is `8 + 12·items` per candidate (the catalog
    /// itemset codec) plus the fixed request header fields.
    fn batches(candidates: &[Itemset]) -> Vec<(usize, usize)> {
        let mut batches = Vec::new();
        let mut start = 0;
        let mut bytes = 12usize; // pass + count prefix
        for (i, candidate) in candidates.iter().enumerate() {
            let size = 8 + 12 * candidate.items().len();
            if i > start && bytes + size > BATCH_BYTES.min(MAX_PAYLOAD as usize - 64) {
                batches.push((start, i));
                start = i;
                bytes = 12;
            }
            bytes += size;
        }
        if start < candidates.len() {
            batches.push((start, candidates.len()));
        }
        batches
    }

    /// Indices of workers still alive.
    fn alive(&self) -> Vec<usize> {
        (0..self.cluster.len())
            .filter(|&i| self.cluster.remotes[i].alive)
            .collect()
    }

    /// Send `request` — encoded once — to every live worker, then read
    /// each reply and hand it, with the worker's index, to `accept`, which
    /// merges it or hands it back as malformed. A worker whose send or read
    /// fails, or whose reply `accept` rejects, is lost. Returns how many
    /// workers merged.
    fn broadcast(
        &mut self,
        pass: usize,
        request: &DistRequest,
        mut accept: impl FnMut(usize, DistResponse) -> Result<(), DistResponse>,
    ) -> Result<usize, CountError> {
        let frame = request.to_frame().map_err(|e| {
            CountError::Failed(MinerError::Distributed(format!(
                "pass {pass}: cannot frame the request: {e}"
            )))
        })?;
        // Workers count their partitions concurrently while the
        // coordinator waits for the first reply.
        let mut sent = Vec::new();
        for index in self.alive() {
            match self.cluster.remotes[index].send_frame(&frame) {
                Ok(()) => sent.push(index),
                Err(detail) => self.lose(index, pass, detail)?,
            }
        }
        let mut merged = 0usize;
        for index in sent {
            let detail = match self.cluster.remotes[index].receive() {
                Ok(response) => match accept(index, response) {
                    Ok(()) => {
                        merged += 1;
                        continue;
                    }
                    Err(other) => format!("malformed reply ({})", describe(&other)),
                },
                Err(detail) => detail,
            };
            self.lose(index, pass, detail)?;
        }
        Ok(merged)
    }

    /// Count `hist`'s window of cells over every partition: one
    /// `CountPairs` to the live workers, their raw cells merged by
    /// addition, and each retired worker's rows scanned locally into the
    /// same window. Returns the raw cells, with the fewest workers any
    /// request merged folded into `workers`.
    fn count_pair_group(
        &mut self,
        pass: usize,
        mut hist: PairHistograms,
        workers: &mut usize,
    ) -> Result<PairHistograms, CountError> {
        if self.is_cancelled() {
            return Err(CountError::Cancelled);
        }
        let window = hist.window_range();
        let request = DistRequest::CountPairs {
            pass: pass as u32,
            pairs: hist.pairs().to_vec(),
            window: window.start as u64..window.end as u64,
        };
        let merged = self.broadcast(pass, &request, |_, response| match response {
            DistResponse::PairCounts { cells } if cells.len() == hist.cells().len() => {
                hist.merge_cells(&cells);
                Ok(())
            }
            other => Err(other),
        })?;
        *workers = (*workers).min(merged);
        self.count_local(|local| local.count_pair_cells(&mut hist))?;
        Ok(hist)
    }

    /// Report one counting call's merge as a `pass_merged` event
    /// (`workers` is `usize::MAX` when no request went out).
    fn emit_merged(&self, pass: usize, workers: usize, candidates: usize, started: Instant) {
        self.emit(TraceEvent::PassMerged {
            pass,
            workers: if workers == usize::MAX { 0 } else { workers },
            candidates,
            elapsed_us: micros(started.elapsed()),
        });
    }

    /// Count `candidates` as explicit lists: `CountCandidates` batches to
    /// the live workers, retired workers' rows recounted locally.
    fn count_explicit(
        &mut self,
        pass: usize,
        candidates: &[Itemset],
        workers: &mut usize,
    ) -> Result<Vec<u64>, CountError> {
        let mut result = vec![0u64; candidates.len()];
        for (batch_start, batch_end) in Self::batches(candidates) {
            if self.is_cancelled() {
                return Err(CountError::Cancelled);
            }
            let batch = &candidates[batch_start..batch_end];
            let request = DistRequest::CountCandidates {
                pass: pass as u32,
                candidates: batch.to_vec(),
            };
            let acc = &mut result[batch_start..batch_end];
            let merged = self.broadcast(pass, &request, |_, response| match response {
                DistResponse::Counts { counts } if counts.len() == acc.len() => {
                    for (a, b) in acc.iter_mut().zip(counts) {
                        *a += b;
                    }
                    Ok(())
                }
                other => Err(other),
            })?;
            *workers = (*workers).min(merged);
            self.count_local(|local| {
                let add = local.count(pass, batch)?;
                for (a, b) in result[batch_start..batch_end].iter_mut().zip(add) {
                    *a += b;
                }
                Ok(())
            })?;
        }
        Ok(result)
    }
}

impl CountSource for DistSource<'_> {
    fn meta(&self) -> &EncodedTable {
        &self.meta
    }

    fn num_rows(&self) -> u64 {
        self.meta.num_rows() as u64
    }

    /// Summed from the ranges' merged histograms: no request goes out.
    fn value_counts(&mut self) -> Result<Vec<Vec<u64>>, CountError> {
        Ok(histogram_value_counts(&self.meta, &self.histograms)?)
    }

    fn count(&mut self, pass: usize, candidates: &[Itemset]) -> Result<Vec<u64>, CountError> {
        let started = Instant::now();
        let mut workers = usize::MAX;
        let result = self.count_explicit(pass, candidates, &mut workers)?;
        self.emit_merged(pass, workers, candidates.len(), started);
        Ok(result)
    }

    /// Pairs travel as `CountPairs` requests of at most `FRAME_CELLS`
    /// cells, so every reply fits the batch budget: pairs are grouped up
    /// to one frame, and a pair larger than one frame is asked for one
    /// frame-sized window of its cells at a time.
    fn count_pair_cells(&mut self, hist: &mut PairHistograms) -> Result<(), CountError> {
        let started = Instant::now();
        let mut workers = usize::MAX;
        let cells: Vec<usize> = (0..hist.pairs().len())
            .map(|p| hist.pair_cells(p).len())
            .collect();
        let mut offset = 0;
        for group in cell_groups(&cells, FRAME_CELLS) {
            let pairs = hist.pairs()[group.clone()].to_vec();
            let size: usize = cells[group].iter().sum();
            for start in (0..size).step_by(FRAME_CELLS) {
                let window = start..start + FRAME_CELLS;
                let part = PairHistograms::window(&self.meta, pairs.clone(), window);
                let part = self.count_pair_group(2, part, &mut workers)?;
                hist.merge_cells_at(offset + start, part.cells());
            }
            offset += size;
        }
        self.emit_merged(2, workers, 0, started);
        Ok(())
    }
}

/// A terse response description for loss details (never the payload —
/// a malformed count vector could be megabytes).
fn describe(response: &DistResponse) -> &'static str {
    match response {
        DistResponse::Ready => "Ready",
        DistResponse::Unencodable { .. } => "Unencodable naming no attribute",
        DistResponse::Counts { .. } => "Counts of the wrong length",
        DistResponse::PairCounts { .. } => "PairCounts of the wrong length",
        DistResponse::RangeParsed { .. } => "RangeParsed not fitting the schema or the cut",
        DistResponse::RangeFailed { .. } => "RangeFailed",
        DistResponse::Bye => "Bye",
        DistResponse::Error { .. } => "Error",
    }
}

/// Have the cluster parse every range of `input`, in range order up to
/// the first range that did not parse. When that range holds a quote, the
/// ranges may start inside quoted fields: the file is cut again at record
/// ends and every range parsed again, its quoted fields read.
fn parse_ranges(
    cluster: &mut Cluster,
    input: &mut RangeInput,
    config: &MinerConfig,
    sink: Option<&dyn ProgressSink>,
    cancel: Option<&CancelToken>,
) -> Result<Vec<RangePart>, MinerError> {
    if let Some(parts) = parse_round(cluster, input, config, sink, cancel)? {
        return Ok(parts);
    }
    if let Err(e) = input.cut_records() {
        return Ok(vec![Err(e)]);
    }
    let parts = parse_round(cluster, input, config, sink, cancel)?;
    Ok(parts.expect("ranges cut at record ends are read whatever quotes they hold"))
}

/// Send every live worker its range of `input` at once, then read the
/// replies in range order up to the first range that did not parse. The
/// range of a worker lost before, or on the way unless the run's deadline
/// has passed by then, is parsed here. `None` when the first range that
/// did not parse holds a quote, once the later replies are read too.
fn parse_round(
    cluster: &mut Cluster,
    input: &RangeInput,
    config: &MinerConfig,
    sink: Option<&dyn ProgressSink>,
    cancel: Option<&CancelToken>,
) -> Result<Option<Vec<RangePart>>, MinerError> {
    let cancelled = || cancel.is_some_and(CancelToken::is_cancelled);
    let threads = config.effective_parallelism();
    // Nothing is sent to a worker lost in an earlier round.
    let sent: Vec<Result<(), String>> = (0..cluster.len())
        .map(|index| match &mut cluster.remotes[index] {
            remote if remote.alive => remote.send(&input.request(index, cancel)),
            _ => Err(String::new()),
        })
        .collect();
    let schema = &input.schema;
    let mut parts = Vec::with_capacity(sent.len());
    let mut sent = sent.into_iter().enumerate();
    while let Some((index, sent_to)) = sent.next() {
        let part = match sent_to.and_then(|()| cluster.remotes[index].receive()) {
            Ok(DistResponse::RangeParsed { quoted: true, .. }) if !input.records => None,
            Ok(DistResponse::RangeParsed {
                rows,
                lines,
                quoted: false,
                histograms,
            }) if fits(schema, &histograms) => Some(Ok(Parsed {
                rows: rows as usize,
                lines: lines as usize,
                histograms,
                read: None,
            })),
            Ok(DistResponse::RangeFailed {
                line,
                bad_number: true,
                text,
            }) => Some(Err(TableError::BadNumber {
                line: line as usize,
                token: text,
            })),
            Ok(DistResponse::RangeFailed { line, text, .. }) => Some(Err(TableError::Csv {
                line: line as usize,
                message: text,
            })),
            failed => {
                if cancelled() {
                    return Ok(Some(vec![Err(TableError::Cancelled)]));
                }
                if cluster.remotes[index].alive {
                    let detail = match failed {
                        Ok(other) => format!("malformed reply ({})", describe(&other)),
                        Err(detail) => detail,
                    };
                    cluster.lose(index, 0, detail, sink);
                }
                parse_here(input, index, threads, &cancelled)
            }
        };
        let Some(part) = part else {
            // Read the later replies before the ranges are sent again.
            for (index, sent_to) in sent {
                let reply = sent_to.and_then(|()| cluster.remotes[index].receive());
                if let (Err(detail), true) = (reply, cluster.remotes[index].alive) {
                    if cancelled() {
                        return Ok(Some(vec![Err(TableError::Cancelled)]));
                    }
                    cluster.lose(index, 0, detail, sink);
                }
            }
            return Ok(None);
        };
        let done = part.is_err();
        parts.push(part);
        if done {
            break;
        }
    }
    Ok(Some(parts))
}

/// Parse range `index` of `input` here, with its histograms; `None` when
/// it holds a quote it may not read.
fn parse_here(
    input: &RangeInput,
    index: usize,
    threads: usize,
    cancelled: &(dyn Fn() -> bool + Sync),
) -> Option<RangePart> {
    let read = match input.parse(index, threads, cancelled) {
        Ok(Some(read)) => read,
        Ok(None) => return None,
        Err(e) => return Some(Err(e)),
    };
    let histograms = read.table.histograms_threaded(threads, cancelled);
    Some(histograms.map(|histograms| Parsed {
        rows: read.table.num_rows(),
        lines: read.lines,
        histograms,
        read: Some(read),
    }))
}

/// True when `histograms` hold one histogram per attribute of `schema`,
/// each of its attribute's kind.
fn fits(schema: &Schema, histograms: &[Histogram]) -> bool {
    histograms.len() == schema.len()
        && schema.iter().zip(histograms).all(|((_, def), histogram)| {
            def.is_quantitative() == histogram.as_quantitative().is_some()
        })
}

/// Options of [`Cluster::start`] and [`DistSource::start_ranges`].
#[derive(Debug, Clone)]
pub struct DistOptions {
    /// Number of workers (≥ 1).
    pub workers: usize,
    /// How to start them.
    pub spawn: WorkerSpawn,
    /// Per-response read timeout (`None` waits forever).
    pub read_timeout: Option<Duration>,
}

impl Default for DistOptions {
    fn default() -> Self {
        DistOptions {
            workers: 2,
            spawn: WorkerSpawn::Threads(WorkerOptions::default()),
            read_timeout: Some(Duration::from_secs(120)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worker::Worker;
    use qar_core::pipeline::MiningOutput;
    use qar_core::source::{mine_source, mine_source_captured};
    use qar_core::Miner;
    use qar_store::dist::{read_request, tag, write_response};
    use qar_store::Catalog;
    use qar_table::{Schema, Table, Value};
    use std::sync::{Arc, Mutex};

    fn people_table() -> Table {
        let schema = Schema::builder()
            .quantitative("Age")
            .categorical("Married")
            .quantitative("NumCars")
            .build()
            .unwrap();
        let mut t = Table::new(schema);
        for (age, married, cars) in [
            (23, "No", 1),
            (25, "Yes", 1),
            (29, "No", 0),
            (34, "Yes", 2),
            (38, "Yes", 2),
            (41, "No", 1),
            (45, "Yes", 3),
            (52, "Yes", 2),
            (58, "No", 0),
            (63, "Yes", 2),
        ] {
            t.push_row(&[Value::Int(age), Value::from(married), Value::Int(cars)])
                .unwrap();
        }
        t
    }

    fn config() -> MinerConfig {
        MinerConfig {
            min_support: 0.2,
            min_confidence: 0.5,
            max_support: 1.0,
            partitioning: qar_core::PartitionSpec::FixedIntervals(3),
            interest: None,
            ..MinerConfig::default()
        }
    }

    fn encoded() -> EncodedTable {
        let table = people_table();
        let (encoders, _) = qar_core::pipeline::build_encoders(&table, &config()).unwrap();
        EncodedTable::encode(&table, encoders).unwrap()
    }

    fn threads_options(workers: usize) -> DistOptions {
        DistOptions {
            workers,
            spawn: WorkerSpawn::Threads(WorkerOptions::default()),
            read_timeout: Some(Duration::from_secs(30)),
        }
    }

    /// The people table written as CSV to a fresh temporary file, with
    /// `edit` applied to its text; the caller removes it.
    fn people_csv(label: &str, edit: impl Fn(String) -> String) -> PathBuf {
        let mut bytes = Vec::new();
        csv::write_table(&mut bytes, &people_table()).unwrap();
        let path = qar_table::chunk::default_spill_dir(label).with_extension("csv");
        std::fs::write(&path, edit(String::from_utf8(bytes).unwrap())).unwrap();
        path
    }

    /// The people table's text with its first `Yes` label quoted: the
    /// same table, in a file whose naive cuts do not all end records.
    fn quote_one(text: String) -> String {
        text.replacen("Yes", "\"Yes\"", 1)
    }

    fn range_input(path: &Path, workers: usize) -> RangeInput {
        let file = File::open(path).unwrap();
        RangeInput::new(file, path, people_table().schema(), workers).unwrap()
    }

    /// Mine the file at `path` over `workers` thread workers that parse
    /// their own ranges of it.
    fn mine_over_workers(path: &Path, config: &MinerConfig, workers: usize) -> MiningOutput {
        let input = range_input(path, workers);
        let options = threads_options(workers);
        let loaded = DistSource::start_ranges(input, None, config, &options, None, None);
        let (mut source, _) = loaded.unwrap().unwrap();
        mine_source(&mut *source, config, None, None).unwrap()
    }

    fn normalized_catalog_bytes(output: &MiningOutput) -> Vec<u8> {
        let mut stats = output.stats.normalized();
        // `mine_encoded` outputs carry no interval stats (partitioning
        // happened before encoding) — pad like the CLI does.
        if stats.intervals_per_attribute.is_empty() {
            stats.intervals_per_attribute = vec![None; output.encoded.schema().len()];
        }
        Catalog::new(
            output.encoded.schema().clone(),
            output.encoded.encoders().to_vec(),
            output.frequent.num_rows,
            output.rules.clone(),
            output.interest.clone(),
            stats,
        )
        .unwrap()
        .encode()
    }

    fn assert_identical(serial: &MiningOutput, dist: &MiningOutput) {
        assert_eq!(serial.frequent.levels, dist.frequent.levels);
        assert_eq!(serial.rules, dist.rules);
        assert_eq!(
            serial.stats.mine.candidates_per_pass,
            dist.stats.mine.candidates_per_pass
        );
        assert_eq!(
            normalized_catalog_bytes(serial),
            normalized_catalog_bytes(dist),
            "normalized .qarcat bytes must be identical"
        );
    }

    /// Over a plain and a quoted copy of the people table, the range load
    /// mines the serial result at every worker count, with empty ranges
    /// past the rows.
    #[test]
    fn distributed_matches_serial_across_worker_counts() {
        let enc = encoded();
        let serial = Miner::new(config()).mine_encoded(&enc).unwrap();
        for path in [people_csv("plain", |t| t), people_csv("quoted", quote_one)] {
            for workers in [1usize, 2, 3, 5] {
                let dist = mine_over_workers(&path, &config(), workers);
                assert_identical(&serial, &dist);
            }
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn distributed_capture_matches_serial_capture() {
        let enc = encoded();
        let mut serial_source = qar_core::InMemorySource::new(&enc, &config());
        let (serial, serial_counts) =
            mine_source_captured(&mut serial_source, &config(), None, None).unwrap();
        let path = people_csv("capture", |t| t);
        let input = range_input(&path, 3);
        let loaded =
            DistSource::start_ranges(input, None, &config(), &threads_options(3), None, None);
        let (mut source, _) = loaded.unwrap().unwrap();
        let (dist, dist_counts) =
            mine_source_captured(&mut *source, &config(), None, None).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_identical(&serial, &dist);
        assert_eq!(
            serial_counts, dist_counts,
            "captured raw tallies are bit-identical across topologies"
        );
    }

    #[test]
    fn more_workers_than_rows_still_exact() {
        let enc = encoded();
        let serial = Miner::new(config()).mine_encoded(&enc).unwrap();
        for path in [
            people_csv("many", |t| t),
            people_csv("many_quoted", quote_one),
        ] {
            let dist = mine_over_workers(&path, &config(), 16);
            let _ = std::fs::remove_file(&path);
            assert_identical(&serial, &dist);
        }
    }

    #[test]
    fn interest_annotations_survive_distribution() {
        let mut cfg = config();
        cfg.interest = Some(qar_core::InterestConfig {
            level: 1.1,
            mode: qar_core::InterestMode::SupportAndConfidence,
            prune_candidates: true,
        });
        let enc = encoded();
        let serial = Miner::new(cfg.clone()).mine_encoded(&enc).unwrap();
        let path = people_csv("interest", |t| t);
        let dist = mine_over_workers(&path, &cfg, 3);
        let _ = std::fs::remove_file(&path);
        assert_identical(&serial, &dist);
        let verdicts = |o: &MiningOutput| -> Vec<bool> {
            o.interest
                .as_ref()
                .unwrap()
                .iter()
                .map(|v| v.interesting)
                .collect()
        };
        assert_eq!(verdicts(&serial), verdicts(&dist));
    }

    /// The tags of the requests a worker received, in order.
    type Seen = Arc<Mutex<Vec<u32>>>;

    /// A real worker started with `opts` that notes every request's tag in
    /// `seen` and drops its connection on the first request `drops_at`
    /// picks, instead of answering it.
    fn spawn_flaky(
        addr: String,
        opts: WorkerOptions,
        drops_at: fn(&DistRequest) -> bool,
        seen: Seen,
    ) -> JoinHandle<()> {
        std::thread::spawn(move || {
            let mut stream = TcpStream::connect(&addr).unwrap();
            let mut worker = Worker::new(&opts);
            while let Ok(Some(request)) = read_request(&mut stream) {
                seen.lock().unwrap().push(request.tag());
                let shutdown = matches!(request, DistRequest::Shutdown);
                if drops_at(&request)
                    || write_response(&mut stream, &worker.respond(request)).is_err()
                    || shutdown
                {
                    return;
                }
            }
        })
    }

    /// A cluster of `workers` with deterministic indices, each started on
    /// `input` and noting the requests it gets: worker `flaky` drops its
    /// connection at the first one `drops_at` picks.
    fn flaky_cluster(
        workers: usize,
        flaky: usize,
        drops_at: fn(&DistRequest) -> bool,
        input: &Path,
    ) -> (Cluster, Vec<JoinHandle<()>>, Vec<Seen>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let opts = WorkerOptions {
            input: Some(input.to_path_buf()),
            ..WorkerOptions::default()
        };
        let (mut streams, mut threads, mut seen) = (Vec::new(), Vec::new(), Vec::new());
        for index in 0..workers {
            let drops: fn(&DistRequest) -> bool = if index == flaky { drops_at } else { |_| false };
            seen.push(Seen::default());
            let noted = Arc::clone(&seen[index]);
            threads.push(spawn_flaky(addr.clone(), opts.clone(), drops, noted));
            streams.push(listener.accept().unwrap().0);
        }
        let cluster = Cluster::from_streams(streams, Some(Duration::from_secs(10)));
        (cluster, threads, seen)
    }

    fn join(threads: Vec<JoinHandle<()>>) {
        for thread in threads {
            let _ = thread.join();
        }
    }

    fn at_pair_counts(request: &DistRequest) -> bool {
        matches!(request, DistRequest::CountPairs { .. })
    }

    fn at_parse_range(request: &DistRequest) -> bool {
        matches!(request, DistRequest::ParseRange { .. })
    }

    /// The worker-lost events of `sink`, as `(worker, pass)`.
    fn losses(sink: &qar_trace::CollectingSink) -> Vec<(usize, usize)> {
        sink.events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::WorkerLost { worker, pass, .. } => Some((*worker, *pass)),
                _ => None,
            })
            .collect()
    }

    /// Load `path` through `cluster`'s range parses and mine it.
    fn mine_ranges(
        cluster: Cluster,
        path: &Path,
        sink: &qar_trace::CollectingSink,
    ) -> Result<MiningOutput, MinerError> {
        let input = range_input(path, cluster.len());
        let loaded = DistSource::from_ranges(cluster, input, None, &config(), Some(sink), None)?;
        match loaded {
            Ok((mut source, _)) => mine_source(&mut *source, &config(), Some(sink), None),
            Err(e) => panic!("the people table failed to parse: {e}"),
        }
    }

    /// The parse rounds of a quote-free file are one, of a quoted file
    /// two: every worker gets one `ParseRange`, or two, then one `Setup`,
    /// and joins with its range's rows; no pass-1 request follows. The
    /// mine equals the serial one at every worker count, with empty
    /// ranges past the rows, and the coordinator parses no range.
    #[test]
    fn range_load_takes_one_parse_round_or_two_when_quoted() {
        let enc = encoded();
        let serial = Miner::new(config()).mine_encoded(&enc).unwrap();
        let plain = people_csv("rounds", |t| t);
        let quoted = people_csv("rounds_quoted", quote_one);
        for (path, rounds) in [(&plain, 1), (&quoted, 2)] {
            for workers in [1usize, 2, 3, 16] {
                let (cluster, threads, seen) = flaky_cluster(workers, 0, |_| false, path);
                let sink = qar_trace::CollectingSink::new();
                let dist = mine_ranges(cluster, path, &sink).unwrap();
                join(threads);
                assert_identical(&serial, &dist);
                for (worker, seen) in seen.iter().enumerate() {
                    let tags = seen.lock().unwrap().clone();
                    let mut want = vec![tag::REQ_PARSE_RANGE; rounds];
                    want.push(tag::REQ_SETUP);
                    let at = format!("{rounds} rounds, worker {worker} of {workers}: {tags:?}");
                    assert_eq!(tags[..=rounds], want, "{at}");
                    let parses = tags.iter().filter(|&&t| t == tag::REQ_PARSE_RANGE);
                    assert_eq!(parses.count(), rounds, "{at}");
                    // Pass 1 is summed from the ranges' histograms: after
                    // `Setup` come only pass ≥ 2 requests and the shutdown.
                    let counted = &tags[rounds + 1..];
                    assert!(counted.contains(&tag::REQ_COUNT_PAIRS), "{at}");
                    let later = [
                        tag::REQ_COUNT_PAIRS,
                        tag::REQ_COUNT_CANDIDATES,
                        tag::REQ_SHUTDOWN,
                    ];
                    assert!(counted.iter().all(|t| later.contains(t)), "{at}");
                }
                let joined: u64 = sink
                    .events()
                    .iter()
                    .filter_map(|e| match e {
                        TraceEvent::WorkerJoined { rows, .. } => Some(*rows),
                        _ => None,
                    })
                    .sum();
                assert_eq!(joined, 10, "{workers} workers");
                assert!(losses(&sink).is_empty());
            }
        }
        let _ = std::fs::remove_file(&plain);
        let _ = std::fs::remove_file(&quoted);
    }

    /// A worker lost at any request — its range, the encoders, or pass 2
    /// or 3 — has its range parsed again by the coordinator, from a
    /// plain file or a quoted one cut again at record ends; the mine
    /// equals the serial one byte for byte and reports exactly one loss.
    #[test]
    fn lost_worker_recovers_with_local_recount() {
        let enc = encoded();
        let serial = Miner::new(config()).mine_encoded(&enc).unwrap();
        let plain = people_csv("lost", |t| t);
        let quoted = people_csv("lost_quoted", quote_one);
        type Case = (&'static str, usize, fn(&DistRequest) -> bool, usize);
        let cases: [Case; 4] = [
            ("range", 2, at_parse_range, 0),
            ("setup", 3, |r| matches!(r, DistRequest::Setup { .. }), 0),
            ("pass 2", 2, at_pair_counts, 2),
            (
                "pass 3",
                3,
                |r| matches!(r, DistRequest::CountCandidates { .. }),
                3,
            ),
        ];
        for path in [&plain, &quoted] {
            for (name, workers, drops_at, pass) in cases {
                let (cluster, threads, _) = flaky_cluster(workers, 1, drops_at, path);
                let sink = qar_trace::CollectingSink::new();
                let dist = mine_ranges(cluster, path, &sink).unwrap();
                join(threads);
                assert_identical(&serial, &dist);
                assert_eq!(losses(&sink), [(1, pass)], "{name}: exactly one loss");
                let joined = sink
                    .events()
                    .iter()
                    .any(|e| matches!(e, TraceEvent::WorkerJoined { worker: 1, .. }));
                assert_eq!(
                    joined,
                    pass > 0,
                    "{name}: the flaky worker joins before it drops"
                );
            }
        }
        let _ = std::fs::remove_file(&plain);
        let _ = std::fs::remove_file(&quoted);
    }

    /// A worker lost once the run's deadline has passed ends the run in
    /// `Cancelled`, and its range is not parsed again: the worker cuts
    /// the file back to its header before it drops, which a parse would
    /// read as a changed row count.
    #[test]
    fn a_loss_after_the_deadline_is_cancelled_without_a_parse() {
        let path = people_csv("late_loss", |t| t);
        let deadline = CancelToken::with_deadline(Duration::from_secs(1));
        let header = "Age,Married,NumCars\n".len() as u64;
        // Worker 0 is a real worker; worker 1 holds its pass 2 until the
        // deadline has passed, then truncates the file and drops.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let opts = WorkerOptions {
            input: Some(path.clone()),
            ..WorkerOptions::default()
        };
        let steady = {
            let (addr, opts) = (addr.clone(), opts.clone());
            std::thread::spawn(move || {
                let _ = run_worker(&addr, &opts);
            })
        };
        let mut streams = vec![listener.accept().unwrap().0];
        let late = {
            let (token, path) = (deadline.clone(), path.clone());
            std::thread::spawn(move || {
                let mut stream = TcpStream::connect(&addr).unwrap();
                let mut worker = Worker::new(&opts);
                while let Ok(Some(request)) = read_request(&mut stream) {
                    if at_pair_counts(&request) {
                        while !token.deadline_exceeded() {
                            std::thread::sleep(Duration::from_millis(5));
                        }
                        let file = std::fs::OpenOptions::new().write(true).open(&path);
                        file.unwrap().set_len(header).unwrap();
                        return;
                    }
                    if write_response(&mut stream, &worker.respond(request)).is_err() {
                        return;
                    }
                }
            })
        };
        streams.push(listener.accept().unwrap().0);
        let cluster = Cluster::from_streams(streams, Some(Duration::from_secs(10)));
        let sink = qar_trace::CollectingSink::new();
        let input = range_input(&path, 2);
        let loaded = DistSource::from_ranges(
            cluster,
            input,
            None,
            &config(),
            Some(&sink),
            Some(&deadline),
        );
        let (mut source, _) = loaded.unwrap().unwrap();
        let result = mine_source(&mut *source, &config(), Some(&sink), Some(&deadline));
        drop(source);
        let _ = steady.join();
        let _ = late.join();
        let _ = std::fs::remove_file(&path);
        assert_eq!(losses(&sink), [(1, 2)], "the late worker is lost at pass 2");
        match result {
            Err(MinerError::Cancelled(info)) => assert!(info.deadline_exceeded),
            Err(other) => panic!("expected Cancelled, got {other}"),
            Ok(_) => panic!("expected Cancelled, got Ok"),
        }
    }

    /// A file that fails to parse ends the range load before any `Setup`
    /// with the serial reader's error, the first failing range's when two
    /// fail: bad numbers, in a plain file or after a quoted label, and a
    /// stray quote.
    #[test]
    fn failing_files_end_the_range_load() {
        let schema = people_table().schema().clone();
        let files = [
            people_csv("bad_last", |text| text.replace("63,", "6x3,")),
            people_csv("bad_both", |text| {
                text.replace("25,", "2x5,").replace("58,", "5x8,")
            }),
            people_csv("bad_quoted", |text| quote_one(text).replace("58,", "5x8,")),
            people_csv("stray", |text| text.replacen("29,", "2\"9,", 1)),
        ];
        for path in &files {
            let serial = csv::read_table(std::fs::read(path).unwrap().as_slice(), &schema);
            let serial = serial.map(|_| ()).unwrap_err();
            for workers in [2usize, 3] {
                let (cluster, threads, seen) = flaky_cluster(workers, 0, |_| false, path);
                let input = range_input(path, workers);
                let loaded = DistSource::from_ranges(cluster, input, None, &config(), None, None);
                join(threads);
                match loaded.unwrap() {
                    Err(e) => assert_eq!(e, serial, "{}", path.display()),
                    Ok(_) => panic!("{workers} workers: a bad file loaded"),
                }
                assert!(!seen[0].lock().unwrap().contains(&tag::REQ_SETUP));
            }
        }
        for path in files {
            let _ = std::fs::remove_file(path);
        }
    }

    /// Under given encoders that miss values in several attributes and
    /// ranges — a car count early in the file, the ages late in it — the
    /// load fails with the serial encode's error: the lowest failing
    /// attribute's first cell, also when a worker is lost at `Setup` and
    /// its range encoded here.
    #[test]
    fn given_encoders_fail_on_the_serial_encodes_first_cell() {
        let table = people_table();
        let mut base = Table::new(table.schema().clone());
        for (age, married, cars) in [
            (23, "No", 1),
            (25, "Yes", 1),
            (29, "No", 0),
            (34, "Yes", 0),
            (38, "Yes", 1),
        ] {
            base.push_row(&[Value::Int(age), Value::from(married), Value::Int(cars)])
                .unwrap();
        }
        let cfg = MinerConfig {
            partitioning: qar_core::PartitionSpec::None,
            ..config()
        };
        let (encoders, _) = qar_core::pipeline::build_encoders(&base, &cfg).unwrap();
        let serial = EncodedTable::encode(&table, encoders.clone()).unwrap_err();
        let first = TableError::UnencodableValue {
            attribute: "Age".to_string(),
            value: "41".to_string(),
        };
        assert_eq!(serial, first);
        let path = people_csv("unencodable", |t| t);
        let no_drop: fn(&DistRequest) -> bool = |_| false;
        let at_setup: fn(&DistRequest) -> bool = |r| matches!(r, DistRequest::Setup { .. });
        for (workers, drops_at) in [(2, no_drop), (3, no_drop), (3, at_setup), (4, at_setup)] {
            let (cluster, threads, _) = flaky_cluster(workers, 1, drops_at, &path);
            let input = range_input(&path, workers);
            let loaded =
                DistSource::from_ranges(cluster, input, Some(encoders.clone()), &cfg, None, None);
            join(threads);
            match loaded.unwrap() {
                Err(e) => assert_eq!(e, serial, "{workers} workers"),
                Ok(_) => panic!("{workers} workers: an unencodable file loaded"),
            }
        }
        let _ = std::fs::remove_file(&path);
    }

    /// On random tables — repeated integers, fractions beside `-0.0`,
    /// skewed labels and a taxonomy column — with no partitioning and
    /// under several K, the range load over thread workers finds the
    /// in-memory miner's Step 3; each sums pass 1 from its histograms.
    #[test]
    fn random_tables_mine_alike_in_memory_and_over_ranges() {
        use std::fmt::Write;
        let schema = Schema::builder()
            .quantitative("n")
            .quantitative("x")
            .categorical("c")
            .categorical("t")
            .build()
            .unwrap();
        let edges = [("NY", "East"), ("LA", "West"), ("SF", "West")];
        let taxonomy = qar_table::Taxonomy::from_edges(&edges).unwrap();
        let step3 = |mined: Result<MiningOutput, MinerError>| {
            mined
                .map(|out| {
                    (
                        out.frequent.levels.clone(),
                        out.stats.mine.candidates_per_pass,
                    )
                })
                .map_err(|e| e.to_string())
        };
        qar_prng::cases(12, 0x5EED_0035_D157, |case, rng| {
            let distinct = rng.gen_range(1..10i64);
            let mut text = String::from("n,x,c,t\n");
            for _ in 0..rng.gen_range(1..120usize) {
                let n = rng.gen_range(0..distinct) * 5;
                let x = match rng.gen_range(0..3u32) {
                    0 => "-0.0".to_string(),
                    _ => (rng.gen_range(-8..8i64) as f64 / 4.0).to_string(),
                };
                let c = if rng.gen_bool(0.7) { "a" } else { "b" };
                let t = edges[rng.gen_range(0..3usize)].0;
                writeln!(text, "{n},{x},{c},{t}").unwrap();
            }
            let table = csv::read_table(text.as_bytes(), &schema).unwrap();
            let path = qar_table::chunk::default_spill_dir("random_ranges").with_extension("csv");
            std::fs::write(&path, &text).unwrap();
            let workers = rng.gen_range(1..4usize);
            for partitioning in [
                qar_core::PartitionSpec::None,
                qar_core::PartitionSpec::CompletenessLevel(1.5),
                qar_core::PartitionSpec::CompletenessLevel(3.0),
            ] {
                let at = format!("case {case}, {workers} workers, {partitioning:?}");
                let cfg = MinerConfig {
                    min_support: 0.1,
                    max_support: 0.6,
                    max_itemset_size: 3,
                    partitioning,
                    taxonomies: [("t".to_string(), taxonomy.clone())].into(),
                    ..config()
                };
                let in_memory = step3(Miner::new(cfg.clone()).mine(&table));
                let input = RangeInput::new(File::open(&path).unwrap(), &path, &schema, workers);
                let options = threads_options(workers);
                let loaded =
                    DistSource::start_ranges(input.unwrap(), None, &cfg, &options, None, None);
                let (mut source, _) = loaded.unwrap().unwrap();
                let ranged = step3(mine_source(&mut *source, &cfg, None, None));
                assert_eq!(ranged, in_memory, "{at}");
            }
            let _ = std::fs::remove_file(&path);
        });
    }
}

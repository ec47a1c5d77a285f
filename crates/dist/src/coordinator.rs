//! The coordinator side of count-distribution mining.
//!
//! [`Cluster`] owns the worker pool: it binds a loopback listener,
//! spawns workers (child processes running `qar worker --connect ADDR`,
//! or in-process threads for tests and the differential oracle), and
//! accepts their connections. [`DistSource`] then implements
//! [`CountSource`] over the pool and answers every counting request by
//! broadcasting it and merging the raw per-worker tallies with
//! element-wise `u64` addition. The workers get their rows one of two
//! ways:
//!
//! * from rows the coordinator holds ([`DistSource::start`]): it
//!   partitions them contiguously across the workers and streams each
//!   partition out as bounded row blocks, one worker after the other;
//! * from a CSV file ([`DistSource::start_ranges`]): every worker is
//!   started on the file, parses its own byte range of it and replies
//!   with the range's value histograms. The coordinator merges them,
//!   builds the encoders from them as the serial run does (Steps 1–2),
//!   and sends them out, and each worker encodes its own rows. The
//!   coordinator parses, encodes and ships no rows. A range holding a
//!   `"` byte ends this load: the caller reads the file itself.
//!
//! Pass 2 travels as attribute pairs: workers return [`PairHistograms`]
//! cells, which merge by addition into the histograms the driver reads
//! its frequent pairs from.
//!
//! Partial failure: a worker that times out, drops its connection, or
//! answers out of protocol is declared **lost** (one `worker_lost` trace
//! event, [`MinerError::WorkerLost`] under
//! [`DistOptions::fail_fast`]). By default the coordinator recovers by
//! counting the lost partition itself from then on: a range of the rows
//! it holds, or the lost worker's byte range of the file, parsed again
//! (and encoded once the encoders exist). The merged counts, and
//! therefore the mined rules, are unchanged.

use qar_core::pipeline::build_encoders_from_histograms;
use qar_core::source::{Backing, CountError, CountSource, InMemorySource};
use qar_core::supercand::{cell_groups, PairHistograms};
use qar_core::{MinerConfig, MinerError};
use qar_itemset::Itemset;
use qar_store::dist::{read_response, write_request, DistRequest, DistResponse};
use qar_store::protocol::MAX_PAYLOAD;
use qar_table::csv::{self, RangeRead};
use qar_table::{EncodedTable, Histogram, Schema, TableError};
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

/// Row blocks and candidate batches are kept under this wire size —
/// comfortably below the protocol's 16 MiB frame ceiling, and small
/// enough that per-batch count responses never strain socket buffers.
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
    /// `worker_lost` event, then under `fail_fast` the run's
    /// [`MinerError::WorkerLost`].
    fn lose(
        &mut self,
        index: usize,
        pass: usize,
        detail: String,
        sink: Option<&dyn ProgressSink>,
        fail_fast: bool,
    ) -> Result<(), MinerError> {
        self.remotes[index].alive = false;
        if let Some(sink) = sink {
            sink.on_event(&TraceEvent::WorkerLost {
                worker: index,
                pass,
                detail: detail.clone(),
            });
        }
        if fail_fast {
            return Err(MinerError::WorkerLost {
                worker: index,
                pass,
                detail,
            });
        }
        Ok(())
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

/// A CSV file cut into one byte range per worker, for workers that parse
/// their own part of it ([`DistSource::start_ranges`]).
pub struct RangeInput {
    file: File,
    path: PathBuf,
    schema: Schema,
    header_lines: usize,
    ranges: Vec<Range<u64>>,
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
        })
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
        csv::read_range(&self.file, &self.schema, range, threads, cancelled)
    }
}

/// How [`DistSource::start_ranges`] ended.
pub enum RangeLoad<'a> {
    /// Every range parsed: the workers hold the rows, encoded.
    Loaded {
        /// The source counting over the workers.
        source: Box<DistSource<'a>>,
        /// The intervals Steps 1–2 chose per attribute (`None` for
        /// categorical or unpartitioned attributes).
        intervals: Vec<Option<usize>>,
    },
    /// A range held a `"` byte, so the ranges may not be units of the
    /// file. The workers are gone; the caller reads the file itself.
    Quoted,
    /// The file failed to parse: the serial reader's error for it (the
    /// first failing range's, its line counted from the file's start), or
    /// [`TableError::Cancelled`] once the run's deadline passed.
    Failed(TableError),
}

/// One range as the load met it, in range order.
enum RangePart {
    /// Parsed: its rows, lines and histograms, and its table when the
    /// coordinator parsed it itself.
    Parsed {
        rows: usize,
        lines: usize,
        histograms: Vec<Histogram>,
        read: Option<RangeRead>,
    },
    Quoted,
    Failed(TableError),
}

/// The distributed [`CountSource`]: a worker pool plus what the
/// coordinator needs to count a lost worker's rows itself.
pub struct DistSource<'a> {
    cluster: Cluster,
    meta: EncodedTable,
    /// Per-worker contiguous row ranges, cluster order.
    ranges: Vec<Range<usize>>,
    /// The lost workers' rows, counted by the coordinator itself.
    local: Local<'a>,
    config: MinerConfig,
    sink: Option<&'a dyn ProgressSink>,
    cancel: Option<&'a CancelToken>,
    fail_fast: bool,
}

/// Where the coordinator finds the rows of the workers it lost.
enum Local<'a> {
    /// In the rows it holds and streamed out: the lost workers' ranges.
    Held {
        backing: Backing<'a>,
        retired: Vec<Range<usize>>,
    },
    /// In the file the workers parsed: a lost worker's byte range is
    /// parsed again, and its encoded rows kept in `rows`.
    Reparsed {
        input: RangeInput,
        rows: Vec<EncodedTable>,
    },
}

impl<'a> DistSource<'a> {
    /// Start a cluster of `options.workers` workers and load `backing`
    /// into it — the source `qar mine --workers N` counts through when
    /// it holds the rows. The cluster shuts down when the source is
    /// dropped.
    pub fn start(
        backing: Backing<'a>,
        config: &MinerConfig,
        options: &DistOptions,
        sink: Option<&'a dyn ProgressSink>,
        cancel: Option<&'a CancelToken>,
    ) -> Result<DistSource<'a>, MinerError> {
        let cluster = Cluster::start(options)?;
        DistSource::new(cluster, backing, config, sink, cancel, options.fail_fast)
    }

    /// Partition `backing` across the cluster's workers and stream every
    /// partition out. Emits one `worker_joined` event per loaded worker.
    pub fn new(
        cluster: Cluster,
        backing: Backing<'a>,
        config: &MinerConfig,
        sink: Option<&'a dyn ProgressSink>,
        cancel: Option<&'a CancelToken>,
        fail_fast: bool,
    ) -> Result<DistSource<'a>, MinerError> {
        let num_rows = backing.num_rows();
        let workers = cluster.len();
        let base = num_rows / workers.max(1);
        let extra = num_rows % workers.max(1);
        let mut ranges = Vec::with_capacity(workers);
        let mut offset = 0;
        for worker in 0..workers {
            let len = base + usize::from(worker < extra);
            ranges.push(offset..offset + len);
            offset += len;
        }
        let meta = match backing {
            Backing::Memory(table) => EncodedTable::header_only(
                table.schema().clone(),
                table.encoders().to_vec(),
                num_rows,
            ),
            Backing::Chunks(store) => store.header(),
        };
        let mut source = DistSource {
            cluster,
            meta,
            ranges,
            local: Local::Held {
                backing,
                retired: Vec::new(),
            },
            config: config.clone(),
            sink,
            cancel,
            fail_fast,
        };
        source.load(backing)?;
        Ok(source)
    }

    /// Start a cluster of `options.workers` workers on `input`'s file
    /// (each given it at start, never over the wire) and have each parse
    /// and encode its own range of it — the load `qar mine --workers N
    /// --input FILE` takes for a regular file. `input` must be cut into
    /// one range per worker.
    pub fn start_ranges(
        input: RangeInput,
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
        DistSource::from_ranges(cluster, input, config, sink, cancel, options.fail_fast)
    }

    /// Have the cluster's workers, started on `input`'s file, parse one
    /// range each; merge their histograms in range order into the
    /// encoders; and send them the encoders, on which each encodes its own
    /// rows. A worker lost before it is loaded has its range parsed here
    /// instead. Emits one `worker_joined` event per loaded worker, once
    /// every worker is.
    pub fn from_ranges(
        mut cluster: Cluster,
        input: RangeInput,
        config: &MinerConfig,
        sink: Option<&'a dyn ProgressSink>,
        cancel: Option<&'a CancelToken>,
        fail_fast: bool,
    ) -> Result<RangeLoad<'a>, MinerError> {
        if cluster.len() != input.ranges.len() {
            return Err(MinerError::Distributed(format!(
                "{} workers for an input cut into {} ranges",
                cluster.len(),
                input.ranges.len()
            )));
        }
        let parsed = match parse_ranges(&mut cluster, &input, config, sink, cancel, fail_fast) {
            Ok(parsed) => parsed,
            Err(e) => {
                cluster.abandon();
                return Err(e);
            }
        };
        // The first range that did not parse decides, its errors' lines
        // counted after the header's and the earlier ranges'.
        let mut lines = input.header_lines;
        let mut ranges: Vec<Range<usize>> = Vec::with_capacity(parsed.len());
        let mut merged: Option<Vec<Histogram>> = None;
        let mut reads = Vec::new();
        for part in parsed {
            let (rows, histograms) = match part {
                RangePart::Parsed {
                    rows,
                    lines: more,
                    histograms,
                    read,
                } => {
                    lines += more;
                    reads.extend(read);
                    (rows, histograms)
                }
                RangePart::Quoted => {
                    cluster.abandon();
                    return Ok(RangeLoad::Quoted);
                }
                RangePart::Failed(e) => {
                    cluster.abandon();
                    return Ok(RangeLoad::Failed(e.after_lines(lines)));
                }
            };
            let start = ranges.last().map_or(0, |r| r.end);
            ranges.push(start..start + rows);
            match &mut merged {
                None => merged = Some(histograms),
                Some(merged) => {
                    for (merged, part) in merged.iter_mut().zip(histograms) {
                        merged.merge(part);
                    }
                }
            }
        }
        let merged = merged.expect("a cluster has at least one worker");
        let (encoders, intervals) = build_encoders_from_histograms(&input.schema, &merged, config)?;
        let num_rows = ranges.last().map_or(0, |r| r.end);
        let meta = EncodedTable::header_only(input.schema.clone(), encoders, num_rows);
        let mut source = DistSource {
            cluster,
            meta,
            ranges,
            local: Local::Reparsed {
                input,
                rows: Vec::new(),
            },
            config: config.clone(),
            sink,
            cancel,
            fail_fast,
        };
        for read in reads {
            source.keep_local(read)?;
        }
        source.setup_ranges()?;
        Ok(RangeLoad::Loaded {
            source: Box::new(source),
            intervals,
        })
    }

    fn emit(&self, event: TraceEvent) {
        if let Some(sink) = self.sink {
            sink.on_event(&event);
        }
    }

    /// Declare worker `index` lost during `pass` (0 = the load phase).
    /// Under `fail_fast` the loss becomes the run's error; otherwise the
    /// worker is retired and its rows counted here from then on.
    fn lose(&mut self, index: usize, pass: usize, detail: String) -> Result<(), MinerError> {
        self.cluster
            .lose(index, pass, detail, self.sink, self.fail_fast)?;
        match &mut self.local {
            Local::Held { retired, .. } => retired.push(self.ranges[index].clone()),
            Local::Reparsed { input, .. } => {
                let threads = self.config.effective_parallelism();
                let again = |detail: String| {
                    MinerError::Distributed(format!(
                        "worker {index}'s range of `{}` cannot be read again: {detail}",
                        input.path.display()
                    ))
                };
                let read = match input.parse(index, threads, &|| false) {
                    Ok(Some(read)) if read.table.num_rows() == self.ranges[index].len() => read,
                    Ok(Some(_)) => return Err(again("its row count changed".to_string())),
                    Ok(None) => return Err(again("it now holds a quote".to_string())),
                    Err(e) => return Err(again(e.to_string())),
                };
                self.keep_local(read)?;
            }
        }
        Ok(())
    }

    /// Encode `read`, a range parsed here, and add it to the rows this
    /// process counts.
    fn keep_local(&mut self, read: RangeRead) -> Result<(), MinerError> {
        let threads = self.config.effective_parallelism();
        let encoders = self.meta.encoders().to_vec();
        let encoded = EncodedTable::encode_threaded(read.table, encoders, threads, &|| false)?;
        if let Local::Reparsed { rows, .. } = &mut self.local {
            rows.push(encoded);
        }
        Ok(())
    }

    /// Send the encoders to every live worker at once, each then encoding
    /// the range it parsed, and count the rows of any it loses here.
    fn setup_ranges(&mut self) -> Result<(), MinerError> {
        let setup = DistRequest::Setup {
            schema: self.meta.schema().clone(),
            encoders: self.meta.encoders().to_vec(),
        };
        // A broadcast fails only where a loss does; it is never cancelled.
        let ready = self.broadcast(0, &setup, |response| match response {
            DistResponse::Ready => Ok(()),
            other => Err(other),
        });
        if let Err(CountError::Failed(e)) = ready {
            return Err(e);
        }
        for index in self.alive() {
            self.emit_joined(index);
        }
        Ok(())
    }

    /// Report worker `index` loaded with its rows.
    fn emit_joined(&self, index: usize) {
        self.emit(TraceEvent::WorkerJoined {
            worker: index,
            addr: self.cluster.remotes[index].peer.clone(),
            rows: self.ranges[index].len() as u64,
        });
    }

    /// Setup + stream each worker its partition of `backing`.
    fn load(&mut self, backing: Backing<'_>) -> Result<(), MinerError> {
        let block_rows = (BATCH_BYTES / (4 * self.meta.schema().len().max(1))).max(1);
        for index in 0..self.cluster.len() {
            let rows = self.ranges[index].clone();
            match self.load_worker(index, backing, rows, block_rows) {
                Ok(()) => self.emit_joined(index),
                Err(detail) => self.lose(index, 0, detail)?,
            }
        }
        Ok(())
    }

    fn load_worker(
        &mut self,
        index: usize,
        backing: Backing<'_>,
        rows: Range<usize>,
        block_rows: usize,
    ) -> Result<(), String> {
        let setup = DistRequest::Setup {
            schema: self.meta.schema().clone(),
            encoders: self.meta.encoders().to_vec(),
        };
        match self.cluster.remotes[index].request(&setup)? {
            DistResponse::Ready => {}
            other => return Err(format!("expected Ready, got {}", describe(&other))),
        }
        let mut loaded = 0u64;
        let remote = &mut self.cluster.remotes[index];
        let mut stream_error: Option<String> = None;
        let walk = backing.for_each_block(rows.clone(), block_rows, &mut |block| {
            let columns = block.into_owned().into_columns();
            match remote.request(&DistRequest::Rows { columns }) {
                Ok(DistResponse::RowsLoaded { total_rows }) => {
                    loaded = total_rows;
                    Ok(())
                }
                Ok(other) => {
                    stream_error = Some(format!("expected RowsLoaded, got {}", describe(&other)));
                    Err(CountError::Cancelled) // any error stops the walk
                }
                Err(detail) => {
                    stream_error = Some(detail);
                    Err(CountError::Cancelled)
                }
            }
        });
        if let Some(detail) = stream_error {
            return Err(detail);
        }
        if let Err(CountError::Failed(e)) = walk {
            return Err(format!("reading backing rows: {e}"));
        }
        if loaded != rows.len() as u64 {
            return Err(format!(
                "worker reports {loaded} rows loaded, expected {}",
                rows.len()
            ));
        }
        Ok(())
    }

    /// Run `count` over the rows this process counts itself, if it counts
    /// any: the lost workers'.
    fn count_local(
        &self,
        mut count: impl FnMut(&mut InMemorySource<'_>) -> Result<(), CountError>,
    ) -> Result<(), CountError> {
        let local = |rows| InMemorySource::new(rows, &self.config).with_cancel(self.cancel);
        match &self.local {
            Local::Held { retired, .. } if retired.is_empty() => Ok(()),
            Local::Held { backing, retired } => {
                let mut source = local(*backing);
                source.restrict(retired.clone());
                count(&mut source)
            }
            Local::Reparsed { rows, .. } => rows
                .iter()
                .try_for_each(|rows| count(&mut local(Backing::Memory(rows)))),
        }
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
    /// each reply and hand it to `accept`, which merges it or hands it
    /// back as malformed. A worker whose send or read fails, or whose
    /// reply `accept` rejects, is lost. Returns how many workers merged.
    fn broadcast(
        &mut self,
        pass: usize,
        request: &DistRequest,
        mut accept: impl FnMut(DistResponse) -> Result<(), DistResponse>,
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
                Ok(response) => match accept(response) {
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
        let merged = self.broadcast(pass, &request, |response| match response {
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
            let merged = self.broadcast(pass, &request, |response| match response {
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

    fn value_counts(&mut self) -> Result<Vec<Vec<u64>>, CountError> {
        if self.is_cancelled() {
            return Err(CountError::Cancelled);
        }
        let started = Instant::now();
        let mut merged: Vec<Vec<u64>> = self
            .meta
            .schema()
            .iter()
            .map(|(id, _)| vec![0u64; self.meta.cardinality(id) as usize])
            .collect();
        let merged_workers =
            self.broadcast(1, &DistRequest::CountItems, |response| match response {
                DistResponse::ItemCounts { counts }
                    if counts.len() == merged.len()
                        && counts
                            .iter()
                            .zip(&merged)
                            .all(|(got, want)| got.len() == want.len()) =>
                {
                    for (acc, add) in merged.iter_mut().zip(&counts) {
                        for (a, b) in acc.iter_mut().zip(add) {
                            *a += b;
                        }
                    }
                    Ok(())
                }
                other => Err(other),
            })?;
        self.count_local(|local| {
            for (acc, add) in merged.iter_mut().zip(local.value_counts()?) {
                for (a, b) in acc.iter_mut().zip(add) {
                    *a += b;
                }
            }
            Ok(())
        })?;
        self.emit_merged(1, merged_workers, 0, started);
        Ok(merged)
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
        DistResponse::RowsLoaded { .. } => "RowsLoaded",
        DistResponse::ItemCounts { .. } => "ItemCounts of the wrong shape",
        DistResponse::Counts { .. } => "Counts of the wrong length",
        DistResponse::PairCounts { .. } => "PairCounts of the wrong length",
        DistResponse::RangeParsed { .. } => "RangeParsed not fitting the schema",
        DistResponse::RangeFailed { .. } => "RangeFailed",
        DistResponse::Bye => "Bye",
        DistResponse::Error { .. } => "Error",
    }
}

/// Send every worker its range of `input` at once, then read the replies
/// in range order up to the first range that did not parse. A worker
/// lost on the way has its range parsed here, unless the run's deadline
/// has passed by then.
fn parse_ranges(
    cluster: &mut Cluster,
    input: &RangeInput,
    config: &MinerConfig,
    sink: Option<&dyn ProgressSink>,
    cancel: Option<&CancelToken>,
    fail_fast: bool,
) -> Result<Vec<RangePart>, MinerError> {
    let cancelled = || cancel.is_some_and(CancelToken::is_cancelled);
    let threads = config.effective_parallelism();
    let sent: Vec<Result<(), String>> = (0..cluster.len())
        .map(|index| cluster.remotes[index].send(&input.request(index, cancel)))
        .collect();
    let schema = &input.schema;
    let mut parts = Vec::with_capacity(sent.len());
    for (index, sent) in sent.into_iter().enumerate() {
        let reply = sent.and_then(|()| cluster.remotes[index].receive());
        let part = match reply {
            Ok(DistResponse::RangeParsed { quoted: true, .. }) => RangePart::Quoted,
            Ok(DistResponse::RangeParsed {
                rows,
                lines,
                histograms,
                ..
            }) if fits(schema, &histograms) => RangePart::Parsed {
                rows: rows as usize,
                lines: lines as usize,
                histograms,
                read: None,
            },
            Ok(DistResponse::RangeFailed {
                line,
                bad_number: true,
                text,
            }) => RangePart::Failed(TableError::BadNumber {
                line: line as usize,
                token: text,
            }),
            Ok(DistResponse::RangeFailed { line, text, .. }) => {
                RangePart::Failed(TableError::Csv {
                    line: line as usize,
                    message: text,
                })
            }
            failed => {
                if cancelled() {
                    return Ok(vec![RangePart::Failed(TableError::Cancelled)]);
                }
                let detail = match failed {
                    Ok(other) => format!("malformed reply ({})", describe(&other)),
                    Err(detail) => detail,
                };
                cluster.lose(index, 0, detail, sink, fail_fast)?;
                parse_here(input, index, threads, &cancelled)
            }
        };
        let done = !matches!(part, RangePart::Parsed { .. });
        parts.push(part);
        if done {
            break;
        }
    }
    Ok(parts)
}

/// Parse range `index` of `input` here, with its histograms.
fn parse_here(
    input: &RangeInput,
    index: usize,
    threads: usize,
    cancelled: &(dyn Fn() -> bool + Sync),
) -> RangePart {
    let read = match input.parse(index, threads, cancelled) {
        Ok(Some(read)) => read,
        Ok(None) => return RangePart::Quoted,
        Err(e) => return RangePart::Failed(e),
    };
    match read.table.histograms_threaded(threads, cancelled) {
        Ok(histograms) => RangePart::Parsed {
            rows: read.table.num_rows(),
            lines: read.lines,
            histograms,
            read: Some(read),
        },
        Err(e) => RangePart::Failed(e),
    }
}

/// True when `histograms` hold one histogram per attribute of `schema`,
/// each of its attribute's kind.
fn fits(schema: &Schema, histograms: &[Histogram]) -> bool {
    histograms.len() == schema.len()
        && schema.iter().zip(histograms).all(|((_, def), histogram)| {
            def.is_quantitative() == histogram.as_quantitative().is_some()
        })
}

/// Options of [`Cluster::start`] and [`DistSource::start`].
#[derive(Debug, Clone)]
pub struct DistOptions {
    /// Number of workers (≥ 1).
    pub workers: usize,
    /// How to start them.
    pub spawn: WorkerSpawn,
    /// Per-response read timeout (`None` waits forever).
    pub read_timeout: Option<Duration>,
    /// Surface a lost worker as [`MinerError::WorkerLost`] instead of
    /// recovering by local recount.
    pub fail_fast: bool,
}

impl Default for DistOptions {
    fn default() -> Self {
        DistOptions {
            workers: 2,
            spawn: WorkerSpawn::Threads(WorkerOptions::default()),
            read_timeout: Some(Duration::from_secs(120)),
            fail_fast: false,
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
    use qar_table::{ChunkStore, Schema, Table, Value};
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
            fail_fast: false,
        }
    }

    fn mine_over_workers(
        backing: Backing<'_>,
        config: &MinerConfig,
        workers: usize,
    ) -> MiningOutput {
        let mut source =
            DistSource::start(backing, config, &threads_options(workers), None, None).unwrap();
        mine_source(&mut source, config, None, None).unwrap()
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

    #[test]
    fn distributed_matches_serial_across_worker_counts() {
        let enc = encoded();
        let serial = Miner::new(config()).mine_encoded(&enc).unwrap();
        for workers in [1usize, 2, 3, 5] {
            let dist = mine_over_workers(Backing::Memory(&enc), &config(), workers);
            assert_identical(&serial, &dist);
        }
    }

    #[test]
    fn distributed_capture_matches_serial_capture() {
        let enc = encoded();
        let mut serial_source = qar_core::InMemorySource::new(&enc, &config());
        let (serial, serial_counts) =
            mine_source_captured(&mut serial_source, &config(), None, None).unwrap();
        let mut source = DistSource::start(
            Backing::Memory(&enc),
            &config(),
            &threads_options(3),
            None,
            None,
        )
        .unwrap();
        let (dist, dist_counts) = mine_source_captured(&mut source, &config(), None, None).unwrap();
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
        let dist = mine_over_workers(Backing::Memory(&enc), &config(), 16);
        assert_identical(&serial, &dist);
    }

    /// The people table spilled in chunks of `chunk_rows` rows.
    fn chunk_store(enc: &EncodedTable, chunk_rows: usize) -> ChunkStore {
        let dir = qar_table::chunk::default_spill_dir("dist_chunks");
        let mut store =
            ChunkStore::create(&dir, enc.schema().clone(), enc.encoders().to_vec()).unwrap();
        let table = people_table();
        let mut i = 0;
        while i < table.num_rows() {
            let end = (i + chunk_rows).min(table.num_rows());
            let mut part = Table::new(table.schema().clone());
            for r in i..end {
                part.push_row(&table.row(r).to_values()).unwrap();
            }
            store.append_chunk(&part).unwrap();
            i = end;
        }
        store
    }

    #[test]
    fn distributed_over_chunks_matches_serial() {
        let enc = encoded();
        let serial = Miner::new(config()).mine_encoded(&enc).unwrap();
        let store = chunk_store(&enc, 3);
        let dist = mine_over_workers(Backing::Chunks(&store), &config(), 2);
        assert_identical(&serial, &dist);
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
        let dist = mine_over_workers(Backing::Memory(&enc), &cfg, 3);
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
    /// `input`: worker `flaky` notes the requests it gets and drops its
    /// connection at the first one `drops_at` picks, the others are real
    /// workers.
    fn flaky_cluster(
        workers: usize,
        flaky: usize,
        drops_at: fn(&DistRequest) -> bool,
        input: Option<&Path>,
    ) -> (Cluster, Vec<JoinHandle<()>>, Seen) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let opts = WorkerOptions {
            input: input.map(Path::to_path_buf),
            ..WorkerOptions::default()
        };
        let seen = Seen::default();
        let (mut streams, mut threads) = (Vec::new(), Vec::new());
        for index in 0..workers {
            let (addr, opts) = (addr.clone(), opts.clone());
            threads.push(if index == flaky {
                spawn_flaky(addr, opts, drops_at, Arc::clone(&seen))
            } else {
                std::thread::spawn(move || {
                    let _ = run_worker(&addr, &opts);
                })
            });
            streams.push(listener.accept().unwrap().0);
        }
        let cluster = Cluster::from_streams(streams, Some(Duration::from_secs(10)));
        (cluster, threads, seen)
    }

    fn at_pair_counts(request: &DistRequest) -> bool {
        matches!(request, DistRequest::CountPairs { .. })
    }

    /// A worker lost at any request — mid-load, or at pass 1, 2 or 3 —
    /// is recounted locally from the coordinator's rows, in memory or in
    /// chunks whose boundaries the lost range starts and ends inside, and
    /// the mine equals the serial one byte for byte.
    #[test]
    fn lost_worker_recovers_with_local_recount() {
        let enc = encoded();
        let serial = Miner::new(config()).mine_encoded(&enc).unwrap();
        // Three workers split the 10 rows 0..4, 4..7 and 7..10; chunks of
        // 3 rows end at 3, 6 and 9, so worker 1's rows span two chunks
        // partially.
        let store = chunk_store(&enc, 3);
        type Case = (&'static str, usize, fn(&DistRequest) -> bool, usize);
        let cases: [(Backing<'_>, Case); 4] = [
            (Backing::Memory(&enc), ("pass 2", 2, at_pair_counts, 2)),
            (
                Backing::Memory(&enc),
                ("load", 2, |r| matches!(r, DistRequest::Rows { .. }), 0),
            ),
            (
                Backing::Chunks(&store),
                ("pass 1", 3, |r| matches!(r, DistRequest::CountItems), 1),
            ),
            (
                Backing::Chunks(&store),
                (
                    "pass 3",
                    3,
                    |r| matches!(r, DistRequest::CountCandidates { .. }),
                    3,
                ),
            ),
        ];
        for (backing, (name, workers, drops_at, pass)) in cases {
            let (cluster, threads, _) = flaky_cluster(workers, 1, drops_at, None);
            let sink = qar_trace::CollectingSink::new();
            let mut source =
                DistSource::new(cluster, backing, &config(), Some(&sink), None, false).unwrap();
            let dist = mine_source(&mut source, &config(), Some(&sink), None).unwrap();
            drop(source);
            for thread in threads {
                let _ = thread.join();
            }
            assert_identical(&serial, &dist);
            let lost: Vec<_> = sink
                .events()
                .iter()
                .filter_map(|e| match e {
                    TraceEvent::WorkerLost { worker, pass, .. } => Some((*worker, *pass)),
                    _ => None,
                })
                .collect();
            assert_eq!(lost, [(1, pass)], "{name}: exactly one loss");
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

    #[test]
    fn fail_fast_surfaces_worker_lost() {
        let enc = encoded();
        let (cluster, threads, _) = flaky_cluster(2, 1, at_pair_counts, None);
        let mut source = DistSource::new(
            cluster,
            Backing::Memory(&enc),
            &config(),
            None,
            None,
            true, // fail_fast
        )
        .unwrap();
        let result = mine_source(&mut source, &config(), None, None);
        drop(source);
        for thread in threads {
            let _ = thread.join();
        }
        match result {
            Err(MinerError::WorkerLost { worker, pass, .. }) => {
                assert_eq!(worker, 1);
                assert!(pass >= 2);
            }
            Err(other) => panic!("expected WorkerLost, got {other}"),
            Ok(_) => panic!("expected WorkerLost, got Ok"),
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

    fn range_input(path: &Path, workers: usize) -> RangeInput {
        let file = File::open(path).unwrap();
        RangeInput::new(file, path, people_table().schema(), workers).unwrap()
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
        fail_fast: bool,
    ) -> Result<MiningOutput, MinerError> {
        let input = range_input(path, cluster.len());
        match DistSource::from_ranges(cluster, input, &config(), Some(sink), None, fail_fast)? {
            RangeLoad::Loaded { mut source, .. } => {
                mine_source(&mut *source, &config(), Some(sink), None)
            }
            RangeLoad::Quoted => panic!("a quote-free file took the coordinator's load"),
            RangeLoad::Failed(e) => panic!("the people table failed to parse: {e}"),
        }
    }

    /// Workers that parse their own ranges mine the serial result at every
    /// worker count, with empty ranges past the rows; the coordinator
    /// sends no row, and every worker joins with its range's rows.
    #[test]
    fn range_load_matches_serial_without_sending_rows() {
        let enc = encoded();
        let serial = Miner::new(config()).mine_encoded(&enc).unwrap();
        let path = people_csv("ranges", |text| text);
        for workers in [1usize, 2, 3, 16] {
            let (cluster, threads, seen) = flaky_cluster(workers, 0, |_| false, Some(&path));
            let sink = qar_trace::CollectingSink::new();
            let dist = mine_ranges(cluster, &path, &sink, false).unwrap();
            for thread in threads {
                let _ = thread.join();
            }
            assert_identical(&serial, &dist);
            let tags = seen.lock().unwrap().clone();
            assert_eq!(
                &tags[..2],
                [tag::REQ_PARSE_RANGE, tag::REQ_SETUP],
                "{workers}"
            );
            assert!(
                !tags.contains(&tag::REQ_ROWS),
                "{workers} workers: {tags:?}"
            );
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
        let _ = std::fs::remove_file(&path);
    }

    /// A worker lost at its range request, at the encoders or at pass 2 of
    /// a range load has its range parsed by the coordinator; the mine
    /// equals the serial one and reports exactly one loss. Under
    /// `fail_fast` the loss at the range request is the run's error.
    #[test]
    fn a_lost_range_is_parsed_again_by_the_coordinator() {
        let enc = encoded();
        let serial = Miner::new(config()).mine_encoded(&enc).unwrap();
        let path = people_csv("lost_range", |text| text);
        type Case = (&'static str, fn(&DistRequest) -> bool, usize);
        let cases: [Case; 3] = [
            ("range", |r| matches!(r, DistRequest::ParseRange { .. }), 0),
            ("setup", |r| matches!(r, DistRequest::Setup { .. }), 0),
            ("pass 2", at_pair_counts, 2),
        ];
        for (name, drops_at, pass) in cases {
            let (cluster, threads, _) = flaky_cluster(3, 1, drops_at, Some(&path));
            let sink = qar_trace::CollectingSink::new();
            let dist = mine_ranges(cluster, &path, &sink, false).unwrap();
            for thread in threads {
                let _ = thread.join();
            }
            assert_identical(&serial, &dist);
            assert_eq!(losses(&sink), [(1, pass)], "{name}: exactly one loss");
        }
        let (cluster, threads, _) = flaky_cluster(
            2,
            1,
            |r| matches!(r, DistRequest::ParseRange { .. }),
            Some(&path),
        );
        let sink = qar_trace::CollectingSink::new();
        let input = range_input(&path, 2);
        let result = DistSource::from_ranges(cluster, input, &config(), Some(&sink), None, true);
        for thread in threads {
            let _ = thread.join();
        }
        assert!(matches!(
            result,
            Err(MinerError::WorkerLost {
                worker: 1,
                pass: 0,
                ..
            })
        ));
        let _ = std::fs::remove_file(&path);
    }

    /// A file holding a quote ends the range load before any `Setup`; a
    /// bad number gives the serial reader's error, the first failing
    /// range's when two fail.
    #[test]
    fn quoted_and_failing_files_end_the_range_load() {
        let schema = people_table().schema().clone();
        let quoted = people_csv("quoted", |text| text.replacen("Yes", "\"Yes\"", 1));
        let last = people_csv("bad_last", |text| text.replace("63,", "6x3,"));
        let both = people_csv("bad_both", |text| {
            text.replace("25,", "2x5,").replace("58,", "5x8,")
        });
        for (path, want) in [(&last, 11), (&both, 3)] {
            let serial = csv::read_table(std::fs::read(path).unwrap().as_slice(), &schema);
            assert!(matches!(serial, Err(TableError::BadNumber { line, .. }) if line == want));
            for workers in [2usize, 3] {
                let (cluster, threads, _) = flaky_cluster(workers, 0, |_| false, Some(path));
                let input = range_input(path, workers);
                let loaded = DistSource::from_ranges(cluster, input, &config(), None, None, false);
                for thread in threads {
                    let _ = thread.join();
                }
                match loaded.unwrap() {
                    RangeLoad::Failed(e) => assert_eq!(Err(e), serial.clone().map(|_| ())),
                    _ => panic!("{workers} workers: a bad file loaded"),
                }
            }
        }
        let (cluster, threads, seen) = flaky_cluster(2, 0, |_| false, Some(&quoted));
        let loaded = DistSource::from_ranges(
            cluster,
            range_input(&quoted, 2),
            &config(),
            None,
            None,
            false,
        );
        for thread in threads {
            let _ = thread.join();
        }
        assert!(matches!(loaded.unwrap(), RangeLoad::Quoted));
        assert!(!seen.lock().unwrap().contains(&tag::REQ_SETUP));
        for path in [quoted, last, both] {
            let _ = std::fs::remove_file(path);
        }
    }
}

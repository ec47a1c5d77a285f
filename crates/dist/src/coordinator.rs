//! The coordinator side of count-distribution mining.
//!
//! [`Cluster`] owns the worker pool: it binds a loopback listener,
//! spawns workers (child processes running `qar worker --connect ADDR`,
//! or in-process threads for tests and the differential oracle), and
//! accepts their connections. [`DistSource`] then implements
//! [`CountSource`] over the pool — it partitions the backing rows
//! contiguously across workers, streams each partition out as bounded
//! row blocks, and answers every counting request by broadcasting it and
//! merging the raw per-worker tallies with element-wise `u64` addition.
//! Pass 2 travels as attribute pairs: workers return [`PairHistograms`]
//! cells, which merge by addition into the histograms the driver reads
//! its frequent pairs from.
//!
//! Partial failure: a worker that times out, drops its connection, or
//! answers out of protocol is declared **lost** (one `worker_lost` trace
//! event, [`MinerError::WorkerLost`] under
//! [`DistOptions::fail_fast`]). The coordinator keeps the backing data,
//! so by default it recovers by recounting the lost partition locally —
//! the merged counts, and therefore the mined rules, are unchanged.

use qar_core::source::{Backing, CountError, CountSource, InMemorySource};
use qar_core::supercand::{cell_groups, PairHistograms};
use qar_core::{MinerConfig, MinerError};
use qar_itemset::Itemset;
use qar_store::dist::{read_response, write_request, DistRequest, DistResponse};
use qar_store::protocol::MAX_PAYLOAD;
use qar_table::EncodedTable;
use qar_trace::{event::micros, CancelToken, ProgressSink, TraceEvent};
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::ops::Range;
use std::path::PathBuf;
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
                    let worker_options = *worker_options;
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

/// The distributed [`CountSource`]: a worker pool plus the retained
/// backing data for lost-partition recovery.
pub struct DistSource<'a> {
    cluster: Cluster,
    backing: Backing<'a>,
    meta: EncodedTable,
    /// Per-worker contiguous row ranges, cluster order.
    ranges: Vec<Range<usize>>,
    /// The retired workers' rows, counted by the coordinator itself.
    local: InMemorySource<'a>,
    sink: Option<&'a dyn ProgressSink>,
    cancel: Option<&'a CancelToken>,
    fail_fast: bool,
    block_rows: usize,
}

impl<'a> DistSource<'a> {
    /// Start a cluster of `options.workers` workers and load `backing`
    /// into it — the source `qar mine --workers N` counts through. The
    /// cluster shuts down when the source is dropped.
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
        let mut local = InMemorySource::new(backing, config).with_cancel(cancel);
        let (schema, encoders) = (local.meta().schema(), local.meta().encoders());
        let ncols = schema.len();
        let meta = EncodedTable::header_only(schema.clone(), encoders.to_vec(), num_rows);
        local.restrict(Vec::new());
        let mut source = DistSource {
            cluster,
            backing,
            meta,
            ranges,
            local,
            sink,
            cancel,
            fail_fast,
            block_rows: (BATCH_BYTES / (4 * ncols.max(1))).max(1),
        };
        source.load()?;
        Ok(source)
    }

    fn emit(&self, event: TraceEvent) {
        if let Some(sink) = self.sink {
            sink.on_event(&event);
        }
    }

    /// Declare worker `index` lost during `pass` (0 = the load phase).
    /// Under `fail_fast` the loss becomes the run's error; otherwise the
    /// worker is retired and its range recounted locally from here on.
    fn lose(&mut self, index: usize, pass: usize, detail: String) -> Result<(), MinerError> {
        self.cluster.remotes[index].alive = false;
        let retired = (0..self.cluster.len())
            .filter(|&i| !self.cluster.remotes[i].alive)
            .map(|i| self.ranges[i].clone())
            .collect();
        self.local.restrict(retired);
        self.emit(TraceEvent::WorkerLost {
            worker: index,
            pass,
            detail: detail.clone(),
        });
        if self.fail_fast {
            return Err(MinerError::WorkerLost {
                worker: index,
                pass,
                detail,
            });
        }
        Ok(())
    }

    /// Setup + stream each worker its partition.
    fn load(&mut self) -> Result<(), MinerError> {
        for index in 0..self.cluster.len() {
            let rows = self.ranges[index].clone();
            match self.load_worker(index, rows.clone()) {
                Ok(()) => {
                    let peer = self.cluster.remotes[index].peer.clone();
                    self.emit(TraceEvent::WorkerJoined {
                        worker: index,
                        addr: peer,
                        rows: rows.len() as u64,
                    });
                }
                Err(detail) => self.lose(index, 0, detail)?,
            }
        }
        Ok(())
    }

    fn load_worker(&mut self, index: usize, rows: Range<usize>) -> Result<(), String> {
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
        let walk = self
            .backing
            .for_each_block(rows.clone(), self.block_rows, &mut |block| {
                let columns = block.into_owned().into_columns();
                match remote.request(&DistRequest::Rows { columns }) {
                    Ok(DistResponse::RowsLoaded { total_rows }) => {
                        loaded = total_rows;
                        Ok(())
                    }
                    Ok(other) => {
                        stream_error =
                            Some(format!("expected RowsLoaded, got {}", describe(&other)));
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
        self.local.count_pair_cells(&mut hist)?;
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
            let add = self.local.count(pass, batch)?;
            for (a, b) in result[batch_start..batch_end].iter_mut().zip(add) {
                *a += b;
            }
        }
        Ok(result)
    }
}

impl CountSource for DistSource<'_> {
    fn meta(&self) -> &EncodedTable {
        &self.meta
    }

    fn num_rows(&self) -> u64 {
        self.backing.num_rows() as u64
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
        for (acc, add) in merged.iter_mut().zip(self.local.value_counts()?) {
            for (a, b) in acc.iter_mut().zip(add) {
                *a += b;
            }
        }
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
        DistResponse::Bye => "Bye",
        DistResponse::Error { .. } => "Error",
    }
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
    use qar_store::dist::{read_request, write_response};
    use qar_store::Catalog;
    use qar_table::{ChunkStore, Schema, Table, Value};

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

    /// A real worker that drops its connection on the first request
    /// `drops_at` picks, instead of answering it.
    fn spawn_flaky(addr: String, drops_at: fn(&DistRequest) -> bool) -> JoinHandle<()> {
        std::thread::spawn(move || {
            let mut stream = TcpStream::connect(&addr).unwrap();
            let mut worker = Worker::new(&WorkerOptions::default());
            while let Ok(Some(request)) = read_request(&mut stream) {
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

    /// A cluster of `workers` with deterministic indices: worker `flaky`
    /// drops its connection at the first request `drops_at` picks, the
    /// others are real workers.
    fn flaky_cluster(
        workers: usize,
        flaky: usize,
        drops_at: fn(&DistRequest) -> bool,
    ) -> (Cluster, Vec<JoinHandle<()>>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let (mut streams, mut threads) = (Vec::new(), Vec::new());
        for index in 0..workers {
            let addr = addr.clone();
            threads.push(if index == flaky {
                spawn_flaky(addr, drops_at)
            } else {
                std::thread::spawn(move || {
                    let _ = run_worker(&addr, &WorkerOptions::default());
                })
            });
            streams.push(listener.accept().unwrap().0);
        }
        let cluster = Cluster::from_streams(streams, Some(Duration::from_secs(10)));
        (cluster, threads)
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
            let (cluster, threads) = flaky_cluster(workers, 1, drops_at);
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
        let (cluster, threads) = flaky_cluster(2, 1, at_pair_counts);
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
}

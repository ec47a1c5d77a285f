//! The `qar serve` daemon: a long-lived TCP server answering
//! [`crate::RuleIndex`] queries over the [`mod@crate::protocol`] wire
//! format.
//!
//! # Threading model
//!
//! [`Server::serve`] runs the accept loop on its caller and
//! [`Server::threads`] handler threads in one [`std::thread::scope`]. A
//! free handler takes the next queued connection and answers its frames
//! until the client closes or a frame-level error makes the stream
//! untrustworthy; a panicking connection is dropped, its handler lives
//! on. When the accept loop ends, the handlers drain the queue and join.
//!
//! # Catalog slots, generations, hot reload
//!
//! Each catalog loads into a *slot* (named by its file stem) holding an
//! `Arc` of the decoded [`Catalog`] plus its [`RuleIndex`], stamped with
//! a *generation* (1 on first load). A request clones the `Arc` once and
//! answers entirely against that snapshot, so a concurrent `RELOAD`
//! control frame never tears a query: in-flight requests finish on the
//! old generation while later requests see the new one. Every query
//! response carries the generation that answered it, which is what the
//! hot-reload soak test asserts on. A reload that fails to decode —
//! truncated file, checksum mismatch — leaves the slot untouched and
//! returns a structured [`ErrorCode::ReloadFailed`]: the old catalog
//! keeps serving.
//!
//! # Deadlines
//!
//! A request may carry a deadline in milliseconds, mapped onto the
//! miner's cooperative [`CancelToken`]. The token is checked before each
//! query (and between batch items); an expired token earns
//! [`ErrorCode::DeadlineExceeded`]. `deadline_ms = 0` is already expired
//! on arrival — deterministic fodder for the robustness tests.
//!
//! # Error policy
//!
//! * Frame decodes but the request is unanswerable (unknown catalog,
//!   unknown tag, malformed payload): structured [`Response::Error`],
//!   connection stays open.
//! * The frame itself is broken (bad magic, CRC mismatch, oversized
//!   length): best-effort [`ErrorCode::BadFrame`] response, then the
//!   connection closes — the stream can no longer be framed.

use crate::catalog::Catalog;
use crate::error::StoreError;
use crate::index::{RankBy, RuleIndex};
use crate::protocol::{
    self, read_frame, CatalogInfo, ErrorCode, ProtocolError, Query, QueryOptions, Request,
    Response, WireError,
};
use qar_trace::event::micros;
use qar_trace::{CancelToken, ProgressSink, TraceEvent};
use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use std::time::{Duration, Instant};

/// How long an idle connection waits between shutdown-flag polls.
const IDLE_POLL: Duration = Duration::from_millis(100);

/// Tuning for [`Server::bind`].
#[derive(Debug, Clone, Default)]
pub struct ServerConfig {
    /// TCP port to bind on 127.0.0.1 (0 lets the OS pick; see
    /// [`Server::local_addr`]).
    pub port: u16,
    /// Handler threads carrying connections (0 = one per CPU).
    pub threads: usize,
}

/// One immutable catalog snapshot: everything a request needs, behind a
/// single `Arc` clone.
struct ServingCatalog {
    generation: u64,
    catalog: Catalog,
    index: RuleIndex,
}

/// A named, reloadable catalog slot.
struct Slot {
    path: PathBuf,
    current: RwLock<Arc<ServingCatalog>>,
}

/// State shared between the accept loop and every connection handler.
struct ServerState {
    slots: BTreeMap<String, Slot>,
    sink: Option<Arc<dyn ProgressSink>>,
    shutdown: AtomicBool,
    addr: SocketAddr,
}

impl ServerState {
    fn emit(&self, event: &TraceEvent) {
        if let Some(sink) = &self.sink {
            sink.on_event(event);
        }
    }

    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }
}

/// The rule-serving daemon. Construct with [`Server::bind`], run with
/// [`Server::serve`] (blocking), stop with a [`Request::Shutdown`] frame.
pub struct Server {
    listener: TcpListener,
    state: ServerState,
    threads: usize,
}

impl Server {
    /// Load every catalog and bind the listener on 127.0.0.1. Slot names
    /// must be unique; loading stops at the first bad catalog.
    pub fn bind(
        catalogs: &[(String, PathBuf)],
        config: &ServerConfig,
        sink: Option<Arc<dyn ProgressSink>>,
    ) -> Result<Server, StoreError> {
        let mut slots = BTreeMap::new();
        for (name, path) in catalogs {
            let catalog = Catalog::load(path, sink.as_deref())?;
            let index = RuleIndex::build(&catalog, sink.as_deref());
            let previous = slots.insert(
                name.clone(),
                Slot {
                    path: path.clone(),
                    current: RwLock::new(Arc::new(ServingCatalog {
                        generation: 1,
                        catalog,
                        index,
                    })),
                },
            );
            if previous.is_some() {
                return Err(StoreError::Corrupt {
                    section: "serve",
                    detail: format!("duplicate catalog slot name \"{name}\""),
                });
            }
        }
        let listener = TcpListener::bind(("127.0.0.1", config.port))?;
        let addr = listener.local_addr()?;
        let threads = match config.threads {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            n => n,
        };
        let state = ServerState {
            slots,
            sink,
            shutdown: AtomicBool::new(false),
            addr,
        };
        state.emit(&TraceEvent::ServerStarted {
            port: addr.port(),
            threads,
            catalogs: state.slots.len(),
        });
        Ok(Server {
            listener,
            state,
            threads,
        })
    }

    /// The bound address (useful with `port = 0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.state.addr
    }

    /// Handler threads carrying connections.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Accept connections until a [`Request::Shutdown`] arrives (or
    /// `accept` fails), handing each to the handler threads. Returns once
    /// every handler has finished: connections still queued when the
    /// accept loop ends see the shutdown flag and close at their first
    /// read.
    pub fn serve(self) -> io::Result<()> {
        let (queue, queued) = channel();
        let queued = Mutex::new(queued);
        std::thread::scope(|scope| {
            for _ in 0..self.threads {
                scope.spawn(|| {
                    handler_loop(&queued, |(stream, conn)| {
                        handle_connection(&self.state, stream, conn)
                    })
                });
            }
            let accepted = self.accept(queue);
            // After a failed accept, release idle connections too.
            self.state.shutdown.store(true, Ordering::Release);
            accepted
        })
    }

    /// Queue accepted connections, numbered from 1, until shutdown;
    /// returning drops `queue`, which ends the handlers once drained.
    fn accept(&self, queue: Sender<(TcpStream, u64)>) -> io::Result<()> {
        for (conn, stream) in (1..).zip(self.listener.incoming()) {
            let stream = stream?;
            if self.state.shutting_down() {
                break; // the wake-up connection (or a late client)
            }
            self.state.emit(&TraceEvent::ConnectionOpened { conn });
            queue
                .send((stream, conn))
                .expect("handlers outlive the accept loop");
        }
        Ok(())
    }
}

/// One handler thread: take queued jobs until the queue is closed and
/// drained. A job that panics is dropped; the handler carries on.
fn handler_loop<J>(queue: &Mutex<Receiver<J>>, mut handle: impl FnMut(J)) {
    loop {
        let job = queue.lock().unwrap_or_else(PoisonError::into_inner).recv();
        let Ok(job) = job else { break };
        let _ = catch_unwind(AssertUnwindSafe(|| handle(job)));
    }
}

/// Socket reader that retries timeouts while polling the shutdown flag,
/// so idle connections notice shutdown instead of blocking forever.
/// Reports EOF once shutdown fires: at a frame boundary that is a clean
/// close; mid-frame it surfaces as a truncation error.
struct PatientReader<'a> {
    stream: &'a TcpStream,
    state: &'a ServerState,
}

impl Read for PatientReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        loop {
            if self.state.shutting_down() {
                return Ok(0);
            }
            let mut stream = self.stream;
            match stream.read(buf) {
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock
                            | io::ErrorKind::TimedOut
                            | io::ErrorKind::Interrupted
                    ) => {}
                other => return other,
            }
        }
    }
}

/// Serve one client connection until it closes (or breaks framing).
fn handle_connection(state: &ServerState, stream: TcpStream, conn: u64) {
    let _ = stream.set_read_timeout(Some(IDLE_POLL));
    let _ = stream.set_nodelay(true);
    let mut requests = 0u64;
    loop {
        let frame = read_frame(&mut PatientReader {
            stream: &stream,
            state,
        });
        let started = Instant::now();
        // Bad magic, checksum mismatch, oversized or truncated frame: the
        // byte stream can no longer be trusted to re-frame, so it is
        // reported once (best effort) and the connection closes.
        let broken = matches!(&frame, Err(e) if !matches!(e, ProtocolError::Io(_)));
        let (response, kind, items, shutdown_after) = match frame {
            // Clean close (or shutdown at a boundary), or connection error.
            Ok(None) | Err(ProtocolError::Io(_)) => break,
            // A CRC-clean frame keeps the connection open even when it
            // holds no request.
            Ok(Some((tag, payload))) => match Request::decode(tag, &payload) {
                Ok(request) => answer(state, request),
                Err(ProtocolError::UnknownTag(t)) => invalid(
                    ErrorCode::UnknownRequest,
                    format!("unknown request tag {t}"),
                ),
                Err(e) => invalid(
                    ErrorCode::BadRequest,
                    format!("malformed request payload: {e}"),
                ),
            },
            Err(e) => invalid(ErrorCode::BadFrame, format!("unreadable frame: {e}")),
        };
        requests += 1;
        let results = match &response {
            Response::Ids { ids, .. } => ids.len(),
            Response::Batch { items, .. } => {
                items.iter().map(|i| i.as_ref().map_or(0, Vec::len)).sum()
            }
            _ => 0,
        };
        state.emit(&TraceEvent::RequestServed {
            conn,
            kind: kind.to_string(),
            ok: !matches!(response, Response::Error(_)),
            items,
            results,
            elapsed_us: micros(started.elapsed()),
        });
        // A write error means the client went away mid-response.
        if write_response(&stream, &response).is_err() || broken {
            break;
        }
        if shutdown_after {
            // Set the flag and poke our own listener so the blocked
            // `accept` wakes.
            state.shutdown.store(true, Ordering::Release);
            let _ = TcpStream::connect(state.addr);
            break;
        }
    }
    state.emit(&TraceEvent::ConnectionClosed { conn, requests });
}

fn write_response(mut stream: &TcpStream, response: &Response) -> io::Result<()> {
    // A response that cannot be framed (payload over MAX_PAYLOAD, e.g. a
    // batch with millions of matching ids) degrades to a structured
    // Internal error instead of killing the connection thread — the
    // client learns *why* it got nothing.
    let frame = match response.to_frame() {
        Ok(frame) => frame,
        Err(e) => Response::Error(WireError::new(
            ErrorCode::Internal,
            format!("response could not be framed: {e}"),
        ))
        .to_frame()
        .expect("error responses are small"),
    };
    stream.write_all(&frame)?;
    stream.flush()
}

/// The answer to a frame that holds no request, shaped like [`answer`]'s.
fn invalid(code: ErrorCode, message: String) -> (Response, &'static str, usize, bool) {
    (
        Response::Error(WireError::new(code, message)),
        "invalid",
        1,
        false,
    )
}

/// Answer one decoded request. Returns the response, the request kind
/// for tracing, the number of queries it contained, and whether the
/// server shuts down after responding.
fn answer(state: &ServerState, request: Request) -> (Response, &'static str, usize, bool) {
    match request {
        Request::Ping => (Response::Pong, "ping", 1, false),
        Request::Info => (
            Response::Info {
                catalogs: state
                    .slots
                    .iter()
                    .map(|(name, slot)| {
                        let current = snapshot(slot);
                        CatalogInfo {
                            name: name.clone(),
                            generation: current.generation,
                            rules: current.catalog.rules().len() as u64,
                            analytics: current.index.has_analytics(),
                        }
                    })
                    .collect(),
            },
            "info",
            1,
            false,
        ),
        Request::Shutdown => (Response::ShuttingDown, "shutdown", 1, true),
        Request::Reload { catalog } => (reload(state, &catalog), "reload", 1, false),
        Request::Query {
            catalog,
            deadline_ms,
            query,
        } => {
            let kind = query.kind();
            let Some(slot) = state.slots.get(&catalog) else {
                return (unknown_catalog(&catalog), kind, 1, false);
            };
            let current = snapshot(slot);
            let cancel = deadline_ms.map(deadline_token);
            let response = match guarded_query(&current.index, &query, cancel.as_ref()) {
                Ok(ids) => Response::Ids {
                    generation: current.generation,
                    ids,
                },
                Err(e) => Response::Error(e),
            };
            (response, kind, 1, false)
        }
        Request::Batch {
            catalog,
            deadline_ms,
            queries,
        } => {
            let n = queries.len();
            let Some(slot) = state.slots.get(&catalog) else {
                return (unknown_catalog(&catalog), "batch", n, false);
            };
            // One snapshot for the whole batch: a reload cannot split it
            // across generations.
            let current = snapshot(slot);
            let cancel = deadline_ms.map(deadline_token);
            let items = queries
                .iter()
                .map(|query| guarded_query(&current.index, query, cancel.as_ref()))
                .collect();
            (
                Response::Batch {
                    generation: current.generation,
                    items,
                },
                "batch",
                n,
                false,
            )
        }
    }
}

fn snapshot(slot: &Slot) -> Arc<ServingCatalog> {
    Arc::clone(&slot.current.read().unwrap_or_else(PoisonError::into_inner))
}

fn unknown_catalog(name: &str) -> Response {
    Response::Error(WireError::new(
        ErrorCode::UnknownCatalog,
        format!("catalog \"{name}\" is not loaded"),
    ))
}

fn deadline_token(ms: u32) -> CancelToken {
    CancelToken::with_deadline(Duration::from_millis(ms as u64))
}

/// Run one query unless its deadline already expired. Checked before the
/// query (and, via the caller's map, between batch items) — queries
/// themselves are microseconds, so cooperative granularity is per item.
fn guarded_query(
    index: &RuleIndex,
    query: &Query,
    cancel: Option<&CancelToken>,
) -> Result<Vec<u32>, WireError> {
    if cancel.is_some_and(CancelToken::is_cancelled) {
        return Err(WireError::new(
            ErrorCode::DeadlineExceeded,
            "deadline expired before the query ran",
        ));
    }
    execute_query(index, query)
}

/// Answer `query` against `index` with exactly the CLI's `qar query`
/// semantics: analytics filters first, then rank when `--by` or
/// `--top-k` is given (defaulting to confidence), then truncate only for
/// `k > 0` (`k = 0` keeps everything). Analytics rankings or filters
/// against a catalog without an analytics section are a structured
/// [`ErrorCode::BadRequest`] — probe [`CatalogInfo::analytics`] first.
/// The soak tests call this directly to compute expected answers.
pub fn execute_query(index: &RuleIndex, query: &Query) -> Result<Vec<u32>, WireError> {
    let (mut ids, opts) = match query {
        Query::Point { record, opts } => (index.query_record(record), *opts),
        Query::Range { attr, lo, hi, opts } => (index.query_range(*attr, *lo, *hi), *opts),
        Query::TopK { by, k } => {
            require_analytics_for(index, Some(*by))?;
            return Ok(index.top_k(*by, *k as usize));
        }
    };
    apply_options(index, &mut ids, opts)?;
    Ok(ids)
}

fn require_analytics_for(index: &RuleIndex, by: Option<RankBy>) -> Result<(), WireError> {
    if by.is_some_and(|by| by.needs_analytics()) && !index.has_analytics() {
        return Err(WireError::new(
            ErrorCode::BadRequest,
            format!(
                "ranking by {} needs analytics: {}",
                by.expect("checked above"),
                crate::index::AnalyticsUnavailable,
            ),
        ));
    }
    Ok(())
}

fn apply_options(
    index: &RuleIndex,
    ids: &mut Vec<u32>,
    opts: QueryOptions,
) -> Result<(), WireError> {
    index
        .filter_analytics(ids, opts.min_lift, opts.max_p)
        .map_err(|e| WireError::new(ErrorCode::BadRequest, e.to_string()))?;
    require_analytics_for(index, opts.by)?;
    if opts.by.is_some() || opts.top_k.is_some() {
        index.rank(ids, opts.by.unwrap_or(RankBy::Confidence));
    }
    if let Some(k) = opts.top_k {
        if k > 0 {
            ids.truncate(k as usize);
        }
    }
    Ok(())
}

/// Reload a slot from its backing file. On any failure the slot is left
/// untouched — the old generation keeps serving — and the error comes
/// back structured.
fn reload(state: &ServerState, name: &str) -> Response {
    let Some(slot) = state.slots.get(name) else {
        return unknown_catalog(name);
    };
    let started = Instant::now();
    let sink = state.sink.as_deref();
    let catalog = match Catalog::load(&slot.path, sink) {
        Ok(catalog) => catalog,
        Err(e) => {
            return Response::Error(WireError::new(
                ErrorCode::ReloadFailed,
                format!("reload of \"{name}\" failed, old catalog still serving: {e}"),
            ))
        }
    };
    let index = RuleIndex::build(&catalog, sink);
    let rules = catalog.rules().len() as u64;
    let generation = {
        let mut guard = slot.current.write().unwrap_or_else(PoisonError::into_inner);
        let generation = guard.generation + 1;
        *guard = Arc::new(ServingCatalog {
            generation,
            catalog,
            index,
        });
        generation
    };
    state.emit(&TraceEvent::CatalogReloaded {
        catalog: name.to_string(),
        generation,
        rules: rules as usize,
        elapsed_us: micros(started.elapsed()),
    });
    Response::Reloaded {
        catalog: name.to_string(),
        generation,
        rules,
    }
}

/// A minimal blocking client for tests and the CLI load generator: one
/// TCP connection, one request/response round trip at a time.
pub struct ServeClient {
    stream: TcpStream,
}

impl ServeClient {
    /// Connect to a running server.
    pub fn connect(addr: impl std::net::ToSocketAddrs) -> io::Result<ServeClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(ServeClient { stream })
    }

    /// Send one request and read its response.
    pub fn request(&mut self, request: &Request) -> Result<Response, ProtocolError> {
        self.stream.write_all(&request.to_frame()?)?;
        match protocol::read_response(&mut self.stream)? {
            Some(response) => Ok(response),
            None => Err(ProtocolError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed before responding",
            ))),
        }
    }

    /// Send raw bytes (corrupt frames, partial frames) — for the
    /// robustness tests.
    pub fn send_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.stream.write_all(bytes)
    }

    /// Read the next response after [`ServeClient::send_raw`];
    /// `Ok(None)` when the server closed the connection instead.
    pub fn read_response(&mut self) -> Result<Option<Response>, ProtocolError> {
        protocol::read_response(&mut self.stream)
    }

    /// Half-close the write side (models a client disconnecting
    /// mid-request).
    pub fn shutdown_write(&mut self) -> io::Result<()> {
        self.stream.shutdown(std::net::Shutdown::Write)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A job that panics costs its handler nothing: the same single
    /// handler takes every later job, and the loop ends only once the
    /// closed queue is drained.
    #[test]
    fn handler_survives_a_panicking_job_and_drains_the_queue() {
        let (queue, queued) = channel::<u32>();
        let queued = Mutex::new(queued);
        let (done, finished) = channel::<u32>();
        for job in [0, 1, 2, 3] {
            queue.send(job).expect("queue open");
        }
        drop(queue);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                handler_loop(&queued, |job| {
                    assert_ne!(job, 0, "job 0 panics");
                    done.send(job).expect("test receiver alive");
                })
            });
        });
        drop(done);
        assert_eq!(finished.iter().collect::<Vec<_>>(), vec![1, 2, 3]);
    }
}

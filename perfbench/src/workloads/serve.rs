//! `serve_credit`: the read path. The credit catalog (mined untimed) is
//! served by `qar serve --threads 2 --port 0` and queried over TCP with a
//! point-heavy mix. A closed loop measures capacity; an open loop at a
//! fixed rate measures latency, each request timed from when it was due.

use std::io::{self, BufRead, BufReader};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use qar_datagen::credit::credit_schema;
use qar_prng::Prng;
use qar_store::protocol::{read_response, Query, QueryOptions};
use qar_store::serve::execute_query;
use qar_store::{Catalog, RankBy, Request, Response, RuleIndex};

use super::{mine_args, stderr_tail, Ctx, CREDIT_ROWS, CREDIT_SPEC, SETUP_REPEATS, THREADS};
use crate::report::{num, nums, Outcome};
use crate::stats::{median, percentile};
use crate::{gen, proc};

/// Connections (one load-generator thread each).
pub const CONNECTIONS: usize = 2;
/// Open-loop arrival rate over all connections, requests per second —
/// fixed, so both sides of a comparison see the same offered load.
pub const OPEN_RATE: f64 = 30_000.0;
/// Closed-loop warm-up before anything is measured.
pub const WARMUP: Duration = Duration::from_secs(1);
/// Requests replayed for the correctness check.
pub const CHECKED_REQUESTS: usize = 1_000;
/// Distinct pre-encoded requests each connection cycles through.
pub const POOL: usize = 4_096;
/// Queries per batch request.
pub const BATCH: usize = 4;
/// Slot name of the served catalog (its file stem).
pub const SLOT: &str = "credit";
/// A request that takes longer than this is a failure, not a sample.
pub const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// The code space requests are drawn from.
pub struct QuerySpace {
    cards: Vec<u32>,
    quant: Vec<(u32, f64, f64)>,
}

impl QuerySpace {
    /// Per-attribute code cardinalities and numeric domains of `catalog`.
    pub fn of(catalog: &Catalog) -> QuerySpace {
        let encoders = catalog.encoders();
        QuerySpace {
            cards: encoders.iter().map(|e| e.cardinality()).collect(),
            quant: encoders
                .iter()
                .enumerate()
                .filter_map(|(a, e)| {
                    let (lo, hi) = e.numeric_bounds(0, e.cardinality().saturating_sub(1))?;
                    Some((a as u32, lo, hi))
                })
                .collect(),
        }
    }

    fn point(&self, rng: &mut Prng) -> Query {
        Query::Point {
            record: self
                .cards
                .iter()
                .enumerate()
                .map(|(a, &card)| (a as u32, rng.gen_range(0..card.max(1))))
                .collect(),
            opts: QueryOptions::default(),
        }
    }

    /// A range query over a quantitative attribute; a point query when
    /// the catalog has none.
    fn range(&self, rng: &mut Prng) -> Query {
        if self.quant.is_empty() {
            return self.point(rng);
        }
        let (attr, lo, hi) = self.quant[rng.gen_range(0..self.quant.len())];
        let (a, b) = (
            lo + rng.gen_f64() * (hi - lo),
            lo + rng.gen_f64() * (hi - lo),
        );
        Query::Range {
            attr,
            lo: a.min(b),
            hi: a.max(b),
            opts: QueryOptions::default(),
        }
    }

    /// `n` requests: 5/8 point, 1/8 range, 1/8 top-k, 1/8 batch of
    /// [`BATCH`] points.
    pub fn requests(&self, n: usize, seed: u64) -> Vec<Request> {
        let mut rng = Prng::seed_from_u64(seed);
        let ranks = [RankBy::Support, RankBy::Confidence, RankBy::Interest];
        (0..n)
            .map(|i| {
                let query = match i % 8 {
                    0 => Query::TopK {
                        by: ranks[i / 8 % ranks.len()],
                        k: 1 + (i as u32 % 20),
                    },
                    1 => self.range(&mut rng),
                    2 => {
                        return Request::Batch {
                            catalog: SLOT.to_string(),
                            deadline_ms: None,
                            queries: (0..BATCH).map(|_| self.point(&mut rng)).collect(),
                        }
                    }
                    _ => self.point(&mut rng),
                };
                Request::Query {
                    catalog: SLOT.to_string(),
                    deadline_ms: None,
                    query,
                }
            })
            .collect()
    }
}

/// The answer `index` gives to `request` in process, as a response.
pub fn expected(index: &RuleIndex, request: &Request) -> Option<Response> {
    match request {
        Request::Query { query, .. } => Some(match execute_query(index, query) {
            Ok(ids) => Response::Ids { generation: 1, ids },
            Err(e) => Response::Error(e),
        }),
        Request::Batch { queries, .. } => Some(Response::Batch {
            generation: 1,
            items: queries.iter().map(|q| execute_query(index, q)).collect(),
        }),
        _ => None,
    }
}

/// True for an error response or a batch with a failed item.
pub fn is_error(response: &Response) -> bool {
    match response {
        Response::Error(_) => true,
        Response::Batch { items, .. } => items.iter().any(Result::is_err),
        _ => false,
    }
}

/// One client connection.
pub struct Conn {
    stream: TcpStream,
}

impl Conn {
    /// Connect with Nagle off and bounded reads.
    pub fn connect(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        Ok(Conn { stream })
    }

    /// Send one pre-encoded frame and read the response.
    pub fn call(&mut self, frame: &[u8]) -> Result<Response, String> {
        io::Write::write_all(&mut self.stream, frame).map_err(|e| e.to_string())?;
        match read_response(&mut self.stream) {
            Ok(Some(r)) => Ok(r),
            Ok(None) => Err("server closed the connection".to_string()),
            Err(e) => Err(e.to_string()),
        }
    }
}

/// A running `qar serve` daemon. Dropping it without [`Daemon::stop`]
/// kills and reaps the process, so no error path leaves one behind.
pub struct Daemon {
    child: Option<Child>,
    spawned: Instant,
    /// The address it listens on.
    pub addr: String,
    /// Spawn → `listening on` line.
    pub startup: Duration,
}

impl Daemon {
    /// Start `qar serve catalog --threads 2 --port 0 [extra…]`, with its
    /// error stream in `stderr`, and wait for its `listening on` line.
    pub fn start(ctx: &Ctx, catalog: &Path, extra: &[&str], stderr: &str) -> io::Result<Daemon> {
        let spawned = Instant::now();
        let mut child = Command::new(&ctx.qar)
            .arg("serve")
            .arg(catalog)
            .args(["--threads", &THREADS.to_string(), "--port", "0"])
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(std::fs::File::create(ctx.work.join(stderr))?)
            .spawn()?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut daemon = Daemon {
            child: Some(child),
            spawned,
            addr: String::new(),
            startup: Duration::ZERO,
        };
        let mut line = String::new();
        BufReader::new(stdout).read_line(&mut line)?;
        daemon.startup = spawned.elapsed();
        daemon.addr = line
            .strip_prefix("listening on ")
            .and_then(|rest| rest.split_whitespace().next())
            .ok_or_else(|| {
                io::Error::other(format!(
                    "qar serve did not start: {}",
                    stderr_tail(ctx, stderr)
                ))
            })?
            .to_string();
        Ok(daemon)
    }

    /// Ask the daemon to shut down and reap it (killing it if it does not
    /// acknowledge).
    pub fn stop(mut self) -> io::Result<proc::Exit> {
        let frame = Request::Shutdown.to_frame().map_err(io::Error::other)?;
        let acked =
            Conn::connect(&self.addr).and_then(|mut c| c.call(&frame).map_err(io::Error::other));
        let mut child = self
            .child
            .take()
            .expect("a daemon owns its process until stopped");
        if acked.is_err() {
            let _ = child.kill();
        }
        proc::reap(child, self.spawned)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Load over [`CONNECTIONS`] closed-loop connections for `length`:
/// (responses, error responses, elapsed seconds).
pub fn closed_loop(addr: &str, frames: &[Vec<u8>], length: Duration) -> (u64, u64, f64) {
    let started = Instant::now();
    let per_conn: Vec<(u64, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                s.spawn(move || {
                    let (mut done, mut errors) = (0u64, 0u64);
                    let Ok(mut conn) = Conn::connect(addr) else {
                        return (0, 1);
                    };
                    let mut i = c * frames.len() / CONNECTIONS;
                    while started.elapsed() < length {
                        match conn.call(&frames[i % frames.len()]) {
                            Ok(r) => {
                                done += 1;
                                errors += u64::from(is_error(&r));
                            }
                            Err(_) => return (done, errors + 1),
                        }
                        i += 1;
                    }
                    (done, errors)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let elapsed = started.elapsed().as_secs_f64();
    let (done, errors) = per_conn
        .iter()
        .fold((0, 0), |(a, b), (d, e)| (a + d, b + e));
    (done, errors, elapsed)
}

/// What the open loop saw.
#[derive(Debug, Default)]
pub struct OpenLoop {
    /// Due time → response, seconds, per answered request.
    pub latency_s: Vec<f64>,
    /// Actual send time minus due time, seconds.
    pub late_s: Vec<f64>,
    /// Error responses and transport failures.
    pub errors: u64,
}

/// Offer `rate` requests per second over [`CONNECTIONS`] connections for
/// `length`. Each connection sends on its own fixed schedule; a request
/// whose predecessor has not returned by its due time goes out late, and
/// its latency still counts from the due time.
pub fn open_loop(addr: &str, frames: &[Vec<u8>], rate: f64, length: Duration) -> OpenLoop {
    let period = Duration::from_secs_f64(CONNECTIONS as f64 / rate);
    let start = Instant::now() + Duration::from_millis(20);
    let parts: Vec<OpenLoop> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                s.spawn(move || {
                    let mut part = OpenLoop::default();
                    let Ok(mut conn) = Conn::connect(addr) else {
                        part.errors += 1;
                        return part;
                    };
                    let offset = period.mul_f64(c as f64 / CONNECTIONS as f64);
                    let mut i = 0u32;
                    loop {
                        let due = start + offset + period * i;
                        if due >= start + length {
                            break;
                        }
                        wait_until(due);
                        let sent = Instant::now();
                        match conn.call(&frames[(c * 1_000 + i as usize) % frames.len()]) {
                            Ok(r) if !is_error(&r) => {
                                part.latency_s.push((Instant::now() - due).as_secs_f64());
                                part.late_s.push((sent - due).as_secs_f64());
                            }
                            Ok(_) => part.errors += 1,
                            Err(_) => {
                                part.errors += 1;
                                break;
                            }
                        }
                        i += 1;
                    }
                    part
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    parts.into_iter().fold(OpenLoop::default(), |mut acc, p| {
        acc.latency_s.extend(p.latency_s);
        acc.late_s.extend(p.late_s);
        acc.errors += p.errors;
        acc
    })
}

/// Sleep most of the way to `due`, then yield until it arrives.
fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > Duration::from_micros(300) {
            std::thread::sleep(left - Duration::from_micros(200));
        } else {
            std::thread::yield_now();
        }
    }
}

/// Replay `requests` over one connection and compare each answer with
/// the in-process index over the same catalog file.
pub fn check_answers(addr: &str, index: &RuleIndex, requests: &[Request], out: &mut Outcome) {
    let mut conn = match Conn::connect(addr) {
        Ok(c) => c,
        Err(e) => return out.check(false, || format!("cannot connect for the check: {e}")),
    };
    let mut mismatches = 0;
    for request in requests {
        let frame = request
            .to_frame()
            .expect("benchmark requests fit in a frame");
        match conn.call(&frame) {
            Ok(got) => {
                let ok = !is_error(&got) && Some(&got) == expected(index, request).as_ref();
                mismatches += usize::from(!ok);
                out.check(ok, || format!("served answer differs for {request:?}"));
            }
            Err(e) => return out.check(false, || format!("check request failed: {e}")),
        }
        if mismatches >= 5 {
            return;
        }
    }
}

/// Mine the credit catalog the daemon serves (untimed preparation).
pub fn prepare_catalog(ctx: &Ctx, out: &mut Outcome) -> io::Result<std::path::PathBuf> {
    let csv = ctx.work.join("credit.csv");
    gen::write_credit_csv(&csv, CREDIT_ROWS, ctx.seed)?;
    let catalog = ctx.work.join(format!("{SLOT}.qarcat"));
    let args = mine_args(
        &csv,
        &gen::schema_decls(&credit_schema()),
        &CREDIT_SPEC,
        0,
        &catalog,
    );
    let exit = proc::run(&mut ctx.qar(&args, "prepare.err")?)?;
    out.check(exit.success(), || {
        format!(
            "catalog preparation failed: {}",
            stderr_tail(ctx, "prepare.err")
        )
    });
    Ok(catalog)
}

/// Run the workload.
///
/// - Set-up: daemon spawn → `listening on` (catalog load, decode and
///   index build), repeated; the last daemon stays up.
/// - Timed: a [`WARMUP`], then a closed loop for 40% of the run's seconds
///   (capacity), then an open loop at [`OPEN_RATE`] for the rest
///   (latency from due time).
/// - Gates: [`CHECKED_REQUESTS`] requests must get the in-process
///   answers, and no response may be an error.
pub fn run(ctx: &Ctx) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    let catalog_path = prepare_catalog(ctx, &mut out)?;
    let catalog = Catalog::load(&catalog_path, None).map_err(io::Error::other)?;
    let index = RuleIndex::build(&catalog, None);
    let requests = QuerySpace::of(&catalog).requests(POOL, ctx.seed);
    let frames: Vec<Vec<u8>> = requests
        .iter()
        .map(|r| r.to_frame().map_err(io::Error::other))
        .collect::<io::Result<_>>()?;

    let mut setup = Vec::new();
    let mut peak_kib = 0;
    let mut daemon = None;
    for i in 0..SETUP_REPEATS {
        let d = Daemon::start(ctx, &catalog_path, &[], "serve.err")?;
        setup.push(d.startup.as_secs_f64());
        if i + 1 < SETUP_REPEATS {
            peak_kib = peak_kib.max(d.stop()?.maxrss_kib);
        } else {
            daemon = Some(d);
        }
    }
    let daemon = daemon.expect("at least one set-up");

    closed_loop(&daemon.addr, &frames, WARMUP);
    let (done, closed_errors, elapsed) = closed_loop(
        &daemon.addr,
        &frames,
        Duration::from_secs_f64(ctx.seconds * 0.4),
    );
    let open = open_loop(
        &daemon.addr,
        &frames,
        OPEN_RATE,
        Duration::from_secs_f64(ctx.seconds * 0.6),
    );
    out.attempted += done + open.latency_s.len() as u64 + open.errors;
    for (errors, phase) in [(closed_errors, "closed"), (open.errors, "open")] {
        if errors > 0 {
            out.failed += errors;
            out.failures
                .push(format!("{errors} failed requests in the {phase} loop"));
        }
    }
    check_answers(
        &daemon.addr,
        &index,
        &requests[..CHECKED_REQUESTS],
        &mut out,
    );
    let exit = daemon.stop()?;
    out.check(exit.success(), || {
        format!("qar serve exited with {:?}", exit.code)
    });
    peak_kib = peak_kib.max(exit.maxrss_kib);

    out.set("setup_s", median(&setup));
    out.set("latency_p50_ms", percentile(&open.latency_s, 50.0) * 1e3);
    out.extra(
        "latency_p99_ms",
        num(percentile(&open.latency_s, 99.0) * 1e3),
    );
    out.set("throughput_per_s", done as f64 / elapsed);
    out.set("peak_rss_mb", peak_kib as f64 / 1024.0);
    out.extra("setup_s", nums(&setup));
    out.extra("open_loop_requests", num(open.latency_s.len() as f64));
    out.extra("closed_loop_requests", num(done as f64));
    out.extra(
        "generator_late_us_p99",
        num(percentile(&open.late_s, 99.0) * 1e6),
    );
    Ok(out)
}

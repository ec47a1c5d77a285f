//! Adversarial-client robustness tests for the serving daemon: hostile
//! or unlucky inputs — oversized frames, unknown tags, checksum
//! corruption, mid-frame disconnects, expired deadlines, reloads of a
//! corrupted catalog — must each produce a structured wire error (or a
//! clean close) while the server keeps serving everyone else from the
//! catalog it already has. Nothing here may panic, hang, or wedge the
//! server.

mod common;

use std::path::PathBuf;
use std::sync::mpsc::channel;
use std::sync::Arc;
use std::time::{Duration, Instant};

use common::arb_catalog;
use qar_prng::Prng;
use qar_store::protocol::{encode_frame, tag, ErrorCode, Query, MAGIC, MAX_PAYLOAD};
use qar_store::serve::{execute_query, ServeClient};
use qar_store::{Catalog, RankBy, Request, Response, RuleIndex, Server, ServerConfig};
use qar_trace::{CollectingSink, TraceEvent};

/// How long a test waits for something the server must do promptly.
const BOUND: Duration = Duration::from_secs(10);

/// A live server over one arbitrary catalog, plus everything the
/// assertions need to check answers independently.
struct Fixture {
    addr: std::net::SocketAddr,
    server_thread: std::thread::JoinHandle<std::io::Result<()>>,
    catalog: Catalog,
    index: RuleIndex,
    path: PathBuf,
    sink: Arc<CollectingSink>,
}

impl Fixture {
    fn start(tag: &str, seed: u64) -> Fixture {
        Fixture::start_with_threads(tag, seed, 4)
    }

    fn start_with_threads(tag: &str, seed: u64, threads: usize) -> Fixture {
        let mut rng = Prng::seed_from_u64(seed);
        let catalog = arb_catalog(&mut rng);
        let path = std::env::temp_dir().join(format!(
            "qar_serve_robust_{}_{tag}.qarcat",
            std::process::id()
        ));
        catalog.save(&path, None).expect("save catalog");
        let index = RuleIndex::build(&catalog, None);
        let sink = Arc::new(CollectingSink::new());
        let server = Server::bind(
            &[("cat".to_string(), path.clone())],
            &ServerConfig { port: 0, threads },
            Some(sink.clone()),
        )
        .expect("bind");
        let addr = server.local_addr();
        let server_thread = std::thread::spawn(move || server.serve());
        Fixture {
            addr,
            server_thread,
            catalog,
            index,
            path,
            sink,
        }
    }

    fn client(&self) -> ServeClient {
        ServeClient::connect(self.addr).expect("connect")
    }

    /// Wait until the server has accepted `n` connections in all.
    fn wait_accepted(&self, n: usize) {
        let deadline = Instant::now() + BOUND;
        while self
            .sink
            .events()
            .iter()
            .filter(|e| matches!(e, TraceEvent::ConnectionOpened { .. }))
            .count()
            < n
        {
            assert!(Instant::now() < deadline, "server never accepted {n}");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// The server still answers correctly from its current catalog —
    /// the invariant every abuse case must leave intact.
    fn assert_healthy(&self) {
        let mut client = self.client();
        let query = Query::TopK {
            by: RankBy::Confidence,
            k: 3,
        };
        let response = client
            .request(&Request::Query {
                catalog: "cat".into(),
                deadline_ms: None,
                query: query.clone(),
            })
            .expect("health query");
        let expected = Response::Ids {
            generation: 1,
            ids: execute_query(&self.index, &query).expect("health query is servable"),
        };
        assert_eq!(response.to_frame().unwrap(), expected.to_frame().unwrap());
    }

    fn stop(self) {
        let mut control = self.client();
        assert!(matches!(
            control.request(&Request::Shutdown),
            Ok(Response::ShuttingDown)
        ));
        self.server_thread
            .join()
            .unwrap()
            .expect("server exits cleanly");
        let _ = std::fs::remove_file(&self.path);
        // Connection bookkeeping balances: every opened connection
        // eventually closed, every abuse logged as a served request.
        let events = self.sink.events();
        let opened = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::ConnectionOpened { .. }))
            .count();
        let closed = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::ConnectionClosed { .. }))
            .count();
        assert_eq!(opened, closed, "connection open/close imbalance");
    }
}

fn expect_error(response: Response, code: ErrorCode) {
    match response {
        Response::Error(e) => assert_eq!(e.code, code, "wrong error code: {e}"),
        other => panic!("expected {code:?} error, got {other:?}"),
    }
}

/// An oversized length field is rejected before any allocation with a
/// best-effort BadFrame error, then the connection closes; the server
/// itself keeps running.
#[test]
fn oversized_frame_is_rejected_without_allocation() {
    let fx = Fixture::start("oversized", 0xB0B0_0001);
    let mut client = fx.client();
    let mut frame = Vec::new();
    frame.extend_from_slice(&MAGIC);
    frame.extend_from_slice(&tag::REQ_PING.to_le_bytes());
    frame.extend_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
    frame.extend_from_slice(&0u32.to_le_bytes());
    client.send_raw(&frame).expect("send oversized header");
    match client.read_response() {
        Ok(Some(response)) => expect_error(response, ErrorCode::BadFrame),
        Ok(None) => {} // server closed before the error flushed
        Err(_) => {}   // ditto, surfaced as a read error
    }
    assert!(
        matches!(client.read_response(), Ok(None) | Err(_)),
        "connection must be closed after an oversized frame"
    );
    fx.assert_healthy();
    fx.stop();
}

/// A frame with an unknown request tag gets a structured UnknownRequest
/// error and the connection survives for the next request.
#[test]
fn unknown_request_tag_keeps_the_connection_alive() {
    let fx = Fixture::start("unknown_tag", 0xB0B0_0002);
    let mut client = fx.client();
    client
        .send_raw(&encode_frame(99, b"whatever").unwrap())
        .expect("send unknown tag");
    let response = client.read_response().expect("read").expect("response");
    expect_error(response, ErrorCode::UnknownRequest);
    // Same connection, next request answers normally.
    assert!(matches!(client.request(&Request::Ping), Ok(Response::Pong)));
    fx.assert_healthy();
    fx.stop();
}

/// A CRC-valid frame whose payload does not decode as its tag claims is
/// a BadRequest error; the connection stays up.
#[test]
fn malformed_payload_is_a_bad_request_not_a_disconnect() {
    let fx = Fixture::start("malformed", 0xB0B0_0003);
    let mut client = fx.client();
    client
        .send_raw(&encode_frame(tag::REQ_QUERY, b"\xff\xff\xff\xff garbage").unwrap())
        .expect("send malformed query");
    let response = client.read_response().expect("read").expect("response");
    expect_error(response, ErrorCode::BadRequest);
    assert!(matches!(client.request(&Request::Ping), Ok(Response::Pong)));
    fx.assert_healthy();
    fx.stop();
}

/// A corrupted checksum is frame-level poison: BadFrame (best effort),
/// close. The server is unharmed.
#[test]
fn checksum_corruption_closes_only_that_connection() {
    let fx = Fixture::start("crc", 0xB0B0_0004);
    let mut client = fx.client();
    // Ping has an empty payload, so flip a byte of the CRC field.
    let mut frame = Request::Ping.to_frame().unwrap();
    let last = frame.len() - 1;
    frame[last] ^= 0x41;
    client.send_raw(&frame).expect("send corrupt frame");
    // The BadFrame notice is best effort: the server may close before the
    // client reads it, so only check the code when a response arrives.
    if let Ok(Some(response)) = client.read_response() {
        expect_error(response, ErrorCode::BadFrame);
    }
    assert!(
        matches!(client.read_response(), Ok(None) | Err(_)),
        "connection must be closed after checksum corruption"
    );
    fx.assert_healthy();
    fx.stop();
}

/// A client that dies mid-frame (header promised more bytes than ever
/// arrive) neither hangs a worker nor takes the server down.
#[test]
fn client_disconnect_mid_request_is_contained() {
    let fx = Fixture::start("disconnect", 0xB0B0_0005);

    // Half a frame, then a half-close: the server sees EOF mid-frame.
    let mut client = fx.client();
    let frame = Request::Reload {
        catalog: "cat".into(),
    }
    .to_frame()
    .unwrap();
    client
        .send_raw(&frame[..frame.len() / 2])
        .expect("send half");
    client.shutdown_write().expect("half-close");
    assert!(
        matches!(
            client.read_response(),
            Ok(Some(Response::Error(_))) | Ok(None) | Err(_)
        ),
        "server must answer with an error or close, never hang"
    );
    drop(client);

    // An abrupt drop at a frame boundary is a clean goodbye.
    let mut polite = fx.client();
    assert!(matches!(polite.request(&Request::Ping), Ok(Response::Pong)));
    drop(polite);

    fx.assert_healthy();
    fx.stop();
}

/// `deadline_ms: 0` is already expired on arrival: single queries get a
/// DeadlineExceeded error, batch items each report it, and the
/// connection remains usable.
#[test]
fn expired_deadline_is_a_structured_error() {
    let fx = Fixture::start("deadline", 0xB0B0_0006);
    let mut client = fx.client();
    let query = Query::TopK {
        by: RankBy::Support,
        k: 5,
    };
    let response = client
        .request(&Request::Query {
            catalog: "cat".into(),
            deadline_ms: Some(0),
            query: query.clone(),
        })
        .expect("deadline query");
    expect_error(response, ErrorCode::DeadlineExceeded);

    let response = client
        .request(&Request::Batch {
            catalog: "cat".into(),
            deadline_ms: Some(0),
            queries: vec![query.clone(), query.clone()],
        })
        .expect("deadline batch");
    match response {
        Response::Batch { items, .. } => {
            assert_eq!(items.len(), 2);
            for item in items {
                match item {
                    Err(e) => assert_eq!(e.code, ErrorCode::DeadlineExceeded),
                    Ok(ids) => panic!("batch item ignored its deadline: {ids:?}"),
                }
            }
        }
        other => panic!("expected batch response, got {other:?}"),
    }

    // A generous deadline on the same connection answers normally.
    let response = client
        .request(&Request::Query {
            catalog: "cat".into(),
            deadline_ms: Some(60_000),
            query: query.clone(),
        })
        .expect("generous deadline");
    let expected = Response::Ids {
        generation: 1,
        ids: execute_query(&fx.index, &query).expect("query is servable"),
    };
    assert_eq!(response.to_frame().unwrap(), expected.to_frame().unwrap());
    fx.stop();
}

/// Queries against a slot the server never loaded are UnknownCatalog
/// errors, not crashes.
#[test]
fn unknown_catalog_is_a_structured_error() {
    let fx = Fixture::start("unknown_cat", 0xB0B0_0007);
    let mut client = fx.client();
    let response = client
        .request(&Request::Query {
            catalog: "nope".into(),
            deadline_ms: None,
            query: Query::TopK {
                by: RankBy::Support,
                k: 1,
            },
        })
        .expect("query unknown slot");
    expect_error(response, ErrorCode::UnknownCatalog);
    let response = client
        .request(&Request::Reload {
            catalog: "nope".into(),
        })
        .expect("reload unknown slot");
    expect_error(response, ErrorCode::UnknownCatalog);
    fx.assert_healthy();
    fx.stop();
}

/// Reloading a catalog whose file has been corrupted (or deleted) fails
/// with ReloadFailed — and the old snapshot keeps serving, generation
/// unchanged.
#[test]
fn reload_of_corrupted_catalog_keeps_serving_the_old_one() {
    let fx = Fixture::start("bad_reload", 0xB0B0_0008);
    let mut client = fx.client();

    // Corrupt the on-disk catalog: flip one byte in the middle.
    let mut bytes = std::fs::read(&fx.path).expect("read catalog");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&fx.path, &bytes).expect("write corrupted");
    let response = client
        .request(&Request::Reload {
            catalog: "cat".into(),
        })
        .expect("reload corrupted");
    expect_error(response, ErrorCode::ReloadFailed);
    fx.assert_healthy(); // still generation 1, still the old rules

    // Deleting the file entirely is no worse.
    std::fs::remove_file(&fx.path).expect("delete catalog");
    let response = client
        .request(&Request::Reload {
            catalog: "cat".into(),
        })
        .expect("reload deleted");
    expect_error(response, ErrorCode::ReloadFailed);
    fx.assert_healthy();

    // Restoring a good file lets the next reload succeed at last.
    fx.catalog.save(&fx.path, None).expect("restore catalog");
    match client.request(&Request::Reload {
        catalog: "cat".into(),
    }) {
        Ok(Response::Reloaded { generation, .. }) => assert_eq!(generation, 2),
        other => panic!("restored reload failed: {other:?}"),
    }
    fx.stop();
}

/// End-to-end catalog freshness: the incremental-update library path
/// (`qar mine --update`'s engine) rewrites a served catalog with delta
/// rows merged into its persisted counts, and a `Reload` frame makes the
/// server answer from the updated rules — no restart, generation bumped.
#[test]
fn reload_picks_up_an_incrementally_updated_catalog() {
    use qar_core::{Miner, MinerConfig, PartitionSpec, UpdateInput};
    use qar_table::Table;

    // The paper's people table is the base; the delta re-appends its
    // first two rows (values the base encoders already know, so the
    // update stays on the incremental path).
    let base = qar_datagen::people_table();
    let mut delta = Table::new(base.schema().clone());
    let mut full = Table::new(base.schema().clone());
    for row in base.rows() {
        full.push_row(&row.to_values()).expect("same schema");
    }
    for row in base.rows().take(2) {
        delta.push_row(&row.to_values()).expect("same schema");
        full.push_row(&row.to_values()).expect("same schema");
    }

    let config = MinerConfig {
        min_support: 0.4,
        min_confidence: 0.5,
        partitioning: PartitionSpec::None,
        ..MinerConfig::default()
    };
    let (out, counts) = Miner::new(config.clone())
        .mine_with_counts(&base)
        .expect("base mine succeeds");
    let catalog = Catalog::from_mining(&out)
        .with_counts(counts)
        .expect("counts attach");
    let path = std::env::temp_dir().join(format!("qar_serve_update_{}.qarcat", std::process::id()));
    catalog.save(&path, None).expect("save catalog");

    let server = Server::bind(
        &[("cat".to_string(), path.clone())],
        &ServerConfig {
            port: 0,
            threads: 2,
        },
        None,
    )
    .expect("bind");
    let addr = server.local_addr();
    let server_thread = std::thread::spawn(move || server.serve());
    let mut client = ServeClient::connect(addr).expect("connect");

    let top_all = Query::TopK {
        by: RankBy::Confidence,
        k: u32::MAX,
    };
    let ask = |client: &mut ServeClient| match client
        .request(&Request::Query {
            catalog: "cat".into(),
            deadline_ms: None,
            query: top_all.clone(),
        })
        .expect("query")
    {
        Response::Ids { generation, ids } => (generation, ids),
        other => panic!("expected ids, got {other:?}"),
    };

    // Generation 1 serves the base mine.
    let base_index = RuleIndex::build(&catalog, None);
    let (generation, ids) = ask(&mut client);
    assert_eq!(generation, 1);
    assert_eq!(ids, execute_query(&base_index, &top_all).expect("servable"));

    // Update the catalog on disk: delta-only scan merged into the
    // persisted counts, no base rows needed.
    let loaded =
        Catalog::load_bytes(&std::fs::read(&path).expect("read"), None).expect("catalog loads");
    let updated = Miner::new(config.clone())
        .update(UpdateInput {
            schema: loaded.schema(),
            encoders: loaded.encoders(),
            counts: loaded.counts().expect("counts persisted"),
            delta: &delta,
            base_rows: None,
        })
        .expect("incremental update succeeds");
    assert!(
        updated.incremental,
        "no fallback expected: {:?}",
        updated.fallback
    );
    let fresh = Catalog::from_mining(&updated.output)
        .with_counts(updated.counts)
        .expect("merged counts attach");
    fresh.save(&path, None).expect("save updated catalog");

    // The server still answers from the old snapshot until told.
    let (generation, _) = ask(&mut client);
    assert_eq!(generation, 1, "no reload yet");

    // Reload → generation 2, answers now match the updated catalog,
    // which in turn matches a from-scratch mine of base+delta.
    match client.request(&Request::Reload {
        catalog: "cat".into(),
    }) {
        Ok(Response::Reloaded { generation, .. }) => assert_eq!(generation, 2),
        other => panic!("reload failed: {other:?}"),
    }
    let fresh_index = RuleIndex::build(&fresh, None);
    let (generation, ids) = ask(&mut client);
    assert_eq!(generation, 2);
    assert_eq!(
        ids,
        execute_query(&fresh_index, &top_all).expect("servable")
    );
    let scratch = Miner::new(config).mine(&full).expect("scratch mine");
    assert_eq!(
        updated.output.rules, scratch.rules,
        "updated catalog serves the same rules a full re-mine would"
    );

    let mut control = ServeClient::connect(addr).expect("connect");
    assert!(matches!(
        control.request(&Request::Shutdown),
        Ok(Response::ShuttingDown)
    ));
    server_thread.join().unwrap().expect("server exits cleanly");
    let _ = std::fs::remove_file(&path);
}

/// One handler, two connections: the second waits in the queue while
/// the first idles, and is answered as soon as the first closes.
#[test]
fn queued_connection_is_answered_once_the_handler_frees() {
    let fx = Fixture::start_with_threads("queued", 0xB0B0_0009, 1);
    let idle = fx.client();
    fx.wait_accepted(1);
    let mut queued = fx.client();
    let (answered, answer) = channel();
    let asker = std::thread::spawn(move || {
        let _ = answered.send(queued.request(&Request::Ping));
    });
    assert!(
        answer.recv_timeout(Duration::from_millis(300)).is_err(),
        "the only handler is busy with the idle connection"
    );
    drop(idle);
    assert!(matches!(
        answer
            .recv_timeout(BOUND)
            .expect("answered once the handler frees"),
        Ok(Response::Pong)
    ));
    asker.join().unwrap();
    fx.assert_healthy();
    fx.stop();
}

/// A shutdown that arrives while a connection still waits for a handler
/// drains that connection and returns from `serve` promptly.
#[test]
fn shutdown_with_a_connection_still_queued_returns_promptly() {
    let fx = Fixture::start_with_threads("queued_shutdown", 0xB0B0_000A, 1);
    let mut control = fx.client();
    assert!(matches!(
        control.request(&Request::Ping),
        Ok(Response::Pong)
    ));
    let mut queued = fx.client();
    fx.wait_accepted(2);
    let started = Instant::now();
    assert!(matches!(
        control.request(&Request::Shutdown),
        Ok(Response::ShuttingDown)
    ));
    while !fx.server_thread.is_finished() {
        assert!(started.elapsed() < BOUND, "serve() did not return");
        std::thread::sleep(Duration::from_millis(5));
    }
    fx.server_thread
        .join()
        .unwrap()
        .expect("server exits cleanly");
    let _ = std::fs::remove_file(&fx.path);
    // The queued connection was closed unanswered, not abandoned.
    assert!(matches!(queued.read_response(), Ok(None) | Err(_)));
    let events = fx.sink.events();
    let closed = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::ConnectionClosed { .. }))
        .count();
    assert_eq!(closed, 2, "both connections closed");
}

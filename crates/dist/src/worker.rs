//! The worker side of count-distribution mining.
//!
//! A worker is a dumb, exact counter: it parses and encodes its own
//! contiguous partition of the rows, and answers counting requests with
//! raw `u64` tallies over that partition, counted through the
//! [`InMemorySource`] every local mine uses — never filtered by a support
//! threshold, so the coordinator's element-wise merge reproduces the
//! serial counts exactly. All policy (candidate generation, frequency,
//! rules) stays on the coordinator.
//!
//! The partition comes from the input file the worker was started with
//! ([`WorkerOptions::input`]): a `ParseRange` names a byte range of it,
//! which the worker parses and answers with the range's value histograms.
//! The `Setup` that follows brings the encoders, built from every range's
//! histograms or taken from a catalog, and the worker encodes the parsed
//! rows under them, or names the first value they cannot encode.
//!
//! Errors split two ways, mirroring the serve protocol's convention:
//! application-level problems (a range request without an input file or
//! over a file of another length, a setup before a parsed range or of
//! another schema, a count before setup, a candidate or pair list naming
//! an unknown attribute, a pair list repeating one, a candidate item
//! outside its attribute's codes, a pair list of more cells than one
//! frame holds) become [`DistResponse::Error`] replies and the connection
//! lives on; transport-level problems (corrupt frame, socket loss)
//! terminate the serve loop with a [`ProtocolError`].

use qar_core::source::{CountError, CountSource, InMemorySource};
use qar_core::supercand::PairHistograms;
use qar_core::MinerConfig;
use qar_itemset::Itemset;
use qar_store::dist::{read_request, write_response, DistRequest, DistResponse, MAX_PAIR_CELLS};
use qar_store::protocol::ProtocolError;
use qar_table::{csv, AttributeEncoder, EncodedTable, Schema, Table, TableError};
use qar_trace::CancelToken;
use std::fs::File;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::num::NonZeroUsize;
use std::ops::Range;
use std::path::PathBuf;
use std::time::Duration;

/// How a worker runs: its threads, and the input file it parses.
#[derive(Debug, Clone, Default)]
pub struct WorkerOptions {
    /// Threads per range parse, encode and counting scan; `0` picks the
    /// machine default (the same resolution
    /// [`MinerConfig::effective_parallelism`] applies). Speed only:
    /// counts are exact under every thread count.
    pub num_threads: usize,
    /// The CSV file `ParseRange` requests name byte ranges of (`qar
    /// worker --input FILE`). It is given when the worker starts and never
    /// over the wire, so a coordinator cannot have a worker open any other
    /// file. Without one, a range request is answered with `Error`.
    pub input: Option<PathBuf>,
}

/// One coordinator connection's state: the scan settings, the input file,
/// the range parsed but not yet encoded, and the encoded partition.
pub(crate) struct Worker {
    config: MinerConfig,
    input: Option<PathBuf>,
    parsed: Option<Table>,
    partition: Option<EncodedTable>,
}

impl Worker {
    pub(crate) fn new(opts: &WorkerOptions) -> Self {
        Worker {
            config: MinerConfig {
                parallelism: NonZeroUsize::new(opts.num_threads),
                ..MinerConfig::default()
            },
            input: opts.input.clone(),
            parsed: None,
            partition: None,
        }
    }

    /// The reply to `request` (`Bye` to `Shutdown`).
    pub(crate) fn respond(&mut self, request: DistRequest) -> DistResponse {
        let reply = match request {
            DistRequest::ParseRange {
                schema,
                file_len,
                range,
                records,
                deadline_ms,
            } => {
                self.partition = None;
                self.parsed = None;
                self.parse_range(&schema, file_len, range, records, deadline_ms)
            }
            DistRequest::Setup { schema, encoders } => self.setup(&schema, encoders),
            DistRequest::Shutdown => Ok(DistResponse::Bye),
            request => match &self.partition {
                None => Err("count before setup".to_string()),
                Some(table) => count(table, request, &self.config),
            },
        };
        reply.unwrap_or_else(|message| DistResponse::Error { message })
    }

    /// Parse `range` of the input file, keep its rows for the `Setup` to
    /// come, and reply with its value histograms; a range holding a quote
    /// byte is answered `quoted` unless `records` says its ends are record
    /// ends, a record that fails with its line.
    fn parse_range(
        &mut self,
        schema: &Schema,
        file_len: u64,
        range: Range<u64>,
        records: bool,
        deadline_ms: Option<u32>,
    ) -> Result<DistResponse, String> {
        let path = self
            .input
            .as_ref()
            .ok_or("no input file to parse a range of (start the worker with --input FILE)")?;
        let file =
            File::open(path).map_err(|e| format!("cannot open `{}`: {e}", path.display()))?;
        let len = file.metadata().map_err(|e| e.to_string())?.len();
        if len != file_len {
            return Err(format!(
                "`{}` holds {len} bytes, the coordinator's input {file_len}",
                path.display()
            ));
        }
        let deadline =
            deadline_ms.map(|ms| CancelToken::with_deadline(Duration::from_millis(ms.into())));
        let cancelled = || deadline.as_ref().is_some_and(CancelToken::is_cancelled);
        let threads = self.config.effective_parallelism();
        let failed = |line: usize, bad_number, text| DistResponse::RangeFailed {
            line: line as u64,
            bad_number,
            text,
        };
        let read = match csv::read_range(&file, schema, range, records, threads, &cancelled) {
            Ok(Some(read)) => read,
            Ok(None) => {
                return Ok(DistResponse::RangeParsed {
                    rows: 0,
                    lines: 0,
                    quoted: true,
                    histograms: Vec::new(),
                })
            }
            Err(TableError::Csv { line, message }) => return Ok(failed(line, false, message)),
            Err(TableError::BadNumber { line, token }) => return Ok(failed(line, true, token)),
            Err(TableError::Cancelled) => return Err("the range parse passed its deadline".into()),
            Err(e) => return Err(e.to_string()),
        };
        let histograms = read
            .table
            .histograms_threaded(threads, &cancelled)
            .map_err(|_| "the range's histograms passed the deadline".to_string())?;
        let reply = DistResponse::RangeParsed {
            rows: read.table.num_rows() as u64,
            lines: read.lines as u64,
            quoted: false,
            histograms,
        };
        self.parsed = Some(read.table);
        Ok(reply)
    }

    /// Encode the parsed range under `encoders` as the partition counted
    /// from now on, or name its first cell they cannot encode.
    fn setup(
        &mut self,
        schema: &Schema,
        encoders: Vec<AttributeEncoder>,
    ) -> Result<DistResponse, String> {
        let table = match self.parsed.take() {
            None => return Err("setup before a parsed range".to_string()),
            Some(table) if table.schema() != schema => {
                return Err("setup names another schema than the parsed range's".to_string())
            }
            Some(table) => table,
        };
        let threads = self.config.effective_parallelism();
        match EncodedTable::encode_threaded(table, encoders, threads, &|| false) {
            Ok(encoded) => {
                self.partition = Some(encoded);
                Ok(DistResponse::Ready)
            }
            Err(TableError::UnencodableValue { attribute, value }) => {
                let id = schema.id_of(&attribute).map_err(|e| e.to_string())?;
                Ok(DistResponse::Unencodable {
                    attribute: id.index() as u32,
                    value,
                })
            }
            Err(e) => Err(format!("encoding the parsed range: {e}")),
        }
    }
}

/// Answer a counting request over `table` through a local source, or say
/// why it cannot be answered.
fn count(
    table: &EncodedTable,
    request: DistRequest,
    config: &MinerConfig,
) -> Result<DistResponse, String> {
    match &request {
        DistRequest::CountPairs { window, pairs, .. } => check_pairs(table, pairs, window)?,
        DistRequest::CountCandidates { candidates, .. } => check_candidates(table, candidates)?,
        _ => {}
    }
    let mut source = InMemorySource::new(table, config);
    let cancelled = |_: CountError| "counting scan was cancelled".to_string();
    Ok(match request {
        DistRequest::CountCandidates { pass, candidates } => DistResponse::Counts {
            counts: source
                .count(pass as usize, &candidates)
                .map_err(cancelled)?,
        },
        DistRequest::CountPairs { pairs, window, .. } => {
            let window = window.start as usize..window.end as usize;
            let mut hist = PairHistograms::window(table, pairs, window);
            source.count_pair_cells(&mut hist).map_err(cancelled)?;
            DistResponse::PairCounts {
                cells: hist.into_cells(),
            }
        }
        _ => unreachable!("only counting requests are counted"),
    })
}

/// Reject a `CountCandidates` whose candidates name an unknown attribute
/// or hold a code past its attribute's cardinality (the wire decoder
/// already refuses `lo > hi` and repeated attributes).
fn check_candidates(table: &EncodedTable, candidates: &[Itemset]) -> Result<(), String> {
    let encoders = table.encoders();
    let cardinality = |attr: u32| encoders.get(attr as usize).map(|e| e.cardinality());
    for (c, candidate) in candidates.iter().enumerate() {
        candidate
            .check_codes(cardinality)
            .map_err(|e| format!("candidate {c} {e}"))?;
    }
    Ok(())
}

/// Reject a `CountPairs` whose pairs name an unknown or repeated
/// attribute, or whose window runs past the pairs' cells or holds more
/// than one frame.
fn check_pairs(
    table: &EncodedTable,
    pairs: &[(u32, u32)],
    window: &Range<u64>,
) -> Result<(), String> {
    let mut cells = 0usize;
    for &(a, b) in pairs {
        let card = |attr: u32| {
            table
                .encoders()
                .get(attr as usize)
                .map(|e| e.cardinality() as usize)
                .ok_or_else(|| format!("pair ({a}, {b}): no attribute {attr}"))
        };
        if a == b {
            return Err(format!("pair ({a}, {b}) repeats an attribute"));
        }
        cells = cells.saturating_add(card(a)?.saturating_mul(card(b)?));
    }
    if window.end > cells as u64 {
        return Err(format!(
            "cell window {window:?} runs past the pairs' {cells} cells"
        ));
    }
    let wanted = window.end - window.start;
    if wanted > MAX_PAIR_CELLS as u64 {
        return Err(format!(
            "{wanted} histogram cells exceed the {MAX_PAIR_CELLS} one frame holds"
        ));
    }
    Ok(())
}

/// Serve one coordinator connection until `Shutdown` or a clean EOF.
///
/// Generic over the stream so tests can drive it with in-memory pipes;
/// [`run_worker`] wraps it around a [`TcpStream`].
pub fn serve_connection<S: Read + Write>(
    stream: &mut S,
    opts: &WorkerOptions,
) -> Result<(), ProtocolError> {
    let mut worker = Worker::new(opts);
    // `None` is the coordinator going away at a frame boundary.
    while let Some(request) = read_request(stream)? {
        let shutdown = matches!(request, DistRequest::Shutdown);
        write_response(stream, &worker.respond(request))?;
        if shutdown {
            break;
        }
    }
    Ok(())
}

/// Connect to a coordinator at `addr` and serve until shutdown — the
/// body of `qar worker --connect ADDR`.
pub fn run_worker(addr: &str, opts: &WorkerOptions) -> Result<(), ProtocolError> {
    let mut stream = TcpStream::connect(addr).map_err(ProtocolError::Io)?;
    let _ = stream.set_nodelay(true);
    serve_connection(&mut stream, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qar_itemset::Item;
    use qar_store::dist::{read_response, write_request};
    use std::io::Cursor;

    fn schema_and_encoders() -> (Schema, Vec<AttributeEncoder>) {
        let schema = Schema::builder()
            .quantitative("age")
            .categorical("married")
            .build()
            .unwrap();
        let encoders = vec![
            AttributeEncoder::quant_intervals_from(
                &qar_table::QuantHistogram::from_values(&[20.0, 30.0, 40.0]),
                vec![25.0, 35.0],
            ),
            AttributeEncoder::Categorical {
                labels: vec!["No".to_string(), "Yes".to_string()],
            },
        ];
        (schema, encoders)
    }

    /// Run a scripted conversation through the serve loop.
    fn converse(requests: &[DistRequest]) -> Vec<DistResponse> {
        converse_with(&WorkerOptions::default(), requests)
    }

    /// [`converse`] with a worker started with `opts`.
    fn converse_with(opts: &WorkerOptions, requests: &[DistRequest]) -> Vec<DistResponse> {
        let mut input = Vec::new();
        for request in requests {
            write_request(&mut input, request).unwrap();
        }
        // A combined Read+Write stream over (script, captured output).
        struct Duplex {
            input: Cursor<Vec<u8>>,
            output: Vec<u8>,
        }
        impl Read for Duplex {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                self.input.read(buf)
            }
        }
        impl Write for Duplex {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.output.write(buf)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut stream = Duplex {
            input: Cursor::new(input),
            output: Vec::new(),
        };
        serve_connection(&mut stream, opts).unwrap();
        let mut cursor = Cursor::new(stream.output);
        let mut responses = Vec::new();
        while let Some(response) = read_response(&mut cursor).unwrap() {
            responses.push(response);
        }
        responses
    }

    /// `text` written to a fresh temporary file, which the caller removes.
    fn temp_csv(label: &str, text: &str) -> PathBuf {
        let path = qar_table::chunk::default_spill_dir(label).with_extension("csv");
        std::fs::write(&path, text).unwrap();
        path
    }

    /// The request parsing all of the body of the file at `path`, whose
    /// header is `age,married`.
    fn parse_all(schema: &Schema, path: &std::path::Path, deadline_ms: Option<u32>) -> DistRequest {
        parse_body(schema, path, "age,married\n".len(), false, deadline_ms)
    }

    /// The request parsing the file at `path` from byte `body` to its end.
    fn parse_body(
        schema: &Schema,
        path: &std::path::Path,
        body: usize,
        records: bool,
        deadline_ms: Option<u32>,
    ) -> DistRequest {
        let len = std::fs::metadata(path).unwrap().len();
        DistRequest::ParseRange {
            schema: schema.clone(),
            file_len: len,
            range: body as u64..len,
            records,
            deadline_ms,
        }
    }

    /// A conversation with a worker started on a temporary `age,married`
    /// file holding `rows`: the whole body parsed, the encoders of
    /// [`schema_and_encoders`] set up, then `requests`.
    fn converse_over(label: &str, rows: &str, requests: &[DistRequest]) -> Vec<DistResponse> {
        let (schema, encoders) = schema_and_encoders();
        let path = temp_csv(label, &format!("age,married\n{rows}"));
        let opts = WorkerOptions {
            input: Some(path.clone()),
            ..WorkerOptions::default()
        };
        let mut script = vec![
            parse_all(&schema, &path, None),
            DistRequest::Setup { schema, encoders },
        ];
        script.extend_from_slice(requests);
        let responses = converse_with(&opts, &script);
        let _ = std::fs::remove_file(&path);
        assert!(matches!(responses[0], DistResponse::RangeParsed { .. }));
        assert_eq!(responses[1], DistResponse::Ready);
        responses[2..].to_vec()
    }

    /// Age codes 0, 1, 1, 2 beside married codes 1, 1, 0, 1.
    const FOUR_ROWS: &str = "20,Yes\n30,Yes\n30,No\n40,Yes\n";

    /// A worker parses the range it is sent of its own input file,
    /// replies with the range's histograms, and encodes the rows on the
    /// `Setup` that follows; counts then cover them.
    #[test]
    fn a_parsed_range_is_encoded_on_setup() {
        let (schema, encoders) = schema_and_encoders();
        let path = temp_csv("range", "age,married\n20,No\n30,Yes\n30,Yes\n");
        let opts = WorkerOptions {
            input: Some(path.clone()),
            ..WorkerOptions::default()
        };
        let responses = converse_with(
            &opts,
            &[
                parse_all(&schema, &path, Some(60_000)),
                DistRequest::Setup {
                    schema: schema.clone(),
                    encoders,
                },
                DistRequest::CountPairs {
                    pass: 2,
                    pairs: vec![(0, 1)],
                    window: 0..6,
                },
                DistRequest::Shutdown,
            ],
        );
        let _ = std::fs::remove_file(&path);
        let table =
            csv::read_table("age,married\n20,No\n30,Yes\n30,Yes\n".as_bytes(), &schema).unwrap();
        assert_eq!(
            responses[0],
            DistResponse::RangeParsed {
                rows: 3,
                lines: 3,
                quoted: false,
                histograms: table.histograms(),
            }
        );
        assert_eq!(responses[1], DistResponse::Ready);
        // (20, No) once and (30, Yes) twice.
        assert_eq!(
            responses[2],
            DistResponse::PairCounts {
                cells: vec![1, 0, 0, 2, 0, 0],
            }
        );
    }

    /// A range holding a quote is not parsed unless its ends are record
    /// ends; a bad record is named by its line within the range; a `Setup`
    /// of another schema than the parsed range's is refused, and a worker
    /// without an input file, or whose file is not the coordinator's
    /// length, answers `Error`.
    #[test]
    fn range_requests_answer_quotes_bad_records_and_wrong_files() {
        let (schema, encoders) = schema_and_encoders();
        let quoted = temp_csv("quoted", "age,married\n20,\"No\"\n");
        let bad = temp_csv("bad", "age,married\n20,No\n\n2x,Yes\n");
        let with = |path: &PathBuf| WorkerOptions {
            input: Some(path.clone()),
            ..WorkerOptions::default()
        };
        let wider = Schema::builder()
            .quantitative("age")
            .categorical("married")
            .categorical("extra")
            .build()
            .unwrap();
        let body = "age,married\n".len();
        let quoted_replies = converse_with(
            &with(&quoted),
            &[
                parse_all(&schema, &quoted, None),
                parse_body(&schema, &quoted, body, true, None),
            ],
        );
        let bad_replies = converse_with(
            &with(&bad),
            &[
                parse_all(&schema, &bad, None),
                DistRequest::ParseRange {
                    schema: schema.clone(),
                    file_len: 999,
                    range: 0..0,
                    records: false,
                    deadline_ms: None,
                },
            ],
        );
        let setup_replies = converse_with(
            &with(&quoted),
            &[
                DistRequest::ParseRange {
                    schema: schema.clone(),
                    file_len: std::fs::metadata(&quoted).unwrap().len(),
                    range: body as u64..body as u64,
                    records: false,
                    deadline_ms: None,
                },
                DistRequest::Setup {
                    schema: wider,
                    encoders: vec![
                        encoders[0].clone(),
                        encoders[1].clone(),
                        encoders[1].clone(),
                    ],
                },
            ],
        );
        let no_input = converse(&[parse_all(&schema, &quoted, None)]);
        let _ = std::fs::remove_file(&quoted);
        let _ = std::fs::remove_file(&bad);
        assert_eq!(
            quoted_replies[0],
            DistResponse::RangeParsed {
                rows: 0,
                lines: 0,
                quoted: true,
                histograms: Vec::new(),
            }
        );
        assert!(matches!(
            quoted_replies[1],
            DistResponse::RangeParsed {
                rows: 1,
                lines: 1,
                quoted: false,
                ..
            }
        ));
        assert_eq!(
            bad_replies[0],
            DistResponse::RangeFailed {
                line: 3,
                bad_number: true,
                text: "2x".to_string(),
            }
        );
        let error = |r: &DistResponse, wanted: &str| match r {
            DistResponse::Error { message } => assert!(message.contains(wanted), "{message}"),
            other => panic!("expected Error, got {other:?}"),
        };
        error(&bad_replies[1], "bytes");
        assert!(matches!(
            setup_replies[0],
            DistResponse::RangeParsed { rows: 0, .. }
        ));
        error(&setup_replies[1], "schema");
        error(&no_input[0], "--input");
    }

    #[test]
    fn full_conversation_counts_exactly() {
        let (schema, encoders) = schema_and_encoders();
        let path = temp_csv("conversation", &format!("age,married\n{FOUR_ROWS}"));
        let opts = WorkerOptions {
            input: Some(path.clone()),
            ..WorkerOptions::default()
        };
        let responses = converse_with(
            &opts,
            &[
                parse_all(&schema, &path, None),
                DistRequest::Setup {
                    schema: schema.clone(),
                    encoders,
                },
                DistRequest::CountCandidates {
                    pass: 2,
                    candidates: vec![
                        Itemset::new(vec![Item::value(0, 1), Item::value(1, 1)]),
                        Itemset::new(vec![Item::value(0, 0), Item::value(1, 0)]),
                    ],
                },
                DistRequest::Shutdown,
            ],
        );
        let _ = std::fs::remove_file(&path);
        let table = csv::read_table(format!("age,married\n{FOUR_ROWS}").as_bytes(), &schema);
        assert_eq!(
            responses,
            vec![
                DistResponse::RangeParsed {
                    rows: 4,
                    lines: 4,
                    quoted: false,
                    histograms: table.unwrap().histograms(),
                },
                DistResponse::Ready,
                DistResponse::Counts { counts: vec![1, 0] },
                DistResponse::Bye,
            ]
        );
    }

    /// A count before setup and a setup before a parsed range are soft
    /// errors; the partition a setup encoded survives a refused one.
    #[test]
    fn protocol_violations_are_soft_errors() {
        let (schema, encoders) = schema_and_encoders();
        let path = temp_csv("violations", "age,married\n20,No\n");
        let opts = WorkerOptions {
            input: Some(path.clone()),
            ..WorkerOptions::default()
        };
        let setup = DistRequest::Setup {
            schema: schema.clone(),
            encoders,
        };
        // (20, No) is age code 0 beside married code 0.
        let count = DistRequest::CountCandidates {
            pass: 2,
            candidates: vec![Itemset::new(vec![Item::value(0, 0), Item::value(1, 0)])],
        };
        let responses = converse_with(
            &opts,
            &[
                count.clone(),
                setup.clone(),
                parse_all(&schema, &path, None),
                setup.clone(),
                setup,
                count,
                DistRequest::Shutdown,
            ],
        );
        let _ = std::fs::remove_file(&path);
        let error = |r: &DistResponse, wanted: &str| match r {
            DistResponse::Error { message } => assert!(message.contains(wanted), "{message}"),
            other => panic!("expected Error, got {other:?}"),
        };
        error(&responses[0], "count before setup");
        error(&responses[1], "setup before a parsed range");
        assert!(matches!(
            responses[2],
            DistResponse::RangeParsed { rows: 1, .. }
        ));
        assert_eq!(responses[3], DistResponse::Ready);
        error(&responses[4], "setup before a parsed range");
        assert_eq!(responses[5], DistResponse::Counts { counts: vec![1] });
        assert_eq!(responses[6], DistResponse::Bye);
    }

    /// A setup whose encoders miss a value of the parsed range answers
    /// with the lowest such attribute and its first such cell, as the
    /// serial column-by-column encode names it.
    #[test]
    fn an_unencodable_range_names_its_first_cell() {
        let responses = converse_with_setup("unencodable", "20,No\n30,Maybe\n99,Never\n");
        assert_eq!(
            responses,
            [DistResponse::Unencodable {
                attribute: 1,
                value: "Maybe".to_string(),
            }]
        );
        let (schema, encoders) = schema_and_encoders();
        let table = csv::read_table(
            "age,married\n20,No\n30,Maybe\n99,Never\n".as_bytes(),
            &schema,
        )
        .unwrap();
        let serial = EncodedTable::encode(&table, encoders).unwrap_err();
        assert_eq!(
            serial,
            TableError::UnencodableValue {
                attribute: "married".to_string(),
                value: "Maybe".to_string(),
            }
        );
    }

    /// [`converse_over`]'s parse and setup of `rows`, returning the reply
    /// to the setup alone.
    fn converse_with_setup(label: &str, rows: &str) -> Vec<DistResponse> {
        let (schema, encoders) = schema_and_encoders();
        let path = temp_csv(label, &format!("age,married\n{rows}"));
        let opts = WorkerOptions {
            input: Some(path.clone()),
            ..WorkerOptions::default()
        };
        let responses = converse_with(
            &opts,
            &[
                parse_all(&schema, &path, None),
                DistRequest::Setup { schema, encoders },
            ],
        );
        let _ = std::fs::remove_file(&path);
        responses[1..].to_vec()
    }

    #[test]
    fn pair_histograms_count_exactly() {
        let responses = converse_over(
            "pairs",
            FOUR_ROWS,
            &[
                DistRequest::CountPairs {
                    pass: 2,
                    pairs: vec![(0, 1), (1, 0)],
                    window: 0..12,
                },
                DistRequest::CountPairs {
                    pass: 2,
                    pairs: vec![(0, 1), (1, 0)],
                    window: 4..9,
                },
                DistRequest::Shutdown,
            ],
        );
        // age (3 codes) × married (2 codes), then married × age.
        assert_eq!(
            responses[0],
            DistResponse::PairCounts {
                cells: vec![0, 1, 1, 1, 0, 1, 0, 1, 0, 1, 1, 1],
            }
        );
        // A window across the pairs' boundary.
        assert_eq!(
            responses[1],
            DistResponse::PairCounts {
                cells: vec![0, 1, 0, 1, 0],
            }
        );
    }

    /// Bad pair lists are soft errors: the worker answers `Error` and
    /// keeps serving the same connection.
    #[test]
    fn bad_pair_requests_are_soft_errors() {
        let (schema, _) = schema_and_encoders();
        let before_setup = converse(&[DistRequest::CountPairs {
            pass: 2,
            pairs: vec![(0, 1)],
            window: 0..6,
        }]);
        assert!(matches!(before_setup[0], DistResponse::Error { .. }));
        let responses = converse_over(
            "bad_pairs",
            "",
            &[
                DistRequest::CountPairs {
                    pass: 2,
                    pairs: vec![(0, 2)], // no attribute 2
                    window: 0..6,
                },
                DistRequest::CountPairs {
                    pass: 2,
                    pairs: vec![(0, 1), (1, 1)], // repeated attribute
                    window: 0..6,
                },
                DistRequest::CountPairs {
                    pass: 2,
                    pairs: vec![(0, 1)],
                    window: 0..6,
                },
                DistRequest::CountPairs {
                    pass: 2,
                    pairs: vec![(0, 1)],
                    window: 3..7, // past the pair's 6 cells
                },
            ],
        );
        assert!(matches!(responses[0], DistResponse::Error { .. }));
        assert!(matches!(responses[1], DistResponse::Error { .. }));
        assert_eq!(responses[2], DistResponse::PairCounts { cells: vec![0; 6] });
        match &responses[3] {
            DistResponse::Error { message } => assert!(message.contains("past"), "{message}"),
            other => panic!("expected Error, got {other:?}"),
        }
        // 1500 × 1500 cells do not fit one response frame; a window of
        // them does.
        let wide = Schema::builder()
            .categorical("x")
            .categorical("y")
            .build()
            .unwrap();
        let labels = |n: usize| AttributeEncoder::Categorical {
            labels: (0..n).map(|i| format!("v{i:04}")).collect(),
        };
        let path = temp_csv("wide_pairs", "x,y\n");
        let opts = WorkerOptions {
            input: Some(path.clone()),
            ..WorkerOptions::default()
        };
        let responses = converse_with(
            &opts,
            &[
                parse_body(&wide, &path, "x,y\n".len(), false, None),
                DistRequest::Setup {
                    schema: wide.clone(),
                    encoders: vec![labels(1500), labels(1500)],
                },
                DistRequest::CountPairs {
                    pass: 2,
                    pairs: vec![(0, 1)],
                    window: 0..1500 * 1500,
                },
                DistRequest::CountPairs {
                    pass: 2,
                    pairs: vec![(0, 1)],
                    window: 1000..2000,
                },
                DistRequest::Shutdown,
            ],
        );
        let _ = std::fs::remove_file(&path);
        assert_ne!(schema, wide);
        assert_eq!(responses[1], DistResponse::Ready);
        match &responses[2] {
            DistResponse::Error { message } => assert!(message.contains("frame"), "{message}"),
            other => panic!("expected Error, got {other:?}"),
        }
        assert_eq!(
            responses[3],
            DistResponse::PairCounts {
                cells: vec![0; 1000]
            }
        );
        assert_eq!(responses[4], DistResponse::Bye);
    }

    #[test]
    fn empty_partition_counts_zero() {
        let responses = converse_over(
            "empty",
            "",
            &[
                DistRequest::CountCandidates {
                    pass: 2,
                    candidates: vec![Itemset::new(vec![Item::value(0, 0), Item::value(1, 0)])],
                },
                DistRequest::CountPairs {
                    pass: 2,
                    pairs: vec![(0, 1)],
                    window: 0..6,
                },
                DistRequest::Shutdown,
            ],
        );
        assert_eq!(responses[0], DistResponse::Counts { counts: vec![0] });
        assert_eq!(responses[1], DistResponse::PairCounts { cells: vec![0; 6] });
    }

    /// Candidates naming an unknown attribute or a code past the
    /// attribute's cardinality are soft errors: the worker answers
    /// `Error` and counts the next request exactly. (A repeated attribute
    /// cannot be scripted: `Itemset::new` and the wire decoder both
    /// refuse one.)
    #[test]
    fn bad_candidates_are_soft_errors() {
        let count = |candidates: Vec<Itemset>| DistRequest::CountCandidates {
            pass: 2,
            candidates,
        };
        let good = Itemset::new(vec![Item::value(0, 1), Item::value(1, 1)]);
        let responses = converse_over(
            "bad_candidates",
            FOUR_ROWS,
            &[
                count(vec![
                    good.clone(),
                    Itemset::new(vec![Item::value(0, 0), Item::value(7, 0)]),
                ]),
                count(vec![Itemset::new(vec![Item::range(0, 1, 3)])]),
                count(vec![Itemset::new(vec![Item::value(1, 2)])]),
                count(vec![good.clone()]),
                DistRequest::Shutdown,
            ],
        );
        let error = |r: &DistResponse, wanted: &str| match r {
            DistResponse::Error { message } => assert!(message.contains(wanted), "{message}"),
            other => panic!("expected Error, got {other:?}"),
        };
        error(&responses[0], "unknown attribute 7");
        error(&responses[1], "exceed cardinality 3 of attribute 0");
        error(&responses[2], "exceed cardinality 2 of attribute 1");
        assert_eq!(responses[3], DistResponse::Counts { counts: vec![1] });
        assert_eq!(responses[4], DistResponse::Bye);
    }
}

//! The worker side of count-distribution mining.
//!
//! A worker is a dumb, exact counter: it receives the table's schema and
//! encoders, holds a contiguous partition of encoded rows, and answers
//! counting requests with raw `u64` tallies over that
//! partition, counted through the [`InMemorySource`] every local mine
//! uses — never filtered by a support threshold, so the
//! coordinator's element-wise merge reproduces the serial counts
//! exactly. All policy (candidate generation, frequency, rules) stays on
//! the coordinator.
//!
//! The partition arrives one of two ways. A worker started with an input
//! file ([`WorkerOptions::input`]) parses the byte range of it a
//! `ParseRange` names, answers with the range's value histograms, and
//! encodes the parsed rows on the `Setup` that brings the encoders built
//! from every range's histograms. Otherwise `Setup` opens an empty
//! partition and `Rows` blocks of encoded rows fill it.
//!
//! Errors split two ways, mirroring the serve protocol's convention:
//! application-level problems (a range request without an input file or
//! over a file of another length, rows before setup, a code outside its
//! encoder's range, a candidate or pair list naming an unknown attribute,
//! a pair list repeating one, a candidate item outside its attribute's
//! codes, a pair list of more cells than one frame holds) become
//! [`DistResponse::Error`] replies and the connection lives on;
//! transport-level problems (corrupt frame, socket loss) terminate the
//! serve loop with a [`ProtocolError`].

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

/// How a worker runs: its threads, and the input file it may parse.
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

/// The accumulated partition: schema, encoders, and the code columns
/// received so far. Columns are kept raw until the first counting
/// request, then assembled once into an [`EncodedTable`] (no copy).
struct Partition {
    schema: Schema,
    encoders: Vec<AttributeEncoder>,
    columns: Vec<Vec<u32>>,
    rows: usize,
    encoded: Option<EncodedTable>,
}

impl Partition {
    fn new(schema: Schema, encoders: Vec<AttributeEncoder>) -> Self {
        let columns = vec![Vec::new(); schema.len()];
        Partition {
            schema,
            encoders,
            columns,
            rows: 0,
            encoded: None,
        }
    }

    /// A partition holding `table`, a parsed range of the same schema,
    /// encoded under `encoders` on up to `threads` threads.
    fn encoded(
        table: Table,
        encoders: Vec<AttributeEncoder>,
        threads: usize,
    ) -> Result<Self, String> {
        let schema = table.schema().clone();
        let rows = table.num_rows();
        let encoded = EncodedTable::encode_threaded(table, encoders.clone(), threads, &|| false)
            .map_err(|e| format!("encoding the parsed range: {e}"))?;
        Ok(Partition {
            schema,
            encoders,
            columns: Vec::new(),
            rows,
            encoded: Some(encoded),
        })
    }

    /// Append one row block; rejects shape and code-range violations
    /// (untrusted input — `EncodedTable::from_parts` does not check).
    fn append(&mut self, block: Vec<Vec<u32>>) -> Result<(), String> {
        if block.is_empty() {
            return Ok(()); // zero-row block
        }
        if block.len() != self.schema.len() {
            return Err(format!(
                "row block has {} columns, schema has {}",
                block.len(),
                self.schema.len()
            ));
        }
        for (i, col) in block.iter().enumerate() {
            let cardinality = self.encoders[i].cardinality();
            if let Some(&bad) = col.iter().find(|&&c| c >= cardinality) {
                return Err(format!(
                    "attribute {i}: code {bad} outside cardinality {cardinality}"
                ));
            }
        }
        // A block after counting began re-opens the raw columns (the
        // assembled table owns them by then).
        if let Some(encoded) = self.encoded.take() {
            self.columns = encoded.into_columns();
        }
        let added = block[0].len();
        for (col, add) in self.columns.iter_mut().zip(block) {
            col.extend_from_slice(&add);
        }
        self.rows += added;
        Ok(())
    }

    /// Answer a counting request over the partition through a local
    /// source, or say why it cannot be answered.
    fn count(
        &mut self,
        request: DistRequest,
        config: &MinerConfig,
    ) -> Result<DistResponse, String> {
        match &request {
            DistRequest::CountPairs { window, pairs, .. } => self.check_pairs(pairs, window)?,
            DistRequest::CountCandidates { candidates, .. } => self.check_candidates(candidates)?,
            _ => {}
        }
        let table = self.table();
        let mut source = InMemorySource::new(table, config);
        let cancelled = |_: CountError| "counting scan was cancelled".to_string();
        Ok(match request {
            DistRequest::CountItems => DistResponse::ItemCounts {
                counts: source.value_counts().map_err(cancelled)?,
            },
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

    /// Reject a `CountCandidates` whose candidates name an unknown
    /// attribute or hold a code past its attribute's cardinality (the
    /// wire decoder already refuses `lo > hi` and repeated attributes).
    fn check_candidates(&self, candidates: &[Itemset]) -> Result<(), String> {
        let cardinality = |attr: u32| self.encoders.get(attr as usize).map(|e| e.cardinality());
        for (c, candidate) in candidates.iter().enumerate() {
            candidate
                .check_codes(cardinality)
                .map_err(|e| format!("candidate {c} {e}"))?;
        }
        Ok(())
    }

    /// Reject a `CountPairs` whose pairs name an unknown or repeated
    /// attribute, or whose window runs past the pairs' cells or holds
    /// more than one frame.
    fn check_pairs(&self, pairs: &[(u32, u32)], window: &Range<u64>) -> Result<(), String> {
        let mut cells = 0usize;
        for &(a, b) in pairs {
            let card = |attr: u32| {
                self.encoders
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

    /// The partition as a scannable table, assembled on first use.
    fn table(&mut self) -> &EncodedTable {
        if self.encoded.is_none() {
            let columns = std::mem::take(&mut self.columns);
            self.encoded = Some(EncodedTable::from_parts(
                self.schema.clone(),
                self.encoders.clone(),
                columns,
                self.rows,
            ));
        }
        self.encoded.as_ref().expect("assembled above")
    }
}

/// One coordinator connection's state: the scan settings, the input file,
/// the range parsed but not yet encoded, and the partition.
pub(crate) struct Worker {
    config: MinerConfig,
    input: Option<PathBuf>,
    parsed: Option<Table>,
    partition: Option<Partition>,
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
        let threads = self.config.effective_parallelism();
        let reply = match (request, &mut self.partition) {
            (
                DistRequest::ParseRange {
                    schema,
                    file_len,
                    range,
                    deadline_ms,
                },
                partition,
            ) => {
                *partition = None;
                self.parsed = None;
                self.parse_range(&schema, file_len, range, deadline_ms)
            }
            (DistRequest::Setup { schema, encoders }, partition) => {
                let loaded = match self.parsed.take() {
                    Some(table) if *table.schema() != schema => {
                        Err("setup names another schema than the parsed range's".to_string())
                    }
                    Some(table) => Partition::encoded(table, encoders, threads),
                    None => Ok(Partition::new(schema, encoders)),
                };
                loaded.map(|loaded| {
                    *partition = Some(loaded);
                    DistResponse::Ready
                })
            }
            (DistRequest::Shutdown, _) => Ok(DistResponse::Bye),
            (DistRequest::Rows { .. }, None) => Err("rows before setup".to_string()),
            (DistRequest::Rows { columns }, Some(p)) => {
                p.append(columns).map(|()| DistResponse::RowsLoaded {
                    total_rows: p.rows as u64,
                })
            }
            (_, None) => Err("count before setup".to_string()),
            (request, Some(p)) => p.count(request, &self.config),
        };
        reply.unwrap_or_else(|message| DistResponse::Error { message })
    }

    /// Parse `range` of the input file, keep its rows for the `Setup` to
    /// come, and reply with its value histograms; a range holding a quote
    /// byte is answered `quoted`, a record that fails with its line.
    fn parse_range(
        &mut self,
        schema: &Schema,
        file_len: u64,
        range: Range<u64>,
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
        let read = match csv::read_range(&file, schema, range, threads, &cancelled) {
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

    fn parse_all(schema: &Schema, path: &std::path::Path, deadline_ms: Option<u32>) -> DistRequest {
        let len = std::fs::metadata(path).unwrap().len();
        DistRequest::ParseRange {
            schema: schema.clone(),
            file_len: len,
            range: "age,married\n".len() as u64..len,
            deadline_ms,
        }
    }

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
                DistRequest::CountItems,
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
        assert_eq!(
            responses[2],
            DistResponse::ItemCounts {
                counts: vec![vec![1, 2, 0], vec![1, 2]],
            }
        );
    }

    /// A range holding a quote is not parsed; a bad record is named by its
    /// line within the range; a `Setup` of another schema than the parsed
    /// range's is refused, and a worker without an input file, or whose
    /// file is not the coordinator's length, answers `Error`.
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
        let quoted_replies = converse_with(&with(&quoted), &[parse_all(&schema, &quoted, None)]);
        let bad_replies = converse_with(
            &with(&bad),
            &[
                parse_all(&schema, &bad, None),
                DistRequest::ParseRange {
                    schema: schema.clone(),
                    file_len: 999,
                    range: 0..0,
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
                    range: "age,married\n".len() as u64.."age,married\n".len() as u64,
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
        let responses = converse(&[
            DistRequest::Setup { schema, encoders },
            DistRequest::Rows {
                columns: vec![vec![0, 1, 1], vec![1, 1, 0]],
            },
            DistRequest::Rows {
                columns: vec![vec![2], vec![1]],
            },
            DistRequest::CountItems,
            DistRequest::CountCandidates {
                pass: 2,
                candidates: vec![
                    Itemset::new(vec![Item::value(0, 1), Item::value(1, 1)]),
                    Itemset::new(vec![Item::value(0, 0), Item::value(1, 0)]),
                ],
            },
            DistRequest::Shutdown,
        ]);
        assert_eq!(
            responses,
            vec![
                DistResponse::Ready,
                DistResponse::RowsLoaded { total_rows: 3 },
                DistResponse::RowsLoaded { total_rows: 4 },
                DistResponse::ItemCounts {
                    counts: vec![vec![1, 2, 1], vec![1, 3]],
                },
                DistResponse::Counts { counts: vec![1, 0] },
                DistResponse::Bye,
            ]
        );
    }

    #[test]
    fn protocol_violations_are_soft_errors() {
        let (schema, encoders) = schema_and_encoders();
        let responses = converse(&[
            DistRequest::Rows {
                columns: vec![vec![0]],
            },
            DistRequest::CountItems,
            DistRequest::Setup {
                schema: schema.clone(),
                encoders: encoders.clone(),
            },
            DistRequest::Rows {
                columns: vec![vec![0]], // one column, schema has two
            },
            DistRequest::Rows {
                columns: vec![vec![99], vec![0]], // code out of range
            },
            DistRequest::Rows {
                columns: vec![vec![0], vec![1]],
            },
            DistRequest::Shutdown,
        ]);
        assert!(matches!(responses[0], DistResponse::Error { .. }));
        assert!(matches!(responses[1], DistResponse::Error { .. }));
        assert_eq!(responses[2], DistResponse::Ready);
        assert!(matches!(responses[3], DistResponse::Error { .. }));
        assert!(matches!(responses[4], DistResponse::Error { .. }));
        // The partition survives bad blocks untouched.
        assert_eq!(responses[5], DistResponse::RowsLoaded { total_rows: 1 });
        assert_eq!(responses[6], DistResponse::Bye);
    }

    #[test]
    fn pair_histograms_count_exactly() {
        let (schema, encoders) = schema_and_encoders();
        let responses = converse(&[
            DistRequest::Setup { schema, encoders },
            DistRequest::Rows {
                columns: vec![vec![0, 1, 1, 2], vec![1, 1, 0, 1]],
            },
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
        ]);
        // age (3 codes) × married (2 codes), then married × age.
        assert_eq!(
            responses[2],
            DistResponse::PairCounts {
                cells: vec![0, 1, 1, 1, 0, 1, 0, 1, 0, 1, 1, 1],
            }
        );
        // A window across the pairs' boundary.
        assert_eq!(
            responses[3],
            DistResponse::PairCounts {
                cells: vec![0, 1, 0, 1, 0],
            }
        );
    }

    /// Bad pair lists are soft errors: the worker answers `Error` and
    /// keeps serving the same connection.
    #[test]
    fn bad_pair_requests_are_soft_errors() {
        let (schema, encoders) = schema_and_encoders();
        let wide = Schema::builder()
            .categorical("x")
            .categorical("y")
            .build()
            .unwrap();
        let labels = |n: usize| AttributeEncoder::Categorical {
            labels: (0..n).map(|i| format!("v{i:04}")).collect(),
        };
        let responses = converse(&[
            DistRequest::CountPairs {
                pass: 2,
                pairs: vec![(0, 1)],
                window: 0..6,
            },
            DistRequest::Setup { schema, encoders },
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
            // 1500 × 1500 cells do not fit one response frame; a window
            // of them does.
            DistRequest::Setup {
                schema: wide,
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
            DistRequest::CountItems,
            DistRequest::Shutdown,
        ]);
        assert!(matches!(responses[0], DistResponse::Error { .. }));
        assert!(matches!(responses[2], DistResponse::Error { .. }));
        assert!(matches!(responses[3], DistResponse::Error { .. }));
        assert_eq!(responses[4], DistResponse::PairCounts { cells: vec![0; 6] });
        match &responses[5] {
            DistResponse::Error { message } => assert!(message.contains("past"), "{message}"),
            other => panic!("expected Error, got {other:?}"),
        }
        assert_eq!(responses[6], DistResponse::Ready);
        match &responses[7] {
            DistResponse::Error { message } => assert!(message.contains("frame"), "{message}"),
            other => panic!("expected Error, got {other:?}"),
        }
        assert_eq!(
            responses[8],
            DistResponse::PairCounts {
                cells: vec![0; 1000]
            }
        );
        assert!(matches!(responses[9], DistResponse::ItemCounts { .. }));
        assert_eq!(responses[10], DistResponse::Bye);
    }

    #[test]
    fn empty_partition_counts_zero() {
        let (schema, encoders) = schema_and_encoders();
        let responses = converse(&[
            DistRequest::Setup { schema, encoders },
            DistRequest::CountItems,
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
        ]);
        assert_eq!(
            responses[1],
            DistResponse::ItemCounts {
                counts: vec![vec![0, 0, 0], vec![0, 0]],
            }
        );
        assert_eq!(responses[2], DistResponse::Counts { counts: vec![0] });
        assert_eq!(responses[3], DistResponse::PairCounts { cells: vec![0; 6] });
    }

    /// Candidates naming an unknown attribute or a code past the
    /// attribute's cardinality are soft errors: the worker answers
    /// `Error` and counts the next request exactly. (A repeated attribute
    /// cannot be scripted: `Itemset::new` and the wire decoder both
    /// refuse one.)
    #[test]
    fn bad_candidates_are_soft_errors() {
        let (schema, encoders) = schema_and_encoders();
        let count = |candidates: Vec<Itemset>| DistRequest::CountCandidates {
            pass: 2,
            candidates,
        };
        let good = Itemset::new(vec![Item::value(0, 1), Item::value(1, 1)]);
        let responses = converse(&[
            DistRequest::Setup { schema, encoders },
            DistRequest::Rows {
                columns: vec![vec![0, 1, 1, 2], vec![1, 1, 0, 1]],
            },
            count(vec![
                good.clone(),
                Itemset::new(vec![Item::value(0, 0), Item::value(7, 0)]),
            ]),
            count(vec![Itemset::new(vec![Item::range(0, 1, 3)])]),
            count(vec![Itemset::new(vec![Item::value(1, 2)])]),
            count(vec![good.clone()]),
            DistRequest::Shutdown,
        ]);
        let error = |r: &DistResponse, wanted: &str| match r {
            DistResponse::Error { message } => assert!(message.contains(wanted), "{message}"),
            other => panic!("expected Error, got {other:?}"),
        };
        error(&responses[2], "unknown attribute 7");
        error(&responses[3], "exceed cardinality 3 of attribute 0");
        error(&responses[4], "exceed cardinality 2 of attribute 1");
        assert_eq!(responses[5], DistResponse::Counts { counts: vec![1] });
        assert_eq!(responses[6], DistResponse::Bye);
    }
}

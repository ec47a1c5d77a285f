//! The worker side of count-distribution mining.
//!
//! A worker is a dumb, exact counter: it receives the table's schema and
//! encoders, accumulates a contiguous partition of already-encoded rows,
//! and answers counting requests with raw `u64` tallies over that
//! partition, counted through the [`InMemorySource`] every local mine
//! uses — never filtered by a support threshold, so the
//! coordinator's element-wise merge reproduces the serial counts
//! exactly. All policy (candidate generation, frequency, rules) stays on
//! the coordinator.
//!
//! Errors split two ways, mirroring the serve protocol's convention:
//! application-level problems (rows before setup, a code outside its
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
use qar_table::{AttributeEncoder, EncodedTable, Schema};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::num::NonZeroUsize;
use std::ops::Range;

/// Tuning knobs for a worker's counting scans. They affect speed only —
/// counts are exact under every thread count.
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkerOptions {
    /// Threads per counting scan; `0` picks the machine default (the
    /// same resolution [`MinerConfig::effective_parallelism`] applies).
    pub num_threads: usize,
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

/// One coordinator connection's state: the scan settings and the
/// partition received so far.
pub(crate) struct Worker {
    config: MinerConfig,
    partition: Option<Partition>,
}

impl Worker {
    pub(crate) fn new(opts: &WorkerOptions) -> Self {
        Worker {
            config: MinerConfig {
                parallelism: NonZeroUsize::new(opts.num_threads),
                ..MinerConfig::default()
            },
            partition: None,
        }
    }

    /// The reply to `request` (`Bye` to `Shutdown`).
    pub(crate) fn respond(&mut self, request: DistRequest) -> DistResponse {
        let reply = match (request, &mut self.partition) {
            (DistRequest::Setup { schema, encoders }, partition) => {
                *partition = Some(Partition::new(schema, encoders));
                Ok(DistResponse::Ready)
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
        serve_connection(&mut stream, &WorkerOptions::default()).unwrap();
        let mut cursor = Cursor::new(stream.output);
        let mut responses = Vec::new();
        while let Some(response) = read_response(&mut cursor).unwrap() {
            responses.push(response);
        }
        responses
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

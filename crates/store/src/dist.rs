//! The count-distribution wire protocol: coordinator ↔ worker messages
//! for distributed mining, on the same length-prefixed CRC-framed
//! transport as the `qar serve` protocol ([`mod@crate::protocol`]).
//!
//! Request tags count from 21 and responses from 121, disjoint from the
//! serve protocol's 1../101.. ranges, so a worker frame replayed at a
//! rule server (or vice versa) is an [`ProtocolError::UnknownTag`] —
//! never a confused decode. Schema/encoder and itemset payloads reuse
//! the `.qarcat` section codecs byte-for-byte, so a worker's view of the
//! table is exactly what a catalog would persist.
//!
//! The conversation (driven entirely by the coordinator):
//!
//! ```text
//! ParseRange {schema, file_len, range, records, deadline_ms}
//!                                 → RangeParsed {rows, lines, quoted, histograms}
//!                                   or RangeFailed {line, bad_number, text}
//! Setup {schema, encoders}        → Ready or Unencodable {attribute, value}
//! CountPairs {pass, pairs, window} → PairCounts {cells}      (pass 2)
//! CountCandidates {pass, cands}   → Counts {counts}           (pass k ≥ 2)
//! Shutdown                        → Bye
//! ```
//!
//! A worker is started with an input file of its own (`qar worker --input
//! FILE`; the path never travels on the wire). It answers `ParseRange` by
//! parsing that byte range of the file and replying with its value
//! histograms, and the `Setup` that follows encodes the parsed rows under
//! the coordinator's encoders, or names the first value they cannot
//! encode. A range cut at newlines alone may start or end inside a quoted
//! field, so such a range holding a `"` byte is not parsed (`quoted`);
//! the coordinator then cuts the file at record ends and sends every
//! range again with `records` set, and the worker reads its quoted fields.
//!
//! Pass 1 takes no request: the coordinator sums its counts from the
//! ranges' merged histograms. Its `CountItems`/`ItemCounts` pair (tags 23
//! and 123) is retired, as the row stream's `Rows`/`RowsLoaded` (22 and
//! 122) was; those tags decode as unknown.
//!
//! Pass 2 ships 2-D histograms instead of candidates: `CountPairs` names
//! attribute pairs and a window of their cells, and the worker answers
//! that window of the pairs' raw `card(a) × card(b)` cell arrays (see
//! `qar_core::supercand::PairHistograms`), concatenated in request order.
//! A pair too large for one frame is asked for a window at a time; a
//! window that would not fit one response frame ([`MAX_PAIR_CELLS`]) or
//! runs past the pairs' cells is refused with `Error`.
//!
//! Every count a worker returns is the *raw* tally over its own row
//! partition — never filtered by a support threshold — so the
//! coordinator merges by element-wise `u64` addition and decides
//! frequency globally (the count-distribution invariant that makes the
//! distributed result bit-identical to the serial miner's).
//!
//! Large inputs are the caller's problem by design: a candidate batch
//! that would overflow [`crate::protocol::MAX_PAYLOAD`] is a structured
//! [`ProtocolError::Oversized`] at encode time, and `qar-dist` splits
//! its batches to stay under the ceiling.

use crate::catalog::{
    decode_itemset, decode_schema, encode_itemset, encode_schema_with, validate_catalog_encoders,
};
use crate::format::{Reader, Writer};
use crate::protocol::{encode_frame, read_frame, ProtocolError, MAX_PAYLOAD};
use qar_itemset::Itemset;
use qar_table::{
    AttributeDef, AttributeEncoder, AttributeKind, CatHistogram, Histogram, QuantHistogram, Schema,
};
use std::io::{Read, Write};
use std::ops::Range;

/// Message tags for the distributed-mining protocol. Requests count from
/// 21, responses from 121 (see module docs).
pub mod tag {
    /// Schema + encoders for the table being mined.
    pub const REQ_SETUP: u32 = 21;
    /// Count one batch of candidate itemsets (pass k ≥ 2).
    pub const REQ_COUNT_CANDIDATES: u32 = 24;
    /// Stop the worker; it replies and exits.
    pub const REQ_SHUTDOWN: u32 = 25;
    /// Count the 2-D histograms of a list of attribute pairs (pass 2).
    pub const REQ_COUNT_PAIRS: u32 = 26;
    /// Parse a byte range of the worker's input file.
    pub const REQ_PARSE_RANGE: u32 = 27;

    /// Setup accepted.
    pub const RESP_READY: u32 = 121;
    /// Raw candidate counts answering [`REQ_COUNT_CANDIDATES`].
    pub const RESP_COUNTS: u32 = 124;
    /// Acknowledges [`REQ_SHUTDOWN`]; the connection closes after.
    pub const RESP_BYE: u32 = 125;
    /// The worker failed; carries a human-readable reason.
    pub const RESP_ERROR: u32 = 126;
    /// Raw histogram cells answering [`REQ_COUNT_PAIRS`].
    pub const RESP_PAIR_COUNTS: u32 = 127;
    /// The parsed range's counts and value histograms, answering
    /// [`REQ_PARSE_RANGE`].
    pub const RESP_RANGE_PARSED: u32 = 128;
    /// The record of the range that failed to parse, answering
    /// [`REQ_PARSE_RANGE`].
    pub const RESP_RANGE_FAILED: u32 = 129;
    /// The first value of the parsed range the encoders cannot encode,
    /// answering [`REQ_SETUP`].
    pub const RESP_UNENCODABLE: u32 = 130;
}

/// Most histogram cells one [`DistResponse::PairCounts`] frame holds: the
/// payload is a `u64` cell count followed by one `u64` per cell.
pub const MAX_PAIR_CELLS: usize = (MAX_PAYLOAD as usize - 8) / 8;

/// A coordinator → worker message.
#[derive(Debug, Clone, PartialEq)]
pub enum DistRequest {
    /// Announce the table: schema and per-attribute encoders, under
    /// which the worker encodes the range it parsed last.
    Setup {
        /// Attribute declarations, in table order.
        schema: Schema,
        /// One encoder per attribute, in schema order.
        encoders: Vec<AttributeEncoder>,
    },
    /// Count a batch of candidate itemsets over the partition.
    CountCandidates {
        /// Pass number `k ≥ 2` (diagnostic; echoed in traces).
        pass: u32,
        /// The candidates, in coordinator order.
        candidates: Vec<Itemset>,
    },
    /// Count the 2-D histograms of attribute pairs over the partition.
    CountPairs {
        /// Pass number (diagnostic, like `CountCandidates`).
        pass: u32,
        /// `(a, b)` attribute pairs, `a != b`; cells come back in this
        /// order.
        pairs: Vec<(u32, u32)>,
        /// The cells to count: this range of the pairs' concatenated
        /// row-major arrays (`0..Σ card(a)·card(b)` for all of them).
        window: std::ops::Range<u64>,
    },
    /// Parse a byte range of the worker's input file: whole lines after
    /// its header, none of them the coordinator's. Resets any partition.
    ParseRange {
        /// Attribute declarations, in table order; the file's header is
        /// matched against them by name.
        schema: Schema,
        /// The file's length as the coordinator sees it. A worker whose
        /// file differs answers `Error`.
        file_len: u64,
        /// The bytes to parse.
        range: Range<u64>,
        /// The range's ends are record ends, so its quoted fields are
        /// read; without it a range holding a `"` byte is not parsed.
        records: bool,
        /// Milliseconds left before the run's deadline, if it has one:
        /// the worker stops parsing then.
        deadline_ms: Option<u32>,
    },
    /// Stop the worker.
    Shutdown,
}

/// A worker → coordinator message.
#[derive(Debug, Clone, PartialEq)]
pub enum DistResponse {
    /// Setup accepted: the worker's rows are encoded.
    Ready,
    /// Setup refused: a cell of the parsed range falls outside its
    /// attribute's encoder, the first one the encoders' column-by-column
    /// encode meets.
    Unencodable {
        /// The lowest attribute holding such a cell, in schema order.
        attribute: u32,
        /// Its first such cell, as the serial encode's error shows it.
        value: String,
    },
    /// Candidate counts, aligned with the request's candidate order —
    /// raw tallies over the worker's partition.
    Counts {
        /// One count per candidate.
        counts: Vec<u64>,
    },
    /// Histogram cells answering `CountPairs`: the requested window of
    /// the pairs' concatenated row-major `(code_a, code_b)` arrays, raw
    /// tallies over the worker's partition.
    PairCounts {
        /// All cells.
        cells: Vec<u64>,
    },
    /// The range parsed: its counts and value histograms, or, when
    /// `quoted`, none of them.
    RangeParsed {
        /// Records in the range.
        rows: u64,
        /// Physical lines the range spans.
        lines: u64,
        /// The range held a `"` byte, so the worker did not parse it;
        /// `rows` and `lines` are 0 and `histograms` empty.
        quoted: bool,
        /// One value histogram per attribute, schema order, each counting
        /// `rows` cells.
        histograms: Vec<Histogram>,
    },
    /// A record of the range failed to parse.
    RangeFailed {
        /// The record's first line, the range's first line being line 1.
        line: u64,
        /// A quantitative cell is not a number (`text` is the cell); else
        /// the record is malformed (`text` says how).
        bad_number: bool,
        /// The cell or the reason.
        text: String,
    },
    /// Shutdown acknowledged.
    Bye,
    /// The worker could not serve the request.
    Error {
        /// Human-readable reason.
        message: String,
    },
}

impl DistRequest {
    /// The frame tag for this message.
    pub fn tag(&self) -> u32 {
        match self {
            DistRequest::Setup { .. } => tag::REQ_SETUP,
            DistRequest::CountCandidates { .. } => tag::REQ_COUNT_CANDIDATES,
            DistRequest::CountPairs { .. } => tag::REQ_COUNT_PAIRS,
            DistRequest::ParseRange { .. } => tag::REQ_PARSE_RANGE,
            DistRequest::Shutdown => tag::REQ_SHUTDOWN,
        }
    }

    /// Encode the payload (everything after the frame header).
    pub fn payload(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            DistRequest::Setup { schema, encoders } => {
                return encode_schema_with(schema, encoders);
            }
            DistRequest::CountCandidates { pass, candidates } => {
                w.put_u32(*pass);
                w.put_u64(candidates.len() as u64);
                for c in candidates {
                    encode_itemset(&mut w, c);
                }
            }
            DistRequest::CountPairs {
                pass,
                pairs,
                window,
            } => {
                w.put_u32(*pass);
                w.put_u64(pairs.len() as u64);
                for &(a, b) in pairs {
                    w.put_u32(a);
                    w.put_u32(b);
                }
                w.put_u64(window.start);
                w.put_u64(window.end);
            }
            DistRequest::ParseRange {
                schema,
                file_len,
                range,
                records,
                deadline_ms,
            } => {
                w.put_u64(schema.len() as u64);
                for def in schema.attributes() {
                    w.put_str(def.name());
                    w.put_bool(def.kind() == AttributeKind::Categorical);
                }
                w.put_u64(*file_len);
                w.put_u64(range.start);
                w.put_u64(range.end);
                w.put_bool(*records);
                match deadline_ms {
                    Some(ms) => {
                        w.put_bool(true);
                        w.put_u32(*ms);
                    }
                    None => w.put_bool(false),
                }
            }
            DistRequest::Shutdown => {}
        }
        w.into_bytes()
    }

    /// Encode as a complete frame. [`ProtocolError::Oversized`] when the
    /// payload exceeds [`crate::protocol::MAX_PAYLOAD`].
    pub fn to_frame(&self) -> Result<Vec<u8>, ProtocolError> {
        encode_frame(self.tag(), &self.payload())
    }

    /// Decode from a frame's tag + payload. Strict: the payload must be
    /// consumed exactly.
    pub fn decode(tag_: u32, payload: &[u8]) -> Result<DistRequest, ProtocolError> {
        let mut r = Reader::new(payload);
        let req = match tag_ {
            tag::REQ_SETUP => {
                let (schema, encoders) = decode_schema(payload)?;
                validate_catalog_encoders(&schema, &encoders)?;
                return Ok(DistRequest::Setup { schema, encoders });
            }
            tag::REQ_COUNT_CANDIDATES => {
                let pass = r.get_u32()?;
                // An itemset is at least its length prefix + one item.
                let n = r.get_count(8 + 12)?;
                let mut candidates = Vec::with_capacity(n);
                for _ in 0..n {
                    candidates.push(decode_itemset(&mut r)?);
                }
                DistRequest::CountCandidates { pass, candidates }
            }
            tag::REQ_COUNT_PAIRS => {
                let pass = r.get_u32()?;
                let n = r.get_count(8)?;
                let mut pairs = Vec::with_capacity(n);
                for _ in 0..n {
                    pairs.push((r.get_u32()?, r.get_u32()?));
                }
                let window = r.get_u64()?..r.get_u64()?;
                if window.start > window.end {
                    return Err(ProtocolError::Corrupt {
                        detail: format!("cell window {window:?} ends before it starts"),
                    });
                }
                DistRequest::CountPairs {
                    pass,
                    pairs,
                    window,
                }
            }
            tag::REQ_PARSE_RANGE => {
                // A declaration is at least its name's length prefix and
                // its kind byte.
                let n = r.get_count(9)?;
                let mut defs = Vec::with_capacity(n);
                for _ in 0..n {
                    let name = r.get_str()?;
                    defs.push(match r.get_bool()? {
                        true => AttributeDef::categorical(name),
                        false => AttributeDef::quantitative(name),
                    });
                }
                let schema = Schema::new(defs).map_err(|e| ProtocolError::Corrupt {
                    detail: format!("range schema: {e}"),
                })?;
                let file_len = r.get_u64()?;
                let range = r.get_u64()?..r.get_u64()?;
                if range.start > range.end || range.end > file_len {
                    return Err(ProtocolError::Corrupt {
                        detail: format!("byte range {range:?} of a {file_len}-byte file"),
                    });
                }
                let records = r.get_bool()?;
                let deadline_ms = if r.get_bool()? {
                    Some(r.get_u32()?)
                } else {
                    None
                };
                DistRequest::ParseRange {
                    schema,
                    file_len,
                    range,
                    records,
                    deadline_ms,
                }
            }
            tag::REQ_SHUTDOWN => DistRequest::Shutdown,
            other => return Err(ProtocolError::UnknownTag(other)),
        };
        finish(r)?;
        Ok(req)
    }
}

impl DistResponse {
    /// The frame tag for this message.
    pub fn tag(&self) -> u32 {
        match self {
            DistResponse::Ready => tag::RESP_READY,
            DistResponse::Unencodable { .. } => tag::RESP_UNENCODABLE,
            DistResponse::Counts { .. } => tag::RESP_COUNTS,
            DistResponse::PairCounts { .. } => tag::RESP_PAIR_COUNTS,
            DistResponse::RangeParsed { .. } => tag::RESP_RANGE_PARSED,
            DistResponse::RangeFailed { .. } => tag::RESP_RANGE_FAILED,
            DistResponse::Bye => tag::RESP_BYE,
            DistResponse::Error { .. } => tag::RESP_ERROR,
        }
    }

    /// Encode the payload (everything after the frame header).
    pub fn payload(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            DistResponse::Ready | DistResponse::Bye => {}
            DistResponse::Unencodable { attribute, value } => {
                w.put_u32(*attribute);
                w.put_str(value);
            }
            DistResponse::Counts { counts: cells } | DistResponse::PairCounts { cells } => {
                w.put_u64(cells.len() as u64);
                for &c in cells {
                    w.put_u64(c);
                }
            }
            DistResponse::RangeParsed {
                rows,
                lines,
                quoted,
                histograms,
            } => {
                w.put_u64(*rows);
                w.put_u64(*lines);
                w.put_bool(*quoted);
                w.put_u64(histograms.len() as u64);
                for histogram in histograms {
                    put_histogram(&mut w, histogram);
                }
            }
            DistResponse::RangeFailed {
                line,
                bad_number,
                text,
            } => {
                w.put_u64(*line);
                w.put_bool(*bad_number);
                w.put_str(text);
            }
            DistResponse::Error { message } => w.put_str(message),
        }
        w.into_bytes()
    }

    /// Encode as a complete frame. [`ProtocolError::Oversized`] when the
    /// payload exceeds [`crate::protocol::MAX_PAYLOAD`].
    pub fn to_frame(&self) -> Result<Vec<u8>, ProtocolError> {
        encode_frame(self.tag(), &self.payload())
    }

    /// Decode from a frame's tag + payload. Strict: the payload must be
    /// consumed exactly.
    pub fn decode(tag_: u32, payload: &[u8]) -> Result<DistResponse, ProtocolError> {
        let mut r = Reader::new(payload);
        let resp = match tag_ {
            tag::RESP_READY => DistResponse::Ready,
            tag::RESP_UNENCODABLE => DistResponse::Unencodable {
                attribute: r.get_u32()?,
                value: r.get_str()?,
            },
            tag::RESP_COUNTS => DistResponse::Counts {
                counts: get_u64s(&mut r)?,
            },
            tag::RESP_PAIR_COUNTS => DistResponse::PairCounts {
                cells: get_u64s(&mut r)?,
            },
            tag::RESP_RANGE_PARSED => {
                let rows = r.get_u64()?;
                let lines = r.get_u64()?;
                let quoted = r.get_bool()?;
                // A histogram is at least its kind byte and length prefix.
                let n = r.get_count(9)?;
                let mut histograms = Vec::with_capacity(n);
                for _ in 0..n {
                    histograms.push(get_histogram(&mut r, rows)?);
                }
                if quoted && (rows, lines, n) != (0, 0, 0) {
                    return Err(ProtocolError::Corrupt {
                        detail: "a quoted range carries counts".to_string(),
                    });
                }
                DistResponse::RangeParsed {
                    rows,
                    lines,
                    quoted,
                    histograms,
                }
            }
            tag::RESP_RANGE_FAILED => {
                let line = r.get_u64()?;
                if line == 0 {
                    return Err(ProtocolError::Corrupt {
                        detail: "a failed record on line 0".to_string(),
                    });
                }
                DistResponse::RangeFailed {
                    line,
                    bad_number: r.get_bool()?,
                    text: r.get_str()?,
                }
            }
            tag::RESP_BYE => DistResponse::Bye,
            tag::RESP_ERROR => DistResponse::Error {
                message: r.get_str()?,
            },
            other => return Err(ProtocolError::UnknownTag(other)),
        };
        finish(r)?;
        Ok(resp)
    }
}

/// A length-prefixed `u64` vector.
fn get_u64s(r: &mut Reader<'_>) -> Result<Vec<u64>, ProtocolError> {
    let n = r.get_count(8)?;
    let mut values = Vec::with_capacity(n);
    for _ in 0..n {
        values.push(r.get_u64()?);
    }
    Ok(values)
}

/// Append one value histogram: its kind byte (0 quantitative, 1
/// categorical), its length, its values or labels, then its counts.
fn put_histogram(w: &mut Writer, histogram: &Histogram) {
    let counts = match histogram {
        Histogram::Quantitative(h) => {
            w.put_u8(0);
            w.put_u64(h.len() as u64);
            for &v in h.values() {
                w.put_f64(v);
            }
            h.counts()
        }
        Histogram::Categorical(h) => {
            w.put_u8(1);
            w.put_u64(h.labels().len() as u64);
            for label in h.labels() {
                w.put_str(label);
            }
            h.counts()
        }
    };
    for &c in counts {
        w.put_u64(c);
    }
}

/// Read one value histogram of a range of `rows` records. Strict: its
/// values or labels must ascend strictly, its counts be positive and add
/// up to `rows`, and its values be finite, as a column's are.
fn get_histogram(r: &mut Reader<'_>, rows: u64) -> Result<Histogram, ProtocolError> {
    let corrupt = |detail: &str| ProtocolError::Corrupt {
        detail: format!("range histogram: {detail}"),
    };
    let kind = r.get_u8()?;
    let histogram = match kind {
        0 => {
            let n = r.get_count(16)?;
            let values = (0..n).map(|_| r.get_f64()).collect::<Result<Vec<_>, _>>()?;
            let counts = get_counts(r, n)?;
            QuantHistogram::from_counts(values, counts).map(Histogram::Quantitative)
        }
        1 => {
            let n = r.get_count(16)?;
            let labels = (0..n).map(|_| r.get_str()).collect::<Result<Vec<_>, _>>()?;
            let counts = get_counts(r, n)?;
            CatHistogram::from_counts(labels, counts).map(Histogram::Categorical)
        }
        other => return Err(corrupt(&format!("kind byte {other}"))),
    }
    .ok_or_else(|| corrupt("not the histogram of a column"))?;
    let counts = match &histogram {
        Histogram::Quantitative(h) => h.counts(),
        Histogram::Categorical(h) => h.counts(),
    };
    let total = counts.iter().try_fold(0u64, |sum, &c| sum.checked_add(c));
    if total != Some(rows) {
        return Err(corrupt(&format!("counts do not add up to {rows} rows")));
    }
    Ok(histogram)
}

/// `n` counts.
fn get_counts(r: &mut Reader<'_>, n: usize) -> Result<Vec<u64>, ProtocolError> {
    (0..n).map(|_| Ok(r.get_u64()?)).collect()
}

/// Reject unconsumed payload bytes (canonical decode).
fn finish(r: Reader<'_>) -> Result<(), ProtocolError> {
    if r.remaining() > 0 {
        return Err(ProtocolError::TrailingBytes { offset: r.pos() });
    }
    Ok(())
}

/// Write one request frame to a stream.
pub fn write_request<W: Write>(w: &mut W, request: &DistRequest) -> Result<(), ProtocolError> {
    w.write_all(&request.to_frame()?)?;
    Ok(())
}

/// Write one response frame to a stream.
pub fn write_response<W: Write>(w: &mut W, response: &DistResponse) -> Result<(), ProtocolError> {
    w.write_all(&response.to_frame()?)?;
    Ok(())
}

/// Read the next request from a stream; `Ok(None)` is a clean EOF at a
/// frame boundary.
pub fn read_request<R: Read>(r: &mut R) -> Result<Option<DistRequest>, ProtocolError> {
    match read_frame(r)? {
        Some((tag_, payload)) => Ok(Some(DistRequest::decode(tag_, &payload)?)),
        None => Ok(None),
    }
}

/// Read the next response from a stream; `Ok(None)` is a clean EOF at a
/// frame boundary.
pub fn read_response<R: Read>(r: &mut R) -> Result<Option<DistResponse>, ProtocolError> {
    match read_frame(r)? {
        Some((tag_, payload)) => Ok(Some(DistResponse::decode(tag_, &payload)?)),
        None => Ok(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::decode_frame;
    use qar_itemset::Item;
    use qar_table::Schema;

    fn sample_schema() -> (Schema, Vec<AttributeEncoder>) {
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

    fn sample_requests() -> Vec<DistRequest> {
        let (schema, encoders) = sample_schema();
        vec![
            DistRequest::Setup { schema, encoders },
            DistRequest::CountCandidates {
                pass: 2,
                candidates: vec![
                    Itemset::new(vec![Item::range(0, 0, 1), Item::value(1, 1)]),
                    Itemset::new(vec![Item::value(0, 2), Item::value(1, 0)]),
                ],
            },
            DistRequest::CountPairs {
                pass: 2,
                pairs: vec![(0, 1)],
                window: 0..6,
            },
            DistRequest::CountPairs {
                pass: 2,
                pairs: vec![(0, 1)],
                window: 2..5,
            },
            DistRequest::CountPairs {
                pass: 2,
                pairs: Vec::new(),
                window: 0..0,
            },
            DistRequest::ParseRange {
                schema: sample_schema().0,
                file_len: 100,
                range: 17..60,
                records: false,
                deadline_ms: Some(250),
            },
            DistRequest::ParseRange {
                schema: sample_schema().0,
                file_len: 100,
                range: 100..100,
                records: true,
                deadline_ms: None,
            },
            DistRequest::Shutdown,
        ]
    }

    fn sample_histograms() -> Vec<Histogram> {
        vec![
            Histogram::Quantitative(QuantHistogram::from_values(&[20.0, 30.5, 20.0])),
            Histogram::Categorical(CatHistogram::from_labels(&["Yes", "No", "Yes"])),
        ]
    }

    fn sample_responses() -> Vec<DistResponse> {
        vec![
            DistResponse::Ready,
            DistResponse::Unencodable {
                attribute: 1,
                value: "Divorced".to_string(),
            },
            DistResponse::Counts {
                counts: vec![2, 0, 17],
            },
            DistResponse::PairCounts {
                cells: vec![1, 0, 0, 2, 0, u64::MAX],
            },
            DistResponse::PairCounts { cells: Vec::new() },
            DistResponse::RangeParsed {
                rows: 3,
                lines: 4,
                quoted: false,
                histograms: sample_histograms(),
            },
            DistResponse::RangeParsed {
                rows: 0,
                lines: 0,
                quoted: true,
                histograms: Vec::new(),
            },
            DistResponse::RangeFailed {
                line: 7,
                bad_number: true,
                text: "abc".to_string(),
            },
            DistResponse::Bye,
            DistResponse::Error {
                message: "partition not loaded".to_string(),
            },
        ]
    }

    #[test]
    fn requests_round_trip() {
        for req in sample_requests() {
            let frame = req.to_frame().unwrap();
            let (tag_, payload) = decode_frame(&frame).unwrap();
            let back = DistRequest::decode(tag_, payload).unwrap();
            assert_eq!(back, req);
            assert_eq!(back.to_frame().unwrap(), frame, "canonical re-encode");
        }
    }

    #[test]
    fn responses_round_trip() {
        for resp in sample_responses() {
            let frame = resp.to_frame().unwrap();
            let (tag_, payload) = decode_frame(&frame).unwrap();
            let back = DistResponse::decode(tag_, payload).unwrap();
            assert_eq!(back, resp);
            assert_eq!(back.to_frame().unwrap(), frame, "canonical re-encode");
        }
    }

    #[test]
    fn stream_io_round_trips() {
        let mut buf = Vec::new();
        for req in sample_requests() {
            write_request(&mut buf, &req).unwrap();
        }
        let mut cursor = std::io::Cursor::new(buf);
        let mut back = Vec::new();
        while let Some(req) = read_request(&mut cursor).unwrap() {
            back.push(req);
        }
        assert_eq!(back, sample_requests());

        let mut buf = Vec::new();
        for resp in sample_responses() {
            write_response(&mut buf, &resp).unwrap();
        }
        let mut cursor = std::io::Cursor::new(buf);
        let mut back = Vec::new();
        while let Some(resp) = read_response(&mut cursor).unwrap() {
            back.push(resp);
        }
        assert_eq!(back, sample_responses());
    }

    #[test]
    fn tags_are_disjoint_from_serve_protocol() {
        let serve_tags = [1u32, 2, 3, 4, 5, 6, 101, 102, 103, 104, 105, 106, 107];
        for req in sample_requests() {
            assert!(!serve_tags.contains(&req.tag()), "tag {}", req.tag());
        }
        for resp in sample_responses() {
            assert!(!serve_tags.contains(&resp.tag()), "tag {}", resp.tag());
        }
        // A dist frame handed to the serve decoder is UnknownTag.
        let frame = DistRequest::Shutdown.to_frame().unwrap();
        let (tag_, payload) = decode_frame(&frame).unwrap();
        assert!(matches!(
            crate::protocol::Request::decode(tag_, payload),
            Err(ProtocolError::UnknownTag(_))
        ));
    }

    /// The tags of retired messages decode as unknown in both
    /// directions: the row stream's (`Rows`, `RowsLoaded`) and pass 1's
    /// (`CountItems`, `ItemCounts`), whose counts the coordinator now
    /// sums from the ranges' histograms.
    #[test]
    fn retired_tags_decode_as_unknown() {
        for retired in [22u32, 23, 122, 123] {
            for payload in [&[][..], &[0u8; 8][..]] {
                assert!(matches!(
                    DistRequest::decode(retired, payload),
                    Err(ProtocolError::UnknownTag(t)) if t == retired
                ));
                assert!(matches!(
                    DistResponse::decode(retired, payload),
                    Err(ProtocolError::UnknownTag(t)) if t == retired
                ));
            }
        }
        let live: Vec<u32> = sample_requests()
            .iter()
            .map(DistRequest::tag)
            .chain(sample_responses().iter().map(DistResponse::tag))
            .collect();
        assert!(live.iter().all(|t| ![22, 23, 122, 123].contains(t)));
    }

    #[test]
    fn single_byte_corruption_never_decodes() {
        let frame = DistRequest::CountCandidates {
            pass: 3,
            candidates: vec![Itemset::new(vec![Item::range(0, 1, 2)])],
        }
        .to_frame()
        .unwrap();
        for i in 0..frame.len() {
            let mut bad = frame.clone();
            bad[i] ^= 0x01;
            let result = decode_frame(&bad).and_then(|(t, p)| DistRequest::decode(t, p));
            assert!(result.is_err(), "flip at byte {i} still decoded");
        }
    }

    /// Every single-byte flip and every truncation of the pair frames is
    /// an error, never a different message.
    #[test]
    fn pair_frames_reject_flips_and_truncations() {
        let frames = [
            DistRequest::CountPairs {
                pass: 2,
                pairs: vec![(0, 1), (0, 2)],
                window: 1..4,
            }
            .to_frame()
            .unwrap(),
            DistResponse::PairCounts {
                cells: vec![3, 0, 1, 4],
            }
            .to_frame()
            .unwrap(),
        ];
        let decodes = |bytes: &[u8]| {
            decode_frame(bytes).and_then(|(t, p)| match t {
                tag::REQ_COUNT_PAIRS => DistRequest::decode(t, p).map(|_| ()),
                _ => DistResponse::decode(t, p).map(|_| ()),
            })
        };
        for frame in &frames {
            assert!(decodes(frame).is_ok());
            for i in 0..frame.len() {
                let mut bad = frame.clone();
                bad[i] ^= 0x01;
                assert!(decodes(&bad).is_err(), "flip at byte {i} still decoded");
            }
            for len in 0..frame.len() {
                assert!(
                    decodes(&frame[..len]).is_err(),
                    "truncation to {len} decoded"
                );
            }
        }
    }

    /// Every single-byte flip and every truncation of the range and
    /// encode frames is an error, never a different message.
    #[test]
    fn range_frames_reject_flips_and_truncations() {
        let frames = [
            sample_requests()[5].to_frame().unwrap(),
            sample_requests()[6].to_frame().unwrap(),
            sample_responses()[1].to_frame().unwrap(),
            sample_responses()[5].to_frame().unwrap(),
            sample_responses()[7].to_frame().unwrap(),
        ];
        let decodes = |bytes: &[u8]| {
            decode_frame(bytes).and_then(|(t, p)| match t {
                tag::REQ_PARSE_RANGE => DistRequest::decode(t, p).map(|_| ()),
                _ => DistResponse::decode(t, p).map(|_| ()),
            })
        };
        for frame in &frames {
            assert!(decodes(frame).is_ok());
            for i in 0..frame.len() {
                let mut bad = frame.clone();
                bad[i] ^= 0x01;
                assert!(decodes(&bad).is_err(), "flip at byte {i} still decoded");
            }
            for len in 0..frame.len() {
                assert!(
                    decodes(&frame[..len]).is_err(),
                    "truncation to {len} decoded"
                );
            }
        }
    }

    /// The histogram codec takes only what a column could hold, counting
    /// exactly the range's rows; a quoted range carries nothing.
    #[test]
    fn range_replies_decode_strictly() {
        let reply = |rows: u64, quoted: bool, put: &dyn Fn(&mut Writer)| {
            let mut w = Writer::new();
            w.put_u64(rows);
            w.put_u64(rows);
            w.put_bool(quoted);
            w.put_u64(1);
            put(&mut w);
            DistResponse::decode(tag::RESP_RANGE_PARSED, &w.into_bytes())
        };
        let quant = |values: &[f64], counts: &[u64]| {
            let (values, counts) = (values.to_vec(), counts.to_vec());
            move |w: &mut Writer| {
                w.put_u8(0);
                w.put_u64(values.len() as u64);
                values.iter().for_each(|&v| w.put_f64(v));
                counts.iter().for_each(|&c| w.put_u64(c));
            }
        };
        assert!(reply(3, false, &quant(&[1.0, 2.5], &[2, 1])).is_ok());
        for (rows, quoted, values, counts) in [
            (4, false, &[1.0, 2.5][..], &[2u64, 1][..]), // counts add up to 3
            (3, false, &[2.5, 1.0], &[2, 1]),            // descending
            (3, false, &[1.0, 1.0], &[2, 1]),            // repeated
            (2, false, &[1.0, 2.5], &[2, 0]),            // a zero count
            (1, false, &[f64::NAN], &[1]),               // not finite
            (1, false, &[-0.0], &[1]),                   // not canonical
            (3, true, &[1.0, 2.5], &[2, 1]),             // quoted with counts
        ] {
            assert!(
                matches!(
                    reply(rows, quoted, &quant(values, counts)),
                    Err(ProtocolError::Corrupt { .. })
                ),
                "{values:?} {counts:?} over {rows} rows decoded"
            );
        }
        let labels = |labels: &'static [&'static str]| {
            move |w: &mut Writer| {
                w.put_u8(1);
                w.put_u64(labels.len() as u64);
                labels.iter().for_each(|l| w.put_str(l));
                labels.iter().for_each(|_| w.put_u64(1));
            }
        };
        assert!(reply(2, false, &labels(&["No", "Yes"])).is_ok());
        assert!(reply(2, false, &labels(&["Yes", "No"])).is_err());
        assert!(reply(1, false, &|w| w.put_u8(2)).is_err());
        let mut w = Writer::new();
        w.put_u64(0);
        w.put_bool(false);
        w.put_str("line 0");
        assert!(DistResponse::decode(tag::RESP_RANGE_FAILED, &w.into_bytes()).is_err());
        // A range past the file's end.
        let mut request = sample_requests()[5].clone();
        if let DistRequest::ParseRange { range, .. } = &mut request {
            *range = 90..101;
        }
        let frame = request.to_frame().unwrap();
        let (t, p) = decode_frame(&frame).unwrap();
        assert!(matches!(
            DistRequest::decode(t, p),
            Err(ProtocolError::Corrupt { .. })
        ));
    }

    #[test]
    fn reversed_cell_window_is_corrupt() {
        let mut payload = Writer::new();
        payload.put_u32(2);
        payload.put_u64(1);
        payload.put_u32(0);
        payload.put_u32(1);
        payload.put_u64(5);
        payload.put_u64(4);
        assert!(matches!(
            DistRequest::decode(tag::REQ_COUNT_PAIRS, &payload.into_bytes()),
            Err(ProtocolError::Corrupt { .. })
        ));
    }

    #[test]
    fn max_pair_cells_fill_one_frame() {
        let cells = vec![0u64; MAX_PAIR_CELLS];
        let frame = DistResponse::PairCounts { cells }.to_frame().unwrap();
        let (t, p) = decode_frame(&frame).unwrap();
        assert_eq!(t, tag::RESP_PAIR_COUNTS);
        assert_eq!(p.len(), 8 + 8 * MAX_PAIR_CELLS);
        let over = DistResponse::PairCounts {
            cells: vec![0u64; MAX_PAIR_CELLS + 1],
        };
        assert!(matches!(
            over.to_frame(),
            Err(ProtocolError::Oversized { .. })
        ));
    }

    #[test]
    fn oversized_candidate_batch_is_structured() {
        // ~1.4M two-item candidates ≈ 32 bytes each > 16 MiB.
        let candidates: Vec<Itemset> = (0..1_400_000u32)
            .map(|i| Itemset::new(vec![Item::value(0, i), Item::value(1, i)]))
            .collect();
        match (DistRequest::CountCandidates {
            pass: 2,
            candidates,
        })
        .to_frame()
        {
            Err(ProtocolError::Oversized { .. }) => {}
            Err(other) => panic!("expected Oversized, got {other:?}"),
            Ok(_) => panic!("oversized batch framed"),
        }
    }
}

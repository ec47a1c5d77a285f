//! The `qar serve` wire protocol: length-prefixed, CRC-framed request/
//! response messages over TCP.
//!
//! Frame layout (all integers little-endian, reusing the `.qarcat`
//! framing discipline from [`mod@crate::format`]):
//!
//! ```text
//! magic    4 bytes   "QRP" ++ 0x01  (protocol version baked into the magic)
//! tag      u32       message type (request tags 1.., response tags 101..)
//! len      u32       payload length in bytes (<= MAX_PAYLOAD)
//! crc      u32       CRC-32 (IEEE) over tag bytes ++ payload
//! payload  len bytes
//! ```
//!
//! The CRC covers the tag so a bit flip cannot turn one message type into
//! another and still checksum clean — the same argument as the catalog's
//! section framing. Decoding is *canonical and strict*: a payload must be
//! consumed exactly (no trailing bytes), bools must be 0 or 1, and counts
//! are bounded by the remaining input, so `encode → decode → encode` is
//! byte-identical and every single-byte corruption of a valid frame is a
//! structured [`ProtocolError`], never a panic. Floats travel as raw
//! IEEE-754 bits and round-trip bit-exactly (NaN bounds included; the
//! index treats them as matching nothing, same as the CLI).

use crate::error::StoreError;
use crate::format::{tagged_crc32, Reader, Writer};
use crate::index::RankBy;
use std::fmt;
use std::io::{self, Read, Write};

/// Frame magic: ASCII "QRP" plus the protocol version byte.
pub const MAGIC: [u8; 4] = *b"QRP\x01";

/// Bytes in the fixed frame header (magic + tag + len + crc).
pub const HEADER_LEN: usize = 16;

/// Hard ceiling on a frame payload (16 MiB) — anything larger is
/// rejected *before* allocation, so a corrupted or hostile length field
/// cannot drive an OOM.
pub const MAX_PAYLOAD: u32 = 1 << 24;

/// Message tags. Requests count from 1, responses from 101, so a peer
/// replaying a request at a client (or vice versa) is a
/// [`ProtocolError::UnknownTag`], not a confused decode.
pub mod tag {
    /// Liveness probe.
    pub const REQ_PING: u32 = 1;
    /// One query against one catalog.
    pub const REQ_QUERY: u32 = 2;
    /// Several queries against one catalog in one round trip.
    pub const REQ_BATCH: u32 = 3;
    /// Reload a catalog slot from its backing file.
    pub const REQ_RELOAD: u32 = 4;
    /// Describe the loaded catalogs.
    pub const REQ_INFO: u32 = 5;
    /// Stop the server.
    pub const REQ_SHUTDOWN: u32 = 6;

    /// Reply to [`REQ_PING`].
    pub const RESP_PONG: u32 = 101;
    /// Rule ids answering a [`REQ_QUERY`].
    pub const RESP_IDS: u32 = 102;
    /// Per-query results answering a [`REQ_BATCH`].
    pub const RESP_BATCH: u32 = 103;
    /// Acknowledges a completed [`REQ_RELOAD`].
    pub const RESP_RELOADED: u32 = 104;
    /// Catalog descriptions answering [`REQ_INFO`].
    pub const RESP_INFO: u32 = 105;
    /// A structured failure (any request can earn one).
    pub const RESP_ERROR: u32 = 106;
    /// Acknowledges a [`REQ_SHUTDOWN`]; the connection closes after.
    pub const RESP_SHUTDOWN: u32 = 107;
}

/// Why a frame or message could not be decoded. Mirrors
/// [`StoreError`]'s taxonomy for the protocol surface.
#[derive(Debug)]
pub enum ProtocolError {
    /// The underlying socket read or write failed.
    Io(io::Error),
    /// The frame does not start with the `QRP` magic/version.
    BadMagic,
    /// The declared payload length exceeds [`MAX_PAYLOAD`].
    Oversized {
        /// The declared length.
        len: u32,
    },
    /// The input ended before the frame or a value was complete.
    Truncated {
        /// Byte offset at which the read was attempted.
        offset: usize,
        /// Bytes needed beyond what remained.
        needed: usize,
    },
    /// The frame CRC does not match tag ++ payload.
    ChecksumMismatch,
    /// The tag names no known message type.
    UnknownTag(u32),
    /// The payload decoded to something structurally invalid.
    Corrupt {
        /// What was wrong.
        detail: String,
    },
    /// A well-formed message was followed by extra payload bytes.
    TrailingBytes {
        /// Offset of the first unexpected byte.
        offset: usize,
    },
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::Io(e) => write!(f, "protocol I/O error: {e}"),
            ProtocolError::BadMagic => write!(f, "not a qar-serve frame (bad magic)"),
            ProtocolError::Oversized { len } => {
                write!(f, "frame payload of {len} bytes exceeds {MAX_PAYLOAD}")
            }
            ProtocolError::Truncated { offset, needed } => write!(
                f,
                "frame truncated at byte {offset} ({needed} more byte(s) needed)"
            ),
            ProtocolError::ChecksumMismatch => write!(f, "frame checksum mismatch"),
            ProtocolError::UnknownTag(t) => write!(f, "unknown message tag {t}"),
            ProtocolError::Corrupt { detail } => write!(f, "corrupt message: {detail}"),
            ProtocolError::TrailingBytes { offset } => {
                write!(f, "trailing bytes after message (offset {offset})")
            }
        }
    }
}

impl std::error::Error for ProtocolError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProtocolError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ProtocolError {
    fn from(e: io::Error) -> Self {
        ProtocolError::Io(e)
    }
}

impl From<StoreError> for ProtocolError {
    fn from(e: StoreError) -> Self {
        match e {
            StoreError::Truncated { offset, needed } => ProtocolError::Truncated { offset, needed },
            StoreError::Corrupt { detail, .. } => ProtocolError::Corrupt { detail },
            other => ProtocolError::Corrupt {
                detail: other.to_string(),
            },
        }
    }
}

/// Machine-readable reason on a [`Response::Error`] — the part a client
/// can dispatch on (the message is for humans).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// The named catalog slot is not loaded.
    UnknownCatalog = 1,
    /// The request decoded but is semantically invalid.
    BadRequest = 2,
    /// The request's deadline expired before it finished.
    DeadlineExceeded = 3,
    /// A reload failed; the previous catalog generation is still served.
    ReloadFailed = 4,
    /// The frame carried a tag the server does not understand.
    UnknownRequest = 5,
    /// The frame itself was malformed (bad magic, CRC, length).
    BadFrame = 6,
    /// The server failed internally.
    Internal = 7,
}

impl ErrorCode {
    fn from_u8(v: u8) -> Option<ErrorCode> {
        Some(match v {
            1 => ErrorCode::UnknownCatalog,
            2 => ErrorCode::BadRequest,
            3 => ErrorCode::DeadlineExceeded,
            4 => ErrorCode::ReloadFailed,
            5 => ErrorCode::UnknownRequest,
            6 => ErrorCode::BadFrame,
            7 => ErrorCode::Internal,
            _ => return None,
        })
    }
}

/// A structured error on the wire: code for machines, message for logs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Dispatchable reason.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
}

impl WireError {
    /// Convenience constructor.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        WireError {
            code,
            message: message.into(),
        }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}: {}", self.code, self.message)
    }
}

/// Ranking/truncation options shared by point and range queries,
/// mirroring the CLI's `--by` / `--top-k` flags exactly: ranking kicks in
/// when either is set (`--top-k` alone ranks by confidence), and `k = 0`
/// truncates to nothing. The analytics filters run *before* ranking and
/// truncation; they (and the analytics rankings) need the served catalog
/// to carry an analytics section — probe via [`CatalogInfo::analytics`]
/// in the [`Response::Info`] answer, or expect a
/// [`ErrorCode::BadRequest`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct QueryOptions {
    /// Rank matches by this measure before returning.
    pub by: Option<RankBy>,
    /// Keep only the first `k` (after ranking).
    pub top_k: Option<u32>,
    /// Keep only rules with `lift >= min_lift` (NaN lift never passes).
    pub min_lift: Option<f64>,
    /// Keep only rules with BH-adjusted p-value `<= max_p`.
    pub max_p: Option<f64>,
}

/// One query against a catalog's [`crate::RuleIndex`].
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    /// Rules whose antecedent+consequent all hold for the record
    /// (`RuleIndex::query_record`). Entries are `(attribute, code)`.
    Point {
        /// The record's attribute/code pairs.
        record: Vec<(u32, u32)>,
        /// Ranking/truncation.
        opts: QueryOptions,
    },
    /// Rules mentioning `attr` with an interval overlapping `[lo, hi]`
    /// (`RuleIndex::query_range`).
    Range {
        /// Attribute id.
        attr: u32,
        /// Inclusive lower bound.
        lo: f64,
        /// Inclusive upper bound.
        hi: f64,
        /// Ranking/truncation.
        opts: QueryOptions,
    },
    /// The `k` best rules catalog-wide by one measure
    /// (`RuleIndex::top_k`).
    TopK {
        /// Measure to rank by.
        by: RankBy,
        /// Number of rules to return.
        k: u32,
    },
}

impl Query {
    /// Short name used in `request_served` trace events.
    pub fn kind(&self) -> &'static str {
        match self {
            Query::Point { .. } => "point",
            Query::Range { .. } => "range",
            Query::TopK { .. } => "top_k",
        }
    }
}

/// A client-to-server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe; answered with [`Response::Pong`].
    Ping,
    /// One query against the named catalog.
    Query {
        /// Catalog slot name.
        catalog: String,
        /// Per-request deadline in milliseconds (`Some(0)` is already
        /// expired — useful for deterministic deadline tests).
        deadline_ms: Option<u32>,
        /// The query.
        query: Query,
    },
    /// Several queries against the named catalog, answered item by item
    /// in one [`Response::Batch`].
    Batch {
        /// Catalog slot name.
        catalog: String,
        /// Deadline shared by the whole batch.
        deadline_ms: Option<u32>,
        /// The queries, answered in order.
        queries: Vec<Query>,
    },
    /// Reload the named catalog slot from its backing `.qarcat` file.
    Reload {
        /// Catalog slot name.
        catalog: String,
    },
    /// Describe every loaded catalog.
    Info,
    /// Stop the server after acknowledging.
    Shutdown,
}

/// Description of one loaded catalog in a [`Response::Info`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CatalogInfo {
    /// Slot name (the file stem by default).
    pub name: String,
    /// Reload generation (1 on first load).
    pub generation: u64,
    /// Rules in the currently served generation.
    pub rules: u64,
    /// Whether the served catalog carries an analytics section — the
    /// capability gate for analytics rankings and filters.
    pub analytics: bool,
}

/// A server-to-client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Reply to [`Request::Ping`].
    Pong,
    /// Rule ids answering a single query.
    Ids {
        /// Catalog generation that answered (proves which reload a
        /// response saw).
        generation: u64,
        /// Matching rule ids.
        ids: Vec<u32>,
    },
    /// Per-query results answering a [`Request::Batch`]; one entry per
    /// query, in request order.
    Batch {
        /// Catalog generation that answered the whole batch.
        generation: u64,
        /// Each query's ids, or its structured failure.
        items: Vec<Result<Vec<u32>, WireError>>,
    },
    /// A reload completed.
    Reloaded {
        /// Slot that was reloaded.
        catalog: String,
        /// New generation now being served.
        generation: u64,
        /// Rules in the new generation.
        rules: u64,
    },
    /// Catalog descriptions answering [`Request::Info`].
    Info {
        /// One entry per loaded catalog, sorted by name.
        catalogs: Vec<CatalogInfo>,
    },
    /// The request failed; the connection stays usable unless the error
    /// is [`ErrorCode::BadFrame`].
    Error(WireError),
    /// Shutdown acknowledged; no further responses will arrive.
    ShuttingDown,
}

fn rank_by_code(by: RankBy) -> u8 {
    match by {
        RankBy::Support => 1,
        RankBy::Confidence => 2,
        RankBy::Interest => 3,
        RankBy::Lift => 4,
        RankBy::Conviction => 5,
        RankBy::Chi2 => 6,
        RankBy::JMeasure => 7,
    }
}

fn rank_by_from(code: u8, r: &Reader<'_>) -> Result<RankBy, ProtocolError> {
    Ok(match code {
        1 => RankBy::Support,
        2 => RankBy::Confidence,
        3 => RankBy::Interest,
        4 => RankBy::Lift,
        5 => RankBy::Conviction,
        6 => RankBy::Chi2,
        7 => RankBy::JMeasure,
        other => return Err(r.corrupt(format!("unknown rank-by code {other}")).into()),
    })
}

fn put_opt_u32(w: &mut Writer, v: Option<u32>) {
    match v {
        Some(v) => {
            w.put_bool(true);
            w.put_u32(v);
        }
        None => w.put_bool(false),
    }
}

fn get_opt_u32(r: &mut Reader<'_>) -> Result<Option<u32>, ProtocolError> {
    Ok(if r.get_bool()? {
        Some(r.get_u32()?)
    } else {
        None
    })
}

fn put_opt_f64(w: &mut Writer, v: Option<f64>) {
    match v {
        Some(v) => {
            w.put_bool(true);
            w.put_f64(v);
        }
        None => w.put_bool(false),
    }
}

fn get_opt_f64(r: &mut Reader<'_>) -> Result<Option<f64>, ProtocolError> {
    Ok(if r.get_bool()? {
        Some(r.get_f64()?)
    } else {
        None
    })
}

fn put_opts(w: &mut Writer, opts: QueryOptions) {
    w.put_u8(opts.by.map_or(0, rank_by_code));
    put_opt_u32(w, opts.top_k);
    put_opt_f64(w, opts.min_lift);
    put_opt_f64(w, opts.max_p);
}

fn get_opts(r: &mut Reader<'_>) -> Result<QueryOptions, ProtocolError> {
    let by = match r.get_u8()? {
        0 => None,
        code => Some(rank_by_from(code, r)?),
    };
    let top_k = get_opt_u32(r)?;
    let min_lift = get_opt_f64(r)?;
    let max_p = get_opt_f64(r)?;
    Ok(QueryOptions {
        by,
        top_k,
        min_lift,
        max_p,
    })
}

fn put_query(w: &mut Writer, q: &Query) {
    match q {
        Query::Point { record, opts } => {
            w.put_u8(0);
            w.put_u64(record.len() as u64);
            for &(attr, code) in record {
                w.put_u32(attr);
                w.put_u32(code);
            }
            put_opts(w, *opts);
        }
        Query::Range { attr, lo, hi, opts } => {
            w.put_u8(1);
            w.put_u32(*attr);
            w.put_f64(*lo);
            w.put_f64(*hi);
            put_opts(w, *opts);
        }
        Query::TopK { by, k } => {
            w.put_u8(2);
            w.put_u8(rank_by_code(*by));
            w.put_u32(*k);
        }
    }
}

fn get_query(r: &mut Reader<'_>) -> Result<Query, ProtocolError> {
    Ok(match r.get_u8()? {
        0 => {
            let n = r.get_count(8)?;
            let mut record = Vec::with_capacity(n);
            for _ in 0..n {
                record.push((r.get_u32()?, r.get_u32()?));
            }
            Query::Point {
                record,
                opts: get_opts(r)?,
            }
        }
        1 => Query::Range {
            attr: r.get_u32()?,
            lo: r.get_f64()?,
            hi: r.get_f64()?,
            opts: get_opts(r)?,
        },
        2 => {
            let code = r.get_u8()?;
            Query::TopK {
                by: rank_by_from(code, r)?,
                k: r.get_u32()?,
            }
        }
        other => return Err(r.corrupt(format!("unknown query kind {other}")).into()),
    })
}

fn put_wire_error(w: &mut Writer, e: &WireError) {
    w.put_u8(e.code as u8);
    w.put_str(&e.message);
}

fn get_wire_error(r: &mut Reader<'_>) -> Result<WireError, ProtocolError> {
    let raw = r.get_u8()?;
    let code = ErrorCode::from_u8(raw)
        .ok_or_else(|| ProtocolError::from(r.corrupt(format!("unknown error code {raw}"))))?;
    Ok(WireError {
        code,
        message: r.get_str()?,
    })
}

impl Request {
    /// This message's frame tag.
    pub fn tag(&self) -> u32 {
        match self {
            Request::Ping => tag::REQ_PING,
            Request::Query { .. } => tag::REQ_QUERY,
            Request::Batch { .. } => tag::REQ_BATCH,
            Request::Reload { .. } => tag::REQ_RELOAD,
            Request::Info => tag::REQ_INFO,
            Request::Shutdown => tag::REQ_SHUTDOWN,
        }
    }

    /// Encode just the payload bytes (no frame header).
    pub fn payload(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            Request::Ping | Request::Info | Request::Shutdown => {}
            Request::Query {
                catalog,
                deadline_ms,
                query,
            } => {
                w.put_str(catalog);
                put_opt_u32(&mut w, *deadline_ms);
                put_query(&mut w, query);
            }
            Request::Batch {
                catalog,
                deadline_ms,
                queries,
            } => {
                w.put_str(catalog);
                put_opt_u32(&mut w, *deadline_ms);
                w.put_u64(queries.len() as u64);
                for q in queries {
                    put_query(&mut w, q);
                }
            }
            Request::Reload { catalog } => w.put_str(catalog),
        }
        w.into_bytes()
    }

    /// Encode as a complete frame, ready for the socket.
    /// [`ProtocolError::Oversized`] when the payload exceeds
    /// [`MAX_PAYLOAD`].
    pub fn to_frame(&self) -> Result<Vec<u8>, ProtocolError> {
        encode_frame(self.tag(), &self.payload())
    }

    /// Decode from a frame's tag + payload. Strict: the payload must be
    /// consumed exactly.
    pub fn decode(tag: u32, payload: &[u8]) -> Result<Request, ProtocolError> {
        let mut r = Reader::new(payload);
        let req = match tag {
            tag::REQ_PING => Request::Ping,
            tag::REQ_QUERY => Request::Query {
                catalog: r.get_str()?,
                deadline_ms: get_opt_u32(&mut r)?,
                query: get_query(&mut r)?,
            },
            tag::REQ_BATCH => {
                let catalog = r.get_str()?;
                let deadline_ms = get_opt_u32(&mut r)?;
                // A query is at least 6 bytes (kind + rank-by + k), so the
                // count can never demand more than the payload holds.
                let n = r.get_count(6)?;
                let mut queries = Vec::with_capacity(n);
                for _ in 0..n {
                    queries.push(get_query(&mut r)?);
                }
                Request::Batch {
                    catalog,
                    deadline_ms,
                    queries,
                }
            }
            tag::REQ_RELOAD => Request::Reload {
                catalog: r.get_str()?,
            },
            tag::REQ_INFO => Request::Info,
            tag::REQ_SHUTDOWN => Request::Shutdown,
            other => return Err(ProtocolError::UnknownTag(other)),
        };
        finish(r)?;
        Ok(req)
    }
}

impl Response {
    /// This message's frame tag.
    pub fn tag(&self) -> u32 {
        match self {
            Response::Pong => tag::RESP_PONG,
            Response::Ids { .. } => tag::RESP_IDS,
            Response::Batch { .. } => tag::RESP_BATCH,
            Response::Reloaded { .. } => tag::RESP_RELOADED,
            Response::Info { .. } => tag::RESP_INFO,
            Response::Error(_) => tag::RESP_ERROR,
            Response::ShuttingDown => tag::RESP_SHUTDOWN,
        }
    }

    /// Encode just the payload bytes (no frame header).
    pub fn payload(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            Response::Pong | Response::ShuttingDown => {}
            Response::Ids { generation, ids } => {
                w.put_u64(*generation);
                w.put_u64(ids.len() as u64);
                for &id in ids {
                    w.put_u32(id);
                }
            }
            Response::Batch { generation, items } => {
                w.put_u64(*generation);
                w.put_u64(items.len() as u64);
                for item in items {
                    match item {
                        Ok(ids) => {
                            w.put_bool(true);
                            w.put_u64(ids.len() as u64);
                            for &id in ids {
                                w.put_u32(id);
                            }
                        }
                        Err(e) => {
                            w.put_bool(false);
                            put_wire_error(&mut w, e);
                        }
                    }
                }
            }
            Response::Reloaded {
                catalog,
                generation,
                rules,
            } => {
                w.put_str(catalog);
                w.put_u64(*generation);
                w.put_u64(*rules);
            }
            Response::Info { catalogs } => {
                w.put_u64(catalogs.len() as u64);
                for c in catalogs {
                    w.put_str(&c.name);
                    w.put_u64(c.generation);
                    w.put_u64(c.rules);
                    w.put_bool(c.analytics);
                }
            }
            Response::Error(e) => put_wire_error(&mut w, e),
        }
        w.into_bytes()
    }

    /// Encode as a complete frame, ready for the socket.
    /// [`ProtocolError::Oversized`] when the payload exceeds
    /// [`MAX_PAYLOAD`].
    pub fn to_frame(&self) -> Result<Vec<u8>, ProtocolError> {
        encode_frame(self.tag(), &self.payload())
    }

    /// Decode from a frame's tag + payload. Strict: the payload must be
    /// consumed exactly.
    pub fn decode(tag: u32, payload: &[u8]) -> Result<Response, ProtocolError> {
        let mut r = Reader::new(payload);
        let resp = match tag {
            tag::RESP_PONG => Response::Pong,
            tag::RESP_IDS => {
                let generation = r.get_u64()?;
                let n = r.get_count(4)?;
                let mut ids = Vec::with_capacity(n);
                for _ in 0..n {
                    ids.push(r.get_u32()?);
                }
                Response::Ids { generation, ids }
            }
            tag::RESP_BATCH => {
                let generation = r.get_u64()?;
                // Each item is at least 1 byte (its ok flag).
                let n = r.get_count(1)?;
                let mut items = Vec::with_capacity(n);
                for _ in 0..n {
                    items.push(if r.get_bool()? {
                        let m = r.get_count(4)?;
                        let mut ids = Vec::with_capacity(m);
                        for _ in 0..m {
                            ids.push(r.get_u32()?);
                        }
                        Ok(ids)
                    } else {
                        Err(get_wire_error(&mut r)?)
                    });
                }
                Response::Batch { generation, items }
            }
            tag::RESP_RELOADED => Response::Reloaded {
                catalog: r.get_str()?,
                generation: r.get_u64()?,
                rules: r.get_u64()?,
            },
            tag::RESP_INFO => {
                // A catalog entry is at least its name length prefix.
                let n = r.get_count(8)?;
                let mut catalogs = Vec::with_capacity(n);
                for _ in 0..n {
                    catalogs.push(CatalogInfo {
                        name: r.get_str()?,
                        generation: r.get_u64()?,
                        rules: r.get_u64()?,
                        analytics: r.get_bool()?,
                    });
                }
                Response::Info { catalogs }
            }
            tag::RESP_ERROR => Response::Error(get_wire_error(&mut r)?),
            tag::RESP_SHUTDOWN => Response::ShuttingDown,
            other => return Err(ProtocolError::UnknownTag(other)),
        };
        finish(r)?;
        Ok(resp)
    }
}

/// Reject unconsumed payload bytes (canonical decode).
fn finish(r: Reader<'_>) -> Result<(), ProtocolError> {
    if r.remaining() > 0 {
        return Err(ProtocolError::TrailingBytes { offset: r.pos() });
    }
    Ok(())
}

/// Frame a tag + payload: magic, tag, length, CRC over tag ++ payload,
/// then the payload.
///
/// A payload larger than [`MAX_PAYLOAD`] is a structured
/// [`ProtocolError::Oversized`] — the same error the decode side would
/// raise — so a message that cannot possibly be read is rejected before
/// a single byte hits the socket, instead of panicking the sender.
pub fn encode_frame(tag: u32, payload: &[u8]) -> Result<Vec<u8>, ProtocolError> {
    if payload.len() as u64 > MAX_PAYLOAD as u64 {
        return Err(ProtocolError::Oversized {
            len: u32::try_from(payload.len()).unwrap_or(u32::MAX),
        });
    }
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&tag.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&tagged_crc32(tag, payload).to_le_bytes());
    out.extend_from_slice(payload);
    Ok(out)
}

/// Decode one frame from a complete buffer. Strict: `bytes` must be
/// exactly one frame (no trailing bytes). Returns the tag and payload;
/// the CRC has been verified.
pub fn decode_frame(bytes: &[u8]) -> Result<(u32, &[u8]), ProtocolError> {
    if bytes.len() < HEADER_LEN {
        return Err(ProtocolError::Truncated {
            offset: bytes.len(),
            needed: HEADER_LEN - bytes.len(),
        });
    }
    if bytes[..4] != MAGIC {
        return Err(ProtocolError::BadMagic);
    }
    let tag = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
    let len = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if len > MAX_PAYLOAD {
        return Err(ProtocolError::Oversized { len });
    }
    let crc = u32::from_le_bytes(bytes[12..16].try_into().unwrap());
    let body = &bytes[HEADER_LEN..];
    let len = len as usize;
    if body.len() < len {
        return Err(ProtocolError::Truncated {
            offset: bytes.len(),
            needed: len - body.len(),
        });
    }
    if body.len() > len {
        return Err(ProtocolError::TrailingBytes {
            offset: HEADER_LEN + len,
        });
    }
    let payload = &body[..len];
    if tagged_crc32(tag, payload) != crc {
        return Err(ProtocolError::ChecksumMismatch);
    }
    Ok((tag, payload))
}

/// Decode a complete request frame (header verification + strict payload
/// decode).
pub fn decode_request(bytes: &[u8]) -> Result<Request, ProtocolError> {
    let (tag, payload) = decode_frame(bytes)?;
    Request::decode(tag, payload)
}

/// Decode a complete response frame.
pub fn decode_response(bytes: &[u8]) -> Result<Response, ProtocolError> {
    let (tag, payload) = decode_frame(bytes)?;
    Response::decode(tag, payload)
}

/// Read one frame from a stream. `Ok(None)` is a clean EOF *at a frame
/// boundary* (the peer closed between requests); EOF anywhere inside a
/// frame is [`ProtocolError::Truncated`]. The payload CRC is verified
/// before returning.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Option<(u32, Vec<u8>)>, ProtocolError> {
    let mut header = [0u8; HEADER_LEN];
    let mut filled = 0;
    while filled < HEADER_LEN {
        match r.read(&mut header[filled..]) {
            Ok(0) => {
                if filled == 0 {
                    return Ok(None);
                }
                return Err(ProtocolError::Truncated {
                    offset: filled,
                    needed: HEADER_LEN - filled,
                });
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    if header[..4] != MAGIC {
        return Err(ProtocolError::BadMagic);
    }
    let tag = u32::from_le_bytes(header[4..8].try_into().unwrap());
    let len = u32::from_le_bytes(header[8..12].try_into().unwrap());
    if len > MAX_PAYLOAD {
        return Err(ProtocolError::Oversized { len });
    }
    let crc = u32::from_le_bytes(header[12..16].try_into().unwrap());
    let mut payload = vec![0u8; len as usize];
    let mut read = 0;
    while read < payload.len() {
        match r.read(&mut payload[read..]) {
            Ok(0) => {
                return Err(ProtocolError::Truncated {
                    offset: HEADER_LEN + read,
                    needed: payload.len() - read,
                })
            }
            Ok(n) => read += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    if tagged_crc32(tag, &payload) != crc {
        return Err(ProtocolError::ChecksumMismatch);
    }
    Ok(Some((tag, payload)))
}

/// Write one complete frame to a stream (single `write_all`).
/// [`ProtocolError::Oversized`] when the payload exceeds
/// [`MAX_PAYLOAD`] — nothing is written in that case.
pub fn write_frame<W: Write>(w: &mut W, tag: u32, payload: &[u8]) -> Result<(), ProtocolError> {
    w.write_all(&encode_frame(tag, payload)?)?;
    Ok(())
}

/// Read the next [`Request`] from a stream; `Ok(None)` is a clean EOF at
/// a frame boundary.
pub fn read_request<R: Read>(r: &mut R) -> Result<Option<Request>, ProtocolError> {
    match read_frame(r)? {
        Some((tag, payload)) => Ok(Some(Request::decode(tag, &payload)?)),
        None => Ok(None),
    }
}

/// Read the next [`Response`] from a stream; `Ok(None)` is a clean EOF
/// at a frame boundary.
pub fn read_response<R: Read>(r: &mut R) -> Result<Option<Response>, ProtocolError> {
    match read_frame(r)? {
        Some((tag, payload)) => Ok(Some(Response::decode(tag, &payload)?)),
        None => Ok(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_requests() -> Vec<Request> {
        vec![
            Request::Ping,
            Request::Query {
                catalog: "planted".into(),
                deadline_ms: Some(250),
                query: Query::Point {
                    record: vec![(0, 3), (2, 1)],
                    opts: QueryOptions {
                        by: Some(RankBy::Support),
                        top_k: Some(5),
                        min_lift: Some(1.25),
                        max_p: Some(0.05),
                    },
                },
            },
            Request::Batch {
                catalog: "planted".into(),
                deadline_ms: None,
                queries: vec![
                    Query::Range {
                        attr: 1,
                        lo: 20.0,
                        hi: 40.0,
                        opts: QueryOptions::default(),
                    },
                    Query::TopK {
                        by: RankBy::Interest,
                        k: 3,
                    },
                    Query::TopK {
                        by: RankBy::Lift,
                        k: 10,
                    },
                    Query::TopK {
                        by: RankBy::JMeasure,
                        k: 1,
                    },
                ],
            },
            Request::Reload {
                catalog: "planted".into(),
            },
            Request::Info,
            Request::Shutdown,
        ]
    }

    fn sample_responses() -> Vec<Response> {
        vec![
            Response::Pong,
            Response::Ids {
                generation: 2,
                ids: vec![0, 4, 9],
            },
            Response::Batch {
                generation: 1,
                items: vec![
                    Ok(vec![1, 2, 3]),
                    Err(WireError::new(ErrorCode::BadRequest, "attr 99 unknown")),
                ],
            },
            Response::Reloaded {
                catalog: "planted".into(),
                generation: 3,
                rules: 44,
            },
            Response::Info {
                catalogs: vec![CatalogInfo {
                    name: "planted".into(),
                    generation: 1,
                    rules: 44,
                    analytics: true,
                }],
            },
            Response::Error(WireError::new(ErrorCode::UnknownCatalog, "no such slot")),
            Response::ShuttingDown,
        ]
    }

    #[test]
    fn requests_round_trip_byte_exactly() {
        for req in sample_requests() {
            let frame = req.to_frame().unwrap();
            let decoded = decode_request(&frame).expect("frame decodes");
            assert_eq!(decoded, req);
            assert_eq!(decoded.to_frame().unwrap(), frame, "canonical re-encode");
        }
    }

    #[test]
    fn responses_round_trip_byte_exactly() {
        for resp in sample_responses() {
            let frame = resp.to_frame().unwrap();
            let decoded = decode_response(&frame).expect("frame decodes");
            assert_eq!(decoded, resp);
            assert_eq!(decoded.to_frame().unwrap(), frame, "canonical re-encode");
        }
    }

    #[test]
    fn nan_range_bounds_survive_bit_exactly() {
        let req = Request::Query {
            catalog: "c".into(),
            deadline_ms: None,
            query: Query::Range {
                attr: 0,
                lo: f64::NAN,
                hi: f64::NEG_INFINITY,
                opts: QueryOptions::default(),
            },
        };
        let frame = req.to_frame().unwrap();
        match decode_request(&frame).unwrap() {
            Request::Query {
                query: Query::Range { lo, hi, .. },
                ..
            } => {
                assert!(lo.is_nan());
                assert_eq!(hi, f64::NEG_INFINITY);
            }
            other => panic!("wrong decode: {other:?}"),
        }
        assert_eq!(decode_request(&frame).unwrap().to_frame().unwrap(), frame);
    }

    #[test]
    fn unknown_tags_are_structured_errors() {
        let frame = encode_frame(77, b"").unwrap();
        assert!(matches!(
            decode_request(&frame),
            Err(ProtocolError::UnknownTag(77))
        ));
        // A response tag sent where a request is expected is unknown too.
        let frame = encode_frame(tag::RESP_PONG, b"").unwrap();
        assert!(matches!(
            decode_request(&frame),
            Err(ProtocolError::UnknownTag(_))
        ));
    }

    #[test]
    fn oversized_length_is_rejected_before_allocation() {
        let mut frame = encode_frame(tag::REQ_PING, b"").unwrap();
        frame[8..12].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        assert!(matches!(
            decode_frame(&frame),
            Err(ProtocolError::Oversized { .. })
        ));
        let mut cursor = std::io::Cursor::new(frame);
        assert!(matches!(
            read_frame(&mut cursor),
            Err(ProtocolError::Oversized { .. })
        ));
    }

    #[test]
    fn stream_reader_round_trips_multiple_frames() {
        let mut buf = Vec::new();
        for req in sample_requests() {
            buf.extend_from_slice(&req.to_frame().unwrap());
        }
        let mut cursor = std::io::Cursor::new(buf);
        let mut seen = Vec::new();
        while let Some(req) = read_request(&mut cursor).expect("stream decodes") {
            seen.push(req);
        }
        assert_eq!(seen, sample_requests());
    }

    #[test]
    fn eof_mid_frame_is_truncated_not_clean() {
        let frame = Request::Info.to_frame().unwrap();
        for cut in 1..frame.len() {
            let mut cursor = std::io::Cursor::new(frame[..cut].to_vec());
            assert!(
                matches!(
                    read_frame(&mut cursor),
                    Err(ProtocolError::Truncated { .. })
                ),
                "cut at {cut} not reported as truncation"
            );
        }
        // Zero bytes is the one clean EOF.
        let mut cursor = std::io::Cursor::new(Vec::new());
        assert!(matches!(read_frame(&mut cursor), Ok(None)));
    }

    #[test]
    fn oversized_payload_is_a_structured_encode_error() {
        // Exactly MAX_PAYLOAD bytes still frames.
        let at_limit = vec![0u8; MAX_PAYLOAD as usize];
        let frame = encode_frame(tag::REQ_PING, &at_limit).unwrap();
        assert_eq!(frame.len(), HEADER_LEN + MAX_PAYLOAD as usize);

        // One byte more is Oversized on the *encode* side — no panic, no
        // bytes produced.
        let too_big = vec![0u8; MAX_PAYLOAD as usize + 1];
        match encode_frame(tag::REQ_PING, &too_big) {
            Err(ProtocolError::Oversized { len }) => {
                assert_eq!(len, MAX_PAYLOAD + 1);
            }
            other => panic!("expected Oversized, got {other:?}"),
        }

        // And the same through a whole message: enough rule ids to blow
        // the 16 MiB ceiling.
        let ids: Vec<u32> = (0..(MAX_PAYLOAD / 4)).collect();
        let response = Response::Ids { generation: 1, ids };
        match response.to_frame() {
            Err(ProtocolError::Oversized { len }) => {
                assert!(len > MAX_PAYLOAD);
            }
            Err(other) => panic!("expected Oversized, got {other:?}"),
            Ok(_) => panic!("oversized response framed"),
        }

        // write_frame refuses before touching the writer.
        let mut sink = Vec::new();
        assert!(matches!(
            write_frame(&mut sink, tag::REQ_PING, &too_big),
            Err(ProtocolError::Oversized { .. })
        ));
        assert!(sink.is_empty());
    }
}

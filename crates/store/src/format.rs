//! The `.qarcat` wire format: primitives, section framing, CRC-32.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic    8 bytes   "QARCAT\r\n"  (catches text-mode CRLF mangling)
//! version  u32       currently 1
//! section  repeated, fixed order: schema (1), rules (2), stats (3),
//!          then optional trailing sections (analytics (4), counts (6),
//!          and any unknown tag — skipped, but still CRC-verified — so
//!          old readers open new catalogs and vice versa; the retired
//!          v1 counts layout (5) is recognised and skipped too)
//!   tag    u32
//!   len    u64       payload length in bytes
//!   crc    u32       CRC-32 (IEEE) over tag bytes ++ payload
//!   payload
//! ```
//!
//! The CRC covers the tag as well as the payload so a bit flip that turns
//! one section tag into another cannot reframe the file and still
//! checksum clean. `f64`s are stored as raw IEEE-754 bits
//! ([`f64::to_bits`]) so every value — including NaNs and signed zeros —
//! round-trips bit-exactly.

use crate::error::StoreError;

/// File magic: ASCII "QARCAT" plus CRLF, like PNG's header trick.
pub const MAGIC: [u8; 8] = *b"QARCAT\r\n";

/// Current format version. Bump on any layout change.
pub const VERSION: u32 = 1;

/// Section tags, in their required file order.
pub mod tag {
    /// Schema + per-attribute encoders.
    pub const SCHEMA: u32 = 1;
    /// Rules, interest verdicts, row count.
    pub const RULES: u32 = 2;
    /// `MiningStats` provenance.
    pub const STATS: u32 = 3;
    /// Optional rule-quality analytics (lift, conviction, chi-square,
    /// J-measure, Shapley attributions). Trails the mandatory sections.
    pub const ANALYTICS: u32 = 4;
    /// The first persisted-counts layout, which recorded every member
    /// of `C_2` with its tally. Recognised and skipped on load: such a
    /// catalog serves its rules but carries no counts an update can use.
    pub const COUNTS_V1: u32 = 5;
    /// Optional persisted support counts (row total + encoding
    /// fingerprint + mining configuration + pass-1 histograms + pass-2
    /// pair-histogram cells + explicit candidate tallies) powering
    /// incremental updates. Trails the mandatory sections (after
    /// analytics, when both are present).
    pub const COUNTS: u32 = 6;
}

/// Human name of a section tag (for error messages).
pub fn section_name(tag: u32) -> &'static str {
    match tag {
        tag::SCHEMA => "schema",
        tag::RULES => "rules",
        tag::STATS => "stats",
        tag::ANALYTICS => "analytics",
        tag::COUNTS_V1 => "counts-v1",
        tag::COUNTS => "counts",
        _ => "unknown",
    }
}

const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE 802.3 polynomial) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_append(0, bytes)
}

/// The CRC-32 of some bytes followed by `bytes`, given `crc`, the CRC-32
/// of the bytes before: `crc32_append(crc32(a), b) == crc32(a ++ b)`.
pub fn crc32_append(crc: u32, bytes: &[u8]) -> u32 {
    let mut crc = !crc;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// The checksum of a section or frame: CRC-32 over the tag's
/// little-endian bytes, then the payload, read where it lies.
pub fn tagged_crc32(tag: u32, payload: &[u8]) -> u32 {
    crc32_append(crc32(&tag.to_le_bytes()), payload)
}

/// Append-only encoder for catalog payloads.
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Fresh empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bytes written so far.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Append one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a bool as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    /// Append a little-endian u32.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian u64.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an f64 as its raw IEEE-754 bits (little-endian).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_u64(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Append a `Duration` as whole seconds + subsecond nanos.
    pub fn put_duration(&mut self, d: std::time::Duration) {
        self.put_u64(d.as_secs());
        self.put_u32(d.subsec_nanos());
    }

    /// Append a framed section: tag, payload length, CRC over
    /// tag ++ payload, then the payload itself.
    pub fn put_section(&mut self, tag: u32, payload: &[u8]) {
        self.put_u32(tag);
        self.put_u64(payload.len() as u64);
        self.put_u32(tagged_crc32(tag, payload));
        self.buf.extend_from_slice(payload);
    }
}

/// Bounds-checked cursor over untrusted catalog bytes. Every read
/// returns [`StoreError::Truncated`] instead of slicing out of range.
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Section name used in error messages ("header" before any section).
    section: &'static str,
}

impl<'a> Reader<'a> {
    /// Read from the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader {
            bytes,
            pos: 0,
            section: "header",
        }
    }

    /// Current byte offset.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Set the section name reported by [`Reader::corrupt`].
    pub fn set_section(&mut self, section: &'static str) {
        self.section = section;
    }

    /// Build a [`StoreError::Corrupt`] for the current section.
    pub fn corrupt(&self, detail: impl Into<String>) -> StoreError {
        StoreError::Corrupt {
            section: self.section,
            detail: detail.into(),
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        if self.remaining() < n {
            return Err(StoreError::Truncated {
                offset: self.pos,
                needed: n - self.remaining(),
            });
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Read one byte.
    pub fn get_u8(&mut self) -> Result<u8, StoreError> {
        Ok(self.take(1)?[0])
    }

    /// Read a bool byte, rejecting anything but 0 or 1.
    pub fn get_bool(&mut self) -> Result<bool, StoreError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(self.corrupt(format!("bool byte is {b}, expected 0 or 1"))),
        }
    }

    /// Read a little-endian u32.
    pub fn get_u32(&mut self) -> Result<u32, StoreError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a little-endian u64.
    pub fn get_u64(&mut self) -> Result<u64, StoreError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read an f64 from its raw bits.
    pub fn get_f64(&mut self) -> Result<f64, StoreError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Read an element count that claims `elem_size`-byte elements,
    /// rejecting counts that cannot fit in the remaining input (so a
    /// corrupted count can never drive a huge allocation).
    pub fn get_count(&mut self, elem_size: usize) -> Result<usize, StoreError> {
        let n = self.get_u64()?;
        let max = (self.remaining() / elem_size.max(1)) as u64;
        if n > max {
            return Err(self.corrupt(format!(
                "count {n} exceeds what the remaining {} byte(s) can hold",
                self.remaining()
            )));
        }
        Ok(n as usize)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, StoreError> {
        let len = self.get_count(1)?;
        let offset = self.pos;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| StoreError::Corrupt {
            section: self.section,
            detail: format!("invalid UTF-8 in string at offset {offset}"),
        })
    }

    /// Read a `Duration`, rejecting denormalized subsecond nanos (which
    /// would break bit-exact re-encoding).
    pub fn get_duration(&mut self) -> Result<std::time::Duration, StoreError> {
        let secs = self.get_u64()?;
        let nanos = self.get_u32()?;
        if nanos >= 1_000_000_000 {
            return Err(self.corrupt(format!("duration has {nanos} subsecond nanos")));
        }
        Ok(std::time::Duration::new(secs, nanos))
    }

    /// Read one section's framing, verify its CRC, and return
    /// `(tag, payload)`. The expected tag is enforced by the caller (the
    /// section order is fixed).
    pub fn get_section(&mut self) -> Result<(u32, &'a [u8]), StoreError> {
        self.set_section("header");
        let tag = self.get_u32()?;
        let len = self.get_u64()?;
        let need = len.saturating_add(4); // crc + payload
        if (self.remaining() as u64) < need {
            return Err(StoreError::Truncated {
                offset: self.pos,
                needed: (need - self.remaining() as u64).min(usize::MAX as u64) as usize,
            });
        }
        let crc = self.get_u32()?;
        let payload = self.take(len as usize)?;
        if tagged_crc32(tag, payload) != crc {
            return Err(StoreError::ChecksumMismatch {
                section: section_name(tag),
            });
        }
        Ok((tag, payload))
    }

    /// Read one section's framing like [`Reader::get_section`], but
    /// report a checksum mismatch as data (`crc_ok = false`) instead of
    /// an error — the inventory walk of `qar store-check` wants to list
    /// every section, bad ones included. Truncated framing still errors.
    pub fn get_section_frame(&mut self) -> Result<(u32, u64, bool), StoreError> {
        self.set_section("header");
        let tag = self.get_u32()?;
        let len = self.get_u64()?;
        let need = len.saturating_add(4); // crc + payload
        if (self.remaining() as u64) < need {
            return Err(StoreError::Truncated {
                offset: self.pos,
                needed: (need - self.remaining() as u64).min(usize::MAX as u64) as usize,
            });
        }
        let crc = self.get_u32()?;
        let payload = self.take(len as usize)?;
        Ok((tag, len, tagged_crc32(tag, payload) == crc))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_the_standard_check_value() {
        // The canonical CRC-32/IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_continues_across_splits() {
        let bytes = b"tag!and a payload";
        for split in 0..=bytes.len() {
            let (a, b) = bytes.split_at(split);
            assert_eq!(crc32_append(crc32(a), b), crc32(bytes), "split at {split}");
        }
        assert_eq!(tagged_crc32(7, b"xyz"), crc32(b"\x07\0\0\0xyz"));
    }

    #[test]
    fn primitives_round_trip() {
        let mut w = Writer::new();
        w.put_u8(7);
        w.put_bool(true);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 1);
        w.put_f64(-0.0);
        w.put_f64(f64::NAN);
        w.put_str("héllo");
        w.put_duration(std::time::Duration::new(3, 500));
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert!(r.get_bool().unwrap());
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.get_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.get_f64().unwrap().is_nan());
        assert_eq!(r.get_str().unwrap(), "héllo");
        assert_eq!(r.get_duration().unwrap(), std::time::Duration::new(3, 500));
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn section_round_trips_and_rejects_tampering() {
        let mut w = Writer::new();
        w.put_section(tag::RULES, b"payload bytes");
        let good = w.into_bytes();
        let (tag, payload) = Reader::new(&good).get_section().unwrap();
        assert_eq!(tag, tag::RULES);
        assert_eq!(payload, b"payload bytes");

        // Flip any single byte: either the CRC fails or (for the length
        // field) the framing no longer fits.
        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0x40;
            assert!(
                Reader::new(&bad).get_section().is_err(),
                "flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn truncated_reads_report_offsets() {
        let mut r = Reader::new(b"\x01");
        match r.get_u32() {
            Err(StoreError::Truncated {
                offset: 0,
                needed: 3,
            }) => {}
            other => panic!("unexpected: {other:?}"),
        }
        let mut r = Reader::new(&[5, 0, 0, 0, 0, 0, 0, 0, b'a']);
        assert!(matches!(r.get_str(), Err(StoreError::Corrupt { .. })));
    }

    #[test]
    fn counts_cannot_exceed_remaining_input() {
        // Claims 2^40 8-byte elements with nothing behind it.
        let mut w = Writer::new();
        w.put_u64(1 << 40);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(matches!(r.get_count(8), Err(StoreError::Corrupt { .. })));
    }
}

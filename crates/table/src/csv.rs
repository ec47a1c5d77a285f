//! A dependency-free CSV reader/writer for relational tables.
//!
//! Supports the common subset of RFC 4180: comma separation, `"`-quoting
//! with doubled-quote escapes, and embedded commas/newlines inside quoted
//! fields. The first record must be a header whose names match the schema.
//!
//! The reader makes a single pass over the input. A record reader runs one
//! quote state machine that carries its state across physical lines and
//! assembles a record's unescaped fields in one reused byte buffer, so
//! reading is linear in the input whatever it holds. A byte range without
//! a `"` is read in place instead: it is checked as UTF-8 once, and its
//! fields are slices of it, cut at newlines and commas. Categorical fields
//! go straight into their column's dictionary (a known label allocates
//! nothing); quantitative fields are parsed as `i64`, else as `f64`, a
//! sign and at most 18 digits straight from their bytes.
//!
//! Line endings may be `\n` or `\r\n`; blank lines between records are
//! skipped. Every error names the first physical line of the record it was
//! found in. That covers malformed quoting, a wrong field count, a bad or
//! non-finite number, and bytes that are not UTF-8.
//!
//! [`read_table_threaded`] (and [`read_table`], on the automatic thread
//! count) reads the input in blocks of 124 KiB, each ending on a
//! line end. A block without a `"` byte has a record end at every `\n`,
//! so it is cut at newlines into one byte range per thread, each read in
//! place: the first straight into the table on the calling thread, the
//! others on scoped threads into spare tables, appended in range order
//! with their labels interned in first-seen order. So the table equals
//! the serial reader's cell for cell and code for code. A block holding a
//! quote byte is parsed on the calling thread, record by record, on past its end if a quoted field
//! runs on; splitting resumes with the next block. An error is the first
//! failing range's, its line counted from the lines of the ranges before.
//! [`CsvChunks`] reads serially.
//!
//! [`cut_ranges`] and [`read_range`] split one file among readers that
//! need not share a process: the body after the header is cut at newlines
//! into byte ranges, and each range is parsed on its own by the same
//! block reader. A quoted field may hold a newline a cut fell on, so a
//! range holding a `"` byte is not parsed. A file holding one is cut
//! again by [`cut_records`], at newlines an even number of quotes
//! precede, which end records; [`read_range`] reads such ranges' quoted
//! blocks record by record. A range's error counts its line from the
//! range's first line, so the caller adds the header's lines and the
//! earlier ranges' lines ([`TableError::after_lines`]) to name the line a
//! serial read names.

use std::io::{self, BufRead, Read, Seek, SeekFrom, Write};
use std::ops::Range;

use crate::error::TableError;
use crate::schema::{AttributeId, Schema};
use crate::table::{Column, Table};
use crate::threads::{auto_threads, run_sharded, MAX_THREADS};

/// The bytes [`read_table_threaded`] reads per block before cutting it at
/// the next line end (124 KiB). An input shorter than one block is parsed
/// on the calling thread. The block buffer stays below 128 KiB, the C
/// allocator's default size for serving an allocation from a memory
/// mapping of its own: a freed buffer above it raises that size, so the
/// columns of the next tables loaded grow on the heap instead. With
/// 1 MiB blocks, five loads of 500k credit rows with the previous table
/// still held peaked 7–13% higher than the serial reader's.
const BLOCK_BYTES: usize = 124 << 10;

/// Where the quote state machine stands within the current field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Nothing of the field read yet.
    FieldStart,
    /// Inside an unquoted field with at least one byte.
    Unquoted,
    /// Inside a quoted field.
    Quoted,
    /// A `"` inside a quoted field: an escaped quote if another follows,
    /// else the closing quote.
    QuoteInQuoted,
    /// After a field's closing quote.
    Closed,
}

/// The bytes that end a run of unquoted field text.
const UNQUOTED_STOPS: [bool; 256] = {
    let mut stops = [false; 256];
    stops[b',' as usize] = true;
    stops[b'"' as usize] = true;
    stops[b'\n' as usize] = true;
    stops[b'\r' as usize] = true;
    stops
};

fn csv_error(line: usize, message: &str) -> TableError {
    TableError::Csv {
        line,
        message: message.into(),
    }
}

/// Append `pending` held-back `\r` bytes to a field as content.
fn flush_cr(buf: &mut Vec<u8>, pending: &mut usize) {
    buf.resize(buf.len() + *pending, b'\r');
    *pending = 0;
}

/// Streams logical records out of a CSV input.
struct RecordReader<R> {
    reader: R,
    /// The current record's unescaped fields, back to back.
    buf: Vec<u8>,
    /// End offset of each field of the current record in `buf`.
    ends: Vec<usize>,
    /// Physical lines consumed so far.
    line_no: usize,
}

impl<R: BufRead> RecordReader<R> {
    fn new(reader: R) -> Self {
        RecordReader {
            reader,
            buf: Vec::new(),
            ends: Vec::new(),
            line_no: 0,
        }
    }

    /// Read the next non-blank record, returning its first physical line,
    /// or `None` at end of input.
    fn next_record(&mut self) -> Result<Option<usize>, TableError> {
        let RecordReader {
            reader,
            buf,
            ends,
            line_no,
        } = self;
        buf.clear();
        ends.clear();
        let mut first_line = *line_no + 1;
        let mut state = State::FieldStart;
        // `\r` bytes outside quotes are held back: at the end of a line
        // they are dropped, anywhere else they are field content.
        let mut pending_cr = 0usize;
        // Whether the record has anything but held-back `\r` bytes.
        let mut content = false;
        loop {
            let chunk = reader.fill_buf()?;
            if chunk.is_empty() {
                if !content {
                    return Ok(None);
                }
                // A final line without a newline still counts.
                *line_no += 1;
                if state == State::Quoted {
                    return Err(csv_error(first_line, "unterminated quoted field"));
                }
                ends.push(buf.len());
                return Ok(Some(first_line));
            }
            let mut i = 0;
            let mut done = false;
            while i < chunk.len() && !done {
                match state {
                    State::FieldStart | State::Unquoted => {
                        let run = chunk[i..]
                            .iter()
                            .position(|&b| UNQUOTED_STOPS[b as usize])
                            .unwrap_or(chunk.len() - i);
                        if run > 0 {
                            flush_cr(buf, &mut pending_cr);
                            buf.extend_from_slice(&chunk[i..i + run]);
                            state = State::Unquoted;
                            content = true;
                            i += run;
                            if i == chunk.len() {
                                continue;
                            }
                        }
                        let byte = chunk[i];
                        i += 1;
                        if byte == b'\r' {
                            pending_cr += 1;
                            continue;
                        }
                        if byte == b'\n' {
                            *line_no += 1;
                            pending_cr = 0;
                            if content {
                                done = true;
                            } else {
                                first_line = *line_no + 1;
                            }
                            continue;
                        }
                        if pending_cr > 0 {
                            flush_cr(buf, &mut pending_cr);
                            state = State::Unquoted;
                        }
                        content = true;
                        if byte == b',' {
                            ends.push(buf.len());
                            state = State::FieldStart;
                        } else if state == State::Unquoted {
                            return Err(csv_error(
                                first_line,
                                "quote in the middle of an unquoted field",
                            ));
                        } else {
                            state = State::Quoted;
                        }
                    }
                    State::Quoted => {
                        let run = chunk[i..]
                            .iter()
                            .position(|&b| b == b'"')
                            .unwrap_or(chunk.len() - i);
                        let text = &chunk[i..i + run];
                        *line_no += text.iter().filter(|&&b| b == b'\n').count();
                        buf.extend_from_slice(text);
                        i += run;
                        if i < chunk.len() {
                            i += 1;
                            state = State::QuoteInQuoted;
                        }
                    }
                    State::QuoteInQuoted => {
                        if chunk[i] == b'"' {
                            buf.push(b'"');
                            i += 1;
                            state = State::Quoted;
                        } else {
                            state = State::Closed;
                        }
                    }
                    State::Closed => {
                        let byte = chunk[i];
                        i += 1;
                        match byte {
                            b'\r' => pending_cr += 1,
                            b'\n' => {
                                *line_no += 1;
                                pending_cr = 0;
                                done = true;
                            }
                            b',' if pending_cr == 0 => {
                                ends.push(buf.len());
                                state = State::FieldStart;
                            }
                            _ => return Err(csv_error(first_line, "text after closing quote")),
                        }
                    }
                }
            }
            reader.consume(i);
            if done {
                ends.push(buf.len());
                return Ok(Some(first_line));
            }
        }
    }

    /// Number of fields in the current record.
    fn num_fields(&self) -> usize {
        self.ends.len()
    }

    /// The fields of the current record, which began on `line`. Fails if
    /// any field is not UTF-8.
    fn fields(&self, line: usize) -> Result<Fields<'_>, TableError> {
        let invalid = || csv_error(line, "invalid UTF-8");
        // The record is checked in one piece. Its fields are then valid
        // exactly when each also starts and ends on a character boundary.
        let text = std::str::from_utf8(&self.buf).map_err(|_| invalid())?;
        if !self.ends.iter().all(|&end| text.is_char_boundary(end)) {
            return Err(invalid());
        }
        Ok(Fields {
            text,
            ends: &self.ends,
        })
    }
}

/// The fields of one record, checked to be UTF-8.
struct Fields<'a> {
    text: &'a str,
    ends: &'a [usize],
}

impl<'a> Fields<'a> {
    /// Field `index`.
    fn get(&self, index: usize) -> &'a str {
        let start = if index == 0 { 0 } else { self.ends[index - 1] };
        &self.text[start..self.ends[index]]
    }
}

/// Parse a quantitative cell the way every reader of this crate does: as
/// an `i64` if it is one, else as a finite `f64`, ignoring surrounding
/// whitespace. The flag is true for an `i64`, a whole number by parse.
fn parse_number(raw: &str, line: usize) -> Result<(f64, bool), TableError> {
    let token = raw.trim();
    if let Ok(i) = token.parse::<i64>() {
        return Ok((i as f64, true));
    }
    match token.parse::<f64>() {
        Ok(x) if x.is_finite() => Ok((x, false)),
        _ => Err(TableError::BadNumber {
            line,
            token: raw.to_owned(),
        }),
    }
}

/// Read a whole table from CSV. The header is matched *by name* against the
/// schema (any column order), and each cell is parsed per the attribute's
/// kind: quantitative cells must parse as numbers, categorical cells are
/// taken verbatim. Runs on [`crate::threads::auto_threads`] threads (see
/// [`read_table_threaded`]).
///
/// ```
/// use qar_table::{csv, Schema, Value};
///
/// let schema = Schema::builder()
///     .quantitative("age").categorical("married").build().unwrap();
/// let data = "married,age\nNo,23\nYes,38\n";
/// let table = csv::read_table(data.as_bytes(), &schema).unwrap();
/// assert_eq!(table.num_rows(), 2);
/// assert_eq!(table.row(0).value(0), Value::Int(23));
/// ```
pub fn read_table<R: BufRead>(reader: R, schema: &Schema) -> Result<Table, TableError> {
    read_table_threaded(reader, schema, auto_threads(), &|| false)
}

/// [`read_table`] on up to `threads` threads: the table, the errors and
/// their lines are the serial reader's whatever the thread count (see the
/// module docs for how blocks are cut). `cancelled` is asked once per
/// block; once it says so, the read ends in [`TableError::Cancelled`].
pub fn read_table_threaded<R: BufRead>(
    reader: R,
    schema: &Schema,
    threads: usize,
    cancelled: &(dyn Fn() -> bool + Sync),
) -> Result<Table, TableError> {
    read_blocks(reader, schema, threads, BLOCK_BYTES, cancelled)
}

/// The records of one byte range of a CSV file, as [`read_range`] parses
/// them.
#[derive(Debug)]
pub struct RangeRead {
    /// The range's records, in file order.
    pub table: Table,
    /// The physical lines the range spans.
    pub lines: usize,
}

/// Cut the body of the CSV file `file` (its bytes after the header) into
/// `parts` byte ranges of whole lines, in order: each range but the last
/// ends just after the first `\n` at or after its share `len·i/parts` of
/// the body, the last at the end of the file, so a range may be empty.
/// Returns the lines the header spans and the ranges. The header is
/// matched against `schema` as [`read_table`] matches it, with its errors.
///
/// A range is a unit of the file only if no quoted field runs across its
/// ends; [`read_range`] tells, by stopping at any `"` byte, and
/// [`cut_records`] cuts such a file.
pub fn cut_ranges<R: Read + Seek>(
    mut file: R,
    schema: &Schema,
    parts: usize,
) -> Result<(usize, Vec<Range<u64>>), TableError> {
    let (_, header_lines, body) = header_of(&mut file, schema)?;
    let end = file.seek(SeekFrom::End(0))?;
    let parts = parts.max(1) as u64;
    let mut ranges = Vec::new();
    let mut start = body;
    for part in 1..=parts {
        let cut = if part == parts {
            end
        } else {
            let target = (body + (end - body) * part / parts).max(start);
            after_newline(&mut file, target)?.unwrap_or(end)
        };
        ranges.push(start..cut);
        start = cut;
    }
    Ok((header_lines, ranges))
}

/// Cut the body of the CSV file `file` into `parts` byte ranges of whole
/// records, in order, as [`cut_ranges`] does but at record ends: each
/// range but the last ends just after the first `\n` at or after its
/// share of the body that an even number of `"` bytes precede in the
/// body. One pass over the body carries that parity. Returns the lines
/// the header spans and the ranges, the header matched as in
/// [`cut_ranges`].
///
/// Every prefix of whole records the reader accepts holds an even number
/// of quotes: a quote opens a field, closes it, or is half of an escaped
/// `""`. So a cut falls inside a record only after a malformed record,
/// which fails first, in a range that starts on a record boundary.
pub fn cut_records<R: Read + Seek>(
    mut file: R,
    schema: &Schema,
    parts: usize,
) -> Result<(usize, Vec<Range<u64>>), TableError> {
    let (_, header_lines, body) = header_of(&mut file, schema)?;
    let end = file.seek(SeekFrom::End(0))?;
    file.seek(SeekFrom::Start(body))?;
    let mut reader = io::BufReader::with_capacity(64 << 10, file);
    let parts = parts.max(1) as u64;
    let mut ranges = Vec::new();
    let (mut start, mut at, mut odd) = (body, body, false);
    for part in 1..=parts {
        let target = body + (end - body) * part / parts;
        let cut = if part == parts {
            end
        } else {
            loop {
                let bytes = reader.fill_buf()?;
                if bytes.is_empty() {
                    break end;
                }
                // Bytes before the target only count towards the parity.
                let before = usize::try_from(target.saturating_sub(at))
                    .map_or(bytes.len(), |n| n.min(bytes.len()));
                odd ^= bytes[..before].iter().filter(|&&b| b == b'"').count() % 2 == 1;
                let mut record_end = None;
                for (i, &b) in bytes.iter().enumerate().skip(before) {
                    if b == b'"' {
                        odd = !odd;
                    } else if b == b'\n' && !odd {
                        record_end = Some(i + 1);
                        break;
                    }
                }
                let used = record_end.unwrap_or(bytes.len());
                reader.consume(used);
                at += used as u64;
                if record_end.is_some() {
                    break at;
                }
            }
        };
        ranges.push(start..cut);
        start = cut;
    }
    Ok((header_lines, ranges))
}

/// The offset just past the first `\n` at or after byte `from`, if any.
fn after_newline<R: Read + Seek>(file: &mut R, from: u64) -> io::Result<Option<u64>> {
    file.seek(SeekFrom::Start(from))?;
    let mut reader = io::BufReader::with_capacity(8 << 10, file);
    let mut at = from;
    loop {
        let bytes = reader.fill_buf()?;
        if bytes.is_empty() {
            return Ok(None);
        }
        if let Some(newline) = bytes.iter().position(|&b| b == b'\n') {
            return Ok(Some(at + newline as u64 + 1));
        }
        let read = bytes.len();
        at += read as u64;
        reader.consume(read);
    }
}

/// Parse the byte range `range` of the CSV file `file`, whole lines after
/// its header as [`cut_ranges`] cuts them, on up to `threads` threads as
/// [`read_table_threaded`] parses a file's blocks. The header is read
/// again from the start of the file for its column order. Unless
/// `records` says the range is one [`cut_records`] cut, whose ends are
/// record ends, the read returns `Ok(None)` once a block of the range
/// holds a `"` byte, since a quoted field may run across the range's ends;
/// with `records`, quoted blocks are read record by record as in a whole
/// file. An error's line counts from the range's first line as line 1;
/// `cancelled` is asked once per block.
pub fn read_range<R: Read + Seek>(
    mut file: R,
    schema: &Schema,
    range: Range<u64>,
    records: bool,
    threads: usize,
    cancelled: &(dyn Fn() -> bool + Sync),
) -> Result<Option<RangeRead>, TableError> {
    // The caller cut the range after reading the same header.
    let (order, _, body) = header_of(&mut file, schema)
        .map_err(|e| TableError::Io(format!("the header no longer reads: {e}")))?;
    if range.start < body || range.end < range.start {
        return Err(TableError::Io(format!(
            "byte range {range:?} does not lie after the header, which ends at byte {body}"
        )));
    }
    file.seek(SeekFrom::Start(range.start))?;
    let bytes = io::BufReader::new(file.take(range.end - range.start));
    let mut reader = RecordReader::new(Pending::new(bytes, BLOCK_BYTES));
    let table = parse_blocks(
        &mut reader,
        schema,
        &order,
        threads,
        BLOCK_BYTES,
        cancelled,
        !records,
    )?;
    Ok(table.map(|table| RangeRead {
        table,
        lines: reader.line_no,
    }))
}

/// Read the header of `file` from its start: the attribute of every CSV
/// column, the lines the header spans and the offset just after it.
fn header_of<R: Read + Seek>(
    file: &mut R,
    schema: &Schema,
) -> Result<(Vec<AttributeId>, usize, u64), TableError> {
    file.seek(SeekFrom::Start(0))?;
    let mut records = RecordReader::new(io::BufReader::new(&mut *file));
    let order = read_header(&mut records, schema)?;
    let body = records.reader.stream_position()?;
    Ok((order, records.line_no, body))
}

/// [`read_table_threaded`] at a given block size.
fn read_blocks<R: BufRead>(
    reader: R,
    schema: &Schema,
    threads: usize,
    block_bytes: usize,
    cancelled: &(dyn Fn() -> bool + Sync),
) -> Result<Table, TableError> {
    let mut records = RecordReader::new(Pending::new(reader, block_bytes));
    let order = read_header(&mut records, schema)?;
    let table = parse_blocks(
        &mut records,
        schema,
        &order,
        threads,
        block_bytes,
        cancelled,
        false,
    )?;
    Ok(table.expect("a read that parses quoted blocks reads to the end"))
}

/// Parse the records of `records` onto a new table of `schema`, a block
/// at a time, their CSV columns going to the attributes `order` names. With
/// `stop_at_quote`, the first block holding a `"` byte ends the parse in
/// `Ok(None)` instead of being read record by record.
fn parse_blocks<R: BufRead>(
    records: &mut RecordReader<Pending<R>>,
    schema: &Schema,
    order: &[AttributeId],
    threads: usize,
    block_bytes: usize,
    cancelled: &(dyn Fn() -> bool + Sync),
    stop_at_quote: bool,
) -> Result<Option<Table>, TableError> {
    let threads = threads.clamp(1, MAX_THREADS);
    let mut table = Table::new(schema.clone());
    // One table per range after the first, emptied after each block so its
    // columns keep their capacity from block to block.
    let mut spare: Vec<Table> = (1..threads).map(|_| Table::new(schema.clone())).collect();
    let mut first = true;
    loop {
        if cancelled() {
            return Err(TableError::Cancelled);
        }
        let (end, at_eof) = records.reader.fill_block(block_bytes)?;
        if end == 0 {
            return Ok(Some(table));
        }
        let block = &records.reader.bytes[..end];
        if block.contains(&b'"') {
            if stop_at_quote {
                return Ok(None);
            }
            // A quote may open a field that runs past any newline, so the
            // block is read record by record, on past `end` if need be.
            while records.reader.pos < end && read_record(records, order, &mut table)? {}
        } else {
            // The first range parses straight into the table, the others
            // into spare tables appended after it.
            let ranges = split_lines(block, if first && at_eof { 1 } else { threads });
            let parts = ranges.len() - 1;
            let targets = std::iter::once(&mut table).chain(&mut spare);
            let parsed = run_sharded(
                ranges
                    .into_iter()
                    .zip(targets)
                    .map(|(range, into)| {
                        let bytes = &block[range];
                        move || parse_range(bytes, order, into)
                    })
                    .collect(),
            );
            for lines in parsed {
                records.line_no += lines.map_err(|e| e.after_lines(records.line_no))?;
            }
            for part in &mut spare[..parts] {
                table.append(part);
                part.clear();
            }
            records.reader.pos = end;
        }
        first = false;
    }
}

/// The unread input of [`read_blocks`]: the bytes taken from `reader` but
/// not yet parsed (`bytes[pos..]`), then the rest of `reader`. Parsing
/// starts on a record boundary at `pos`.
struct Pending<R> {
    bytes: Vec<u8>,
    pos: usize,
    reader: R,
}

impl<R: BufRead> Pending<R> {
    /// Nothing pending yet before `reader`, with room for one block of
    /// `block_bytes`.
    fn new(reader: R, block_bytes: usize) -> Self {
        Pending {
            bytes: Vec::with_capacity(block_bytes),
            pos: 0,
            reader,
        }
    }

    /// Drop the parsed bytes, then read until at least `size` bytes are
    /// pending and on to a line end. Returns the length of the block of
    /// whole lines now at the front of `bytes` (every pending byte at the
    /// end of input) and whether the input has ended. A line longer than
    /// `size` grows the block in steps of `size`, each step searched
    /// once, so the cost stays linear.
    fn fill_block(&mut self, size: usize) -> io::Result<(usize, bool)> {
        self.bytes.drain(..self.pos);
        self.pos = 0;
        let mut at_eof = self.read_more(size.saturating_sub(self.bytes.len()))?;
        let mut searched = 0;
        loop {
            if let Some(last) = self.bytes[searched..].iter().rposition(|&b| b == b'\n') {
                return Ok((searched + last + 1, at_eof));
            }
            if at_eof {
                return Ok((self.bytes.len(), true));
            }
            searched = self.bytes.len();
            at_eof = self.read_more(size)?;
        }
    }

    /// Append up to `max` bytes from the reader. Returns whether fewer
    /// came, the input having ended.
    fn read_more(&mut self, max: usize) -> io::Result<bool> {
        let got = (&mut self.reader)
            .take(max as u64)
            .read_to_end(&mut self.bytes)?;
        Ok(got < max)
    }
}

impl<R: BufRead> Read for Pending<R> {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        let available = self.fill_buf()?;
        let n = available.len().min(out.len());
        out[..n].copy_from_slice(&available[..n]);
        self.consume(n);
        Ok(n)
    }
}

impl<R: BufRead> BufRead for Pending<R> {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        if self.pos < self.bytes.len() {
            Ok(&self.bytes[self.pos..])
        } else {
            self.reader.fill_buf()
        }
    }

    fn consume(&mut self, amount: usize) {
        if self.pos < self.bytes.len() {
            self.pos += amount;
        } else {
            self.reader.consume(amount);
        }
    }
}

/// Cut `block`, whole lines with no quote byte, into at most `parts`
/// non-empty ranges of whole lines of about equal length, in order.
fn split_lines(block: &[u8], parts: usize) -> Vec<Range<usize>> {
    let mut ranges = Vec::with_capacity(parts);
    let mut start = 0;
    for part in 1..=parts {
        let target = (block.len() * part / parts).max(start);
        let end = match block[target..].iter().position(|&b| b == b'\n') {
            Some(newline) if part < parts => target + newline + 1,
            _ => block.len(),
        };
        if end > start {
            ranges.push(start..end);
            start = end;
        }
    }
    ranges
}

/// Parse one range of whole records, holding no `"` byte, onto the end of
/// `into`. Returns the lines the range spans; an error's line counts from
/// the range's first line as line 1.
///
/// Without quotes a record is one line, so the range is read in place: it
/// is checked as UTF-8 once, each line loses its trailing `\r` bytes and
/// is split at commas into slices of the range. A record found faulty is
/// read again by the record reader, which names the fault as a serial
/// read does.
fn parse_range(bytes: &[u8], order: &[AttributeId], into: &mut Table) -> Result<usize, TableError> {
    let Ok(text) = std::str::from_utf8(bytes) else {
        // Some record is not UTF-8; the record reader reports the first
        // fault, which may be another record's or another kind.
        let mut records = RecordReader::new(bytes);
        while read_record(&mut records, order, into)? {}
        return Ok(records.line_no);
    };
    let mut lines = 0;
    let mut rest = text;
    while !rest.is_empty() {
        let (line, ended) = match rest.split_once('\n') {
            Some((line, next)) => {
                rest = next;
                (line, true)
            }
            None => (std::mem::take(&mut rest), false),
        };
        let record = line.trim_end_matches('\r');
        if record.is_empty() {
            // A blank line. A last line of `\r` bytes with no newline is
            // not counted, as the record reader does not count it.
            lines += usize::from(ended);
            continue;
        }
        lines += 1;
        if !push_record(record, order, into) {
            let mut records = RecordReader::new(line.as_bytes());
            let fault = read_record(&mut records, order, into)
                .expect_err("the record reader rejects every record the in-place read rejects");
            return Err(fault.after_lines(lines - 1));
        }
    }
    Ok(lines)
}

/// Push the fields of `record`, one quote-free line without its line end,
/// onto `into` as [`read_record`] would. Returns false, leaving the row
/// unfinished, if the field count or a number is wrong.
fn push_record(record: &str, order: &[AttributeId], into: &mut Table) -> bool {
    let bytes = record.as_bytes();
    // The start of the next field, one past the end once the last is read.
    let mut start = 0;
    for id in order {
        if start > bytes.len() {
            return false;
        }
        let column = into.column_mut(id.index());
        let end = match column {
            Column::Categorical(_) => {
                let end = field_end(bytes, start);
                column.push_label(&record[start..end]);
                end
            }
            Column::Quantitative { .. } => {
                let ((x, whole), end) = match short_integer(bytes, start) {
                    Some((i, end)) => ((i as f64, true), end),
                    None => {
                        let end = field_end(bytes, start);
                        // The record reader names the line on its re-read.
                        let Ok(number) = parse_number(&record[start..end], 0) else {
                            return false;
                        };
                        (number, end)
                    }
                };
                column.push_number(x, whole);
                end
            }
        };
        start = end + 1;
    }
    if start <= bytes.len() {
        return false;
    }
    into.finish_row();
    true
}

/// The end of the field of `bytes` that starts at `start`: the next comma,
/// or the end of `bytes`.
fn field_end(bytes: &[u8], start: usize) -> usize {
    bytes[start..]
        .iter()
        .position(|&b| b == b',')
        .map_or(bytes.len(), |comma| start + comma)
}

/// The field of `bytes` that starts at `start`, with its end, if it is an
/// optional sign and 1 to 18 ASCII digits, which no `i64` overflows;
/// [`parse_number`] reads every other field.
fn short_integer(bytes: &[u8], start: usize) -> Option<(i64, usize)> {
    let negative = bytes.get(start) == Some(&b'-');
    let first = start + usize::from(negative || bytes.get(start) == Some(&b'+'));
    let mut at = first;
    let mut value = 0i64;
    while let Some(&b) = bytes.get(at) {
        let digit = b.wrapping_sub(b'0');
        if digit > 9 {
            if b != b',' {
                return None;
            }
            break;
        }
        if at - first == 18 {
            return None;
        }
        value = value * 10 + i64::from(digit);
        at += 1;
    }
    if at == first {
        return None;
    }
    Some((if negative { -value } else { value }, at))
}

/// Read the header record and match it by name against `schema`: the
/// schema attribute of every CSV column. Fails on an empty input (no
/// header), a header/schema column-count mismatch, or an unknown name.
fn read_header<R: BufRead>(
    records: &mut RecordReader<R>,
    schema: &Schema,
) -> Result<Vec<AttributeId>, TableError> {
    let header_line = records.next_record()?.ok_or(TableError::Csv {
        line: 1,
        message: "empty input (no header)".into(),
    })?;
    if records.num_fields() != schema.len() {
        return Err(TableError::Csv {
            line: header_line,
            message: format!(
                "header has {} columns but schema has {}",
                records.num_fields(),
                schema.len()
            ),
        });
    }
    let header = records.fields(header_line)?;
    (0..records.num_fields())
        .map(|pos| {
            let name = header.get(pos);
            schema.id_of(name.trim()).map_err(|_| TableError::Csv {
                line: header_line,
                message: format!("header column `{name}` is not in the schema"),
            })
        })
        .collect()
}

/// Read the next record into `table`, its CSV columns going to the
/// attributes `order` names. Returns `false` at end of input.
fn read_record<R: BufRead>(
    records: &mut RecordReader<R>,
    order: &[AttributeId],
    table: &mut Table,
) -> Result<bool, TableError> {
    let Some(line) = records.next_record()? else {
        return Ok(false);
    };
    if records.num_fields() != order.len() {
        return Err(TableError::Csv {
            line,
            message: format!(
                "record has {} fields but schema has {}",
                records.num_fields(),
                order.len()
            ),
        });
    }
    // A failed record fails the whole read, so cells go straight into
    // their columns and the row is counted once all are in.
    let fields = records.fields(line)?;
    for (pos, id) in order.iter().enumerate() {
        let raw = fields.get(pos);
        let column = table.column_mut(id.index());
        match column {
            Column::Categorical(_) => column.push_label(raw),
            Column::Quantitative { .. } => {
                let (x, whole) = parse_number(raw, line)?;
                column.push_number(x, whole);
            }
        }
    }
    table.finish_row();
    Ok(true)
}

/// Streaming CSV reader that yields the table in fixed-size row blocks —
/// the ingest half of the out-of-core path. The header is parsed once at
/// construction (same by-name matching as [`read_table`]); each
/// [`CsvChunks::next_chunk`] call then reads up to `chunk_rows` logical
/// records into its own [`Table`]. The quote state machine runs over the
/// byte stream, not over blocks, so a quoted field spanning a block
/// boundary stays one record.
pub struct CsvChunks<R: BufRead> {
    records: RecordReader<R>,
    schema: Schema,
    /// CSV column position -> schema attribute.
    order: Vec<AttributeId>,
    chunk_rows: usize,
}

impl<R: BufRead> CsvChunks<R> {
    /// Parse the header and prepare to stream blocks of at most
    /// `chunk_rows` records. Fails on an empty input (no header), a
    /// header/schema column-count mismatch, or an unknown header name.
    pub fn new(reader: R, schema: Schema, chunk_rows: usize) -> Result<Self, TableError> {
        assert!(chunk_rows >= 1, "chunk_rows must be at least 1");
        let mut records = RecordReader::new(reader);
        let order = read_header(&mut records, &schema)?;
        Ok(CsvChunks {
            records,
            schema,
            order,
            chunk_rows,
        })
    }

    /// Read the next block of up to `chunk_rows` records. Returns
    /// `Ok(None)` at end of input — never an empty table, so a row count
    /// that divides evenly by the chunk size produces no empty trailing
    /// chunk.
    pub fn next_chunk(&mut self) -> Result<Option<Table>, TableError> {
        let mut table = Table::new(self.schema.clone());
        while table.num_rows() < self.chunk_rows
            && read_record(&mut self.records, &self.order, &mut table)?
        {}
        if table.num_rows() == 0 {
            return Ok(None);
        }
        Ok(Some(table))
    }
}

fn escape(field: &str) -> String {
    if field.contains(',') || field.contains('"') || field.contains('\n') || field.contains('\r') {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_owned()
    }
}

/// Write a table as CSV (header + one line per record, schema order).
pub fn write_table<W: Write>(writer: &mut W, table: &Table) -> Result<(), TableError> {
    let header: Vec<String> = table
        .schema()
        .attributes()
        .iter()
        .map(|a| escape(a.name()))
        .collect();
    writeln!(writer, "{}", header.join(","))?;
    for row in table.rows() {
        let line: Vec<String> = (0..table.num_columns())
            .map(|c| escape(&row.value(c).to_string()))
            .collect();
        writeln!(writer, "{}", line.join(","))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;
    use qar_prng::{cases, Prng};

    fn schema() -> Schema {
        Schema::builder()
            .quantitative("age")
            .categorical("married")
            .quantitative("num_cars")
            .build()
            .unwrap()
    }

    #[test]
    fn roundtrip() {
        let s = schema();
        let input = "age,married,num_cars\n23,No,1\n38,Yes,2\n";
        let t = read_table(input.as_bytes(), &s).unwrap();
        let mut out = Vec::new();
        write_table(&mut out, &t).unwrap();
        assert_eq!(String::from_utf8(out).unwrap(), input);
    }

    #[test]
    fn header_reordering() {
        let s = schema();
        let input = "num_cars,age,married\n1,23,No\n";
        let t = read_table(input.as_bytes(), &s).unwrap();
        assert_eq!(t.row(0).value(0), Value::Int(23));
        assert_eq!(t.row(0).value(2), Value::Int(1));
    }

    #[test]
    fn quoted_fields_with_commas_and_quotes() {
        let s = Schema::builder().categorical("note").build().unwrap();
        let input = "note\n\"hello, \"\"world\"\"\"\n";
        let t = read_table(input.as_bytes(), &s).unwrap();
        assert_eq!(t.row(0).value(0), Value::Cat("hello, \"world\"".into()));
    }

    #[test]
    fn quoted_newline_spans_lines() {
        let s = Schema::builder()
            .categorical("note")
            .categorical("tag")
            .build()
            .unwrap();
        let input = "note,tag\n\"two\nlines\",x\n";
        let t = read_table(input.as_bytes(), &s).unwrap();
        assert_eq!(t.row(0).value(0), Value::Cat("two\nlines".into()));
    }

    #[test]
    fn floats_and_ints_parse() {
        let s = Schema::builder().quantitative("income").build().unwrap();
        let t = read_table("income\n1500\n1500.5\n".as_bytes(), &s).unwrap();
        assert_eq!(t.row(0).value(0), Value::Float(1500.0));
        assert_eq!(t.row(1).value(0), Value::Float(1500.5));
    }

    #[test]
    fn bad_number_reports_line() {
        let s = Schema::builder().quantitative("income").build().unwrap();
        let err = read_table("income\n15k\n".as_bytes(), &s).unwrap_err();
        assert_eq!(
            err,
            TableError::BadNumber {
                line: 2,
                token: "15k".into()
            }
        );
    }

    #[test]
    fn non_finite_tokens_rejected() {
        let s = Schema::builder().quantitative("income").build().unwrap();
        for bad in ["NaN", "inf", "-inf", "infinity"] {
            let input = format!("income\n{bad}\n");
            let err = read_table(input.as_bytes(), &s).unwrap_err();
            assert!(
                matches!(err, TableError::BadNumber { line: 2, .. }),
                "{bad}"
            );
        }
    }

    #[test]
    fn wrong_field_count_reports_line() {
        let s = schema();
        let err = read_table("age,married,num_cars\n23,No\n".as_bytes(), &s).unwrap_err();
        assert!(matches!(err, TableError::Csv { line: 2, .. }));
    }

    #[test]
    fn unknown_header_rejected() {
        let s = schema();
        let err = read_table("age,married,pets\n".as_bytes(), &s).unwrap_err();
        assert!(matches!(err, TableError::Csv { line: 1, .. }));
    }

    #[test]
    fn empty_input_rejected() {
        let s = schema();
        let err = read_table("".as_bytes(), &s).unwrap_err();
        assert!(matches!(err, TableError::Csv { line: 1, .. }));
    }

    #[test]
    fn blank_lines_skipped() {
        let s = Schema::builder().quantitative("x").build().unwrap();
        let t = read_table("x\n\n1\n\n2\n".as_bytes(), &s).unwrap();
        assert_eq!(t.num_rows(), 2);
    }

    #[test]
    fn unterminated_quote_rejected() {
        let s = Schema::builder().categorical("c").build().unwrap();
        let err = read_table("c\n\"oops\n".as_bytes(), &s).unwrap_err();
        assert!(matches!(err, TableError::Csv { .. }));
    }

    #[test]
    fn stray_quote_rejected() {
        let s = Schema::builder().categorical("c").build().unwrap();
        let err = read_table("c\nab\"cd\n".as_bytes(), &s).unwrap_err();
        assert!(matches!(err, TableError::Csv { .. }));
    }

    #[test]
    fn stray_quote_reports_its_line_in_linear_time() {
        // Re-counting quotes over a growing buffer made this quadratic and
        // named the last line of the file.
        let s = Schema::builder()
            .quantitative("x")
            .categorical("c")
            .build()
            .unwrap();
        let mut input = String::from("x,c\n1,a\"b\n");
        for i in 0..200_000 {
            input.push_str(&format!("{i},plain\n"));
        }
        let started = std::time::Instant::now();
        let err = read_table(input.as_bytes(), &s).unwrap_err();
        assert_eq!(
            err,
            TableError::Csv {
                line: 2,
                message: "quote in the middle of an unquoted field".into()
            }
        );
        assert!(started.elapsed() < std::time::Duration::from_secs(5));
    }

    #[test]
    fn errors_name_the_records_first_line() {
        let s = Schema::builder()
            .categorical("note")
            .quantitative("x")
            .build()
            .unwrap();
        let input = "note,x\nok,1\n\n\"spans\nthree\nlines\",oops\n";
        let err = read_table(input.as_bytes(), &s).unwrap_err();
        assert_eq!(
            err,
            TableError::BadNumber {
                line: 4,
                token: "oops".into()
            }
        );
        let err = read_table("note,x\n\"a\nb\",1,2\n".as_bytes(), &s).unwrap_err();
        assert!(matches!(err, TableError::Csv { line: 2, .. }), "{err}");
        let err = read_table("note,x\n\"a\nb\"c,1\n".as_bytes(), &s).unwrap_err();
        assert_eq!(
            err,
            TableError::Csv {
                line: 2,
                message: "text after closing quote".into()
            }
        );
        let err = read_table("note,x\nx,1\n\"open\n\n".as_bytes(), &s).unwrap_err();
        assert_eq!(
            err,
            TableError::Csv {
                line: 3,
                message: "unterminated quoted field".into()
            }
        );
    }

    #[test]
    fn invalid_utf8_is_a_csv_error_with_its_line() {
        let s = Schema::builder()
            .categorical("c")
            .quantitative("x")
            .build()
            .unwrap();
        // The two bytes of `é` split by a comma are each invalid alone.
        let input: &[u8] = b"c,x\nok,1\n\xC3,\xA9\n";
        let err = read_table(input, &s).unwrap_err();
        assert_eq!(
            err,
            TableError::Csv {
                line: 3,
                message: "invalid UTF-8".into()
            }
        );
        let t = read_table("c,x\n\u{e9},1\n".as_bytes(), &s).unwrap();
        assert_eq!(t.row(0).value(0), Value::from("\u{e9}"));
    }

    #[test]
    fn carriage_returns_outside_line_ends_are_content() {
        let s = Schema::builder()
            .categorical("a")
            .categorical("b")
            .build()
            .unwrap();
        let t = read_table("a,b\r\nx\ry,z\r\r\n\r\n\"q\r\nr\",\r\n".as_bytes(), &s).unwrap();
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.row(0).value(0), Value::from("x\ry"));
        assert_eq!(t.row(0).value(1), Value::from("z"));
        assert_eq!(t.row(1).value(0), Value::from("q\r\nr"));
        assert_eq!(t.row(1).value(1), Value::from(""));
        let err = read_table("a,b\n\"x\"\r,y\n".as_bytes(), &s).unwrap_err();
        assert!(matches!(err, TableError::Csv { line: 2, .. }), "{err}");
    }

    #[test]
    fn negative_zero_is_read_as_zero() {
        let s = Schema::builder().quantitative("x").build().unwrap();
        let t = read_table("x\n-0.0\n0\n".as_bytes(), &s).unwrap();
        let data = t.column(AttributeId(0)).as_quantitative().unwrap();
        assert!(data.iter().all(|v| v.to_bits() == 0.0f64.to_bits()));
    }

    #[test]
    fn categorical_cells_share_one_dictionary_entry() {
        let s = Schema::builder().categorical("c").build().unwrap();
        let t = read_table("c\nb\na\nb\nb\n".as_bytes(), &s).unwrap();
        let cells = t.column(AttributeId(0)).as_categorical().unwrap();
        assert_eq!(cells.codes(), &[0, 1, 0, 0]);
        assert_eq!(cells.dictionary().len(), 2);
    }

    /// The serial reader's table of `input`: one chunk of every record.
    fn serial(input: &[u8], schema: &Schema) -> Result<Table, TableError> {
        let mut chunks = CsvChunks::new(input, schema.clone(), usize::MAX)?;
        Ok(chunks
            .next_chunk()?
            .unwrap_or_else(|| Table::new(schema.clone())))
    }

    /// The block reader at every block size from 1 to 64 bytes and at 1, 2
    /// and 7 threads gives the serial reader's table, dictionaries in the
    /// same code order, or its error with the same line.
    fn assert_blocks_match_serial(input: &[u8], schema: &Schema) {
        let want = serial(input, schema);
        for block in 1..=64 {
            for threads in [1, 2, 7] {
                let got = read_blocks(input, schema, threads, block, &|| false);
                let at = format!("{block}-byte blocks, {threads} threads");
                match (&want, &got) {
                    (Ok(want), Ok(got)) => {
                        assert_eq!(got.num_rows(), want.num_rows(), "{at}");
                        for c in 0..schema.len() {
                            let id = AttributeId(c);
                            assert_eq!(got.column(id), want.column(id), "{at}, column {c}");
                        }
                    }
                    (Err(want), Err(got)) => assert_eq!(got, want, "{at}"),
                    _ => panic!("{at}: serial {want:?}, blocks {got:?}"),
                }
            }
        }
    }

    fn label_and_number() -> Schema {
        Schema::builder()
            .categorical("c")
            .quantitative("x")
            .build()
            .unwrap()
    }

    #[test]
    fn block_cuts_inside_crlf_and_on_blank_lines_change_nothing() {
        let s = label_and_number();
        assert_blocks_match_serial(b"c,x\r\na,1\r\nb,2\r\n\r\nc,3\r\n\r\n\r\nd,4\r\n", &s);
        assert_blocks_match_serial(b"x,c\n\n\n1,a\n\n2,b\n\n\n\n3,a\n\n", &s);
    }

    #[test]
    fn block_cuts_inside_a_multibyte_character_change_nothing() {
        let s = label_and_number();
        let input = "c,x\n\u{e9}t\u{e9},1\n\u{1F600},2\nna\u{ef}ve,3\n\u{e9}t\u{e9},4\n";
        assert_blocks_match_serial(input.as_bytes(), &s);
        // Invalid UTF-8 is reported on its record's line however the
        // blocks fall.
        let invalid: &[u8] = b"c,x\nok,1\nfine,2\n\xC3,\xA9\nok,3\n";
        assert!(matches!(
            serial(invalid, &s),
            Err(TableError::Csv { line: 4, .. })
        ));
        assert_blocks_match_serial(invalid, &s);
    }

    #[test]
    fn block_cuts_inside_a_quoted_newline_change_nothing() {
        let s = label_and_number();
        let input = b"c,x\na,1\n\"two\nlines\",2\nb,3\n\"x\r\n\n,y\",4\nc,5\nd,6\ne,7\n";
        assert_blocks_match_serial(input, &s);
        assert_blocks_match_serial(b"c,x\na,1\nb,2\n\"open\n,3\nc,4\n", &s);
    }

    #[test]
    fn final_record_without_a_newline_is_read_at_every_cut() {
        let s = label_and_number();
        assert_blocks_match_serial(b"c,x\na,1\nb,2\nc,3", &s);
        assert_blocks_match_serial(b"c,x\na,1\nb,2\nc,3\r", &s);
        assert_blocks_match_serial(b"c,x", &s);
        assert_blocks_match_serial(b"c,x\n", &s);
    }

    #[test]
    fn errors_in_later_ranges_name_their_lines() {
        let s = label_and_number();
        let mut input = String::from("c,x\n");
        for i in 0..40 {
            input.push_str(&format!("l{},{i}\n", i % 3));
        }
        let mut bad_number = input.clone();
        bad_number.push_str("l1,oops\nl2,7\n");
        assert_eq!(
            serial(bad_number.as_bytes(), &s).unwrap_err(),
            TableError::BadNumber {
                line: 42,
                token: "oops".into()
            }
        );
        assert_blocks_match_serial(bad_number.as_bytes(), &s);
        let mut short = input;
        short.push_str("l1\n");
        assert_blocks_match_serial(short.as_bytes(), &s);
    }

    #[test]
    fn a_label_first_seen_in_a_later_range_gets_its_serial_code() {
        let s = label_and_number();
        // Five-byte rows after the header: twenty `a` rows, then `b`, then
        // more `a` rows and a `c`. A 160-byte block holds 32 rows and is
        // not the last; two threads cut it after row 17, so `b` (row 21)
        // is first seen in the second range.
        let mut body: Vec<String> = (10..30).map(|i| format!("a,{i}\n")).collect();
        body.push("b,00\n".into());
        body.extend((30..60).map(|i| format!("a,{i}\n")));
        body.push("c,00\n".into());
        let input = format!("c,x\n{}", body.concat());
        let first_block = &input.as_bytes()[4..164];
        assert_eq!(split_lines(first_block, 2)[1], 85..160);
        let t = read_blocks(input.as_bytes(), &s, 2, 160, &|| false).unwrap();
        let cells = t.column(AttributeId(0)).as_categorical().unwrap();
        assert_eq!(
            cells.dictionary().labels().collect::<Vec<_>>(),
            ["a", "b", "c"]
        );
        assert_eq!(&cells.codes()[19..22], &[0, 1, 0]);
        assert_eq!(cells.codes()[51], 2);
        assert_blocks_match_serial(input.as_bytes(), &s);
    }

    #[test]
    fn split_lines_cuts_after_newlines_into_nonempty_ranges() {
        let block = b"a\nbb\nccc\ndddd\n";
        for parts in 1..=8 {
            let ranges = split_lines(block, parts);
            assert!(ranges.len() <= parts);
            assert_eq!(ranges.first().unwrap().start, 0);
            assert_eq!(ranges.last().unwrap().end, block.len());
            for pair in ranges.windows(2) {
                assert_eq!(pair[0].end, pair[1].start);
                assert_eq!(block[pair[0].end - 1], b'\n');
            }
            assert!(ranges.iter().all(|r| !r.is_empty()));
        }
        assert!(split_lines(b"", 3).is_empty());
    }

    #[test]
    fn a_long_line_grows_its_block_until_a_newline() {
        let s = label_and_number();
        let long = "y".repeat(1000);
        let input = format!("c,x\n{long},1\nb,2\n{long}{long},3");
        assert_blocks_match_serial(input.as_bytes(), &s);
    }

    #[test]
    fn cancellation_is_checked_once_per_block() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let s = label_and_number();
        let input = "c,x\na,1\nb,2\nc,3\nd,4\n";
        let asked = AtomicUsize::new(0);
        let third = || asked.fetch_add(1, Ordering::Relaxed) == 2;
        let err = read_blocks(input.as_bytes(), &s, 2, 8, &third).unwrap_err();
        assert_eq!(err, TableError::Cancelled);
        assert_eq!(asked.load(Ordering::Relaxed), 3);
        let all = read_table_threaded(input.as_bytes(), &s, 2, &|| false).unwrap();
        assert_eq!(all.num_rows(), 4);
        let none = read_table_threaded(input.as_bytes(), &s, 2, &|| true);
        assert_eq!(none.unwrap_err(), TableError::Cancelled);
    }

    /// Integer tokens skip the fraction check and leave the integral flag
    /// as the check would: `1`, `-0` and 2^53 + 1 are whole numbers,
    /// `1.0` is one by value, and only `1.5` clears the flag.
    #[test]
    fn integer_tokens_keep_the_integral_flag_the_check_would() {
        let s = Schema::builder().quantitative("x").build().unwrap();
        let read = |cells: &[&str]| {
            let input = format!("x\n{}\n", cells.join("\n"));
            let t = read_table(input.as_bytes(), &s).unwrap();
            let column = t.column(AttributeId(0));
            let whole = column
                .as_quantitative()
                .unwrap()
                .iter()
                .all(|v| v.fract() == 0.0);
            assert_eq!(column.is_integral(), whole, "{cells:?}");
            column.is_integral()
        };
        for cell in ["1", "1.0", "-0", "9007199254740993"] {
            assert!(read(&[cell]), "{cell}");
        }
        assert!(!read(&["1.5"]));
        assert!(!read(&["1", "1.0", "-0", "1.5", "9007199254740993"]));
        let t = read_table("x\n9007199254740993\n".as_bytes(), &s).unwrap();
        assert_eq!(t.row(0).value(0), Value::Int(9007199254740992));
    }

    /// What a coordinator makes of `input` cut into `parts` ranges read
    /// one by one: the ranges' tables appended, or the first failing
    /// range's error with its line counted from the file's start, or
    /// `Ok(None)` at the first range holding a quote. With `records`, the
    /// ranges are cut at record ends and their quoted blocks read.
    fn read_by_ranges(
        input: &[u8],
        schema: &Schema,
        parts: usize,
        records: bool,
        threads: usize,
    ) -> Result<Option<Table>, TableError> {
        let cut = if records { cut_records } else { cut_ranges };
        let (mut lines, ranges) = cut(io::Cursor::new(input), schema, parts)?;
        assert_eq!(ranges.len(), parts);
        assert_eq!(ranges.last().unwrap().end, input.len() as u64);
        let mut table = Table::new(schema.clone());
        for range in ranges {
            let file = io::Cursor::new(input);
            match read_range(file, schema, range, records, threads, &|| false) {
                Ok(Some(read)) => {
                    table.append(&read.table);
                    lines += read.lines;
                }
                Ok(None) => return Ok(None),
                Err(e) => return Err(e.after_lines(lines)),
            }
        }
        Ok(Some(table))
    }

    /// Cut into 1 to 6 ranges, read at 1 and 2 threads, `input` gives the
    /// serial reader's table, or its error with the same line.
    fn assert_ranges_match_serial(input: &[u8], schema: &Schema) {
        assert_cuts_match_serial(input, schema, 6, false);
    }

    /// Cut into 1 to `max_parts` ranges (at record ends with `records`),
    /// read at 1 and 2 threads, `input` gives the serial reader's table,
    /// or its error with the same line.
    fn assert_cuts_match_serial(input: &[u8], schema: &Schema, max_parts: usize, records: bool) {
        let want = serial(input, schema);
        for parts in 1..=max_parts {
            for threads in [1, 2] {
                let at = format!("{parts} ranges, {threads} threads");
                match (
                    &want,
                    read_by_ranges(input, schema, parts, records, threads),
                ) {
                    (Ok(want), Ok(Some(got))) => {
                        assert_eq!(got.num_rows(), want.num_rows(), "{at}");
                        for c in 0..schema.len() {
                            let id = AttributeId(c);
                            assert_eq!(got.column(id), want.column(id), "{at}, column {c}");
                        }
                    }
                    (Err(want), Err(got)) => assert_eq!(&got, want, "{at}"),
                    (want, got) => panic!("{at}: serial {want:?}, ranges {got:?}"),
                }
            }
        }
    }

    #[test]
    fn ranges_read_as_the_serial_reader_reads_the_file() {
        let s = label_and_number();
        for input in [
            &b"c,x\r\na,1\r\nb,2\r\n\r\nc,3\r\n\r\n\r\nd,4\r\n"[..],
            b"\n\nx,c\n\n1,a\n2,b\n\n3,a\n\n",
            b"c,x\na,1\nb,2\nc,3",
            b"c,x\na,1\n",
            b"c,x\n",
            b"c,x",
            b"c,x\nb,1\na,2\nb,3\nc,4\na,5\nd,6\ne,7\n",
        ] {
            assert_ranges_match_serial(input, &s);
        }
    }

    #[test]
    fn the_first_failing_range_names_the_serial_line() {
        let s = label_and_number();
        // A bad number in the last range, then bad numbers in two ranges
        // (the earlier wins), then a short record.
        for input in [
            &b"c,x\na,1\nb,2\nc,3\nd,4\ne,5\nf,q\n"[..],
            b"c,x\na,1\nb,q\nc,3\nd,4\ne,5\nf,r\n",
            b"c,x\n\na,1\r\nb,2\n\nc\nd,4\n",
            b"x,c\n1,a\n\xff,b\n",
        ] {
            assert_ranges_match_serial(input, &s);
            assert!(serial(input, &s).is_err());
        }
        // A header that does not match fails as the serial reader fails.
        for input in [&b""[..], b"c\na\n", b"c,y\na,1\n"] {
            let want = serial(input, &s).unwrap_err();
            let got = cut_ranges(io::Cursor::new(input), &s, 2).unwrap_err();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn a_range_holding_a_quote_is_not_parsed() {
        let s = label_and_number();
        let input = b"c,x\na,1\nb,2\n\"c\n\",3\nd,4\n";
        assert!(serial(input, &s).is_ok());
        for parts in 1..=4 {
            assert!(read_by_ranges(input, &s, parts, false, 2)
                .unwrap()
                .is_none());
        }
        // The quote-free ranges before it parse.
        let (_, ranges) = cut_ranges(io::Cursor::new(&input[..]), &s, 3).unwrap();
        let first = read_range(
            io::Cursor::new(&input[..]),
            &s,
            ranges[0].clone(),
            false,
            1,
            &|| false,
        );
        assert_eq!(first.unwrap().unwrap().table.num_rows(), 2);
    }

    /// A quoted input of about `len` bytes: records whose labels are
    /// mostly quoted and hold newlines, CRLF and `""` escapes, so most
    /// newlines lie inside quotes and most bytes within quoted fields.
    fn quoted_input(len: usize) -> Vec<u8> {
        let mut input = b"c,x\n".to_vec();
        let mut i = 0u64;
        while input.len() < len {
            let record = match i % 5 {
                0 => format!("\"a{i}\nb\n\nc\",{i}\n"),
                1 => format!("\"\"\"q{i}\"\"\n\"\"\",-{i}\r\n"),
                2 => format!("plain{i},{i}\n"),
                3 => format!("\"{}\",{i}\n", "x\r\ny".repeat(40)),
                _ => format!("\"\",{i}\n\n"),
            };
            input.extend_from_slice(record.as_bytes());
            i += 1;
        }
        input
    }

    /// Quoted inputs cut at record ends into 1 to 7 ranges, each read
    /// with its quoted blocks, give the serial reader's table, or its
    /// error with the same line: quoted newlines and CRLF inside quotes,
    /// `""` escapes, a quoted last record without a newline, stray quotes
    /// on line 2 and far past the first block, an unterminated quote at
    /// the end, and text after a closing quote. The long inputs span
    /// several of the re-cut's read buffers with most of their bytes
    /// inside quotes.
    #[test]
    fn records_cuts_read_quoted_files_as_the_serial_reader() {
        let s = label_and_number();
        let long = quoted_input(300 << 10);
        let with_line = |line: usize, edit: &dyn Fn(&str) -> String| {
            let text = String::from_utf8(long.clone()).unwrap();
            let mut at = 0;
            for _ in 1..line {
                at += text[at..].find('\n').unwrap() + 1;
            }
            let end = at + text[at..].find('\n').unwrap();
            let mut edited = text[..at].to_string();
            edited += &edit(&text[at..end]);
            edited += &text[end..];
            edited.into_bytes()
        };
        let stray = |line: &str| format!("{line}\"x");
        let mut cases: Vec<Vec<u8>> = vec![
            b"c,x\n\"a\nb\",1\n\"c\r\nd\",2\r\n\"e\n\",3\n".to_vec(),
            b"c,x\n\"a\"\"b\",1\n\"\"\"\",2\n\"x\"\"\n\"\"y\",3\nd,4\n".to_vec(),
            b"c,x\na,1\n\"b\nc\",2\n\"d\r\n\",3".to_vec(),
            b"c,x\na\"x,1\nb,2\n\"c\",3\n".to_vec(),
            b"c,x\na,1\nb,2\n\"c,3\nd,4\ne,5\n".to_vec(),
            b"c,x\na,1\n\"b\"x,2\nc,3\n".to_vec(),
            long.clone(),
            with_line(2, &|line| stray(line)),
            with_line(6_000, &|line| stray(line)),
            with_line(6_001, &|line| format!("\"{line}")),
        ];
        cases.push([&long[..], b"\"open,1\n"].concat());
        for input in &cases {
            assert_cuts_match_serial(input, &s, 7, true);
        }
        assert!(serial(&long, &s).unwrap().num_rows() > 3_000);
        for (input, line) in [(&cases[7], 2), (&cases[8], 6_000)] {
            match serial(input, &s) {
                Err(TableError::Csv { line: at, .. }) => assert_eq!(at, line),
                other => panic!("a stray quote read as {other:?}"),
            }
        }
    }

    #[test]
    fn ranges_start_after_the_header_and_stop_when_cancelled() {
        let s = label_and_number();
        let input = &b"c,x\na,1\nb,2\n"[..];
        let file = || io::Cursor::new(input);
        assert!(matches!(
            read_range(file(), &s, 2..8, false, 1, &|| false),
            Err(TableError::Io(_))
        ));
        assert!(matches!(
            read_range(file(), &s, Range { start: 8, end: 4 }, false, 1, &|| false),
            Err(TableError::Io(_))
        ));
        let body = 4..input.len() as u64;
        assert_eq!(
            read_range(file(), &s, body.clone(), false, 1, &|| true).unwrap_err(),
            TableError::Cancelled
        );
        let read = read_range(file(), &s, body, false, 1, &|| false)
            .unwrap()
            .unwrap();
        assert_eq!((read.table.num_rows(), read.lines), (2, 2));
    }

    /// Quantitative cells of the quote-free inputs below: integers the
    /// in-place path reads and tokens it leaves to [`parse_number`],
    /// whole and padded, at and past 18 digits and the `i64` bounds.
    const NUMBERS: &[&str] = &[
        "0",
        "42",
        " 12",
        "12 ",
        "+7",
        "-0",
        "007",
        "-31",
        "999999999999999999",
        "-123456789012345678",
        "1234567890123456789",
        "9999999999999999999",
        "-9999999999999999999",
        "12345678901234567890",
        "9223372036854775807",
        "-9223372036854775808",
        "1e3",
        ".5",
        "2.25",
    ];

    /// Tokens no quantitative cell may hold.
    const BAD_NUMBERS: &[&[u8]] = &[b"inf", b"NaN", b"", b"-", b"+", b"1x", b"\xff7"];

    /// Categorical cells, non-ASCII and `\r`-holding ones among them.
    const LABELS: &[&str] = &["a", "b", "", " sp ", "x\ry", "\u{e9}t\u{e9}", "\u{1F600}"];

    /// One random quote-free input of schema [`label_number_label`], with
    /// faults in about one line in `fault_odds`: a field too many or too
    /// few, a bad number, invalid UTF-8 in a label, or a bad number on a
    /// line with a wrong field count.
    fn quote_free_input(rng: &mut Prng, fault_odds: u32) -> Vec<u8> {
        let mut input = b"c,x,d\n".to_vec();
        for _ in 0..rng.gen_range(0..12) {
            match rng.gen_range(0..8) {
                0 => input.extend_from_slice(rng.choose(&[&b""[..], b"\r", b"\r\r"]).unwrap()),
                _ => {
                    let mut cells = vec![
                        rng.choose(LABELS).unwrap().as_bytes().to_vec(),
                        rng.choose(NUMBERS).unwrap().as_bytes().to_vec(),
                        rng.choose(LABELS).unwrap().as_bytes().to_vec(),
                    ];
                    if rng.gen_range(0..fault_odds) == 0 {
                        match rng.gen_range(0..5) {
                            0 => cells.push(b"extra".to_vec()),
                            1 => drop(cells.pop()),
                            2 => cells[1] = rng.choose(BAD_NUMBERS).unwrap().to_vec(),
                            3 => cells[rng.choose(&[0, 2]).copied().unwrap()] = b"\xc3".to_vec(),
                            _ => {
                                cells[1] = b"oops".to_vec();
                                cells.pop();
                            }
                        }
                    }
                    input.extend_from_slice(&cells.join(&b","[..]));
                }
            }
            input.extend_from_slice(rng.choose(&[&b"\n"[..], b"\r\n", b"\r\r\n"]).unwrap());
        }
        // A last line with no newline, or with `\r` bytes alone.
        match rng.gen_range(0..4) {
            0 => input.extend_from_slice(b"z,5,z"),
            1 => input.extend_from_slice(b"z,5,z\r"),
            2 => input.extend_from_slice(b"\r"),
            _ => {}
        }
        input
    }

    fn label_number_label() -> Schema {
        Schema::builder()
            .categorical("c")
            .quantitative("x")
            .categorical("d")
            .build()
            .unwrap()
    }

    /// Quote-free ranges are read in place: on random inputs holding every
    /// kind of cell and line end above, blocks and ranges read as the
    /// record reader does, tables, errors and lines alike.
    #[test]
    fn quote_free_inputs_read_in_place_as_the_record_reader_reads_them() {
        let s = label_number_label();
        let (mut read, mut failed) = (0, 0);
        cases(48, 0x5EED_0C5F, |case, rng| {
            let input = quote_free_input(rng, if case % 2 == 0 { 40 } else { 4 });
            match serial(&input, &s) {
                Ok(_) => read += 1,
                Err(_) => failed += 1,
            }
            assert_blocks_match_serial(&input, &s);
            assert_ranges_match_serial(&input, &s);
        });
        assert!(read >= 10 && failed >= 10, "{read} read, {failed} failed");
    }

    /// The record reader's order of faults holds within one line: a wrong
    /// field count before invalid UTF-8, and that before a bad number.
    #[test]
    fn a_faulty_line_reports_the_record_readers_first_fault() {
        let s = label_number_label();
        let count = |line| TableError::Csv {
            line,
            message: "record has 2 fields but schema has 3".into(),
        };
        for (input, want) in [
            (&b"c,x,d\na,1,b\na,oops\n"[..], count(3)),
            (b"c,x,d\n\r\na,oops\r\n", count(3)),
            (b"c,x,d\na,1,b\n\xc3,oops\n", count(3)),
            (
                b"c,x,d\na,1,b\n\xc3,oops,b\n",
                TableError::Csv {
                    line: 3,
                    message: "invalid UTF-8".into(),
                },
            ),
            (
                b"c,x,d\na,1,b\na,oops,\xc3\n",
                TableError::Csv {
                    line: 3,
                    message: "invalid UTF-8".into(),
                },
            ),
            (
                b"c,x,d\na,1,b\na,oops,b,c\n",
                TableError::Csv {
                    line: 3,
                    message: "record has 4 fields but schema has 3".into(),
                },
            ),
            (
                b"c,x,d\na,1,b\n\na,1x,b\n",
                TableError::BadNumber {
                    line: 4,
                    token: "1x".into(),
                },
            ),
        ] {
            assert_eq!(serial(input, &s).unwrap_err(), want);
            assert_blocks_match_serial(input, &s);
            assert_ranges_match_serial(input, &s);
        }
    }

    /// Every integer of at most 18 digits is read in place with the value
    /// `str::parse` gives; longer ones and `i64::MIN` and `MAX` are read as
    /// before.
    #[test]
    fn short_integers_read_as_parse_reads_them() {
        for token in NUMBERS {
            let bytes = token.as_bytes();
            match short_integer(bytes, 0) {
                Some((value, end)) => {
                    assert_eq!(end, bytes.len(), "{token}");
                    assert_eq!(Ok(value), token.parse::<i64>(), "{token}");
                }
                None => assert!(token.len() > 18 || token.parse::<i64>().is_err(), "{token}"),
            }
        }
        assert_eq!(short_integer(b"12,3", 0), Some((12, 2)));
        assert_eq!(
            short_integer(b"1,-999999999999999999", 2),
            Some((-999_999_999_999_999_999, 21))
        );
        for token in [&b"-"[..], b"", b"1 ", b"1\r", b"\xef\xbc\x91"] {
            assert_eq!(short_integer(token, 0), None);
        }
    }

    /// Collect every chunk of `input` at the given block size.
    fn chunks_of(input: &str, schema: &Schema, rows: usize) -> Vec<Table> {
        let mut reader = CsvChunks::new(input.as_bytes(), schema.clone(), rows).unwrap();
        let mut out = Vec::new();
        while let Some(chunk) = reader.next_chunk().unwrap() {
            out.push(chunk);
        }
        out
    }

    #[test]
    fn chunked_reader_matches_whole_table_read() {
        let s = schema();
        let input = "age,married,num_cars\n23,No,1\n25,Yes,1\n29,No,0\n34,Yes,2\n38,Yes,2\n";
        let whole = read_table(input.as_bytes(), &s).unwrap();
        for rows in [1, 2, 3, 5, 100] {
            let chunks = chunks_of(input, &s, rows);
            let total: usize = chunks.iter().map(Table::num_rows).sum();
            assert_eq!(total, whole.num_rows(), "chunk_rows={rows}");
            let mut row = 0;
            for chunk in &chunks {
                for r in 0..chunk.num_rows() {
                    for c in 0..chunk.num_columns() {
                        assert_eq!(chunk.row(r).value(c), whole.row(row).value(c));
                    }
                    row += 1;
                }
            }
        }
    }

    #[test]
    fn chunked_reader_crlf_only_file() {
        let s = Schema::builder().quantitative("x").build().unwrap();
        let input = "x\r\n1\r\n2\r\n3\r\n";
        let chunks = chunks_of(input, &s, 2);
        assert_eq!(chunks.len(), 2);
        assert_eq!(chunks[0].num_rows(), 2);
        assert_eq!(chunks[1].num_rows(), 1);
        assert_eq!(chunks[1].row(0).value(0), Value::Int(3));
    }

    #[test]
    fn chunked_reader_final_record_without_trailing_newline() {
        let s = Schema::builder().quantitative("x").build().unwrap();
        let chunks = chunks_of("x\n1\n2\n3", &s, 2);
        assert_eq!(chunks.len(), 2);
        assert_eq!(chunks[1].num_rows(), 1);
        assert_eq!(chunks[1].row(0).value(0), Value::Int(3));
    }

    #[test]
    fn chunked_reader_quoted_field_spans_block_boundary() {
        // The second record's quoted field contains a newline; with
        // chunk_rows=1 the record straddles what a byte-block reader would
        // call a boundary. Logical-record assembly must keep it whole.
        let s = Schema::builder()
            .categorical("note")
            .categorical("tag")
            .build()
            .unwrap();
        let input = "note,tag\nplain,a\n\"two\nlines, with comma\",b\nlast,c\n";
        let chunks = chunks_of(input, &s, 1);
        assert_eq!(chunks.len(), 3);
        assert_eq!(
            chunks[1].row(0).value(0),
            Value::Cat("two\nlines, with comma".into())
        );
        assert_eq!(chunks[1].row(0).value(1), Value::Cat("b".into()));
    }

    #[test]
    fn chunked_reader_no_empty_trailing_chunk() {
        // 4 records at chunk_rows=2: exactly two chunks, and the next call
        // reports end of input rather than an empty table.
        let s = Schema::builder().quantitative("x").build().unwrap();
        let mut reader = CsvChunks::new("x\n1\n2\n3\n4\n".as_bytes(), s, 2).unwrap();
        assert_eq!(reader.next_chunk().unwrap().unwrap().num_rows(), 2);
        assert_eq!(reader.next_chunk().unwrap().unwrap().num_rows(), 2);
        assert!(reader.next_chunk().unwrap().is_none());
        assert!(reader.next_chunk().unwrap().is_none());
    }

    #[test]
    fn chunked_reader_header_only_input() {
        let s = Schema::builder().quantitative("x").build().unwrap();
        let mut reader = CsvChunks::new("x\n".as_bytes(), s, 8).unwrap();
        assert!(reader.next_chunk().unwrap().is_none());
    }

    #[test]
    fn chunked_reader_blank_lines_between_blocks() {
        let s = Schema::builder().quantitative("x").build().unwrap();
        let chunks = chunks_of("x\n1\n\n\n2\n\n3\n", &s, 2);
        assert_eq!(chunks.len(), 2);
        assert_eq!(chunks[0].num_rows(), 2);
        assert_eq!(chunks[1].num_rows(), 1);
    }
}

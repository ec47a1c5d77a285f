//! A dependency-free CSV reader/writer for relational tables.
//!
//! Supports the common subset of RFC 4180: comma separation, `"`-quoting
//! with doubled-quote escapes, and embedded commas/newlines inside quoted
//! fields. The first record must be a header whose names match the schema.
//!
//! The reader makes a single pass over the input. Every byte goes through
//! one quote state machine that carries its state across physical lines,
//! and a record's unescaped fields are assembled in one reused byte buffer,
//! so reading is linear in the input whatever it holds. Categorical fields
//! go straight into their column's dictionary (a known label allocates
//! nothing); quantitative fields are parsed as `i64`, else as `f64`.
//!
//! Line endings may be `\n` or `\r\n`; blank lines between records are
//! skipped. Every error names the first physical line of the record it was
//! found in. That covers malformed quoting, a wrong field count, a bad or
//! non-finite number, and bytes that are not UTF-8.

use std::io::{BufRead, Write};

use crate::error::TableError;
use crate::schema::{AttributeId, Schema};
use crate::table::{Column, Table};

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
/// whitespace.
fn parse_number(raw: &str, line: usize) -> Result<f64, TableError> {
    let token = raw.trim();
    if let Ok(i) = token.parse::<i64>() {
        return Ok(i as f64);
    }
    match token.parse::<f64>() {
        Ok(x) if x.is_finite() => Ok(x),
        _ => Err(TableError::BadNumber {
            line,
            token: raw.to_owned(),
        }),
    }
}

/// Read a whole table from CSV. The header is matched *by name* against the
/// schema (any column order), and each cell is parsed per the attribute's
/// kind: quantitative cells must parse as numbers, categorical cells are
/// taken verbatim.
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
    let mut chunks = CsvChunks::new(reader, schema.clone(), usize::MAX)?;
    match chunks.next_chunk()? {
        Some(table) => Ok(table),
        None => Ok(Table::new(schema.clone())),
    }
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
        let mut order = Vec::with_capacity(schema.len());
        for pos in 0..records.num_fields() {
            let name = header.get(pos);
            order.push(schema.id_of(name.trim()).map_err(|_| TableError::Csv {
                line: header_line,
                message: format!("header column `{name}` is not in the schema"),
            })?);
        }
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
        while table.num_rows() < self.chunk_rows {
            let Some(line) = self.records.next_record()? else {
                break;
            };
            if self.records.num_fields() != self.schema.len() {
                return Err(TableError::Csv {
                    line,
                    message: format!(
                        "record has {} fields but schema has {}",
                        self.records.num_fields(),
                        self.schema.len()
                    ),
                });
            }
            // A failed record fails the whole read, so cells go straight
            // into their columns and the row is counted once all are in.
            let fields = self.records.fields(line)?;
            for (pos, id) in self.order.iter().enumerate() {
                let raw = fields.get(pos);
                let column = table.column_mut(id.index());
                match column {
                    Column::Categorical(_) => column.push_label(raw),
                    Column::Quantitative { .. } => column.push_number(parse_number(raw, line)?),
                }
            }
            table.finish_row();
        }
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

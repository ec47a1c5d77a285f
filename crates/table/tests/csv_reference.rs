//! The single-pass CSV reader against the line-based reader it replaced,
//! kept here as a reference: on random inputs over the bytes that matter
//! to quoting, both accept the same inputs with the same cells, and both
//! reject the rest. The threaded reader at 2 and 7 threads gives the
//! serial reader's table, dictionaries included, or its error.

use std::io::BufRead;

use qar_prng::{cases, Prng};
use qar_table::{csv, AttributeId, AttributeKind, Schema, Table, TableError, Value};

/// The replaced reader: join physical lines until quotes balance, strip
/// trailing line-end bytes, skip blank records, then split the record.
mod line_based {
    use super::*;

    fn split_record(line: &str) -> Option<Vec<String>> {
        let mut fields = Vec::new();
        let mut field = String::new();
        let mut chars = line.chars().peekable();
        let mut in_quotes = false;
        while let Some(c) = chars.next() {
            match (in_quotes, c) {
                (false, ',') => fields.push(std::mem::take(&mut field)),
                (false, '"') => {
                    if !field.is_empty() {
                        return None;
                    }
                    in_quotes = true;
                }
                (false, c) => field.push(c),
                (true, '"') => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        field.push('"');
                    } else {
                        in_quotes = false;
                        if !matches!(chars.peek(), None | Some(',')) {
                            return None;
                        }
                    }
                }
                (true, c) => field.push(c),
            }
        }
        if in_quotes {
            return None;
        }
        fields.push(field);
        Some(fields)
    }

    fn records(mut reader: impl BufRead) -> Option<Vec<Vec<String>>> {
        let mut out = Vec::new();
        loop {
            let mut buf = String::new();
            loop {
                let n = reader.read_line(&mut buf).ok()?;
                if n == 0 || buf.chars().filter(|&c| c == '"').count() % 2 == 0 {
                    break;
                }
            }
            if buf.is_empty() {
                return Some(out);
            }
            while buf.ends_with('\n') || buf.ends_with('\r') {
                buf.pop();
            }
            if !buf.is_empty() {
                out.push(split_record(&buf)?);
            }
        }
    }

    /// The table the replaced reader built, or `None` where it failed.
    pub fn read_table(input: &[u8], schema: &Schema) -> Option<Table> {
        let records = records(input)?;
        let (header, rows) = records.split_first()?;
        let order: Vec<_> = header
            .iter()
            .map(|name| schema.id_of(name.trim()).ok())
            .collect::<Option<_>>()?;
        if order.len() != schema.len() {
            return None;
        }
        let mut table = Table::new(schema.clone());
        for fields in rows {
            if fields.len() != schema.len() {
                return None;
            }
            let mut cells = vec![Value::Int(0); schema.len()];
            for (raw, &id) in fields.iter().zip(&order) {
                cells[id.index()] = match schema.attribute(id).kind() {
                    AttributeKind::Categorical => Value::from(raw.as_str()),
                    AttributeKind::Quantitative => {
                        let token = raw.trim();
                        match token.parse::<i64>() {
                            Ok(i) => Value::Int(i),
                            Err(_) => {
                                Value::Float(token.parse::<f64>().ok().filter(|x| x.is_finite())?)
                            }
                        }
                    }
                };
            }
            table.push_row(&cells).ok()?;
        }
        Some(table)
    }
}

/// Records of a label field and a number field, written with random
/// quoting and line ends, then sometimes broken by one random byte.
fn random_input(rng: &mut Prng) -> Vec<u8> {
    const BYTES: &[u8] = b"ab1,\"\n\r -.";
    const NUMBERS: &[&str] = &["1", " 2 ", "-3.5", "1e3", "0", "x", "", "\"4\""];
    let mut input = b"c,q".to_vec();
    for _ in 0..rng.gen_range(0..6usize) {
        input.extend_from_slice(
            rng.choose(&[&b"\n"[..], b"\r\n", b"\n\n", b"\r\r\n"])
                .unwrap(),
        );
        let text: Vec<u8> = (0..rng.gen_range(0..5usize))
            .map(|_| *rng.choose(BYTES).unwrap())
            .collect();
        if rng.gen_range(0..2u32) == 0 {
            input.push(b'"');
            for &b in &text {
                input.push(b);
                if b == b'"' {
                    input.push(b'"');
                }
            }
            input.push(b'"');
        } else {
            input.extend(text.iter().filter(|b| !b"\",\n".contains(b)));
        }
        input.push(b',');
        input.extend_from_slice(rng.choose(NUMBERS).unwrap().as_bytes());
    }
    if rng.gen_range(0..2u32) == 0 {
        input.push(b'\n');
    }
    if rng.gen_range(0..4u32) == 0 {
        let at = rng.gen_range(0..input.len());
        input[at] = *rng.choose(BYTES).unwrap();
    }
    input
}

fn rows(table: &Table) -> Vec<Vec<Value>> {
    table.rows().map(|r| r.to_values()).collect()
}

/// The serial reader: the quote state machine over the whole stream.
fn serial(input: &[u8], schema: &Schema) -> Result<Table, TableError> {
    let mut chunks = csv::CsvChunks::new(input, schema.clone(), usize::MAX)?;
    Ok(chunks
        .next_chunk()?
        .unwrap_or_else(|| Table::new(schema.clone())))
}

/// The threaded reader at 2 and 7 threads reads `input` as the serial
/// reader does: the same columns (dictionary order included), or the
/// same error on the same line.
fn assert_threaded_matches_serial(input: &[u8], schema: &Schema, shown: &str) {
    let want = serial(input, schema);
    for threads in [2, 7] {
        let got = csv::read_table_threaded(input, schema, threads, &|| false);
        match (&want, &got) {
            (Ok(want), Ok(got)) => {
                assert_eq!(
                    got.num_rows(),
                    want.num_rows(),
                    "{threads} threads: {shown}"
                );
                for c in 0..schema.len() {
                    let id = AttributeId(c);
                    assert_eq!(
                        got.column(id),
                        want.column(id),
                        "{threads} threads: {shown}"
                    );
                }
            }
            (Err(want), Err(got)) => assert_eq!(got, want, "{threads} threads: {shown}"),
            _ => panic!("{threads} threads: {shown}: serial {want:?}, threaded {got:?}"),
        }
    }
}

/// Blank lines after the header, enough to fill the threaded reader's
/// first block, so the records after them are read as a later block and
/// cut into one range per thread.
const PAD_LINES: usize = 1 << 17;

#[test]
fn single_pass_reader_matches_the_line_based_reader() {
    let schema = Schema::builder()
        .categorical("c")
        .quantitative("q")
        .build()
        .unwrap();
    let mut accepted = 0;
    cases(4000, 0x5EED_C5F0_0001, |case, rng| {
        let input = random_input(rng);
        let reference = line_based::read_table(&input, &schema);
        let single_pass = csv::read_table(input.as_slice(), &schema);
        let shown = String::from_utf8_lossy(&input);
        // Tiny read blocks split records across block boundaries.
        let block = rng.gen_range(1..8usize);
        let blocked = csv::read_table(
            std::io::BufReader::with_capacity(block, input.as_slice()),
            &schema,
        );
        assert_eq!(
            blocked.as_ref().map(rows).ok(),
            single_pass.as_ref().map(rows).ok(),
            "case {case}: {shown:?} in {block}-byte blocks"
        );
        assert_threaded_matches_serial(&input, &schema, &shown);
        if case % 50 == 0 {
            let mut padded = b"c,q".to_vec();
            padded.resize(padded.len() + PAD_LINES, b'\n');
            padded.extend_from_slice(&input[3..]);
            assert_threaded_matches_serial(&padded, &schema, &format!("padded {shown}"));
        }
        match (reference, single_pass) {
            (Some(a), Ok(b)) => {
                assert_eq!(rows(&a), rows(&b), "case {case}: {shown:?}");
                accepted += 1;
            }
            (None, Err(_)) => {}
            (a, b) => panic!(
                "case {case}: {shown:?}: line-based {:?}, single-pass {:?}",
                a.map(|t| rows(&t)),
                b.map(|t| rows(&t))
            ),
        }
    });
    assert!(accepted > 1000, "only {accepted} inputs were valid");
}

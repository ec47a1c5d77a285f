//! The single-pass CSV reader against the line-based reader it replaced,
//! kept here as a reference: on random inputs over the bytes that matter
//! to quoting, both accept the same inputs with the same cells, and both
//! reject the rest.

use std::io::BufRead;

use qar_prng::{cases, Prng};
use qar_table::{csv, AttributeKind, Schema, Table, Value};

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

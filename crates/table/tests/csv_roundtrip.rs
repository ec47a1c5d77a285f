//! Randomized property test: any table survives a CSV write/read round
//! trip intact, including adversarial categorical strings (quotes, commas,
//! newlines, unicode).

use qar_prng::{cases, Prng};
use qar_table::{csv, Schema, Table, TableSummary, Value};

fn categorical_string(rng: &mut Prng) -> String {
    // A mix of plain words and adversarial CSV content. Leading/trailing
    // whitespace-only distinctions and bare CR are excluded: the format
    // cannot represent them unambiguously (matching RFC 4180 practice).
    const WORD_CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_";
    match rng.gen_range(0..7u32) {
        0 => "with,comma".to_string(),
        1 => "with\"quote".to_string(),
        2 => "multi\nline".to_string(),
        3 => "ünïcødé 字".to_string(),
        4 => "\"\"".to_string(),
        5 => "trailing,".to_string(),
        _ => {
            let len = rng.gen_range(1..13usize);
            (0..len)
                .map(|_| *rng.choose(WORD_CHARS).unwrap() as char)
                .collect()
        }
    }
}

#[test]
fn roundtrip_preserves_every_cell() {
    cases(64, 0x5EED_C511_0001, |case, rng| {
        let schema = Schema::builder()
            .quantitative("q_int")
            .categorical("label")
            .quantitative("q_float")
            .build()
            .unwrap();
        let mut table = Table::new(schema.clone());
        let num_rows = rng.gen_range(1..60usize);
        for _ in 0..num_rows {
            let i = rng.gen_range(i32::MIN as i64..i32::MAX as i64 + 1);
            let s = categorical_string(rng);
            let f = rng.gen_range(-1.0e6..1.0e6);
            table
                .push_row(&[Value::Int(i), Value::from(s), Value::Float(f)])
                .unwrap();
        }
        let mut buf = Vec::new();
        csv::write_table(&mut buf, &table).unwrap();
        let reread = csv::read_table(buf.as_slice(), &schema).unwrap();
        assert_eq!(reread.num_rows(), table.num_rows(), "case {case}");
        for row in 0..table.num_rows() {
            // Integer column: exact.
            assert_eq!(
                reread.row(row).value(0),
                table.row(row).value(0),
                "case {case}"
            );
            // Categorical column: exact bytes.
            assert_eq!(
                reread.row(row).value(1),
                table.row(row).value(1),
                "case {case}"
            );
            // Float column: Display uses shortest-roundtrip form, so parsing
            // it back is exact.
            let (a, b) = (reread.row(row).value(2), table.row(row).value(2));
            assert_eq!(a.as_f64().unwrap(), b.as_f64().unwrap(), "case {case}");
        }
    });
}

#[test]
fn header_escaping_roundtrips() {
    cases(16, 0x5EED_C511_0002, |case, rng| {
        // Attribute names containing commas/quotes must be escaped too.
        let len = rng.gen_range(1..9usize);
        let word: String = (0..len)
            .map(|_| (b'a' + rng.gen_range(0..26u8)) as char)
            .collect();
        let tricky = format!("{word},\"x");
        let schema = Schema::builder()
            .categorical(tricky.clone())
            .quantitative("n")
            .build()
            .unwrap();
        let mut table = Table::new(schema.clone());
        table.push_row(&[Value::from("v"), Value::Int(1)]).unwrap();
        let mut buf = Vec::new();
        csv::write_table(&mut buf, &table).unwrap();
        let reread = csv::read_table(buf.as_slice(), &schema).unwrap();
        assert_eq!(reread.num_rows(), 1, "case {case}");
        assert_eq!(
            reread.schema().attribute_by_name(&tricky).unwrap().name(),
            tricky.as_str(),
            "case {case}"
        );
    });
}

/// A label that stresses the quote state machine: delimiters, quotes,
/// embedded `\n` and `\r\n`, empty strings and surrounding spaces.
fn adversarial_label(rng: &mut Prng) -> String {
    const LABELS: &[&str] = &[
        "with,comma",
        "with\"quote",
        "\"",
        "\"\"",
        "multi\nline",
        "crlf\r\nline",
        "bare\rcr",
        "",
        " lead",
        "trail ",
        "  ",
        ",",
        "plain",
        "ünïcødé",
    ];
    let a = *rng.choose(LABELS).unwrap();
    if rng.gen_range(0..4u32) == 0 {
        format!("{a}{}", rng.choose(LABELS).unwrap())
    } else {
        a.to_string()
    }
}

/// Reading a written table whole and in chunks of 1, 2 and 7 rows gives
/// back every cell, and the chunks' merged histograms equal the whole
/// table's.
#[test]
fn chunked_roundtrip_with_adversarial_labels() {
    cases(48, 0x5EED_C511_0003, |case, rng| {
        let schema = Schema::builder()
            .categorical("label")
            .quantitative("q")
            .categorical("note")
            .build()
            .unwrap();
        let mut table = Table::new(schema.clone());
        for _ in 0..rng.gen_range(0..40usize) {
            let q = if rng.gen_range(0..2u32) == 0 {
                Value::Int(rng.gen_range(-5..5i64))
            } else {
                Value::Float(rng.gen_range(-10.0..10.0))
            };
            let row = [
                Value::from(adversarial_label(rng)),
                q,
                Value::from(adversarial_label(rng)),
            ];
            table.push_row(&row).unwrap();
        }
        let mut buf = Vec::new();
        csv::write_table(&mut buf, &table).unwrap();
        let whole = csv::read_table(buf.as_slice(), &schema).unwrap();
        // A chunk of whole numbers renders them as integers, so cells
        // compare as numbers or labels.
        let rows = |t: &Table| {
            t.rows()
                .flat_map(|r| r.to_values())
                .map(|v| match v {
                    Value::Cat(s) => Err(s),
                    number => Ok(number.as_f64().unwrap().to_bits()),
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(rows(&whole), rows(&table), "case {case}");
        for chunk_rows in [1, 2, 7] {
            let mut chunks =
                csv::CsvChunks::new(buf.as_slice(), schema.clone(), chunk_rows).unwrap();
            let mut summary = TableSummary::new(schema.clone());
            let mut read = Vec::new();
            while let Some(chunk) = chunks.next_chunk().unwrap() {
                assert!(chunk.num_rows() <= chunk_rows, "case {case}");
                summary.add_chunk(&chunk);
                read.extend(rows(&chunk));
            }
            assert_eq!(read, rows(&table), "case {case} chunk_rows={chunk_rows}");
            assert_eq!(
                summary.histograms(),
                whole.histograms(),
                "case {case} chunk_rows={chunk_rows}"
            );
        }
    });
}

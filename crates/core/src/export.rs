//! Exporting mined rules to machine-readable formats (CSV and JSON).
//!
//! Both formats decode items back to original attribute names and value
//! bounds, carry exact support counts, and include the interest verdict
//! when one was computed. Hand-rolled writers — the rule structure is flat
//! enough that a serialization framework would be pure dependency weight.

use std::io::Write;

use crate::interest::RuleInterest;
use crate::output::RuleDecoder;
use crate::rules::QuantRule;
use qar_itemset::Item;
use qar_table::AttributeId;

fn item_fields(item: Item, table: &impl RuleDecoder) -> (String, String) {
    let id = AttributeId(item.attr as usize);
    let name = table.schema().attribute(id).name().to_owned();
    let range = table.encoder(id).describe_range(item.lo, item.hi);
    (name, range)
}

fn side_to_string(items: &[Item], table: &impl RuleDecoder) -> String {
    items
        .iter()
        .map(|&i| {
            let (name, range) = item_fields(i, table);
            format!("{name}={range}")
        })
        .collect::<Vec<_>>()
        .join(" & ")
}

fn csv_escape(field: &str) -> String {
    if field.contains(',') || field.contains('"') || field.contains('\n') {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_owned()
    }
}

/// Write rules as CSV with the header
/// `antecedent,consequent,support_count,support,confidence,interesting`.
/// The `interesting` column is empty when no verdicts are supplied.
pub fn rules_to_csv<W: Write>(
    out: &mut W,
    rules: &[QuantRule],
    verdicts: Option<&[RuleInterest]>,
    table: &impl RuleDecoder,
    num_rows: u64,
) -> std::io::Result<()> {
    if let Some(v) = verdicts {
        assert_eq!(v.len(), rules.len(), "one verdict per rule");
    }
    writeln!(
        out,
        "antecedent,consequent,support_count,support,confidence,interesting"
    )?;
    for (i, rule) in rules.iter().enumerate() {
        let interesting = match verdicts {
            Some(v) => v[i].interesting.to_string(),
            None => String::new(),
        };
        writeln!(
            out,
            "{},{},{},{:.6},{:.6},{}",
            csv_escape(&side_to_string(rule.antecedent.items(), table)),
            csv_escape(&side_to_string(rule.consequent.items(), table)),
            rule.support,
            rule.support as f64 / num_rows as f64,
            rule.confidence,
            interesting,
        )?;
    }
    Ok(())
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn items_to_json(items: &[Item], table: &impl RuleDecoder) -> String {
    let parts: Vec<String> = items
        .iter()
        .map(|&i| {
            let (name, range) = item_fields(i, table);
            let id = AttributeId(i.attr as usize);
            match table.encoder(id).numeric_bounds(i.lo, i.hi) {
                Some((lo, hi)) => format!(
                    "{{\"attribute\":\"{}\",\"lo\":{lo},\"hi\":{hi}}}",
                    json_escape(&name)
                ),
                None => format!(
                    "{{\"attribute\":\"{}\",\"value\":\"{}\"}}",
                    json_escape(&name),
                    json_escape(&range)
                ),
            }
        })
        .collect();
    format!("[{}]", parts.join(","))
}

/// Render an `f64` as a JSON value. JSON has no encoding for `inf` or
/// `NaN` — emitting them verbatim (as `{:?}`/`{}` would) produces a
/// document every conforming parser rejects — so non-finite values
/// become `null`. This is the one convention for every JSON boundary in
/// the workspace: an analytics measure that is undefined (χ² with an
/// empty margin) or divergent (conviction of an exact rule) reads as
/// `null`, never as `inf`/`NaN` tokens.
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Write rules as a JSON array. Quantitative items carry numeric `lo`/`hi`
/// bounds; categorical items carry their `value` label.
pub fn rules_to_json<W: Write>(
    out: &mut W,
    rules: &[QuantRule],
    verdicts: Option<&[RuleInterest]>,
    table: &impl RuleDecoder,
    num_rows: u64,
) -> std::io::Result<()> {
    rules_to_json_with(out, rules, verdicts, table, num_rows, |_| String::new())
}

/// [`rules_to_json`] with an extra-fields hook: for each rule index the
/// closure returns raw JSON members (each prefixed with a comma, e.g.
/// `,"lift":1.5`) appended inside that rule's object. Callers use this
/// to attach analytics measures without this crate depending on the
/// analytics types.
pub fn rules_to_json_with<W: Write>(
    out: &mut W,
    rules: &[QuantRule],
    verdicts: Option<&[RuleInterest]>,
    table: &impl RuleDecoder,
    num_rows: u64,
    extra: impl Fn(usize) -> String,
) -> std::io::Result<()> {
    if let Some(v) = verdicts {
        assert_eq!(v.len(), rules.len(), "one verdict per rule");
    }
    writeln!(out, "[")?;
    for (i, rule) in rules.iter().enumerate() {
        let interesting = match verdicts {
            Some(v) => format!(",\"interesting\":{}", v[i].interesting),
            None => String::new(),
        };
        let comma = if i + 1 < rules.len() { "," } else { "" };
        writeln!(
            out,
            "  {{\"antecedent\":{},\"consequent\":{},\"support_count\":{},\"support\":{:.6},\"confidence\":{:.6}{}{}}}{}",
            items_to_json(rule.antecedent.items(), table),
            items_to_json(rule.consequent.items(), table),
            rule.support,
            rule.support as f64 / num_rows as f64,
            rule.confidence,
            interesting,
            extra(i),
            comma,
        )?;
    }
    writeln!(out, "]")?;
    Ok(())
}

/// Write run statistics as a JSON object, including the pass-level
/// numbers (`passes[k]` covers counting pass `k + 2`; pass 1 is the
/// per-attribute scan reported by `pass1_scan_us`).
pub fn stats_to_json<W: Write>(
    out: &mut W,
    stats: &crate::pipeline::MiningStats,
) -> std::io::Result<()> {
    let us = |d: std::time::Duration| d.as_micros() as u64;
    let intervals: Vec<String> = stats
        .intervals_per_attribute
        .iter()
        .map(|i| match i {
            Some(n) => n.to_string(),
            None => "null".to_string(),
        })
        .collect();
    let passes: Vec<String> = stats
        .mine
        .pass_stats
        .iter()
        .enumerate()
        .map(|(i, p)| {
            format!(
                "{{\"pass\":{},\"candidates\":{},\"super_candidates\":{},\
                 \"array_backed\":{},\"rtree_backed\":{},\"hash_tree_nodes\":{},\
                 \"counter_bytes\":{},\"scan_us\":{},\"merge_us\":{},\"shards\":{}}}",
                i + 2,
                stats.mine.candidates_per_pass.get(i).copied().unwrap_or(0),
                p.super_candidates,
                p.array_backed,
                p.rtree_backed,
                p.hash_tree_nodes,
                p.counter_bytes,
                us(p.scan_time),
                us(p.merge_time),
                p.shard_scan_times.len().max(1),
            )
        })
        .collect();
    writeln!(
        out,
        "{{\"rules_total\":{},\"rules_interesting\":{},\"elapsed_us\":{},\
         \"elapsed_mining_us\":{},\"encoding_reused\":{},\"parallelism\":{},\
         \"interest_pruned_items\":{},\"pass1_scan_us\":{},\
         \"intervals_per_attribute\":[{}],\"passes\":[{}]}}",
        stats.rules_total,
        stats.rules_interesting,
        us(stats.elapsed),
        us(stats.elapsed_mining),
        stats.encoding_reused,
        stats.mine.parallelism,
        stats.mine.interest_pruned_items,
        us(stats.mine.pass1_scan_time),
        intervals.join(","),
        passes.join(","),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{MinerConfig, PartitionSpec};
    use crate::miner::Miner;
    use qar_table::{Schema, Table, Value};

    fn mined() -> crate::pipeline::MiningOutput {
        let schema = Schema::builder()
            .quantitative("Age")
            .categorical("Married")
            .quantitative("NumCars")
            .build()
            .unwrap();
        let mut t = Table::new(schema);
        for (age, married, cars) in [
            (23, "No", 1),
            (25, "Yes", 1),
            (29, "No", 0),
            (34, "Yes", 2),
            (38, "Yes", 2),
        ] {
            t.push_row(&[Value::Int(age), Value::from(married), Value::Int(cars)])
                .unwrap();
        }
        Miner::new(MinerConfig {
            min_support: 0.4,
            min_confidence: 0.5,
            max_support: 1.0,
            partitioning: PartitionSpec::None,
            partition_strategy: Default::default(),
            taxonomies: Default::default(),
            interest: Some(crate::config::InterestConfig {
                level: 1.1,
                mode: crate::config::InterestMode::SupportOrConfidence,
                prune_candidates: false,
            }),
            max_itemset_size: 0,
            parallelism: None,
        })
        .mine(&t)
        .unwrap()
    }

    #[test]
    fn csv_has_header_and_one_line_per_rule() {
        let out = mined();
        let mut buf = Vec::new();
        rules_to_csv(
            &mut buf,
            &out.rules,
            out.interest.as_deref(),
            &out.encoded,
            out.frequent.num_rows,
        )
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), out.rules.len() + 1);
        assert!(lines[0].starts_with("antecedent,consequent,"));
        // The headline rule appears with its exact numbers.
        assert!(
            text.contains("Age=34..38 & Married=Yes,NumCars=2,2,0.400000,1.000000"),
            "{text}"
        );
        // Every data line has an interest verdict.
        assert!(lines[1..]
            .iter()
            .all(|l| l.ends_with(",true") || l.ends_with(",false")));
    }

    #[test]
    fn json_is_parseable_shape() {
        let out = mined();
        let mut buf = Vec::new();
        rules_to_json(
            &mut buf,
            &out.rules,
            out.interest.as_deref(),
            &out.encoded,
            out.frequent.num_rows,
        )
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        // Structural sanity without a JSON parser dependency: balanced
        // brackets, one object per rule, correct key set.
        assert!(text.trim_start().starts_with('['));
        assert!(text.trim_end().ends_with(']'));
        assert_eq!(text.matches("\"antecedent\"").count(), out.rules.len());
        assert_eq!(text.matches("\"interesting\"").count(), out.rules.len());
        assert!(text.contains("\"attribute\":\"NumCars\",\"lo\":2,\"hi\":2"));
        assert!(text.contains("\"attribute\":\"Married\",\"value\":\"Yes\""));
        // Object-comma discipline: no trailing comma before the closing ].
        assert!(!text.contains("},\n]"));
    }

    #[test]
    fn no_verdicts_leaves_column_empty() {
        let out = mined();
        let mut buf = Vec::new();
        rules_to_csv(&mut buf, &out.rules, None, &out.encoded, 5).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.lines().skip(1).all(|l| l.ends_with(',')));
    }

    #[test]
    fn escaping_helpers() {
        assert_eq!(csv_escape("a,b"), "\"a,b\"");
        assert_eq!(csv_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
    }

    #[test]
    fn json_f64_nulls_non_finite() {
        assert_eq!(json_f64(1.5), "1.5");
        assert_eq!(json_f64(0.0), "0");
        assert_eq!(json_f64(-3.25e-4), "-0.000325");
        assert_eq!(json_f64(f64::INFINITY), "null");
        assert_eq!(json_f64(f64::NEG_INFINITY), "null");
        assert_eq!(json_f64(f64::NAN), "null");
    }

    #[test]
    fn extra_fields_land_inside_each_rule_object() {
        let out = mined();
        let mut buf = Vec::new();
        rules_to_json_with(
            &mut buf,
            &out.rules,
            None,
            &out.encoded,
            out.frequent.num_rows,
            |i| format!(",\"lift\":{},\"conviction\":{}", i, json_f64(f64::INFINITY)),
        )
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        let parsed = qar_trace::json::parse(&text).expect("valid JSON");
        let rules = parsed.as_array().expect("an array");
        assert_eq!(rules.len(), out.rules.len());
        for (i, rule) in rules.iter().enumerate() {
            let obj = rule.as_object().expect("a rule object");
            assert_eq!(obj["lift"].as_u64(), Some(i as u64));
            assert!(obj["conviction"].is_null());
        }
    }

    #[test]
    fn stats_json_carries_pass_level_numbers() {
        let out = mined();
        let mut buf = Vec::new();
        stats_to_json(&mut buf, &out.stats).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let parsed = qar_trace::json::parse(&text).expect("valid JSON");
        let obj = parsed.as_object().expect("an object");
        assert_eq!(
            obj["rules_total"].as_u64(),
            Some(out.stats.rules_total as u64)
        );
        assert_eq!(obj["encoding_reused"].as_bool(), Some(false));
        let passes = obj["passes"].as_array().expect("passes array");
        assert_eq!(passes.len(), out.stats.mine.pass_stats.len());
        for (i, p) in passes.iter().enumerate() {
            let p = p.as_object().expect("pass object");
            assert_eq!(p["pass"].as_u64(), Some(i as u64 + 2));
            assert!(p["scan_us"].is_integer());
        }
    }
}

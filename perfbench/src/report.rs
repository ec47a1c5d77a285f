//! What one workload run reports: operations attempted and failed, the
//! metrics by name, and the result line the benchmark prints last.

use std::collections::BTreeMap;

use qar_trace::json::Json;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, memory).
    Lower,
    /// Larger values are better (throughput).
    Higher,
}

impl Better {
    /// Parse `"lower"` / `"higher"`.
    pub fn parse(s: &str) -> Option<Better> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }
}

/// A metric's name and unit, as `BENCHMARK.json` lists it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricSpec {
    /// Metric name.
    pub name: &'static str,
    /// Unit string.
    pub unit: &'static str,
}

const fn spec(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec { name, unit }
}

/// End-to-end metrics: every workload reports each, untraced.
pub const END_TO_END: [MetricSpec; 4] = [
    spec("setup_s", "s"),
    spec("latency_p50_ms", "ms"),
    spec("throughput_per_s", "1/s"),
    spec("peak_rss_mb", "MiB"),
];

/// Per-layer metrics: every workload's traced run reports each.
pub const PER_LAYER: [MetricSpec; 28] = [
    spec("table.csv_read_s", "s"),
    spec("partition.build_encoders_s", "s"),
    spec("table.encode_s", "s"),
    spec("core.frequent.pass1_s", "s"),
    spec("core.candidate.gen_s", "s"),
    spec("core.supercand.count_pass2_s", "s"),
    spec("core.supercand.count_pass3plus_s", "s"),
    spec("core.supercand.candidates", "count"),
    spec("core.supercand.frequent_per_candidate", "ratio"),
    spec("core.supercand.memoized_scan_share", "ratio"),
    spec("core.miner.encoding_reuse_ratio", "ratio"),
    spec("core.source.capture_extra_s", "s"),
    spec("core.rules.gen_s", "s"),
    spec("core.counts.fallback_ratio", "ratio"),
    spec("store.catalog.encode_s", "s"),
    spec("store.catalog.write_s", "s"),
    spec("store.catalog.load_s", "s"),
    spec("store.catalog.counts_bytes", "B"),
    spec("store.catalog.other_bytes", "B"),
    spec("store.index.build_s", "s"),
    spec("store.index.query_us", "us"),
    spec("store.protocol.roundtrip_us", "us"),
    spec("store.serve.server_us_mean", "us"),
    spec("store.serve.wire_us_mean", "us"),
    spec("dist.merge_s", "s"),
    spec("qar.process_overhead_s", "s"),
    spec("trace.overhead_ratio", "ratio"),
    spec("trace.coverage", "ratio"),
];

/// The outcome of one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (program runs, requests, correctness checks).
    pub attempted: u64,
    /// Operations that failed: a non-zero exit other than the documented
    /// update fallback, an error response, or a failed check.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
    /// Supporting detail for the result file: sample counts, raw
    /// samples, the extended layer ledger.
    pub extra: BTreeMap<String, Json>,
}

impl Outcome {
    /// Count one attempted operation, failing it with `message` unless
    /// `ok`.
    pub fn check(&mut self, ok: bool, message: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(message());
        }
    }

    /// Set a metric.
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Attach supporting detail.
    pub fn extra(&mut self, key: &str, value: Json) {
        self.extra.insert(key.to_string(), value);
    }

    /// True when nothing failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The result line: `correct`, `attempted`, `failed`, and `metrics`
    /// holding exactly `specs`, each with its unit.
    pub fn result_line(&self, specs: &[MetricSpec]) -> String {
        let metrics: BTreeMap<String, Json> = specs
            .iter()
            .map(|s| {
                let value = self.metrics.get(s.name).map_or(Json::Null, |v| num(*v));
                let entry = obj([("value", value), ("unit", Json::Str(s.unit.to_string()))]);
                (s.name.to_string(), entry)
            })
            .collect();
        let line = obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ]);
        to_json(&line)
    }

    /// One human-readable line per metric in `specs`.
    pub fn human_lines(&self, specs: &[MetricSpec]) -> Vec<String> {
        specs
            .iter()
            .map(|s| match self.metrics.get(s.name) {
                Some(v) => format!("  {:<40} {v:>16.6} {}", s.name, s.unit),
                None => format!("  {:<40} {:>16} {}", s.name, "missing", s.unit),
            })
            .collect()
    }

    /// Read back an outcome written by [`Outcome::document`].
    pub fn from_document(doc: &Json) -> Outcome {
        let field = |k: &str| doc.as_object().and_then(|o| o.get(k));
        let count = |k: &str| field(k).and_then(Json::as_u64).unwrap_or(0);
        let metrics = field("metrics")
            .and_then(Json::as_object)
            .map(|m| {
                m.iter()
                    .filter_map(|(name, entry)| match entry.as_object()?.get("value")? {
                        Json::Num(v) => Some((name.clone(), *v)),
                        _ => None,
                    })
                    .collect()
            })
            .unwrap_or_default();
        Outcome {
            attempted: count("attempted"),
            failed: count("failed"),
            failures: field("failures")
                .and_then(Json::as_array)
                .map(|a| {
                    a.iter()
                        .filter_map(|s| s.as_str().map(str::to_string))
                        .collect()
                })
                .unwrap_or_default(),
            metrics,
            extra: field("extra")
                .and_then(Json::as_object)
                .cloned()
                .unwrap_or_default(),
        }
    }

    /// The full result document for `--out`: identity, verdict, every
    /// metric (with the units `specs` give, where listed), and the extra
    /// detail.
    pub fn document(&self, identity: Vec<(&str, Json)>, specs: &[MetricSpec]) -> Json {
        let unit_of = |name: &str| specs.iter().find(|s| s.name == name).map_or("", |s| s.unit);
        let metrics = self
            .metrics
            .iter()
            .map(|(name, v)| {
                let entry = obj([
                    ("value", num(*v)),
                    ("unit", Json::Str(unit_of(name).to_string())),
                ]);
                (name.clone(), entry)
            })
            .collect();
        let mut fields: BTreeMap<String, Json> = identity
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect();
        fields.insert("correct".into(), Json::Bool(self.correct()));
        fields.insert("attempted".into(), Json::Num(self.attempted as f64));
        fields.insert("failed".into(), Json::Num(self.failed as f64));
        fields.insert(
            "failures".into(),
            Json::Arr(self.failures.iter().cloned().map(Json::Str).collect()),
        );
        fields.insert("metrics".into(), Json::Obj(metrics));
        fields.insert("extra".into(), Json::Obj(self.extra.clone()));
        Json::Obj(fields)
    }
}

/// A finite number, or `null`.
pub fn num(v: f64) -> Json {
    if v.is_finite() {
        Json::Num(v)
    } else {
        Json::Null
    }
}

/// An array of numbers.
pub fn nums(values: &[f64]) -> Json {
    Json::Arr(values.iter().map(|v| num(*v)).collect())
}

/// An object from key/value pairs.
pub fn obj<const N: usize>(fields: [(&str, Json); N]) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Serialize a JSON value on one line.
pub fn to_json(value: &Json) -> String {
    let mut out = String::new();
    write_json(value, &mut out);
    out
}

fn write_json(value: &Json, out: &mut String) {
    match value {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(n) if n.is_finite() => out.push_str(&format!("{n}")),
        Json::Num(_) => out.push_str("null"),
        Json::Str(s) => {
            out.push('"');
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
            out.push('"');
        }
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_json(item, out);
            }
            out.push(']');
        }
        Json::Obj(fields) => {
            out.push('{');
            for (i, (k, v)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_json(&Json::Str(k.clone()), out);
                out.push(':');
                write_json(v, out);
            }
            out.push('}');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_listed_metrics() {
        let mut o = Outcome::default();
        o.check(true, String::new);
        o.set("setup_s", 0.8127);
        o.set("latency_p50_ms", 1.25);
        o.set("not_listed", 3.0);
        let specs = [spec("setup_s", "s"), spec("latency_p50_ms", "ms")];
        let line = o.result_line(&specs);
        assert_eq!(
            line,
            "{\"attempted\":1,\"correct\":true,\"failed\":0,\"metrics\":{\"latency_p50_ms\":\
             {\"unit\":\"ms\",\"value\":1.25},\"setup_s\":{\"unit\":\"s\",\"value\":0.8127}}}"
        );
        let parsed = qar_trace::json::parse(&line).unwrap();
        assert_eq!(parsed.as_object().unwrap()["attempted"].as_u64(), Some(1));
    }

    #[test]
    fn failures_flip_correct() {
        let mut o = Outcome::default();
        o.check(false, || "catalog differs".into());
        o.check(true, String::new);
        assert!(!o.correct());
        assert_eq!((o.attempted, o.failed), (2, 1));
        assert!(o
            .result_line(&[])
            .starts_with("{\"attempted\":2,\"correct\":false"));
    }

    #[test]
    fn strings_are_escaped() {
        let s = to_json(&Json::Str("a\"b\\c\nd".into()));
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(
            qar_trace::json::parse(&s).unwrap().as_str(),
            Some("a\"b\\c\nd")
        );
    }
}

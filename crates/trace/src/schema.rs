//! Validation of trace-event JSON lines against a checked-in schema.
//!
//! The schema file (`schemas/trace_events.schema.json`) is written in a
//! small subset of JSON Schema draft-07 — enough to pin down the event
//! vocabulary and catch drift in CI:
//!
//! * top level: `{"oneOf": [branch, ...]}`;
//! * each branch: `"type": "object"`, `"properties"` (each either a
//!   `{"const": "..."}` string pin or a `{"type": ...}` where type is
//!   `"integer"`, `"boolean"`, `"string"`, or
//!   `{"type": "array", "items": {"type": "integer"}}`),
//!   `"required"` listing every mandatory key, and
//!   `"additionalProperties": false`.
//!
//! Keeping the validator in-repo (instead of depending on a JSON Schema
//! crate) is deliberate: the build is offline, and the subset above is
//! all the event vocabulary needs. Anything outside the subset is a
//! schema-load error, not a silent pass.

use std::fmt;

use crate::json::{parse, Json, ParseError};

/// A compiled trace-event schema: one compiled branch per event type.
#[derive(Debug, Clone)]
pub struct Schema {
    branches: Vec<Branch>,
}

/// One `oneOf` branch: the shape of a single event type.
#[derive(Debug, Clone)]
struct Branch {
    /// The pinned `"event"` const, used to pick the branch and in errors.
    event: String,
    properties: Vec<(String, PropType)>,
    required: Vec<String>,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum PropType {
    /// `{"const": "..."}` — the value must equal this string.
    Const(String),
    Integer,
    Boolean,
    String,
    IntegerArray,
}

impl PropType {
    fn check(&self, value: &Json) -> bool {
        match self {
            PropType::Const(expected) => value.as_str() == Some(expected),
            PropType::Integer => value.is_integer(),
            PropType::Boolean => matches!(value, Json::Bool(_)),
            PropType::String => matches!(value, Json::Str(_)),
            PropType::IntegerArray => value
                .as_array()
                .is_some_and(|items| items.iter().all(Json::is_integer)),
        }
    }

    fn describe(&self) -> String {
        match self {
            PropType::Const(expected) => format!("the constant \"{expected}\""),
            PropType::Integer => "an integer".into(),
            PropType::Boolean => "a boolean".into(),
            PropType::String => "a string".into(),
            PropType::IntegerArray => "an array of integers".into(),
        }
    }
}

/// Why a schema file could not be compiled.
#[derive(Debug, Clone, PartialEq)]
pub enum SchemaError {
    /// The schema file is not valid JSON.
    Parse(ParseError),
    /// The schema is valid JSON but outside the supported subset.
    Unsupported(String),
}

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchemaError::Parse(e) => write!(f, "schema is not valid JSON: {e}"),
            SchemaError::Unsupported(msg) => write!(f, "unsupported schema construct: {msg}"),
        }
    }
}

impl std::error::Error for SchemaError {}

/// Why an event line failed validation.
#[derive(Debug, Clone, PartialEq)]
pub enum ValidationError {
    /// The line is not valid JSON.
    Parse(ParseError),
    /// The line is valid JSON but violates the schema.
    Invalid(String),
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationError::Parse(e) => write!(f, "{e}"),
            ValidationError::Invalid(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for ValidationError {}

impl std::str::FromStr for Schema {
    type Err = SchemaError;

    /// Compile a schema document from its JSON text.
    fn from_str(text: &str) -> Result<Schema, SchemaError> {
        let doc = parse(text).map_err(SchemaError::Parse)?;
        let root = doc
            .as_object()
            .ok_or_else(|| SchemaError::Unsupported("top level must be an object".into()))?;
        let one_of = root
            .get("oneOf")
            .and_then(Json::as_array)
            .ok_or_else(|| SchemaError::Unsupported("top level must have a oneOf array".into()))?;
        let mut branches = Vec::with_capacity(one_of.len());
        for branch in one_of {
            branches.push(compile_branch(branch)?);
        }
        if branches.is_empty() {
            return Err(SchemaError::Unsupported("oneOf must not be empty".into()));
        }
        Ok(Schema { branches })
    }
}

impl Schema {
    /// Event names this schema accepts, in declaration order.
    pub fn event_names(&self) -> Vec<&str> {
        self.branches.iter().map(|b| b.event.as_str()).collect()
    }

    /// Validate one JSON line. On success returns the event name the line
    /// matched.
    pub fn validate_line(&self, line: &str) -> Result<String, ValidationError> {
        let doc = parse(line).map_err(ValidationError::Parse)?;
        let obj = doc.as_object().ok_or_else(|| {
            ValidationError::Invalid(format!("event must be an object, got {}", doc.type_name()))
        })?;
        let event = obj.get("event").and_then(Json::as_str).ok_or_else(|| {
            ValidationError::Invalid("event object is missing a string \"event\" field".into())
        })?;
        let branch = self
            .branches
            .iter()
            .find(|b| b.event == event)
            .ok_or_else(|| {
                ValidationError::Invalid(format!(
                    "unknown event \"{event}\" (schema knows: {})",
                    self.event_names().join(", ")
                ))
            })?;
        for key in &branch.required {
            if !obj.contains_key(key) {
                return Err(ValidationError::Invalid(format!(
                    "event \"{event}\" is missing required field \"{key}\""
                )));
            }
        }
        for (key, value) in obj {
            let Some((_, prop)) = branch.properties.iter().find(|(name, _)| name == key) else {
                return Err(ValidationError::Invalid(format!(
                    "event \"{event}\" has unexpected field \"{key}\""
                )));
            };
            if !prop.check(value) {
                return Err(ValidationError::Invalid(format!(
                    "event \"{event}\" field \"{key}\" must be {}, got {}",
                    prop.describe(),
                    value.type_name()
                )));
            }
        }
        Ok(event.to_string())
    }
}

fn compile_branch(branch: &Json) -> Result<Branch, SchemaError> {
    let obj = branch
        .as_object()
        .ok_or_else(|| SchemaError::Unsupported("oneOf branch must be an object".into()))?;
    if obj.get("type").and_then(Json::as_str) != Some("object") {
        return Err(SchemaError::Unsupported(
            "each branch must declare \"type\": \"object\"".into(),
        ));
    }
    if obj.get("additionalProperties") != Some(&Json::Bool(false)) {
        return Err(SchemaError::Unsupported(
            "each branch must set \"additionalProperties\": false".into(),
        ));
    }
    let props = obj
        .get("properties")
        .and_then(Json::as_object)
        .ok_or_else(|| SchemaError::Unsupported("branch is missing \"properties\"".into()))?;
    let mut properties = Vec::with_capacity(props.len());
    let mut event = None;
    for (name, spec) in props {
        let prop = compile_property(name, spec)?;
        if name == "event" {
            match &prop {
                PropType::Const(value) => event = Some(value.clone()),
                _ => {
                    return Err(SchemaError::Unsupported(
                        "the \"event\" property must be a const string".into(),
                    ))
                }
            }
        }
        properties.push((name.clone(), prop));
    }
    let event = event.ok_or_else(|| {
        SchemaError::Unsupported("branch has no \"event\" const discriminator".into())
    })?;
    let required = obj
        .get("required")
        .and_then(Json::as_array)
        .ok_or_else(|| SchemaError::Unsupported("branch is missing \"required\"".into()))?
        .iter()
        .map(|v| {
            v.as_str().map(str::to_string).ok_or_else(|| {
                SchemaError::Unsupported("\"required\" entries must be strings".into())
            })
        })
        .collect::<Result<Vec<_>, _>>()?;
    for key in &required {
        if !properties.iter().any(|(name, _)| name == key) {
            return Err(SchemaError::Unsupported(format!(
                "required field \"{key}\" is not declared in properties"
            )));
        }
    }
    Ok(Branch {
        event,
        properties,
        required,
    })
}

fn compile_property(name: &str, spec: &Json) -> Result<PropType, SchemaError> {
    let obj = spec.as_object().ok_or_else(|| {
        SchemaError::Unsupported(format!("property \"{name}\" spec must be an object"))
    })?;
    if let Some(value) = obj.get("const") {
        let value = value.as_str().ok_or_else(|| {
            SchemaError::Unsupported(format!("property \"{name}\" const must be a string"))
        })?;
        return Ok(PropType::Const(value.to_string()));
    }
    match obj.get("type").and_then(Json::as_str) {
        Some("integer") => Ok(PropType::Integer),
        Some("boolean") => Ok(PropType::Boolean),
        Some("string") => Ok(PropType::String),
        Some("array") => {
            let items = obj.get("items").and_then(Json::as_object).ok_or_else(|| {
                SchemaError::Unsupported(format!("array property \"{name}\" needs \"items\""))
            })?;
            if items.get("type").and_then(Json::as_str) == Some("integer") {
                Ok(PropType::IntegerArray)
            } else {
                Err(SchemaError::Unsupported(format!(
                    "array property \"{name}\" items must be integers"
                )))
            }
        }
        other => Err(SchemaError::Unsupported(format!(
            "property \"{name}\" has unsupported type {other:?}"
        ))),
    }
}

/// Validate a whole JSON-lines document (blank lines are skipped).
/// Returns per-event-name counts on success, or the 1-based line number
/// and error of the first invalid line.
pub fn validate_lines(
    schema: &Schema,
    input: &str,
) -> Result<Vec<(String, usize)>, (usize, ValidationError)> {
    let mut counts: Vec<(String, usize)> = schema
        .event_names()
        .iter()
        .map(|name| (name.to_string(), 0))
        .collect();
    for (idx, line) in input.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let event = schema.validate_line(line).map_err(|e| (idx + 1, e))?;
        if let Some(entry) = counts.iter_mut().find(|(name, _)| *name == event) {
            entry.1 += 1;
        }
    }
    Ok(counts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceEvent;
    use std::str::FromStr;

    fn mini_schema() -> Schema {
        Schema::from_str(
            r#"{
              "oneOf": [
                {
                  "type": "object",
                  "properties": {
                    "event": {"const": "ping"},
                    "pass": {"type": "integer"},
                    "deadline": {"type": "boolean"},
                    "times": {"type": "array", "items": {"type": "integer"}}
                  },
                  "required": ["event", "pass"],
                  "additionalProperties": false
                }
              ]
            }"#,
        )
        .expect("mini schema compiles")
    }

    #[test]
    fn accepts_conforming_lines() {
        let schema = mini_schema();
        assert_eq!(
            schema
                .validate_line(r#"{"event":"ping","pass":3}"#)
                .unwrap(),
            "ping"
        );
        schema
            .validate_line(r#"{"event":"ping","pass":3,"deadline":true,"times":[1,2]}"#)
            .unwrap();
    }

    #[test]
    fn rejects_violations_with_reasons() {
        let schema = mini_schema();
        let cases = [
            (r#"{"pass":3}"#, "missing a string \"event\""),
            (r#"{"event":"pong","pass":3}"#, "unknown event"),
            (r#"{"event":"ping"}"#, "missing required field \"pass\""),
            (r#"{"event":"ping","pass":3,"extra":1}"#, "unexpected field"),
            (r#"{"event":"ping","pass":"three"}"#, "must be an integer"),
            (
                r#"{"event":"ping","pass":3,"times":[1,"x"]}"#,
                "array of integers",
            ),
            ("[1,2]", "must be an object"),
        ];
        for (line, needle) in cases {
            let err = schema.validate_line(line).unwrap_err().to_string();
            assert!(err.contains(needle), "line {line:?} gave: {err}");
        }
        assert!(matches!(
            schema.validate_line("{not json"),
            Err(ValidationError::Parse(_))
        ));
    }

    #[test]
    fn rejects_schemas_outside_the_subset() {
        for (doc, needle) in [
            ("[]", "must be an object"),
            ("{}", "oneOf"),
            (r#"{"oneOf": []}"#, "must not be empty"),
            (
                r#"{"oneOf": [{"type": "object", "properties": {}, "required": [], "additionalProperties": false}]}"#,
                "no \"event\" const",
            ),
            (
                r#"{"oneOf": [{"type": "object", "properties": {"event": {"const": "x"}, "n": {"type": "number"}}, "required": [], "additionalProperties": false}]}"#,
                "unsupported type",
            ),
            (
                r#"{"oneOf": [{"type": "object", "properties": {"event": {"const": "x"}}, "required": ["ghost"], "additionalProperties": false}]}"#,
                "not declared in properties",
            ),
        ] {
            let err = Schema::from_str(doc).unwrap_err().to_string();
            assert!(err.contains(needle), "schema {doc:?} gave: {err}");
        }
    }

    #[test]
    fn validate_lines_counts_and_reports_line_numbers() {
        let schema = mini_schema();
        let ok = "{\"event\":\"ping\",\"pass\":1}\n\n{\"event\":\"ping\",\"pass\":2}\n";
        let counts = validate_lines(&schema, ok).unwrap();
        assert_eq!(counts, vec![("ping".to_string(), 2)]);

        let bad = "{\"event\":\"ping\",\"pass\":1}\n{\"event\":\"ping\"}\n";
        let (line, _) = validate_lines(&schema, bad).unwrap_err();
        assert_eq!(line, 2);
    }

    /// The real schema file must accept every event the crate can emit —
    /// this is the drift guard the CI job builds on.
    #[test]
    fn checked_in_schema_accepts_all_event_variants() {
        let text = include_str!("../../../schemas/trace_events.schema.json");
        let schema = Schema::from_str(text).expect("checked-in schema compiles");
        let events = [
            TraceEvent::RunStarted {
                rows: 10,
                attributes: 3,
                min_count: 2,
                max_count: 5,
                parallelism: 2,
            },
            TraceEvent::PassStarted {
                pass: 1,
                candidates: 0,
            },
            TraceEvent::PassFinished {
                pass: 2,
                candidates: 9,
                frequent: 4,
                pruned: 1,
                super_candidates: 2,
                array_backed: 1,
                rtree_backed: 1,
                hash_tree_nodes: 3,
                counter_bytes: 512,
                scan_us: 40,
                merge_us: 2,
                shard_scan_us: vec![20, 19],
                pooled: true,
                kernel: "direct".to_string(),
            },
            TraceEvent::RunFinished {
                passes: 2,
                frequent_total: 11,
                elapsed_us: 99,
            },
            TraceEvent::Cancelled {
                pass: 2,
                deadline: false,
            },
            TraceEvent::CatalogSaved {
                rules: 7,
                bytes: 2048,
                elapsed_us: 120,
            },
            TraceEvent::CatalogLoaded {
                rules: 7,
                bytes: 2048,
                elapsed_us: 80,
            },
            TraceEvent::IndexBuilt {
                rules: 7,
                posting_entries: 12,
                interval_entries: 5,
                elapsed_us: 33,
            },
            TraceEvent::ServerStarted {
                port: 7979,
                threads: 4,
                catalogs: 1,
            },
            TraceEvent::ConnectionOpened { conn: 1 },
            TraceEvent::ConnectionClosed {
                conn: 1,
                requests: 9,
            },
            TraceEvent::RequestServed {
                conn: 1,
                kind: "point".into(),
                ok: true,
                items: 1,
                results: 4,
                elapsed_us: 12,
            },
            TraceEvent::AnalyticsComputed {
                rules: 7,
                shapley_samples: 64,
                elapsed_us: 900,
            },
            TraceEvent::WorkerJoined {
                worker: 0,
                addr: "127.0.0.1:5001".into(),
                rows: 500,
            },
            TraceEvent::PassMerged {
                pass: 2,
                workers: 2,
                candidates: 9,
                elapsed_us: 70,
            },
            TraceEvent::WorkerLost {
                worker: 1,
                pass: 3,
                detail: "connection reset".into(),
            },
            TraceEvent::CountsSaved {
                passes: 3,
                itemsets: 120,
                bytes: 4096,
            },
            TraceEvent::CountsLoaded {
                passes: 3,
                itemsets: 120,
                rows: 500,
            },
            TraceEvent::IncrementalUpdate {
                base_rows: 500,
                delta_rows: 5,
                total_rows: 505,
                passes: 3,
                elapsed_us: 800,
            },
            TraceEvent::IncrementalFallback {
                reason: "encoding fingerprint mismatch".into(),
            },
            TraceEvent::CatalogReloaded {
                catalog: "planted".into(),
                generation: 2,
                rules: 7,
                elapsed_us: 450,
            },
        ];
        for event in events {
            schema
                .validate_line(&event.to_json())
                .unwrap_or_else(|e| panic!("{}: {e}", event.name()));
        }
        assert_eq!(schema.event_names().len(), 21);
    }
}

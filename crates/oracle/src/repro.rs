//! Self-contained text fixtures for minimized repro cases.
//!
//! A fixture is plain text: `#` comment lines (the divergence that
//! produced it), `key value` lines, and — for mining cases — a `table`
//! line followed by the table itself as CSV to end of input. Floats are
//! written with Rust's shortest-round-trip `Display`, so every value
//! (including the adversarial ulp-neighborhood ones) parses back
//! bit-exactly.
//!
//! ```text
//! # [miner-vs-naive] itemsets only the left side found: ...
//! kind mining
//! threads 2
//! schema a0:quant,a1:cat
//! min_support 0.25
//! min_confidence 0
//! max_support 1
//! partitioning completeness 1.5
//! strategy equi-depth
//! interest and 2 prune
//! max_itemset_size 0
//! table
//! a0,a1
//! 1.5,x
//! ```
//!
//! A case with taxonomies adds one `taxonomies` line before `table`:
//! `taxonomies a1:x>g0,y>g0` (per attribute, its `child>parent` edges).

use crate::case::{IncrementalCase, IntervalsCase, MiningCase, PartitionCase, ReproCase, SnapCase};
use qar_core::{InterestConfig, InterestMode, MinerConfig, PartitionSpec, PartitionStrategy};
use qar_table::{csv, Schema, Taxonomy};
use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;

/// A malformed fixture (bad key, bad number, bad CSV).
#[derive(Debug)]
pub struct ReproError(pub String);

impl fmt::Display for ReproError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad repro fixture: {}", self.0)
    }
}

impl std::error::Error for ReproError {}

fn err(message: String) -> ReproError {
    ReproError(message)
}

fn strategy_name(strategy: PartitionStrategy) -> &'static str {
    match strategy {
        PartitionStrategy::EquiDepth => "equi-depth",
        PartitionStrategy::EquiWidth => "equi-width",
        PartitionStrategy::KMeans => "kmeans",
    }
}

fn parse_strategy(name: &str) -> Result<PartitionStrategy, ReproError> {
    match name {
        "equi-depth" => Ok(PartitionStrategy::EquiDepth),
        "equi-width" => Ok(PartitionStrategy::EquiWidth),
        "kmeans" => Ok(PartitionStrategy::KMeans),
        other => Err(err(format!("unknown strategy `{other}`"))),
    }
}

/// Render `case` as a fixture, with `divergence` as the leading comment.
pub fn serialize(case: &ReproCase, divergence: &str) -> String {
    let mut out = String::new();
    for line in divergence.lines() {
        let _ = writeln!(out, "# {line}");
    }
    let _ = writeln!(out, "kind {}", case.kind());
    match case {
        ReproCase::Mining(c)
        | ReproCase::Kernel(c)
        | ReproCase::Analytics(c)
        | ReproCase::Distributed(c) => serialize_mining_body(&mut out, c),
        ReproCase::Incremental(inc) => {
            let _ = writeln!(out, "cut {}", inc.cut);
            serialize_mining_body(&mut out, &inc.case);
        }
        ReproCase::Partition(c) => {
            let _ = writeln!(out, "strategy {}", strategy_name(c.strategy));
            let _ = writeln!(out, "k {}", c.k);
            let values: Vec<String> = c.values.iter().map(|v| format!("{v}")).collect();
            let _ = writeln!(out, "values {}", values.join(" "));
        }
        ReproCase::Snap(c) => {
            let _ = writeln!(out, "lo {}", c.lo);
            let _ = writeln!(out, "hi {}", c.hi);
            let _ = writeln!(out, "origin {}", c.origin);
            let _ = writeln!(out, "w {}", c.w);
        }
        ReproCase::Intervals(c) => {
            let _ = writeln!(out, "num_quantitative {}", c.num_quantitative);
            let _ = writeln!(out, "minsup {}", c.minsup);
            let _ = writeln!(out, "level {}", c.level);
        }
    }
    out
}

/// The shared body of every mining-shaped fixture: threads, schema,
/// configuration, then the table as CSV to end of input.
fn serialize_mining_body(out: &mut String, c: &MiningCase) {
    let _ = writeln!(out, "threads {}", c.threads);
    let schema_spec: Vec<String> = c
        .table
        .schema()
        .attributes()
        .iter()
        .map(|def| {
            let kind = if def.kind() == qar_table::AttributeKind::Quantitative {
                "quant"
            } else {
                "cat"
            };
            format!("{}:{kind}", def.name())
        })
        .collect();
    let _ = writeln!(out, "schema {}", schema_spec.join(","));
    let _ = writeln!(out, "min_support {}", c.config.min_support);
    let _ = writeln!(out, "min_confidence {}", c.config.min_confidence);
    let _ = writeln!(out, "max_support {}", c.config.max_support);
    match &c.config.partitioning {
        PartitionSpec::None => {
            let _ = writeln!(out, "partitioning none");
        }
        PartitionSpec::CompletenessLevel(level) => {
            let _ = writeln!(out, "partitioning completeness {level}");
        }
        PartitionSpec::FixedIntervals(n) => {
            let _ = writeln!(out, "partitioning fixed {n}");
        }
        // Never generated by the fuzzer; degrade gracefully.
        PartitionSpec::PerAttribute(_) => {
            let _ = writeln!(out, "partitioning none");
        }
    }
    let _ = writeln!(
        out,
        "strategy {}",
        strategy_name(c.config.partition_strategy)
    );
    match &c.config.interest {
        None => {
            let _ = writeln!(out, "interest none");
        }
        Some(i) => {
            let mode = match i.mode {
                InterestMode::SupportAndConfidence => "and",
                InterestMode::SupportOrConfidence => "or",
            };
            let prune = if i.prune_candidates {
                "prune"
            } else {
                "noprune"
            };
            let _ = writeln!(out, "interest {mode} {} {prune}", i.level);
        }
    }
    let _ = writeln!(out, "max_itemset_size {}", c.config.max_itemset_size);
    if !c.config.taxonomies.is_empty() {
        let taxonomies: Vec<String> = c
            .config
            .taxonomies
            .iter()
            .map(|(attr, taxonomy)| {
                let edges: Vec<String> = taxonomy
                    .edges()
                    .map(|(child, parent)| format!("{child}>{parent}"))
                    .collect();
                format!("{attr}:{}", edges.join(","))
            })
            .collect();
        let _ = writeln!(out, "taxonomies {}", taxonomies.join(" "));
    }
    let _ = writeln!(out, "table");
    let mut bytes = Vec::new();
    csv::write_table(&mut bytes, &c.table).expect("in-memory CSV write cannot fail");
    out.push_str(&String::from_utf8(bytes).expect("CSV output is UTF-8"));
}

/// Parse a fixture back into a case.
pub fn parse(text: &str) -> Result<ReproCase, ReproError> {
    let mut fields: BTreeMap<&str, &str> = BTreeMap::new();
    let mut table_body = String::new();
    let mut in_table = false;
    for line in text.lines() {
        if in_table {
            table_body.push_str(line);
            table_body.push('\n');
            continue;
        }
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        if trimmed == "table" {
            in_table = true;
            continue;
        }
        let (key, value) = trimmed
            .split_once(' ')
            .ok_or_else(|| err(format!("expected `key value`, got `{trimmed}`")))?;
        fields.insert(key, value.trim());
    }
    let get = |key: &str| -> Result<&str, ReproError> {
        fields
            .get(key)
            .copied()
            .ok_or_else(|| err(format!("missing key `{key}`")))
    };
    match get("kind")? {
        kind @ ("mining" | "kernel" | "analytics" | "distributed" | "incremental") => {
            let schema = parse_schema(get("schema")?)?;
            let table = csv::read_table(table_body.as_bytes(), &schema)
                .map_err(|e| err(format!("bad CSV table: {e}")))?;
            let partitioning = {
                let words: Vec<&str> = get("partitioning")?.split_whitespace().collect();
                match words.as_slice() {
                    ["none"] => PartitionSpec::None,
                    ["completeness", level] => {
                        PartitionSpec::CompletenessLevel(parse_f64(level, "partitioning")?)
                    }
                    ["fixed", n] => PartitionSpec::FixedIntervals(parse_usize(n, "partitioning")?),
                    other => return Err(err(format!("bad partitioning `{other:?}`"))),
                }
            };
            let interest = {
                let words: Vec<&str> = get("interest")?.split_whitespace().collect();
                match words.as_slice() {
                    ["none"] => None,
                    [mode, level, prune] => Some(InterestConfig {
                        level: parse_f64(level, "interest level")?,
                        mode: match *mode {
                            "and" => InterestMode::SupportAndConfidence,
                            "or" => InterestMode::SupportOrConfidence,
                            other => return Err(err(format!("bad interest mode `{other}`"))),
                        },
                        prune_candidates: match *prune {
                            "prune" => true,
                            "noprune" => false,
                            other => return Err(err(format!("bad prune flag `{other}`"))),
                        },
                    }),
                    other => return Err(err(format!("bad interest `{other:?}`"))),
                }
            };
            let config = MinerConfig {
                min_support: parse_f64(get("min_support")?, "min_support")?,
                min_confidence: parse_f64(get("min_confidence")?, "min_confidence")?,
                max_support: parse_f64(get("max_support")?, "max_support")?,
                partitioning,
                partition_strategy: parse_strategy(get("strategy")?)?,
                taxonomies: fields
                    .get("taxonomies")
                    .map_or(Ok(BTreeMap::new()), |spec| parse_taxonomies(spec))?,
                interest,
                max_itemset_size: parse_usize(get("max_itemset_size")?, "max_itemset_size")?,
                parallelism: None,
            };
            let case = MiningCase {
                table,
                config,
                threads: parse_usize(get("threads")?, "threads")?,
            };
            Ok(match kind {
                "kernel" => ReproCase::Kernel(case),
                "analytics" => ReproCase::Analytics(case),
                "distributed" => ReproCase::Distributed(case),
                "incremental" => ReproCase::Incremental(IncrementalCase {
                    cut: parse_usize(get("cut")?, "cut")?,
                    case,
                }),
                _ => ReproCase::Mining(case),
            })
        }
        "partition" => {
            let values = get("values")?
                .split_whitespace()
                .map(|v| parse_f64(v, "values"))
                .collect::<Result<Vec<f64>, ReproError>>()?;
            Ok(ReproCase::Partition(PartitionCase {
                values,
                k: parse_usize(get("k")?, "k")?,
                strategy: parse_strategy(get("strategy")?)?,
            }))
        }
        "snap" => Ok(ReproCase::Snap(SnapCase {
            lo: parse_f64(get("lo")?, "lo")?,
            hi: parse_f64(get("hi")?, "hi")?,
            origin: parse_f64(get("origin")?, "origin")?,
            w: parse_f64(get("w")?, "w")?,
        })),
        "intervals" => Ok(ReproCase::Intervals(IntervalsCase {
            num_quantitative: parse_usize(get("num_quantitative")?, "num_quantitative")?,
            minsup: parse_f64(get("minsup")?, "minsup")?,
            level: parse_f64(get("level")?, "level")?,
        })),
        other => Err(err(format!("unknown kind `{other}`"))),
    }
}

/// Parse a `name:quant,name:cat` schema declaration. The fixture carries
/// its own schema (the CSV header has names but not kinds), so a fixture
/// file is fully self-contained.
fn parse_schema(spec: &str) -> Result<Schema, ReproError> {
    let mut builder = Schema::builder();
    for part in spec.split(',') {
        let (name, kind) = part
            .split_once(':')
            .ok_or_else(|| err(format!("expected `name:kind`, got `{part}`")))?;
        builder = match kind {
            "quant" => builder.quantitative(name),
            "cat" => builder.categorical(name),
            other => return Err(err(format!("unknown attribute kind `{other}`"))),
        };
    }
    builder.build().map_err(|e| err(format!("bad schema: {e}")))
}

/// Parse `attr:child>parent,child>parent attr2:...` taxonomies (the
/// generator's labels hold none of ` `, `:`, `,` or `>`).
fn parse_taxonomies(spec: &str) -> Result<BTreeMap<String, Taxonomy>, ReproError> {
    spec.split_whitespace()
        .map(|part| {
            let (attr, edges) = part
                .split_once(':')
                .ok_or_else(|| err(format!("expected `attr:edges`, got `{part}`")))?;
            let edges = edges
                .split(',')
                .filter(|e| !e.is_empty())
                .map(|edge| {
                    edge.split_once('>')
                        .ok_or_else(|| err(format!("expected `child>parent`, got `{edge}`")))
                })
                .collect::<Result<Vec<_>, _>>()?;
            let taxonomy =
                Taxonomy::from_edges(&edges).map_err(|e| err(format!("bad taxonomy: {e}")))?;
            Ok((attr.to_string(), taxonomy))
        })
        .collect()
}

fn parse_f64(text: &str, key: &str) -> Result<f64, ReproError> {
    text.parse()
        .map_err(|_| err(format!("bad float for `{key}`: `{text}`")))
}

fn parse_usize(text: &str, key: &str) -> Result<usize, ReproError> {
    text.parse()
        .map_err(|_| err(format!("bad integer for `{key}`: `{text}`")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qar_table::{Table, Value};

    fn sample_mining_case() -> ReproCase {
        let schema = Schema::builder()
            .quantitative("age")
            .categorical("married")
            .build()
            .unwrap();
        let mut table = Table::new(schema);
        table
            .push_row(&[Value::Float(23.5), Value::from("yes")])
            .unwrap();
        table
            .push_row(&[
                Value::Float(f64::from_bits(0x4037_0000_0000_0001)),
                Value::from("no, but"),
            ])
            .unwrap();
        ReproCase::Mining(MiningCase {
            table,
            config: MinerConfig {
                min_support: 0.5,
                min_confidence: 0.25,
                max_support: 1.0,
                partitioning: PartitionSpec::CompletenessLevel(1.0 + 1.0e-9),
                partition_strategy: PartitionStrategy::KMeans,
                taxonomies: Default::default(),
                interest: Some(InterestConfig {
                    level: 2.0,
                    mode: InterestMode::SupportAndConfidence,
                    prune_candidates: true,
                }),
                max_itemset_size: 2,
                parallelism: None,
            },
            threads: 4,
        })
    }

    /// serialize → parse → serialize is the identity on the text —
    /// the strongest round-trip statement, covering every field
    /// (including an off-grid float and a comma-containing label).
    #[test]
    fn mining_fixture_round_trips_textually() {
        let case = sample_mining_case();
        let text = serialize(&case, "[example] the divergence\nsecond line");
        assert!(text.starts_with("# [example] the divergence\n# second line\n"));
        let parsed = parse(&text).expect("own output parses");
        let again = serialize(&parsed, "[example] the divergence\nsecond line");
        assert_eq!(again, text);
    }

    /// A bitmask-kernel case carries the same body as a mining case but
    /// keeps its own kind tag through the round trip.
    #[test]
    fn kernel_fixture_round_trips_textually() {
        let ReproCase::Mining(mut inner) = sample_mining_case() else {
            unreachable!()
        };
        let taxonomy =
            qar_table::Taxonomy::from_edges(&[("yes", "g0"), ("no", "g0"), ("g0", "top")]).unwrap();
        inner.config.taxonomies = BTreeMap::from([("married".to_string(), taxonomy)]);
        let case = ReproCase::Kernel(inner);
        let text = serialize(&case, "check");
        assert!(text.contains("\nkind kernel\n"), "{text}");
        assert!(
            text.contains("\ntaxonomies married:g0>top,no>g0,yes>g0\n"),
            "{text}"
        );
        let parsed = parse(&text).expect("own output parses");
        let ReproCase::Kernel(parsed_case) = &parsed else {
            panic!("{parsed:?}")
        };
        let ReproCase::Kernel(case) = &case else {
            unreachable!()
        };
        assert_eq!(parsed_case.config.taxonomies, case.config.taxonomies);
        assert_eq!(serialize(&parsed, "check"), text);
    }

    /// And an analytics case.
    #[test]
    fn analytics_fixture_round_trips_textually() {
        let ReproCase::Mining(inner) = sample_mining_case() else {
            unreachable!()
        };
        let case = ReproCase::Analytics(inner);
        let text = serialize(&case, "check");
        assert!(text.contains("\nkind analytics\n"), "{text}");
        let parsed = parse(&text).expect("own output parses");
        assert!(matches!(parsed, ReproCase::Analytics(_)));
        assert_eq!(serialize(&parsed, "check"), text);
    }

    /// And an incremental case, which adds the cut point to the body.
    #[test]
    fn incremental_fixture_round_trips_textually() {
        let ReproCase::Mining(inner) = sample_mining_case() else {
            unreachable!()
        };
        let case = ReproCase::Incremental(IncrementalCase {
            case: inner,
            cut: 1,
        });
        let text = serialize(&case, "check");
        assert!(text.contains("\nkind incremental\n"), "{text}");
        assert!(text.contains("\ncut 1\n"), "{text}");
        let parsed = parse(&text).expect("own output parses");
        let ReproCase::Incremental(back) = &parsed else {
            panic!("kind changed in the round trip");
        };
        assert_eq!(back.cut, 1);
        assert_eq!(serialize(&parsed, "check"), text);
        // An incremental fixture without its cut is malformed.
        assert!(parse(&text.replace("\ncut 1\n", "\n")).is_err());
    }

    /// And a distributed case.
    #[test]
    fn distributed_fixture_round_trips_textually() {
        let ReproCase::Mining(inner) = sample_mining_case() else {
            unreachable!()
        };
        let case = ReproCase::Distributed(inner);
        let text = serialize(&case, "check");
        assert!(text.contains("\nkind distributed\n"), "{text}");
        let parsed = parse(&text).expect("own output parses");
        assert!(matches!(parsed, ReproCase::Distributed(_)));
        assert_eq!(serialize(&parsed, "check"), text);
    }

    /// Scalar cases round trip too, including non-finite floats.
    #[test]
    fn scalar_fixtures_round_trip() {
        for case in [
            ReproCase::Partition(PartitionCase {
                values: vec![1.0, 1.0 + f64::EPSILON, -0.0, 3.5e9],
                k: 7,
                strategy: PartitionStrategy::EquiWidth,
            }),
            ReproCase::Snap(SnapCase {
                lo: 0.07,
                hi: 0.7,
                origin: -1.0,
                w: 0.07,
            }),
            ReproCase::Intervals(IntervalsCase {
                num_quantitative: 3,
                minsup: 1.0e-9,
                level: f64::NAN,
            }),
        ] {
            let text = serialize(&case, "check");
            let again = serialize(&parse(&text).expect("parses"), "check");
            assert_eq!(again, text, "fixture text not stable for {}", case.kind());
        }
    }

    /// Malformed fixtures surface structured errors, never panics.
    #[test]
    fn malformed_fixtures_error() {
        for bad in [
            "",
            "kind mining\n",
            "kind unknown-kind\n",
            "kind snap\nlo 0\nhi x\norigin 0\nw 1\n",
            "kind partition\nstrategy sideways\nk 2\nvalues 1 2\n",
            "kind intervals\nnum_quantitative -1\nminsup 0.1\nlevel 2\n",
        ] {
            assert!(parse(bad).is_err(), "accepted malformed fixture: {bad:?}");
        }
    }
}

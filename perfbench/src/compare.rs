//! `perfbench compare A.json… -- B.json…`: the one baseline-diff check.
//!
//! Each (metric, workload) pair is judged on its own row against the
//! bound `BENCHMARK.json` fixes for the metric:
//!
//! - **improved** only with at least [`MIN_PAIRS`] alternating pairs, B
//!   winning at least nine in ten of them (ties count for neither side),
//!   and a median gap larger than A's interquartile range;
//! - **unresolved** when either side's interquartile range, as a share of
//!   its median, is wider than the bound — unless every B run beats every
//!   A run;
//! - **regressed** when B's median is worse than A's by more than the
//!   bound;
//! - **unchanged** otherwise.
//!
//! Every ratio is printed with its base (A's median and unit).

use std::collections::BTreeMap;
use std::path::Path;

use qar_trace::json::{self, Json};

use crate::report::Better;
use crate::stats::{median, quartiles, relative_iqr};

/// Pairs a gain claim needs.
pub const MIN_PAIRS: usize = 10;

/// A metric's direction and regression bound, from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Which way is better.
    pub better: Better,
    /// Share of A's median B may worsen by; `None` for per-layer metrics.
    pub bound: Option<f64>,
    /// Unit, for printing.
    pub unit: String,
}

/// The judgement on one (metric, workload) row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is better by the gain rule.
    Improved,
    /// B is worse than A by more than the bound.
    Regressed,
    /// The spread is wider than the bound; no call can be made.
    Unresolved,
    /// Within the bound, no gain claimed.
    Unchanged,
    /// A per-layer metric: reported, not judged.
    Info,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "UNRESOLVED",
            Verdict::Unchanged => "unchanged",
            Verdict::Info => "info",
        }
    }
}

/// Numbers behind a verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct Judgement {
    /// The call.
    pub verdict: Verdict,
    /// A's median.
    pub median_a: f64,
    /// B's median.
    pub median_b: f64,
    /// B's median over A's.
    pub ratio: f64,
    /// Pairs in which B was better / worse (ties count for neither).
    pub wins: usize,
    /// See `wins`.
    pub losses: usize,
    /// Pairs compared (the shorter side's length).
    pub pairs: usize,
}

/// Judge B against A for one (metric, workload) row. Samples are paired
/// by position, so runs made alternately pair up naturally.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: Option<f64>) -> Judgement {
    let (median_a, median_b) = (median(a), median(b));
    let beats = |x: f64, y: f64| match better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    let pairs = a.len().min(b.len());
    let wins = (0..pairs).filter(|&i| beats(b[i], a[i])).count();
    let losses = (0..pairs).filter(|&i| beats(a[i], b[i])).count();
    let ratio = median_b / median_a;
    let verdict = match bound {
        None => Verdict::Info,
        Some(bound) => {
            let (q1, q3) = quartiles(a);
            let gain = pairs >= MIN_PAIRS
                && wins * 10 >= 9 * pairs
                && beats(median_b, median_a)
                && (median_b - median_a).abs() > q3 - q1;
            let b_dominates = b.iter().all(|&y| a.iter().all(|&x| beats(y, x)));
            let worse_by = match better {
                Better::Lower => (median_b - median_a) / median_a.abs(),
                Better::Higher => (median_a - median_b) / median_a.abs(),
            };
            let spread = relative_iqr(a).max(relative_iqr(b));
            if gain {
                Verdict::Improved
            } else if spread > bound && !b_dominates {
                Verdict::Unresolved
            } else if worse_by > bound {
                Verdict::Regressed
            } else {
                Verdict::Unchanged
            }
        }
    };
    Judgement {
        verdict,
        median_a,
        median_b,
        ratio,
        wins,
        losses,
        pairs,
    }
}

/// Metric directions and bounds from a `BENCHMARK.json` document.
pub fn bounds_from_spec(spec: &Json) -> Result<BTreeMap<String, Bound>, String> {
    let mut out = BTreeMap::new();
    for (section, bounded) in [("end_to_end", true), ("per_layer", false)] {
        let list = spec
            .as_object()
            .and_then(|o| o.get(section))
            .and_then(Json::as_array)
            .ok_or_else(|| format!("BENCHMARK.json has no `{section}` list"))?;
        for m in list {
            let field = |k: &str| m.as_object().and_then(|o| o.get(k));
            let name = field("name")
                .and_then(Json::as_str)
                .ok_or("metric without a name")?;
            let better = field("better")
                .and_then(Json::as_str)
                .and_then(Better::parse)
                .ok_or_else(|| format!("metric `{name}` has no valid `better`"))?;
            let bound = match field("bound") {
                Some(Json::Num(b)) if bounded => Some(*b),
                _ if bounded => return Err(format!("metric `{name}` has no bound")),
                _ => None,
            };
            let unit = field("unit")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string();
            out.insert(
                name.to_string(),
                Bound {
                    better,
                    bound,
                    unit,
                },
            );
        }
    }
    Ok(out)
}

/// `(workload, metric) → samples` over result documents: a single
/// workload result (`{"workload": …, "metrics": …}`) or a full run
/// (`{"results": [ … ]}`).
pub fn collect_samples(docs: &[Json]) -> BTreeMap<(String, String), Vec<f64>> {
    let mut out: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    let mut add = |result: &Json| {
        let Some(fields) = result.as_object() else {
            return;
        };
        let workload = fields.get("workload").and_then(Json::as_str).unwrap_or("?");
        let Some(metrics) = fields.get("metrics").and_then(Json::as_object) else {
            return;
        };
        for (name, entry) in metrics {
            let value = match entry {
                Json::Num(v) => Some(*v),
                Json::Obj(o) => match o.get("value") {
                    Some(Json::Num(v)) => Some(*v),
                    _ => None,
                },
                _ => None,
            };
            if let Some(v) = value {
                out.entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(v);
            }
        }
    };
    for doc in docs {
        match doc
            .as_object()
            .and_then(|o| o.get("results"))
            .and_then(Json::as_array)
        {
            Some(results) => results.iter().for_each(&mut add),
            None => add(doc),
        }
    }
    out
}

/// Read and parse JSON files.
pub fn read_docs(paths: &[String]) -> Result<Vec<Json>, String> {
    paths
        .iter()
        .map(|p| {
            let text = std::fs::read_to_string(p).map_err(|e| format!("cannot read `{p}`: {e}"))?;
            json::parse(&text).map_err(|e| format!("`{p}`: {e}"))
        })
        .collect()
}

/// Compare result files `a` against `b` under the bounds in `spec_path`,
/// printing one row per (workload, metric). Returns the number of rows
/// that regressed or are unresolved.
pub fn run(spec_path: &Path, a: &[String], b: &[String]) -> Result<usize, String> {
    let spec_text = std::fs::read_to_string(spec_path)
        .map_err(|e| format!("cannot read `{}`: {e}", spec_path.display()))?;
    let spec = json::parse(&spec_text).map_err(|e| e.to_string())?;
    let bounds = bounds_from_spec(&spec)?;
    let (sa, sb) = (
        collect_samples(&read_docs(a)?),
        collect_samples(&read_docs(b)?),
    );
    let mut bad = 0;
    println!(
        "{:<22} {:<36} {:>13} {:>13} {:>8} {:>9}  verdict",
        "workload", "metric", "A median", "B median", "B/A", "wins"
    );
    for ((workload, metric), xs) in &sa {
        let (Some(ys), Some(bound)) = (
            sb.get(&(workload.clone(), metric.clone())),
            bounds.get(metric),
        ) else {
            continue;
        };
        let j = judge(xs, ys, bound.better, bound.bound);
        if matches!(j.verdict, Verdict::Regressed | Verdict::Unresolved) {
            bad += 1;
        }
        let (q1, q3) = quartiles(xs);
        println!(
            "{workload:<22} {metric:<36} {:>13.6} {:>13.6} {:>8.4} {:>4}/{:<4}  {}  \
             (base A = {:.6} {} over {} runs, IQR {:.6}..{:.6}; B over {} runs{})",
            j.median_a,
            j.median_b,
            j.ratio,
            j.wins,
            j.pairs,
            j.verdict.label(),
            j.median_a,
            bound.unit,
            xs.len(),
            q1,
            q3,
            ys.len(),
            bound
                .bound
                .map_or(String::new(), |b| format!(", bound {:.0}%", b * 100.0)),
        );
    }
    Ok(bad)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn steady(center: f64, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| center * (1.0 + 0.002 * (i % 3) as f64))
            .collect()
    }

    #[test]
    fn a_clear_win_needs_ten_pairs() {
        let a = steady(100.0, 10);
        let b = steady(80.0, 10);
        let j = judge(&a, &b, Better::Lower, Some(0.05));
        assert_eq!(j.verdict, Verdict::Improved);
        assert_eq!((j.wins, j.pairs), (10, 10));
        assert!((j.ratio - 0.8).abs() < 1e-9);
        // The same gap over five pairs is not a claim, and not a regression.
        let j5 = judge(&a[..5], &b[..5], Better::Lower, Some(0.05));
        assert_eq!(j5.verdict, Verdict::Unchanged);
    }

    #[test]
    fn a_regression_beyond_the_bound() {
        let a = steady(100.0, 6);
        let b = steady(112.0, 6);
        assert_eq!(
            judge(&a, &b, Better::Lower, Some(0.10)).verdict,
            Verdict::Regressed
        );
        assert_eq!(
            judge(&a, &b, Better::Lower, Some(0.15)).verdict,
            Verdict::Unchanged
        );
        // Higher-is-better metrics regress downwards.
        assert_eq!(
            judge(&b, &a, Better::Higher, Some(0.05)).verdict,
            Verdict::Regressed
        );
    }

    #[test]
    fn wide_spread_is_unresolved_unless_b_dominates() {
        let a = vec![100.0, 70.0, 130.0, 90.0, 115.0, 85.0];
        let b = vec![104.0, 75.0, 128.0, 96.0, 110.0, 92.0];
        assert_eq!(
            judge(&a, &b, Better::Lower, Some(0.05)).verdict,
            Verdict::Unresolved
        );
        let dominated = vec![60.0, 61.0, 62.0, 63.0, 64.0, 65.0];
        assert_ne!(
            judge(&a, &dominated, Better::Lower, Some(0.05)).verdict,
            Verdict::Unresolved
        );
    }

    #[test]
    fn ties_count_for_neither_side() {
        let a = vec![5.0; 12];
        let j = judge(&a, &a, Better::Lower, Some(0.05));
        assert_eq!(j.verdict, Verdict::Unchanged);
        assert_eq!((j.wins, j.losses, j.pairs), (0, 0, 12));
        // Nine wins and three ties out of twelve is below nine in ten.
        let mut b = a.clone();
        for x in b.iter_mut().take(9) {
            *x = 4.0;
        }
        assert_eq!(
            judge(&a, &b, Better::Lower, Some(0.5)).verdict,
            Verdict::Unchanged
        );
    }

    #[test]
    fn samples_come_from_either_document_shape() {
        let single =
            json::parse(r#"{"workload":"w","metrics":{"setup_s":{"value":1.5,"unit":"s"}}}"#)
                .unwrap();
        let run = json::parse(
            r#"{"results":[{"workload":"w","metrics":{"setup_s":{"value":2.5,"unit":"s"}}},
                           {"workload":"v","metrics":{"setup_s":{"value":9,"unit":"s"}}}]}"#,
        )
        .unwrap();
        let samples = collect_samples(&[single, run]);
        assert_eq!(samples[&("w".into(), "setup_s".into())], vec![1.5, 2.5]);
        assert_eq!(samples[&("v".into(), "setup_s".into())], vec![9.0]);
    }

    #[test]
    fn bounds_parse_from_the_spec_shape() {
        let spec = json::parse(
            r#"{"end_to_end":[{"name":"setup_s","unit":"s","better":"lower","bound":0.2}],
                "per_layer":[{"name":"x","unit":"s","better":"lower"}]}"#,
        )
        .unwrap();
        let bounds = bounds_from_spec(&spec).unwrap();
        assert_eq!(bounds["setup_s"].bound, Some(0.2));
        assert_eq!(bounds["x"].bound, None);
    }
}

//! The in-memory query engine over a catalog's rules.
//!
//! [`RuleIndex`] answers three query shapes without scanning the ruleset:
//!
//! * **Point** ([`RuleIndex::query_record`]): which rules *fire* for a
//!   record — every antecedent item matched by the record's code on that
//!   attribute. Exact (single-code) antecedent items live in per-code
//!   posting lists; range items live in a per-attribute sorted interval
//!   list over code space, which code `c` queries as the range `[c, c]`.
//!   A per-rule match counter turns the union of lookups into "all
//!   antecedent items matched".
//! * **Overlap** ([`RuleIndex::query_range`]): which rules *mention* a
//!   value range on a quantitative attribute, on either side of the
//!   arrow. These interval lists are built in raw value space (via
//!   [`AttributeEncoder::numeric_bounds`]) so a query range that falls
//!   between observed values still hits the enclosing intervals.
//! * **Top-k** ([`RuleIndex::top_k`], [`RuleIndex::rank`]): rules by
//!   support, confidence, or interest verdict, precomputed once.
//!
//! Rule ids are indices into [`Catalog::rules`], so every query result
//! can be decoded and rendered through the catalog.

use crate::catalog::Catalog;
use qar_table::AttributeEncoder;
use qar_trace::{event::micros, ProgressSink, TraceEvent};
use std::time::Instant;

/// Ranking metric for [`RuleIndex::top_k`] and [`RuleIndex::rank`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RankBy {
    /// Support count, descending.
    Support,
    /// Confidence, descending.
    Confidence,
    /// Interesting rules first (per the catalog's verdicts), then by
    /// confidence. Falls back to confidence order when the catalog has
    /// no interest verdicts.
    Interest,
    /// Lift, descending. Needs the catalog's analytics section.
    Lift,
    /// Conviction, descending. Needs analytics.
    Conviction,
    /// Chi-square statistic, descending (equivalently: raw p-value,
    /// ascending). Needs analytics.
    Chi2,
    /// J-measure, descending. Needs analytics.
    JMeasure,
}

impl RankBy {
    /// Does this ranking read the catalog's analytics section? Callers
    /// (CLI, serve) reject such rankings up front on catalogs without
    /// one, pointing at `qar analyze`.
    pub fn needs_analytics(&self) -> bool {
        matches!(
            self,
            RankBy::Lift | RankBy::Conviction | RankBy::Chi2 | RankBy::JMeasure
        )
    }
}

impl std::str::FromStr for RankBy {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "support" => Ok(RankBy::Support),
            "confidence" => Ok(RankBy::Confidence),
            "interest" => Ok(RankBy::Interest),
            "lift" => Ok(RankBy::Lift),
            "conviction" => Ok(RankBy::Conviction),
            "chi2" => Ok(RankBy::Chi2),
            "jmeasure" => Ok(RankBy::JMeasure),
            other => Err(format!(
                "unknown ranking '{other}' (expected support, confidence, interest, \
                 lift, conviction, chi2, or jmeasure)"
            )),
        }
    }
}

impl std::fmt::Display for RankBy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            RankBy::Support => "support",
            RankBy::Confidence => "confidence",
            RankBy::Interest => "interest",
            RankBy::Lift => "lift",
            RankBy::Conviction => "conviction",
            RankBy::Chi2 => "chi2",
            RankBy::JMeasure => "jmeasure",
        })
    }
}

/// Requested an analytics-backed ranking or filter on a catalog without
/// an analytics section. The fix is `qar analyze` (backfill) or mining
/// with `--analytics`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnalyticsUnavailable;

impl std::fmt::Display for AnalyticsUnavailable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(
            "catalog has no analytics section; backfill it with `qar analyze` \
             or mine with `--analytics`",
        )
    }
}

impl std::error::Error for AnalyticsUnavailable {}

/// Interval-indexed view of one catalog's rules. Build once with
/// [`RuleIndex::build`], query many times.
pub struct RuleIndex {
    /// Antecedent length per rule — the match-count target.
    ant_len: Vec<u32>,
    /// `postings[attr][code]` → rules whose antecedent has the exact
    /// item `⟨attr, code⟩`.
    postings: Vec<Vec<Vec<u32>>>,
    /// Per-attribute intervals in *code* space for antecedent range
    /// items (`lo < hi`).
    point_lists: Vec<IntervalList>,
    /// Per-attribute intervals in *value* space for every item
    /// (antecedent and consequent) with numeric bounds.
    mention_lists: Vec<IntervalList>,
    /// Rule ids in descending order per metric.
    by_support: Vec<u32>,
    by_confidence: Vec<u32>,
    by_interest: Vec<u32>,
    /// Analytics-backed orders and per-rule `(lift, p_adjusted)` filter
    /// values; `None` when the catalog has no analytics section.
    analytics: Option<AnalyticsOrders>,
}

/// The analytics-derived part of the index.
struct AnalyticsOrders {
    by_lift: Vec<u32>,
    by_conviction: Vec<u32>,
    by_chi2: Vec<u32>,
    by_jmeasure: Vec<u32>,
    /// Per-rule `(lift, p_adjusted)` for [`RuleIndex::filter_analytics`].
    filter_values: Vec<(f64, f64)>,
}

impl RuleIndex {
    /// Index `catalog`'s rules, reporting a [`TraceEvent::IndexBuilt`]
    /// to `sink`.
    pub fn build(catalog: &Catalog, sink: Option<&dyn ProgressSink>) -> Self {
        let start = Instant::now();
        let num_attrs = catalog.schema().len();
        let rules = catalog.rules();

        let mut postings: Vec<Vec<Vec<u32>>> = catalog
            .encoders()
            .iter()
            .map(|e| vec![Vec::new(); e.cardinality() as usize])
            .collect();
        let mut point_items: Vec<Vec<(f64, f64, u32)>> = vec![Vec::new(); num_attrs];
        let mut mention_items: Vec<Vec<(f64, f64, u32)>> = vec![Vec::new(); num_attrs];
        let mut ant_len = Vec::with_capacity(rules.len());
        let mut posting_entries = 0usize;

        for (id, rule) in rules.iter().enumerate() {
            let id = id as u32;
            ant_len.push(rule.antecedent.items().len() as u32);
            for item in rule.antecedent.items() {
                if item.lo == item.hi {
                    postings[item.attr as usize][item.lo as usize].push(id);
                    posting_entries += 1;
                } else {
                    point_items[item.attr as usize].push((item.lo as f64, item.hi as f64, id));
                }
            }
            for item in rule
                .antecedent
                .items()
                .iter()
                .chain(rule.consequent.items())
            {
                let enc = &catalog.encoders()[item.attr as usize];
                if let Some((lo, hi)) = enc.numeric_bounds(item.lo, item.hi) {
                    mention_items[item.attr as usize].push((lo, hi, id));
                }
            }
        }

        let interval_entries = point_items.iter().map(Vec::len).sum::<usize>()
            + mention_items.iter().map(Vec::len).sum::<usize>();
        let point_lists = point_items.into_iter().map(IntervalList::new).collect();
        let mention_lists = mention_items.into_iter().map(IntervalList::new).collect();

        let ids = || (0..rules.len() as u32).collect::<Vec<u32>>();
        let mut by_support = ids();
        by_support.sort_by(|&a, &b| {
            let (ra, rb) = (&rules[a as usize], &rules[b as usize]);
            rb.support.cmp(&ra.support).then(a.cmp(&b))
        });
        let mut by_confidence = ids();
        by_confidence.sort_by(|&a, &b| {
            let (ra, rb) = (&rules[a as usize], &rules[b as usize]);
            rb.confidence
                .total_cmp(&ra.confidence)
                .then(rb.support.cmp(&ra.support))
                .then(a.cmp(&b))
        });
        let mut by_interest = ids();
        by_interest.sort_by(|&a, &b| {
            let interesting = |i: u32| catalog.interest().is_none_or(|v| v[i as usize].interesting);
            let (ra, rb) = (&rules[a as usize], &rules[b as usize]);
            interesting(b)
                .cmp(&interesting(a))
                .then(rb.confidence.total_cmp(&ra.confidence))
                .then(rb.support.cmp(&ra.support))
                .then(a.cmp(&b))
        });

        // Analytics orders: metric descending (NaN sorts last via
        // total_cmp descending), then support descending, then id — the
        // same tie-break discipline as the confidence order.
        let analytics = catalog.analytics().map(|set| {
            let metric_order = |metric: fn(&qar_analytics::RuleAnalytics) -> f64| {
                let mut o = ids();
                o.sort_by(|&a, &b| {
                    let (ma, mb) = (
                        metric(&set.rules[a as usize]),
                        metric(&set.rules[b as usize]),
                    );
                    let (ra, rb) = (&rules[a as usize], &rules[b as usize]);
                    mb.total_cmp(&ma)
                        .then(rb.support.cmp(&ra.support))
                        .then(a.cmp(&b))
                });
                o
            };
            AnalyticsOrders {
                by_lift: metric_order(|r| r.lift),
                by_conviction: metric_order(|r| r.conviction),
                by_chi2: metric_order(|r| r.chi2),
                by_jmeasure: metric_order(|r| r.jmeasure),
                filter_values: set.rules.iter().map(|r| (r.lift, r.p_adjusted)).collect(),
            }
        });

        let index = RuleIndex {
            ant_len,
            postings,
            point_lists,
            mention_lists,
            by_support,
            by_confidence,
            by_interest,
            analytics,
        };
        if let Some(sink) = sink {
            sink.on_event(&TraceEvent::IndexBuilt {
                rules: rules.len(),
                posting_entries,
                interval_entries,
                elapsed_us: micros(start.elapsed()),
            });
        }
        index
    }

    /// Rules indexed.
    pub fn num_rules(&self) -> usize {
        self.ant_len.len()
    }

    /// Rules that fire for a record given as `(attribute id, code)`
    /// pairs: every antecedent item's attribute is present and its code
    /// range contains the record's code. Returns ascending rule ids.
    ///
    /// Attributes the record does not supply simply fail any rule that
    /// requires them; duplicate attributes keep the first occurrence;
    /// unknown attributes and out-of-range codes match nothing.
    pub fn query_record(&self, record: &[(u32, u32)]) -> Vec<u32> {
        let mut matches = vec![0u32; self.num_rules()];
        let mut seen = vec![false; self.postings.len()];
        for &(attr, code) in record {
            let Some(seen_slot) = seen.get_mut(attr as usize) else {
                continue;
            };
            if std::mem::replace(seen_slot, true) {
                continue;
            }
            if let Some(ids) = self.postings[attr as usize].get(code as usize) {
                for &id in ids {
                    matches[id as usize] += 1;
                }
            }
            let code = code as f64;
            self.point_lists[attr as usize].overlapping(code, code, |id| matches[id as usize] += 1);
        }
        matches
            .iter()
            .enumerate()
            .filter(|&(id, &m)| m == self.ant_len[id])
            .map(|(id, _)| id as u32)
            .collect()
    }

    /// Rules mentioning a value range `[lo, hi]` on a quantitative
    /// attribute (either rule side, bounds inclusive, in raw value
    /// space). Returns ascending rule ids; empty for unknown/categorical
    /// attributes or an empty range (`lo > hi`).
    pub fn query_range(&self, attr: u32, lo: f64, hi: f64) -> Vec<u32> {
        let Some(list) = self.mention_lists.get(attr as usize) else {
            return Vec::new();
        };
        if lo > hi || lo.is_nan() || hi.is_nan() {
            return Vec::new();
        }
        let mut ids = Vec::new();
        list.overlapping(lo, hi, |id| ids.push(id));
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// The first `k` rule ids under `by` (all of them when
    /// `k >= num_rules`).
    pub fn top_k(&self, by: RankBy, k: usize) -> Vec<u32> {
        let order = self.order(by);
        order[..k.min(order.len())].to_vec()
    }

    /// Sort `ids` into the `by` ranking (e.g. to rank the result of a
    /// point or overlap query).
    pub fn rank(&self, ids: &mut [u32], by: RankBy) {
        let order = self.order(by);
        let mut pos = vec![u32::MAX; self.num_rules()];
        for (p, &id) in order.iter().enumerate() {
            pos[id as usize] = p as u32;
        }
        ids.sort_by_key(|&id| pos.get(id as usize).copied().unwrap_or(u32::MAX));
    }

    /// Whether analytics-backed rankings and filters are available (the
    /// indexed catalog carried an `ANALYTICS` section).
    pub fn has_analytics(&self) -> bool {
        self.analytics.is_some()
    }

    /// Drop the rule ids failing the analytics filters: keep rules with
    /// `lift >= min_lift` and `p_adjusted <= max_p` (NaN fails either
    /// test). No-op when both filters are `None`; errors when a filter is
    /// requested but the catalog has no analytics.
    pub fn filter_analytics(
        &self,
        ids: &mut Vec<u32>,
        min_lift: Option<f64>,
        max_p: Option<f64>,
    ) -> Result<(), AnalyticsUnavailable> {
        if min_lift.is_none() && max_p.is_none() {
            return Ok(());
        }
        let Some(analytics) = &self.analytics else {
            return Err(AnalyticsUnavailable);
        };
        ids.retain(|&id| {
            let (lift, p_adjusted) = analytics.filter_values[id as usize];
            min_lift.is_none_or(|min| lift >= min) && max_p.is_none_or(|max| p_adjusted <= max)
        });
        Ok(())
    }

    /// The precomputed order for `by`. Analytics rankings on a catalog
    /// without analytics fall back to support order — entry points
    /// (CLI, serve) reject that combination before getting here, via
    /// [`RankBy::needs_analytics`] and [`RuleIndex::has_analytics`].
    fn order(&self, by: RankBy) -> &[u32] {
        let analytics_order = |pick: fn(&AnalyticsOrders) -> &Vec<u32>| {
            self.analytics
                .as_ref()
                .map(pick)
                .map_or(&self.by_support[..], Vec::as_slice)
        };
        match by {
            RankBy::Support => &self.by_support,
            RankBy::Confidence => &self.by_confidence,
            RankBy::Interest => &self.by_interest,
            RankBy::Lift => analytics_order(|a| &a.by_lift),
            RankBy::Conviction => analytics_order(|a| &a.by_conviction),
            RankBy::Chi2 => analytics_order(|a| &a.by_chi2),
            RankBy::JMeasure => analytics_order(|a| &a.by_jmeasure),
        }
    }
}

/// One attribute's inclusive `(lo, hi, rule id)` intervals sorted by
/// `lo`, each item once: expanding ranges into per-code postings would
/// cost the sum of their widths, unbounded under `--no-partition`.
struct IntervalList {
    items: Vec<(f64, f64, u32)>,
    /// `reach[i]` is the largest `hi` in `items[..=i]`.
    reach: Vec<f64>,
}

impl IntervalList {
    fn new(mut items: Vec<(f64, f64, u32)>) -> Self {
        items.sort_unstable_by(|x, y| x.0.total_cmp(&y.0));
        let mut reach: Vec<f64> = items.iter().map(|&(_, hi, _)| hi).collect();
        for i in 1..reach.len() {
            reach[i] = reach[i].max(reach[i - 1]);
        }
        IntervalList { items, reach }
    }

    /// Calls `hit` with the rule id of every interval meeting `[a, b]`;
    /// none reaches `a` before `start`, and none begins by `b` from `end`.
    fn overlapping(&self, a: f64, b: f64, mut hit: impl FnMut(u32)) {
        let start = self.reach.partition_point(|&r| r < a);
        let end = self.items.partition_point(|&(lo, _, _)| lo <= b);
        for &(_, hi, id) in self.items.get(start..end).unwrap_or_default() {
            if hi >= a {
                hit(id);
            }
        }
    }
}

/// Naive reference for [`RuleIndex::query_record`]: linear scan over all
/// rules checking antecedent coverage item by item. The property tests
/// assert the index returns exactly this.
pub fn naive_query_record(catalog: &Catalog, record: &[(u32, u32)]) -> Vec<u32> {
    let mut seen: Vec<(u32, u32)> = Vec::new();
    for &(attr, code) in record {
        if !seen.iter().any(|&(a, _)| a == attr) {
            seen.push((attr, code));
        }
    }
    catalog
        .rules()
        .iter()
        .enumerate()
        .filter(|(_, rule)| {
            rule.antecedent.items().iter().all(|item| {
                seen.iter()
                    .any(|&(attr, code)| attr == item.attr && item.matches(code))
            })
        })
        .map(|(id, _)| id as u32)
        .collect()
}

/// Naive reference for [`RuleIndex::query_range`]: linear scan over all
/// items of all rules, intersecting numeric bounds.
pub fn naive_query_range(catalog: &Catalog, attr: u32, lo: f64, hi: f64) -> Vec<u32> {
    if lo > hi || lo.is_nan() || hi.is_nan() {
        return Vec::new();
    }
    let encoders = catalog.encoders();
    let enc: &AttributeEncoder = match encoders.get(attr as usize) {
        Some(e) => e,
        None => return Vec::new(),
    };
    catalog
        .rules()
        .iter()
        .enumerate()
        .filter(|(_, rule)| {
            rule.antecedent
                .items()
                .iter()
                .chain(rule.consequent.items())
                .any(|item| {
                    item.attr == attr
                        && enc
                            .numeric_bounds(item.lo, item.hi)
                            .is_some_and(|(ilo, ihi)| ilo <= hi && lo <= ihi)
                })
        })
        .map(|(id, _)| id as u32)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hits(list: &IntervalList, a: f64, b: f64) -> Vec<u32> {
        let mut ids = Vec::new();
        list.overlapping(a, b, |id| ids.push(id));
        ids.sort_unstable();
        ids
    }

    #[test]
    fn interval_list_bounds_are_inclusive() {
        // Intervals [i, i + 10] for i in 0..100, given in reverse.
        let list = IntervalList::new(
            (0..100u32)
                .rev()
                .map(|i| (i as f64, i as f64 + 10.0, i))
                .collect(),
        );
        assert_eq!(hits(&list, 25.0, 25.0), (15..=25).collect::<Vec<u32>>());
        assert_eq!(hits(&list, 98.0, 200.0), (88..100).collect::<Vec<u32>>());
        assert_eq!(hits(&list, 109.0, 109.0), vec![99]);
        assert!(hits(&list, 109.5, 200.0).is_empty());
        assert!(hits(&list, -5.0, -0.5).is_empty());
        assert!(hits(&IntervalList::new(Vec::new()), 0.0, 1.0).is_empty());
    }

    #[test]
    fn a_wide_early_interval_does_not_hide_later_ones() {
        let list = IntervalList::new(vec![(0.0, 100.0, 0), (1.0, 2.0, 1), (50.0, 60.0, 2)]);
        assert_eq!(hits(&list, 55.0, 55.0), vec![0, 2]);
        assert_eq!(hits(&list, 2.0, 50.0), vec![0, 1, 2]);
        assert!(hits(&list, 100.5, 101.0).is_empty());
    }
}

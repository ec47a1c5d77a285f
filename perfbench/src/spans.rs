//! An in-memory span recorder for the traced run.
//!
//! A span is a named interval with a parent. The benchmark opens spans
//! around its own calls into each crate's public functions (and derives
//! further spans from timestamps taken by [`crate::timed::TimedSource`]
//! and [`crate::sink::ArrivalSink`]), keeps them in memory, and writes
//! them out when the run ends. A span's *self time* is its duration minus
//! the part of that interval its children cover; summing self time by
//! name gives the per-layer ledger, and the share of a root span covered
//! by named descendants says how much of the wall time the ledger
//! explains.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Index of a span in its recorder.
pub type SpanId = usize;

/// One recorded interval, as offsets from the recorder's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer name, e.g. `table.csv_read`.
    pub name: String,
    /// The span that caused this one; `None` for a root (one workload
    /// operation).
    pub parent: Option<SpanId>,
    /// Start offset.
    pub start: Duration,
    /// End offset (equal to `start` while the span is still open).
    pub end: Duration,
}

impl Span {
    /// End minus start.
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// Records spans against one epoch. Spans opened with [`SpanRecorder::begin`]
/// nest: each takes the innermost open span as its parent.
#[derive(Debug)]
pub struct SpanRecorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
}

impl Default for SpanRecorder {
    fn default() -> Self {
        SpanRecorder::new()
    }
}

impl SpanRecorder {
    /// An empty recorder whose epoch is now.
    pub fn new() -> Self {
        SpanRecorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Open a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &str) -> SpanId {
        let now = self.offset(Instant::now());
        let id = self.push(name, self.open.last().copied(), now, now);
        self.open.push(id);
        id
    }

    /// Close the innermost open span, which must be `id`.
    pub fn end(&mut self, id: SpanId) {
        let now = self.offset(Instant::now());
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end = now;
    }

    /// Run `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> R) -> R {
        let id = self.begin(name);
        let result = f(self);
        self.end(id);
        result
    }

    /// Record an interval timed elsewhere under an explicit parent.
    pub fn record(
        &mut self,
        name: &str,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let (start, end) = (self.offset(start), self.offset(end));
        self.push(name, parent, start, end.max(start))
    }

    /// Every span, in creation order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The span's duration minus the union of its children's intervals
    /// (clipped to the span).
    pub fn self_time(&self, id: SpanId) -> Duration {
        let span = &self.spans[id];
        let mut children: Vec<(Duration, Duration)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start.max(span.start), s.end.min(span.end)))
            .filter(|(a, b)| b > a)
            .collect();
        children.sort();
        let mut covered = Duration::ZERO;
        let mut reach = span.start;
        for (a, b) in children {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        span.duration().saturating_sub(covered)
    }

    /// True when `id` is `ancestor` or lies below it.
    fn is_within(&self, mut id: SpanId, ancestor: SpanId) -> bool {
        loop {
            if id == ancestor {
                return true;
            }
            match self.spans[id].parent {
                Some(p) => id = p,
                None => return false,
            }
        }
    }

    /// Summed self time and span count per name, over `root` and its
    /// descendants (every span when `root` is `None`).
    pub fn self_times_by_name(&self, root: Option<SpanId>) -> BTreeMap<String, (Duration, usize)> {
        let mut out: BTreeMap<String, (Duration, usize)> = BTreeMap::new();
        for (id, span) in self.spans.iter().enumerate() {
            if root.is_some_and(|r| !self.is_within(id, r)) {
                continue;
            }
            let entry = out.entry(span.name.clone()).or_default();
            entry.0 += self.self_time(id);
            entry.1 += 1;
        }
        out
    }

    /// The share of `root`'s wall time that its named descendants
    /// account for: their summed self time over the root's duration.
    pub fn coverage(&self, root: SpanId) -> f64 {
        let covered: Duration = (0..self.spans.len())
            .filter(|&id| id != root && self.is_within(id, root))
            .map(|id| self.self_time(id))
            .sum();
        covered.as_secs_f64() / self.spans[root].duration().as_secs_f64()
    }

    /// The spans as a JSON array of `{id, name, parent, start_us, end_us}`.
    pub fn to_json(&self) -> String {
        let items: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                format!(
                    "{{\"id\":{id},\"name\":\"{}\",\"parent\":{},\"start_us\":{:.3},\"end_us\":{:.3}}}",
                    s.name,
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    s.start.as_secs_f64() * 1e6,
                    s.end.as_secs_f64() * 1e6,
                )
            })
            .collect();
        format!("[{}]", items.join(",\n"))
    }

    fn offset(&self, t: Instant) -> Duration {
        t.saturating_duration_since(self.epoch)
    }

    fn push(
        &mut self,
        name: &str,
        parent: Option<SpanId>,
        start: Duration,
        end: Duration,
    ) -> SpanId {
        self.spans.push(Span {
            name: name.to_string(),
            parent,
            start,
            end,
        });
        self.spans.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(x: u64) -> Duration {
        Duration::from_millis(x)
    }

    /// A recorder with hand-placed spans: root [0, 100), children
    /// a [10, 40) and b [30, 60) overlapping, grandchild of a [15, 25).
    fn fixture() -> (SpanRecorder, SpanId) {
        let mut rec = SpanRecorder::new();
        let e = rec.epoch;
        let root = rec.record("root", None, e, e + ms(100));
        let a = rec.record("layer.a", Some(root), e + ms(10), e + ms(40));
        rec.record("layer.b", Some(root), e + ms(30), e + ms(60));
        rec.record("layer.c", Some(a), e + ms(15), e + ms(25));
        (rec, root)
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let (rec, root) = fixture();
        // Children cover [10, 60) = 50 ms of the root's 100 ms.
        assert_eq!(rec.self_time(root), ms(50));
        // a is 30 ms with a 10 ms child.
        assert_eq!(rec.self_time(1), ms(20));
        assert_eq!(rec.self_time(2), ms(30));
        assert_eq!(rec.self_time(3), ms(10));
    }

    #[test]
    fn coverage_and_by_name_totals() {
        let (mut rec, root) = fixture();
        let e = rec.epoch;
        rec.record("layer.c", Some(root), e + ms(70), e + ms(80));
        let by_name = rec.self_times_by_name(Some(root));
        assert_eq!(by_name["layer.c"], (ms(20), 2));
        assert_eq!(by_name["root"], (ms(40), 1));
        // Descendant self time: a 20 + b 30 + c 10 + c 10 = 70 of 100.
        assert!((rec.coverage(root) - 0.7).abs() < 1e-9);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let mut rec = SpanRecorder::new();
        let e = rec.epoch;
        let root = rec.record("root", None, e + ms(10), e + ms(20));
        rec.record("late", Some(root), e + ms(15), e + ms(40));
        assert_eq!(rec.self_time(root), ms(5));
    }

    #[test]
    fn nested_begin_end_sets_parents() {
        let mut rec = SpanRecorder::new();
        let outer = rec.begin("outer");
        let inner = rec.time("inner", |r| r.spans().len() - 1);
        rec.end(outer);
        assert_eq!(rec.spans()[inner].parent, Some(outer));
        assert_eq!(rec.spans()[outer].parent, None);
        assert!(rec.spans()[outer].end >= rec.spans()[inner].end);
        assert!(rec.to_json().contains("\"name\":\"inner\",\"parent\":0"));
    }
}

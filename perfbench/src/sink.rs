//! A [`ProgressSink`] that timestamps each pinned trace event on arrival,
//! and the spans a miner run's event stream implies.
//!
//! The miner already emits `run_started`, `pass_started`, `pass_finished`
//! and `run_finished` at its layer boundaries; stamping them with the
//! arrival instant turns the stream into layer intervals without any
//! timer inside the program.

use std::sync::Mutex;
use std::time::Instant;

use qar_trace::{ProgressSink, TraceEvent};

use crate::spans::{SpanId, SpanRecorder};

/// Buffers `(arrival instant, event)` pairs.
#[derive(Debug, Default)]
pub struct ArrivalSink {
    events: Mutex<Vec<(Instant, TraceEvent)>>,
}

impl ArrivalSink {
    /// An empty sink.
    pub fn new() -> Self {
        ArrivalSink::default()
    }

    /// Remove and return everything received so far, in arrival order.
    pub fn drain(&self) -> Vec<(Instant, TraceEvent)> {
        std::mem::take(&mut *self.events.lock().expect("arrival sink mutex poisoned"))
    }
}

impl ProgressSink for ArrivalSink {
    fn on_event(&self, event: &TraceEvent) {
        let now = Instant::now();
        self.events
            .lock()
            .expect("arrival sink mutex poisoned")
            .push((now, event.clone()));
    }
}

/// One counting pass as seen through the event stream.
#[derive(Debug, Clone, PartialEq)]
pub struct PassWindow {
    /// 1-based pass number.
    pub pass: usize,
    /// Candidates counted (0 for pass 1).
    pub candidates: usize,
    /// Itemsets that met minimum support.
    pub frequent: usize,
    /// The kernel the pass reported (`memoized`, `bitmask`, …).
    pub kernel: String,
    /// `pass_started` → `pass_finished`, seconds.
    pub seconds: f64,
}

/// Turn the events of one `Miner` call (made between `call_start` and
/// `call_end`) into spans under `parent`:
///
/// - `core.miner.encode`: call start → `run_started` (Steps 1–2, or the
///   encoding-cache lookup when it hits);
/// - `core.frequent.pass1`, `core.supercand.count_pass2`,
///   `core.supercand.count_pass3plus`: `pass_started` → `pass_finished`;
/// - `core.candidate.gen`: the gaps between one pass's end and the next
///   pass's start (or `run_finished`);
/// - `core.rules_interest`: `run_finished` → call end (rule generation,
///   the interest measure, stats assembly).
///
/// Returns the passes observed.
pub fn record_miner_spans(
    rec: &mut SpanRecorder,
    parent: SpanId,
    call_start: Instant,
    call_end: Instant,
    events: &[(Instant, TraceEvent)],
) -> Vec<PassWindow> {
    let mut passes = Vec::new();
    let mut open: Option<(usize, Instant)> = None;
    let mut last_boundary: Option<Instant> = None;
    for (at, event) in events {
        match event {
            TraceEvent::RunStarted { .. } => {
                rec.record("core.miner.encode", Some(parent), call_start, *at);
                last_boundary = Some(*at);
            }
            TraceEvent::PassStarted { pass, .. } => {
                if let Some(prev) = last_boundary.filter(|_| *pass > 1) {
                    rec.record("core.candidate.gen", Some(parent), prev, *at);
                }
                open = Some((*pass, *at));
            }
            TraceEvent::PassFinished {
                pass,
                candidates,
                frequent,
                kernel,
                ..
            } => {
                if let Some((p, started)) = open.take().filter(|(p, _)| p == pass) {
                    rec.record(count_span_name(p), Some(parent), started, *at);
                    passes.push(PassWindow {
                        pass: p,
                        candidates: *candidates,
                        frequent: *frequent,
                        kernel: kernel.clone(),
                        seconds: at.duration_since(started).as_secs_f64(),
                    });
                }
                last_boundary = Some(*at);
            }
            TraceEvent::RunFinished { .. } => {
                if let Some(prev) = last_boundary {
                    rec.record("core.candidate.gen", Some(parent), prev, *at);
                }
                rec.record("core.rules_interest", Some(parent), *at, call_end);
            }
            _ => {}
        }
    }
    passes
}

/// The span name for counting pass `pass`.
pub fn count_span_name(pass: usize) -> &'static str {
    match pass {
        1 => "core.frequent.pass1",
        2 => "core.supercand.count_pass2",
        _ => "core.supercand.count_pass3plus",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qar_core::{Miner, MinerConfig, PartitionSpec};
    use qar_table::{Schema, Table, Value};
    use std::sync::Arc;

    fn table() -> Table {
        let schema = Schema::builder()
            .categorical("a")
            .categorical("b")
            .categorical("c")
            .build()
            .unwrap();
        let mut t = Table::new(schema);
        for i in 0..400u32 {
            let cells = [i % 2, i % 3 / 2, (i / 2) % 2].map(|v| Value::from(format!("v{v}")));
            t.push_row(&cells).unwrap();
        }
        t
    }

    #[test]
    fn arrival_sink_keeps_order_and_timestamps() {
        let sink = ArrivalSink::new();
        let before = Instant::now();
        sink.on_event(&TraceEvent::PassStarted {
            pass: 1,
            candidates: 0,
        });
        sink.on_event(&TraceEvent::PassStarted {
            pass: 2,
            candidates: 5,
        });
        let events = sink.drain();
        assert_eq!(events.len(), 2);
        assert!(events[0].0 >= before && events[1].0 >= events[0].0);
        assert!(matches!(
            events[1].1,
            TraceEvent::PassStarted { pass: 2, .. }
        ));
        assert!(sink.drain().is_empty());
    }

    #[test]
    fn miner_events_tile_the_call() {
        let sink = Arc::new(ArrivalSink::new());
        let config = MinerConfig {
            min_support: 0.1,
            max_support: 1.0,
            min_confidence: 0.1,
            partitioning: PartitionSpec::None,
            interest: None,
            ..MinerConfig::default()
        };
        let mut miner = Miner::new(config).with_progress(sink.clone());
        let mut rec = SpanRecorder::new();
        let root = rec.begin("mine");
        let start = Instant::now();
        let out = miner.mine(&table()).unwrap();
        let end = Instant::now();
        let passes = record_miner_spans(&mut rec, root, start, end, &sink.drain());
        rec.end(root);

        assert_eq!(passes[0].pass, 1);
        assert_eq!(passes.len(), out.stats.mine.candidates_per_pass.len() + 1);
        for (window, &candidates) in passes[1..].iter().zip(&out.stats.mine.candidates_per_pass) {
            assert_eq!(window.candidates, candidates);
        }
        let names = rec.self_times_by_name(Some(root));
        for layer in [
            "core.miner.encode",
            "core.frequent.pass1",
            "core.supercand.count_pass2",
            "core.candidate.gen",
            "core.rules_interest",
        ] {
            assert!(names.contains_key(layer), "missing {layer}: {names:?}");
        }
        // The derived spans are contiguous, so they cover the call.
        let covered: f64 = rec.coverage(root);
        assert!(covered > 0.0 && covered <= 1.0 + 1e-9, "{covered}");
    }
}

//! Cooperative cancellation through the `Miner` facade: a run cancelled
//! at any pass boundary must return [`MinerError::Cancelled`] carrying
//! the completed passes' statistics, later cancellation points must carry
//! strictly more progress, and an uncancelled token must change nothing.

use qar_prng::cases;
use quantrules::core::mine::MineStats;
use quantrules::core::{Miner, MinerConfig, MinerError, PartitionSpec};
use quantrules::table::{Schema, Table, Value};
use quantrules::trace::{CancelToken, ProgressSink, TraceEvent};
use std::sync::Arc;
use std::time::Duration;

/// A sink that trips `token` the moment pass `target` starts, so the
/// run is aborted inside that pass's first shard scan (or, for pass 1,
/// at the next boundary — pass 1 has no counting scan to interrupt).
struct CancelAtPassSink {
    token: CancelToken,
    target: usize,
}

impl ProgressSink for CancelAtPassSink {
    fn on_event(&self, event: &TraceEvent) {
        if let TraceEvent::PassStarted { pass, .. } = event {
            if *pass == self.target {
                self.token.cancel();
            }
        }
    }
}

fn config() -> MinerConfig {
    MinerConfig {
        min_support: 0.15,
        min_confidence: 0.5,
        max_support: 1.0,
        partitioning: PartitionSpec::None,
        partition_strategy: Default::default(),
        taxonomies: Default::default(),
        interest: None,
        max_itemset_size: 0,
        parallelism: None,
    }
}

/// A table wide and correlated enough to reach several passes.
fn deep_table(rows: usize) -> Table {
    let schema = Schema::builder()
        .quantitative("a")
        .quantitative("b")
        .categorical("c")
        .quantitative("d")
        .build()
        .unwrap();
    let mut t = Table::new(schema);
    let labels = ["x", "y"];
    for i in 0..rows {
        t.push_row(&[
            Value::Int((i % 4) as i64),
            Value::Int((i % 3) as i64),
            Value::from(labels[i % 2]),
            Value::Int(((i / 2) % 3) as i64),
        ])
        .unwrap();
    }
    t
}

fn mine_cancelled_at(table: &Table, target: usize) -> Result<usize, (usize, MineStats)> {
    let token = CancelToken::new();
    let sink = CancelAtPassSink {
        token: token.clone(),
        target,
    };
    match Miner::new(config())
        .with_progress(Arc::new(sink))
        .with_cancel(token)
        .mine(table)
    {
        Ok(out) => Ok(1 + out.stats.mine.pass_stats.len()),
        Err(MinerError::Cancelled(info)) => Err((info.pass, info.stats)),
        Err(e) => panic!("unexpected error: {e}"),
    }
}

#[test]
fn cancelling_each_pass_boundary_reports_that_pass_with_growing_stats() {
    let table = deep_table(200);
    let total_passes = Miner::new(config())
        .mine(&table)
        .expect("clean run")
        .stats
        .mine
        .pass_stats
        .len()
        + 1;
    assert!(total_passes >= 3, "need a multi-pass workload");

    let mut prev_completed: Option<usize> = None;
    for target in 2..=total_passes {
        let (pass, stats) = mine_cancelled_at(&table, target)
            .expect_err("cancelling an in-range pass must abort the run");
        // The abort lands inside pass `target`: no stats for it yet,
        // every earlier counting pass fully recorded.
        assert_eq!(pass, target);
        assert_eq!(stats.pass_stats.len(), target - 2);
        // The cancelled pass had already been announced as a candidate set.
        assert_eq!(stats.candidates_per_pass.len(), target - 1);
        if let Some(prev) = prev_completed {
            assert!(
                stats.pass_stats.len() > prev || target == 2,
                "later cancellation must carry more completed passes"
            );
        }
        prev_completed = Some(stats.pass_stats.len());
    }
}

#[test]
fn cancelling_during_pass_one_aborts_at_the_next_boundary() {
    let table = deep_table(200);
    let (pass, stats) = mine_cancelled_at(&table, 1).expect_err("must abort");
    // Pass 1 has no cancellable scan; the token trips during it and the
    // run stops at the pass-2 boundary with no counting pass recorded.
    assert_eq!(pass, 2);
    assert!(stats.pass_stats.is_empty());
}

#[test]
fn cancelling_past_the_last_pass_changes_nothing() {
    let table = deep_table(200);
    let clean = Miner::new(config()).mine(&table).expect("clean run");
    let total_passes = 1 + clean.stats.mine.pass_stats.len();
    let passes =
        mine_cancelled_at(&table, total_passes + 1).expect("target beyond the run never trips");
    assert_eq!(passes, total_passes);
}

#[test]
fn expired_deadline_cancels_before_pass_one() {
    let table = deep_table(50);
    let token = CancelToken::with_deadline(Duration::ZERO);
    match Miner::new(config()).with_cancel(token).mine(&table) {
        Err(MinerError::Cancelled(info)) => {
            assert_eq!(info.pass, 1);
            assert!(info.deadline_exceeded);
            assert!(info.stats.pass_stats.is_empty());
        }
        other => panic!("expected Cancelled, got {:?}", other.map(|_| "output")),
    }
}

#[test]
fn uncancelled_token_is_bit_identical_to_no_token() {
    let table = deep_table(150);
    let plain = Miner::new(config()).mine(&table).expect("plain");
    let with_token = Miner::new(config())
        .with_cancel(CancelToken::new())
        .mine(&table)
        .expect("token never trips");
    assert_eq!(plain.frequent.levels, with_token.frequent.levels);
    assert_eq!(plain.rules.len(), with_token.rules.len());
    for (a, b) in plain.rules.iter().zip(&with_token.rules) {
        assert_eq!(a.support, b.support);
        assert_eq!(a.confidence.to_bits(), b.confidence.to_bits());
    }
}

/// Property: on random tables, every in-range cancellation target aborts
/// with that pass and a stats prefix, and stats grow monotonically with
/// the target; an uncancelled token reproduces the clean run exactly.
#[test]
fn cancellation_properties_hold_on_random_tables() {
    cases(12, 0x00AB_517E_CA9C_E11E, |case, rng| {
        let schema = Schema::builder()
            .quantitative("q1")
            .quantitative("q2")
            .categorical("c")
            .build()
            .unwrap();
        let mut table = Table::new(schema);
        let labels = ["a", "b", "c"];
        for _ in 0..rng.gen_range(20..80usize) {
            table
                .push_row(&[
                    Value::Int(rng.gen_range(0i64..5)),
                    Value::Int(rng.gen_range(0i64..4)),
                    Value::from(labels[rng.gen_range(0..labels.len())]),
                ])
                .unwrap();
        }
        let clean = Miner::new(config()).mine(&table).expect("clean run");
        let total_passes = 1 + clean.stats.mine.pass_stats.len();

        let mut prev_len = 0usize;
        for target in 2..=total_passes {
            let (pass, stats) =
                mine_cancelled_at(&table, target).expect_err("in-range target aborts");
            assert_eq!(pass, target, "case {case}");
            assert_eq!(stats.pass_stats.len(), target - 2, "case {case}");
            assert!(stats.pass_stats.len() >= prev_len, "case {case}");
            // The partial stats are a prefix of the clean run's.
            for (done, full) in stats.pass_stats.iter().zip(&clean.stats.mine.pass_stats) {
                assert_eq!(done.super_candidates, full.super_candidates, "case {case}");
            }
            prev_len = stats.pass_stats.len();
        }

        let with_token = Miner::new(config())
            .with_cancel(CancelToken::new())
            .mine(&table)
            .expect("token never trips");
        assert_eq!(
            clean.frequent.levels, with_token.frequent.levels,
            "case {case}"
        );
    });
}

/// A re-mine that only changes the confidence reuses the cached Step 3
/// and runs Steps 4–5 alone; a token already tripped still ends it in
/// `Cancelled`, naming rule generation, with the cached passes'
/// statistics.
#[test]
fn tripped_token_on_a_step3_cache_hit_is_cancelled() {
    let table = deep_table(200);
    let token = CancelToken::new();
    let mut miner = Miner::new(config()).with_cancel(token.clone());
    let clean = miner.mine(&table).expect("clean run");
    miner.set_config(MinerConfig {
        min_confidence: 0.9,
        ..config()
    });
    token.cancel();
    match miner.mine(&table) {
        Err(err @ MinerError::Cancelled(_)) => {
            assert!(err.to_string().contains("rule generation"), "{err}");
            let MinerError::Cancelled(info) = err else {
                unreachable!()
            };
            assert_eq!(info.phase, Some("Step 4 (rule generation)"));
            assert_eq!(info.pass, 1 + clean.stats.mine.pass_stats.len());
            assert_eq!(
                info.stats.candidates_per_pass,
                clean.stats.mine.candidates_per_pass
            );
            assert!(!info.deadline_exceeded);
        }
        other => panic!("expected Cancelled, got {:?}", other.map(|_| "output")),
    }
    // The stop left the cache whole: with a fresh token the same
    // re-mine is a hit, equal to a fresh miner's run.
    let mut miner = miner.with_cancel(CancelToken::new());
    let hit = miner.mine(&table).expect("hit");
    assert!(hit.stats.frequent_reused);
    let fresh = Miner::new(miner.config().clone())
        .mine(&table)
        .expect("fresh");
    assert_eq!(hit.rules, fresh.rules);
}

/// Records when pass 2 finished and when pass 3 started — the span of
/// pass 3's candidate generation — and trips `token` at the start of
/// pass 3, so a calibration run stops before counting it.
struct JoinSpanSink {
    token: CancelToken,
    started: std::time::Instant,
    span: std::sync::Mutex<(Duration, Duration)>,
}

impl ProgressSink for JoinSpanSink {
    fn on_event(&self, event: &TraceEvent) {
        let mut span = self.span.lock().unwrap();
        match event {
            TraceEvent::PassFinished { pass: 2, .. } => span.0 = self.started.elapsed(),
            TraceEvent::PassStarted { pass: 3, .. } => {
                span.1 = self.started.elapsed();
                self.token.cancel();
            }
            _ => {}
        }
    }
}

/// A deadline that expires inside pass 3's join stops it there: the run
/// ends in `Cancelled` naming candidate generation, with pass 2's
/// statistics. Three quantitative attributes over every triple of 11
/// codes make every range of every attribute frequent (66 each), every
/// pair of them too, and the join build 66³ ≈ 287k candidates out of
/// 13k pairs. A calibration run times the join; the deadline is then set
/// to expire at its midpoint, re-measured for each of up to five tries.
#[test]
fn deadline_inside_the_candidate_join_is_cancelled() {
    const CODES: i64 = 11;
    let schema = Schema::builder()
        .quantitative("a")
        .quantitative("b")
        .quantitative("d")
        .build()
        .unwrap();
    let mut table = Table::new(schema);
    for i in 0..CODES.pow(3) {
        let row = [i % CODES, i / CODES % CODES, i / CODES / CODES].map(Value::Int);
        table.push_row(&row).unwrap();
    }
    let config = MinerConfig {
        min_support: 1e-6,
        ..config()
    };
    // The deadline is a wall-clock guess, so a run whose Steps 1–2 or
    // join drift from the calibration's may stop in a neighbouring phase.
    // Every attempt must end in `Cancelled`; one must stop in the join.
    const ATTEMPTS: usize = 5;
    let mut phases = Vec::new();
    for _ in 0..ATTEMPTS {
        let token = CancelToken::new();
        let sink = Arc::new(JoinSpanSink {
            token: token.clone(),
            started: std::time::Instant::now(),
            span: Default::default(),
        });
        let calibration = Miner::new(config.clone())
            .with_progress(sink.clone())
            .with_cancel(token)
            .mine(&table);
        assert!(matches!(calibration, Err(MinerError::Cancelled(_))));
        let (pass2_done, join_done) = *sink.span.lock().unwrap();
        assert!(join_done > pass2_done, "{pass2_done:?} then {join_done:?}");

        let deadline = CancelToken::with_deadline(pass2_done + (join_done - pass2_done) / 2);
        let info = match Miner::new(config.clone())
            .with_cancel(deadline)
            .mine(&table)
        {
            Err(MinerError::Cancelled(info)) => info,
            other => panic!("expected Cancelled, got {:?}", other.map(|_| "output")),
        };
        assert!(info.deadline_exceeded);
        phases.push((info.pass, info.phase));
        if info.phase == Some("candidate generation") {
            assert_eq!(info.pass, 3);
            assert_eq!(info.stats.pass_stats.len(), 1, "pass 2 finished");
            assert_eq!(
                info.stats.candidates_per_pass.len(),
                1,
                "pass 3 never started"
            );
            return;
        }
    }
    panic!("no attempt stopped in the join: {phases:?}");
}

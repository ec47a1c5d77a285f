//! Differential fuzzing oracle for the quantitative-rule miner.
//!
//! Every iteration draws a random case — skewed toward the edge regions
//! where boundary bugs live — and cross-checks every execution path the
//! repo has for the same question: serial vs parallel mining, the
//! brute-force enumerator, the boolean apriori bridge, the `.qarcat`
//! save → load → query round trip, the blocked bitmask kernel (serial
//! and pooled) against the paper's counting in [`mod@reference`] on
//! boundary-skewed and on duplicate-heavy categorical tables,
//! count-distribution distributed mining over worker threads against the
//! single-process miner (down to byte-identical normalized catalogs), and
//! incremental catalog updates (mine the base, merge a delta-only scan
//! into the persisted counts) against a from-scratch mine of base+delta
//! down to byte-identical catalogs including the `COUNTS` section. On
//! divergence the case is shrunk to a minimal repro and rendered as a
//! self-contained text fixture that [`repro::parse`] turns back into an
//! executable case.
//!
//! The reference's Section 5.2 counters, used nowhere else, live here:
//! [`RectCounter`] over a [`MultiDimCounter`] array or an R*-tree.
//!
//! The crate does no I/O: [`run_fuzz`] returns fixture *strings*; writing
//! them under `tests/fuzz_repros/` is the CLI's job.

#![warn(missing_docs)]

pub mod case;
pub mod check;
pub mod counter;
pub mod gen;
pub mod ndcounter;
pub mod reference;
pub mod repro;
pub mod shrink;

pub use case::{IncrementalCase, IntervalsCase, MiningCase, PartitionCase, ReproCase, SnapCase};
pub use check::{check_case, Divergence};
pub use counter::{CounterKind, RectCounter};
pub use gen::gen_case;
pub use ndcounter::MultiDimCounter;
pub use repro::ReproError;
pub use shrink::shrink;

use qar_prng::Prng;
use std::collections::BTreeMap;

/// Per-iteration seed mixing constant (the same scheme `qar_prng::cases`
/// uses), so any single iteration can be replayed in isolation from the
/// base seed and its index.
const SEED_MIX: u64 = 0xA076_1D64_78BD_642F;

/// Stop collecting failures after this many: one bug tends to repeat for
/// thousands of iterations, and each failure costs a shrink.
const MAX_FAILURES: usize = 5;

/// One divergence, minimized and ready to persist.
#[derive(Debug)]
pub struct FuzzFailure {
    /// Iteration index within the run.
    pub iteration: u64,
    /// The derived seed that reproduces this iteration on its own.
    pub case_seed: u64,
    /// The divergence the *minimized* case still triggers.
    pub divergence: Divergence,
    /// The minimized case itself.
    pub case: ReproCase,
    /// The case rendered as a fixture file, divergence comment included.
    pub fixture: String,
}

/// Outcome of a fuzz run.
#[derive(Debug)]
pub struct FuzzReport {
    /// Iterations actually executed (may stop early after repeated failures).
    pub iterations: u64,
    /// How many cases of each kind were drawn.
    pub kind_counts: BTreeMap<&'static str, u64>,
    /// Minimized failures, in discovery order.
    pub failures: Vec<FuzzFailure>,
}

impl FuzzReport {
    /// True when every path agreed on every case.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Run `iters` fuzz iterations from `seed`. `log` receives progress
/// lines (failures and shrink announcements) as they happen.
pub fn run_fuzz(iters: u64, seed: u64, mut log: impl FnMut(&str)) -> FuzzReport {
    let mut report = FuzzReport {
        iterations: 0,
        kind_counts: BTreeMap::new(),
        failures: Vec::new(),
    };
    for i in 0..iters {
        let case_seed = seed ^ i.wrapping_mul(SEED_MIX);
        let mut rng = Prng::seed_from_u64(case_seed);
        let case = gen_case(&mut rng);
        *report.kind_counts.entry(case.kind()).or_insert(0) += 1;
        report.iterations += 1;
        if let Err(first) = check_case(&case) {
            log(&format!(
                "iteration {i} (case seed {case_seed:#x}): {first}; shrinking"
            ));
            let shrunk = shrink(case);
            // The shrinker guarantees the result still fails; re-check to
            // report the divergence of the *minimized* case.
            let divergence = check_case(&shrunk).err().unwrap_or(first);
            let header = format!("{divergence}\nfound at iteration {i}, case seed {case_seed:#x}");
            let fixture = repro::serialize(&shrunk, &header);
            report.failures.push(FuzzFailure {
                iteration: i,
                case_seed,
                divergence,
                case: shrunk,
                fixture,
            });
            if report.failures.len() >= MAX_FAILURES {
                log(&format!(
                    "{MAX_FAILURES} failures collected; stopping early"
                ));
                break;
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The standing guarantee this PR establishes: a fixed-seed fuzz run
    /// over every path finds zero divergences.
    #[test]
    fn fuzz_smoke_is_clean() {
        let report = run_fuzz(100, 0x5EED, |_| {});
        assert_eq!(report.iterations, 100);
        assert!(
            report.ok(),
            "divergences found:\n{}",
            report
                .failures
                .iter()
                .map(|f| f.fixture.as_str())
                .collect::<Vec<_>>()
                .join("\n---\n")
        );
        // The generator mix must actually exercise every case kind.
        assert!(report.kind_counts.contains_key("mining"));
        assert!(report.kind_counts.contains_key("kernel"));
        assert!(report.kind_counts.contains_key("analytics"));
        assert!(report.kind_counts.contains_key("distributed"));
        assert!(report.kind_counts.contains_key("incremental"));
        assert!(report.kind_counts.len() >= 8, "{:?}", report.kind_counts);
    }

    /// Same seed, same run — byte for byte.
    #[test]
    fn run_fuzz_is_deterministic() {
        let a = run_fuzz(40, 42, |_| {});
        let b = run_fuzz(40, 42, |_| {});
        assert_eq!(a.kind_counts, b.kind_counts);
        assert_eq!(a.failures.len(), b.failures.len());
    }

    /// Each iteration's case depends only on its derived seed, so a
    /// failure can be replayed without re-running the whole sweep.
    #[test]
    fn iterations_replay_independently() {
        let seed = 0xBEEF;
        let i = 17u64;
        let case_seed = seed ^ i.wrapping_mul(SEED_MIX);
        let mut rng1 = Prng::seed_from_u64(case_seed);
        let mut rng2 = Prng::seed_from_u64(case_seed);
        let a = gen_case(&mut rng1);
        let b = gen_case(&mut rng2);
        assert_eq!(
            repro::serialize(&a, ""),
            repro::serialize(&b, ""),
            "replayed case differs"
        );
    }
}

//! `explore_credit`: the analyst's threshold loop (the paper's Figs. 7–9).
//! The credit table is read once; one `Miner` is re-configured with
//! `set_config` over a ladder of partial-completeness levels K and
//! interest levels R and re-mines the same in-memory table. No CSV
//! parsing or catalog I/O is timed: candidate generation, the pass ≥ 3
//! scans and the encoding cache are what move this workload.

use std::io;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

use qar_core::{Miner, MinerError};
use qar_datagen::credit::credit_schema;
use qar_table::Table;
use qar_trace::json::{self, Json};

use super::{load_repeatedly, Ctx, MineSpec, CREDIT_ROWS, CREDIT_SPEC, THREADS};
use crate::report::{num, nums, obj, to_json, Outcome};
use crate::stats::{median, percentile};
use crate::{gen, proc};

/// Partial-completeness levels of the ladder, outer loop.
pub const LADDER_K: [f64; 3] = [1.5, 2.0, 3.0];
/// Interest levels of the ladder, inner loop: each second step changes
/// only R, so the miner's encoding cache must hit there.
pub const LADDER_R: [f64; 2] = [1.1, 1.5];
/// Ladders a run makes at least.
pub const MIN_LADDERS: usize = 2;

/// The ladder's configurations in run order.
pub fn ladder() -> Vec<MineSpec> {
    LADDER_K
        .iter()
        .flat_map(|&k| {
            LADDER_R.iter().map(move |&r| MineSpec {
                completeness: Some(k),
                interest: Some(r),
                ..CREDIT_SPEC
            })
        })
        .collect()
}

/// What one ladder step produced — the part that must repeat exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Step {
    /// `|C_k|` for each pass k ≥ 2.
    pub candidates_per_pass: Vec<usize>,
    /// Rules generated.
    pub rules_total: usize,
    /// Rules the interest measure kept.
    pub rules_interesting: usize,
    /// Whether Steps 1–2 came from the encoding cache.
    pub encoding_reused: bool,
}

/// One pass over the ladder.
#[derive(Debug, Clone)]
pub struct LadderRun {
    /// Per-step outcomes.
    pub steps: Vec<Step>,
    /// Per-step wall time, seconds.
    pub step_s: Vec<f64>,
    /// The whole ladder, seconds.
    pub wall_s: f64,
}

/// Run the ladder once on `miner` over `table`.
pub fn run_ladder(miner: &mut Miner, table: &Table) -> Result<LadderRun, MinerError> {
    let started = Instant::now();
    let mut steps = Vec::new();
    let mut step_s = Vec::new();
    for spec in ladder() {
        miner.set_config(spec.miner_config(THREADS));
        let t = Instant::now();
        let out = miner.mine(table)?;
        step_s.push(t.elapsed().as_secs_f64());
        steps.push(Step {
            candidates_per_pass: out.stats.mine.candidates_per_pass.clone(),
            rules_total: out.stats.rules_total,
            rules_interesting: out.stats.rules_interesting,
            encoding_reused: out.stats.encoding_reused,
        });
    }
    Ok(LadderRun {
        steps,
        step_s,
        wall_s: started.elapsed().as_secs_f64(),
    })
}

/// Ladders on one miner until `seconds` are spent (at least `min`).
pub fn run_ladders(table: &Table, seconds: f64, min: usize) -> Result<Vec<LadderRun>, MinerError> {
    let mut miner = Miner::new(CREDIT_SPEC.miner_config(THREADS));
    let started = Instant::now();
    let mut runs = Vec::new();
    while runs.len() < min || started.elapsed().as_secs_f64() < seconds {
        runs.push(run_ladder(&mut miner, table)?);
    }
    Ok(runs)
}

/// The correctness gates: every repetition's steps equal the first's,
/// and the encoding is reused on exactly the R-only steps.
pub fn check_ladders(runs: &[LadderRun], out: &mut Outcome) {
    let expected_reuse: Vec<bool> = (0..ladder().len())
        .map(|i| i % LADDER_R.len() != 0)
        .collect();
    for (n, run) in runs.iter().enumerate() {
        let reuse: Vec<bool> = run.steps.iter().map(|s| s.encoding_reused).collect();
        out.check(reuse == expected_reuse, || {
            format!("ladder {n}: encoding reuse {reuse:?}, expected {expected_reuse:?}")
        });
        out.check(run.steps == runs[0].steps, || {
            format!("ladder {n}: step outcomes differ from the first ladder's")
        });
    }
}

/// The in-process half of the workload, run in a child process so its
/// peak RSS is its own: load the CSV (set-up), run the ladders, check
/// them, and write the outcome document to `result`.
pub fn child(csv: &Path, seconds: f64, result: &Path) -> io::Result<()> {
    let mut out = Outcome::default();
    let (table, setup) = load_repeatedly(csv, &credit_schema())?;
    match run_ladders(&table, seconds, MIN_LADDERS) {
        Ok(runs) => {
            check_ladders(&runs, &mut out);
            let walls: Vec<f64> = runs.iter().map(|r| r.wall_s).collect();
            let p50 = median(&walls);
            out.set("setup_s", median(&setup));
            out.set("latency_p50_ms", p50 * 1e3);
            out.extra("latency_p99_ms", num(percentile(&walls, 99.0) * 1e3));
            out.set(
                "throughput_per_s",
                (table.num_rows() * ladder().len()) as f64 / p50,
            );
            out.extra("setup_s", nums(&setup));
            out.extra("ladder_s", nums(&walls));
            out.extra(
                "step_s",
                Json::Arr(runs.iter().map(|r| nums(&r.step_s)).collect()),
            );
            out.extra(
                "steps",
                Json::Arr(
                    runs[0]
                        .steps
                        .iter()
                        .map(|s| {
                            obj([
                                (
                                    "candidates_per_pass",
                                    nums(
                                        &s.candidates_per_pass
                                            .iter()
                                            .map(|&c| c as f64)
                                            .collect::<Vec<_>>(),
                                    ),
                                ),
                                ("rules_total", num(s.rules_total as f64)),
                                ("rules_interesting", num(s.rules_interesting as f64)),
                                ("encoding_reused", Json::Bool(s.encoding_reused)),
                            ])
                        })
                        .collect(),
                ),
            );
        }
        Err(e) => out.check(false, || format!("ladder failed: {e}")),
    }
    std::fs::write(result, to_json(&out.document(Vec::new(), &[])))
}

/// Run the workload: write the CSV, run [`child`] in a child process of
/// this benchmark, and add the child's peak RSS.
pub fn run(ctx: &Ctx) -> io::Result<Outcome> {
    let csv = ctx.work.join("credit.csv");
    gen::write_credit_csv(&csv, CREDIT_ROWS, ctx.seed)?;
    let result = ctx.work.join("explore.json");
    let exe = std::env::current_exe()?;
    let exit = proc::run(
        Command::new(exe)
            .arg("explore-child")
            .arg(&csv)
            .arg(ctx.seconds.to_string())
            .arg(&result)
            .stdin(Stdio::null())
            .stdout(Stdio::null()),
    )?;
    let text = std::fs::read_to_string(&result).unwrap_or_default();
    let mut out = match json::parse(&text) {
        Ok(doc) if exit.success() => Outcome::from_document(&doc),
        _ => {
            let mut out = Outcome::default();
            out.check(false, || {
                format!("explore child failed with {:?}", exit.code)
            });
            out
        }
    };
    out.set("peak_rss_mb", exit.maxrss_mib());
    Ok(out)
}

//! The benchmark's workloads and the settings they share.
//!
//! | workload | what a user does | layers it stresses |
//! |---|---|---|
//! | `mine_credit` | `qar mine --store` on the credit table, serial | CSV parse, partition, encode, counting, catalog encode |
//! | `mine_credit_workers2` | the same with `--workers 2` | as above plus the worker protocol and count merge |
//! | `explore_credit` | re-mine one in-memory table over a threshold ladder | candidate generation, pass ≥ 3 scans, the encoding cache |
//! | `update_stream` | absorb 20 appended deltas with `qar mine --update` | catalog load/save, delta scans, fallback re-mines |
//! | `serve_credit` | query a `qar serve` daemon over TCP | protocol, index lookup, sockets |

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use qar_core::{InterestConfig, InterestMode, MinerConfig, PartitionSpec};
use qar_table::{csv, Schema, Table};

pub mod explore;
pub mod mine;
pub mod serve;
pub mod update;

/// Every workload, in the order `perfbench run` runs them.
pub const WORKLOADS: [&str; 5] = [
    "mine_credit",
    "mine_credit_workers2",
    "explore_credit",
    "update_stream",
    "serve_credit",
];

/// Rows of the credit table every credit workload mines.
pub const CREDIT_ROWS: usize = 500_000;

/// Set-up steps are repeated this often and reported as their median.
pub const SETUP_REPEATS: usize = 5;

/// Threads `qar` runs with, sized for a two-core machine.
pub const THREADS: usize = 2;

/// Run workload `name` untraced.
pub fn run(name: &str, ctx: &Ctx) -> std::io::Result<crate::report::Outcome> {
    match name {
        "mine_credit" => mine::run(ctx, 0),
        "mine_credit_workers2" => mine::run(ctx, 2),
        "explore_credit" => explore::run(ctx),
        "update_stream" => update::run(ctx),
        "serve_credit" => serve::run(ctx),
        other => Err(std::io::Error::other(format!("unknown workload `{other}`"))),
    }
}

/// What every workload run is given.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Input seed.
    pub seed: u64,
    /// How long the timed phase measures.
    pub seconds: f64,
    /// Scratch directory for this run's inputs and outputs.
    pub work: PathBuf,
    /// The `qar` binary under test.
    pub qar: PathBuf,
}

impl Ctx {
    /// A `qar` invocation with its output discarded and its error stream
    /// captured in `stderr` (under the work directory).
    pub fn qar(&self, args: &[String], stderr: &str) -> std::io::Result<Command> {
        let mut cmd = Command::new(&self.qar);
        cmd.args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(std::fs::File::create(self.work.join(stderr))?);
        Ok(cmd)
    }

    /// True until the timed phase's `seconds` have passed since `start`,
    /// or while fewer than `min` operations ran.
    pub fn keep_going(&self, start: Instant, done: usize, min: usize) -> bool {
        done < min || start.elapsed() < Duration::from_secs_f64(self.seconds)
    }
}

/// One mining configuration, spelled both as `qar mine` flags and as a
/// library [`MinerConfig`], so the two paths cannot drift apart.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MineSpec {
    /// `--minsup`.
    pub minsup: f64,
    /// `--maxsup`.
    pub maxsup: f64,
    /// `--minconf`.
    pub minconf: f64,
    /// `--completeness K`; `None` is `--no-partition`.
    pub completeness: Option<f64>,
    /// `--interest R` (mode `or`, the CLI default).
    pub interest: Option<f64>,
    /// `--max-size` (0 = unbounded).
    pub max_size: usize,
}

/// The paper's Section 6 settings on the credit table.
pub const CREDIT_SPEC: MineSpec = MineSpec {
    minsup: 0.2,
    maxsup: 0.4,
    minconf: 0.25,
    completeness: Some(2.0),
    interest: Some(1.1),
    max_size: 0,
};

impl MineSpec {
    /// The threshold and partitioning flags.
    pub fn cli_args(&self) -> Vec<String> {
        let mut args = vec![
            "--minsup".to_string(),
            self.minsup.to_string(),
            "--maxsup".to_string(),
            self.maxsup.to_string(),
            "--minconf".to_string(),
            self.minconf.to_string(),
        ];
        match self.completeness {
            Some(k) => args.extend(["--completeness".to_string(), k.to_string()]),
            None => args.push("--no-partition".to_string()),
        }
        if let Some(r) = self.interest {
            args.extend(["--interest".to_string(), r.to_string()]);
        }
        if self.max_size > 0 {
            args.extend(["--max-size".to_string(), self.max_size.to_string()]);
        }
        args
    }

    /// The same configuration as `qar mine` builds it from
    /// [`MineSpec::cli_args`], with `threads` counting threads.
    pub fn miner_config(&self, threads: usize) -> MinerConfig {
        MinerConfig {
            min_support: self.minsup,
            min_confidence: self.minconf,
            max_support: self.maxsup,
            partitioning: self
                .completeness
                .map_or(PartitionSpec::None, PartitionSpec::CompletenessLevel),
            interest: self.interest.map(|level| InterestConfig {
                level,
                mode: InterestMode::SupportOrConfidence,
                prune_candidates: false,
            }),
            max_itemset_size: self.max_size,
            parallelism: std::num::NonZeroUsize::new(threads),
            ..MinerConfig::default()
        }
    }
}

/// `qar mine` over a CSV into a catalog: schema, thresholds, topology,
/// `--normalize-stats` (so catalogs byte-compare across topologies), and
/// `--store`.
pub fn mine_args(
    csv: &Path,
    schema: &str,
    spec: &MineSpec,
    workers: usize,
    store: &Path,
) -> Vec<String> {
    let mut args = vec![
        "mine".to_string(),
        "--input".to_string(),
        csv.display().to_string(),
        "--schema".to_string(),
        schema.to_string(),
    ];
    args.extend(spec.cli_args());
    if workers > 0 {
        args.extend([
            "--workers".to_string(),
            workers.to_string(),
            "--threads".to_string(),
            "1".to_string(),
        ]);
    } else {
        args.extend(["--threads".to_string(), THREADS.to_string()]);
    }
    args.extend([
        "--normalize-stats".to_string(),
        "--store".to_string(),
        store.display().to_string(),
    ]);
    args
}

/// Load `csv` with `qar_table::csv::read_table` [`SETUP_REPEATS`] times:
/// the table, and each load's wall time in seconds.
pub fn load_repeatedly(csv: &Path, schema: &Schema) -> std::io::Result<(Table, Vec<f64>)> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut table = None;
    for _ in 0..SETUP_REPEATS {
        let started = Instant::now();
        let file = std::io::BufReader::new(std::fs::File::open(csv)?);
        let loaded = csv::read_table(file, schema).map_err(std::io::Error::other)?;
        times.push(started.elapsed().as_secs_f64());
        table = Some(loaded);
    }
    Ok((table.expect("at least one load"), times))
}

/// The last few hundred bytes of a captured error stream, for failure
/// messages.
pub fn stderr_tail(ctx: &Ctx, name: &str) -> String {
    let text = std::fs::read_to_string(ctx.work.join(name)).unwrap_or_default();
    let start = text.len().saturating_sub(300);
    let start = (start..text.len())
        .find(|&i| text.is_char_boundary(i))
        .unwrap_or(text.len());
    text[start..].trim().to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_flags_round_trip_the_floats() {
        let args = CREDIT_SPEC.cli_args();
        assert_eq!(
            args,
            [
                "--minsup",
                "0.2",
                "--maxsup",
                "0.4",
                "--minconf",
                "0.25",
                "--completeness",
                "2",
                "--interest",
                "1.1"
            ]
        );
        let config = CREDIT_SPEC.miner_config(2);
        assert_eq!(config.min_support, "0.2".parse::<f64>().unwrap());
        assert_eq!(config.partitioning, PartitionSpec::CompletenessLevel(2.0));
        config.validate().unwrap();
    }
}

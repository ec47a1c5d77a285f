//! `perfbench` — run one workload, all of them, or compare results.
//!
//! ```text
//! perfbench --workload W --seed N --seconds S --trace 0|1 [--out R.json] [--spans SPANS.json]
//! perfbench run --seed N [--seconds S] [--traced] [--out R.json] [--spans SPANS.json]
//! perfbench compare [--spec BENCHMARK.json] A.json… -- B.json…
//! ```
//!
//! One workload run prints every metric by name with its unit, then, as
//! its last line, `{"correct", "attempted", "failed", "metrics"}` with the
//! end-to-end metrics (`--trace 0`) or the per-layer ones (`--trace 1`).
//! It exits 1 when a correctness check failed and 2 when it could not run.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use perfbench::report::{obj, to_json, Outcome, END_TO_END, PER_LAYER};
use perfbench::workloads::{self, explore, Ctx, WORKLOADS};
use perfbench::{compare, ledger, proc, report};
use qar_trace::json::{self, Json};

const USAGE: &str = "usage:
  perfbench --workload W --seed N --seconds S --trace 0|1 [--out R.json] [--spans SPANS.json]
  perfbench run --seed N [--seconds S] [--traced] [--out R.json] [--spans SPANS.json]
  perfbench compare [--spec BENCHMARK.json] A.json... -- B.json...";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        None | Some("--help" | "-h") => {
            println!("{USAGE}\nworkloads: {}", WORKLOADS.join(", "));
            return ExitCode::SUCCESS;
        }
        Some("run") => run_all(&args[1..]),
        Some("compare") => run_compare(&args[1..]),
        Some("explore-child") => explore_child(&args[1..]),
        _ => run_one(&args),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// `--flag value` pairs.
fn flags(args: &[String]) -> Result<std::collections::BTreeMap<String, String>, String> {
    let mut out = std::collections::BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{flag}`"))?;
        if key == "traced" {
            out.insert(key.to_string(), "1".to_string());
            continue;
        }
        let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        out.insert(key.to_string(), value.clone());
    }
    Ok(out)
}

fn required<'a>(
    f: &'a std::collections::BTreeMap<String, String>,
    key: &str,
) -> Result<&'a str, String> {
    f.get(key)
        .map(String::as_str)
        .ok_or_else(|| format!("--{key} is required"))
}

fn parse<T: std::str::FromStr>(value: &str, key: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("--{key}: `{value}` is not valid"))
}

/// Where a run keeps its inputs and outputs: beside the build, so the
/// benchmark reads and writes only inside its checkout. Removed when
/// dropped, panics included.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create(label: &str) -> Result<WorkDir, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let target = exe
            .parent()
            .and_then(Path::parent)
            .ok_or("cannot place the work directory")?;
        let dir = target
            .join("perfbench-work")
            .join(format!("{label}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run_one(args: &[String]) -> Result<ExitCode, String> {
    let f = flags(args)?;
    let workload = required(&f, "workload")?;
    if !WORKLOADS.contains(&workload) {
        return Err(format!(
            "unknown workload `{workload}`; expected one of {WORKLOADS:?}"
        ));
    }
    let seed: u64 = parse(required(&f, "seed")?, "seed")?;
    let seconds: f64 = parse(required(&f, "seconds")?, "seconds")?;
    let traced = match f.get("trace").map(String::as_str).unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace: `{other}` is not 0 or 1")),
    };
    let qar = proc::qar_exe().map_err(|e| e.to_string())?;
    let work = WorkDir::create(workload)?;
    let ctx = Ctx {
        seed,
        seconds,
        work: work.0.clone(),
        qar,
    };
    let result = if traced {
        ledger::run(workload, &ctx).and_then(|(outcome, rec)| {
            if let Some(path) = f.get("spans") {
                std::fs::write(path, rec.to_json())?;
            }
            Ok(outcome)
        })
    } else {
        workloads::run(workload, &ctx)
    };
    drop(work);
    let outcome = result.map_err(|e| format!("{workload}: {e}"))?;

    let specs: &[report::MetricSpec] = if traced { &PER_LAYER } else { &END_TO_END };
    println!(
        "{workload} (seed {seed}, {seconds} s, trace {}):",
        u8::from(traced)
    );
    for line in outcome.human_lines(specs) {
        println!("{line}");
    }
    for failure in &outcome.failures {
        eprintln!("perfbench: {workload}: {failure}");
    }
    if let Some(path) = f.get("out") {
        let doc = outcome.document(
            vec![
                ("workload", Json::Str(workload.to_string())),
                ("seed", Json::Num(seed as f64)),
                ("seconds", Json::Num(seconds)),
                ("trace", Json::Bool(traced)),
            ],
            &[&END_TO_END[..], &PER_LAYER[..]].concat(),
        );
        std::fs::write(path, to_json(&doc) + "\n")
            .map_err(|e| format!("cannot write `{path}`: {e}"))?;
    }
    println!("{}", outcome.result_line(specs));
    Ok(if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// Every workload, each in its own child process (so allocator state and
/// peak RSS do not leak between them), untraced and then, with
/// `--traced`, traced; one result document and one span file.
fn run_all(args: &[String]) -> Result<ExitCode, String> {
    let f = flags(args)?;
    let seed = required(&f, "seed")?;
    let seconds = f.get("seconds").map_or("10", String::as_str);
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let scratch = WorkDir::create("run")?;
    let modes: &[&str] = if f.contains_key("traced") {
        &["0", "1"]
    } else {
        &["0"]
    };
    let mut results = Vec::new();
    let mut spans = std::collections::BTreeMap::new();
    let mut all_ok = true;
    for &trace in modes {
        for workload in WORKLOADS {
            let out = scratch.0.join(format!("{workload}-{trace}.json"));
            let span_file = scratch.0.join(format!("{workload}.spans.json"));
            let mut cmd = Command::new(&exe);
            cmd.args([
                "--workload",
                workload,
                "--seed",
                seed,
                "--seconds",
                seconds,
                "--trace",
                trace,
            ])
            .arg("--out")
            .arg(&out);
            if trace == "1" {
                cmd.arg("--spans").arg(&span_file);
            }
            let status = cmd.status().map_err(|e| e.to_string())?;
            all_ok &= status.success();
            match std::fs::read_to_string(&out)
                .ok()
                .and_then(|t| json::parse(&t).ok())
            {
                Some(doc) => results.push(doc),
                None => all_ok = false,
            }
            if let Some(parsed) = std::fs::read_to_string(&span_file)
                .ok()
                .and_then(|t| json::parse(&t).ok())
            {
                spans.insert(workload.to_string(), parsed);
            }
        }
    }
    drop(scratch);
    print_summary(&results);
    if let Some(path) = f.get("out") {
        let doc = obj([
            ("seed", Json::Str(seed.to_string())),
            ("seconds", Json::Str(seconds.to_string())),
            ("results", Json::Arr(results)),
        ]);
        std::fs::write(path, to_json(&doc) + "\n")
            .map_err(|e| format!("cannot write `{path}`: {e}"))?;
    }
    if let Some(path) = f.get("spans") {
        std::fs::write(path, to_json(&Json::Obj(spans)) + "\n")
            .map_err(|e| format!("cannot write `{path}`: {e}"))?;
    }
    Ok(if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// The end-to-end metrics of every untraced result, one row per workload.
fn print_summary(results: &[Json]) {
    print!("{:<22}", "workload");
    for spec in END_TO_END {
        print!(" {:>24}", format!("{} ({})", spec.name, spec.unit));
    }
    println!("  correct");
    for doc in results {
        let outcome = Outcome::from_document(doc);
        let o = doc.as_object();
        if o.and_then(|o| o.get("trace")).and_then(Json::as_bool) != Some(false) {
            continue;
        }
        let name = o
            .and_then(|o| o.get("workload"))
            .and_then(Json::as_str)
            .unwrap_or("?");
        print!("{name:<22}");
        for spec in END_TO_END {
            match outcome.metrics.get(spec.name) {
                Some(v) => print!(" {v:>24.4}"),
                None => print!(" {:>24}", "-"),
            }
        }
        println!("  {}", outcome.correct());
    }
}

fn run_compare(args: &[String]) -> Result<ExitCode, String> {
    let (spec, rest) = match args.first().map(String::as_str) {
        Some("--spec") => (
            PathBuf::from(args.get(1).ok_or("--spec needs a value")?),
            &args[2..],
        ),
        _ => (PathBuf::from("BENCHMARK.json"), args),
    };
    let split = rest
        .iter()
        .position(|a| a == "--")
        .ok_or("usage: perfbench compare [--spec FILE] A.json… -- B.json…")?;
    let (a, b) = (&rest[..split], &rest[split + 1..]);
    if a.is_empty() || b.is_empty() {
        return Err("both sides of `--` need at least one result file".to_string());
    }
    let bad = compare::run(&spec, a, b)?;
    Ok(if bad == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// `explore-child CSV SECONDS RESULT`: the in-process half of
/// `explore_credit`.
fn explore_child(args: &[String]) -> Result<ExitCode, String> {
    let [csv, seconds, result] = args else {
        return Err("usage: perfbench explore-child CSV SECONDS RESULT".to_string());
    };
    explore::child(
        Path::new(csv),
        parse(seconds, "seconds")?,
        Path::new(result),
    )
    .map_err(|e| e.to_string())?;
    Ok(ExitCode::SUCCESS)
}

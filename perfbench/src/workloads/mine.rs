//! `mine_credit` / `mine_credit_workers2`: the user's batch path, CSV to
//! catalog on disk with the real `qar mine --store`, serial or over two
//! worker processes on loopback TCP.

use std::io;
use std::time::Instant;

use qar_datagen::credit::credit_schema;

use super::{load_repeatedly, mine_args, stderr_tail, Ctx, CREDIT_ROWS, CREDIT_SPEC};
use crate::report::{num, nums, Outcome};
use crate::stats::{median, percentile};
use crate::{gen, proc};

/// Timed mines a run makes at least, however long they take.
pub const MIN_MINES: usize = 3;

/// Run the workload with `workers` worker processes (0 = serial with
/// two counting threads).
///
/// - Set-up: the CSV is loaded into a table, as every mine does first.
/// - One untimed mine with the *other* topology writes the reference
///   catalog; every timed mine's catalog must equal it byte for byte.
/// - Timed: mines until the run's seconds are spent (at least
///   [`MIN_MINES`]); latency is spawn to exit, and peak RSS is the
///   largest `ru_maxrss` the kernel reports for the process tree.
pub fn run(ctx: &Ctx, workers: usize) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    let csv = ctx.work.join("credit.csv");
    gen::write_credit_csv(&csv, CREDIT_ROWS, ctx.seed)?;
    let schema = gen::schema_decls(&credit_schema());
    let (_, setup) = load_repeatedly(&csv, &credit_schema())?;

    let reference = ctx.work.join("reference.qarcat");
    let other = if workers > 0 { 0 } else { 2 };
    let exit = proc::run(&mut ctx.qar(
        &mine_args(&csv, &schema, &CREDIT_SPEC, other, &reference),
        "reference.err",
    )?)?;
    out.check(exit.success(), || {
        format!(
            "reference mine failed: {}",
            stderr_tail(ctx, "reference.err")
        )
    });
    let reference = std::fs::read(&reference).unwrap_or_default();

    let store = ctx.work.join("mined.qarcat");
    let mut walls = Vec::new();
    let mut peak_kib = 0;
    let started = Instant::now();
    while ctx.keep_going(started, walls.len(), MIN_MINES) {
        let _ = std::fs::remove_file(&store);
        let args = mine_args(&csv, &schema, &CREDIT_SPEC, workers, &store);
        let exit = proc::run(&mut ctx.qar(&args, "mine.err")?)?;
        out.check(exit.success(), || {
            format!("qar mine failed: {}", stderr_tail(ctx, "mine.err"))
        });
        if exit.success() {
            let same = std::fs::read(&store).unwrap_or_default() == reference;
            out.check(same, || {
                "catalog differs from the other topology's reference catalog".to_string()
            });
        }
        walls.push(exit.wall.as_secs_f64());
        peak_kib = peak_kib.max(exit.maxrss_kib);
    }

    let p50 = median(&walls);
    out.set("setup_s", median(&setup));
    out.set("latency_p50_ms", p50 * 1e3);
    out.extra("latency_p99_ms", num(percentile(&walls, 99.0) * 1e3));
    out.set("throughput_per_s", CREDIT_ROWS as f64 / p50);
    out.set("peak_rss_mb", peak_kib as f64 / 1024.0);
    out.extra("catalog_bytes", num(reference.len() as f64));
    out.extra("setup_s", nums(&setup));
    out.extra("mine_s", nums(&walls));
    Ok(out)
}

//! `update_stream`: keep a catalog fresh as rows arrive. A base table is
//! mined once with `qar mine --store`; then 20 deltas are appended and
//! each is absorbed with `qar mine --update`. When the update stops with
//! its documented fallback error, the benchmark re-mines the combined CSV
//! from scratch, which is what a user must do. Catalog load/save and the
//! delta scan dominate incremental refreshes; full re-mines dominate
//! fallbacks.

use std::io;
use std::time::Instant;

use super::{mine_args, stderr_tail, Ctx, MineSpec, SETUP_REPEATS, THREADS};
use crate::report::{num, nums, Outcome};
use crate::stats::{median, percentile};
use crate::{gen, proc};

/// Rows of the base table.
pub const BASE_ROWS: usize = 300_000;
/// Rows per appended delta.
pub const DELTA_ROWS: usize = 3_000;
/// Deltas per stream.
pub const DELTAS: usize = 20;
/// Streams a run replays at least.
pub const MIN_STREAMS: usize = 1;

/// Raw-value mining over the six small-domain attributes.
pub const UPDATE_SPEC: MineSpec = MineSpec {
    minsup: gen::UPDATE_MIN_SUPPORT,
    maxsup: 1.0,
    minconf: 0.3,
    completeness: None,
    interest: None,
    max_size: 3,
};

/// How `qar mine --update` words the fallback it cannot take itself.
pub const FALLBACK_MARK: &str = "base rows unavailable for a full re-mine";

/// Run the workload.
///
/// - Set-up: the base mine (`qar mine --store`), repeated; the catalogs
///   must be identical.
/// - Timed: replay the 20-delta stream until the run's seconds are spent
///   (at least once), each stream starting from the base catalog. A
///   refresh is timed from the delta file to the refreshed catalog on
///   disk, by whichever path it took.
/// - Gates: the fallbacks fire on exactly the planned deltas, and the
///   last refreshed catalog equals a scratch mine of the combined CSV.
pub fn run(ctx: &Ctx) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    let stream = gen::write_update_stream(&ctx.work, BASE_ROWS, DELTA_ROWS, DELTAS, ctx.seed)?;
    let schema = gen::schema_decls(&gen::update_schema());
    let mine = |csv: &std::path::Path, store: &std::path::Path| {
        mine_args(csv, &schema, &UPDATE_SPEC, 0, store)
    };
    let mut peak_kib = 0;

    let base_catalog = ctx.work.join("base.qarcat");
    let mut setup = Vec::new();
    let mut base_bytes: Option<Vec<u8>> = None;
    for _ in 0..SETUP_REPEATS {
        let exit = proc::run(&mut ctx.qar(&mine(&stream.base, &base_catalog), "base.err")?)?;
        out.check(exit.success(), || {
            format!("base mine failed: {}", stderr_tail(ctx, "base.err"))
        });
        setup.push(exit.wall.as_secs_f64());
        peak_kib = peak_kib.max(exit.maxrss_kib);
        let bytes = std::fs::read(&base_catalog).unwrap_or_default();
        if let Some(previous) = &base_bytes {
            out.check(&bytes == previous, || {
                "repeated base mines differ".to_string()
            });
        }
        base_bytes = Some(bytes);
    }

    let catalog = ctx.work.join("catalog.qarcat");
    let full = ctx.work.join("full.csv");
    let mut refresh_s = Vec::new();
    let mut streams = 0;
    let started = Instant::now();
    while ctx.keep_going(started, streams, MIN_STREAMS) {
        std::fs::copy(&base_catalog, &catalog)?;
        std::fs::copy(&stream.base, &full)?;
        let mut fell_back = Vec::new();
        for (k, delta) in (1..).zip(&stream.deltas) {
            gen::append_records(&full, delta)?;
            let t = Instant::now();
            let args: Vec<String> = vec![
                "mine".into(),
                "--input".into(),
                delta.display().to_string(),
                "--update".into(),
                catalog.display().to_string(),
                "--threads".into(),
                THREADS.to_string(),
                "--normalize-stats".into(),
            ];
            let exit = proc::run(&mut ctx.qar(&args, "update.err")?)?;
            peak_kib = peak_kib.max(exit.maxrss_kib);
            let ok = if exit.success() {
                true
            } else if stderr_tail(ctx, "update.err").contains(FALLBACK_MARK) {
                fell_back.push(k);
                let remine = proc::run(&mut ctx.qar(&mine(&full, &catalog), "remine.err")?)?;
                peak_kib = peak_kib.max(remine.maxrss_kib);
                remine.success()
            } else {
                false
            };
            refresh_s.push(t.elapsed().as_secs_f64());
            out.check(ok, || {
                format!(
                    "refresh after delta {k} failed: {} {}",
                    stderr_tail(ctx, "update.err"),
                    stderr_tail(ctx, "remine.err")
                )
            });
        }
        out.check(fell_back == stream.fallbacks, || {
            format!(
                "fallbacks on deltas {fell_back:?}, planned {:?}",
                stream.fallbacks
            )
        });
        streams += 1;
    }

    let scratch = ctx.work.join("scratch.qarcat");
    let exit = proc::run(&mut ctx.qar(&mine(&full, &scratch), "scratch.err")?)?;
    out.check(exit.success(), || {
        format!("scratch mine failed: {}", stderr_tail(ctx, "scratch.err"))
    });
    let refreshed = std::fs::read(&catalog).unwrap_or_default();
    out.check(
        refreshed == std::fs::read(&scratch).unwrap_or_default(),
        || "refreshed catalog differs from a scratch mine of the combined CSV".to_string(),
    );

    let absorbed = (streams * DELTAS * DELTA_ROWS) as f64;
    out.set("setup_s", median(&setup));
    out.set("latency_p50_ms", median(&refresh_s) * 1e3);
    out.extra("latency_p99_ms", num(percentile(&refresh_s, 99.0) * 1e3));
    out.set("throughput_per_s", absorbed / refresh_s.iter().sum::<f64>());
    out.set("peak_rss_mb", peak_kib as f64 / 1024.0);
    out.extra("catalog_bytes", num(refreshed.len() as f64));
    out.extra("setup_s", nums(&setup));
    out.extra("refresh_s", nums(&refresh_s));
    out.extra("streams", num(streams as f64));
    Ok(out)
}

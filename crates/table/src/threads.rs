//! Scoped worker threads: the one place the workspace decides how many
//! threads a table-wide step may use and runs work on them.
//!
//! The CSV reader and Steps 1–2 (value histograms and encoding) in this
//! crate, and every sharded counting scan in `qar-core`, run through
//! [`run_sharded`]: the first task on the calling thread, the rest on
//! `std::thread::scope` threads that end with the call. No thread
//! outlives the step that needed it.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Mutex;

/// The most threads one step may use, and the bound on every `--threads`
/// flag: far above the cores a scan is tuned for, far below what an
/// operating system refuses to spawn.
pub const MAX_THREADS: usize = 256;

/// Tables with fewer rows run Steps 1–2 on the calling thread: a column
/// that small takes about as long as spawning a thread for it.
const MIN_ROWS_FOR_THREADS: usize = 1 << 15;

/// The thread count a step uses when its caller sets none: the
/// `QAR_TEST_THREADS` environment variable when it holds a positive
/// integer, else the machine's available parallelism (1 if the operating
/// system cannot say), capped at [`MAX_THREADS`].
///
/// CI sets `QAR_TEST_THREADS` to run the whole test suite through the
/// serial path as well as the default one.
pub fn auto_threads() -> usize {
    if let Some(n) = std::env::var("QAR_TEST_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
    {
        return n;
    }
    std::thread::available_parallelism().map_or(1, |n| n.get().min(MAX_THREADS))
}

/// Run tasks and return their results in task order: task 0 on the
/// calling thread, the rest on threads scoped to this call, so a single
/// task never leaves the caller. Every task settles before this returns;
/// a panicking task is then resumed on the caller with its payload, the
/// first in task order winning.
pub fn run_sharded<T: Send, F: FnOnce() -> T + Send>(tasks: Vec<F>) -> Vec<T> {
    let mut tasks = tasks.into_iter();
    let Some(first) = tasks.next() else {
        return Vec::new();
    };
    let results: Vec<std::thread::Result<T>> = std::thread::scope(|scope| {
        let spawned: Vec<_> = tasks.map(|task| scope.spawn(task)).collect();
        let first = catch_unwind(AssertUnwindSafe(first));
        std::iter::once(first)
            .chain(spawned.into_iter().map(|shard| shard.join()))
            .collect()
    });
    results
        .into_iter()
        .map(|result| result.unwrap_or_else(|panic| resume_unwind(panic)))
        .collect()
}

/// `f(item)` for every item, in item order, computed on up to `threads`
/// threads (the caller's among them). Each thread takes the next item
/// nobody has claimed, so items of uneven cost balance, and an owned item
/// is dropped as soon as its result is made.
pub(crate) fn map_items<I: Send, T: Send>(
    items: Vec<I>,
    threads: usize,
    f: impl Fn(I) -> T + Sync,
) -> Vec<T> {
    let count = items.len();
    let threads = threads.clamp(1, MAX_THREADS).min(count);
    if threads <= 1 {
        return items.into_iter().map(f).collect();
    }
    let queue = Mutex::new(items.into_iter().enumerate());
    let claim = || {
        let mut done = Vec::new();
        loop {
            let next = queue
                .lock()
                .expect("no thread panics while it holds the queue")
                .next();
            match next {
                Some((i, item)) => done.push((i, f(item))),
                None => return done,
            }
        }
    };
    let mut slots: Vec<Option<T>> = (0..count).map(|_| None).collect();
    for (i, value) in run_sharded(vec![&claim; threads]).into_iter().flatten() {
        slots[i] = Some(value);
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("every item was claimed"))
        .collect()
}

/// The threads a per-column step over `rows` rows uses when offered
/// `threads`.
pub(crate) fn column_threads(rows: usize, threads: usize) -> usize {
    if rows < MIN_ROWS_FOR_THREADS {
        1
    } else {
        threads
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_sharded_returns_results_in_shard_order() {
        let data: Vec<u64> = (0..100).collect();
        let chunks: Vec<&[u64]> = data.chunks(9).collect();
        let sums = run_sharded(
            chunks
                .iter()
                .map(|c| move || c.iter().sum::<u64>())
                .collect(),
        );
        let want: Vec<u64> = chunks.iter().map(|c| c.iter().sum()).collect();
        assert_eq!(sums, want);
    }

    #[test]
    fn run_sharded_runs_a_single_shard_inline() {
        let caller = std::thread::current().id();
        let inline = run_sharded(vec![move || std::thread::current().id() == caller]);
        assert_eq!(inline, vec![true]);
    }

    /// Every shard finishes before the first panic in shard order is
    /// resumed on the caller, payload intact.
    #[test]
    fn run_sharded_resumes_the_first_panic_after_every_shard_settles() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let finished = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            run_sharded(
                (0..6)
                    .map(|i| {
                        let finished = &finished;
                        move || {
                            match i {
                                2 => panic!("boom from shard 2"),
                                4 => panic!("boom from shard 4"),
                                _ => {}
                            }
                            finished.fetch_add(1, Ordering::SeqCst);
                        }
                    })
                    .collect::<Vec<_>>(),
            )
        }));
        let payload = result.expect_err("a panicking shard must unwind the caller");
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"boom from shard 2"),
            "the first panic in shard order wins"
        );
        assert_eq!(finished.load(Ordering::SeqCst), 4, "the other shards ran");
    }

    #[test]
    fn map_items_keeps_item_order_at_any_thread_count() {
        let items: Vec<String> = (0..37).map(|i| i.to_string()).collect();
        let want: Vec<usize> = items.iter().map(String::len).collect();
        for threads in [0, 1, 2, 7, 64] {
            let lengths = map_items(items.clone(), threads, |s| s.len());
            assert_eq!(lengths, want, "threads={threads}");
        }
        assert!(map_items(Vec::<u8>::new(), 4, |b| b).is_empty());
    }

    #[test]
    fn auto_threads_is_bounded() {
        let auto = auto_threads();
        assert!(auto >= 1);
        if std::env::var_os("QAR_TEST_THREADS").is_none() {
            assert!(auto <= MAX_THREADS);
        }
    }
}

//! Cooperative cancellation with optional deadlines.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A cloneable cancellation flag, optionally armed with a deadline.
///
/// Cancellation is *cooperative*: the miner checks the token at pass
/// boundaries and periodically inside each shard's record scan, so a
/// cancelled run stops within roughly one check interval of work and
/// returns the statistics of the passes it completed. Cloning is cheap
/// (one `Arc`); all clones observe the same flag.
///
/// ```
/// use qar_trace::CancelToken;
///
/// let token = CancelToken::new();
/// let observer = token.clone();
/// assert!(!observer.is_cancelled());
/// token.cancel();
/// assert!(observer.is_cancelled());
/// ```
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

#[derive(Debug, Default)]
struct Inner {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A token that only cancels when [`CancelToken::cancel`] is called.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// A token that additionally reports cancelled once `timeout` has
    /// elapsed from now.
    pub fn with_deadline(timeout: Duration) -> Self {
        CancelToken {
            inner: Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline: Some(Instant::now() + timeout),
            }),
        }
    }

    /// Request cancellation. Idempotent; visible to every clone.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Release);
    }

    /// True once [`CancelToken::cancel`] was called or the deadline (if
    /// any) has passed.
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::Acquire) || self.deadline_exceeded()
    }

    /// The time left before the deadline (zero once it has passed), or
    /// `None` for a token without one: what a request handing the
    /// deadline on to another process carries.
    pub fn time_left(&self) -> Option<Duration> {
        self.inner
            .deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }

    /// True when this token has a deadline and it has passed — lets
    /// reporting distinguish "aborted by the caller" from "timed out".
    pub fn deadline_exceeded(&self) -> bool {
        self.inner.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manual_cancel_propagates_to_clones() {
        let a = CancelToken::new();
        let b = a.clone();
        assert!(!a.is_cancelled() && !b.is_cancelled());
        b.cancel();
        assert!(a.is_cancelled());
        assert!(!a.deadline_exceeded());
    }

    #[test]
    fn zero_deadline_is_immediately_cancelled() {
        let t = CancelToken::with_deadline(Duration::ZERO);
        assert!(t.is_cancelled());
        assert!(t.deadline_exceeded());
        assert_eq!(t.time_left(), Some(Duration::ZERO));
        assert_eq!(CancelToken::new().time_left(), None);
        let later = CancelToken::with_deadline(Duration::from_secs(60));
        assert!(later.time_left().unwrap() > Duration::from_secs(59));
    }

    #[test]
    fn far_deadline_is_not_cancelled_yet() {
        let t = CancelToken::with_deadline(Duration::from_secs(3600));
        assert!(!t.is_cancelled());
        t.cancel();
        assert!(t.is_cancelled());
        assert!(!t.deadline_exceeded());
    }
}

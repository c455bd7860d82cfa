//! Cooperative cancellation for request-scoped work.
//!
//! A [`CancelToken`] is created at the edge (the HTTP server stamps one
//! per request from the client's deadline header or the configured
//! default) and passed down through `Store::answer` into the query
//! executor, which polls it between branches and trie roots and every
//! [`CANCEL_POLL_STRIDE`] matched triples inside the walk. Cancellation
//! is *cooperative*: nothing is interrupted mid-step, so the executor
//! observes the token only between units of work and can discard its
//! partial state cleanly — no shared structure is ever left
//! half-written.
//!
//! The token lives in `obs` because it is the one crate every evaluation
//! layer (sparql, rdfs, durability, core, server) already depends on; a
//! deadline is observability-adjacent anyway — it is the request's time
//! budget.
//!
//! Three flavours:
//!
//! * [`CancelToken::none`] — never cancels, zero allocation; the default
//!   for call sites without a request context (CLI, tests, the writer's
//!   maintenance path, which must run to completion for atomicity).
//! * [`CancelToken::with_deadline`] — cancels once the wall-clock budget
//!   is exhausted, or when [`CancelToken::cancel`] is called (client
//!   disconnect).
//! * [`CancelToken::trip_after_checks`] — deterministic test mode:
//!   cancels on the *n*-th [`is_cancelled`](CancelToken::is_cancelled)
//!   poll, independent of timing, so cancellation-correctness tests can
//!   hit every poll site exactly without sleeps.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Units of work (matched triples joined) between two polls inside a
/// loop. Small enough that an expired deadline stops a query within
/// microseconds of work; large enough that the poll (one
/// atomic load) never shows up in a profile.
pub const CANCEL_POLL_STRIDE: usize = 512;

/// Disables the deterministic trip-after-checks test mode.
const TRIP_DISABLED: u64 = u64::MAX;

#[derive(Debug)]
struct Inner {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
    /// Test hook: poll index (1-based) on which the token trips.
    trip_at_check: u64,
    checks: AtomicU64,
}

/// A cloneable, thread-safe cancellation handle. Clones share state:
/// cancelling any clone cancels them all.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    inner: Option<Arc<Inner>>,
}

impl CancelToken {
    /// A token that never cancels. Zero allocation; every poll is a
    /// single `Option` check.
    pub fn none() -> CancelToken {
        CancelToken { inner: None }
    }

    /// A token with no deadline that cancels only via
    /// [`cancel`](CancelToken::cancel) (e.g. on client disconnect).
    pub fn new() -> CancelToken {
        CancelToken {
            inner: Some(Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline: None,
                trip_at_check: TRIP_DISABLED,
                checks: AtomicU64::new(0),
            })),
        }
    }

    /// A token that cancels once `budget` has elapsed (measured from this
    /// call), or earlier via [`cancel`](CancelToken::cancel).
    pub fn with_deadline(budget: Duration) -> CancelToken {
        CancelToken {
            inner: Some(Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline: Instant::now().checked_add(budget),
                trip_at_check: TRIP_DISABLED,
                checks: AtomicU64::new(0),
            })),
        }
    }

    /// Deterministic test mode: the token trips on its `n`-th
    /// [`is_cancelled`](CancelToken::is_cancelled) poll (1-based; `0`
    /// trips on the first poll). Checks are counted across all clones.
    pub fn trip_after_checks(n: u64) -> CancelToken {
        CancelToken {
            inner: Some(Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline: None,
                trip_at_check: n.max(1),
                checks: AtomicU64::new(0),
            })),
        }
    }

    /// Cancels the token (and every clone). Idempotent.
    pub fn cancel(&self) {
        if let Some(inner) = &self.inner {
            inner.cancelled.store(true, Ordering::SeqCst);
        }
    }

    /// Polls the token. `true` once cancelled — explicitly, past the
    /// deadline, or (test mode) past the configured poll count. Sticky:
    /// once `true`, always `true`.
    pub fn is_cancelled(&self) -> bool {
        let Some(inner) = &self.inner else {
            return false;
        };
        if inner.cancelled.load(Ordering::SeqCst) {
            return true;
        }
        if inner.trip_at_check != TRIP_DISABLED {
            let check = inner.checks.fetch_add(1, Ordering::SeqCst) + 1;
            if check >= inner.trip_at_check {
                inner.cancelled.store(true, Ordering::SeqCst);
                return true;
            }
            return false;
        }
        if let Some(d) = inner.deadline {
            if Instant::now() >= d {
                inner.cancelled.store(true, Ordering::SeqCst);
                return true;
            }
        }
        false
    }

    /// Whether the token can ever cancel (false only for
    /// [`CancelToken::none`]). Lets admission control skip shedding
    /// requests that never declared a budget.
    pub fn can_cancel(&self) -> bool {
        self.inner.is_some()
    }

    /// Time left before the deadline. `None` when the token has no
    /// deadline; `Some(ZERO)` once it has passed.
    pub fn remaining(&self) -> Option<Duration> {
        let inner = self.inner.as_ref()?;
        let d = inner.deadline?;
        Some(d.saturating_duration_since(Instant::now()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_never_cancels() {
        let t = CancelToken::none();
        assert!(!t.is_cancelled());
        t.cancel(); // no-op
        assert!(!t.is_cancelled());
        assert!(!t.can_cancel());
        assert_eq!(t.remaining(), None);
    }

    #[test]
    fn explicit_cancel_is_shared_and_sticky() {
        let t = CancelToken::new();
        let clone = t.clone();
        assert!(!clone.is_cancelled());
        t.cancel();
        assert!(clone.is_cancelled(), "clones share the flag");
        assert!(t.is_cancelled(), "sticky");
    }

    #[test]
    fn deadline_trips_after_budget() {
        let t = CancelToken::with_deadline(Duration::from_millis(5));
        assert!(t.remaining().is_some());
        std::thread::sleep(Duration::from_millis(10));
        assert!(t.is_cancelled());
        assert_eq!(t.remaining(), Some(Duration::ZERO));
    }

    #[test]
    fn zero_budget_is_immediately_expired() {
        let t = CancelToken::with_deadline(Duration::ZERO);
        assert!(t.is_cancelled());
    }

    #[test]
    fn trip_after_checks_is_deterministic() {
        let t = CancelToken::trip_after_checks(3);
        assert!(!t.is_cancelled(), "check 1");
        assert!(!t.is_cancelled(), "check 2");
        assert!(t.is_cancelled(), "check 3 trips");
        assert!(t.is_cancelled(), "sticky after tripping");
    }
}

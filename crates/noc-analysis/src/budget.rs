//! Cooperative solve budgets: deadlines and cancellation for the solver.
//!
//! A fixed-point solve is CPU-bound and, on pathological inputs (huge
//! deadlines with near-saturating interference), can spin for a long time
//! before the iteration safety cap trips. Serving layers need a cheaper,
//! *time-based* way out: a [`Budget`] carries an optional wall-clock
//! deadline plus a cancellation flag, and the solver polls it — one atomic
//! load every [`Budget::POLL_ITERATIONS`] fixed-point iterations, plus once
//! per flow — aborting the solve with
//! [`AnalysisError::DeadlineExceeded`](crate::error::AnalysisError) when it
//! has expired.
//!
//! A `Budget` is plain shared state (`Sync`, interior mutability): hand the
//! solving thread a `&Budget` and any other thread holding the same
//! reference can [`Budget::cancel`] it mid-solve. Unbudgeted solves run
//! under [`Budget::unlimited`], whose polls are one relaxed atomic load
//! each — no clock is read and nothing is allocated.
//!
//! ```
//! use noc_analysis::budget::Budget;
//! use std::time::Duration;
//!
//! let budget = Budget::with_deadline(Duration::from_millis(50));
//! assert!(!budget.is_exceeded());
//! budget.cancel();
//! assert!(budget.is_exceeded());
//! ```

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// A cooperative cancellation token with an optional wall-clock deadline.
///
/// Checked by the solver via [`Budget::is_exceeded`]; see the
/// [module docs](self) for the polling contract. The flag is sticky: once
/// exceeded (by deadline or by [`Budget::cancel`]), a budget stays exceeded.
pub struct Budget {
    /// Sticky "stop now" flag; also caches a passed deadline so later polls
    /// skip the clock read.
    cancelled: AtomicBool,
    /// Absolute expiry instant, if a deadline was requested.
    deadline: Option<Instant>,
}

impl Budget {
    /// The solver polls the budget every this many fixed-point iterations
    /// (and once at the start of every flow). Small enough that a single
    /// flow cannot overrun a deadline by a human-noticeable amount, large
    /// enough that the `Instant::now` clock read vanishes in the iteration
    /// cost.
    pub const POLL_ITERATIONS: u64 = 256;

    /// A budget with no deadline: only [`Budget::cancel`] can exceed it.
    pub fn unlimited() -> Budget {
        Budget {
            cancelled: AtomicBool::new(false),
            deadline: None,
        }
    }

    /// A budget that expires `limit` from now.
    ///
    /// A zero `limit` yields a budget that is already exceeded at the first
    /// poll — the deterministic way to force the degraded path in tests and
    /// fault-injection harnesses.
    pub fn with_deadline(limit: Duration) -> Budget {
        Budget {
            cancelled: AtomicBool::new(false),
            deadline: Some(Instant::now() + limit),
        }
    }

    /// Marks the budget exceeded immediately (idempotent; callable from any
    /// thread holding a shared reference).
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Relaxed);
    }

    /// `true` once the budget has been cancelled or its deadline passed.
    ///
    /// Cheap: one relaxed atomic load, plus a clock read only while an
    /// unexpired deadline is pending (a passed deadline latches into the
    /// flag).
    #[inline]
    pub fn is_exceeded(&self) -> bool {
        if self.cancelled.load(Ordering::Relaxed) {
            return true;
        }
        match self.deadline {
            Some(deadline) if Instant::now() >= deadline => {
                self.cancelled.store(true, Ordering::Relaxed);
                true
            }
            _ => false,
        }
    }
}

impl fmt::Debug for Budget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Budget")
            .field("cancelled", &self.cancelled.load(Ordering::Relaxed))
            .field("deadline", &self.deadline)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_expires_until_cancelled() {
        let b = Budget::unlimited();
        assert!(!b.is_exceeded());
        b.cancel();
        assert!(b.is_exceeded());
        assert!(b.is_exceeded(), "cancellation is sticky");
    }

    #[test]
    fn zero_deadline_is_exceeded_at_first_poll() {
        let b = Budget::with_deadline(Duration::ZERO);
        assert!(b.is_exceeded());
    }

    #[test]
    fn generous_deadline_is_not_exceeded_immediately() {
        let b = Budget::with_deadline(Duration::from_secs(3600));
        assert!(!b.is_exceeded());
    }

    #[test]
    fn budget_is_sync() {
        fn assert_sync<T: Sync + Send>() {}
        assert_sync::<Budget>();
    }
}

//! Fixed-bucket latency histograms and span timers.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

use crate::snapshot::{register, Metric};

/// Number of power-of-two buckets: bucket `i` holds values in
/// `[2^i, 2^(i+1))` nanoseconds (bucket 0 also takes 0), so 40 buckets
/// cover up to ~18 minutes — far beyond any single query or solve.
pub(crate) const BUCKETS: usize = 40;

/// A fixed-bucket histogram of nanosecond observations.
///
/// Buckets are powers of two, so recording is a leading-zeros computation
/// and one relaxed `fetch_add` — no allocation, no locks, safe to share
/// across worker threads as a `static`. Quantiles ([`Histogram::quantile`])
/// are upper-bound estimates: the bucket boundary at or above the true
/// value, i.e. never more than 2× the exact quantile.
pub struct Histogram {
    name: &'static str,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
    registered: AtomicBool,
}

impl Histogram {
    /// A new histogram named `name` (conventionally suffixed `_ns`).
    pub const fn new(name: &'static str) -> Histogram {
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        Histogram {
            name,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            buckets: [ZERO; BUCKETS],
            registered: AtomicBool::new(false),
        }
    }

    /// Records one observation of `ns` nanoseconds; a no-op unless
    /// [`crate::enabled`].
    #[inline]
    pub fn record_ns(&'static self, ns: u64) {
        if !crate::enabled() {
            return;
        }
        if !self.registered.load(Ordering::Relaxed)
            && self
                .registered
                .compare_exchange(false, true, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
        {
            register(Metric::Histogram(self));
        }
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(ns, Ordering::Relaxed);
        self.max.fetch_max(ns, Ordering::Relaxed);
        self.buckets[bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
    }

    /// Starts a span whose elapsed wall-clock time is recorded into this
    /// histogram when the returned guard drops. When telemetry is
    /// disabled the guard holds no clock and the drop is a no-op.
    #[inline]
    pub fn span(&'static self) -> Span {
        Span {
            hist: self,
            start: crate::enabled().then(Instant::now),
        }
    }

    /// The metric name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Largest recorded observation (0 if empty).
    pub fn max_ns(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Mean observation, `None` if empty.
    pub fn mean_ns(&self) -> Option<f64> {
        let n = self.count();
        (n > 0).then(|| self.sum.load(Ordering::Relaxed) as f64 / n as f64)
    }

    /// Upper-bound estimate of the `q`-quantile (`0.0..=1.0`), `None` if
    /// empty: the inclusive upper edge of the bucket holding the
    /// nearest-rank sample, clamped to the observed maximum.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `0.0..=1.0`.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        assert!((0.0..=1.0).contains(&q), "quantile must be in 0..=1");
        let total = self.count();
        if total == 0 {
            return None;
        }
        let rank = ((q * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return Some(bucket_upper(i).min(self.max_ns()));
            }
        }
        Some(self.max_ns())
    }

    /// `(inclusive upper bound, count)` of every non-empty bucket, in
    /// ascending order.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let n = b.load(Ordering::Relaxed);
                (n > 0).then_some((bucket_upper(i), n))
            })
            .collect()
    }

    pub(crate) fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }
}

impl fmt::Debug for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Histogram")
            .field("name", &self.name)
            .field("count", &self.count())
            .field("max_ns", &self.max_ns())
            .finish()
    }
}

/// Bucket index of an observation: `floor(log2(ns))`, clamped.
#[inline]
fn bucket_of(ns: u64) -> usize {
    (63 - (ns | 1).leading_zeros() as usize).min(BUCKETS - 1)
}

/// Inclusive upper bound of bucket `i`.
fn bucket_upper(i: usize) -> u64 {
    if i + 1 >= 64 {
        u64::MAX
    } else {
        (1u64 << (i + 1)) - 1
    }
}

/// A RAII timer from [`Histogram::span`]: records the elapsed nanoseconds
/// into its histogram on drop. Holds no clock when telemetry is disabled.
#[derive(Debug)]
pub struct Span {
    hist: &'static Histogram,
    start: Option<Instant>,
}

impl Span {
    /// `true` when this span is actually timing (telemetry was enabled at
    /// start).
    pub fn is_active(&self) -> bool {
        self.start.is_some()
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.hist.record_ns(ns);
        }
    }
}

#[cfg(all(test, feature = "enabled"))]
mod tests {
    use super::*;

    static HIST: Histogram = Histogram::new("test.hist");
    static SPANNED: Histogram = Histogram::new("test.hist.spanned");

    #[test]
    fn buckets_quantiles_and_spans() {
        let _gate = crate::test_gate();
        crate::set_enabled(true);
        HIST.reset();
        for ns in [100, 200, 400, 800, 100_000] {
            HIST.record_ns(ns);
        }
        assert_eq!(HIST.count(), 5);
        assert_eq!(HIST.max_ns(), 100_000);
        // The nearest-rank p50 sample is 400, in bucket [256, 512).
        assert_eq!(HIST.quantile(0.5), Some(511));
        // The top quantile is clamped to the exact max.
        assert_eq!(HIST.quantile(1.0), Some(100_000));
        assert_eq!(HIST.mean_ns(), Some(20_300.0));
        assert_eq!(HIST.nonzero_buckets().len(), 5);

        {
            let span = SPANNED.span();
            assert!(span.is_active());
        }
        assert_eq!(SPANNED.count(), 1);

        crate::set_enabled(false);
        HIST.record_ns(1);
        assert_eq!(HIST.count(), 5, "disabled recording must not count");
        let span = SPANNED.span();
        assert!(!span.is_active());
        drop(span);
        assert_eq!(SPANNED.count(), 1);
        HIST.reset();
        SPANNED.reset();
    }

    #[test]
    fn bucket_indexing_is_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(1023), 9);
        assert_eq!(bucket_of(1024), 10);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
        assert_eq!(bucket_upper(0), 1);
        assert_eq!(bucket_upper(9), 1023);
    }
}

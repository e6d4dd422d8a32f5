//! Atomic counters and high-water-mark gauges.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use crate::snapshot::{register, Metric};

/// A monotonically increasing `u64` metric.
///
/// Declare as a `static` and bump it from anywhere; the counter registers
/// itself in the global registry on its first recorded increment, so
/// [`crate::snapshot`] only reports metrics that were actually touched.
/// All operations are relaxed atomics — counters are statistics, not
/// synchronisation.
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
    registered: AtomicBool,
}

impl Counter {
    /// A new counter named `name` (conventionally dotted lower-case,
    /// e.g. `"analysis.solver.iterations"`).
    pub const fn new(name: &'static str) -> Counter {
        Counter {
            name,
            value: AtomicU64::new(0),
            registered: AtomicBool::new(false),
        }
    }

    /// Adds `n`; a no-op unless [`crate::enabled`].
    #[inline]
    pub fn add(&'static self, n: u64) {
        if !crate::enabled() {
            return;
        }
        self.ensure_registered();
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one; a no-op unless [`crate::enabled`].
    #[inline]
    pub fn incr(&'static self) {
        self.add(1);
    }

    /// The current value (0 if never recorded).
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// The metric name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    pub(crate) fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }

    #[inline]
    fn ensure_registered(&'static self) {
        if !self.registered.load(Ordering::Relaxed)
            && self
                .registered
                .compare_exchange(false, true, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
        {
            register(Metric::Counter(self));
        }
    }
}

impl fmt::Debug for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Counter")
            .field("name", &self.name)
            .field("value", &self.get())
            .finish()
    }
}

/// An atomic high-water mark: [`MaxGauge::record`] keeps the maximum of
/// every observation (e.g. peak buffer occupancy).
pub struct MaxGauge {
    name: &'static str,
    value: AtomicU64,
    registered: AtomicBool,
}

impl MaxGauge {
    /// A new gauge named `name`, starting at 0.
    pub const fn new(name: &'static str) -> MaxGauge {
        MaxGauge {
            name,
            value: AtomicU64::new(0),
            registered: AtomicBool::new(false),
        }
    }

    /// Raises the high-water mark to `v` if larger; a no-op unless
    /// [`crate::enabled`].
    #[inline]
    pub fn record(&'static self, v: u64) {
        if !crate::enabled() {
            return;
        }
        if !self.registered.load(Ordering::Relaxed)
            && self
                .registered
                .compare_exchange(false, true, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
        {
            register(Metric::Gauge(self));
        }
        self.value.fetch_max(v, Ordering::Relaxed);
    }

    /// The highest recorded value (0 if never recorded).
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// The metric name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    pub(crate) fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

impl fmt::Debug for MaxGauge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MaxGauge")
            .field("name", &self.name)
            .field("value", &self.get())
            .finish()
    }
}

#[cfg(all(test, feature = "enabled"))]
mod tests {
    use super::*;

    static DISABLED: Counter = Counter::new("test.counter.disabled");
    static GAUGE_OFF: MaxGauge = MaxGauge::new("test.gauge.disabled");

    #[test]
    fn disabled_recording_leaves_zero() {
        let _gate = crate::test_gate();
        crate::set_enabled(false);
        DISABLED.add(7);
        DISABLED.incr();
        GAUGE_OFF.record(9);
        assert_eq!(DISABLED.get(), 0);
        assert_eq!(GAUGE_OFF.get(), 0);
    }
}

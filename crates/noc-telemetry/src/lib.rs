//! Lightweight, dependency-free instrumentation for the `noc-mpb`
//! workspace.
//!
//! The solver (`noc-analysis`), the simulator (`noc-sim`) and the serving
//! layer (`noc-serve`) are performance-critical engines; this crate gives
//! them a shared measurement substrate so perf work can cite internal
//! counters (solver iterations, dirty-bit hit rates, skipped idle cycles,
//! credit-stall bubbles, per-query latency percentiles) instead of
//! wall-clock numbers alone.
//!
//! # Primitives
//!
//! * [`Counter`] — a monotonically increasing atomic `u64`;
//! * [`MaxGauge`] — an atomic high-water mark (`fetch_max`);
//! * [`Histogram`] — a fixed power-of-two-bucket latency histogram with
//!   [`Histogram::span`] timers that record elapsed nanoseconds on drop;
//! * [`events`] — a bounded, drainable sink of structured JSON trace
//!   events.
//!
//! All metrics are declared as `static` items and register themselves in a
//! global registry on first touch; [`snapshot`] returns every metric
//! recorded so far, sorted by name, with JSON renderers for machine
//! consumption (the `query_server` metrics block and `SERVE_metrics.json`).
//!
//! # Two gates, zero default cost
//!
//! Recording is off unless **both** gates are open:
//!
//! 1. the `enabled` cargo feature (on by default; building this crate with
//!    `--no-default-features` turns every entry point into a compile-time
//!    no-op), and
//! 2. the `NOC_TELEMETRY` environment variable (`1` or `true`), read once
//!    per process and cached — or a programmatic [`set_enabled`] override.
//!
//! With the feature on but the env var unset (the default), every
//! recording call is a single relaxed atomic load and a predicted branch;
//! nothing is allocated, registered or counted, and analyses/simulations
//! are bit-identical to a telemetry-less build (pinned by the workspace's
//! `telemetry_neutrality` integration test).
//!
//! ```
//! use noc_telemetry::{Counter, Histogram};
//!
//! static QUERIES: Counter = Counter::new("doc.queries");
//! static LATENCY: Histogram = Histogram::new("doc.latency_ns");
//!
//! # #[cfg(feature = "enabled")] {
//! noc_telemetry::set_enabled(true);
//! QUERIES.incr();
//! {
//!     let _span = LATENCY.span(); // records elapsed ns on drop
//! }
//! let snap = noc_telemetry::snapshot();
//! assert_eq!(snap.counter("doc.queries"), Some(1));
//! noc_telemetry::set_enabled(false);
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod counter;
pub mod events;
mod histogram;
mod meta;
mod snapshot;

pub use counter::{Counter, MaxGauge};
pub use histogram::{Histogram, Span};
pub use meta::git_commit;
pub use snapshot::{
    reset_all, snapshot, CounterSnapshot, GaugeSnapshot, HistogramSnapshot, Snapshot,
};

#[cfg(feature = "enabled")]
mod gate {
    use std::sync::atomic::{AtomicU8, Ordering};

    const UNINIT: u8 = 0;
    const OFF: u8 = 1;
    const ON: u8 = 2;

    static STATE: AtomicU8 = AtomicU8::new(UNINIT);

    /// `true` when recording is active. First call consults
    /// `NOC_TELEMETRY`; later calls are one relaxed load.
    #[inline]
    pub fn enabled() -> bool {
        match STATE.load(Ordering::Relaxed) {
            OFF => false,
            ON => true,
            _ => init(),
        }
    }

    #[cold]
    fn init() -> bool {
        let on = std::env::var("NOC_TELEMETRY")
            .map(|v| v == "1" || v.eq_ignore_ascii_case("true"))
            .unwrap_or(false);
        STATE.store(if on { ON } else { OFF }, Ordering::Relaxed);
        on
    }

    pub fn set_enabled(on: bool) {
        STATE.store(if on { ON } else { OFF }, Ordering::Relaxed);
    }
}

#[cfg(not(feature = "enabled"))]
mod gate {
    /// Compile-time `false`: every recording body folds away entirely.
    #[inline(always)]
    pub const fn enabled() -> bool {
        false
    }

    pub fn set_enabled(_on: bool) {}
}

/// `true` when telemetry recording is active for this process.
///
/// Reads `NOC_TELEMETRY` once (accepting `1` or `true`) and caches the
/// answer; [`set_enabled`] overrides it. Always `false` when the `enabled`
/// cargo feature is off.
#[inline]
pub fn enabled() -> bool {
    gate::enabled()
}

/// Programmatically overrides the `NOC_TELEMETRY` gate — the test hook for
/// exercising both modes in one process without touching the environment.
///
/// A no-op when the `enabled` cargo feature is off.
pub fn set_enabled(on: bool) {
    gate::set_enabled(on)
}

/// Serialises tests that flip the process-global gate. Poisoning is
/// irrelevant — the lock guards no data.
#[cfg(all(test, feature = "enabled"))]
pub(crate) fn test_gate() -> std::sync::MutexGuard<'static, ()> {
    static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    #[test]
    #[cfg(feature = "enabled")]
    fn set_enabled_overrides_env_gate() {
        let _gate = super::test_gate();
        // Do not assume the initial state (the env var may be set); just
        // check both overrides stick, and leave telemetry off.
        super::set_enabled(true);
        assert!(super::enabled());
        super::set_enabled(false);
        assert!(!super::enabled());
    }

    #[test]
    #[cfg(not(feature = "enabled"))]
    fn disabled_feature_is_constant_false() {
        super::set_enabled(true);
        assert!(!super::enabled());
    }
}

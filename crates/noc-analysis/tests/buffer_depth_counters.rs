//! The buffer-depth counters: a kept report counts once when filled, each
//! answer counts as served from the store or solved unkept, and a spent
//! budget counts as neither, but as one deadline hit, as it does for a
//! warm-up. With telemetry off, none of them moves.
//!
//! One test in its own process, because the telemetry gate and the
//! counters are process-global state.

use noc_analysis::metrics;
use noc_analysis::prelude::*;
use noc_workload::didactic;

/// The counters under test, in a comparable form.
fn counters() -> [u64; 4] {
    [
        metrics::BUFFER_DEPTH_FILLED.get(),
        metrics::BUFFER_DEPTH_SERVED.get(),
        metrics::BUFFER_DEPTH_UNKEPT.get(),
        metrics::SOLVER_DEADLINE_HITS.get(),
    ]
}

#[test]
fn kept_buffer_depths_are_counted_only_when_telemetry_is_on() {
    let kind = AnalysisKind::BufferAware;
    let unlimited = Budget::unlimited();
    let sys = didactic::system(2);

    // Off: a fill, a kept answer and an unkept one move nothing.
    noc_telemetry::set_enabled(false);
    let before = counters();
    let quiet = AnalysisContext::new(&sys).unwrap();
    quiet.warm_buffer_depths(kind, &[4], 1);
    quiet.analyze_at_buffer_depth(kind, 4, &unlimited).unwrap();
    quiet.analyze_at_buffer_depth(kind, 5, &unlimited).unwrap();
    assert_eq!(counters(), before);

    #[cfg(feature = "telemetry")]
    counted_when_on(kind, &sys);
}

/// On: each fill, kept answer, unkept answer and deadline hit counts.
#[cfg(feature = "telemetry")]
fn counted_when_on(kind: AnalysisKind, sys: &noc_model::system::System) {
    use noc_analysis::context::KEPT_BUFFER_DEPTHS;

    let unlimited = Budget::unlimited();
    noc_telemetry::set_enabled(true);
    let base = AnalysisContext::new(sys).unwrap();
    let [filled, served, unkept, hits] = counters();
    base.warm_buffer_depths(kind, &[4, 4], 2);
    base.warm_buffer_depths(kind, &[4], 1);
    assert_eq!(counters(), [filled + 1, served, unkept, hits]);
    base.analyze_at_buffer_depth(kind, 4, &unlimited).unwrap();
    base.analyze_at_buffer_depth(kind, 4, &unlimited).unwrap();
    assert_eq!(counters(), [filled + 1, served + 2, unkept, hits]);
    base.analyze_at_buffer_depth(kind, 5, &unlimited).unwrap();
    assert_eq!(counters(), [filled + 1, served + 2, unkept + 1, hits]);

    // A spent budget fails an answer as a deadline hit, kept or not.
    let cancelled = Budget::unlimited();
    cancelled.cancel();
    assert!(base.analyze_at_buffer_depth(kind, 4, &cancelled).is_err());
    assert_eq!(counters(), [filled + 1, served + 2, unkept + 1, hits + 1]);
    // So does a warm-up, once, before it lays anything out.
    assert!(base.warm(kind, &cancelled).is_err());
    assert_eq!(counters(), [filled + 1, served + 2, unkept + 1, hits + 2]);

    // A full store fills nothing more, and its later depths solve unkept.
    let depths: Vec<u32> = (5..4 + KEPT_BUFFER_DEPTHS as u32).collect();
    base.warm_buffer_depths(kind, &depths, 2);
    let full = counters();
    assert_eq!(full[0], filled + KEPT_BUFFER_DEPTHS as u64);
    let past = 4 + KEPT_BUFFER_DEPTHS as u32;
    assert_eq!(base.warm_buffer_depths(kind, &[past], 1), 0);
    base.analyze_at_buffer_depth(kind, past, &unlimited)
        .unwrap();
    assert_eq!(counters(), [full[0], full[1], full[2] + 1, full[3]]);
    noc_telemetry::set_enabled(false);
}

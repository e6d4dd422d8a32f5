//! The fork and cache counters: a fork counts as warm or cold by what its
//! base kept, and a cached solve counts the re-solves that changed
//! nothing. With telemetry off, none of them moves.
//!
//! One test in its own process, because the telemetry gate and the
//! counters are process-global state.

use noc_analysis::metrics;
use noc_analysis::prelude::*;
use noc_workload::synthetic::SyntheticSpec;

/// The counters under test, in a comparable form.
fn counters() -> [u64; 5] {
    [
        metrics::FORK_WARM.get(),
        metrics::FORK_COLD.get(),
        metrics::CACHE_DIRTY_SOLVED.get(),
        metrics::CACHE_CLEAN_REUSED.get(),
        metrics::CACHE_UNCHANGED_RESOLVES.get(),
    ]
}

#[test]
fn forks_and_re_solves_are_counted_only_when_telemetry_is_on() {
    let kind = AnalysisKind::BufferAware;
    let sys = SyntheticSpec::paper(6, 6, 80, 2).generate(1).into_system();
    let base = AnalysisContext::new(&sys).unwrap();

    // Off: a cold fork, a warm-up and a warm fork's solve move nothing.
    noc_telemetry::set_enabled(false);
    let before = counters();
    IncrementalContext::from_context(&base)
        .analyze(kind)
        .unwrap();
    base.warm(kind, &Budget::unlimited()).unwrap();
    IncrementalContext::from_context(&base)
        .analyze(kind)
        .unwrap();
    assert_eq!(counters(), before);

    #[cfg(feature = "telemetry")]
    counted_when_on(&base);
}

/// On: forks count by what `base` (warmed for IBN) kept, and re-solves by
/// whether they changed anything.
#[cfg(feature = "telemetry")]
fn counted_when_on(base: &AnalysisContext<'_>) {
    use noc_model::ids::RouterId;

    let kind = AnalysisKind::BufferAware;
    let sys = base.system();
    let n = sys.flows().len() as u64;
    noc_telemetry::set_enabled(true);
    let cold = AnalysisContext::new(sys).unwrap();
    let [warm0, cold0, dirty0, clean0, same0] = counters();
    IncrementalContext::from_context(&cold);
    assert_eq!(counters(), [warm0, cold0 + 1, dirty0, clean0, same0]);

    // A warm fork's first solve reuses every flow.
    let mut fork = IncrementalContext::from_context(base);
    fork.analyze(kind).unwrap();
    assert_eq!(
        counters(),
        [warm0 + 1, cold0 + 1, dirty0, clean0 + n, same0]
    );

    // Resizing a router to the depth it has marks its dependents; each is
    // re-solved, comes out as before, and wakes nothing below it.
    let router = RouterId::new(7);
    let depth = fork.system().buffer_depth_at(router);
    fork.resize_buffer(router, depth);
    fork.analyze(kind).unwrap();
    let [_, _, dirty1, clean1, same1] = counters();
    assert!(dirty1 > dirty0, "the resize re-solved nothing");
    assert_eq!(same1 - same0, dirty1 - dirty0);
    assert_eq!((dirty1 - dirty0) + (clean1 - clean0 - n), n);

    // A real resize changes some of them.
    fork.resize_buffer(router, depth + 6);
    fork.analyze(kind).unwrap();
    let [_, _, dirty2, _, same2] = counters();
    assert!(same2 - same1 < dirty2 - dirty1);
    noc_telemetry::set_enabled(false);
}

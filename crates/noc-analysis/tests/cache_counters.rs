//! The fork and cache counters: a fork counts as warm or cold by what its
//! base kept, and a cached solve counts the re-solves that changed
//! nothing and the edge terms its re-solves kept or recomputed. With
//! telemetry off, none of them moves.
//!
//! One test in its own process, because the telemetry gate and the
//! counters are process-global state.

use noc_analysis::metrics;
use noc_analysis::prelude::*;
use noc_workload::synthetic::SyntheticSpec;

/// The counters under test, in a comparable form.
fn counters() -> [u64; 7] {
    [
        metrics::FORK_WARM.get(),
        metrics::FORK_COLD.get(),
        metrics::CACHE_DIRTY_SOLVED.get(),
        metrics::CACHE_CLEAN_REUSED.get(),
        metrics::CACHE_UNCHANGED_RESOLVES.get(),
        metrics::CACHE_EDGES_REUSED.get(),
        metrics::CACHE_EDGES_RECOMPUTED.get(),
    ]
}

#[test]
fn forks_and_re_solves_are_counted_only_when_telemetry_is_on() {
    let kind = AnalysisKind::BufferAware;
    let sys = SyntheticSpec::paper(6, 6, 80, 2).generate(1).into_system();
    let base = AnalysisContext::new(&sys).unwrap();

    // Off: a cold fork, a warm-up, a warm fork's solve and its re-solve
    // after a resize move nothing.
    noc_telemetry::set_enabled(false);
    let before = counters();
    AnalysisContext::from_context(&base).analyze(kind).unwrap();
    base.warm(kind, &Budget::unlimited()).unwrap();
    let mut fork = AnalysisContext::from_context(&base);
    fork.analyze(kind).unwrap();
    fork.resize_buffer(noc_model::ids::RouterId::new(7), 5);
    fork.analyze(kind).unwrap();
    assert_eq!(counters(), before);

    #[cfg(feature = "telemetry")]
    counted_when_on(&base);
}

/// On: forks count by what `base` (warmed for IBN) kept, re-solves by
/// whether they changed anything, and their edge terms by whether they
/// were kept.
#[cfg(feature = "telemetry")]
fn counted_when_on(base: &AnalysisContext<'_>) {
    use noc_model::ids::{FlowId, RouterId};
    use noc_model::topology::Endpoint;

    let kind = AnalysisKind::BufferAware;
    let sys = base.system();
    let n = sys.flows().len() as u64;
    noc_telemetry::set_enabled(true);
    let cold = AnalysisContext::new(sys).unwrap();
    let [warm0, cold0, dirty0, clean0, same0, kept0, redo0] = counters();
    AnalysisContext::from_context(&cold);
    assert_eq!(
        counters(),
        [warm0, cold0 + 1, dirty0, clean0, same0, kept0, redo0]
    );

    // A warm fork's first solve reuses every flow.
    let mut fork = AnalysisContext::from_context(base);
    fork.analyze(kind).unwrap();
    assert_eq!(
        counters(),
        [
            warm0 + 1,
            cold0 + 1,
            dirty0,
            clean0 + n,
            same0,
            kept0,
            redo0
        ]
    );

    // Resizing a router to the depth it has marks its dependents; each is
    // re-solved, comes out as before, and wakes nothing below it. Each
    // recomputes exactly its edges whose domain enters the router, and
    // keeps the others.
    let router = RouterId::new(7);
    let depth = fork.system().buffer_depth_at(router);
    fork.resize_buffer(router, depth);
    fork.analyze(kind).unwrap();
    let [_, _, dirty1, clean1, same1, kept1, redo1] = counters();
    assert!(dirty1 > dirty0, "the resize re-solved nothing");
    assert_eq!(same1 - same0, dirty1 - dirty0);
    assert_eq!((dirty1 - dirty0) + (clean1 - clean0 - n), n);
    let (graph, topology) = (fork.graph(), sys.topology());
    let (mut into, mut other) = (0, 0);
    for x in (0..fork.len()).map(|x| FlowId::new(x as u32)) {
        let domains = graph.direct_domains(x);
        let enters = |e: usize| {
            domains[e]
                .links(sys.route(x))
                .iter()
                .any(|&l| topology.link(l).target() == Endpoint::Router(router))
        };
        if (0..domains.len()).any(enters) {
            let hits = (0..domains.len()).filter(|&e| enters(e)).count() as u64;
            into += hits;
            other += domains.len() as u64 - hits;
        }
    }
    assert!(into > 0 && other > 0);
    assert_eq!((redo1 - redo0, kept1 - kept0), (into, other));

    // A real resize changes some of them.
    fork.resize_buffer(router, depth + 6);
    fork.analyze(kind).unwrap();
    let [_, _, dirty2, _, same2, ..] = counters();
    assert!(same2 - same1 < dirty2 - dirty1);
    noc_telemetry::set_enabled(false);
}

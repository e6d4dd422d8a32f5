//! A conservative pass runs on the fixed-point solver's code but is not a
//! solve: it must count as one `analysis.conservative.solves` per report,
//! count its flows as `analysis.conservative.evaluated` or `.reused`, and
//! leave every `analysis.solver.*` and `analysis.cache.*` metric where it
//! was.
//!
//! With telemetry compiled out, the same calls move nothing at all.
//!
//! One test in its own process, because the telemetry gate and the
//! counters are process-global state.

use noc_analysis::metrics;
use noc_analysis::prelude::*;
use noc_model::prelude::*;
use noc_workload::synthetic::SyntheticSpec;

/// The solver and solve-cache metrics, in a comparable form.
fn solver_metrics() -> [u64; 8] {
    [
        metrics::SOLVER_ITERATIONS.get(),
        metrics::SOLVER_FLOWS_SOLVED.get(),
        metrics::SOLVER_CAP_HITS.get(),
        metrics::SOLVER_DEADLINE_HITS.get(),
        metrics::SOLVE_NS.count(),
        metrics::CACHE_DIRTY_SOLVED.get(),
        metrics::CACHE_CLEAN_REUSED.get(),
        metrics::CACHE_UNCHANGED_RESOLVES.get(),
    ]
}

/// The conservative counters: reports, evaluated flows, reused flows.
fn conservative() -> [u64; 3] {
    [
        metrics::CONSERVATIVE_SOLVES.get(),
        metrics::CONSERVATIVE_EVALUATED.get(),
        metrics::CONSERVATIVE_REUSED.get(),
    ]
}

/// The conservative counters moved by `f`.
fn moved(f: impl FnOnce()) -> [u64; 3] {
    let before = conservative();
    f();
    let after = conservative();
    std::array::from_fn(|i| after[i] - before[i])
}

/// What the conservative counters should move by: `count` with telemetry
/// compiled in, nothing without it.
fn counted(count: [u64; 3]) -> [u64; 3] {
    if cfg!(feature = "telemetry") {
        count
    } else {
        [0; 3]
    }
}

#[test]
fn a_conservative_pass_counts_only_as_a_conservative_solve() {
    noc_telemetry::set_enabled(true);
    let sys = SyntheticSpec::paper(6, 6, 80, 2)
        .with_burst_range(0, 2)
        .generate(1)
        .into_system();
    let n = sys.flows().len() as u64;
    let ctx = AnalysisContext::new(&sys).unwrap();
    let solver = solver_metrics();

    // A from-scratch report evaluates every flow, every time, and so does
    // one over a buffer-only rebase.
    assert_eq!(moved(|| drop(conservative_with(&ctx))), counted([1, n, 0]));
    assert_eq!(moved(|| drop(conservative_with(&ctx))), counted([1, n, 0]));
    let deeper = sys.with_buffer_depth(6);
    let rebased = ctx.rebase(&deeper).unwrap();
    assert_eq!(
        moved(|| drop(conservative_with(&rebased))),
        counted([1, n, 0])
    );

    // Warming serves no report; a warmed base warms again for free.
    let base = AnalysisContext::new(&sys).unwrap();
    assert_eq!(moved(|| base.warm_conservative()), counted([0, n, 0]));
    assert_eq!(moved(|| base.warm_conservative()), [0, 0, 0]);

    // A warm fork's report re-evaluates nothing, nor does one after a
    // router resize; an admission re-evaluates at least the new flow.
    let mut fork = AnalysisContext::from_context(&base);
    assert_eq!(
        moved(|| drop(fork.conservative_report())),
        counted([1, 0, n])
    );
    fork.resize_buffer(RouterId::new(7), 9);
    assert_eq!(
        moved(|| drop(fork.conservative_report())),
        counted([1, 0, n])
    );
    let lowest = sys.flows().iter().map(|(_, f)| f.priority().level()).max();
    let candidate = Flow::builder(NodeId::new(0), NodeId::new(35))
        .priority(Priority::new(lowest.unwrap() + 1))
        .period(Cycles::new(50_000))
        .length_flits(16)
        .build();
    fork.add_flow(candidate, &XyRouting).unwrap();
    let [solves, evaluated, reused] = moved(|| drop(fork.conservative_report()));
    if cfg!(feature = "telemetry") {
        assert_eq!(solves, 1);
        assert!(evaluated >= 1, "the admitted flow was not evaluated");
        assert_eq!(evaluated + reused, n + 1);
    } else {
        assert_eq!([solves, evaluated, reused], [0; 3]);
    }

    // None of it moved a solver or solve-cache metric …
    assert_eq!(solver_metrics(), solver);

    // … which are live: a fixed-point solve does move them.
    let before = conservative();
    ShiBurns.analyze_with(&ctx).unwrap();
    fork.analyze(AnalysisKind::BufferAware).unwrap();
    assert_eq!(solver_metrics() != solver, cfg!(feature = "telemetry"));
    assert_eq!(conservative(), before);
    noc_telemetry::set_enabled(false);
}

//! A conservative pass runs on the fixed-point solver's code but is not a
//! solve: it must count as one `analysis.conservative.solves` and leave
//! every `analysis.solver.*` metric where it was.
//!
//! One test in its own process, because the telemetry gate and the
//! counters are process-global state.

use noc_analysis::metrics;
use noc_analysis::prelude::*;
use noc_workload::synthetic::SyntheticSpec;

/// The solver metrics, in a comparable form.
fn solver_metrics() -> [u64; 5] {
    [
        metrics::SOLVER_ITERATIONS.get(),
        metrics::SOLVER_FLOWS_SOLVED.get(),
        metrics::SOLVER_CAP_HITS.get(),
        metrics::SOLVER_DEADLINE_HITS.get(),
        metrics::SOLVE_NS.count(),
    ]
}

#[test]
fn a_conservative_pass_counts_only_as_a_conservative_solve() {
    noc_telemetry::set_enabled(true);
    let sys = SyntheticSpec::paper(6, 6, 80, 2)
        .with_burst_range(0, 2)
        .generate(1)
        .into_system();
    let ctx = AnalysisContext::new(&sys).unwrap();

    let (solves, solver) = (metrics::CONSERVATIVE_SOLVES.get(), solver_metrics());
    conservative_with(&ctx);
    assert_eq!(metrics::CONSERVATIVE_SOLVES.get(), solves + 1);
    assert_eq!(solver_metrics(), solver);

    // The solver metrics are live: a fixed-point solve does move them.
    ShiBurns.analyze_with(&ctx).unwrap();
    assert_ne!(solver_metrics(), solver);
    assert_eq!(metrics::CONSERVATIVE_SOLVES.get(), solves + 1);
    noc_telemetry::set_enabled(false);
}

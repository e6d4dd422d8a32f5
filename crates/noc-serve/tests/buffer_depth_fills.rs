//! Which batches fill the base's kept buffer-depth reports: a batch
//! without a deadline fills each distinct depth it serves once, and a
//! batch under a deadline fills none, so a fill never spends a deadline
//! or counts a deadline hit that no query had.
//!
//! One test in its own process, because the telemetry gate and the
//! counters are process-global state.
#![cfg(feature = "telemetry")]

use std::time::Duration;

use noc_analysis::metrics;
use noc_analysis::prelude::*;
use noc_serve::{run_batch_with, Query, QueryBatch, ServeOptions};
use noc_workload::didactic;

/// Filled, served from the store, solved unkept, deadline hits.
fn counters() -> [u64; 4] {
    [
        metrics::BUFFER_DEPTH_FILLED.get(),
        metrics::BUFFER_DEPTH_SERVED.get(),
        metrics::BUFFER_DEPTH_UNKEPT.get(),
        metrics::SOLVER_DEADLINE_HITS.get(),
    ]
}

#[test]
fn only_batches_without_a_deadline_fill_the_store() {
    let (system, table) = didactic::system_with_routing(2);
    let batch = QueryBatch {
        analysis: AnalysisKind::BufferAware,
        queries: [4, 6, 4, 9, 6]
            .map(|depth| Query::BufferWhatIf { depth })
            .to_vec(),
    };
    let n = batch.queries.len() as u64;
    let under = |deadline| ServeOptions {
        deadline: Some(deadline),
        ..ServeOptions::default()
    };
    let spent = under(Duration::ZERO);
    let generous = under(Duration::from_secs(60));
    noc_telemetry::set_enabled(true);
    let base = AnalysisContext::new(&system).unwrap();

    // A spent deadline: the warm-up and each query count one hit, and
    // nothing is filled, served or solved.
    let [filled, served, unkept, hits] = counters();
    run_batch_with(&base, &batch, &table, 2, &spent);
    assert_eq!(counters(), [filled, served, unkept, hits + 1 + n]);

    // A deadline with budget to spare: every depth is solved unkept.
    let [filled, served, unkept, hits] = counters();
    run_batch_with(&base, &batch, &table, 2, &generous);
    assert_eq!(counters(), [filled, served, unkept + n, hits]);

    // No deadline: the three distinct depths are filled once, then every
    // query is a lookup, also in a later batch under a deadline.
    let [filled, served, unkept, hits] = counters();
    run_batch_with(&base, &batch, &table, 2, &ServeOptions::default());
    assert_eq!(counters(), [filled + 3, served + n, unkept, hits]);
    run_batch_with(&base, &batch, &table, 2, &generous);
    assert_eq!(counters(), [filled + 3, served + 2 * n, unkept, hits]);
    noc_telemetry::set_enabled(false);
}

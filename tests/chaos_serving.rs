//! Chaos harness for the fault-tolerant serving layer: batches served
//! under a deterministic [`FaultPlan`] must stay *terminal* (every query
//! answers exactly once, the process neither deadlocks nor aborts),
//! *explainable* (each outcome is the clean answer, a conservative
//! degradation, or a terminal failure — matching the injected fault),
//! *sound* (a `Degraded { failing: 0 }` answer implies the exact analysis
//! accepts too), and *hermetic* (a clean run after the chaos run is
//! bit-identical to one that never saw a fault).
//!
//! Faults are injected per `(seed, query, attempt)` by a pure hash, so
//! each scenario replays exactly under any thread count.

use std::sync::Once;

use noc_mpb::prelude::*;
use noc_mpb::serve::fault::{Fault, FaultPlan};
use noc_mpb::serve::{
    run_batch, run_batch_with, sample_queries, DegradeReason, Query, QueryBatch, QueryOutcome,
    ServeError, ServeOptions,
};
use noc_mpb::workload::didactic;
use noc_mpb::workload::synthetic::SyntheticSpec;

/// Injected-fault panics are caught and retried by the serving layer;
/// keep the default hook from spraying their backtraces over the test
/// output. Real panics still print.
fn quiet_injected_panics() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|s| s.starts_with("injected fault:"));
            if !injected {
                default(info);
            }
        }));
    });
}

fn fixture() -> (System, TableRouting) {
    let (system, table) = didactic::system_with_routing(2);
    // The paper fixture pins vc(Ξ) = 3, which would veto a fourth
    // priority level; admission what-ifs need auto-sized VCs.
    let system = system
        .with_virtual_channels(None)
        .expect("didactic VCs auto-size");
    (system, table)
}

/// Runs one chaos scenario under `seed` and checks every invariant
/// against the never-faulted `clean` outcomes.
fn exercise_seed(
    seed: u64,
    base: &AnalysisContext<'_>,
    batch: &QueryBatch,
    routing: &(dyn RoutingAlgorithm + Sync),
    clean: &[QueryOutcome],
) {
    let plan = FaultPlan::new(seed, 0.75);
    let options = ServeOptions {
        faults: Some(plan),
        ..ServeOptions::default()
    };

    let chaos = run_batch_with(base, batch, routing, 4, &options);
    assert_eq!(
        chaos.outcomes.len(),
        batch.queries.len(),
        "seed {seed}: every query must reach exactly one terminal outcome"
    );

    for (i, outcome) in chaos.outcomes.iter().enumerate() {
        match outcome {
            // A degraded answer must be conservative: certifying the
            // what-if (failing == 0) implies the exact analysis accepts.
            QueryOutcome::Degraded { reason, failing } => {
                assert_eq!(
                    *reason,
                    DegradeReason::DeadlineExceeded,
                    "seed {seed}, query {i}: chaos degradations come from cancelled solves"
                );
                assert_eq!(
                    plan.fault_for(i, 0),
                    Fault::CancelSolve,
                    "seed {seed}, query {i}: degraded without a CancelSolve fault"
                );
                if *failing == 0 {
                    assert!(
                        clean[i].is_accepted(),
                        "seed {seed}, query {i}: conservative accept but exact answer {:?}",
                        clean[i]
                    );
                }
            }
            // A terminal failure is only legal for a persistent panic.
            QueryOutcome::Failed { error } => {
                assert!(
                    matches!(error, ServeError::Panicked { .. }),
                    "seed {seed}, query {i}: unexpected failure {error:?}"
                );
                assert_eq!(
                    plan.fault_for(i, 0),
                    Fault::Panic { persistent: true },
                    "seed {seed}, query {i}: failed without a persistent panic fault"
                );
            }
            // Everything else — unfaulted, delayed, or transiently
            // panicked and retried — must match the clean answer exactly.
            other => {
                assert_eq!(
                    other,
                    &clean[i],
                    "seed {seed}, query {i}: fault {:?} perturbed the answer",
                    plan.fault_for(i, 0)
                );
            }
        }
    }

    // Determinism: the same seed replays to bit-identical outcomes, and
    // the plan is thread-count invariant.
    let replay = run_batch_with(base, batch, routing, 4, &options);
    assert_eq!(
        chaos.outcomes, replay.outcomes,
        "seed {seed}: chaos run must replay bit-identically"
    );
    let single = run_batch_with(base, batch, routing, 1, &options);
    assert_eq!(
        chaos.outcomes, single.outcomes,
        "seed {seed}: chaos outcomes must not depend on thread count"
    );
}

#[test]
fn chaos_batches_are_terminal_explainable_and_hermetic() {
    quiet_injected_panics();
    let (system, table) = fixture();
    let base = AnalysisContext::new(&system).expect("didactic system is analysable");
    let batch = QueryBatch {
        analysis: AnalysisKind::BufferAware,
        queries: sample_queries(&system, 24),
    };

    let clean = run_batch(&base, &batch, &table, 4).outcomes;

    for seed in [0xC4A0_0001, 0xC4A0_0002, 0xC4A0_0003, 0xC4A0_0004] {
        exercise_seed(seed, &base, &batch, &table, &clean);
    }

    // Hermeticity: after all that chaos, a clean run over the same base
    // is bit-identical to the never-faulted one — caught panics and
    // re-forked shards leaked nothing into the shared context.
    let after = run_batch(&base, &batch, &table, 4).outcomes;
    assert_eq!(
        clean, after,
        "clean serving after chaos must match the never-faulted run"
    );
}

/// Heterogeneous what-ifs under chaos: the base system already carries
/// per-router overrides and bursty sources, and the batch piles explicit
/// [`Query::RouterBufferWhatIf`]s (deepening *and* shrinking overridden
/// routers) on top of the samples. Faulted shards must restore the
/// resized base exactly — the hermeticity check at the end would catch a
/// shard that leaked a what-if depth into later answers.
#[test]
fn heterogeneous_what_ifs_survive_chaos() {
    quiet_injected_panics();
    let system = SyntheticSpec::paper(4, 4, 16, 2)
        .with_buffer_depth_range(2, 8)
        .with_burst_range(0, 2)
        .generate(0xBEEF)
        .into_system();
    assert!(system.has_heterogeneous_buffers());
    let base = AnalysisContext::new(&system).expect("heterogeneous base is analysable");

    let mut queries = sample_queries(&system, 20);
    for r in 0..8u32 {
        queries.push(Query::RouterBufferWhatIf {
            router: RouterId::new(r * 2),
            depth: 2 + r,
        });
    }
    let batch = QueryBatch {
        analysis: AnalysisKind::BufferAware,
        queries,
    };

    let clean = run_batch(&base, &batch, &XyRouting, 4).outcomes;
    for seed in [0xC4A0_0006, 0xC4A0_0007] {
        exercise_seed(seed, &base, &batch, &XyRouting, &clean);
    }

    let after = run_batch(&base, &batch, &XyRouting, 4).outcomes;
    assert_eq!(
        clean, after,
        "clean serving after chaos must match the never-faulted run"
    );
}

#[test]
fn deadlines_and_shedding_compose_under_chaos() {
    quiet_injected_panics();
    let (system, table) = fixture();
    let base = AnalysisContext::new(&system).expect("didactic system is analysable");
    let batch = QueryBatch {
        analysis: AnalysisKind::BufferAware,
        queries: sample_queries(&system, 24),
    };

    // Zero deadline: every served query degrades to the conservative
    // bound; shedding still truncates the batch deterministically.
    let options = ServeOptions {
        deadline: Some(std::time::Duration::ZERO),
        max_pending: Some(16),
        faults: Some(FaultPlan::new(0xC4A0_0005, 0.5)),
        ..ServeOptions::default()
    };
    let report = run_batch_with(&base, &batch, &table, 3, &options);
    assert_eq!(report.outcomes.len(), batch.queries.len());
    for (i, outcome) in report.outcomes.iter().enumerate() {
        if i >= 16 {
            assert_eq!(
                outcome,
                &QueryOutcome::Shed,
                "query {i} beyond max_pending must shed"
            );
            continue;
        }
        match outcome {
            QueryOutcome::Degraded { reason, .. } => {
                assert_eq!(*reason, DegradeReason::DeadlineExceeded, "query {i}");
            }
            QueryOutcome::Failed { error } => {
                assert!(
                    matches!(error, ServeError::Panicked { .. }),
                    "query {i}: unexpected failure {error:?}"
                );
            }
            other => panic!("query {i}: zero deadline must degrade, got {other:?}"),
        }
    }

    let replay = run_batch_with(&base, &batch, &table, 1, &options);
    assert_eq!(
        report.outcomes, replay.outcomes,
        "composed policy must stay deterministic and thread-invariant"
    );
}

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

use noc_mpb::analysis::context::KEPT_BUFFER_DEPTHS;
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

/// The answer to `query` recomputed from scratch: the what-if system is
/// built anew and analysed with a fresh context.
fn from_scratch(
    system: &System,
    query: &Query,
    kind: AnalysisKind,
    routing: &dyn RoutingAlgorithm,
) -> QueryOutcome {
    let what_if = match query {
        Query::Admission { flow } => system
            .with_added_flow(flow.clone(), routing)
            .map(|(s, _)| s),
        Query::Removal { id } => system.without_flow(*id),
        Query::BufferWhatIf { depth } => Ok(system.with_buffer_depth(*depth)),
        Query::RouterBufferWhatIf { router, depth } => {
            Ok(system.with_router_buffer_depth(*router, *depth))
        }
    }
    .expect("sample queries are feasible");
    let ctx = AnalysisContext::new(&what_if).expect("what-if system is analysable");
    let report = kind.as_analysis().analyze_with(&ctx).expect("exact solve");
    match report.len() - report.schedulable_count() {
        0 => QueryOutcome::Accepted,
        failing => QueryOutcome::Rejected {
            failing: failing as u32,
        },
    }
}

/// Warm forks change what serving costs, never what it answers: a base
/// warmed ahead of time, a base the batch warms itself, and a base whose
/// warm-up ran out of budget (zero deadline, then cancelled) all serve the
/// from-scratch answers, at 1, 2 and 4 threads.
#[test]
fn warm_and_cold_bases_serve_identically() {
    let system = SyntheticSpec::paper(4, 4, 16, 2)
        .with_buffer_depth_range(2, 8)
        .with_burst_range(0, 2)
        .generate(0xBEEF)
        .into_system();
    let kind = AnalysisKind::BufferAware;
    let batch = QueryBatch {
        analysis: kind,
        queries: sample_queries(&system, 20),
    };
    let expected: Vec<QueryOutcome> = batch
        .queries
        .iter()
        .map(|q| from_scratch(&system, q, kind, &XyRouting))
        .collect();
    for threads in [1, 2, 4] {
        let cold = AnalysisContext::new(&system).expect("base is analysable");
        let warmed = AnalysisContext::new(&system).expect("base is analysable");
        warmed
            .warm(kind, &Budget::unlimited())
            .expect("an unlimited warm-up succeeds");
        let starved = AnalysisContext::new(&system).expect("base is analysable");
        let expired = Budget::with_deadline(std::time::Duration::ZERO);
        assert!(starved.warm(kind, &expired).is_err());
        let cancelled = Budget::unlimited();
        cancelled.cancel();
        assert!(starved.warm(kind, &cancelled).is_err());
        for (label, base) in [("cold", &cold), ("warmed", &warmed), ("starved", &starved)] {
            // Twice: the second batch forks from whatever the first kept.
            for round in 0..2 {
                let served = run_batch(base, &batch, &XyRouting, threads).outcomes;
                assert_eq!(
                    served, expected,
                    "{label} base, {threads} threads, round {round}"
                );
            }
        }
    }
}

/// The degraded answer to `query` recomputed from scratch: the failing
/// count of the conservative bound over the what-if system, built anew
/// with a fresh context.
fn conservative_from_scratch(
    system: &System,
    query: &Query,
    routing: &dyn RoutingAlgorithm,
) -> u32 {
    let what_if = match query {
        Query::Admission { flow } => system
            .with_added_flow(flow.clone(), routing)
            .map(|(s, _)| s),
        Query::Removal { id } => system.without_flow(*id),
        Query::BufferWhatIf { depth } => Ok(system.with_buffer_depth(*depth)),
        Query::RouterBufferWhatIf { router, depth } => {
            Ok(system.with_router_buffer_depth(*router, *depth))
        }
    }
    .expect("sample queries are feasible");
    let ctx = AnalysisContext::new(&what_if).expect("what-if system is analysable");
    let report = conservative_with(&ctx);
    (report.len() - report.schedulable_count()) as u32
}

/// Cached conservative bounds change what degraded serving costs, never
/// what it answers: under a zero deadline every query degrades, and its
/// failing count is the from-scratch bound's, on a cold base and on a
/// base whose conservative bound was kept ahead of time, two batches each,
/// at 1, 2 and 4 threads. Periods are cut eightfold so that the counts
/// differ between queries and a stale cached bound would show.
#[test]
fn degraded_answers_match_the_from_scratch_conservative_bound() {
    let mut spec = SyntheticSpec::paper(4, 4, 16, 2)
        .with_buffer_depth_range(2, 8)
        .with_burst_range(0, 2);
    spec.period_range = (spec.period_range.0 / 8, spec.period_range.1 / 8);
    let system = spec.generate(0xBEEF).into_system();
    let batch = QueryBatch {
        analysis: AnalysisKind::BufferAware,
        queries: sample_queries(&system, 20),
    };
    let expected: Vec<QueryOutcome> = batch
        .queries
        .iter()
        .map(|q| QueryOutcome::Degraded {
            reason: DegradeReason::DeadlineExceeded,
            failing: conservative_from_scratch(&system, q, &XyRouting),
        })
        .collect();
    let mut counts: Vec<u32> = expected
        .iter()
        .filter_map(|o| match o {
            QueryOutcome::Degraded { failing, .. } => Some(*failing),
            _ => None,
        })
        .collect();
    counts.sort_unstable();
    counts.dedup();
    assert!(
        counts.len() > 1,
        "the fixture must give queries different failing counts: {counts:?}"
    );
    let options = ServeOptions {
        deadline: Some(std::time::Duration::ZERO),
        ..ServeOptions::default()
    };
    for threads in [1, 2, 4] {
        let cold = AnalysisContext::new(&system).expect("base is analysable");
        let warmed = AnalysisContext::new(&system).expect("base is analysable");
        warmed.warm_conservative();
        for (label, base) in [("cold", &cold), ("warmed", &warmed)] {
            // Twice: the second batch forks from whatever the first kept.
            for round in 0..2 {
                let served = run_batch_with(base, &batch, &XyRouting, threads, &options).outcomes;
                assert_eq!(
                    served, expected,
                    "{label} base, {threads} threads, round {round}"
                );
            }
        }
    }
}

/// The chaos fixture with τ₃'s deadline cut so that a homogeneous buffer
/// what-if accepts up to depth `accept_up_to` and rejects deeper ones:
/// τ₃'s IBN bound is 348 + 6·(depth − 2) cycles (Eq. 6–8 charge deeper
/// buffers more), and the deadline sits 3 cycles above its bound at
/// `accept_up_to`. Over every boundary, a report kept for the wrong
/// depth, or one that kept a per-router override, shows.
fn depth_sensitive_fixture(accept_up_to: u32) -> (System, TableRouting) {
    let (system, table) = fixture();
    let tau3 = FlowId::new(2);
    let old = system.flow(tau3);
    let tight = Flow::builder(old.source(), old.dest())
        .priority(old.priority())
        .period(old.period())
        .deadline(Cycles::new(351 + 6 * u64::from(accept_up_to - 2)))
        .length_flits(old.length_flits())
        .build();
    let (system, _) = system
        .without_flow(tau3)
        .and_then(|s| s.with_added_flow(tight, &table))
        .expect("τ₃ with a tighter deadline is feasible");
    (system, table)
}

/// Homogeneous buffer what-ifs at each of `depths`, in order.
fn buffer_what_ifs(depths: impl IntoIterator<Item = u32>) -> Vec<Query> {
    depths
        .into_iter()
        .map(|depth| Query::BufferWhatIf { depth })
        .collect()
}

/// The from-scratch answers to `batch` over `system`.
fn expected_outcomes(
    system: &System,
    batch: &QueryBatch,
    routing: &dyn RoutingAlgorithm,
) -> Vec<QueryOutcome> {
    batch
        .queries
        .iter()
        .map(|q| from_scratch(system, q, batch.analysis, routing))
        .collect()
}

/// A buffer what-if is solved once per depth on the base and then looked
/// up: two batches on one base, every depth 2..=16 plus repeats among
/// flow what-ifs, at 1, 2 and 4 threads, all answer as from scratch, with
/// the accept/reject boundary at every depth in turn. So does a base with
/// a per-router override, which a homogeneous what-if clears.
#[test]
fn kept_buffer_depths_answer_from_scratch_across_batches() {
    let router = RouterId::new(3);
    let depths: Vec<u32> = (2..=16).chain([16, 2, 7, 8, 8]).collect();
    for accept_up_to in 2..=15 {
        let (system, table) = depth_sensitive_fixture(accept_up_to);
        let overridden = system.with_router_buffer_depth(router, 16);
        let mut queries = buffer_what_ifs(depths.iter().copied());
        queries.extend(sample_queries(&system, 10));
        let batch = QueryBatch {
            analysis: AnalysisKind::BufferAware,
            queries,
        };
        let homogeneous = expected_outcomes(&system, &batch, &table);
        for (&depth, outcome) in depths.iter().zip(&homogeneous) {
            assert_eq!(
                outcome.is_accepted(),
                depth <= accept_up_to,
                "depth {depth}, accepting up to {accept_up_to}"
            );
        }
        for (label, base_system) in [("homogeneous", &system), ("overridden", &overridden)] {
            let expected = expected_outcomes(base_system, &batch, &table);
            // Buffer what-ifs answer alike on both bases.
            assert_eq!(expected[..depths.len()], homogeneous[..depths.len()]);
            for threads in [1, 2, 4] {
                let base = AnalysisContext::new(base_system).expect("base is analysable");
                // Twice: the second batch looks up what the first kept.
                for round in 0..2 {
                    let served = run_batch(&base, &batch, &table, threads).outcomes;
                    assert_eq!(
                        served, expected,
                        "{label} base accepting up to {accept_up_to}, \
                         {threads} threads, round {round}"
                    );
                }
            }
        }
    }
    // Keeping the override would turn depth 4's accept into a reject.
    let (system, _) = depth_sensitive_fixture(7);
    let kept_override = system
        .with_buffer_depth(4)
        .with_router_buffer_depth(router, 16);
    assert!(!AnalysisKind::BufferAware
        .as_analysis()
        .analyze(&kept_override)
        .expect("exact solve")
        .is_schedulable());
}

/// Past the cap a depth is solved and not kept, and answers as exactly
/// as a kept one. Depths run deepest first, so the shallowest are the
/// ones left unkept, with the accept/reject boundary at every depth in
/// turn.
#[test]
fn buffer_depths_past_the_cap_answer_from_scratch() {
    let deepest = 2 + KEPT_BUFFER_DEPTHS as u32 + 3;
    let batch = QueryBatch {
        analysis: AnalysisKind::BufferAware,
        queries: buffer_what_ifs((2..=deepest).rev().chain(2..=deepest)),
    };
    for accept_up_to in 2..deepest {
        let (system, table) = depth_sensitive_fixture(accept_up_to);
        let expected = expected_outcomes(&system, &batch, &table);
        for threads in [1, 2, 4] {
            let base = AnalysisContext::new(&system).expect("base is analysable");
            for round in 0..2 {
                let served = run_batch(&base, &batch, &table, threads).outcomes;
                assert_eq!(
                    served, expected,
                    "accepting up to {accept_up_to}, {threads} threads, round {round}"
                );
            }
        }
    }
}

/// A spent deadline degrades every query, buffer what-ifs included, even
/// on a base that keeps a report for every depth it can: each answers
/// with the from-scratch conservative failing count.
#[test]
fn a_spent_deadline_degrades_buffer_what_ifs_on_a_full_store() {
    let (system, table) = depth_sensitive_fixture(7);
    let full = QueryBatch {
        analysis: AnalysisKind::BufferAware,
        queries: buffer_what_ifs(2..2 + KEPT_BUFFER_DEPTHS as u32),
    };
    let mut queries = buffer_what_ifs((2..=20).chain([2, 9]));
    queries.extend(sample_queries(&system, 10));
    let batch = QueryBatch {
        analysis: AnalysisKind::BufferAware,
        queries,
    };
    let expected: Vec<QueryOutcome> = batch
        .queries
        .iter()
        .map(|q| QueryOutcome::Degraded {
            reason: DegradeReason::DeadlineExceeded,
            failing: conservative_from_scratch(&system, q, &table),
        })
        .collect();
    let options = ServeOptions {
        deadline: Some(std::time::Duration::ZERO),
        ..ServeOptions::default()
    };
    for threads in [1, 2, 4] {
        let base = AnalysisContext::new(&system).expect("base is analysable");
        assert_eq!(
            run_batch(&base, &full, &table, threads).outcomes,
            expected_outcomes(&system, &full, &table)
        );
        for round in 0..2 {
            let served = run_batch_with(&base, &batch, &table, threads, &options).outcomes;
            assert_eq!(served, expected, "{threads} threads, round {round}");
        }
    }
}

/// A batch under a deadline keeps no new depth but answers every buffer
/// what-if exactly while the budget holds: on a fresh base, its depths are
/// solved unkept; after a batch without a deadline, they are looked up.
#[test]
fn a_generous_deadline_answers_buffer_what_ifs_exactly() {
    let (system, table) = depth_sensitive_fixture(7);
    let mut queries = buffer_what_ifs((2..=16).chain([2, 9, 16]));
    queries.extend(sample_queries(&system, 10));
    let batch = QueryBatch {
        analysis: AnalysisKind::BufferAware,
        queries,
    };
    let expected = expected_outcomes(&system, &batch, &table);
    let options = ServeOptions {
        deadline: Some(std::time::Duration::from_secs(60)),
        ..ServeOptions::default()
    };
    for threads in [1, 2, 4] {
        let base = AnalysisContext::new(&system).expect("base is analysable");
        for round in 0..2 {
            let served = run_batch_with(&base, &batch, &table, threads, &options).outcomes;
            assert_eq!(served, expected, "{threads} threads, round {round}");
        }
        assert_eq!(run_batch(&base, &batch, &table, threads).outcomes, expected);
        let served = run_batch_with(&base, &batch, &table, threads, &options).outcomes;
        assert_eq!(served, expected, "{threads} threads, after a fill");
    }
}

/// A cancelled solve degrades a buffer what-if even when its depth's
/// report is kept: the outcome follows the fault, never what an earlier
/// batch happened to keep.
#[test]
fn cancelled_buffer_what_ifs_degrade_even_when_kept() {
    quiet_injected_panics();
    let (system, table) = depth_sensitive_fixture(7);
    let batch = QueryBatch {
        analysis: AnalysisKind::BufferAware,
        queries: buffer_what_ifs((2..=16).chain([2, 8, 16])),
    };
    let clean = expected_outcomes(&system, &batch, &table);
    let n = batch.queries.len();
    let plan = (0..4096)
        .map(|seed| FaultPlan::new(seed, 0.5))
        .find(|plan| {
            (0..n)
                .filter(|&q| plan.fault_for(q, 0) == Fault::CancelSolve)
                .count()
                >= 3
        })
        .expect("some seed cancels several buffer what-ifs");
    let options = ServeOptions {
        faults: Some(plan),
        ..ServeOptions::default()
    };
    for threads in [1, 2, 4] {
        let base = AnalysisContext::new(&system).expect("base is analysable");
        // Keep every depth first.
        assert_eq!(run_batch(&base, &batch, &table, threads).outcomes, clean);
        let served = run_batch_with(&base, &batch, &table, threads, &options).outcomes;
        for (i, (query, outcome)) in batch.queries.iter().zip(&served).enumerate() {
            let expected = match plan.fault_for(i, 0) {
                Fault::CancelSolve => QueryOutcome::Degraded {
                    reason: DegradeReason::DeadlineExceeded,
                    failing: conservative_from_scratch(&system, query, &table),
                },
                Fault::Panic { persistent: true } => {
                    assert!(
                        matches!(outcome, QueryOutcome::Failed { .. }),
                        "{threads} threads, query {i}: {outcome:?}"
                    );
                    continue;
                }
                _ => clean[i].clone(),
            };
            assert_eq!(outcome, &expected, "{threads} threads, query {i}");
        }
    }
}

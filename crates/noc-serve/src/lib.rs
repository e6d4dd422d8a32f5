//! Batch query serving for admission-control workloads.
//!
//! An online admission controller for a priority-preemptive NoC faces a
//! stream of *what-if* questions against one live system: *can this flow
//! join? what happens when that one retires? does a cheaper router with
//! smaller buffers still certify?* Each question is a full schedulability
//! run in miniature, and fleets of them arrive together (e.g. scoring every
//! placement candidate for a new task). This crate turns the incremental
//! machinery of `noc-analysis` into a throughput-oriented front-end for
//! exactly that shape of work.
//!
//! # Query model
//!
//! A [`QueryBatch`] pairs one [`AnalysisKind`] with a list of [`Query`]
//! values, evaluated independently against the same *base* system:
//!
//! * [`Query::Admission`] — add a candidate flow and re-certify;
//! * [`Query::Removal`] — retire an existing flow and re-certify;
//! * [`Query::BufferWhatIf`] — re-certify at a different buffer depth,
//!   answered from the report the base keeps for that depth;
//! * [`Query::RouterBufferWhatIf`] — re-certify with **one** router's
//!   buffers resized (heterogeneous depths), served through the shard's
//!   [`AnalysisContext::resize_buffer`].
//!
//! A shard serves the three mutating kinds inside an
//! [`AnalysisContext::what_if`] scope, which undoes the delta exactly
//! on exit, so queries stay independent and always name base-system ids.
//!
//! Every query answers with a [`QueryOutcome`]; the batch reports wall
//! time and queries/second in its [`BatchReport`].
//!
//! # Answers kept on the base, sharding via worker threads
//!
//! The expensive derived structure — the interference graph — is built
//! **once** for the base system, inside the shared
//! [`AnalysisContext`], which also keeps solved answers across batches.
//! From there all queries are served two ways:
//!
//! * a homogeneous buffer what-if is a pure function of the base, the
//!   analysis and the depth, so the base keeps one report per depth
//!   ([`AnalysisContext::warm_buffer_depths`], up to
//!   [`KEPT_BUFFER_DEPTHS`](noc_analysis::context::KEPT_BUFFER_DEPTHS)
//!   reports) and a shard answers through
//!   [`AnalysisContext::analyze_at_buffer_depth`]: a lookup, with no
//!   system clone and no rebase. Past the cap, a depth is solved over a
//!   rebased context that shares the graph and keeps nothing;
//! * flow mutations need a *mutable* graph, so each worker thread forks an
//!   owned context off the base ([`AnalysisContext::from_context`] shares
//!   the graph and the base's cache table copy-on-write; the shard copies
//!   the graph on its first addition or removal) and then serves each
//!   query as one what-if scope: the delta, a cached re-solve of only the
//!   flows the delta marks and those below them whose results it changes,
//!   and an exact undo. The undo applies each delta's inverse to the
//!   shard's system and graph in place and refills the shard's table with
//!   the caches it held before the query (the base's, shared), dropping
//!   the copies the query made, so no rollback is ever re-solved and the
//!   next query starts from the warm base again.
//!
//! Before forking, on the submitting thread, the batch solves the base once
//! for its analysis ([`AnalysisContext::warm`], under the budget a query
//! gets), so shards fork warm: a shard's first query is a cached re-solve,
//! not a full solve, and the full solve is paid once per base rather than
//! once per shard per batch. If that solve fails, shards fork cold and each
//! query solves in full: a cache first laid out inside a query's scope is
//! dropped with it (such a query meets the budget the base's solve ran out
//! of). Unless a deadline is set, it then solves each buffer depth the
//! batch serves that the base does not keep yet, up to `threads` depths at
//! once, so a depth costs one solve per base, not one per query. Under a
//! deadline it keeps nothing new: a fill that ran out of budget would keep
//! nothing, and its queries would spend a second budget on the same solve.
//! Filling there rather than in the shards keeps the work, and the solver
//! counters, independent of thread scheduling. A batch that can degrade (a
//! deadline or a fault plan is set) also keeps the base's conservative
//! bound ([`AnalysisContext::warm_conservative`]), so shards fork with it
//! too.
//!
//! Queries are sharded across threads in contiguous chunks via
//! [`par_map_indexed`](noc_analysis::runner::par_map_indexed), the map the
//! buffer-depth fill and the experiment sweeps share; a batch with one
//! shard runs on the submitting thread. Outcomes come back in submission
//! order regardless of scheduling.
//!
//! # Fault tolerance
//!
//! [`run_batch_with`] hardens the same pipeline for serving under duress;
//! every query ends in **exactly one terminal [`QueryOutcome`]**, whatever
//! fails along the way:
//!
//! * **Validation** — malformed queries (unknown flow id, clashing
//!   priority, zero period/payload, buffer depth below the validated
//!   `buf ≥ 2`) are rejected up front as
//!   [`QueryOutcome::Failed`] with [`ServeError::InvalidQuery`], before any
//!   solver work.
//! * **Deadlines and degradation** — with [`ServeOptions::deadline`] set,
//!   each solve runs under a cooperative [`Budget`]; when it expires (or
//!   the fixed point trips the convergence cap) the query still answers,
//!   as [`QueryOutcome::Degraded`] computed from the cheap conservative
//!   bound of [`noc_analysis::conservative`] — never optimistic, pinned by
//!   the `chaos_serving` integration test. The bound is cached like an
//!   exact solve: a degraded admission or removal re-evaluates only the
//!   flows its delta reaches, and a router or homogeneous buffer what-if
//!   re-evaluates none (the bound reads no buffer depth). Every degraded
//!   answer comes from the shard's
//!   [`AnalysisContext::conservative_report`], which reads a bound no
//!   delta marked (the base's, shared) back without a copy. An exceeded
//!   budget degrades a buffer what-if even when its depth's report is
//!   kept, so the outcome never depends on what earlier batches happened
//!   to keep.
//! * **Isolation and retry** — each serve attempt runs inside
//!   `catch_unwind`; a panicking worker poisons only its own shard, which
//!   is re-forked from the shared base, and the query is retried with
//!   bounded backoff ([`MAX_RETRIES`]) before surfacing as
//!   [`ServeError::Panicked`].
//! * **Load shedding** — with [`ServeOptions::max_pending`] set, queries
//!   beyond the bound answer [`QueryOutcome::Shed`] without being served
//!   (deterministic in the batch index, so thread-count invariant).
//! * **Fault injection** — a seeded [`fault::FaultPlan`] deterministically
//!   injects panics, delays and solver-budget cancellations at query
//!   granularity, driving the chaos tests and the CI smoke run.
//!
//! With [`ServeOptions::default`] (no deadline, no shedding, no faults)
//! [`run_batch_with`] is bit-identical to [`run_batch`], which delegates to
//! it.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod fault;
pub mod metrics;

use std::env;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use noc_analysis::analysis::AnalysisKind;
use noc_analysis::budget::Budget;
use noc_analysis::context::AnalysisContext;
use noc_analysis::error::AnalysisError;
use noc_analysis::report::AnalysisReport;
pub use noc_analysis::runner::default_threads;
use noc_model::flow::Flow;
use noc_model::ids::FlowId;
use noc_model::routing::RoutingAlgorithm;

use crate::fault::{Fault, FaultPlan};

/// One admission-control what-if against the batch's base system.
#[derive(Debug, Clone)]
pub enum Query {
    /// Can `flow` be admitted — is the system still schedulable with it?
    /// The flow is routed by the batch's routing algorithm and removed
    /// again after the verdict, so queries stay independent.
    Admission {
        /// The candidate flow (its priority must be unused in the base
        /// system).
        flow: Flow,
    },
    /// Is the system still schedulable when the flow `id` (a base-system
    /// id) retires? The shard puts the flow back, at the same id, after
    /// the verdict.
    Removal {
        /// Base-system id of the flow to retire hypothetically.
        id: FlowId,
    },
    /// Is the system schedulable with every router buffer resized to
    /// `depth` flits (any per-router override of the base cleared)?
    /// Interference structure is preserved, so this is served from the
    /// shared base context without any graph work: a batch without a
    /// deadline solves each depth once per base
    /// ([`AnalysisContext::warm_buffer_depths`]) and
    /// the query reads the kept report
    /// ([`AnalysisContext::analyze_at_buffer_depth`]).
    BufferWhatIf {
        /// Hypothetical homogeneous buffer depth, in flits (≥ 2, the
        /// simulator-validated domain).
        depth: u32,
    },
    /// Is the system schedulable when **one** router's buffers are resized
    /// to `depth` flits, all other routers keeping their base depth? The
    /// heterogeneous counterpart of [`Query::BufferWhatIf`] — e.g. scoring
    /// a cheaper switch at a single mesh position. Served through the
    /// shard's [`AnalysisContext::resize_buffer`], which re-solves only
    /// the flows whose buffered-interference terms read that router; the
    /// router's previous override is put back afterwards, so queries stay
    /// independent.
    RouterBufferWhatIf {
        /// The router whose buffers are hypothetically resized.
        router: noc_model::ids::RouterId,
        /// Hypothetical buffer depth at that router, in flits (≥ 2, the
        /// simulator-validated domain).
        depth: u32,
    },
}

/// A set of independent queries evaluated under one analysis.
#[derive(Debug, Clone)]
pub struct QueryBatch {
    /// The analysis certifying every what-if system.
    pub analysis: AnalysisKind,
    /// The queries, answered in order.
    pub queries: Vec<Query>,
}

/// Why a query answered with a conservative [`QueryOutcome::Degraded`]
/// verdict instead of an exact one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradeReason {
    /// The solve's wall-clock [`Budget`] expired (or was cancelled) before
    /// the fixed point converged.
    DeadlineExceeded,
    /// The fixed-point iteration exhausted the solver's convergence safety
    /// cap.
    ConvergenceCap,
}

impl std::fmt::Display for DegradeReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DegradeReason::DeadlineExceeded => write!(f, "deadline exceeded"),
            DegradeReason::ConvergenceCap => write!(f, "convergence cap"),
        }
    }
}

/// A terminal serving failure — the query could not be answered, exactly
/// and degradedly alike.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The query failed batch validation and was never served.
    InvalidQuery {
        /// What is malformed about the query.
        reason: String,
    },
    /// Every serve attempt (including retries against a re-forked shard)
    /// panicked.
    Panicked {
        /// The panic message of the last attempt.
        detail: String,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::InvalidQuery { reason } => write!(f, "invalid query: {reason}"),
            ServeError::Panicked { detail } => {
                write!(f, "query panicked on every attempt: {detail}")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// The verdict of one query. Every served query gets exactly one of these;
/// [`Accepted`](QueryOutcome::Accepted),
/// [`Rejected`](QueryOutcome::Rejected) and
/// [`Infeasible`](QueryOutcome::Infeasible) are exact answers, the rest are
/// the fault-tolerance surface of [`run_batch_with`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryOutcome {
    /// The what-if system is schedulable under the batch's analysis.
    Accepted,
    /// The what-if system is analysable but `failing` flows miss their
    /// bound.
    Rejected {
        /// Number of flows without a schedulable verdict.
        failing: u32,
    },
    /// The what-if system cannot be built at all — unroutable candidate,
    /// duplicate priority, out-of-range id, … The reason is the model
    /// error's display form.
    Infeasible {
        /// Human-readable cause.
        reason: String,
    },
    /// The exact solve ran out of budget (or hit the convergence cap), so
    /// the answer comes from the *conservative* non-iterative bound: never
    /// optimistic — `failing == 0` guarantees the exact analysis would
    /// accept too, and a nonzero count may include flows an exact solve
    /// would clear.
    Degraded {
        /// Why the exact solve was abandoned.
        reason: DegradeReason,
        /// Flows the conservative bound cannot certify.
        failing: u32,
    },
    /// Load-shed unserved: the query's batch index exceeded
    /// [`ServeOptions::max_pending`].
    Shed,
    /// Terminal failure — validation rejection or exhausted retries.
    Failed {
        /// What went wrong.
        error: ServeError,
    },
}

impl QueryOutcome {
    fn from_report(report: &AnalysisReport) -> QueryOutcome {
        let failing = failing_count(report);
        if failing == 0 {
            QueryOutcome::Accepted
        } else {
            QueryOutcome::Rejected { failing }
        }
    }

    /// `true` for [`QueryOutcome::Accepted`].
    pub fn is_accepted(&self) -> bool {
        matches!(self, QueryOutcome::Accepted)
    }
}

fn failing_count(report: &AnalysisReport) -> u32 {
    report.iter().filter(|(_, v)| !v.is_schedulable()).count() as u32
}

/// Outcome counts of one batch, one field per [`QueryOutcome`] variant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OutcomeTally {
    /// [`QueryOutcome::Accepted`] answers.
    pub accepted: usize,
    /// [`QueryOutcome::Rejected`] answers.
    pub rejected: usize,
    /// [`QueryOutcome::Infeasible`] answers.
    pub infeasible: usize,
    /// [`QueryOutcome::Degraded`] answers.
    pub degraded: usize,
    /// [`QueryOutcome::Shed`] answers.
    pub shed: usize,
    /// [`QueryOutcome::Failed`] answers.
    pub failed: usize,
}

/// Outcomes and throughput of one [`run_batch`] call.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// Per-query verdicts, in submission order.
    pub outcomes: Vec<QueryOutcome>,
    /// Wall-clock time of the sharded evaluation, in nanoseconds.
    pub wall_ns: u128,
    /// Worker threads used.
    pub threads: usize,
    /// Time each shard spent serving its chunk, in nanoseconds, in shard
    /// order — the load-balance picture behind `wall_ns`.
    pub shard_busy_ns: Vec<u128>,
}

impl BatchReport {
    /// Answered queries per second of wall time.
    pub fn queries_per_second(&self) -> f64 {
        if self.wall_ns == 0 {
            return f64::INFINITY;
        }
        self.outcomes.len() as f64 * 1e9 / self.wall_ns as f64
    }

    /// Fraction of the batch's wall time each shard spent serving queries,
    /// in shard order (1.0 ⇔ busy for the whole batch; a low outlier marks
    /// an under-loaded shard).
    pub fn shard_utilization(&self) -> Vec<f64> {
        if self.wall_ns == 0 {
            return vec![1.0; self.shard_busy_ns.len()];
        }
        self.shard_busy_ns
            .iter()
            .map(|&b| b as f64 / self.wall_ns as f64)
            .collect()
    }

    /// Outcome counts, one field per variant.
    pub fn tally(&self) -> OutcomeTally {
        let mut t = OutcomeTally::default();
        for o in &self.outcomes {
            match o {
                QueryOutcome::Accepted => t.accepted += 1,
                QueryOutcome::Rejected { .. } => t.rejected += 1,
                QueryOutcome::Infeasible { .. } => t.infeasible += 1,
                QueryOutcome::Degraded { .. } => t.degraded += 1,
                QueryOutcome::Shed => t.shed += 1,
                QueryOutcome::Failed { .. } => t.failed += 1,
            }
        }
        t
    }
}

/// Serving policy for [`run_batch_with`]: deadlines, shedding and fault
/// injection. [`ServeOptions::default`] disables all three, making
/// [`run_batch_with`] bit-identical to [`run_batch`]. A caught worker panic
/// is retried up to [`MAX_RETRIES`] times under every policy.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeOptions {
    /// Per-query wall-clock solve budget. `None` (default) solves under an
    /// [`unlimited`](Budget::unlimited) budget, which only a fault-injected
    /// cancellation can exceed.
    pub deadline: Option<Duration>,
    /// Bounded pending-queue depth: queries with batch index `>= max_pending`
    /// are shed as [`QueryOutcome::Shed`] without being served. `None`
    /// (default) serves everything.
    pub max_pending: Option<usize>,
    /// Deterministic fault injection plan; `None` (default) injects
    /// nothing.
    pub faults: Option<FaultPlan>,
}

/// Retries after a caught worker panic: the shard is re-forked before each
/// retry, with bounded doubling backoff.
pub const MAX_RETRIES: u32 = 2;

impl ServeOptions {
    /// Reads the serving policy from the environment:
    ///
    /// * `NOC_SERVE_DEADLINE_MS` — per-query solve budget in milliseconds;
    /// * `NOC_SERVE_MAX_PENDING` — pending-queue bound (shed beyond it);
    /// * `NOC_FAULT_SEED` / `NOC_FAULT_RATE` — fault injection (see
    ///   [`FaultPlan::try_from_env`]).
    ///
    /// Unset variables leave the corresponding default; a variable that is
    /// set but unparsable is an `Err` naming it, not a silently-applied
    /// default.
    pub fn try_from_env() -> Result<ServeOptions, String> {
        let parse_u64 = |name: &str| -> Result<Option<u64>, String> {
            match env::var(name) {
                Err(_) => Ok(None),
                Ok(s) => s
                    .trim()
                    .parse::<u64>()
                    .map(Some)
                    .map_err(|e| format!("invalid {name} {s:?}: {e}")),
            }
        };
        Ok(ServeOptions {
            deadline: parse_u64("NOC_SERVE_DEADLINE_MS")?.map(Duration::from_millis),
            max_pending: parse_u64("NOC_SERVE_MAX_PENDING")?.map(|n| n as usize),
            faults: FaultPlan::try_from_env()?,
        })
    }

    /// A fresh budget for one solve: the deadline a query gets, or
    /// unlimited.
    fn query_budget(&self) -> Budget {
        self.deadline
            .map_or_else(Budget::unlimited, Budget::with_deadline)
    }
}

/// Checks one query against the base system before any serving work.
/// Returns the rejection reason for malformed queries.
fn validate(base: &AnalysisContext<'_>, query: &Query) -> Option<String> {
    match query {
        Query::Admission { flow } => {
            if flow.period().as_u64() == 0 {
                return Some("admission candidate has a zero period".to_string());
            }
            if flow.deadline().as_u64() == 0 {
                return Some("admission candidate has a zero deadline".to_string());
            }
            if flow.length_flits() == 0 {
                return Some("admission candidate has a zero-flit payload".to_string());
            }
            if flow.source() == flow.dest() {
                return Some(format!(
                    "admission candidate routes {} to itself",
                    flow.source()
                ));
            }
            let system = base.system();
            system
                .flows()
                .ids()
                .find(|&id| system.flow(id).priority() == flow.priority())
                .map(|clash| {
                    format!("admission candidate duplicates the priority of base flow {clash}")
                })
        }
        Query::Removal { id } => {
            (id.index() >= base.len()).then(|| format!("no flow {id} in the base system"))
        }
        Query::BufferWhatIf { depth } => below_validated_depth(*depth),
        Query::RouterBufferWhatIf { router, depth } => {
            if let Some(reason) = below_validated_depth(*depth) {
                return Some(reason);
            }
            (router.index() >= base.system().topology().router_count())
                .then(|| format!("no router {router} in the base topology"))
        }
    }
}

/// Rejects buffer what-if depths below 2 flits. Single-flit buffers add
/// credit round-trip bubbles that Eq. 1's zero-load latency does not
/// model, so `R^sim ≤ R^IBN` is validated against the simulator only for
/// `buf ≥ 2`; serving does not certify outside that domain.
fn below_validated_depth(depth: u32) -> Option<String> {
    (depth < 2).then(|| {
        format!(
            "buffer what-if depth {depth} is outside the simulator-validated domain buf ≥ 2 flits"
        )
    })
}

/// How a query will be handled, decided up front on the submitting thread
/// so the decision is independent of sharding.
enum Disposition {
    Serve,
    Shed,
    Invalid(String),
}

/// Maps a solve result to an outcome, answering budget/convergence
/// failures with the conservative bound produced by `conservative`
/// (invoked only on the degraded path).
fn outcome_of(
    result: Result<AnalysisReport, AnalysisError>,
    conservative: impl FnOnce() -> AnalysisReport,
) -> QueryOutcome {
    let reason = match result {
        Ok(report) => return QueryOutcome::from_report(&report),
        Err(AnalysisError::DeadlineExceeded { .. }) => DegradeReason::DeadlineExceeded,
        Err(AnalysisError::ConvergenceCap { .. }) => DegradeReason::ConvergenceCap,
        Err(e) => {
            return QueryOutcome::Infeasible {
                reason: e.to_string(),
            }
        }
    };
    metrics::DEGRADED.incr();
    QueryOutcome::Degraded {
        reason,
        failing: failing_count(&conservative()),
    }
}

/// Mutable per-shard serving state: an owned context forked from
/// the base, which every query leaves as it found it.
struct Shard<'a> {
    ctx: AnalysisContext<'static>,
    routing: &'a (dyn RoutingAlgorithm + Sync),
    kind: AnalysisKind,
}

impl<'a> Shard<'a> {
    fn new(
        base: &AnalysisContext<'_>,
        routing: &'a (dyn RoutingAlgorithm + Sync),
        kind: AnalysisKind,
    ) -> Shard<'a> {
        metrics::CONTEXT_FORKS.incr();
        Shard {
            ctx: AnalysisContext::from_context(base),
            routing,
            kind,
        }
    }

    /// Serves `query` inside an [`AnalysisContext::what_if`] scope, so
    /// the shard is back at the base system after it, with the caches it
    /// held before: base ids stay valid, and no rollback is re-solved. An
    /// outcome is read inside the scope, so a degraded answer bounds the
    /// what-if system.
    fn serve(
        &mut self,
        base: &AnalysisContext<'_>,
        query: &Query,
        budget: &Budget,
    ) -> QueryOutcome {
        let _span = metrics::QUERY_LATENCY_NS.span();
        metrics::QUERIES_SERVED.incr();
        let (routing, kind) = (self.routing, self.kind);
        let certify = |ctx: &mut AnalysisContext<'_>| {
            let result = ctx.analyze_with_budget(kind, budget);
            outcome_of(result, || ctx.conservative_report())
        };
        match query {
            Query::Admission { flow } => {
                self.ctx
                    .what_if(|ctx| match ctx.add_flow(flow.clone(), routing) {
                        Ok(_) => certify(ctx),
                        Err(e) => QueryOutcome::Infeasible {
                            reason: e.to_string(),
                        },
                    })
            }
            Query::Removal { id } => self.ctx.what_if(|ctx| match ctx.remove_flow(*id) {
                Ok(()) => certify(ctx),
                Err(_) => QueryOutcome::Infeasible {
                    reason: format!("no flow {id} in the base system"),
                },
            }),
            Query::BufferWhatIf { depth } => {
                let result = base.analyze_at_buffer_depth(kind, *depth, budget);
                // The conservative bound reads no buffer depth: the
                // shard's, which is the base's, is the what-if's.
                outcome_of(result, || self.ctx.conservative_report())
            }
            // The conservative bound reads no buffer depth, so the resize
            // marks nothing in its cache and a degraded answer re-evaluates
            // no flow.
            Query::RouterBufferWhatIf { router, depth } => self.ctx.what_if(|ctx| {
                ctx.resize_buffer(*router, *depth);
                certify(ctx)
            }),
        }
    }
}

/// Bounded doubling backoff between retries: 1, 2, 4, then 8 ms flat.
fn backoff(attempt: u32) -> Duration {
    Duration::from_millis(1u64 << attempt.min(3))
}

/// Extracts a human-readable message from a caught panic payload.
fn panic_detail(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Serves one query inside the isolation boundary: fault injection, panic
/// capture, shard re-fork and bounded retry. Always returns a terminal
/// outcome.
fn serve_isolated(
    shard: &mut Shard<'_>,
    base: &AnalysisContext<'_>,
    query: &Query,
    index: usize,
    options: &ServeOptions,
) -> QueryOutcome {
    let mut attempt = 0u32;
    loop {
        let fault = options
            .faults
            .map_or(Fault::None, |plan| plan.fault_for(index, attempt));
        if fault != Fault::None {
            metrics::FAULTS_INJECTED.incr();
            if noc_telemetry::enabled() {
                noc_telemetry::events::emit(
                    "serve.fault",
                    &[
                        ("kind", fault.name().into()),
                        ("query", (index as u64).into()),
                        ("attempt", u64::from(attempt).into()),
                    ],
                );
            }
        }
        // The budget is created before any injected delay, so a slow worker
        // genuinely eats into its own deadline.
        let budget = options.query_budget();
        if fault == Fault::CancelSolve {
            budget.cancel();
        }
        if let Fault::Delay { ms } = fault {
            std::thread::sleep(Duration::from_millis(ms));
        }
        let inject_panic = matches!(fault, Fault::Panic { .. });
        let result = catch_unwind(AssertUnwindSafe(|| {
            if inject_panic {
                panic!("injected fault: panic serving query {index} (attempt {attempt})");
            }
            shard.serve(base, query, &budget)
        }));
        match result {
            Ok(outcome) => return outcome,
            Err(payload) => {
                metrics::PANICS_CAUGHT.incr();
                // The unwound serve may have left the shard mid-mutation
                // (flow admitted but not rolled back): re-fork from the
                // shared base rather than trusting poisoned state.
                metrics::SHARD_REBUILDS.incr();
                *shard = Shard::new(base, shard.routing, shard.kind);
                if attempt < MAX_RETRIES {
                    metrics::RETRIES.incr();
                    std::thread::sleep(backoff(attempt));
                    attempt += 1;
                } else {
                    metrics::FAILED.incr();
                    return QueryOutcome::Failed {
                        error: ServeError::Panicked {
                            detail: panic_detail(payload.as_ref()),
                        },
                    };
                }
            }
        }
    }
}

/// A deterministic sample query mix for demos and benchmarks: admissions
/// (templated on existing source/dest pairs with a fresh priority, one
/// level below the lowest in use), removals, homogeneous buffer what-ifs,
/// and single-router buffer what-ifs, in a 2:1:1:1 ratio. A system with no
/// flows has nothing to template or remove, so it gets the two buffer
/// kinds in turn. Buffer depths are drawn from 2–8, inside the `buf ≥ 2`
/// domain the simulator validates the bounds in.
pub fn sample_queries(system: &noc_model::system::System, n: usize) -> Vec<Query> {
    let ids: Vec<FlowId> = system.flows().ids().collect();
    let routers = system.topology().router_count();
    let lowest = system.flows().iter().map(|(_, f)| f.priority().level());
    let fresh_priority = noc_model::ids::Priority::new(lowest.max().unwrap_or(0) + 1);
    let kinds = if ids.is_empty() {
        [3, 4].as_slice()
    } else {
        &[0, 1, 2, 3, 4]
    };
    (0..n)
        .map(|i| match kinds[i % kinds.len()] {
            2 => Query::Removal {
                id: ids[i % ids.len()],
            },
            3 => Query::BufferWhatIf {
                depth: 2 + (i % 7) as u32,
            },
            4 => Query::RouterBufferWhatIf {
                router: noc_model::ids::RouterId::new((i % routers) as u32),
                depth: 2 + (i % 7) as u32,
            },
            _ => {
                let template = system.flows().flow(ids[i % ids.len()]);
                Query::Admission {
                    flow: Flow::builder(template.source(), template.dest())
                        .priority(fresh_priority)
                        .period(template.period())
                        .length_flits(4 + (i as u32 % 61))
                        .build(),
                }
            }
        })
        .collect()
}

/// Evaluates `batch` against the system of `base`, sharding the queries
/// over `threads` worker threads.
///
/// Equivalent to [`run_batch_with`] under [`ServeOptions::default`]: no
/// deadlines, no shedding, no fault injection.
///
/// Each shard serves a contiguous chunk of the batch so outcomes return in
/// submission order. Worker state is forked from `base` (see the
/// [module docs](self) for the dedup structure); the base context itself is
/// only read.
///
/// # Panics
///
/// Panics if `threads == 0`.
pub fn run_batch(
    base: &AnalysisContext<'_>,
    batch: &QueryBatch,
    routing: &(dyn RoutingAlgorithm + Sync),
    threads: usize,
) -> BatchReport {
    run_batch_with(base, batch, routing, threads, &ServeOptions::default())
}

/// [`run_batch`] under an explicit serving policy: per-query deadlines
/// with conservative degradation, panic isolation with shard re-forking
/// and bounded retry, load shedding, and deterministic fault injection.
/// See the *Fault tolerance* section of the [module docs](self).
///
/// Every query maps to exactly one terminal [`QueryOutcome`]; the call
/// itself never panics on a worker failure.
///
/// # Panics
///
/// Panics if `threads == 0`.
pub fn run_batch_with(
    base: &AnalysisContext<'_>,
    batch: &QueryBatch,
    routing: &(dyn RoutingAlgorithm + Sync),
    threads: usize,
    options: &ServeOptions,
) -> BatchReport {
    assert!(threads > 0, "need at least one worker thread");
    let n = batch.queries.len();
    // Validation and shedding decisions happen up front, on the submitting
    // thread, in submission order — deterministic in the batch alone.
    let dispositions: Vec<Disposition> = batch
        .queries
        .iter()
        .enumerate()
        .map(|(i, query)| {
            if let Some(reason) = validate(base, query) {
                metrics::INVALID.incr();
                Disposition::Invalid(reason)
            } else if options.max_pending.is_some_and(|cap| i >= cap) {
                metrics::SHED.incr();
                Disposition::Shed
            } else {
                Disposition::Serve
            }
        })
        .collect();
    let shards = threads.min(n.max(1));
    // Contiguous chunks, the first `n % shards` one longer.
    let chunk = n / shards;
    let extra = n % shards;
    let bounds: Vec<(usize, usize)> = (0..shards)
        .scan(0usize, |start, s| {
            let len = chunk + usize::from(s < extra);
            let range = (*start, *start + len);
            *start += len;
            Some(range)
        })
        .collect();
    let started = Instant::now();
    // Solve the base once, under the budget a query gets, so every shard
    // forks warm. A failed solve keeps nothing and the shards fork cold;
    // their queries then meet the same budget and degrade on their own.
    // A batch that can degrade also keeps the base's conservative bound,
    // so each degraded answer re-evaluates only what its query changes.
    if dispositions.iter().any(|d| matches!(d, Disposition::Serve)) {
        let _ = base.warm(batch.analysis, &options.query_budget());
        if options.deadline.is_some() || options.faults.is_some() {
            base.warm_conservative();
        }
        // Likewise each homogeneous buffer depth served, once per base and
        // up to `threads` at once, so a buffer what-if is a lookup. Not
        // under a deadline: the fill is unbudgeted, and a budgeted one that
        // ran out would keep nothing while its queries spent a second
        // budget on the same solve.
        if options.deadline.is_none() {
            let depths: Vec<u32> = batch
                .queries
                .iter()
                .zip(&dispositions)
                .filter_map(|(query, disposition)| match (query, disposition) {
                    (Query::BufferWhatIf { depth }, Disposition::Serve) => Some(*depth),
                    _ => None,
                })
                .collect();
            base.warm_buffer_depths(batch.analysis, &depths, threads);
        }
    }
    let per_shard: Vec<(Vec<QueryOutcome>, u128)> =
        noc_analysis::runner::par_map_indexed(shards, shards, |s| {
            let (lo, hi) = bounds[s];
            let busy = Instant::now();
            let mut shard = Shard::new(base, routing, batch.analysis);
            let outcomes: Vec<QueryOutcome> = (lo..hi)
                .map(|i| match &dispositions[i] {
                    Disposition::Invalid(reason) => QueryOutcome::Failed {
                        error: ServeError::InvalidQuery {
                            reason: reason.clone(),
                        },
                    },
                    Disposition::Shed => QueryOutcome::Shed,
                    Disposition::Serve => {
                        serve_isolated(&mut shard, base, &batch.queries[i], i, options)
                    }
                })
                .collect();
            (outcomes, busy.elapsed().as_nanos())
        });
    let wall_ns = started.elapsed().as_nanos();
    metrics::BATCHES.incr();
    if noc_telemetry::enabled() {
        noc_telemetry::events::emit(
            "serve.batch",
            &[
                ("analysis", batch.analysis.name().into()),
                ("queries", (n as u64).into()),
                ("shards", (shards as u64).into()),
                ("wall_ns", u64::try_from(wall_ns).unwrap_or(u64::MAX).into()),
            ],
        );
    }
    let mut outcomes = Vec::with_capacity(n);
    let mut shard_busy_ns = Vec::with_capacity(shards);
    for (chunk_outcomes, busy_ns) in per_shard {
        outcomes.extend(chunk_outcomes);
        shard_busy_ns.push(busy_ns);
    }
    BatchReport {
        outcomes,
        wall_ns,
        threads: shards,
        shard_busy_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_model::prelude::*;

    fn mesh_flow((src, dst, p, t): (u32, u32, u32, u64)) -> Flow {
        Flow::builder(NodeId::new(src), NodeId::new(dst))
            .priority(Priority::new(p))
            .period(Cycles::new(t))
            .length_flits(8)
            .build()
    }

    fn base_system() -> System {
        let specs = [
            (0, 15, 1, 1000),
            (4, 7, 2, 1500),
            (12, 3, 3, 2000),
            (1, 13, 4, 2500),
        ];
        let flows = FlowSet::new(specs.into_iter().map(mesh_flow).collect()).unwrap();
        System::new(
            Topology::mesh(4, 4),
            NocConfig::default(),
            flows,
            &XyRouting,
        )
        .unwrap()
    }

    fn sample_batch() -> QueryBatch {
        QueryBatch {
            analysis: AnalysisKind::BufferAware,
            queries: vec![
                Query::Admission {
                    flow: mesh_flow((5, 6, 5, 3000)),
                },
                Query::Removal { id: FlowId::new(1) },
                Query::BufferWhatIf { depth: 8 },
                Query::Removal { id: FlowId::new(0) },
                Query::Admission {
                    flow: mesh_flow((0, 10, 6, 3500)),
                },
                Query::Removal { id: FlowId::new(3) },
                Query::RouterBufferWhatIf {
                    router: RouterId::new(5),
                    depth: 16,
                },
            ],
        }
    }

    #[test]
    fn outcomes_are_thread_count_invariant() {
        let sys = base_system();
        let base = AnalysisContext::new(&sys).unwrap();
        let batch = sample_batch();
        let solo = run_batch(&base, &batch, &XyRouting, 1);
        assert_eq!(solo.outcomes.len(), batch.queries.len());
        for threads in [2, 4] {
            let sharded = run_batch(&base, &batch, &XyRouting, threads);
            assert_eq!(sharded.outcomes, solo.outcomes, "threads={threads}");
        }
    }

    /// `n` sampled queries of `system`, served on two threads: no outcome
    /// may fail validation.
    fn served_samples(system: &System, n: usize) -> Vec<Query> {
        let queries = sample_queries(system, n);
        let batch = QueryBatch {
            analysis: AnalysisKind::BufferAware,
            queries: queries.clone(),
        };
        let base = AnalysisContext::new(system).unwrap();
        for outcome in run_batch(&base, &batch, &XyRouting, 2).outcomes {
            assert!(
                !matches!(outcome, QueryOutcome::Failed { .. }),
                "{outcome:?}"
            );
        }
        queries
    }

    /// A sampled admission takes the level below the lowest priority in
    /// use: `len + 1` on a dense set, and still unused once the top flow
    /// retired (levels 2–4, where `len + 1` is taken).
    #[test]
    fn sampled_admissions_take_an_unused_priority() {
        let levels = |queries: &[Query]| -> Vec<u32> {
            let admissions = queries.iter().filter_map(|q| match q {
                Query::Admission { flow } => Some(flow.priority().level()),
                _ => None,
            });
            admissions.collect()
        };
        let dense = base_system();
        assert_eq!(levels(&served_samples(&dense, 10)), [5; 4]);
        let sparse = dense.without_flow(FlowId::new(0)).unwrap();
        assert_eq!(levels(&served_samples(&sparse, 10)), [5; 4]);
    }

    /// A system with no flows samples the two buffer what-if kinds in
    /// turn, and serves them.
    #[test]
    fn an_empty_system_samples_buffer_what_ifs() {
        let flows = FlowSet::new(Vec::new()).unwrap();
        let empty = System::new(
            Topology::mesh(4, 4),
            NocConfig::default(),
            flows,
            &XyRouting,
        )
        .unwrap();
        let queries = served_samples(&empty, 6);
        assert_eq!(queries.len(), 6);
        for (i, query) in queries.iter().enumerate() {
            match query {
                Query::BufferWhatIf { .. } => assert_eq!(i % 2, 0),
                Query::RouterBufferWhatIf { .. } => assert_eq!(i % 2, 1),
                other => panic!("{other:?} sampled from no flows"),
            }
        }
    }

    /// Each outcome of `batch` served over `sys` on `threads` equals the
    /// verdict of its what-if system rebuilt from scratch; returns them.
    fn assert_matches_from_scratch(
        sys: &System,
        batch: &QueryBatch,
        threads: usize,
    ) -> Vec<QueryOutcome> {
        let base = AnalysisContext::new(sys).unwrap();
        let got = run_batch(&base, batch, &XyRouting, threads);
        for (i, (query, outcome)) in batch.queries.iter().zip(&got.outcomes).enumerate() {
            let expected_sys = match query {
                Query::Admission { flow } => {
                    sys.with_added_flow(flow.clone(), &XyRouting).unwrap().0
                }
                Query::Removal { id } => sys.without_flow(*id).unwrap(),
                Query::BufferWhatIf { depth } => sys.with_buffer_depth(*depth),
                Query::RouterBufferWhatIf { router, depth } => {
                    sys.with_router_buffer_depth(*router, *depth)
                }
            };
            let report = batch.analysis.as_analysis().analyze(&expected_sys).unwrap();
            let expected = QueryOutcome::from_report(&report);
            assert_eq!(outcome, &expected, "query {i}: {query:?}");
        }
        got.outcomes
    }

    #[test]
    fn queries_match_from_scratch_analysis() {
        assert_matches_from_scratch(&base_system(), &sample_batch(), 2);
        // A removal-heavy batch on one shard: 30 removals of repeated and
        // distinct ids, between admissions and router what-ifs, each of
        // which must find the base ids in place after the queries before.
        // Periods cut 16-fold load the base enough that removals of
        // different flows answer differently.
        let sys = noc_workload::synthetic::SyntheticSpec::paper(4, 4, 16, 2)
            .generate(2)
            .into_system()
            .with_scaled_periods(1, 16)
            .unwrap();
        let fresh = Priority::new(sys.flows().len() as u32 + 1);
        let template = |i: u32| sys.flow(FlowId::new(i % 16)).clone();
        let mut queries = Vec::new();
        for i in 0..30u32 {
            queries.push(Query::Removal {
                id: FlowId::new((i * 7) % 16),
            });
            match i % 3 {
                0 => queries.push(Query::Admission {
                    flow: Flow::builder(template(i).source(), template(i).dest())
                        .priority(fresh)
                        .period(template(i).period())
                        .length_flits(8 + i)
                        .build(),
                }),
                1 => queries.push(Query::RouterBufferWhatIf {
                    router: RouterId::new(i % 16),
                    depth: 2 + i % 7,
                }),
                _ => {}
            }
        }
        let batch = QueryBatch {
            analysis: AnalysisKind::BufferAware,
            queries,
        };
        let outcomes = assert_matches_from_scratch(&sys, &batch, 1);
        let distinct: std::collections::BTreeSet<_> =
            outcomes.iter().map(|o| format!("{o:?}")).collect();
        assert!(
            distinct.len() > 2,
            "a fixture whose removals all answer alike pins nothing: {distinct:?}"
        );
    }

    #[test]
    fn malformed_queries_fail_validation_not_the_batch() {
        let sys = base_system();
        let base = AnalysisContext::new(&sys).unwrap();
        let batch = QueryBatch {
            analysis: AnalysisKind::Xlwx,
            queries: vec![
                // Duplicate priority against the base system.
                Query::Admission {
                    flow: mesh_flow((5, 6, 1, 3000)),
                },
                // Unknown base flow id.
                Query::Removal {
                    id: FlowId::new(99),
                },
                // Zero period.
                Query::Admission {
                    flow: mesh_flow((5, 6, 7, 0)),
                },
                // Zero-flit payload.
                Query::Admission {
                    flow: Flow::builder(NodeId::new(5), NodeId::new(6))
                        .priority(Priority::new(8))
                        .period(Cycles::new(1000))
                        .length_flits(0)
                        .build(),
                },
                // Zero buffer depth.
                Query::BufferWhatIf { depth: 0 },
                // Zero per-router depth.
                Query::RouterBufferWhatIf {
                    router: RouterId::new(3),
                    depth: 0,
                },
                // Single-flit buffers, outside the validated buf ≥ 2.
                Query::BufferWhatIf { depth: 1 },
                Query::RouterBufferWhatIf {
                    router: RouterId::new(0),
                    depth: 1,
                },
                // Router outside the 4x4 mesh.
                Query::RouterBufferWhatIf {
                    router: RouterId::new(16),
                    depth: 4,
                },
                // A sane query after the failures still works.
                Query::BufferWhatIf { depth: 4 },
            ],
        };
        let report = run_batch(&base, &batch, &XyRouting, 2);
        let invalid = batch.queries.len() - 1;
        for (i, outcome) in report.outcomes[..invalid].iter().enumerate() {
            assert!(
                matches!(
                    outcome,
                    QueryOutcome::Failed {
                        error: ServeError::InvalidQuery { .. }
                    }
                ),
                "query {i}: {outcome:?}"
            );
        }
        assert!(!matches!(
            report.outcomes[invalid],
            QueryOutcome::Failed { .. }
        ));
        assert_eq!(report.tally().failed, invalid);
    }

    #[test]
    fn router_what_if_restores_the_shard_for_later_queries() {
        // A heterogeneous what-if must not leak its override into the
        // queries served after it on the same shard: single-threaded so
        // every query shares one shard, with the what-if first.
        let sys = base_system();
        let base = AnalysisContext::new(&sys).unwrap();
        let mut queries = vec![Query::RouterBufferWhatIf {
            router: RouterId::new(6),
            depth: 64,
        }];
        queries.extend(sample_batch().queries);
        let batch = QueryBatch {
            analysis: AnalysisKind::BufferAware,
            queries,
        };
        let expected = run_batch(&base, &sample_batch(), &XyRouting, 1);
        let got = run_batch(&base, &batch, &XyRouting, 1);
        assert_eq!(&got.outcomes[1..], &expected.outcomes[..]);
    }

    #[test]
    fn router_what_if_against_heterogeneous_base() {
        // The base system itself already has a per-router override; a
        // what-if on a *different* router must answer against the oracle
        // and leave the base override intact.
        let sys = base_system().with_router_buffer_depth(RouterId::new(10), 8);
        let base = AnalysisContext::new(&sys).unwrap();
        let query = Query::RouterBufferWhatIf {
            router: RouterId::new(5),
            depth: 3,
        };
        let batch = QueryBatch {
            analysis: AnalysisKind::BufferAware,
            queries: vec![query, Query::BufferWhatIf { depth: 4 }],
        };
        let report = run_batch(&base, &batch, &XyRouting, 1);
        let oracle_sys = sys.with_router_buffer_depth(RouterId::new(5), 3);
        let oracle = batch.analysis.as_analysis().analyze(&oracle_sys).unwrap();
        assert_eq!(report.outcomes[0], QueryOutcome::from_report(&oracle));
    }

    #[test]
    fn empty_batch_is_fine() {
        let sys = base_system();
        let base = AnalysisContext::new(&sys).unwrap();
        let batch = QueryBatch {
            analysis: AnalysisKind::ShiBurns,
            queries: Vec::new(),
        };
        let report = run_batch(&base, &batch, &XyRouting, 4);
        assert!(report.outcomes.is_empty());
        assert_eq!(report.tally(), OutcomeTally::default());
    }

    #[test]
    fn default_options_match_run_batch() {
        let sys = base_system();
        let base = AnalysisContext::new(&sys).unwrap();
        let batch = sample_batch();
        let plain = run_batch(&base, &batch, &XyRouting, 2);
        let with = run_batch_with(&base, &batch, &XyRouting, 2, &ServeOptions::default());
        assert_eq!(plain.outcomes, with.outcomes);
    }

    #[test]
    fn shedding_is_deterministic_and_thread_invariant() {
        let sys = base_system();
        let base = AnalysisContext::new(&sys).unwrap();
        let batch = sample_batch();
        let options = ServeOptions {
            max_pending: Some(2),
            ..ServeOptions::default()
        };
        let clean = run_batch(&base, &batch, &XyRouting, 1);
        for threads in [1, 2, 4] {
            let report = run_batch_with(&base, &batch, &XyRouting, threads, &options);
            assert_eq!(&report.outcomes[..2], &clean.outcomes[..2], "{threads}");
            assert!(
                report.outcomes[2..]
                    .iter()
                    .all(|o| *o == QueryOutcome::Shed),
                "{threads}"
            );
            assert_eq!(report.tally().shed, batch.queries.len() - 2);
        }
    }

    #[test]
    fn zero_deadline_degrades_every_query_conservatively() {
        let sys = base_system();
        let base = AnalysisContext::new(&sys).unwrap();
        let batch = sample_batch();
        let options = ServeOptions {
            deadline: Some(Duration::ZERO),
            ..ServeOptions::default()
        };
        let clean = run_batch(&base, &batch, &XyRouting, 1);
        let report = run_batch_with(&base, &batch, &XyRouting, 2, &options);
        for (i, (degraded, exact)) in report.outcomes.iter().zip(&clean.outcomes).enumerate() {
            match degraded {
                QueryOutcome::Degraded {
                    reason: DegradeReason::DeadlineExceeded,
                    failing,
                } => {
                    // Conservative acceptance implies exact acceptance.
                    if *failing == 0 {
                        assert!(exact.is_accepted(), "query {i}");
                    }
                }
                other => panic!("query {i}: expected Degraded, got {other:?}"),
            }
        }
        assert_eq!(report.tally().degraded, batch.queries.len());
    }

    #[test]
    fn generous_deadline_changes_nothing() {
        let sys = base_system();
        let base = AnalysisContext::new(&sys).unwrap();
        let batch = sample_batch();
        let options = ServeOptions {
            deadline: Some(Duration::from_secs(3600)),
            ..ServeOptions::default()
        };
        let clean = run_batch(&base, &batch, &XyRouting, 2);
        let report = run_batch_with(&base, &batch, &XyRouting, 2, &options);
        assert_eq!(report.outcomes, clean.outcomes);
    }

    /// Keeps injected-fault panics out of the test output; every other
    /// panic still reaches the default hook (and fails tests normally).
    fn quiet_injected_panics() {
        static ONCE: std::sync::Once = std::sync::Once::new();
        ONCE.call_once(|| {
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

    #[test]
    fn injected_transient_panics_are_retried_to_the_exact_answer() {
        quiet_injected_panics();
        let sys = base_system();
        let base = AnalysisContext::new(&sys).unwrap();
        let batch = sample_batch();
        let clean = run_batch(&base, &batch, &XyRouting, 1);
        // Find a seed whose plan panics transiently on at least one query
        // of this batch — deterministically, by scanning plans.
        let plan = (0..4096)
            .map(|seed| FaultPlan::new(seed, 1.0))
            .find(|plan| {
                (0..batch.queries.len())
                    .any(|q| plan.fault_for(q, 0) == Fault::Panic { persistent: false })
                    && (0..batch.queries.len())
                        .all(|q| plan.fault_for(q, 0) != Fault::Panic { persistent: true })
                    && (0..batch.queries.len()).all(|q| plan.fault_for(q, 0) != Fault::CancelSolve)
            })
            .expect("some seed panics transiently without persistent/cancel faults");
        let options = ServeOptions {
            faults: Some(plan),
            ..ServeOptions::default()
        };
        let report = run_batch_with(&base, &batch, &XyRouting, 2, &options);
        // Transient panics and delays are absorbed: outcomes match the
        // never-faulted run exactly.
        assert_eq!(report.outcomes, clean.outcomes);
    }

    #[test]
    fn persistent_panics_exhaust_retries_into_failed() {
        quiet_injected_panics();
        let sys = base_system();
        let base = AnalysisContext::new(&sys).unwrap();
        let batch = sample_batch();
        let clean = run_batch(&base, &batch, &XyRouting, 1);
        let plan = (0..256)
            .map(|seed| FaultPlan::new(seed, 1.0))
            .find(|plan| {
                (0..batch.queries.len())
                    .any(|q| plan.fault_for(q, 0) == Fault::Panic { persistent: true })
            })
            .expect("some seed injects a persistent panic");
        let options = ServeOptions {
            faults: Some(plan),
            ..ServeOptions::default()
        };
        let report = run_batch_with(&base, &batch, &XyRouting, 2, &options);
        let mut saw_failed = false;
        for (i, outcome) in report.outcomes.iter().enumerate() {
            match plan.fault_for(i, 0) {
                Fault::Panic { persistent: true } => {
                    assert!(
                        matches!(
                            outcome,
                            QueryOutcome::Failed {
                                error: ServeError::Panicked { .. }
                            }
                        ),
                        "query {i}: {outcome:?}"
                    );
                    saw_failed = true;
                }
                Fault::CancelSolve => {
                    assert!(
                        matches!(outcome, QueryOutcome::Degraded { .. }),
                        "query {i}: {outcome:?}"
                    );
                }
                _ => {
                    // Transient faults resolve to the exact answer; later
                    // queries on a shard that failed earlier still serve
                    // correctly off the re-forked context.
                    assert_eq!(outcome, &clean.outcomes[i], "query {i}");
                }
            }
        }
        assert!(saw_failed);
    }

    #[test]
    fn serve_options_from_env_defaults_are_inert() {
        // The test environment does not set the serve variables; the
        // environment must then yield the default policy.
        if env::var("NOC_SERVE_DEADLINE_MS").is_err()
            && env::var("NOC_SERVE_MAX_PENDING").is_err()
            && env::var("NOC_FAULT_SEED").is_err()
        {
            let options = ServeOptions::try_from_env().unwrap();
            assert_eq!(options.deadline, None);
            assert_eq!(options.max_pending, None);
            assert_eq!(options.faults, None);
        }
    }
}

//! Telemetry surface of the analysis engine.
//!
//! All metrics are no-ops unless telemetry is enabled (the `NOC_TELEMETRY`
//! env var, plus the default-on `telemetry` cargo feature); see
//! [`noc_telemetry`] for the gating model. Recording never changes any
//! analysis result — the workspace's `telemetry_neutrality` test pins
//! bit-identical reports with telemetry on and off.

use noc_telemetry::{Counter, Histogram};

/// Total fixed-point iterations across all solved flows (the inner-loop
/// work of Equation 5's recurrence).
pub static SOLVER_ITERATIONS: Counter = Counter::new("analysis.solver.iterations");

/// Flows taken through the fixed-point loop (full and dirty re-solves).
pub static SOLVER_FLOWS_SOLVED: Counter = Counter::new("analysis.solver.flows_solved");

/// Fixed-point loops aborted by the iteration safety cap. Each hit also
/// surfaces as [`AnalysisError::ConvergenceCap`](crate::error::AnalysisError).
pub static SOLVER_CAP_HITS: Counter = Counter::new("analysis.solver.cap_hits");

/// Solves aborted because their [`Budget`](crate::budget::Budget) expired
/// (wall-clock deadline or cooperative cancellation). Each hit also
/// surfaces as
/// [`AnalysisError::DeadlineExceeded`](crate::error::AnalysisError).
pub static SOLVER_DEADLINE_HITS: Counter = Counter::new("analysis.solver.deadline_hits");

/// Conservative (non-iterative) bound computations served, typically as
/// the degraded fallback after a deadline or convergence failure.
pub static CONSERVATIVE_SOLVES: Counter = Counter::new("analysis.conservative.solves");

/// Flows whose conservative bound was evaluated, by a report or by
/// [`AnalysisContext::warm_conservative`]: every flow of a cold pass, and
/// in a cached pass the flows a delta marked plus those below them whose
/// direct interferers changed.
///
/// [`AnalysisContext::warm_conservative`]: crate::context::AnalysisContext::warm_conservative
pub static CONSERVATIVE_EVALUATED: Counter = Counter::new("analysis.conservative.evaluated");

/// Flows whose conservative bound a report took from a cache unevaluated.
pub static CONSERVATIVE_REUSED: Counter = Counter::new("analysis.conservative.reused");

/// Wall-clock time of whole-report solves (all flows of one analysis),
/// full and cached alike.
pub static SOLVE_NS: Histogram = Histogram::new("analysis.solver.solve_ns");

/// Dirty flows re-solved by cached (incremental) solves.
pub static CACHE_DIRTY_SOLVED: Counter = Counter::new("analysis.cache.dirty_solved");

/// Clean flows whose cached verdict and response time were reused
/// (republished for lower-priority flows to read) by cached solves.
pub static CACHE_CLEAN_REUSED: Counter = Counter::new("analysis.cache.clean_reused");

/// Deltas applied to incremental contexts: flow additions, flow removals
/// and router buffer resizes.
pub static INCREMENTAL_DELTAS: Counter = Counter::new("analysis.incremental.deltas");

/// Flows marked dirty by delta application (the size of the touched
/// interference neighbourhood, summed over deltas; excludes the added
/// flow itself, which starts dirty).
pub static INCREMENTAL_FLOWS_DIRTIED: Counter = Counter::new("analysis.incremental.flows_dirtied");

/// Flows a cached solve re-solved whose response time, verdict and
/// `Idown` slots all came out as before: the work a finer re-solve trigger
/// could still save.
pub static CACHE_UNCHANGED_RESOLVES: Counter = Counter::new("analysis.cache.unchanged_resolves");

/// Edge terms that a cached solve's re-solved flows read back from the
/// `Idown` memo instead of recomputing: edges whose interferer did not
/// change, into XLWX and IBN victims that no flow addition or removal
/// marked (see `Solver::solve_cached`).
pub static CACHE_EDGES_REUSED: Counter = Counter::new("analysis.cache.edges_reused");

/// Edge terms that a cached solve's re-solved, untainted flows
/// recomputed: every edge of SB, `NoIndirect` and `XiongOriginal`
/// victims and of victims an addition or removal marked, and otherwise
/// the edges whose interferer changed or whose domain enters a resized
/// router.
pub static CACHE_EDGES_RECOMPUTED: Counter = Counter::new("analysis.cache.edges_recomputed");

/// Incremental contexts forked from an [`AnalysisContext`] holding at least
/// one solved cache, so their first solve re-solves only what changed.
///
/// [`AnalysisContext`]: crate::context::AnalysisContext
pub static FORK_WARM: Counter = Counter::new("analysis.fork.warm");

/// Incremental contexts forked from an [`AnalysisContext`] holding no
/// solved cache, so their first solve is a full one.
///
/// [`AnalysisContext`]: crate::context::AnalysisContext
pub static FORK_COLD: Counter = Counter::new("analysis.fork.cold");

/// Buffer-depth reports an [`AnalysisContext`] kept
/// ([`AnalysisContext::warm_buffer_depths`]).
///
/// [`AnalysisContext`]: crate::context::AnalysisContext
/// [`AnalysisContext::warm_buffer_depths`]: crate::context::AnalysisContext::warm_buffer_depths
pub static BUFFER_DEPTH_FILLED: Counter = Counter::new("analysis.buffer_depth.filled");

/// Buffer-depth answers
/// ([`AnalysisContext::analyze_at_buffer_depth`]) read from a kept report,
/// with no solve.
///
/// [`AnalysisContext::analyze_at_buffer_depth`]: crate::context::AnalysisContext::analyze_at_buffer_depth
pub static BUFFER_DEPTH_SERVED: Counter = Counter::new("analysis.buffer_depth.served");

/// Buffer-depth answers
/// ([`AnalysisContext::analyze_at_buffer_depth`]) solved in full because
/// no report was kept for their kind and depth.
///
/// [`AnalysisContext::analyze_at_buffer_depth`]: crate::context::AnalysisContext::analyze_at_buffer_depth
pub static BUFFER_DEPTH_UNKEPT: Counter = Counter::new("analysis.buffer_depth.unkept");

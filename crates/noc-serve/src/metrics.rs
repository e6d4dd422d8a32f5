//! Telemetry surface of the serving layer.
//!
//! All metrics are no-ops unless telemetry is enabled (the `NOC_TELEMETRY`
//! env var, plus the default-on `telemetry` cargo feature); see
//! [`noc_telemetry`] for the gating model. `query_server` folds a snapshot
//! of these (together with the solver and simulator metrics) into its JSON
//! record and `SERVE_metrics.json` dump.

use noc_telemetry::{Counter, Histogram};

/// Wall-clock latency of individual queries, across all shards.
pub static QUERY_LATENCY_NS: Histogram = Histogram::new("serve.query.latency_ns");

/// Queries answered (any outcome).
pub static QUERIES_SERVED: Counter = Counter::new("serve.queries");

/// Batches evaluated via [`run_batch`](crate::run_batch).
pub static BATCHES: Counter = Counter::new("serve.batches");

/// Per-thread [`AnalysisContext::from_context`](noc_analysis::context::AnalysisContext::from_context)
/// forks off the shared base context (one per shard per batch).
pub static CONTEXT_FORKS: Counter = Counter::new("serve.context_forks");

/// Worker panics caught by the per-query isolation boundary (injected or
/// real). Each one also triggers a shard rebuild.
pub static PANICS_CAUGHT: Counter = Counter::new("serve.panics_caught");

/// Shards re-forked from the base context after a caught panic poisoned
/// their mutable state.
pub static SHARD_REBUILDS: Counter = Counter::new("serve.shard_rebuilds");

/// Serve attempts retried after a transient failure (bounded backoff).
pub static RETRIES: Counter = Counter::new("serve.retries");

/// Queries answered with a conservative
/// [`Degraded`](crate::QueryOutcome::Degraded) verdict after a deadline or
/// convergence failure.
pub static DEGRADED: Counter = Counter::new("serve.degraded");

/// Queries shed unserved because the batch exceeded the configured
/// pending-queue bound ([`ServeOptions::max_pending`](crate::ServeOptions)).
pub static SHED: Counter = Counter::new("serve.shed");

/// Queries rejected up front by batch validation
/// ([`ServeError::InvalidQuery`](crate::ServeError)).
pub static INVALID: Counter = Counter::new("serve.invalid");

/// Queries that exhausted their retries and answered
/// [`Failed`](crate::QueryOutcome::Failed).
pub static FAILED: Counter = Counter::new("serve.failed");

/// Faults injected by an active [`FaultPlan`](crate::fault::FaultPlan) —
/// nonzero in any chaos run, always zero otherwise.
pub static FAULTS_INJECTED: Counter = Counter::new("serve.faults.injected");

//! Worst-case response-time analyses for priority-preemptive wormhole NoCs.
//!
//! This crate is the primary contribution of the reproduced paper,
//! *"Buffer-aware bounds to multi-point progressive blocking in
//! priority-preemptive NoCs"* (Indrusiak, Burns & Nikolić, DATE 2018),
//! together with every baseline it compares against. The five analyses are
//! the variants of [`AnalysisKind`], re-exported under their own names, and
//! [`AnalysisKind`] is the only implementor of the [`Analysis`] trait (a
//! trait still, for callers that hold `&dyn Analysis` values):
//!
//! * [`ShiBurns`] (SB) — direct interference + interference jitter;
//!   optimistic under multi-point progressive blocking (MPB).
//! * [`XiongOriginal`] — Equation 4 of Xiong et al. (GLSVLSI 2016); the
//!   first attempt at MPB, later shown optimistic.
//! * [`Xlwx`] — the corrected Equation 5 (IEEE TC 2017); safe but charges
//!   downstream indirect interference as if it were direct.
//! * [`BufferAware`] (**IBN**, the paper's contribution) — caps each MPB hit
//!   by the buffered interference `bi(i,j) = buf·linkl·|cd(i,j)|`
//!   (Equations 6–8), so *smaller router buffers yield tighter bounds*.
//! * [`NoIndirect`] — a naive direct-only teaching baseline.
//!
//! # Quick start
//!
//! ```
//! use noc_model::prelude::*;
//! use noc_analysis::prelude::*;
//!
//! // Two flows crossing a 4x4 mesh.
//! let topology = Topology::mesh(4, 4);
//! let flows = FlowSet::new(vec![
//!     Flow::builder(NodeId::new(0), NodeId::new(12))
//!         .priority(Priority::new(1))
//!         .period(Cycles::new(1_000))
//!         .length_flits(32)
//!         .build(),
//!     Flow::builder(NodeId::new(1), NodeId::new(13))
//!         .priority(Priority::new(2))
//!         .period(Cycles::new(3_000))
//!         .length_flits(64)
//!         .build(),
//! ])?;
//! let system = System::new(topology, NocConfig::default(), flows, &XyRouting)?;
//!
//! let report = BufferAware.analyze(&system)?;
//! assert!(report.is_schedulable());
//! for (id, verdict) in report.iter() {
//!     println!("{id}: {verdict}");
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! # Amortising the interference structure
//!
//! All five analyses consume the same derived structure (interference graph,
//! priority order, zero-load latencies). Build an
//! [`AnalysisContext`] once per flow set and run
//! every analysis against it with [`Analysis::analyze_with`]; derived
//! systems (other buffer depths, scaled periods) share the graph through
//! [`AnalysisContext::rebase`]. The
//! experiment harnesses in `noc-experiments` rely on this throughout.
//! The same context keeps per-analysis solve caches and takes flow-set
//! deltas in place ([`AnalysisContext::add_flow`],
//! [`AnalysisContext::what_if`]), carrying its caches across them;
//! [`AnalysisContext::from_context`] forks it copy-on-write, one fork per
//! serving thread.
//!
//! # Module map (code ↔ paper)
//!
//! | Module | Paper artefact |
//! |---|---|
//! | [`analysis`] | the five analyses: SB \[11\], Eq. 4 \[12\], Eq. 5/XLWX \[13\], **IBN** (Eq. 6–8, this paper) |
//! | `engine` (private) | Equation 5 skeleton: the fixed-point recurrence `Rᵢ = Cᵢ + Σ ⌈(Rᵢ+Jⱼ+jitterⱼ)/Tⱼ⌉·(Cⱼ+Idown(j,i))`, Eq. 2 `Iup`, Eq. 3 `Idown`, Eq. 6 `bi(i,j)`, Eq. 8 condition |
//! | [`context`] | precomputed §III structure shared across analyses (graph from [`noc_model::contention`]), plus the solve caches kept over it |
//! | [`incremental`] | flow-set deltas and what-if scopes on a context, which carry its solve caches |
//! | [`report`] | per-flow verdicts/bounds — the `R_*` columns of Table II |
//! | [`error`] | model-assumption violations surfaced to callers |
//! | [`budget`] | cooperative solve deadlines/cancellation polled by the engine |
//! | [`conservative`] | one evaluation of the engine's recurrence at `R := D` — the degraded-mode fallback |
//! | [`metrics`] | solver/cache telemetry (iterations, dirty-bit hit rates) — no-ops unless `NOC_TELEMETRY=1` |
//! | [`runner`] | deterministic thread-parallel map for sweeps, serving shards and buffer-depth fills |
//!
//! # Safety ordering
//!
//! For every flow the bounds are ordered
//! `R_SB ≤ R_IBN ≤ R_XLWX` and `R_IBN` is non-decreasing in the buffer
//! depth `buf(Ξ)`; these invariants are enforced by the property tests of
//! this crate.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analysis;
pub mod budget;
pub mod conservative;
pub mod context;
mod engine;
pub mod error;
pub mod incremental;
pub mod metrics;
pub mod report;
pub mod runner;

pub use analysis::{
    all_analyses, Analysis, AnalysisKind, BufferAware, NoIndirect, ShiBurns, XiongOriginal, Xlwx,
};
pub use budget::Budget;
pub use conservative::conservative_with;
pub use context::AnalysisContext;
pub use error::AnalysisError;
pub use incremental::IncrementalContext;
pub use report::{AnalysisReport, FlowExplanation, FlowVerdict, InterferenceTerm};

/// Convenient re-exports of the crate's public surface.
pub mod prelude {
    pub use crate::analysis::{
        all_analyses, Analysis, AnalysisKind, BufferAware, NoIndirect, ShiBurns, XiongOriginal,
        Xlwx,
    };
    pub use crate::budget::Budget;
    pub use crate::conservative::conservative_with;
    pub use crate::context::AnalysisContext;
    pub use crate::error::AnalysisError;
    pub use crate::incremental::IncrementalContext;
    pub use crate::report::{AnalysisReport, FlowExplanation, FlowVerdict, InterferenceTerm};
}

//! The [`Analysis`] trait and the five analyses, the variants of
//! [`AnalysisKind`] (re-exported here under their own names).
//!
//! | Analysis | Paper | Downstream MPB charge | Safe under MPB? |
//! |---|---|---|---|
//! | [`NoIndirect`] | — (teaching baseline) | none, no jitter | no |
//! | [`ShiBurns`] | SB, \[11\] | none | no |
//! | [`XiongOriginal`] | Eq. 4, \[12\] | Eq. 3, with `Iup` as window jitter | no (shown optimistic by \[6\]) |
//! | [`Xlwx`] | Eq. 5, \[13\] | Eq. 3 | yes |
//! | [`BufferAware`] | **IBN**, Eq. 5 + 6–8 (this paper) | `min(bi, Eq. 3)` | yes |

use noc_model::system::System;

use crate::budget::Budget;
use crate::context::AnalysisContext;
use crate::engine::{DownstreamModel, JitterModel, Solver};
use crate::error::AnalysisError;
use crate::report::{AnalysisReport, FlowExplanation};

/// A worst-case response-time analysis: maps a [`System`] to per-flow
/// latency bounds and a schedulability verdict.
///
/// Object-safe ([C-OBJECT]) so experiment harnesses can iterate over
/// `&dyn Analysis` collections. [`AnalysisKind`] is its only implementor;
/// it stays a trait for those `&dyn Analysis` callers.
///
/// Every method but [`Analysis::kind`] is provided and reads that kind's
/// entry in the analysis table. The
/// primitive operations are [`Analysis::analyze_with`] and
/// [`Analysis::explain_with`], which borrow a shared [`AnalysisContext`];
/// the [`Analysis::analyze`]/[`Analysis::explain`] conveniences build a
/// fresh context per call. Harnesses that run several analyses (or several
/// buffer depths) over one flow set should build the context once and use
/// the `_with` forms — see [`crate::context`] for the full pattern.
pub trait Analysis {
    /// Which of the five analyses this is.
    fn kind(&self) -> AnalysisKind;

    /// Short, stable display name (`"SB"`, `"XLWX"`, `"IBN"`, …).
    fn name(&self) -> &'static str {
        self.kind().name()
    }

    /// Runs the analysis over every flow of the context's system, reusing
    /// the context's precomputed interference structure.
    ///
    /// # Errors
    ///
    /// The concrete analyses of this crate fail here only with
    /// [`AnalysisError::ConvergenceCap`], on pathological inputs whose
    /// fixed-point iteration exhausts the solver's safety cap (the fallible
    /// structure derivation already happened in [`AnalysisContext::new`]).
    fn analyze_with(&self, ctx: &AnalysisContext<'_>) -> Result<AnalysisReport, AnalysisError> {
        self.kind().analyze_with_budget(ctx, &Budget::unlimited())
    }

    /// [`Analysis::explain`] against a shared context: per-flow interference
    /// breakdowns at the fixed point.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Analysis::analyze_with`].
    fn explain_with(
        &self,
        ctx: &AnalysisContext<'_>,
    ) -> Result<Vec<FlowExplanation>, AnalysisError> {
        Solver::new(ctx, self.kind().spec(), &Budget::unlimited()).solve_explained()
    }

    /// Runs the analysis over every flow of `system`, deriving the
    /// interference structure from scratch.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::Model`] if the system violates a model
    /// assumption (e.g. non-contiguous contention domains).
    fn analyze(&self, system: &System) -> Result<AnalysisReport, AnalysisError> {
        self.analyze_with(&AnalysisContext::new(system)?)
    }

    /// Runs the analysis and returns, for every flow, the interference
    /// breakdown at the fixed point: which interferer was charged how many
    /// hits of what size (including the MPB term). The identity
    /// `R = C + Σ hits·charge` holds for every schedulable flow.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Analysis::analyze`].
    fn explain(&self, system: &System) -> Result<Vec<FlowExplanation>, AnalysisError> {
        self.explain_with(&AnalysisContext::new(system)?)
    }
}

/// The five analyses of this crate: the only implementor of [`Analysis`].
///
/// A kind is a plain `Copy` value, so it also keys the per-analysis solve
/// caches of [`IncrementalContext`](crate::incremental::IncrementalContext)
/// and ships a choice of analysis across threads in a query batch. The
/// variants are re-exported under their own names, so `ShiBurns.analyze(&sys)`
/// and `&Xlwx as &dyn Analysis` name an analysis directly.
///
/// The kind holds the analysis table: the five analyses differ only in how
/// downstream indirect interference is charged and in what widens a direct
/// interferer's window, so they are one code path through one solver.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AnalysisKind {
    /// Direct interference only, no interference jitter: the naive bound
    /// that predates SB. Unsafe; kept as a teaching/ablation baseline
    /// showing why indirect interference matters.
    NoIndirect,
    /// The Shi & Burns analysis (SB, \[11\]): direct interference plus the
    /// interference jitter `J^I_j = Rⱼ − Cⱼ` for direct interferers that
    /// suffer indirect interference. Optimistic under multi-point
    /// progressive blocking (§III of the paper).
    ///
    /// # Examples
    ///
    /// ```
    /// # use noc_model::prelude::*;
    /// # use noc_analysis::prelude::*;
    /// # fn system() -> System {
    /// #     let t = Topology::mesh(2, 1);
    /// #     let f = FlowSet::new(vec![Flow::builder(NodeId::new(0), NodeId::new(1))
    /// #         .priority(Priority::new(1)).period(Cycles::new(100)).build()]).unwrap();
    /// #     System::new(t, NocConfig::default(), f, &XyRouting).unwrap()
    /// # }
    /// let report = ShiBurns.analyze(&system())?;
    /// assert!(report.is_schedulable());
    /// # Ok::<(), noc_analysis::error::AnalysisError>(())
    /// ```
    ShiBurns,
    /// The original Xiong et al. analysis (Equation 4, GLSVLSI 2016 \[12\]):
    /// downstream indirect interference charged as direct interference and
    /// the upstream term `Iup(j,i)` used as window jitter. Shown optimistic
    /// by the counter-example of \[6\]; kept for ablation studies.
    XiongOriginal,
    /// The corrected Xiong/Lu/Wu/Xie analysis (XLWX, Equation 5 with the
    /// fix of \[6\], published in \[13\]): the state of the art the paper
    /// improves on. Safe under MPB but pessimistic — downstream indirect
    /// interference is charged in full as direct interference.
    Xlwx,
    /// **IBN** — the paper's buffer-aware analysis (§IV): downstream
    /// indirect interference per hit is capped by the buffered interference
    /// `bi(i,j) = buf(Ξ)·linkl(Ξ)·|cd(i,j)|` (Equation 6) whenever the
    /// direct interferer suffers no upstream indirect interference
    /// (Equation 8), falling back to the XLWX charge otherwise. Reads
    /// `buf(Ξ)` from [`System::config`]; analyse
    /// `system.with_buffer_depth(b)` to study other buffer sizes.
    ///
    /// Never less tight than [`Xlwx`], and safe under MPB.
    ///
    /// # Examples
    ///
    /// ```
    /// # use noc_model::prelude::*;
    /// # use noc_analysis::prelude::*;
    /// # fn system() -> System {
    /// #     let t = Topology::mesh(2, 1);
    /// #     let f = FlowSet::new(vec![Flow::builder(NodeId::new(0), NodeId::new(1))
    /// #         .priority(Priority::new(1)).period(Cycles::new(100)).build()]).unwrap();
    /// #     System::new(t, NocConfig::default(), f, &XyRouting).unwrap()
    /// # }
    /// let sys = system();
    /// let small = BufferAware.analyze(&sys)?;
    /// let large = BufferAware.analyze(&sys.with_buffer_depth(100))?;
    /// // Buffer size can only increase IBN's bounds:
    /// for (id, v) in small.iter() {
    ///     assert!(v.response_time() <= large.verdict(id).response_time());
    /// }
    /// # Ok::<(), noc_analysis::error::AnalysisError>(())
    /// ```
    BufferAware,
}

pub use self::AnalysisKind::{BufferAware, NoIndirect, ShiBurns, XiongOriginal, Xlwx};

impl Analysis for AnalysisKind {
    fn kind(&self) -> AnalysisKind {
        *self
    }
}

impl AnalysisKind {
    /// Every kind, in increasing order of modelled interference detail
    /// (the same order as [`all_analyses`]).
    pub const ALL: [AnalysisKind; 5] = [NoIndirect, ShiBurns, XiongOriginal, Xlwx, BufferAware];

    /// The display name (`"SB"`, `"XLWX"`, `"IBN"`, …), shared with
    /// [`Analysis::name`].
    pub fn name(self) -> &'static str {
        self.spec().0
    }

    /// This analysis as a `'static` trait object, for callers that store
    /// or pass `&dyn Analysis` values.
    pub fn as_analysis(self) -> &'static (dyn Analysis + Send + Sync) {
        match self {
            NoIndirect => &NoIndirect,
            ShiBurns => &ShiBurns,
            XiongOriginal => &XiongOriginal,
            Xlwx => &Xlwx,
            BufferAware => &BufferAware,
        }
    }

    /// [`Analysis::analyze_with`] under a cooperative [`Budget`]: the solver
    /// polls the budget (once per flow plus every
    /// [`Budget::POLL_ITERATIONS`] fixed-point iterations) and aborts with
    /// [`AnalysisError::DeadlineExceeded`] once it is exceeded.
    ///
    /// With an [`unlimited`](Budget::unlimited) budget this is bit-identical
    /// to [`Analysis::analyze_with`] — which is exactly that call.
    /// Serving layers pair this with the conservative fallback of
    /// [`crate::conservative`] to keep answering under deadline pressure.
    ///
    /// # Errors
    ///
    /// [`AnalysisError::DeadlineExceeded`] when the budget expires
    /// mid-solve, plus the conditions of [`Analysis::analyze_with`].
    pub fn analyze_with_budget(
        self,
        ctx: &AnalysisContext<'_>,
        budget: &Budget,
    ) -> Result<AnalysisReport, AnalysisError> {
        Solver::new(ctx, self.spec(), budget).solve()
    }

    /// The analysis table: display name and solver configuration. The
    /// five analyses differ only in how downstream indirect interference
    /// is charged and in what widens a direct interferer's window.
    pub(crate) fn spec(self) -> (&'static str, DownstreamModel, JitterModel) {
        use DownstreamModel as D;
        use JitterModel as J;
        match self {
            AnalysisKind::NoIndirect => ("NoIndirect", D::Ignore, J::None),
            AnalysisKind::ShiBurns => ("SB", D::Ignore, J::InterferenceJitter),
            AnalysisKind::XiongOriginal => ("Xiong16", D::Xlwx, J::UpstreamInterference),
            AnalysisKind::Xlwx => ("XLWX", D::Xlwx, J::InterferenceJitter),
            AnalysisKind::BufferAware => ("IBN", D::BufferAware, J::InterferenceJitter),
        }
    }

    /// Dense index into per-kind tables (`0..ALL.len()`).
    pub(crate) fn index(self) -> usize {
        self as usize
    }
}

/// All analyses of this crate as trait objects, in increasing order of
/// modelled interference detail. Convenient for sweeping experiments.
pub fn all_analyses() -> Vec<Box<dyn Analysis + Send + Sync>> {
    AnalysisKind::ALL
        .iter()
        .map(|&kind| Box::new(kind) as Box<dyn Analysis + Send + Sync>)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_model::prelude::*;

    fn tiny_system() -> System {
        let topology = Topology::mesh(3, 1);
        let flows = FlowSet::new(vec![
            Flow::builder(NodeId::new(0), NodeId::new(2))
                .priority(Priority::new(1))
                .period(Cycles::new(500))
                .length_flits(16)
                .build(),
            Flow::builder(NodeId::new(1), NodeId::new(2))
                .priority(Priority::new(2))
                .period(Cycles::new(1_000))
                .length_flits(32)
                .build(),
        ])
        .unwrap();
        System::new(topology, NocConfig::default(), flows, &XyRouting).unwrap()
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(NoIndirect.name(), "NoIndirect");
        assert_eq!(ShiBurns.name(), "SB");
        assert_eq!(XiongOriginal.name(), "Xiong16");
        assert_eq!(Xlwx.name(), "XLWX");
        assert_eq!(BufferAware.name(), "IBN");
    }

    #[test]
    fn highest_priority_flow_has_zero_interference() {
        let sys = tiny_system();
        for analysis in all_analyses() {
            let report = analysis.analyze(&sys).unwrap();
            assert_eq!(
                report.response_time(FlowId::new(0)),
                Some(sys.zero_load_latency(FlowId::new(0))),
                "{}",
                analysis.name()
            );
        }
    }

    #[test]
    fn direct_interference_single_hit() {
        let sys = tiny_system();
        // τ1 (P2): C = 2·... |route| = 3, L = 32 → C = 3 + 31 = 34.
        // Single hit of τ0 (C0 = 4 + ... |route|=4, L=16 → C0 = 4+15 = 19).
        // R1 = 34 + ⌈R1/500⌉·19 = 53.
        let report = Xlwx.analyze(&sys).unwrap();
        assert_eq!(report.response_time(FlowId::new(1)), Some(Cycles::new(53)));
    }

    #[test]
    fn analyses_agree_without_indirect_interference() {
        // With no indirect interferers, SB, XLWX and IBN coincide.
        let sys = tiny_system();
        let sb = ShiBurns.analyze(&sys).unwrap();
        let xlwx = Xlwx.analyze(&sys).unwrap();
        let ibn = BufferAware.analyze(&sys).unwrap();
        for id in sys.flows().ids() {
            assert_eq!(sb.response_time(id), xlwx.response_time(id));
            assert_eq!(ibn.response_time(id), xlwx.response_time(id));
        }
    }

    #[test]
    fn analyses_usable_as_trait_objects() {
        let sys = tiny_system();
        let list = all_analyses();
        assert_eq!(list.len(), 5);
        for analysis in &list {
            assert!(analysis.analyze(&sys).unwrap().is_schedulable());
        }
    }

    #[test]
    fn deadline_miss_detected() {
        // τ1's deadline is too tight to absorb even one hit of τ0.
        let topology = Topology::mesh(3, 1);
        let flows = FlowSet::new(vec![
            Flow::builder(NodeId::new(0), NodeId::new(2))
                .priority(Priority::new(1))
                .period(Cycles::new(100))
                .length_flits(64)
                .build(),
            Flow::builder(NodeId::new(1), NodeId::new(2))
                .priority(Priority::new(2))
                .period(Cycles::new(100))
                .deadline(Cycles::new(40))
                .length_flits(32)
                .build(),
        ])
        .unwrap();
        let sys = System::new(topology, NocConfig::default(), flows, &XyRouting).unwrap();
        let report = ShiBurns.analyze(&sys).unwrap();
        assert!(!report.is_schedulable());
        assert!(matches!(
            report.verdict(FlowId::new(1)),
            crate::report::FlowVerdict::DeadlineMiss { .. }
        ));
        // The higher-priority flow itself is fine.
        assert!(report.verdict(FlowId::new(0)).is_schedulable());
    }

    #[test]
    fn pathological_recurrence_hits_iteration_cap() {
        // τ0 exactly saturates the shared link (charge == period), so τ1's
        // recurrence grows by a constant few dozen cycles per iteration;
        // with an astronomical deadline it can neither converge nor miss
        // before the solver's safety cap, which must surface as a
        // structured error naming the flow.
        let topology = Topology::mesh(3, 1);
        let flows = FlowSet::new(vec![
            // C = 19 cycles (see `direct_interference_single_hit`).
            Flow::builder(NodeId::new(0), NodeId::new(2))
                .priority(Priority::new(1))
                .period(Cycles::new(19))
                .length_flits(16)
                .build(),
            Flow::builder(NodeId::new(1), NodeId::new(2))
                .priority(Priority::new(2))
                .period(Cycles::new(10_000_000_000))
                .length_flits(32)
                .build(),
        ])
        .unwrap();
        let sys = System::new(topology, NocConfig::default(), flows, &XyRouting).unwrap();
        let err = Xlwx.analyze(&sys).unwrap_err();
        match err {
            AnalysisError::ConvergenceCap {
                flow,
                iterations,
                last_bound,
            } => {
                assert_eq!(flow, FlowId::new(1));
                assert_eq!(iterations, 100_000);
                assert!(last_bound > Cycles::new(0));
            }
            other => panic!("expected ConvergenceCap, got {other:?}"),
        }
        // The explain path fails identically.
        assert!(Xlwx.explain(&sys).is_err());
    }
}

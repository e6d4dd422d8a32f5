//! A cheap, non-iterative conservative bound — the degraded-mode fallback.
//!
//! When a full fixed-point solve cannot finish inside its
//! [`Budget`] (or trips the convergence safety cap), an admission answer
//! under duress must still be *sound*: saying "schedulable" may never be
//! wrong, only pessimistic. This module computes such an answer with **no
//! fixed-point iteration at all**: one evaluation of the engine's
//! response-time recurrence per flow, at `R := D` — the layered
//! fast-model/slow-model pattern of Mandal et al. (arXiv:1908.02408), with
//! this bound as the fast model and the crate's fixed-point solver as the
//! slow one. Both run the same solver code: the same cached loop, edge
//! pass, `Idown` memo and term evaluation as the five analyses, with one
//! evaluation per flow in place of the fixed point.
//!
//! # The bound
//!
//! The engine's recurrence for τᵢ at window `w` is
//!
//! ```text
//! gᵢ(w) = Cᵢ·(σᵢ+1) + Σ_{τⱼ ∈ S^D_i} ηⱼ(w + jitterⱼ) · (Cⱼ + Idown(j,i))
//! ```
//!
//! where `ηⱼ(w) = ⌈(w + Jⱼ)/Tⱼ⌉ + σⱼ` is τⱼ's arrival curve (the paper's
//! hit count plus the burst allowance). The conservative bound is
//! `Bᵢ = gᵢ(Dᵢ)` with three choices that each dominate their counterparts
//! in *all five* analyses:
//!
//! * every `Rⱼ` the recurrence reads — in the jitter, and as the hit
//!   window of `Iup(j,i)` (Eq. 2) and of the recursive `Idown(j,i)`
//!   (Eq. 3) — is read as the deadline `Dⱼ`;
//! * `Idown` is the XLWX charge (Eq. 3), which dominates both the
//!   ignore-downstream (SB) charge and the buffer-capped (IBN) charge;
//! * the window jitter is `(Dⱼ − Cⱼ) + Iup(j,i)` for every τⱼ, which
//!   dominates the interference jitter `J^I_j = Rⱼ − Cⱼ` and the original
//!   Xiong `Iup` jitter alike.
//!
//! Burst terms are the solver's own, so domination holds on the bursty
//! axis, and heterogeneous buffer maps cannot weaken it: buffer depths only
//! ever *cap* the IBN charge below the XLWX charge used here.
//!
//! # Soundness, in both directions that matter
//!
//! Fix any of the five analyses and write `fᵢ` for τᵢ's recurrence under
//! it, reading the analysis's own response times. An analysis evaluates
//! `fᵢ` only when every member of `S^D_i` has a bound (else τᵢ is
//! tainted), and then every `Rⱼ` it reads, recursively through `Idown`,
//! belongs to a schedulable flow, so `Rⱼ ≤ Dⱼ`. Every term is
//! non-decreasing in the windows and response times it reads, so
//! `gᵢ(w) ≥ fᵢ(w)` for every window `w`, and both are non-decreasing in `w`.
//!
//! * **Conservative acceptance.** If `Bᵢ = gᵢ(Dᵢ) ≤ Dᵢ`, then
//!   `fᵢ(Dᵢ) ≤ Dᵢ`, and the analysis's monotone iteration from
//!   `Cᵢ·(σᵢ+1) ≤ Bᵢ` never leaves `[0, Dᵢ]`: its fixed point satisfies
//!   `Rᵢ ≤ Dᵢ`. Conversely, a deadline miss under the analysis means some
//!   iterate `r ≤ Dᵢ` had `fᵢ(r) > Dᵢ`, so `gᵢ(Dᵢ) ≥ fᵢ(r) > Dᵢ` and the
//!   miss shows up here too.
//! * **Never below the true response time.** For a flow the full solve
//!   proves schedulable, `Bᵢ = gᵢ(Dᵢ) ≥ gᵢ(Rᵢ) ≥ fᵢ(Rᵢ) = Rᵢ` — the
//!   degraded answer is an upper bound on the exact one, pinned by the
//!   workspace's `chaos_serving` test.
//!
//! A flow the full solve marks
//! [`FlowVerdict::Tainted`](crate::report::FlowVerdict::Tainted) (its bound
//! depends on a failed higher-priority flow) may be reported schedulable
//! here, but the root-cause flow — the highest-priority miss, whose direct
//! interferers are all schedulable — is always reported as a miss, so the
//! *whole-set* verdict ([`AnalysisReport::is_schedulable`]) is
//! conservative: this bound accepts a system only if every analysis would.
//!
//! # Cached evaluation
//!
//! The bound runs through the solver's cached loop, the one incremental
//! solves use, with every `Rⱼ` fixed at `Dⱼ`, so over a kept cache it
//! costs O(what a delta changes), not O(n). τᵢ's evaluation reads exactly:
//!
//! * its own structure — `Cᵢ`, σᵢ, `Dᵢ`, `S^D_i`, the partitions of
//!   `S^I_i ∩ S^D_j` — which every flow addition or removal marks where it
//!   changes it;
//! * the constant `Dⱼ` of each τⱼ ∈ `S^D_i`;
//! * the `Idown(k,j)` slots of τⱼ's memo block.
//!
//! It reads **no buffer depth** (the XLWX charge has no Eq. 8 cap). So the
//! cached solve's read-set proof holds verbatim with `Rⱼ ≡ Dⱼ`: τᵢ is
//! re-evaluated iff a delta marked it or some τⱼ ∈ `S^D_i` changed its
//! slots or its verdict in this pass, and every other flow keeps its
//! cached bound.
//!
//! The bound follows the analyses' rule for kept state: [`conservative_with`]
//! is a pure from-scratch evaluation, like
//! [`AnalysisKind::analyze_with_budget`](crate::analysis::AnalysisKind::analyze_with_budget),
//! and only [`AnalysisContext::warm_conservative`] and
//! [`AnalysisContext::conservative_report`] touch the cache an
//! [`AnalysisContext`] keeps for it. Flow additions and removals mark that
//! cache, buffer resizes do not, and forks share it: a warm fork's report,
//! or one after a resize, reads it back without a copy.

use std::sync::Arc;

use crate::budget::Budget;
use crate::context::AnalysisContext;
use crate::engine::{DownstreamModel, JitterModel, SolveCache, Solver};
use crate::metrics;
use crate::report::AnalysisReport;

/// The analysis name carried by conservative reports.
pub const CONSERVATIVE_NAME: &str = "Conservative";

/// Computes the conservative bound for every flow of the context's system.
///
/// One evaluation of the recurrence per flow and total: no fixed-point
/// iteration, no failure mode. See the [module docs](self) for the bound
/// and its soundness argument. Evaluated from scratch: neither read nor
/// kept by `ctx` ([`AnalysisContext::conservative_report`] is the cached
/// form).
pub fn conservative_with(ctx: &AnalysisContext<'_>) -> AnalysisReport {
    metrics::CONSERVATIVE_SOLVES.incr();
    evaluate(ctx, &mut Arc::new(SolveCache::all_dirty(ctx.len())))
}

/// Brings `cache` up to date with the conservative bound over `ctx`,
/// re-evaluating only the flows the cached read set says changed, and
/// returns the report.
pub(crate) fn evaluate(ctx: &AnalysisContext<'_>, cache: &mut Arc<SolveCache>) -> AnalysisReport {
    // Never exceeded: the evaluation has no loop to abort.
    let budget = Budget::unlimited();
    let spec = (
        CONSERVATIVE_NAME,
        DownstreamModel::Xlwx,
        JitterModel::Dominating,
    );
    Solver::new(ctx, spec, &budget)
        .at_deadlines()
        .solve_cached(cache)
        .expect("the evaluation at deadlines cannot fail")
}

/// An independent single-pass evaluator of the same bound, with its own
/// edge pass, kept as the bit-identity reference for [`conservative_with`].
#[cfg(test)]
pub(crate) mod reference {
    use noc_model::arrival::ArrivalCurve;
    use noc_model::contention::{InterferenceGraph, Side};
    use noc_model::ids::FlowId;
    use noc_model::system::System;
    use noc_model::time::Cycles;

    use super::CONSERVATIVE_NAME;
    use crate::context::AnalysisContext;
    use crate::report::{AnalysisReport, FlowVerdict};

    /// A per-edge memo of the reference's own, keyed by (victim, edge), so
    /// the oracle shares no memo code with the engine.
    #[derive(Default)]
    struct EdgeMemo(std::collections::HashMap<(FlowId, usize), u128>);

    impl EdgeMemo {
        fn get(&self, victim: FlowId, edge: usize) -> Option<u128> {
            self.0.get(&(victim, edge)).copied()
        }

        fn set(&mut self, victim: FlowId, edge: usize, value: u128) {
            self.0.insert((victim, edge), value);
        }
    }

    /// The conservative bound of every flow, in priority order.
    pub(crate) fn conservative_with(ctx: &AnalysisContext<'_>) -> AnalysisReport {
        let mut bounder = Bounder {
            ctx,
            system: ctx.system(),
            graph: ctx.graph(),
            idown_memo: EdgeMemo::default(),
        };
        // No bound reads another flow's result, but in priority order every
        // recursive `Idown*(k,j)` finds its edge memoised: it was bounded on
        // τⱼ's own turn.
        let mut verdicts = vec![FlowVerdict::Tainted; ctx.len()];
        for &i in ctx.priority_order() {
            verdicts[i.index()] = bounder.verdict(i);
        }
        AnalysisReport::new(CONSERVATIVE_NAME, verdicts)
    }

    /// Shared state of one conservative pass: the `Idown*` memo mirrors the
    /// solver's, one slot per direct edge.
    struct Bounder<'a> {
        ctx: &'a AnalysisContext<'a>,
        system: &'a System,
        graph: &'a InterferenceGraph,
        idown_memo: EdgeMemo,
    }

    impl Bounder<'_> {
        /// `Bᵢ` against the deadline Dᵢ.
        fn verdict(&mut self, i: FlowId) -> FlowVerdict {
            let system = self.system;
            let d_i = u128::from(system.flow(i).deadline().as_u64());
            // The same σᵢ·Cᵢ self-backlog base as the solver's recurrence.
            let mut bound = self
                .c(i)
                .saturating_mul(u128::from(system.flow(i).burst()) + 1);
            for (edge, &j) in self.graph.direct_set(i).iter().enumerate() {
                let f_j = system.flow(j);
                let d_j = u128::from(f_j.deadline().as_u64());
                let c_j = self.c(j);
                let (iup, idown) = self.edge_bounds(i, j, edge, true);
                let jitter = d_j.saturating_sub(c_j).saturating_add(iup);
                // ηⱼ adds Jⱼ and σⱼ itself, mirroring the solver's hit count.
                let window = d_i.saturating_add(jitter);
                let hits = f_j.arrival_curve().max_arrivals_raw(window);
                let charge = c_j.saturating_add(idown);
                bound = bound.saturating_add(hits.saturating_mul(charge));
            }
            if bound <= d_i {
                FlowVerdict::Schedulable {
                    response_time: clamp_cycles(bound),
                }
            } else {
                FlowVerdict::DeadlineMiss {
                    exceeded_at: clamp_cycles(bound),
                }
            }
        }

        /// Zero-load latency Cₖ as a wide integer.
        fn c(&self, k: FlowId) -> u128 {
            u128::from(self.ctx.zero_load(k).as_u64())
        }

        /// `ηₖ(Dⱼ) = ⌈(Dⱼ + Jₖ)/Tₖ⌉ + σₖ` — the hit count of Eq. 7/8 with the
        /// window widened from Rⱼ to Dⱼ, from τₖ's arrival curve.
        fn hits_in_deadline(&self, d_j: u128, k: FlowId) -> u128 {
            self.system.flow(k).arrival_curve().max_arrivals_raw(d_j)
        }

        /// `Iup*(j,i)` — Equation 2 over a Dⱼ-length window, when
        /// `want_upstream` is set — and `Idown*(j,i)` — the XLWX downstream
        /// charge (Eq. 3) over Dⱼ-length windows, memoised per edge exactly
        /// like the solver's — from one pass over `S^I_i ∩ S^D_j`, τⱼ the
        /// `edge`-th member of `S^D_i`.
        fn edge_bounds(
            &mut self,
            i: FlowId,
            j: FlowId,
            edge: usize,
            want_upstream: bool,
        ) -> (u128, u128) {
            let graph = self.graph;
            let d_j = u128::from(self.system.flow(j).deadline().as_u64());
            let memo = self.idown_memo.get(i, edge);
            let (mut up, mut down): (u128, u128) = (0, 0);
            for m in graph.partition_indirect(i, j) {
                let k = m.flow;
                match m.side {
                    Side::Upstream if want_upstream => {
                        up = up.saturating_add(
                            self.hits_in_deadline(d_j, k).saturating_mul(self.c(k)),
                        );
                    }
                    Side::Downstream if memo.is_none() => {
                        let inner = self.c(k).saturating_add(self.idown_bound(k, j, m.edge));
                        down = down
                            .saturating_add(self.hits_in_deadline(d_j, k).saturating_mul(inner));
                    }
                    _ => {}
                }
            }
            match memo {
                Some(v) => (up, v),
                None => {
                    self.idown_memo.set(i, edge, down);
                    (up, down)
                }
            }
        }

        /// `Idown*(j,i)`, τⱼ the `edge`-th member of `S^D_i`.
        fn idown_bound(&mut self, j: FlowId, i: FlowId, edge: usize) -> u128 {
            match self.idown_memo.get(i, edge) {
                Some(v) => v,
                None => self.edge_bounds(i, j, edge, false).1,
            }
        }
    }

    fn clamp_cycles(v: u128) -> Cycles {
        Cycles::new(u64::try_from(v).unwrap_or(u64::MAX))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{all_analyses, AnalysisKind};
    use crate::report::FlowVerdict;
    use noc_model::prelude::*;
    use noc_workload::synthetic::SyntheticSpec;

    /// Verdict for verdict, the engine's evaluation at `R := D` equals the
    /// reference evaluator on seeded random fabrics: homogeneous buffers,
    /// heterogeneous buffer maps, and bursty flows (σ ≤ 2).
    #[test]
    fn matches_the_reference_evaluator_on_random_fabrics() {
        let specs = [
            SyntheticSpec::paper(4, 4, 40, 2),
            SyntheticSpec::paper(6, 6, 80, 4).with_buffer_depth_range(1, 8),
            SyntheticSpec::paper(6, 6, 80, 2).with_burst_range(0, 2),
            SyntheticSpec::paper(8, 8, 120, 2)
                .with_buffer_depth_range(2, 8)
                .with_burst_range(0, 2),
        ];
        let mut verdicts = [0usize; 2];
        for spec in &specs {
            for seed in 1..=4 {
                let sys = spec.generate(seed).into_system();
                let ctx = AnalysisContext::new(&sys).unwrap();
                let report = conservative_with(&ctx);
                assert_eq!(report, reference::conservative_with(&ctx), "seed {seed}");
                for (_, v) in report.iter() {
                    verdicts[usize::from(v.is_schedulable())] += 1;
                }
            }
        }
        assert!(
            verdicts.iter().all(|&n| n > 0),
            "fixtures must yield both misses and acceptances: {verdicts:?}"
        );
    }

    fn mesh_flow((src, dst, p, t): (u32, u32, u32, u64)) -> Flow {
        Flow::builder(NodeId::new(src), NodeId::new(dst))
            .priority(Priority::new(p))
            .period(Cycles::new(t))
            .length_flits(8)
            .build()
    }

    fn mesh_system(specs: &[(u32, u32, u32, u64)]) -> System {
        let flows = FlowSet::new(specs.iter().copied().map(mesh_flow).collect()).unwrap();
        System::new(
            Topology::mesh(4, 4),
            NocConfig::default(),
            flows,
            &XyRouting,
        )
        .unwrap()
    }

    /// The conservative bound dominates every analysis on every flow either
    /// analysis proves schedulable, and never accepts a flow set any
    /// analysis rejects.
    #[test]
    fn dominates_all_five_analyses() {
        let sys = mesh_system(&[
            (0, 15, 1, 1000),
            (4, 7, 2, 1500),
            (12, 3, 3, 2000),
            (1, 13, 4, 2500),
            (5, 6, 5, 3000),
            (0, 10, 6, 3500),
        ]);
        let ctx = AnalysisContext::new(&sys).unwrap();
        let conservative = conservative_with(&ctx);
        assert_eq!(conservative.analysis(), CONSERVATIVE_NAME);
        for analysis in all_analyses() {
            let exact = analysis.analyze_with(&ctx).unwrap();
            for (id, verdict) in exact.iter() {
                if let Some(r) = verdict.response_time() {
                    let b = match conservative.verdict(id) {
                        FlowVerdict::Schedulable { response_time } => response_time,
                        FlowVerdict::DeadlineMiss { exceeded_at } => exceeded_at,
                        other => panic!("conservative produced {other:?}"),
                    };
                    assert!(
                        b >= r,
                        "{}: conservative bound {b} below exact {r} for {id}",
                        analysis.name()
                    );
                }
            }
            if conservative.is_schedulable() {
                assert!(
                    exact.is_schedulable(),
                    "conservative accepted a set {} rejects",
                    analysis.name()
                );
            }
        }
    }

    /// A truly missed deadline always shows up as a conservative miss.
    #[test]
    fn true_misses_are_never_accepted() {
        let topology = Topology::mesh(3, 1);
        let flows = FlowSet::new(vec![
            mesh_flow((0, 2, 1, 100)),
            Flow::builder(NodeId::new(1), NodeId::new(2))
                .priority(Priority::new(2))
                .period(Cycles::new(100))
                .deadline(Cycles::new(40))
                .length_flits(32)
                .build(),
        ])
        .unwrap();
        let sys = System::new(topology, NocConfig::default(), flows, &XyRouting).unwrap();
        let ctx = AnalysisContext::new(&sys).unwrap();
        let exact = AnalysisKind::ShiBurns
            .as_analysis()
            .analyze_with(&ctx)
            .unwrap();
        assert!(!exact.is_schedulable());
        let conservative = conservative_with(&ctx);
        assert!(!conservative.is_schedulable());
        assert!(matches!(
            conservative.verdict(FlowId::new(1)),
            FlowVerdict::DeadlineMiss { .. }
        ));
    }

    /// Total even on inputs the fixed point cannot handle (the convergence
    /// cap fixture from the engine tests).
    #[test]
    fn total_on_cap_tripping_inputs() {
        let topology = Topology::mesh(3, 1);
        let flows = FlowSet::new(vec![
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
        let ctx = AnalysisContext::new(&sys).unwrap();
        assert!(AnalysisKind::Xlwx.as_analysis().analyze_with(&ctx).is_err());
        let conservative = conservative_with(&ctx);
        assert_eq!(conservative, reference::conservative_with(&ctx));
        assert_eq!(conservative.len(), 2);
        // The saturating flow makes the victim's conservative bound huge.
        assert!(!conservative.verdict(FlowId::new(1)).is_schedulable());
    }
}

//! The shared fixed-point response-time engine.
//!
//! Every analysis in this crate instantiates the same solver with a choice
//! of **downstream-interference model** (how multi-point progressive
//! blocking is charged) and **jitter model** (what inflates the interference
//! window of a direct interferer). The response-time recurrence is the
//! paper's Equation 5 skeleton:
//!
//! ```text
//! Rᵢ = Cᵢ·(σᵢ + 1) + Σ_{τⱼ ∈ S^D_i} ηⱼ(Rᵢ + jitterⱼ) · (Cⱼ + Idown(j,i))
//! ```
//!
//! solved highest-priority-first so that every `Rⱼ` referenced by the
//! interference terms of τᵢ is already final, and read off τⱼ's verdict:
//! a solve records each flow's answer once. The conservative bound of
//! [`crate::conservative`] runs the same loop with a different per-flow
//! [`Step`]: one evaluation of the recurrence at `Rᵢ := Dᵢ`, reading every
//! `Rⱼ` as `Dⱼ`, in place of the fixed point. The hit count comes from each
//! interferer's [arrival curve](noc_model::arrival):
//! `ηⱼ(w) = ⌈(w + Jⱼ)/Tⱼ⌉ + σⱼ`, the paper's Eq. 5 window arithmetic plus
//! the burst allowance σⱼ. For strictly periodic flow sets (every σ = 0)
//! this is **bit-identical** to the paper's recurrence; for bursty flows
//! the extra σⱼ hits per interferer and the `σᵢ·Cᵢ` self-backlog charge
//! (the σᵢ same-priority predecessor packets released in the same burst,
//! each occupying the route for at most Cᵢ) make every bound *conservative*
//! rather than exact — see the crate docs for the per-axis exactness table.
//!
//! The solver does not derive anything from the [`System`] itself: the
//! interference graph, priority order and zero-load latencies all come from
//! a borrowed [`AnalysisContext`], so running all five analyses (or one
//! analysis at several buffer depths) pays for that structure exactly once.
//! [`Solver::new`] is its only constructor; the incremental layer passes the
//! context it owns, and unbudgeted callers pass [`Budget::unlimited`].
//!
//! A [`SolveCache`] keeps a solve's verdicts and `Idown` slots across
//! flow-set deltas, and [`Solver::solve_cached`] re-solves only what
//! changed, at two grains: a flow is re-solved only if a delta marked it
//! or a direct interferer changed in the pass, and under XLWX and IBN a
//! re-solved flow recomputes only the edge terms whose inputs changed,
//! reading the others back from its memo block. Both are bit-identical
//! to a from-scratch [`Solver::solve`]; the proof is on `solve_cached`.

use std::sync::Arc;

use noc_model::arrival::{ArrivalCurve, LeakyBucket};
use noc_model::contention::{InterferenceGraph, Side};
use noc_model::ids::{FlowId, RouterId};
use noc_model::system::System;
use noc_model::time::Cycles;
use noc_model::topology::Endpoint;

use crate::budget::Budget;
use crate::context::AnalysisContext;
use crate::error::AnalysisError;
use crate::metrics;
use crate::report::{AnalysisReport, FlowExplanation, FlowVerdict, InterferenceTerm};

/// How downstream indirect interference (the MPB effect) is charged per hit
/// of an indirect interferer τₖ on a direct interferer τⱼ.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DownstreamModel {
    /// Not charged at all — the (unsafe under MPB) SB family.
    Ignore,
    /// Charged as direct interference: per hit `Cₖ + Idown(k,j)` (Eq. 3),
    /// the XLWX model.
    Xlwx,
    /// Buffer-aware: per hit `min(bi(i,j), Cₖ + Idown(k,j))` (Eq. 8) when
    /// τⱼ suffers no upstream indirect interference, falling back to the
    /// XLWX charge otherwise — the paper's proposed IBN analysis (§IV).
    BufferAware,
}

/// What inflates the interference window `⌈(Rᵢ + Jⱼ + ⋅)/Tⱼ⌉` of a direct
/// interferer τⱼ.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum JitterModel {
    /// Nothing (a deliberately naive baseline).
    None,
    /// The interference jitter `J^I_j = Rⱼ − Cⱼ`, charged iff τⱼ suffers
    /// interference from a member of `S^I_i` — the SB rule, kept by the
    /// corrected XLWX (\[6\]/\[13\]) and by IBN.
    InterferenceJitter,
    /// The upstream indirect interference term `Iup(j,i)` of the original
    /// (GLSVLSI 2016) Xiong et al. analysis — Equation 4, shown optimistic
    /// by \[6\]; kept for ablation studies.
    UpstreamInterference,
    /// `(Rⱼ − Cⱼ) + Iup(j,i)`, charged for every direct interferer: it
    /// dominates the other three models. The window jitter of the
    /// conservative bound, where Rⱼ is read as Dⱼ.
    Dominating,
}

/// What the solver does with one flow whose inputs changed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Step {
    /// Iterate the recurrence from `Cᵢ·(σᵢ + 1)` to its fixed point: the
    /// five analyses.
    FixedPoint,
    /// Evaluate the recurrence once at `Rᵢ := Dᵢ`, with every `Rⱼ` it
    /// reads taken as `Dⱼ`: the conservative bound. Nothing reads another
    /// flow's result, so no flow is tainted and nothing can fail.
    AtDeadline,
}

/// Iteration safety cap; monotone integer iterations converge or blow past
/// the deadline long before this on sane inputs. Exhausting it aborts the
/// solve with [`AnalysisError::ConvergenceCap`] naming the flow (and bumps
/// [`metrics::SOLVER_CAP_HITS`]).
const MAX_ITERATIONS: usize = 100_000;

pub(crate) struct Solver<'a> {
    ctx: &'a AnalysisContext<'a>,
    system: &'a System,
    graph: &'a InterferenceGraph,
    name: &'static str,
    downstream: DownstreamModel,
    jitter: JitterModel,
    /// The fixed point, unless [`Solver::at_deadlines`] switched it.
    step: Step,
    /// `buf(Ξ)`, if every router has it: read once per solve, since
    /// [`System::has_heterogeneous_buffers`] scans every router.
    uniform_depth: Option<u128>,
    /// Cooperative deadline/cancellation token, polled once per flow and
    /// every [`Budget::POLL_ITERATIONS`] fixed-point iterations.
    budget: &'a Budget,
    /// This pass's verdicts, filled highest-priority-first: see [`Solver::r`].
    verdicts: Vec<FlowVerdict>,
    /// `Idown(j,i)`, one slot per direct edge (j → i): laid out fresh by
    /// the from-scratch entry points, borrowed from the cache by
    /// [`Solver::solve_cached`].
    idown_memo: EdgeMemo,
    /// Whether the flow solved last wrote a slot that differs from before
    /// (a first write always does): read by the cached solve's cutoff.
    slots_changed: bool,
    /// The direct-interference terms of the flow solved last, reused
    /// across flows; read back only by an explaining [`Solver::solve`].
    terms: Vec<Term>,
}

impl<'a> Solver<'a> {
    /// A solver over `ctx` that reports as `name`, charges downstream
    /// interference per `downstream` and widens windows per `jitter` (an
    /// analysis's [`spec`](crate::analysis::AnalysisKind::spec)), aborting
    /// with [`AnalysisError::DeadlineExceeded`] once `budget` expires.
    pub(crate) fn new(
        ctx: &'a AnalysisContext<'a>,
        (name, downstream, jitter): (&'static str, DownstreamModel, JitterModel),
        budget: &'a Budget,
    ) -> Self {
        Solver {
            ctx,
            system: ctx.system(),
            graph: ctx.graph(),
            name,
            downstream,
            jitter,
            step: Step::FixedPoint,
            uniform_depth: (!ctx.system().has_heterogeneous_buffers())
                .then(|| u128::from(ctx.system().config().buffer_depth())),
            budget,
            verdicts: vec![FlowVerdict::Tainted; ctx.len()],
            idown_memo: EdgeMemo::default(),
            slots_changed: false,
            terms: Vec::new(),
        }
    }

    /// This solver with its per-flow [`Step`] switched to the one
    /// evaluation at `Rᵢ := Dᵢ`: only [`Solver::solve_cached`] takes it.
    /// No `analysis.solver.*` or `analysis.cache.*` metric moves then; the
    /// pass counts its flows as `analysis.conservative.evaluated` and
    /// `analysis.conservative.reused`.
    pub(crate) fn at_deadlines(mut self) -> Self {
        self.step = Step::AtDeadline;
        self
    }

    /// Runs the analysis over the whole flow set, from scratch. With an
    /// `explain` sink, also fills it with every flow's interference
    /// breakdown at its fixed point, in flow order.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::ConvergenceCap`] if any flow's fixed-point
    /// iteration exhausts the safety cap, or
    /// [`AnalysisError::DeadlineExceeded`] once the budget expires.
    pub(crate) fn solve(
        mut self,
        mut explain: Option<&mut Vec<FlowExplanation>>,
    ) -> Result<AnalysisReport, AnalysisError> {
        let _span = metrics::SOLVE_NS.span();
        self.idown_memo = EdgeMemo::new(self.graph);
        for &i in self.ctx.priority_order() {
            let (verdict, window) = self.solve_flow(i, |_, _| false)?;
            self.verdicts[i.index()] = verdict;
            if let Some(sink) = explain.as_deref_mut() {
                sink.push(FlowExplanation {
                    flow: i,
                    zero_load: self.ctx.zero_load(i),
                    verdict,
                    terms: self.terms.iter().map(|t| t.explain(window)).collect(),
                });
            }
        }
        if let Some(sink) = explain {
            sink.sort_unstable_by_key(|e| e.flow);
        }
        Ok(AnalysisReport::new(self.name, self.verdicts))
    }

    /// Runs the analysis against `cache`, re-solving only the flows whose
    /// inputs changed since the cache was last brought up to date; every
    /// other flow's verdict and `Idown` slots are reused verbatim, so the
    /// result is bit-identical to a full [`Solver::solve`].
    ///
    /// **Read set.** With the `Idown` slots persisted in the cache, the
    /// solve of τᵢ reads exactly:
    ///
    /// 1. for each τⱼ ∈ `S^D_i`: its response time `Rⱼ`, read off its
    ///    verdict (none unless schedulable, which taints τᵢ; otherwise
    ///    `Rⱼ` sets the jitter `Rⱼ − Cⱼ` and every hit count `ηₖ(Rⱼ)` of
    ///    `Iup(j,i)` and `Idown(j,i)`), and the slots `Idown(k,j)` of
    ///    τⱼ's block, which τⱼ's own solve wrote;
    /// 2. its own structure — `Cᵢ`, σᵢ, `Dᵢ`, `S^D_i`, the domains
    ///    `cd(i,j)` and the partitions `S^I_i ∩ S^D_j` into sides — and
    ///    the buffer depths on those domains (Eq. 6), plus the arrival
    ///    curves and `C` of the flows named there, which never change.
    ///
    /// Members of `S^I_i` enter only through (1): their hits are counted
    /// in τⱼ's window `Rⱼ` and their own downstream load arrives in the
    /// slots of τⱼ's block, so a change in one of them reaches τᵢ only by
    /// changing a member of `S^D_i`. The inputs of (2) change only
    /// through a delta, and every delta marks the flows whose inputs of
    /// (2) it changes: an addition or removal marks each flow whose
    /// `S^D` or `S^I` it changes (a change to `S^D_j` changes the
    /// `S^D ∪ S^I` of every victim of τⱼ), and a resize marks each victim
    /// of a domain with a link into the router.
    ///
    /// So, in priority order — every member of `S^D_i` outranks τᵢ and is
    /// settled first — τᵢ is re-solved iff a delta marked it or some
    /// τⱼ ∈ `S^D_i` changed its verdict or a slot of its block in this
    /// pass (`Rⱼ` is a function of the verdict, so it needs no test of
    /// its own). Any other flow has all its inputs equal to those of the
    /// solve that filled its cache entry, so that entry is the solve's
    /// result. By induction down the priority order, every published
    /// verdict and slot equals a full solve's. (Each slot of τⱼ's block
    /// is the per-hit charge of one term of τⱼ's own recurrence, so for a
    /// schedulable τⱼ a changed slot also moves `Rⱼ`; the slot test costs
    /// one comparison per edge and does not lean on that.)
    ///
    /// **Edges.** The same argument holds one edge at a time. The term of
    /// the edge (j → i) reads `Rⱼ`, τⱼ's block, the structure of the edge
    /// (`cd(i,j)` and the sides of `S^I_i ∩ S^D_j`) and `bi(i,j)`, nothing
    /// else of (1) or (2). Under XLWX and IBN, whose window jitter is
    /// `Rⱼ − Cⱼ` iff `S^I_i ∩ S^D_j` is non-empty, the term is therefore a
    /// function of `Rⱼ`, the slot `Idown(j,i)` and that *indirect* bit,
    /// which [`Solver::edge_pass`] stores beside the slot. The edge's
    /// structure changes only through an addition or removal that changes
    /// `S^D_i`, `S^I_i` or `S^D_j`, and each marks τᵢ [`Mark::Whole`].
    /// `bi(i,j)` changes only when a router that a link of `cd(i,j)`
    /// enters is resized, which marks τᵢ [`Mark::Buffers`] and records the
    /// router in [`SolveCache::resized`]. (A resize can also switch the
    /// system between uniform and mixed depths, and Eq. 6 then counts an
    /// ejection link differently. But a domain holding τᵢ's ejection link
    /// ends τⱼ's route too, so τⱼ has no downstream member and
    /// `Idown(j,i) = 0` whatever `bi` reads.) So a re-solved τᵢ that is
    /// not marked `Whole` and whose block is valid *keeps* the slot and
    /// bit of every edge whose τⱼ did not change in this pass, except,
    /// when τᵢ is marked `Buffers`, the edges whose domain enters a
    /// resized router. Those inputs all equal the ones τᵢ's last solve
    /// wrote the slot from, so the kept term equals a recomputed one, and
    /// the fixed-point iteration over the same terms yields the same
    /// verdict in the same number of iterations. Only the other edges are
    /// recomputed. SB, `XiongOriginal` and the bound below keep the full
    /// pass: SB writes no slot, and the other two widen the window by
    /// `Iup(j,i)`, which a kept edge would need stored as well.
    ///
    /// Under [`Step::AtDeadline`] the same proof holds with every `Rⱼ`
    /// read as the constant `Dⱼ`: τᵢ's evaluation reads its own structure
    /// (no buffer depth: the XLWX charge has no Eq. 8 cap), each `Dⱼ` and
    /// the slots of τⱼ's block, so it is re-evaluated iff a delta marked
    /// it or some τⱼ ∈ `S^D_i` changed its slots or its verdict.
    ///
    /// The pass fills the solver's own verdicts, so the cache's change
    /// only once it succeeds; then the cache is clean (every mark and
    /// recorded router cleared) and holds the verdicts of the report.
    ///
    /// A cache that is [clean](SolveCache::is_clean) going in would re-solve
    /// nothing and come out as it went in, so it is read back in place:
    /// its report, with the metrics of a pass that reused every flow, and
    /// no copy of a cache shared with other holders. Any other cache is
    /// copied first if shared ([`Arc::make_mut`]).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Solver::solve`]; an error raised by a re-solved
    /// flow poisons the cache all-dirty so the next solve through it is a
    /// full solve.
    ///
    /// # Panics
    ///
    /// Panics if `cache` was sized for a different number of flows.
    pub(crate) fn solve_cached(
        mut self,
        cache: &mut Arc<SolveCache>,
    ) -> Result<AnalysisReport, AnalysisError> {
        let fixed_point = self.step == Step::FixedPoint;
        let _span = fixed_point.then(|| metrics::SOLVE_NS.span());
        let order = self.ctx.priority_order();
        assert_eq!(
            cache.verdicts.len(),
            order.len(),
            "solve cache does not match the flow set"
        );
        // An exceeded budget aborts even when every flow is clean, so the
        // outcome never depends on what ran on this context earlier. No
        // work has been done yet, so the cache stays valid (no poison).
        self.ctx.check_budget(self.budget)?;
        let (mut dirty_solved, mut clean_reused, mut unchanged) = (0u64, 0u64, 0u64);
        let (mut edges_reused, mut edges_recomputed) = (0u64, 0u64);
        if cache.is_clean() {
            clean_reused = order.len() as u64;
        } else {
            let cache = Arc::make_mut(cache);
            self.idown_memo = std::mem::take(&mut cache.memo);
            if !self.idown_memo.is_laid_out() {
                self.idown_memo = EdgeMemo::new(self.graph);
            }
            #[cfg(test)]
            {
                cache.resolved.clear();
                cache.edges.clear();
            }
            // XLWX and IBN re-solve edge by edge (see "Edges" above).
            let by_edge = fixed_point
                && self.downstream != DownstreamModel::Ignore
                && self.jitter == JitterModel::InterferenceJitter;
            let (system, graph) = (self.system, self.graph);
            for &i in order {
                let at = i.index();
                // Until τᵢ's turn its mark says what a delta changed; from
                // then on, whether it changed in this pass (`Whole`) or not
                // (`Clean`). So for τᵢ the marks of `S^D_i`, all settled,
                // read as "changed".
                let mark = cache.marks[at];
                let wake = mark != Mark::Clean
                    || graph
                        .direct_set(i)
                        .iter()
                        .any(|&j| cache.marks[j.index()] != Mark::Clean);
                if !wake {
                    // Unchanged inputs: republish the cached verdict for
                    // lower-priority flows to read.
                    clean_reused += 1;
                    self.verdicts[at] = cache.verdicts[at];
                    continue;
                }
                dirty_solved += 1;
                #[cfg(test)]
                cache.resolved.push(i);
                let verdict = match self.step {
                    Step::FixedPoint => {
                        let partial = by_edge && mark != Mark::Whole && self.idown_memo.is_valid(i);
                        let (marks, resized) = (&cache.marks, &cache.resized);
                        let keep = |edge: usize, j: FlowId| {
                            partial
                                && marks[j.index()] == Mark::Clean
                                && !(mark == Mark::Buffers
                                    && domain_enters(system, graph, i, edge, resized))
                        };
                        // On error half the flows are solved and half are
                        // stale; the only consistent cache state is
                        // "everything needs a re-solve".
                        let verdict = self.solve_flow(i, keep).inspect_err(|_| cache.poison())?.0;
                        let kept = self.terms.iter().filter(|t| t.kept).count() as u64;
                        edges_reused += kept;
                        edges_recomputed += self.terms.len() as u64 - kept;
                        #[cfg(test)]
                        cache
                            .edges
                            .extend(self.terms.iter().enumerate().map(|(edge, t)| EdgeUse {
                                victim: i,
                                edge,
                                kept: t.kept,
                                jitter: t.extra_jitter,
                                downstream: t.downstream,
                            }));
                        verdict
                    }
                    Step::AtDeadline => self.evaluate_at_deadline(i),
                };
                let changed = self.slots_changed || verdict != cache.verdicts[at];
                unchanged += u64::from(!changed);
                self.verdicts[at] = verdict;
                cache.marks[at] = if changed { Mark::Whole } else { Mark::Clean };
            }
            cache.verdicts = self.verdicts;
            cache.memo = self.idown_memo;
            cache.marks.fill(Mark::Clean);
            cache.resized.clear();
        }
        if !fixed_point {
            metrics::CONSERVATIVE_EVALUATED.add(dirty_solved);
            metrics::CONSERVATIVE_REUSED.add(clean_reused);
            return Ok(cache.report(self.name));
        }
        metrics::CACHE_DIRTY_SOLVED.add(dirty_solved);
        metrics::CACHE_CLEAN_REUSED.add(clean_reused);
        metrics::CACHE_UNCHANGED_RESOLVES.add(unchanged);
        metrics::CACHE_EDGES_REUSED.add(edges_reused);
        metrics::CACHE_EDGES_RECOMPUTED.add(edges_recomputed);
        // Argument construction allocates, so gate the emission itself.
        if noc_telemetry::enabled() {
            noc_telemetry::events::emit(
                "analysis.solve_cached",
                &[
                    ("analysis", self.name.into()),
                    ("dirty_solved", dirty_solved.into()),
                    ("clean_reused", clean_reused.into()),
                    ("unchanged_resolves", unchanged.into()),
                    ("edges_reused", edges_reused.into()),
                    ("edges_recomputed", edges_recomputed.into()),
                ],
            );
        }
        Ok(cache.report(self.name))
    }

    /// One evaluation of τᵢ's recurrence at `Rᵢ := Dᵢ`, every `Rⱼ` read as
    /// `Dⱼ`: τᵢ is schedulable, with that value as its bound, iff the value
    /// is at most `Dᵢ`. Rewrites τᵢ's memo block, like
    /// [`Solver::solve_flow`].
    fn evaluate_at_deadline(&mut self, i: FlowId) -> FlowVerdict {
        let d_i = u128::from(self.system.flow(i).deadline().as_u64());
        self.idown_memo.open(i);
        self.slots_changed = false;
        let mut bound = self.base(i);
        for (edge, &j) in self.graph.direct_set(i).iter().enumerate() {
            bound = bound.saturating_add(self.term(i, j, edge).interference(d_i));
        }
        self.idown_memo.seal(i);
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

    /// Zero-load latency Cₖ as the engine's wide integer.
    fn c(&self, k: FlowId) -> u128 {
        u128::from(self.ctx.zero_load(k).as_u64())
    }

    /// `Rⱼ` of a flow settled in this pass: under [`Step::FixedPoint`] the
    /// bound its verdict records (none unless schedulable, which taints the
    /// reader; at most `Dⱼ`, so never clamped), under [`Step::AtDeadline`] `Dⱼ`.
    fn r(&self, j: FlowId) -> Option<u128> {
        let as_wide = |c: Cycles| u128::from(c.as_u64());
        match self.step {
            Step::FixedPoint => self.verdicts[j.index()].response_time().map(as_wide),
            Step::AtDeadline => Some(as_wide(self.system.flow(j).deadline())),
        }
    }

    /// Computes the verdict for one flow, every higher-priority flow having
    /// been solved already. Also returns the window the explanation terms
    /// are evaluated at (the last iterate), leaving those terms in
    /// `self.terms` (empty when tainted). `keep(edge, j)` says whether the
    /// term of τⱼ, the `edge`-th member of `S^D_i`, is read back from τᵢ's
    /// valid memo block instead of recomputed ([`Solver::solve_cached`]).
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::ConvergenceCap`] if the fixed-point
    /// iteration exhausts [`MAX_ITERATIONS`], and
    /// [`AnalysisError::DeadlineExceeded`] once the budget expires.
    fn solve_flow(
        &mut self,
        i: FlowId,
        keep: impl Fn(usize, FlowId) -> bool,
    ) -> Result<(FlowVerdict, u128), AnalysisError> {
        // Per-flow budget poll: catches an expired budget even when every
        // individual fixed point converges in a handful of iterations, and
        // makes a pre-cancelled budget abort deterministically at the first
        // flow of the solve order.
        if self.budget.is_exceeded() {
            metrics::SOLVER_DEADLINE_HITS.incr();
            return Err(AnalysisError::DeadlineExceeded {
                flow: i,
                iterations: 0,
            });
        }
        metrics::SOLVER_FLOWS_SOLVED.incr();
        let deadline = u128::from(self.system.flow(i).deadline().as_u64());
        let direct = self.graph.direct_set(i);
        self.terms.clear();
        // τᵢ's block is rewritten below, in edge order; until it is
        // complete it is not valid.
        self.idown_memo.open(i);
        self.slots_changed = false;
        // Taint: a failed direct interferer leaves τᵢ without a valid bound.
        if direct.iter().any(|&j| self.r(j).is_none()) {
            return Ok((FlowVerdict::Tainted, 0));
        }
        for (edge, &j) in direct.iter().enumerate() {
            let term = if keep(edge, j) {
                self.kept_term(i, j, edge)
            } else {
                self.term(i, j, edge)
            };
            self.terms.push(term);
        }
        self.idown_memo.seal(i);
        // Monotone fixed-point iteration from Rᵢ⁰ = Cᵢ·(σᵢ + 1).
        let c_i = self.base(i);
        let mut r = c_i;
        let mut iterations = 0u64;
        for _ in 0..MAX_ITERATIONS {
            iterations += 1;
            // Cooperative cancellation: poll the budget's atomic flag (and
            // clock, while a deadline is pending) every POLL_ITERATIONS
            // rounds.
            if iterations.is_multiple_of(Budget::POLL_ITERATIONS) && self.budget.is_exceeded() {
                metrics::SOLVER_ITERATIONS.add(iterations);
                metrics::SOLVER_DEADLINE_HITS.incr();
                return Err(AnalysisError::DeadlineExceeded {
                    flow: i,
                    iterations,
                });
            }
            let next = self
                .terms
                .iter()
                .fold(c_i, |total, t| total.saturating_add(t.interference(r)));
            if next > deadline {
                metrics::SOLVER_ITERATIONS.add(iterations);
                let exceeded_at = clamp_cycles(next);
                return Ok((FlowVerdict::DeadlineMiss { exceeded_at }, r));
            }
            if next == r {
                metrics::SOLVER_ITERATIONS.add(iterations);
                let response_time = clamp_cycles(r);
                return Ok((FlowVerdict::Schedulable { response_time }, r));
            }
            r = next;
        }
        metrics::SOLVER_ITERATIONS.add(iterations);
        metrics::SOLVER_CAP_HITS.incr();
        Err(AnalysisError::ConvergenceCap {
            flow: i,
            iterations,
            last_bound: clamp_cycles(r),
        })
    }

    /// The base Cᵢ·(σᵢ + 1) of τᵢ's recurrence: a bursty flow's packet can
    /// sit behind up to σᵢ same-burst predecessors, each occupying the
    /// route for at most Cᵢ. σᵢ = 0 degenerates to the paper's Cᵢ exactly.
    fn base(&self, i: FlowId) -> u128 {
        self.c(i)
            .saturating_mul(u128::from(self.system.flow(i).burst()) + 1)
    }

    /// The constants (independent of Rᵢ) of the term τⱼ, the `edge`-th
    /// member of `S^D_i`, adds to τᵢ's recurrence: hits from τⱼ's own
    /// arrival curve, on the window inflated by the model-specific jitter.
    /// τⱼ must have a response time to read.
    fn term(&mut self, i: FlowId, j: FlowId, edge: usize) -> Term {
        let (extra_jitter, downstream) = self.edge_terms(i, j, edge);
        self.make_term(j, extra_jitter, downstream, false)
    }

    /// [`Solver::term`] read back from τᵢ's memo block, which τᵢ's last
    /// solve wrote: `Idown(j,i)` from the slot, and the jitter `Rⱼ − Cⱼ`
    /// iff the indirect bit beside it is set. Only for the kinds whose
    /// window jitter is that interference jitter.
    fn kept_term(&self, i: FlowId, j: FlowId, edge: usize) -> Term {
        let (downstream, indirect) = self.idown_memo.slot(i, edge);
        self.make_term(j, self.interference_jitter(j, indirect), downstream, true)
    }

    fn make_term(&self, j: FlowId, extra_jitter: u128, downstream: u128, kept: bool) -> Term {
        Term {
            interferer: j,
            curve: self.system.flow(j).arrival_curve(),
            extra_jitter,
            charge: self.c(j).saturating_add(downstream),
            downstream,
            kept,
        }
    }

    /// The window jitter and `Idown(j,i)` of τⱼ, the `edge`-th member of
    /// `S^D_i`, from at most one pass over `S^I_i ∩ S^D_j`.
    fn edge_terms(&mut self, i: FlowId, j: FlowId, edge: usize) -> (u128, u128) {
        let pass = match (self.downstream, self.jitter) {
            (DownstreamModel::Ignore, JitterModel::None) => return (0, 0),
            (DownstreamModel::Ignore, JitterModel::InterferenceJitter) => EdgePass {
                indirect: !self.graph.partition_indirect(i, j).is_empty(),
                ..EdgePass::default()
            },
            (_, jitter) => {
                let want_upstream = matches!(
                    jitter,
                    JitterModel::UpstreamInterference | JitterModel::Dominating
                );
                self.edge_pass(i, j, edge, want_upstream)
            }
        };
        let jitter = match self.jitter {
            JitterModel::None => 0,
            // J^I_j = Rⱼ − Cⱼ iff τⱼ suffers interference from S^I_i.
            JitterModel::InterferenceJitter => self.interference_jitter(j, pass.indirect),
            JitterModel::UpstreamInterference => pass.upstream,
            JitterModel::Dominating => self
                .interference_jitter(j, true)
                .saturating_add(pass.upstream),
        };
        (jitter, pass.downstream)
    }

    /// `J^I_j = Rⱼ − Cⱼ` if `indirect`, else 0.
    fn interference_jitter(&self, j: FlowId, indirect: bool) -> u128 {
        if !indirect {
            return 0;
        }
        let r_j = self.r(j).expect("solved before use");
        r_j.saturating_sub(self.c(j))
    }

    /// One pass over `S^I_i ∩ S^D_j`, τⱼ the `edge`-th member of `S^D_i`:
    /// whether it is non-empty, `Iup(j,i)` when `want_upstream` is set, and
    /// `Idown(j,i)` for the configured downstream model, which it writes to
    /// τᵢ's memo block.
    ///
    /// `Iup(j,i)` is Equation 2: the interference τⱼ suffers from upstream
    /// indirect interferers of τᵢ, charged as hit-count × Cₖ.
    fn edge_pass(&mut self, i: FlowId, j: FlowId, edge: usize, want_upstream: bool) -> EdgePass {
        let graph = self.graph;
        let r_j = self.r(j).expect("solved before use");
        // Ignoring downstream interference charges nothing and writes no
        // slot.
        let charged = self.downstream != DownstreamModel::Ignore;
        // The Eq. 8 per-hit cap, in force only if the pass finds no
        // upstream member.
        let cap = (self.downstream == DownstreamModel::BufferAware)
            .then(|| self.buffered_interference(i, edge));
        let mut pass = EdgePass::default();
        let mut upstream_members = false;
        let (mut capped, mut uncapped): (u128, u128) = (0, 0);
        for m in graph.partition_indirect(i, j) {
            pass.indirect = true;
            let k = m.flow;
            match m.side {
                Side::Upstream => {
                    upstream_members = true;
                    if want_upstream {
                        let hits = self.hits_on(r_j, k);
                        pass.upstream =
                            pass.upstream.saturating_add(hits.saturating_mul(self.c(k)));
                    }
                }
                Side::Downstream if charged => {
                    // One hit of τₖ on τⱼ blocks τⱼ for τₖ's own latency plus
                    // any downstream interference τₖ itself suffers
                    // (recursive MPB): `Idown(k,j)`, written on τⱼ's turn.
                    let inner = self.c(k).saturating_add(self.idown_memo.get(j, m.edge));
                    let hits = self.hits_on(r_j, k);
                    uncapped = uncapped.saturating_add(hits.saturating_mul(inner));
                    if let Some(bi) = cap {
                        capped = capped.saturating_add(hits.saturating_mul(bi.min(inner)));
                    }
                }
                Side::Downstream => {}
            }
        }
        if charged {
            // Eq. 8 applies when τⱼ does not suffer *both* upstream and
            // downstream indirect interference; with no downstream
            // interferers the sum is zero either way, so testing the
            // upstream set suffices.
            pass.downstream = match cap {
                Some(_) if !upstream_members => capped,
                _ => uncapped,
            };
            self.slots_changed |= self.idown_memo.set(i, edge, pass.downstream, pass.indirect);
        }
        pass
    }

    /// `ηₖ(Rⱼ) = ⌈(Rⱼ + Jₖ)/Tₖ⌉ + σₖ` — the number of τₖ packets that can
    /// hit τⱼ's packet during its response window (Eq. 7/8, generalised to
    /// τₖ's arrival curve; exact Eq. 7/8 when σₖ = 0).
    fn hits_on(&self, r_j: u128, k: FlowId) -> u128 {
        self.system.flow(k).arrival_curve().max_arrivals_raw(r_j)
    }

    /// Equation 6: `bi(i,j) = buf(Ξ) · linkl(Ξ) · |cd(i,j)|` — the time for
    /// one contention-domain's worth of buffered τⱼ flits to drain past τᵢ,
    /// τⱼ the `edge`-th member of `S^D_i`.
    ///
    /// Generalised to heterogeneous routers as
    /// `linkl(Ξ) · Σ_{λ ∈ cd(i,j)} buf(target(λ))`: the flits that can pile
    /// up inside the contention domain sit in the input buffers at the
    /// downstream end of each shared link. For homogeneous systems this is
    /// exactly the paper's product form.
    fn buffered_interference(&self, i: FlowId, edge: usize) -> u128 {
        let cd = self.graph.direct_domains(i)[edge];
        let linkl = u128::from(self.system.config().link_latency().as_u64());
        if let Some(buf) = self.uniform_depth {
            return buf * linkl * cd.len() as u128;
        }
        let total_buf: u128 = cd
            .links(self.system.route(i))
            .iter()
            .map(|&l| u128::from(self.system.buffer_depth_of_link(l).unwrap_or(0)))
            .sum();
        linkl * total_buf
    }
}

/// What one pass over `S^I_i ∩ S^D_j` yields for the direct edge (j → i).
#[derive(Default)]
struct EdgePass {
    /// `S^I_i ∩ S^D_j` is non-empty: τⱼ suffers interference from `S^I_i`.
    indirect: bool,
    /// `Iup(j,i)`, if asked for.
    upstream: u128,
    /// `Idown(j,i)`.
    downstream: u128,
}

/// Per-direct-edge memo of `Idown(j,i)`. Every key of the `Idown`
/// recursion — `(j, i)` and each recursive `(k, j)` — is a direct edge
/// (j → i), `j ∈ S^D_i`, so a flat array replaces a pair-keyed map: the
/// edges into victim τᵢ take one block of slots, in `S^D_i` order. Beside
/// each slot sits the edge's *indirect* bit (`S^I_i ∩ S^D_j` is
/// non-empty), which sets the window jitter of a term a cached re-solve
/// keeps ([`Solver::solve_cached`]).
///
/// Only τᵢ's own solve writes its block, in edge order, and nothing else
/// is written meanwhile, so a victim's first solve appends its block at
/// the end; later solves rewrite it in place. The storage has room for
/// every edge of the graph, so a solve never reallocates it, and a delta
/// compacts it while copying it ([`EdgeMemo::relaid_out`]). A tainted
/// victim writes nothing, so a solve fills slots only for flows with a
/// bound.
///
/// A block is *valid* from the end of its victim's solve until the victim
/// is solved again or a delta changes its `S^D`. Solving highest priority
/// first, every block a solve reads — that of a schedulable τⱼ ∈ `S^D_i`
/// — is valid. A solve cache keeps the memo across solves, so a clean
/// flow's slots need no recomputation.
#[derive(Debug, Clone, Default)]
pub(crate) struct EdgeMemo {
    /// Each victim's block in `values`; empty until the victim's first
    /// solve appends it. No blocks at all until the memo is laid out.
    blocks: Vec<Block>,
    values: Vec<u128>,
    /// The indirect bit of each slot of `values`.
    indirect: Vec<bool>,
}

/// The number of direct edges of `graph`: one memo slot each.
fn edge_count(graph: &InterferenceGraph) -> usize {
    (0..graph.len())
        .map(|i| graph.direct_set(FlowId::new(i as u32)).len())
        .sum()
}

/// Where one victim's slots sit in [`EdgeMemo::values`].
#[derive(Debug, Clone, Copy, Default)]
struct Block {
    start: usize,
    len: usize,
    /// The slots hold the values the victim's last solve wrote.
    valid: bool,
}

impl EdgeMemo {
    /// A memo over the direct edges of `graph`, with room for all of them
    /// and no block written.
    pub(crate) fn new(graph: &InterferenceGraph) -> EdgeMemo {
        let edges = edge_count(graph);
        EdgeMemo {
            blocks: vec![Block::default(); graph.len()],
            values: Vec::with_capacity(edges),
            indirect: Vec::with_capacity(edges),
        }
    }

    /// `false` for the empty memo a fresh or poisoned cache holds.
    fn is_laid_out(&self) -> bool {
        !self.blocks.is_empty()
    }

    /// This memo carried across a flow addition or removal, compacted
    /// while it is copied: `graph` is the graph after the delta, and
    /// `old(x)` names the pre-delta id of the flow now at `x`, if any. A
    /// valid block whose length still matches `|S^D_x|` keeps its values
    /// and validity — a delta adds or removes one flow, so an unchanged
    /// `|S^D_x|` means an unchanged `S^D_x`, in the same order. The other
    /// victims lose their blocks. The kept blocks are copied in the order
    /// they sit in, into storage with room for every edge of `graph`. A
    /// memo that was never laid out stays so.
    fn relaid_out(
        &self,
        graph: &InterferenceGraph,
        old: impl Fn(usize) -> Option<usize>,
    ) -> EdgeMemo {
        if !self.is_laid_out() {
            return EdgeMemo::default();
        }
        let n = graph.len();
        let mut kept: Vec<(usize, Block)> = (0..n)
            .filter_map(|x| {
                let b = self.blocks[old(x)?];
                let same = b.valid && b.len == graph.direct_set(FlowId::new(x as u32)).len();
                same.then_some((x, b))
            })
            .collect();
        kept.sort_unstable_by_key(|(_, b)| b.start);
        let mut memo = EdgeMemo::new(graph);
        for (x, b) in kept {
            let slots = b.start..b.start + b.len;
            memo.blocks[x] = Block {
                start: memo.values.len(),
                ..b
            };
            memo.values.extend_from_slice(&self.values[slots.clone()]);
            memo.indirect.extend_from_slice(&self.indirect[slots]);
        }
        memo
    }

    /// Whether `victim`'s block holds the values of its last solve.
    fn is_valid(&self, victim: FlowId) -> bool {
        self.blocks[victim.index()].valid
    }

    /// The value of the `edge`-th direct edge into `victim`, whose block
    /// must be valid.
    fn get(&self, victim: FlowId, edge: usize) -> u128 {
        let b = self.blocks[victim.index()];
        debug_assert!(
            b.valid && edge < b.len,
            "Idown slot into {victim} read before its solve wrote it"
        );
        self.values[b.start + edge]
    }

    /// The value and indirect bit of the `edge`-th direct edge into
    /// `victim`, as its last solve wrote them: read while the victim is
    /// re-solved, so its block may be open.
    fn slot(&self, victim: FlowId, edge: usize) -> (u128, bool) {
        let b = self.blocks[victim.index()];
        debug_assert!(edge < b.len, "Idown slot into {victim} never written");
        (self.values[b.start + edge], self.indirect[b.start + edge])
    }

    /// Starts rewriting `victim`'s block: it is invalid until
    /// [`EdgeMemo::seal`].
    fn open(&mut self, victim: FlowId) {
        self.blocks[victim.index()].valid = false;
    }

    /// Writes the `edge`-th direct edge into `victim`, the victim being
    /// solved; `true` if that changed the slot's value (a first write
    /// always does). The indirect bit is read only by the victim's own
    /// re-solve, so it takes no part in the test.
    fn set(&mut self, victim: FlowId, edge: usize, value: u128, indirect: bool) -> bool {
        let b = &mut self.blocks[victim.index()];
        if edge < b.len {
            self.indirect[b.start + edge] = indirect;
            return std::mem::replace(&mut self.values[b.start + edge], value) != value;
        }
        // The victim's first solve: its block grows at the end, in edge
        // order, inside the reserved room.
        if edge == 0 {
            b.start = self.values.len();
        }
        debug_assert_eq!(b.start + edge, self.values.len());
        b.len += 1;
        self.values.push(value);
        self.indirect.push(indirect);
        true
    }

    /// Marks `victim`'s block complete.
    fn seal(&mut self, victim: FlowId) {
        self.blocks[victim.index()].valid = true;
    }
}

/// Whether the domain `cd(i,j)` of τⱼ, the `edge`-th member of `S^D_i`,
/// has a link into one of `routers`: the edges whose `bi(i,j)` (Eq. 6) a
/// resize of those routers changes.
fn domain_enters(
    system: &System,
    graph: &InterferenceGraph,
    i: FlowId,
    edge: usize,
    routers: &[RouterId],
) -> bool {
    let topology = system.topology();
    graph.direct_domains(i)[edge]
        .links(system.route(i))
        .iter()
        .any(|&l| matches!(topology.link(l).target(), Endpoint::Router(r) if routers.contains(&r)))
}

/// One direct interferer's precomputed contribution to the recurrence of
/// the flow under analysis: everything except the window length is fixed
/// before the fixed-point iteration starts.
struct Term {
    interferer: FlowId,
    /// The interferer's arrival curve ηⱼ — supplies hit counts per window.
    curve: LeakyBucket,
    /// Model-specific window inflation beyond the curve's own jitter
    /// (interference jitter or upstream interference, per [`JitterModel`]).
    extra_jitter: u128,
    /// Cost per hit: Cⱼ + Idown(j,i).
    charge: u128,
    /// The Idown(j,i) part of the charge, kept for explanations.
    downstream: u128,
    /// Read back from the memo rather than recomputed.
    kept: bool,
}

impl Term {
    /// `ηⱼ(r + jitter)`: the interferer's hits in the response window `r`.
    fn hits(&self, r: u128) -> u128 {
        self.curve
            .max_arrivals_raw(r.saturating_add(self.extra_jitter))
    }

    /// The interference this term charges in the response window `r`.
    fn interference(&self, r: u128) -> u128 {
        self.hits(r).saturating_mul(self.charge)
    }

    /// This term as reported at the response window `r`.
    fn explain(&self, r: u128) -> InterferenceTerm {
        InterferenceTerm {
            interferer: self.interferer,
            hits: u64::try_from(self.hits(r)).unwrap_or(u64::MAX),
            charge_per_hit: clamp_cycles(self.charge),
            downstream_term: clamp_cycles(self.downstream),
            window_jitter: clamp_cycles(self.extra_jitter),
        }
    }
}

/// What a delta changed about one flow's inputs since the last solve.
/// Ordered, so that two marks combine by `max`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Mark {
    /// Nothing.
    Clean,
    /// Only the depths of routers in [`SolveCache::resized`]: a re-solve
    /// recomputes only the edges whose domains enter one of them, and
    /// those whose interferer changed.
    Buffers,
    /// Its structure, or everything (a fresh or poisoned cache): a
    /// re-solve recomputes every edge.
    Whole,
}

/// The flow-set change a delta carries a cache across
/// ([`SolveCache::carry`]).
#[derive(Debug, Clone, Copy)]
pub(crate) enum FlowDelta {
    /// A flow inserted at this index, and every id at or above it moved up.
    Inserted(usize),
    /// The flow at this index removed, and every id above it moved down.
    Removed(usize),
}

impl FlowDelta {
    /// The pre-delta index of the flow at `x` after the delta, if it
    /// existed before.
    fn old(self, x: usize) -> Option<usize> {
        match self {
            FlowDelta::Inserted(index) => (x != index).then(|| x - usize::from(x > index)),
            FlowDelta::Removed(index) => Some(x + usize::from(x >= index)),
        }
    }
}

/// Memoised solve state of **one** analysis, or of the conservative bound,
/// over an evolving flow set: the verdicts and `Idown` slots of the last
/// solve plus a per-flow [`Mark`]. The verdicts are the only record of
/// the response times: a re-solve reads a clean flow's `Rⱼ` off its
/// verdict (or, for the bound, reads `Dⱼ`).
///
/// Held per analysis kind, plus one for the conservative bound, in the
/// table of an [`AnalysisContext`], behind an [`Arc`] that a base shares
/// with its forks until a fork's first delta or solve copies it: an
/// addition or removal [carries](SolveCache::carry) it across in the same
/// copy, a resize [marks](SolveCache::mark_resized) it; consumed and
/// refreshed by [`Solver::solve_cached`]. A freshly created cache is
/// all-dirty, so the first solve through it is exactly a full solve.
#[derive(Debug, Clone)]
pub(crate) struct SolveCache {
    /// Verdicts of the last solve, indexed by flow.
    verdicts: Vec<FlowVerdict>,
    /// What the deltas since the last solve changed, per flow.
    marks: Vec<Mark>,
    /// The routers resized since the last solve, for the flows marked
    /// [`Mark::Buffers`].
    resized: Vec<RouterId>,
    /// The `Idown` slots of the last solve; laid out by the first solve.
    memo: EdgeMemo,
    /// The flows the last solve re-solved, in solve order.
    #[cfg(test)]
    pub(crate) resolved: Vec<FlowId>,
    /// The edges of the flows the last solve took through the fixed
    /// point, in solve order.
    #[cfg(test)]
    pub(crate) edges: Vec<EdgeUse>,
}

/// One edge term of a re-solved flow, as the last cached solve used it.
#[cfg(test)]
#[derive(Debug, Clone, Copy)]
pub(crate) struct EdgeUse {
    pub(crate) victim: FlowId,
    /// The interferer's position in `S^D` of the victim.
    pub(crate) edge: usize,
    /// Read back from the memo rather than recomputed.
    pub(crate) kept: bool,
    pub(crate) jitter: u128,
    pub(crate) downstream: u128,
}

impl SolveCache {
    /// A cache for `n` flows with every flow marked dirty.
    pub(crate) fn all_dirty(n: usize) -> SolveCache {
        SolveCache {
            // Placeholders only: dirty flows are re-solved before any read.
            verdicts: vec![FlowVerdict::Tainted; n],
            marks: vec![Mark::Whole; n],
            resized: Vec::new(),
            memo: EdgeMemo::default(),
            #[cfg(test)]
            resolved: Vec::new(),
            #[cfg(test)]
            edges: Vec::new(),
        }
    }

    /// Carries `cache` across a flow addition or removal, in one copy: the
    /// state of each remaining flow moves to its new id, an added flow
    /// starts dirty, the memo is compacted ([`EdgeMemo::relaid_out`]), and
    /// the `affected` flows are marked [`Mark::Whole`]. `graph` is the
    /// graph after the delta. A shared cache is left to its other holders
    /// untouched.
    pub(crate) fn carry(
        cache: &mut Arc<SolveCache>,
        graph: &InterferenceGraph,
        delta: FlowDelta,
        affected: &[FlowId],
    ) {
        let n = graph.len();
        let old = |x: usize| delta.old(x);
        let moved = |x: usize| old(x).map(|o| (cache.verdicts[o], cache.marks[o]));
        let (verdicts, marks) = (0..n)
            .map(|x| moved(x).unwrap_or((FlowVerdict::Tainted, Mark::Whole)))
            .unzip();
        let mut carried = SolveCache {
            verdicts,
            marks,
            resized: cache.resized.clone(),
            memo: cache.memo.relaid_out(graph, old),
            #[cfg(test)]
            resolved: Vec::new(),
            #[cfg(test)]
            edges: Vec::new(),
        };
        carried.mark_dirty(affected);
        *cache = Arc::new(carried);
    }

    /// The `Idown` slots of `victim`'s last solve, if its block is valid.
    #[cfg(test)]
    pub(crate) fn slots(&self, victim: FlowId) -> Option<&[u128]> {
        let b = self.memo.blocks[victim.index()];
        b.valid.then(|| &self.memo.values[b.start..b.start + b.len])
    }

    /// Marks the inputs of `flows` as changed.
    fn mark_dirty(&mut self, flows: &[FlowId]) {
        for f in flows {
            self.marks[f.index()] = Mark::Whole;
        }
    }

    /// Records that `router` was resized, and marks `flows`, the victims
    /// of the domains with a link into it, as changed only in the edges
    /// whose domains enter a resized router (unless a delta marked them
    /// changed in full).
    pub(crate) fn mark_resized(&mut self, flows: &[FlowId], router: RouterId) {
        for f in flows {
            let mark = &mut self.marks[f.index()];
            *mark = (*mark).max(Mark::Buffers);
        }
        if !self.resized.contains(&router) {
            self.resized.push(router);
        }
    }

    /// Whether no delta marked a flow or resized a router since the last
    /// solve, so that the verdicts are the current flow set's and a pass
    /// through the cache would leave it as it is.
    pub(crate) fn is_clean(&self) -> bool {
        self.resized.is_empty() && self.marks.iter().all(|&mark| mark == Mark::Clean)
    }

    /// The verdicts of the last solve, as a report named `name`. Only
    /// meaningful for a clean cache.
    pub(crate) fn report(&self, name: &'static str) -> AnalysisReport {
        debug_assert!(self.is_clean(), "a report read past pending marks");
        AnalysisReport::new(name, self.verdicts.clone())
    }

    /// Marks every flow dirty and drops the memo — the recovery state
    /// after an aborted cached solve left the cache half-refreshed.
    pub(crate) fn poison(&mut self) {
        self.marks.fill(Mark::Whole);
        self.resized.clear();
        self.memo = EdgeMemo::default();
    }
}

fn clamp_cycles(v: u128) -> Cycles {
    Cycles::new(u64::try_from(v).unwrap_or(u64::MAX))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clamp_saturates() {
        assert_eq!(clamp_cycles(5), Cycles::new(5));
        assert_eq!(clamp_cycles(u128::MAX), Cycles::MAX);
    }
}

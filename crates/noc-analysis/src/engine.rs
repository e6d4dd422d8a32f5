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
//! interference terms of τᵢ is already final. The conservative bound of
//! [`crate::conservative`] evaluates the same recurrence once per flow at
//! `Rᵢ := Dᵢ`, reading every `Rⱼ` as `Dⱼ`
//! ([`Solver::evaluate_at_deadlines`]). The hit count comes from each
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

use noc_model::arrival::{ArrivalCurve, LeakyBucket};
use noc_model::contention::{InterferenceGraph, Side};
use noc_model::ids::FlowId;
use noc_model::system::System;
use noc_model::time::Cycles;

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
    /// Cooperative deadline/cancellation token, polled once per flow and
    /// every [`Budget::POLL_ITERATIONS`] fixed-point iterations.
    budget: &'a Budget,
    /// Final response times, filled highest-priority-first.
    r: Vec<Option<u128>>,
    /// Memoised `Idown(j,i)` values, one slot per direct edge (j → i).
    idown_memo: EdgeMemo<'a>,
    /// The direct-interference terms of the flow solved last, reused
    /// across flows; read back only by the explain path.
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
            budget,
            r: vec![None; ctx.len()],
            idown_memo: EdgeMemo::new(ctx.graph()),
            terms: Vec::new(),
        }
    }

    /// Runs the analysis over the whole flow set.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::ConvergenceCap`] if any flow's fixed-point
    /// iteration exhausts the safety cap, or
    /// [`AnalysisError::DeadlineExceeded`] once the budget expires.
    pub(crate) fn solve(mut self) -> Result<AnalysisReport, AnalysisError> {
        let _span = metrics::SOLVE_NS.span();
        // Placeholders only: the priority order covers every flow.
        let mut verdicts = vec![FlowVerdict::Tainted; self.r.len()];
        for &i in self.ctx.priority_order() {
            verdicts[i.index()] = self.solve_flow(i)?.0;
        }
        Ok(AnalysisReport::new(self.name, verdicts))
    }

    /// Runs the analysis and returns the per-flow interference breakdowns
    /// at the fixed points, indexed by flow.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Solver::solve`].
    pub(crate) fn solve_explained(mut self) -> Result<Vec<FlowExplanation>, AnalysisError> {
        let _span = metrics::SOLVE_NS.span();
        let mut explanations = Vec::with_capacity(self.r.len());
        for &i in self.ctx.priority_order() {
            let (verdict, window) = self.solve_flow(i)?;
            explanations.push(FlowExplanation {
                flow: i,
                zero_load: self.ctx.zero_load(i),
                verdict,
                terms: self.terms.iter().map(|t| t.explain(window)).collect(),
            });
        }
        explanations.sort_unstable_by_key(|e| e.flow);
        Ok(explanations)
    }

    /// Runs the analysis against `cache`, re-solving only the flows whose
    /// interference inputs changed since the cache was last brought up to
    /// date; every other flow's verdict (and response time) is reused
    /// verbatim, so the result is bit-identical to a full
    /// [`Solver::solve`] by construction.
    ///
    /// Dirtiness propagates down the priority order first: every member of
    /// `S^D_i ∪ S^I_i` has strictly higher priority than τᵢ (both sets are
    /// built from higher-priority flows only), and the fixed point of τᵢ
    /// reads nothing outside those sets — including through the recursive
    /// downstream term, whose every `R`- and structure-reference follows
    /// chains of such edges. One pass in solve order therefore reaches the
    /// whole transitive closure.
    ///
    /// On return the cache is clean (all dirty bits cleared) and holds the
    /// verdicts of the report.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Solver::solve`]; an error raised by a dirty
    /// flow poisons the cache all-dirty so the next solve through it is a
    /// full solve.
    ///
    /// # Panics
    ///
    /// Panics if `cache` was sized for a different number of flows.
    pub(crate) fn solve_cached(
        mut self,
        cache: &mut SolveCache,
    ) -> Result<AnalysisReport, AnalysisError> {
        let _span = metrics::SOLVE_NS.span();
        let order = self.ctx.priority_order();
        assert_eq!(
            cache.r.len(),
            order.len(),
            "solve cache does not match the flow set"
        );
        // An exceeded budget must abort even when every flow is clean —
        // otherwise a cancelled solve answers from the warm cache and the
        // outcome depends on what happened to run on this context earlier.
        // No work has been done yet, so the cache stays valid (no poison).
        if let Some(&first) = order.first() {
            if self.budget.is_exceeded() {
                metrics::SOLVER_DEADLINE_HITS.incr();
                return Err(AnalysisError::DeadlineExceeded {
                    flow: first,
                    iterations: 0,
                });
            }
        }
        for &i in order {
            if !cache.dirty[i.index()] {
                let deps_dirty = self
                    .graph
                    .direct_set(i)
                    .iter()
                    .chain(self.graph.indirect_set(i).iter())
                    .any(|&j| cache.dirty[j.index()]);
                cache.dirty[i.index()] = deps_dirty;
            }
        }
        let (mut dirty_solved, mut clean_reused) = (0u64, 0u64);
        for &i in order {
            if cache.dirty[i.index()] {
                dirty_solved += 1;
                match self.solve_flow(i) {
                    Ok((verdict, _)) => cache.verdicts[i.index()] = verdict,
                    Err(e) => {
                        // Half the flows are solved, half are stale; the
                        // only consistent cache state is "everything needs
                        // a re-solve".
                        cache.poison();
                        return Err(e);
                    }
                }
            } else {
                // Clean flow: its fixed point is unchanged; republish the
                // cached response time for lower-priority flows to read.
                clean_reused += 1;
                self.r[i.index()] = cache.r[i.index()];
            }
        }
        cache.r = self.r;
        for d in cache.dirty.iter_mut() {
            *d = false;
        }
        metrics::CACHE_DIRTY_SOLVED.add(dirty_solved);
        metrics::CACHE_CLEAN_REUSED.add(clean_reused);
        // Argument construction allocates, so gate the emission itself.
        if noc_telemetry::enabled() {
            noc_telemetry::events::emit(
                "analysis.solve_cached",
                &[
                    ("analysis", self.name.into()),
                    ("dirty_solved", dirty_solved.into()),
                    ("clean_reused", clean_reused.into()),
                ],
            );
        }
        Ok(AnalysisReport::new(self.name, cache.verdicts.clone()))
    }

    /// One evaluation of every flow's recurrence at Rᵢ := Dᵢ, with every
    /// Rⱼ it reads also taken as Dⱼ, in place of the fixed-point loop: a
    /// flow is schedulable, with that value as its bound, iff the value is
    /// at most its deadline. Nothing is read from another flow's result,
    /// so no flow is tainted and nothing can fail; no solver metric moves.
    pub(crate) fn evaluate_at_deadlines(mut self) -> AnalysisReport {
        for (r, (_, flow)) in self.r.iter_mut().zip(self.system.flows().iter()) {
            *r = Some(u128::from(flow.deadline().as_u64()));
        }
        // Placeholders only: the priority order covers every flow. In that
        // order every recursive `Idown(k,j)` finds its edge memoised: it
        // was evaluated on τⱼ's own turn.
        let mut verdicts = vec![FlowVerdict::Tainted; self.r.len()];
        for &i in self.ctx.priority_order() {
            let d_i = self.r[i.index()].expect("every flow reads its deadline");
            let mut bound = self.base(i);
            for (edge, &j) in self.graph.direct_set(i).iter().enumerate() {
                bound = bound.saturating_add(self.term(i, j, edge).interference(d_i));
            }
            verdicts[i.index()] = if bound <= d_i {
                FlowVerdict::Schedulable {
                    response_time: clamp_cycles(bound),
                }
            } else {
                FlowVerdict::DeadlineMiss {
                    exceeded_at: clamp_cycles(bound),
                }
            };
        }
        AnalysisReport::new(self.name, verdicts)
    }

    /// Zero-load latency Cₖ as the engine's wide integer.
    fn c(&self, k: FlowId) -> u128 {
        u128::from(self.ctx.zero_load(k).as_u64())
    }

    /// Computes the verdict for one flow, every higher-priority flow having
    /// been solved already, and publishes its response time. Also returns
    /// the window the explanation terms are evaluated at (the last
    /// iterate), leaving those terms in `self.terms` (empty when tainted).
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::ConvergenceCap`] if the fixed-point
    /// iteration exhausts [`MAX_ITERATIONS`], and
    /// [`AnalysisError::DeadlineExceeded`] once the budget expires.
    fn solve_flow(&mut self, i: FlowId) -> Result<(FlowVerdict, u128), AnalysisError> {
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
        // Taint: a failed direct interferer leaves τᵢ without a valid bound.
        if direct.iter().any(|&j| self.r[j.index()].is_none()) {
            return Ok((FlowVerdict::Tainted, 0));
        }
        for (edge, &j) in direct.iter().enumerate() {
            let term = self.term(i, j, edge);
            self.terms.push(term);
        }
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
                self.r[i.index()] = Some(r);
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
        Term {
            interferer: j,
            curve: self.system.flow(j).arrival_curve(),
            extra_jitter,
            charge: self.c(j).saturating_add(downstream),
            downstream,
        }
    }

    /// The window jitter and `Idown(j,i)` of τⱼ, the `edge`-th member of
    /// `S^D_i`, from at most one pass over `S^I_i ∩ S^D_j`.
    fn edge_terms(&mut self, i: FlowId, j: FlowId, edge: usize) -> (u128, u128) {
        let pass = match (self.downstream, self.jitter) {
            (DownstreamModel::Ignore, JitterModel::None) => return (0, 0),
            (DownstreamModel::Ignore, JitterModel::InterferenceJitter) => EdgePass {
                indirect: self.graph.has_indirect_via(i, j),
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
            JitterModel::InterferenceJitter if pass.indirect => {
                let r_j = self.r[j.index()].expect("solved before use");
                r_j.saturating_sub(self.c(j))
            }
            JitterModel::InterferenceJitter => 0,
            JitterModel::UpstreamInterference => pass.upstream,
            JitterModel::Dominating => {
                let r_j = self.r[j.index()].expect("solved before use");
                r_j.saturating_sub(self.c(j)).saturating_add(pass.upstream)
            }
        };
        (jitter, pass.downstream)
    }

    /// `Idown(j,i)` for the configured downstream model, τⱼ the `edge`-th
    /// member of `S^D_i`, memoised per edge.
    fn downstream_term(&mut self, j: FlowId, i: FlowId, edge: usize) -> u128 {
        match self.idown_memo.get(i, edge) {
            Some(v) => v,
            None => self.edge_pass(i, j, edge, false).downstream,
        }
    }

    /// One pass over `S^I_i ∩ S^D_j`, τⱼ the `edge`-th member of `S^D_i`:
    /// whether it is non-empty, `Iup(j,i)` when `want_upstream` is set, and
    /// `Idown(j,i)` for the configured downstream model (memoised).
    ///
    /// `Iup(j,i)` is Equation 2: the interference τⱼ suffers from upstream
    /// indirect interferers of τᵢ, charged as hit-count × Cₖ.
    fn edge_pass(&mut self, i: FlowId, j: FlowId, edge: usize, want_upstream: bool) -> EdgePass {
        let graph = self.graph;
        let r_j = self.r[j.index()].expect("solved before use");
        // Ignoring downstream interference charges nothing, memo or not.
        let known = match self.downstream {
            DownstreamModel::Ignore => Some(0),
            _ => self.idown_memo.get(i, edge),
        };
        // The Eq. 8 per-hit cap, in force only if the pass finds no
        // upstream member.
        let cap = (known.is_none() && self.downstream == DownstreamModel::BufferAware)
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
                Side::Downstream if known.is_none() => {
                    // One hit of τₖ on τⱼ blocks τⱼ for τₖ's own latency plus
                    // any downstream interference τₖ itself suffers
                    // (recursive MPB).
                    let inner = self.c(k).saturating_add(self.downstream_term(k, j, m.edge));
                    let hits = self.hits_on(r_j, k);
                    uncapped = uncapped.saturating_add(hits.saturating_mul(inner));
                    if let Some(bi) = cap {
                        capped = capped.saturating_add(hits.saturating_mul(bi.min(inner)));
                    }
                }
                Side::Downstream => {}
            }
        }
        pass.downstream = match known {
            Some(v) => v,
            None => {
                // Eq. 8 applies when τⱼ does not suffer *both* upstream and
                // downstream indirect interference; with no downstream
                // interferers the sum is zero either way, so testing the
                // upstream set suffices.
                let total = match cap {
                    Some(_) if !upstream_members => capped,
                    _ => uncapped,
                };
                self.idown_memo.set(i, edge, total);
                total
            }
        };
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
        if !self.system.has_heterogeneous_buffers() {
            let buf = u128::from(self.system.config().buffer_depth());
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

/// Per-direct-edge memo. Every key of the `Idown` recursion — `(j, i)` and
/// each recursive `(k, j)` — is a direct edge (j → i), `j ∈ S^D_i`, so a
/// flat array replaces a pair-keyed map: the edges into victim τᵢ take one
/// block of slots, in `S^D_i` order, allocated when the solve first
/// records one of them. A cached solve that reaches few victims pays for
/// few slots.
#[derive(Debug)]
pub(crate) struct EdgeMemo<'g> {
    graph: &'g InterferenceGraph,
    /// Where each victim's block starts in `values`, or [`NO_BLOCK`].
    block: Vec<usize>,
    values: Vec<Option<u128>>,
}

/// Marks a victim whose block is not allocated yet.
const NO_BLOCK: usize = usize::MAX;

impl<'g> EdgeMemo<'g> {
    /// An empty memo over the direct edges of `graph`.
    pub(crate) fn new(graph: &'g InterferenceGraph) -> EdgeMemo<'g> {
        EdgeMemo {
            graph,
            block: vec![NO_BLOCK; graph.len()],
            values: Vec::new(),
        }
    }

    /// The value of the `edge`-th direct edge into `victim`, if memoised.
    pub(crate) fn get(&self, victim: FlowId, edge: usize) -> Option<u128> {
        match self.block[victim.index()] {
            NO_BLOCK => None,
            start => self.values[start + edge],
        }
    }

    /// Memoises the value of the `edge`-th direct edge into `victim`.
    pub(crate) fn set(&mut self, victim: FlowId, edge: usize, value: u128) {
        let start = match self.block[victim.index()] {
            NO_BLOCK => {
                let start = self.values.len();
                let edges = self.graph.direct_set(victim).len();
                self.values.resize(start + edges, None);
                self.block[victim.index()] = start;
                start
            }
            start => start,
        };
        self.values[start + edge] = Some(value);
    }
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

/// Memoised solve state of **one** analysis over an evolving flow set: the
/// response times and verdicts of the last solve plus a per-flow dirty bit.
///
/// Owned per analysis kind by the incremental context; consumed and
/// refreshed by [`Solver::solve_cached`]. A freshly created cache is
/// all-dirty, so the first solve through it is exactly a full solve.
#[derive(Debug, Clone)]
pub(crate) struct SolveCache {
    /// Final response times of the last solve (`None` for flows without a
    /// valid bound), indexed by flow.
    r: Vec<Option<u128>>,
    /// Verdicts of the last solve, indexed by flow.
    verdicts: Vec<FlowVerdict>,
    /// Flows whose interference inputs changed since the last solve.
    dirty: Vec<bool>,
}

impl SolveCache {
    /// A cache for `n` flows with every flow marked dirty.
    pub(crate) fn all_dirty(n: usize) -> SolveCache {
        SolveCache {
            r: vec![None; n],
            // Placeholders only: dirty flows are re-solved before any read.
            verdicts: vec![FlowVerdict::Tainted; n],
            dirty: vec![true; n],
        }
    }

    /// Appends state for a newly added flow (dense id = old length),
    /// marked dirty.
    pub(crate) fn push_flow(&mut self) {
        self.r.push(None);
        self.verdicts.push(FlowVerdict::Tainted);
        self.dirty.push(true);
    }

    /// Drops the state of the flow at `index`; the dense renumbering of the
    /// flows above it is the same `Vec::remove` shift.
    pub(crate) fn remove_flow(&mut self, index: usize) {
        self.r.remove(index);
        self.verdicts.remove(index);
        self.dirty.remove(index);
    }

    /// Marks one flow's inputs as changed.
    pub(crate) fn mark_dirty(&mut self, index: usize) {
        self.dirty[index] = true;
    }

    /// Marks every flow dirty — the recovery state after an aborted
    /// cached solve left the cache half-refreshed.
    pub(crate) fn poison(&mut self) {
        for d in self.dirty.iter_mut() {
            *d = true;
        }
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

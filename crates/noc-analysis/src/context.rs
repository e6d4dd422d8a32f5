//! The analysis context: one system plus its precomputed derived structure
//! and the answers kept over it.
//!
//! Every analysis of this crate consumes the same derived structure of a
//! [`System`]: the [`InterferenceGraph`] (direct/indirect interference sets,
//! contention domains and up/down partitions — §III of the paper — and the
//! priority order the fixed-point engine solves in) and the zero-load
//! latencies Cᵢ of Equation 1. Building that structure costs
//! about as much as a full fixed-point solve, and experiment harnesses
//! routinely run 4–5 analyses (and several buffer depths) over the *same*
//! flow set.
//!
//! [`AnalysisContext`] computes everything once and lets every analysis
//! borrow it via [`Analysis::analyze_with`]. It is the only holder of that
//! structure in the crate: it keeps its system either borrowed (the
//! [`AnalysisContext::new`] form) or owned ([`AnalysisContext::owned`],
//! [`AnalysisContext::from_context`]), and its graph behind an [`Arc`].
//! Derived systems that keep the interference structure intact — different
//! buffer depths ([`System::with_buffer_depth`]), scaled periods
//! ([`System::with_scaled_periods`]) — share the graph through
//! [`AnalysisContext::rebase`], which revalidates cheaply and clones only
//! the [`Arc`] handle. The same context also takes flow-set deltas in
//! place (the [`incremental`](crate::incremental) half of its API).
//!
//! A context keeps solved caches in one table of six slots: one per
//! analysis ([`AnalysisContext::warm`], or its first
//! [`AnalysisContext::analyze`] of that kind), then one for the
//! conservative bound ([`AnalysisContext::warm_conservative`], or its first
//! conservative report). [`AnalysisContext::from_context`] forks a context
//! copy-on-write: the fork shares the graph and every kept cache until its
//! first delta or solve through it copies that one, so it re-solves only
//! what its own deltas change. Serving warms its base once per batch kind,
//! and keeps its conservative bound when a batch can degrade. A delta
//! carries every kept cache across and marks the flows whose inputs it
//! changed; the next `&mut` solve re-solves only those, and reads a cache
//! with no marks back in place, without a copy. The conservative bound
//! reads no buffer depth, so a resize marks nothing in its cache.
//!
//! Kept caches have one writer and one reader: only `warm`,
//! `warm_conservative` and deltas write them, and only the `&mut` solves
//! ([`AnalysisContext::analyze`], [`AnalysisContext::conservative_report`])
//! read them. Every `&self` answer is from scratch
//! ([`AnalysisKind::analyze_with_budget`],
//! [`conservative_with`](crate::conservative::conservative_with)), and
//! [`AnalysisContext::rebase`] carries no cache over.
//!
//! Finally a context keeps up to [`KEPT_BUFFER_DEPTHS`] reports solved at
//! homogeneous buffer depths ([`AnalysisContext::warm_buffer_depths`]), one
//! per (analysis, depth): the answer to "does this flow set still certify
//! with every buffer `depth` flits deep?" is a pure function of the
//! system, the analysis and the depth, so
//! [`AnalysisContext::analyze_at_buffer_depth`] reads it back instead of
//! rebasing and solving again. Serving fills these once per base, for the
//! depths its batches without a deadline ask about. Unlike the solved
//! caches, they are dropped by every delta and not carried over by rebasing
//! or forking.
//!
//! ```
//! use noc_model::prelude::*;
//! use noc_analysis::prelude::*;
//!
//! # let topology = Topology::mesh(3, 1);
//! # let flows = FlowSet::new(vec![Flow::builder(NodeId::new(0), NodeId::new(2))
//! #     .priority(Priority::new(1)).period(Cycles::new(1_000)).length_flits(16).build()])?;
//! # let system = System::new(topology, NocConfig::default(), flows, &XyRouting)?;
//! // Build the interference structure once …
//! let ctx = AnalysisContext::new(&system)?;
//! // … and run as many analyses against it as needed.
//! let xlwx = Xlwx.analyze_with(&ctx)?;
//! let ibn = BufferAware.analyze_with(&ctx)?;
//! // A different buffer depth keeps routes and priorities: rebase, don't rebuild.
//! let big = system.with_buffer_depth(100);
//! let ibn_big = BufferAware.analyze_with(&ctx.rebase(&big)?)?;
//! # assert!(ibn.is_schedulable() && ibn_big.is_schedulable() && xlwx.is_schedulable());
//! # Ok::<(), noc_analysis::error::AnalysisError>(())
//! ```
//!
//! [`Analysis::analyze_with`]: crate::analysis::Analysis::analyze_with

use std::borrow::Cow;
use std::sync::{Arc, OnceLock};

use noc_model::contention::InterferenceGraph;
use noc_model::flow::Flow;
use noc_model::ids::{FlowId, RouterId};
use noc_model::route::Route;
use noc_model::system::System;
use noc_model::time::Cycles;

use crate::analysis::AnalysisKind;
use crate::budget::Budget;
use crate::conservative;
use crate::engine::{FlowDelta, SolveCache, Solver};
use crate::error::AnalysisError;
use crate::incremental::Undo;
use crate::metrics;
use crate::report::AnalysisReport;
use crate::runner::par_map_indexed;

/// Precomputed, analysis-independent structure of one [`System`]: the
/// interference graph, the priority order and the zero-load latencies,
/// plus the solved caches and buffer-depth reports kept over it.
///
/// Cheap to hand out by reference; every analysis in this crate accepts one
/// through [`Analysis::analyze_with`](crate::analysis::Analysis::analyze_with).
/// The plain [`Analysis::analyze`](crate::analysis::Analysis::analyze)
/// convenience builds a fresh context internally, so the two paths are
/// equivalent by construction (asserted bit-for-bit by the
/// `context_equivalence` integration test). Flow additions, removals and
/// buffer resizes update it in place (see [`crate::incremental`]).
#[derive(Debug, Clone)]
pub struct AnalysisContext<'sys> {
    /// Borrowed for contexts built by [`AnalysisContext::new`] or
    /// [`AnalysisContext::rebase`] until their first delta; owned otherwise.
    system: Cow<'sys, System>,
    /// Shared by rebased contexts and forks; copied on the first delta.
    graph: Arc<InterferenceGraph>,
    /// Cᵢ of every flow, stored so the solver's hot path reads it instead
    /// of recomputing Equation 1 (`System::zero_load_latency`) per read.
    zero_load: Vec<Cycles>,
    /// One solved cache per [`AnalysisKind`], indexed by
    /// `AnalysisKind::index`, then the conservative bound's at
    /// [`CONSERVATIVE`]. Empty until warmed or first solved through; an
    /// absent cache is all-dirty, so deltas skip it and a context that
    /// serves one kind holds one cache. Shared with forks; a delta carries
    /// it across, a `&mut` solve brings it up to date.
    pub(crate) caches: [OnceLock<Arc<SolveCache>>; CONSERVATIVE + 1],
    /// Reports solved at homogeneous buffer depths, filled in slot order
    /// by [`AnalysisContext::warm_buffer_depths`], so the filled slots are
    /// a prefix.
    pub(crate) by_depth: [OnceLock<DepthReport>; KEPT_BUFFER_DEPTHS],
    /// What undoes each delta made in the innermost open
    /// [`AnalysisContext::what_if`] scope, oldest first; `None` outside
    /// every scope.
    pub(crate) journal: Option<Vec<Undo>>,
}

/// The index of the conservative bound's cache, after the five kinds', in
/// the table of an [`AnalysisContext`].
pub(crate) const CONSERVATIVE: usize = AnalysisKind::ALL.len();

/// How many buffer-depth reports an [`AnalysisContext`] keeps
/// ([`AnalysisContext::warm_buffer_depths`]), over all analysis kinds.
/// A kept report holds one 16-byte verdict per flow, so a full store costs
/// about 256 B per flow: some 175 KiB for 700 flows. Past the cap, depths
/// are solved and not kept.
pub const KEPT_BUFFER_DEPTHS: usize = 16;

/// One report [`AnalysisContext::warm_buffer_depths`] kept.
#[derive(Debug, Clone)]
pub(crate) struct DepthReport {
    kind: AnalysisKind,
    depth: u32,
    report: AnalysisReport,
}

impl AnalysisContext<'static> {
    /// [`AnalysisContext::new`], taking ownership of `system`: the form
    /// that outlives its caller's system, as an admission controller's
    /// live context does.
    ///
    /// # Errors
    ///
    /// The conditions of [`AnalysisContext::new`].
    pub fn owned(system: System) -> Result<AnalysisContext<'static>, AnalysisError> {
        AnalysisContext::build(Cow::Owned(system))
    }

    /// Forks an owned context off `ctx`: the system is cloned and the
    /// interference graph shared, so the fork pays for a graph copy only
    /// on its first flow addition or removal — the cheap way to give each
    /// thread mutable state over one shared base context. Every solved
    /// cache `ctx` keeps (its [warmed](AnalysisContext::warm) analyses and
    /// its [conservative bound](AnalysisContext::warm_conservative)) is
    /// shared the same way, one [`Arc`] clone per slot, so the fork's first
    /// solve re-solves only what its own deltas change. Buffer-depth
    /// reports are not shared. A fork counts as warm if it shares any of
    /// the five kinds' caches.
    pub fn from_context(ctx: &AnalysisContext<'_>) -> AnalysisContext<'static> {
        let warm = ctx.caches[..CONSERVATIVE]
            .iter()
            .any(|slot| slot.get().is_some());
        if warm {
            metrics::FORK_WARM.incr();
        } else {
            metrics::FORK_COLD.incr();
        }
        AnalysisContext {
            system: Cow::Owned(ctx.system().clone()),
            graph: Arc::clone(&ctx.graph),
            zero_load: ctx.zero_load.clone(),
            caches: ctx.caches.clone(),
            by_depth: Default::default(),
            journal: None,
        }
    }
}

impl<'sys> AnalysisContext<'sys> {
    /// Builds the full context for `system`: interference graph (priority
    /// order included) and zero-load latencies.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::Model`] if the system violates the
    /// contiguous contention-domain assumption (§II of the paper).
    pub fn new(system: &'sys System) -> Result<AnalysisContext<'sys>, AnalysisError> {
        Self::build(Cow::Borrowed(system))
    }

    fn build(system: Cow<'sys, System>) -> Result<AnalysisContext<'sys>, AnalysisError> {
        let graph = Arc::new(InterferenceGraph::new(&system)?);
        Ok(Self::assemble(system, graph))
    }

    fn assemble(system: Cow<'sys, System>, graph: Arc<InterferenceGraph>) -> AnalysisContext<'sys> {
        let zero_load = system
            .flows()
            .ids()
            .map(|id| system.zero_load_latency(id))
            .collect();
        AnalysisContext {
            system,
            graph,
            zero_load,
            caches: Default::default(),
            by_depth: Default::default(),
            journal: None,
        }
    }

    /// Rebinds this context to a *derived* system that preserves the
    /// interference structure — same flows in the same order, same
    /// priorities, same routes. The expensive interference graph is shared
    /// (one [`Arc`] clone), and with it the priority order, which the
    /// check below keeps valid; zero-load latencies are recomputed from the
    /// new system, so config changes (buffer depth,
    /// link/routing latency) and timing changes (periods, deadlines,
    /// jitters) are picked up correctly. Solved caches and buffer-depth
    /// reports are not carried over: they describe the old system.
    ///
    /// Typical sources of compatible systems are
    /// [`System::with_buffer_depth`], [`System::with_router_buffer_depth`]
    /// and [`System::with_scaled_periods`].
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::ContextMismatch`] if `target` differs from
    /// the original system in flow count, any priority, or any route —
    /// reusing the graph would then be unsound.
    pub fn rebase<'b>(&self, target: &'b System) -> Result<AnalysisContext<'b>, AnalysisError> {
        let source = self.system();
        if target.flows().len() != source.flows().len() {
            return Err(AnalysisError::ContextMismatch {
                detail: format!(
                    "flow count changed: {} != {}",
                    target.flows().len(),
                    source.flows().len()
                ),
            });
        }
        for id in source.flows().ids() {
            if target.flow(id).priority() != source.flow(id).priority() {
                return Err(AnalysisError::ContextMismatch {
                    detail: format!("priority of {id} changed"),
                });
            }
            if target.route(id) != source.route(id) {
                return Err(AnalysisError::ContextMismatch {
                    detail: format!("route of {id} changed"),
                });
            }
        }
        Ok(AnalysisContext::assemble(
            Cow::Borrowed(target),
            Arc::clone(&self.graph),
        ))
    }

    /// [`AnalysisContext::rebase`] for targets known to preserve the
    /// interference structure by construction — systems derived via
    /// [`System::with_buffer_depth`], [`System::with_router_buffer_depth`]
    /// or [`System::with_scaled_periods`]. The experiment harnesses use
    /// this form.
    ///
    /// # Panics
    ///
    /// Panics if `target` does *not* preserve the structure (different flow
    /// count, priorities or routes), naming the violated invariant — use
    /// [`AnalysisContext::rebase`] when that is a recoverable condition.
    #[must_use]
    #[track_caller]
    pub fn rebased<'b>(&self, target: &'b System) -> AnalysisContext<'b> {
        match self.rebase(target) {
            Ok(ctx) => ctx,
            Err(mismatch) => {
                panic!("rebase target does not preserve the interference structure: {mismatch}")
            }
        }
    }

    /// Solves `kind` over this context under `budget` and keeps the
    /// result, so that every context [forked](AnalysisContext::from_context)
    /// from it afterwards starts from this solve instead of all-dirty. Does
    /// nothing if `kind` is already kept, even if a delta has marked it
    /// since: forks solve through the marks.
    ///
    /// The result is the same as without warming: a fork's cached solve is
    /// bit-identical to a full solve either way. Only the cost moves — the
    /// full solve is paid once here, not once per fork.
    ///
    /// # Errors
    ///
    /// The conditions of [`AnalysisKind::analyze_with_budget`]; nothing is
    /// kept then, and forks start all-dirty as before.
    pub fn warm(&self, kind: AnalysisKind, budget: &Budget) -> Result<(), AnalysisError> {
        let lock = &self.caches[kind.index()];
        if lock.get().is_none() {
            let mut cache = Arc::new(SolveCache::all_dirty(self.len()));
            Solver::new(self, kind.spec(), budget).solve_cached(&mut cache)?;
            // A concurrent warm may have won the race with the same result.
            let _ = lock.set(cache);
        }
        Ok(())
    }

    /// The cache kept at `index` of the table, if any: `kind.index()` for
    /// an analysis kind's, [`CONSERVATIVE`] for the conservative bound's.
    #[cfg(test)]
    pub(crate) fn cached(&self, index: usize) -> Option<&Arc<SolveCache>> {
        self.caches[index].get()
    }

    /// Evaluates the conservative bound over this context and keeps it, so
    /// that every context [forked](AnalysisContext::from_context) from it
    /// afterwards re-evaluates only the flows its deltas reach. Does
    /// nothing if the bound is already kept, even if a delta has marked it
    /// since; of concurrent first callers, one evaluates. Counts as no
    /// `analysis.conservative.solves`: no report is served.
    pub fn warm_conservative(&self) {
        self.caches[CONSERVATIVE].get_or_init(|| {
            let mut cache = Arc::new(SolveCache::all_dirty(self.len()));
            conservative::evaluate(self, &mut cache);
            cache
        });
    }

    /// Solves `kind` over this context's system with every router buffer
    /// resized to each of `depths` flits ([`System::with_buffer_depth`],
    /// through [`AnalysisContext::rebase`]) and keeps the reports, so that
    /// [`AnalysisContext::analyze_at_buffer_depth`] answers them as
    /// lookups. Only depths that will be kept are solved: the first ones
    /// not yet kept, in order of first appearance, up to the
    /// [`KEPT_BUFFER_DEPTHS`] slots still free. Up to `threads` of them
    /// are solved at once ([`par_map_indexed`]), and they are kept in that
    /// order, so what a call keeps and where never depends on thread
    /// timing or count. Each report is kept as a copy made on the calling
    /// thread, so a kept report pins no allocator arena of a finished
    /// worker thread. A solve that fails keeps nothing. Returns how many
    /// reports the call kept.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`, and re-raises a panic of any solve.
    pub fn warm_buffer_depths(&self, kind: AnalysisKind, depths: &[u32], threads: usize) -> usize {
        let free = self.by_depth.iter().filter(|slot| slot.get().is_none());
        let free = free.count();
        let mut todo: Vec<u32> = Vec::new();
        for &depth in depths {
            if todo.len() < free
                && !todo.contains(&depth)
                && self.kept_at_depth(kind, depth).is_none()
            {
                todo.push(depth);
            }
        }
        let unlimited = Budget::unlimited();
        let solved = par_map_indexed(todo.len(), threads, |i| {
            self.solve_at_buffer_depth(kind, todo[i], &unlimited).ok()
        });
        let mut kept = 0;
        for (&depth, report) in todo.iter().zip(solved) {
            if let Some(report) = report {
                kept += usize::from(self.keep(kind, depth, report.clone()));
            }
        }
        kept
    }

    /// Keeps `report` as `kind` at `depth` in the first free slot, unless a
    /// concurrent fill kept that depth first or the store is full. Returns
    /// whether this call kept it.
    fn keep(&self, kind: AnalysisKind, depth: u32, report: AnalysisReport) -> bool {
        let mut solved = Some(DepthReport {
            kind,
            depth,
            report,
        });
        for slot in &self.by_depth {
            let kept = slot.get_or_init(|| {
                metrics::BUFFER_DEPTH_FILLED.incr();
                solved.take().expect("a fill takes one slot")
            });
            if solved.is_none() {
                return true;
            }
            if (kept.kind, kept.depth) == (kind, depth) {
                return false;
            }
        }
        false
    }

    /// `kind` over this context's system with every router buffer resized
    /// to `depth` flits: the report [`AnalysisContext::warm_buffer_depths`]
    /// kept, or else a solve of the rebased system that keeps nothing.
    /// Either way bit-identical to `kind` analysed from scratch over
    /// `system().with_buffer_depth(depth)`, which also clears any
    /// per-router override.
    ///
    /// # Errors
    ///
    /// [`AnalysisError::DeadlineExceeded`] if `budget` is already exceeded,
    /// whatever is kept, as for every cached solve: an answer never depends
    /// on what happened to be kept. Otherwise, when nothing is kept, the
    /// conditions of [`AnalysisKind::analyze_with_budget`].
    pub fn analyze_at_buffer_depth(
        &self,
        kind: AnalysisKind,
        depth: u32,
        budget: &Budget,
    ) -> Result<AnalysisReport, AnalysisError> {
        self.check_budget(budget)?;
        if let Some(report) = self.kept_at_depth(kind, depth) {
            metrics::BUFFER_DEPTH_SERVED.incr();
            return Ok(report.clone());
        }
        metrics::BUFFER_DEPTH_UNKEPT.incr();
        self.solve_at_buffer_depth(kind, depth, budget)
    }

    fn solve_at_buffer_depth(
        &self,
        kind: AnalysisKind,
        depth: u32,
        budget: &Budget,
    ) -> Result<AnalysisReport, AnalysisError> {
        let target = self.system().with_buffer_depth(depth);
        kind.analyze_with_budget(&self.rebase(&target)?, budget)
    }

    /// The report [`AnalysisContext::warm_buffer_depths`] kept for `kind`
    /// at `depth`, if any.
    fn kept_at_depth(&self, kind: AnalysisKind, depth: u32) -> Option<&AnalysisReport> {
        self.by_depth
            .iter()
            .map_while(OnceLock::get)
            .find(|kept| (kept.kind, kept.depth) == (kind, depth))
            .map(|kept| &kept.report)
    }

    /// Fails as a solve under `budget` would at its first flow, counting a
    /// deadline hit, if `budget` is already exceeded: the check every
    /// budgeted answer makes before any work, so that an exceeded budget
    /// aborts even an answer that is kept or cached clean. An empty flow
    /// set never fails.
    pub(crate) fn check_budget(&self, budget: &Budget) -> Result<(), AnalysisError> {
        match self.priority_order().first() {
            Some(&first) if budget.is_exceeded() => {
                metrics::SOLVER_DEADLINE_HITS.incr();
                Err(AnalysisError::DeadlineExceeded {
                    flow: first,
                    iterations: 0,
                })
            }
            _ => Ok(()),
        }
    }

    /// Inserts `flow`, routed over `route`, at `id`, renumbering every flow
    /// at `id` or above one up, in place, carries every kept cache across
    /// and returns the flows whose interference sets changed: the exact
    /// inverse of [`AnalysisContext::retire_flow`]. The context is
    /// unchanged on error.
    pub(crate) fn insert_flow(
        &mut self,
        id: FlowId,
        flow: Flow,
        route: Route,
    ) -> Result<Vec<FlowId>, AnalysisError> {
        let system = self.system.to_mut();
        system.insert_flow(id, flow, route)?;
        let affected = match Arc::make_mut(&mut self.graph).add_flow(system, id) {
            Ok(affected) => affected,
            Err(e) => {
                system.remove_flow(id).expect("just inserted");
                return Err(e.into());
            }
        };
        self.zero_load
            .insert(id.index(), system.zero_load_latency(id));
        self.carry(FlowDelta::Inserted(id.index()), &affected);
        Ok(affected)
    }

    /// Retires the flow `id` in place, renumbering every larger id one
    /// down, carries every kept cache across and returns the flows whose
    /// interference sets changed, then the flow and its route, which
    /// [`AnalysisContext::insert_flow`] takes back. The context is
    /// unchanged on error.
    pub(crate) fn retire_flow(
        &mut self,
        id: FlowId,
    ) -> Result<(Vec<FlowId>, Flow, Route), AnalysisError> {
        let system = self.system.to_mut();
        let (flow, route) = system.remove_flow(id)?;
        let affected = Arc::make_mut(&mut self.graph).remove_flow(system, id);
        self.zero_load.remove(id.index());
        self.carry(FlowDelta::Removed(id.index()), &affected);
        Ok((affected, flow, route))
    }

    /// Carries every kept cache across `delta`, marking the `affected`
    /// flows, and drops the buffer-depth reports: they describe the flow
    /// set before it.
    fn carry(&mut self, delta: FlowDelta, affected: &[FlowId]) {
        for cache in self.caches.iter_mut().filter_map(OnceLock::get_mut) {
            SolveCache::carry(cache, &self.graph, delta, affected);
        }
        self.by_depth = Default::default();
    }

    /// Overrides (`Some`) or clears (`None`) the per-VC buffer depth of
    /// `router` in place and returns the override it replaced (see
    /// [`System::set_router_buffer_depth`]). Nothing derived depends on
    /// buffer depths, so only the system changes, and the buffer-depth
    /// reports are dropped; marking the solved caches is the caller's.
    pub(crate) fn set_router_depth(&mut self, router: RouterId, depth: Option<u32>) -> Option<u32> {
        self.by_depth = Default::default();
        self.system.to_mut().set_router_buffer_depth(router, depth)
    }

    /// The system this context was built for (or last rebased onto).
    pub fn system(&self) -> &System {
        &self.system
    }

    /// The precomputed interference graph (§III): direct sets and
    /// contention domains, from which it derives indirect sets and up/down
    /// partitions.
    pub fn graph(&self) -> &InterferenceGraph {
        &self.graph
    }

    /// Flow ids from highest priority to lowest — the order the fixed-point
    /// engine solves in, so every `Rⱼ` referenced by τᵢ is already final.
    pub fn priority_order(&self) -> &[FlowId] {
        self.graph.priority_order()
    }

    /// The zero-load latency Cᵢ (Equation 1) of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    pub fn zero_load(&self, id: FlowId) -> Cycles {
        self.zero_load[id.index()]
    }

    /// Number of flows covered.
    pub fn len(&self) -> usize {
        self.zero_load.len()
    }

    /// `true` for an empty flow set.
    pub fn is_empty(&self) -> bool {
        self.zero_load.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::Analysis;
    use noc_model::prelude::*;

    fn system(buffer: u32) -> System {
        let topology = Topology::mesh(4, 1);
        let mk = |src: u32, dst: u32, p: u32, t: u64| {
            Flow::builder(NodeId::new(src), NodeId::new(dst))
                .priority(Priority::new(p))
                .period(Cycles::new(t))
                .length_flits(8)
                .build()
        };
        let flows =
            FlowSet::new(vec![mk(0, 3, 1, 500), mk(1, 3, 2, 900), mk(2, 3, 3, 1_300)]).unwrap();
        let config = NocConfig::builder().buffer_depth(buffer).build();
        System::new(topology, config, flows, &XyRouting).unwrap()
    }

    #[test]
    fn context_matches_system_derivations() {
        let sys = system(2);
        let ctx = AnalysisContext::new(&sys).unwrap();
        assert_eq!(ctx.len(), 3);
        assert!(!ctx.is_empty());
        assert_eq!(ctx.priority_order(), sys.flows().ids_by_priority());
        for id in sys.flows().ids() {
            assert_eq!(ctx.zero_load(id), sys.zero_load_latency(id));
        }
        assert_eq!(
            ctx.graph().direct_set(FlowId::new(2)),
            &[FlowId::new(0), FlowId::new(1)]
        );
    }

    #[test]
    fn rebase_shares_graph_and_tracks_new_system() {
        let sys = system(2);
        let ctx = AnalysisContext::new(&sys).unwrap();
        let big = sys.with_buffer_depth(64);
        let rebased = ctx.rebase(&big).unwrap();
        assert_eq!(rebased.system().config().buffer_depth(), 64);
        // Same shared graph object.
        assert!(std::ptr::eq(ctx.graph(), rebased.graph()));
        // Period scaling also rebases; zero-load is recomputed (unchanged
        // here since lengths and latencies are preserved).
        let scaled = sys.with_scaled_periods(2, 1).unwrap();
        let rescaled = ctx.rebase(&scaled).unwrap();
        assert_eq!(
            rescaled.system().flow(FlowId::new(0)).period(),
            Cycles::new(1_000)
        );
        assert_eq!(
            rescaled.zero_load(FlowId::new(0)),
            ctx.zero_load(FlowId::new(0))
        );
    }

    #[test]
    fn rebase_rejects_structural_changes() {
        let sys = system(2);
        let ctx = AnalysisContext::new(&sys).unwrap();
        // A different topology/flow set must be rejected.
        let other = {
            let topology = Topology::mesh(4, 1);
            let flows = FlowSet::new(vec![Flow::builder(NodeId::new(3), NodeId::new(0))
                .priority(Priority::new(1))
                .period(Cycles::new(500))
                .length_flits(8)
                .build()])
            .unwrap();
            System::new(topology, NocConfig::default(), flows, &XyRouting).unwrap()
        };
        let err = ctx.rebase(&other).unwrap_err();
        assert!(matches!(err, AnalysisError::ContextMismatch { .. }));
        assert!(err.to_string().contains("flow count"));
    }

    /// Whether any kind's solved cache is kept.
    fn any_warm(ctx: &AnalysisContext<'_>) -> bool {
        AnalysisKind::ALL
            .iter()
            .any(|&k| ctx.cached(k.index()).is_some())
    }

    /// A kept cache answers for its context's system: rebasing starts
    /// empty, a fork shares the base's caches, and every delta carries
    /// them to the new system, marked where their inputs changed, so that
    /// the next solve through them answers for it.
    #[test]
    fn warm_caches_never_outlive_their_system() {
        let ibn = AnalysisKind::BufferAware;
        let unlimited = Budget::unlimited();
        let sys = noc_workload::didactic::system(2);
        let base = AnalysisContext::new(&sys).unwrap();
        assert!(!any_warm(&base));
        base.warm(ibn, &unlimited).unwrap();
        assert!(base.cached(ibn.index()).is_some());
        assert!(base.cached(AnalysisKind::Xlwx.index()).is_none());

        // Rebasing starts empty, and forking shares the base's caches …
        let deeper = sys.with_buffer_depth(10);
        let rebased = base.rebase(&deeper).unwrap();
        assert!(!any_warm(&rebased));
        let fork = AnalysisContext::from_context(&base);
        let shared = fork.cached(ibn.index()).unwrap();
        assert!(Arc::ptr_eq(shared, base.cached(ibn.index()).unwrap()));

        // … and a rebased context answers for its own depth, never from
        // the base's cache: the didactic τ₃ bound grows from 348 to 396.
        let mut at_ten = AnalysisContext::from_context(&rebased);
        let shallow = ibn.analyze_with_budget(&base, &unlimited).unwrap();
        let deep = at_ten.analyze(ibn).unwrap();
        assert_eq!(deep, ibn.analyze_with_budget(&rebased, &unlimited).unwrap());
        assert_ne!(deep, shallow);

        // Every delta carries what the context kept and marks it, except
        // that a resize leaves the conservative bound, which reads no
        // buffer depth, as it was (router 2 is entered by a domain).
        let mut owned = AnalysisContext::owned(system(2)).unwrap();
        owned.warm(ibn, &unlimited).unwrap();
        owned.warm_conservative();
        let bound = Arc::clone(owned.cached(CONSERVATIVE).unwrap());
        owned.resize_buffer(RouterId::new(2), 4);
        assert!(!owned.cached(ibn.index()).unwrap().is_clean());
        assert!(Arc::ptr_eq(owned.cached(CONSERVATIVE).unwrap(), &bound));
        answers_for_its_system(&mut owned);
        let extra = Flow::builder(NodeId::new(0), NodeId::new(2))
            .priority(Priority::new(4))
            .period(Cycles::new(2_000))
            .length_flits(4)
            .build();
        owned.add_flow(extra, &XyRouting).unwrap();
        assert!(!owned.cached(ibn.index()).unwrap().is_clean());
        assert!(!owned.cached(CONSERVATIVE).unwrap().is_clean());
        answers_for_its_system(&mut owned);
        owned.remove_flow(FlowId::new(0)).unwrap();
        assert!(!owned.cached(ibn.index()).unwrap().is_clean());
        assert!(!owned.cached(CONSERVATIVE).unwrap().is_clean());
        answers_for_its_system(&mut owned);
    }

    /// The buffer-aware and conservative solves through `ctx`'s kept
    /// caches equal a fresh context's, and leave the caches clean.
    fn answers_for_its_system(ctx: &mut AnalysisContext<'_>) {
        use crate::conservative::conservative_with;
        let ibn = AnalysisKind::BufferAware;
        let sys = ctx.system().clone();
        let scratch = AnalysisContext::new(&sys).unwrap();
        let expected = ibn.analyze_with_budget(&scratch, &Budget::unlimited());
        assert_eq!(ctx.analyze(ibn).unwrap(), expected.unwrap());
        assert_eq!(ctx.conservative_report(), conservative_with(&scratch));
        for index in [ibn.index(), CONSERVATIVE] {
            assert!(ctx.cached(index).unwrap().is_clean());
        }
    }

    /// A context warmed and then mutated through the public API holds
    /// carried caches whose marks are pending until its next `&mut`
    /// solve. Every `&self` reader still answers for the current system,
    /// from scratch: the conservative bound, the bound over a rebased
    /// context, a fork of the context after a warm, and the plain
    /// analyses. Serving the marked conservative cache as it stood
    /// returned stale bounds for 4 of the 19 flows left after the first
    /// removal here.
    #[test]
    fn a_mutated_context_serves_no_stale_verdict() {
        let spec = noc_workload::synthetic::SyntheticSpec::paper(4, 4, 20, 2);
        let sys = spec.generate(3).into_system();
        let mut ctx = AnalysisContext::new(&sys).unwrap();
        for kind in AnalysisKind::ALL {
            ctx.warm(kind, &Budget::unlimited()).unwrap();
        }
        ctx.warm_conservative();
        ctx.remove_flow(FlowId::new(0)).unwrap();
        serves_its_system(&ctx, "removal");
        ctx.resize_buffer(RouterId::new(5), 7);
        serves_its_system(&ctx, "resize");
        let template = sys.flow(FlowId::new(3)).clone();
        let lowest = sys.flows().iter().map(|(_, f)| f.priority().level());
        let candidate = Flow::builder(template.source(), template.dest())
            .priority(Priority::new(lowest.max().unwrap() + 1))
            .period(template.period())
            .length_flits(24)
            .build();
        ctx.add_flow(candidate, &XyRouting).unwrap();
        serves_its_system(&ctx, "addition");
    }

    /// Every `&self` reader of `ctx` equals a fresh context over its system,
    /// and the conservative one leaves the kept, still marked, bound as it
    /// was.
    fn serves_its_system(ctx: &AnalysisContext<'_>, label: &str) {
        use crate::conservative::conservative_with;
        let unlimited = Budget::unlimited();
        let sys = ctx.system().clone();
        let scratch = AnalysisContext::new(&sys).unwrap();
        let bound = conservative_with(&scratch);
        let kept = Arc::clone(ctx.cached(CONSERVATIVE).unwrap());
        assert!(!kept.is_clean(), "{label}: the kept bound is marked");
        assert_eq!(conservative_with(ctx), bound, "{label}: conservative");
        assert!(Arc::ptr_eq(ctx.cached(CONSERVATIVE).unwrap(), &kept));
        let target = sys.with_router_buffer_depth(RouterId::new(1), 7);
        let rebased = ctx.rebase(&target).unwrap();
        assert_eq!(conservative_with(&rebased), bound, "{label}: rebased");
        for kind in AnalysisKind::ALL {
            let expected = kind.analyze_with(&scratch).unwrap();
            let label = format!("{label}, {}", kind.name());
            assert_eq!(kind.analyze_with(ctx).unwrap(), expected, "{label}");
            ctx.warm(kind, &unlimited).unwrap();
            let mut fork = AnalysisContext::from_context(ctx);
            assert_eq!(fork.analyze(kind).unwrap(), expected, "{label}: fork");
        }
    }

    /// The from-scratch bound neither reads nor fills the context's table.
    #[test]
    fn conservative_with_keeps_nothing() {
        use crate::conservative::conservative_with;
        let sys = noc_workload::didactic::system(2);
        let ctx = AnalysisContext::new(&sys).unwrap();
        let first = conservative_with(&ctx);
        assert!(ctx.cached(CONSERVATIVE).is_none());
        assert_eq!(conservative_with(&ctx), first);
        assert!(ctx.cached(CONSERVATIVE).is_none());
    }

    /// A rebase keeps no cache, whatever the base kept and whatever
    /// changed, and the bound over it answers for its own system: the same
    /// as the base's across buffer changes, which the bound does not read,
    /// and a different one after a period rescale.
    #[test]
    fn a_rebase_keeps_no_cache() {
        use crate::conservative::conservative_with;
        let sys = noc_workload::didactic::system(2);
        let base = AnalysisContext::new(&sys).unwrap();
        base.warm(AnalysisKind::BufferAware, &Budget::unlimited())
            .unwrap();
        base.warm_conservative();
        let warmed = conservative_with(&base);
        let keeps_none = |ctx: &AnalysisContext<'_>| ctx.caches.iter().all(|s| s.get().is_none());
        for target in [
            sys.with_buffer_depth(10),
            sys.with_router_buffer_depth(RouterId::new(1), 7),
        ] {
            let rebased = base.rebase(&target).unwrap();
            assert!(keeps_none(&rebased));
            assert_eq!(conservative_with(&rebased), warmed);
            let scratch = AnalysisContext::new(&target).unwrap();
            assert_eq!(conservative_with(&scratch), warmed);
        }
        let faster = sys.with_scaled_periods(1, 4).unwrap();
        let rebased = base.rebase(&faster).unwrap();
        assert!(keeps_none(&rebased));
        let report = conservative_with(&rebased);
        let scratch = AnalysisContext::new(&faster).unwrap();
        assert_eq!(report, conservative_with(&scratch));
        assert_ne!(report, warmed);
    }

    /// Whether any buffer-depth report is kept (the slots fill in order).
    fn any_depth_kept(ctx: &AnalysisContext<'_>) -> bool {
        ctx.by_depth[0].get().is_some()
    }

    #[test]
    fn kept_depth_reports_never_outlive_their_system() {
        let ibn = AnalysisKind::BufferAware;
        let sys = noc_workload::didactic::system(2);
        let base = AnalysisContext::new(&sys).unwrap();
        assert_eq!(base.warm_buffer_depths(ibn, &[10], 1), 1);
        assert_eq!(base.warm_buffer_depths(ibn, &[10], 1), 0);
        assert!(base.kept_at_depth(ibn, 10).is_some());
        assert!(base.by_depth[1].get().is_none(), "a re-fill takes no slot");
        assert!(base.kept_at_depth(ibn, 2).is_none());
        assert!(base.kept_at_depth(AnalysisKind::Xlwx, 10).is_none());

        // Rebasing and forking start empty.
        let deeper = sys.with_buffer_depth(10);
        assert!(!any_depth_kept(&base.rebase(&deeper).unwrap()));
        assert!(!any_depth_kept(&AnalysisContext::from_context(&base)));

        // Every delta drops the store.
        let mut owned = AnalysisContext::owned(system(2)).unwrap();
        let fill = |ctx: &AnalysisContext<'_>| {
            assert_eq!(ctx.warm_buffer_depths(ibn, &[6], 1), 1);
            assert!(any_depth_kept(ctx));
        };
        fill(&owned);
        owned.resize_buffer(RouterId::new(0), 4);
        assert!(!any_depth_kept(&owned));
        fill(&owned);
        let extra = Flow::builder(NodeId::new(0), NodeId::new(2))
            .priority(Priority::new(4))
            .period(Cycles::new(2_000))
            .length_flits(4)
            .build();
        owned.add_flow(extra, &XyRouting).unwrap();
        assert!(!any_depth_kept(&owned));
        fill(&owned);
        owned.remove_flow(FlowId::new(0)).unwrap();
        assert!(!any_depth_kept(&owned));
    }

    /// A kept report is the budgeted solve over the rebased context, bit
    /// for bit, for every kind, and the store tells depths apart: the
    /// didactic τ₃ bound is 348 at depth 2 and 396 at depth 10.
    #[test]
    fn a_kept_depth_report_is_the_rebased_solve() {
        let unlimited = Budget::unlimited();
        let sys = noc_workload::didactic::system(2);
        let base = AnalysisContext::new(&sys).unwrap();
        for kind in AnalysisKind::ALL {
            for depth in [2, 10, 100] {
                base.warm_buffer_depths(kind, &[depth], 1);
                let target = sys.with_buffer_depth(depth);
                let rebased = base.rebase(&target).unwrap();
                let solved = kind.analyze_with_budget(&rebased, &unlimited).unwrap();
                assert_eq!(base.kept_at_depth(kind, depth), Some(&solved));
                let answered = base.analyze_at_buffer_depth(kind, depth, &unlimited);
                assert_eq!(answered.unwrap(), solved, "{} at {depth}", kind.name());
            }
        }
        let ibn = AnalysisKind::BufferAware;
        let tau3 = |depth| {
            base.kept_at_depth(ibn, depth)
                .unwrap()
                .response_time(FlowId::new(2))
        };
        assert_eq!(tau3(2), Some(Cycles::new(348)));
        assert_eq!(tau3(10), Some(Cycles::new(396)));
    }

    /// A fill whose solve fails keeps nothing: XLWX cannot converge on a
    /// link that a higher-priority flow saturates, at any depth.
    #[test]
    fn a_failed_buffer_depth_fill_keeps_nothing() {
        let mk = |src: u32, p: u32, t: u64, flits: u32| {
            Flow::builder(NodeId::new(src), NodeId::new(2))
                .priority(Priority::new(p))
                .period(Cycles::new(t))
                .length_flits(flits)
                .build()
        };
        let flows = FlowSet::new(vec![mk(0, 1, 19, 16), mk(1, 2, 10_000_000_000, 32)]).unwrap();
        let saturated = System::new(
            Topology::mesh(3, 1),
            NocConfig::default(),
            flows,
            &XyRouting,
        )
        .unwrap();
        let ctx = AnalysisContext::new(&saturated).unwrap();
        assert_eq!(ctx.warm_buffer_depths(AnalysisKind::Xlwx, &[8, 9], 2), 0);
        assert!(!any_depth_kept(&ctx));

        // A spent budget fails an answer even once its depth is kept.
        let ibn = AnalysisKind::BufferAware;
        let sys = system(2);
        let ctx = AnalysisContext::new(&sys).unwrap();
        let expired = Budget::with_deadline(std::time::Duration::ZERO);
        let cancelled = Budget::unlimited();
        cancelled.cancel();
        assert_eq!(ctx.warm_buffer_depths(ibn, &[8], 1), 1);
        for spent in [&expired, &cancelled] {
            assert!(matches!(
                ctx.analyze_at_buffer_depth(ibn, 8, spent),
                Err(AnalysisError::DeadlineExceeded { iterations: 0, .. })
            ));
        }
    }

    /// Past the cap a depth is solved and not kept, and its answer is as
    /// exact as a kept one's.
    #[test]
    fn a_full_store_keeps_nothing_more() {
        let ibn = AnalysisKind::BufferAware;
        let unlimited = Budget::unlimited();
        let sys = system(2);
        let ctx = AnalysisContext::new(&sys).unwrap();
        let past = 2 + KEPT_BUFFER_DEPTHS as u32;
        for depth in 2..past {
            assert_eq!(ctx.warm_buffer_depths(ibn, &[depth], 1), 1);
        }
        assert!(ctx.by_depth.iter().all(|slot| slot.get().is_some()));
        assert_eq!(ctx.warm_buffer_depths(ibn, &[past], 1), 0);
        assert!(ctx.kept_at_depth(ibn, past).is_none());
        for depth in 2..=past {
            let scratch = ibn.analyze(&sys.with_buffer_depth(depth)).unwrap();
            assert_eq!(
                ctx.analyze_at_buffer_depth(ibn, depth, &unlimited).unwrap(),
                scratch
            );
        }
    }

    /// A batched fill keeps the first free depths not yet kept, whatever
    /// the thread count: the same slots, each the rebased solve.
    #[test]
    fn a_batched_fill_keeps_the_first_free_depths() {
        let ibn = AnalysisKind::BufferAware;
        let unlimited = Budget::unlimited();
        let sys = system(2);
        // Two depths more than the cap, repeats and an already-kept one.
        let mut depths: Vec<u32> = (2..4 + KEPT_BUFFER_DEPTHS as u32).collect();
        depths.splice(3..3, [2, 5, 2]);
        let layouts: Vec<Vec<(AnalysisKind, u32)>> = [1, 3, 4]
            .into_iter()
            .map(|threads| {
                let ctx = AnalysisContext::new(&sys).unwrap();
                ctx.warm_buffer_depths(ibn, &[3], 1);
                let kept = ctx.warm_buffer_depths(ibn, &depths, threads);
                assert_eq!(kept, KEPT_BUFFER_DEPTHS - 1, "{threads} threads");
                assert_eq!(ctx.warm_buffer_depths(ibn, &depths, threads), 0);
                for depth in 2..2 + KEPT_BUFFER_DEPTHS as u32 {
                    let target = sys.with_buffer_depth(depth);
                    let rebased = ctx.rebase(&target).unwrap();
                    let solved = ibn.analyze_with_budget(&rebased, &unlimited).unwrap();
                    assert_eq!(ctx.kept_at_depth(ibn, depth), Some(&solved));
                }
                for past in [2 + KEPT_BUFFER_DEPTHS as u32, 3 + KEPT_BUFFER_DEPTHS as u32] {
                    assert!(ctx.kept_at_depth(ibn, past).is_none());
                }
                let slots = ctx.by_depth.iter().map(|slot| slot.get().unwrap());
                slots.map(|kept| (kept.kind, kept.depth)).collect()
            })
            .collect();
        assert!(layouts.windows(2).all(|pair| pair[0] == pair[1]));
    }

    /// Concurrent fills keep each depth once, whatever the interleaving:
    /// every filler scans the slots from the first. The fillers start
    /// together, so most runs race on the first slot.
    #[test]
    fn concurrent_fills_keep_each_depth_once() {
        let ibn = AnalysisKind::BufferAware;
        let sys = system(2);
        let ctx = AnalysisContext::new(&sys).unwrap();
        let depths = [3, 4, 3, 4, 3, 4];
        let start = std::sync::Barrier::new(depths.len());
        std::thread::scope(|scope| {
            for depth in depths {
                let (ctx, start) = (&ctx, &start);
                scope.spawn(move || {
                    start.wait();
                    ctx.warm_buffer_depths(ibn, &[depth], 1)
                });
            }
        });
        let kept = ctx.by_depth.iter().filter(|slot| slot.get().is_some());
        assert_eq!(kept.count(), 2);
        assert!(ctx.kept_at_depth(ibn, 3).is_some() && ctx.kept_at_depth(ibn, 4).is_some());
    }

    #[test]
    fn a_failed_warm_keeps_nothing() {
        let ibn = AnalysisKind::BufferAware;
        let sys = system(2);
        let ctx = AnalysisContext::new(&sys).unwrap();
        let expired = Budget::with_deadline(std::time::Duration::ZERO);
        assert!(matches!(
            ctx.warm(ibn, &expired),
            Err(AnalysisError::DeadlineExceeded { .. })
        ));
        let cancelled = Budget::unlimited();
        cancelled.cancel();
        assert!(ctx.warm(ibn, &cancelled).is_err());
        assert!(!any_warm(&ctx));
        // A later warm with budget to spare fills the lock, and the kept
        // cache reproduces the full solve.
        ctx.warm(ibn, &Budget::unlimited()).unwrap();
        let mut fork = AnalysisContext::from_context(&ctx);
        assert_eq!(
            fork.analyze(ibn).unwrap(),
            ibn.analyze_with_budget(&ctx, &Budget::unlimited()).unwrap()
        );
    }
}

//! The delta half of [`AnalysisContext`], for admission-control workloads.
//!
//! A context is the right tool when the flow set is fixed: build once,
//! analyse many times. Admission control inverts that pattern — the flow
//! set itself changes (a flow asks to join, a flow retires) and after every
//! change the *whole* system must be re-certified. Rebuilding the
//! interference graph and re-solving every flow per change wastes nearly
//! all of that work: a single flow only touches the interference
//! neighbourhood its route overlaps. So a context also changes in place,
//! and keeps the solve caches of its table across each change:
//!
//! * [`AnalysisContext::add_flow`] / [`AnalysisContext::remove_flow`]
//!   update the context's [`InterferenceGraph`] through its delta methods
//!   ([`InterferenceGraph::add_flow`] / [`InterferenceGraph::remove_flow`]),
//!   which recompute only the affected neighbourhood and report exactly
//!   which flows' interference sets changed;
//! * those flows are marked dirty in every kept cache; the next
//!   [`AnalysisContext::analyze`] walks the priority order and re-solves
//!   a flow iff it is marked or a member of its `S^D` — all strictly
//!   higher priority — changed its verdict (which records its `R`) or
//!   `Idown` slots in this pass. Every other flow keeps its cached
//!   result, so the re-solve stops where results stop changing. Under
//!   XLWX and IBN a re-solved flow also keeps the edge terms whose inputs
//!   did not change, and recomputes only the others. A cache that no
//!   delta marked is read back as it stands, without the copy a cache
//!   shared with the base would otherwise need;
//! * [`AnalysisContext::conservative_report`] runs the conservative
//!   bound through the same loop with every `R` fixed at its deadline, so
//!   it re-evaluates only what the deltas reach; buffer resizes mark
//!   nothing in its cache (see [`crate::conservative`]);
//! * [`AnalysisContext::what_if`] scopes a hypothetical: the deltas
//!   made inside it are journaled and undone on exit by their exact
//!   inverses, and the solve caches are handed back as they were on entry,
//!   so nothing is re-solved for the rollback.
//!
//! The deltas work in place: an addition or removal moves O(n) ids and
//! copies no other flow, route or interference set, and a resize
//! touches one router. A fork ([`AnalysisContext::from_context`]) copies
//! the shared graph on its first addition or removal; a resize never
//! touches the graph.
//!
//! The result is bit-identical to a from-scratch
//! [`AnalysisContext::new`] + solve —
//! pinned by the `incremental_equivalence` integration test — at a small
//! fraction of the cost when changes are local.
//!
//! ```
//! use noc_model::prelude::*;
//! use noc_analysis::prelude::*;
//!
//! # let topology = Topology::mesh(3, 1);
//! # let flows = FlowSet::new(vec![Flow::builder(NodeId::new(0), NodeId::new(2))
//! #     .priority(Priority::new(1)).period(Cycles::new(1_000)).length_flits(16).build()])?;
//! # let system = System::new(topology, NocConfig::default(), flows, &XyRouting)?;
//! let mut ctx = AnalysisContext::owned(system)?;
//! let before = ctx.analyze(AnalysisKind::BufferAware)?;
//!
//! // Admission what-if: add the candidate and re-analyse; the scope
//! // rolls the addition back on exit.
//! let candidate = Flow::builder(NodeId::new(1), NodeId::new(2))
//!     .priority(Priority::new(2))
//!     .period(Cycles::new(2_000))
//!     .length_flits(8)
//!     .build();
//! let admitted = ctx.what_if(|ctx| {
//!     ctx.add_flow(candidate, &XyRouting)?;
//!     Ok::<_, AnalysisError>(ctx.analyze(AnalysisKind::BufferAware)?.is_schedulable())
//! })?;
//! assert_eq!(ctx.len(), 1);
//! assert_eq!(ctx.analyze(AnalysisKind::BufferAware)?, before);
//! # assert!(admitted);
//! # Ok::<(), noc_analysis::error::AnalysisError>(())
//! ```
//!
//! [`InterferenceGraph`]: noc_model::contention::InterferenceGraph
//! [`InterferenceGraph::add_flow`]: noc_model::contention::InterferenceGraph::add_flow
//! [`InterferenceGraph::remove_flow`]: noc_model::contention::InterferenceGraph::remove_flow

use std::sync::{Arc, OnceLock};

use noc_model::flow::Flow;
use noc_model::ids::{FlowId, RouterId};
use noc_model::route::Route;
use noc_model::routing::RoutingAlgorithm;

use crate::analysis::AnalysisKind;
use crate::budget::Budget;
use crate::context::{AnalysisContext, CONSERVATIVE};
use crate::engine::{SolveCache, Solver};
use crate::error::AnalysisError;
use crate::metrics;
use crate::report::AnalysisReport;

/// An owned [`AnalysisContext`], the form an admission controller keeps,
/// under the name callers of the incremental API still use; new code
/// names [`AnalysisContext`].
pub type IncrementalContext = AnalysisContext<'static>;

/// The exact inverse of one delta made inside an
/// [`AnalysisContext::what_if`] scope.
#[derive(Debug, Clone)]
pub(crate) enum Undo {
    /// Remove the flow an addition appended.
    Added(FlowId),
    /// Insert a removed flow back at its own id, with its own route.
    Removed {
        id: FlowId,
        flow: Flow,
        route: Route,
    },
    /// Give a resized router back its previous override, or none.
    Resized {
        router: RouterId,
        previous: Option<u32>,
    },
}

impl<'sys> AnalysisContext<'sys> {
    /// Admits `flow`, routed by `routing`, and returns its new dense id.
    ///
    /// Only the interference neighbourhood the new route overlaps is
    /// recomputed, and only the flows in it are marked for re-solving.
    /// A borrowed system is copied first.
    ///
    /// # Errors
    ///
    /// Propagates routing and validation failures from
    /// [`System::add_flow`] and contiguity violations from
    /// [`InterferenceGraph::add_flow`]; the context is unchanged on error.
    ///
    /// [`System::add_flow`]: noc_model::system::System::add_flow
    /// [`InterferenceGraph::add_flow`]: noc_model::contention::InterferenceGraph::add_flow
    pub fn add_flow(
        &mut self,
        flow: Flow,
        routing: &dyn RoutingAlgorithm,
    ) -> Result<FlowId, AnalysisError> {
        let route = routing.route(self.system().topology(), flow.source(), flow.dest())?;
        let id = FlowId::new(self.len() as u32);
        let affected = self.insert_flow(id, flow, route)?;
        record_delta(&affected);
        self.log(Undo::Added(id));
        Ok(id)
    }

    /// Retires the flow `id`, renumbering every larger id one down.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::Model`] if `id` is out of bounds; the
    /// context is unchanged in that case.
    pub fn remove_flow(&mut self, id: FlowId) -> Result<(), AnalysisError> {
        let (affected, flow, route) = self.retire_flow(id)?;
        record_delta(&affected);
        self.log(Undo::Removed { id, flow, route });
        Ok(())
    }

    /// Resizes the per-VC buffers of `router` to `depth` flits.
    ///
    /// Routes, flows, zero-load latencies and the interference graph are
    /// all unaffected by buffer depths, so the only state invalidated is
    /// the buffer-aware analysis cache — and within it only the flows that
    /// actually read the resized router's depth: a solve of τᵢ reads
    /// `buf(ξ)` exclusively through its own Equation 6 terms `bi(i, j)`
    /// over `j ∈ S^D_i`. A deeper victim's `bi` reaches τᵢ only through
    /// the `Idown` slots of that victim's block, which its own re-solve
    /// rewrites. So marking every *victim* `x` whose `cd(x, y)` contains a
    /// link into `router` suffices: the cached solve re-solves the marked
    /// flows and, down the priority order, every flow one of whose direct
    /// interferers then changed its bound or slots. The victims are marked
    /// *buffer-only* and the router is recorded in the cache, so a victim
    /// whose inputs are otherwise unchanged recomputes only the edges
    /// whose domain enters a resized router. Bit-identity to a
    /// from-scratch solve is pinned by `tests/incremental_equivalence.rs`.
    /// The conservative bound reads no buffer depth, so its cache is not
    /// marked either.
    ///
    /// # Panics
    ///
    /// Panics if `router` is out of bounds or `depth` is zero (mirroring
    /// [`System::with_router_buffer_depth`]); serving layers validate
    /// queries before applying them.
    ///
    /// [`System::with_router_buffer_depth`]: noc_model::system::System::with_router_buffer_depth
    pub fn resize_buffer(&mut self, router: RouterId, depth: u32) {
        let affected = self.buffer_dependents(router);
        let previous = self.set_router_depth(router, Some(depth));
        if let Some(cache) = self.caches[AnalysisKind::BufferAware.index()].get_mut() {
            Arc::make_mut(cache).mark_resized(&affected, router);
        }
        record_delta(&affected);
        self.log(Undo::Resized { router, previous });
    }

    /// Journals `undo` if a [`AnalysisContext::what_if`] scope is open.
    fn log(&mut self, undo: Undo) {
        if let Some(journal) = &mut self.journal {
            journal.push(undo);
        }
    }

    /// Runs `f` on this context as a what-if and returns its result, with
    /// the context put back exactly as it was on entry.
    ///
    /// Every flow addition, removal and buffer resize `f` makes is
    /// journaled, and on exit each is undone by its exact inverse, newest
    /// first: an added flow is removed, a removed flow goes back in at its
    /// own id with its own route, and a resized router gets its previous
    /// override back. The system, its [`BufferMap`] and the interference
    /// graph then compare equal to their entry state, so flow ids are
    /// stable across scopes (a borrowed system stays a copy). The table
    /// of solve caches and the buffer-depth reports are handed back as
    /// held on entry: the copies the scope's deltas and solves made of
    /// them are dropped before the inverses run, so no rollback carries a
    /// cache and none is re-solved or re-evaluated, and a cache first laid
    /// out inside the scope is dropped with it. A context that serves
    /// every query in a scope should therefore hold its caches before the
    /// first one (a [warmed](AnalysisContext::warm) base shares them with
    /// its forks).
    ///
    /// Scopes nest: an inner scope undoes only its own deltas. If `f`
    /// panics, the context is left mid-scope and should be dropped.
    ///
    /// [`BufferMap`]: noc_model::config::BufferMap
    pub fn what_if<T>(&mut self, f: impl FnOnce(&mut AnalysisContext<'sys>) -> T) -> T {
        let (caches, by_depth) = (self.caches.clone(), self.by_depth.clone());
        let outer = self.journal.replace(Vec::new());
        let out = f(self);
        let journal = std::mem::replace(&mut self.journal, outer);
        self.caches = Default::default();
        for undo in journal.expect("the scope's journal").into_iter().rev() {
            match undo {
                Undo::Added(id) => {
                    self.retire_flow(id).expect("an added flow stays");
                }
                Undo::Removed { id, flow, route } => {
                    let back = self.insert_flow(id, flow, route);
                    back.expect("a removed flow fits back where it was");
                }
                Undo::Resized { router, previous } => {
                    self.set_router_depth(router, previous);
                }
            }
        }
        (self.caches, self.by_depth) = (caches, by_depth);
        out
    }

    /// Flows whose buffer-aware bound reads the depth of `router`: the
    /// victims of direct interference pairs whose contention domain
    /// contains a link into it, in ascending id order. Read off the graph's
    /// link-overlap table for the router's input links, so the cost is
    /// proportional to the flows routed through them.
    fn buffer_dependents(&self, router: RouterId) -> Vec<FlowId> {
        let graph = self.graph();
        let mut out: Vec<FlowId> = self
            .system()
            .topology()
            .input_links(router)
            .iter()
            .flat_map(|&link| graph.victims_on_link(link))
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Runs `kind` over the current flow set, re-solving only the flows
    /// whose inputs changed since this kind last ran: the flows a delta
    /// marked, and below them only the flows whose direct interferers
    /// changed their results in this pass.
    ///
    /// Bit-identical to `kind` analysed from scratch over
    /// [`AnalysisContext::system`]; the same call as
    /// [`AnalysisContext::analyze_with_budget`] under an
    /// [`unlimited`](Budget::unlimited) budget.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::ConvergenceCap`] if a re-solved flow's
    /// fixed-point iteration exhausts the solver's safety cap; this kind's
    /// cache is then marked all-dirty, so a later call (after the offending
    /// flow is removed) recovers with a full solve.
    pub fn analyze(&mut self, kind: AnalysisKind) -> Result<AnalysisReport, AnalysisError> {
        self.analyze_with_budget(kind, &Budget::unlimited())
    }

    /// [`AnalysisContext::analyze`] under a cooperative [`Budget`]: the
    /// solver polls the budget and aborts once it is exceeded, so serving
    /// layers can bound the wall-clock cost of a single query.
    ///
    /// # Errors
    ///
    /// [`AnalysisError::DeadlineExceeded`] when the budget expires
    /// mid-solve, or is already exceeded at the call, plus the conditions
    /// of [`AnalysisContext::analyze`]. An error raised mid-solve marks
    /// this kind's cache all-dirty, so a later call (with a fresh budget)
    /// recovers with a full solve — pinned by the `incremental_equivalence`
    /// integration test; a budget already exceeded fails before the cache
    /// is touched, or laid out.
    pub fn analyze_with_budget(
        &mut self,
        kind: AnalysisKind,
        budget: &Budget,
    ) -> Result<AnalysisReport, AnalysisError> {
        // Before the cache: a spent budget lays out or copies nothing.
        self.check_budget(budget)?;
        self.solve_through(kind.index(), |ctx, cache| {
            Solver::new(ctx, kind.spec(), budget).solve_cached(cache)
        })
    }

    /// The cheap, non-iterative conservative bound over the current flow
    /// set — the degraded-mode answer when
    /// [`AnalysisContext::analyze_with_budget`] runs out of budget (see
    /// [`crate::conservative`] for the bound and its soundness argument).
    ///
    /// Total (never fails) and bit-identical to
    /// [`conservative_with`](crate::conservative::conservative_with), which
    /// evaluates from scratch. It runs through its own solve cache, by the
    /// cached read set of [`crate::conservative`]: a flow is re-evaluated
    /// iff a flow addition or removal marked it or a direct interferer
    /// changed its slots or verdict in this pass. Buffer resizes mark
    /// nothing, so a cache with no pending addition or removal is read back
    /// without a copy, and the five kinds' caches are neither read nor
    /// touched. The cache is [kept](AnalysisContext::warm_conservative)
    /// already, or laid out by the first call.
    pub fn conservative_report(&mut self) -> AnalysisReport {
        metrics::CONSERVATIVE_SOLVES.incr();
        self.solve_through(CONSERVATIVE, crate::conservative::evaluate)
    }

    /// Runs `solve` over this context and the cache at `index`, laid out
    /// all-dirty if absent. The slot's handle is taken out for the solve
    /// and put back after it, poisoned if the solve failed, so the solve
    /// updates a cache this context alone holds in place, reads a clean
    /// one back without a copy, and copies a shared one that it must
    /// update ([`Solver::solve_cached`]).
    fn solve_through<T>(
        &mut self,
        index: usize,
        solve: impl FnOnce(&Self, &mut Arc<SolveCache>) -> T,
    ) -> T {
        let mut cache = self.caches[index]
            .take()
            .unwrap_or_else(|| Arc::new(SolveCache::all_dirty(self.len())));
        let out = solve(self, &mut cache);
        self.caches[index] = OnceLock::from(cache);
        out
    }
}

/// Counts one delta and the flows it marked.
fn record_delta(affected: &[FlowId]) {
    metrics::INCREMENTAL_DELTAS.incr();
    metrics::INCREMENTAL_FLOWS_DIRTIED.add(affected.len() as u64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{Analysis, BufferAware};
    use crate::engine::DownstreamModel;
    use crate::report::{FlowExplanation, FlowVerdict};
    use noc_model::prelude::*;

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

    const SPECS: [(u32, u32, u32, u64); 6] = [
        (0, 15, 1, 1000),
        (4, 7, 2, 1500),
        (12, 3, 3, 2000),
        (1, 13, 4, 2500),
        (5, 6, 5, 3000),
        (0, 10, 6, 3500),
    ];

    /// Every kind's incremental report must equal the from-scratch trait
    /// path over the same system.
    fn assert_matches_scratch(ctx: &mut AnalysisContext<'_>) {
        let sys = ctx.system().clone();
        let scratch = AnalysisContext::new(&sys).unwrap();
        for (kind, analysis) in AnalysisKind::ALL
            .iter()
            .zip(crate::analysis::all_analyses())
        {
            let expected = analysis.analyze_with(&scratch).unwrap();
            assert_eq!(ctx.analyze(*kind).unwrap(), expected, "{}", kind.name());
        }
    }

    #[test]
    fn kind_names_match_trait_names() {
        for (kind, analysis) in AnalysisKind::ALL
            .iter()
            .zip(crate::analysis::all_analyses())
        {
            assert_eq!(kind.name(), analysis.name());
        }
    }

    #[test]
    fn additions_match_from_scratch_solves() {
        let mut ctx = AnalysisContext::owned(mesh_system(&SPECS[..1])).unwrap();
        for &spec in &SPECS[1..] {
            let id = ctx.add_flow(mesh_flow(spec), &XyRouting).unwrap();
            assert_eq!(id.index() + 1, ctx.len());
            assert_matches_scratch(&mut ctx);
        }
    }

    #[test]
    fn removals_match_from_scratch_solves() {
        let mut ctx = AnalysisContext::owned(mesh_system(&SPECS)).unwrap();
        for victim in [2u32, 0, 2] {
            ctx.remove_flow(FlowId::new(victim)).unwrap();
            assert_matches_scratch(&mut ctx);
        }
    }

    #[test]
    fn admission_roundtrip_restores_reports() {
        let mut ctx = AnalysisContext::owned(mesh_system(&SPECS[..4])).unwrap();
        let before: Vec<AnalysisReport> = AnalysisKind::ALL
            .iter()
            .map(|&k| ctx.analyze(k).unwrap())
            .collect();
        let id = ctx.add_flow(mesh_flow(SPECS[4]), &XyRouting).unwrap();
        let _ = ctx.analyze(AnalysisKind::BufferAware).unwrap();
        ctx.remove_flow(id).unwrap();
        for (&kind, report) in AnalysisKind::ALL.iter().zip(&before) {
            assert_eq!(&ctx.analyze(kind).unwrap(), report, "{}", kind.name());
        }
    }

    #[test]
    fn additions_and_removals_take_dense_ids() {
        let mut ctx = AnalysisContext::owned(mesh_system(&SPECS[..2])).unwrap();
        let id = ctx.add_flow(mesh_flow(SPECS[2]), &XyRouting).unwrap();
        assert_eq!(id, FlowId::new(2));
        ctx.remove_flow(FlowId::new(1)).unwrap();
        assert_eq!(ctx.len(), 2);
        assert_matches_scratch(&mut ctx);
    }

    /// A spent budget fails before the kind's cache is laid out, so a
    /// fork whose only solve ran out of budget holds no cache for the
    /// deltas after it to shift, and a later solve still answers exactly.
    #[test]
    fn a_spent_budget_lays_out_no_cache() {
        let ibn = AnalysisKind::BufferAware;
        let sys = mesh_system(&SPECS[..5]);
        let base = AnalysisContext::new(&sys).unwrap();
        let mut fork = AnalysisContext::from_context(&base);
        let spent = Budget::with_deadline(std::time::Duration::ZERO);
        assert!(matches!(
            fork.analyze_with_budget(ibn, &spent),
            Err(AnalysisError::DeadlineExceeded { iterations: 0, .. })
        ));
        fork.add_flow(mesh_flow(SPECS[5]), &XyRouting).unwrap();
        assert!(fork.cached(ibn.index()).is_none());
        assert_matches_scratch(&mut fork);
    }

    #[test]
    fn from_context_matches_new() {
        let sys = mesh_system(&SPECS);
        let base = AnalysisContext::new(&sys).unwrap();
        let mut forked = AnalysisContext::from_context(&base);
        let mut fresh = AnalysisContext::owned(sys.clone()).unwrap();
        for &kind in &AnalysisKind::ALL {
            assert_eq!(forked.analyze(kind).unwrap(), fresh.analyze(kind).unwrap());
        }

        // Forks share the base graph until their first flow-set delta …
        let reports = |ctx: &AnalysisContext<'_>| -> Vec<AnalysisReport> {
            crate::analysis::all_analyses()
                .iter()
                .map(|a| a.analyze_with(ctx).unwrap())
                .collect()
        };
        let before = reports(&base);
        let mut sibling = AnalysisContext::from_context(&base);
        assert!(std::ptr::eq(forked.graph(), base.graph()));
        assert!(std::ptr::eq(sibling.graph(), base.graph()));
        // … a resize leaves the graph shared …
        forked.resize_buffer(RouterId::new(5), 8);
        assert!(std::ptr::eq(forked.graph(), base.graph()));
        // … and an addition or removal copies it for the fork alone.
        let id = forked
            .add_flow(mesh_flow((3, 12, 7, 4000)), &XyRouting)
            .unwrap();
        assert_eq!(id.index(), SPECS.len());
        assert!(!std::ptr::eq(forked.graph(), base.graph()));
        assert!(std::ptr::eq(sibling.graph(), base.graph()));
        forked.remove_flow(FlowId::new(0)).unwrap();
        for &kind in &AnalysisKind::ALL {
            forked.analyze(kind).unwrap();
        }

        // Neither the base nor the (still cold) sibling fork sees the deltas.
        assert_eq!(base.graph(), fresh.graph());
        assert_eq!(reports(&base), before);
        for (&kind, report) in AnalysisKind::ALL.iter().zip(&before) {
            assert_eq!(&sibling.analyze(kind).unwrap(), report, "{}", kind.name());
        }
    }

    #[test]
    fn budgeted_analysis_matches_unbudgeted_and_recovers() {
        let mut ctx = AnalysisContext::owned(mesh_system(&SPECS)).unwrap();
        let clean = ctx.analyze(AnalysisKind::BufferAware).unwrap();

        // An unlimited budget is bit-identical to no budget.
        let mut unbudgeted = AnalysisContext::owned(mesh_system(&SPECS)).unwrap();
        assert_eq!(
            unbudgeted
                .analyze_with_budget(AnalysisKind::BufferAware, &Budget::unlimited())
                .unwrap(),
            clean
        );

        // A pre-expired budget aborts with the structured deadline error …
        let mut starved = AnalysisContext::owned(mesh_system(&SPECS)).unwrap();
        let err = starved
            .analyze_with_budget(
                AnalysisKind::BufferAware,
                &Budget::with_deadline(std::time::Duration::ZERO),
            )
            .unwrap_err();
        assert!(matches!(err, AnalysisError::DeadlineExceeded { .. }));

        // … the conservative fallback still answers, bounding every clean R …
        let degraded = starved.conservative_report();
        for (id, v) in clean.iter() {
            if let Some(r) = v.response_time() {
                let b = match degraded.verdict(id) {
                    crate::report::FlowVerdict::Schedulable { response_time } => response_time,
                    crate::report::FlowVerdict::DeadlineMiss { exceeded_at } => exceeded_at,
                    other => panic!("conservative produced {other:?}"),
                };
                assert!(b >= r, "degraded bound {b} below exact {r} for {id}");
            }
        }

        // … and a later solve with a fresh (absent) budget fully recovers.
        assert_eq!(starved.analyze(AnalysisKind::BufferAware).unwrap(), clean);
    }

    #[test]
    fn buffer_resizes_match_from_scratch_solves() {
        let mut ctx = AnalysisContext::owned(mesh_system(&SPECS)).unwrap();
        // Warm every cache first so a lazy dirty rule would be caught.
        assert_matches_scratch(&mut ctx);
        for (router, depth) in [(5u32, 8u32), (0, 1), (5, 2), (10, 64)] {
            ctx.resize_buffer(RouterId::new(router), depth);
            assert!(ctx.system().has_heterogeneous_buffers() || depth == 2);
            assert_matches_scratch(&mut ctx);
        }
    }

    #[test]
    fn resize_roundtrip_restores_reports() {
        let mut ctx = AnalysisContext::owned(mesh_system(&SPECS)).unwrap();
        let before: Vec<AnalysisReport> = AnalysisKind::ALL
            .iter()
            .map(|&k| ctx.analyze(k).unwrap())
            .collect();
        let router = RouterId::new(7);
        let original = ctx.system().buffer_depth_at(router);
        ctx.resize_buffer(router, 32);
        let _ = ctx.analyze(AnalysisKind::BufferAware).unwrap();
        ctx.resize_buffer(router, original);
        for (&kind, report) in AnalysisKind::ALL.iter().zip(&before) {
            assert_eq!(&ctx.analyze(kind).unwrap(), report, "{}", kind.name());
        }
    }

    #[test]
    fn resize_sets_the_router_depth() {
        let mut ctx = AnalysisContext::owned(mesh_system(&SPECS[..3])).unwrap();
        ctx.resize_buffer(RouterId::new(4), 16);
        assert_eq!(ctx.system().buffer_depth_at(RouterId::new(4)), 16);
        assert_matches_scratch(&mut ctx);
    }

    /// The full scan `buffer_dependents` replaced: every flow with a
    /// direct interferer whose contention domain holds a link into
    /// `router`.
    fn scanned_dependents(ctx: &AnalysisContext<'_>, router: RouterId) -> Vec<FlowId> {
        let (system, graph) = (ctx.system(), ctx.graph());
        let topology = system.topology();
        system
            .flows()
            .ids()
            .filter(|&i| {
                graph.direct_set(i).iter().any(|&j| {
                    graph.contention_domain(i, j).is_some_and(|cd| {
                        cd.links(system.route(i))
                            .iter()
                            .any(|&l| topology.link(l).target() == Endpoint::Router(router))
                    })
                })
            })
            .collect()
    }

    #[test]
    fn buffer_dependents_match_the_full_scan() {
        // The heterogeneous 8×8 bench fixture: mixed depths and bursts.
        let sys = noc_workload::synthetic::SyntheticSpec::paper(8, 8, 120, 2)
            .with_buffer_depth_range(2, 8)
            .with_burst_range(0, 2)
            .generate(5)
            .into_system();
        let mut ctx = AnalysisContext::owned(sys).unwrap();
        let check = |ctx: &AnalysisContext<'_>| {
            for router in ctx.system().topology().router_ids() {
                let found = ctx.buffer_dependents(router);
                assert_eq!(found, scanned_dependents(ctx, router), "{router}");
            }
        };
        check(&ctx);
        let lowest = ctx
            .system()
            .flows()
            .iter()
            .map(|(_, f)| f.priority().level())
            .max()
            .unwrap();
        let template = ctx.system().flow(FlowId::new(7)).clone();
        let candidate = Flow::builder(template.source(), template.dest())
            .priority(Priority::new(lowest + 1))
            .period(template.period())
            .length_flits(16)
            .build();
        ctx.add_flow(candidate, &XyRouting).unwrap();
        check(&ctx);
        ctx.remove_flow(FlowId::new(40)).unwrap();
        check(&ctx);
    }

    #[test]
    #[should_panic(expected = "buffer depth")]
    fn zero_depth_resize_panics() {
        let mut ctx = AnalysisContext::owned(mesh_system(&SPECS[..2])).unwrap();
        ctx.resize_buffer(RouterId::new(0), 0);
    }

    #[test]
    fn out_of_bounds_removal_is_rejected() {
        let mut ctx = AnalysisContext::owned(mesh_system(&SPECS[..2])).unwrap();
        assert!(ctx.remove_flow(FlowId::new(9)).is_err());
        assert_eq!(ctx.len(), 2);
    }

    // --- Early cutoff -------------------------------------------------

    /// Deterministic xorshift64 stream for the delta sequences.
    struct XorShift(u64);

    impl XorShift {
        fn below(&mut self, n: u64) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x % n
        }
    }

    /// 40 deltas per sequence; at least 200 in the exhaustive soundness
    /// leg (`NOC_MPB_SWEEP_EXHAUSTIVE=1`).
    fn oracle_steps() -> usize {
        if std::env::var("NOC_MPB_SWEEP_EXHAUSTIVE").is_ok_and(|v| v == "1") {
            240
        } else {
            40
        }
    }

    /// 8×8, 120 paper flows with periods ×4: most flows certify, so
    /// `Idown` chains run deep.
    fn deep_fixture() -> System {
        let mut spec = noc_workload::synthetic::SyntheticSpec::paper(8, 8, 120, 2);
        spec.period_range = (4 * spec.period_range.0, 4 * spec.period_range.1);
        spec.generate(3).into_system()
    }

    /// 4×4, bursty sources over heterogeneous router depths.
    fn bursty_hetero_fixture() -> System {
        noc_workload::synthetic::SyntheticSpec::paper(4, 4, 20, 2)
            .with_burst_range(0, 2)
            .with_buffer_depth_range(2, 8)
            .generate(13)
            .into_system()
    }

    /// A context over `system` warmed for every kind and for the
    /// conservative bound.
    fn warm_base(system: &System) -> AnalysisContext<'_> {
        let base = AnalysisContext::new(system).unwrap();
        for kind in AnalysisKind::ALL {
            base.warm(kind, &Budget::unlimited()).unwrap();
        }
        base.warm_conservative();
        base
    }

    /// A fork of [`warm_base`].
    fn warm_fork(system: &System) -> AnalysisContext<'static> {
        AnalysisContext::from_context(&warm_base(system))
    }

    /// Whether `ctx` and `base` hold the very same cache at `index`.
    fn shares(ctx: &AnalysisContext<'_>, base: &AnalysisContext<'_>, index: usize) -> bool {
        Arc::ptr_eq(ctx.cached(index).unwrap(), base.cached(index).unwrap())
    }

    /// Runs `solve`, a pass through the cache at `index`, and returns its
    /// result with the flows and edge terms the pass re-solved: none if no
    /// delta marked the cache, since the pass then reads it back as it
    /// stands.
    fn traced<T>(
        ctx: &mut AnalysisContext<'_>,
        index: usize,
        solve: impl FnOnce(&mut AnalysisContext<'_>) -> T,
    ) -> (T, Vec<FlowId>, Vec<crate::engine::EdgeUse>) {
        let clean = ctx.cached(index).is_some_and(|cache| cache.is_clean());
        let out = solve(ctx);
        let cache = ctx.cached(index).unwrap();
        if clean {
            (out, Vec::new(), Vec::new())
        } else {
            (out, cache.resolved.clone(), cache.edges.clone())
        }
    }

    /// The fork's conservative report equals the bound over a fresh
    /// context and the independent reference evaluator; returns how many
    /// flows the report re-evaluated.
    fn assert_conservative_matches_scratch(ctx: &mut AnalysisContext<'_>, label: &str) -> usize {
        let (report, resolved, _) = traced(ctx, CONSERVATIVE, |ctx| ctx.conservative_report());
        let system = ctx.system().clone();
        let scratch = AnalysisContext::new(&system).unwrap();
        assert_eq!(
            report,
            crate::conservative::conservative_with(&scratch),
            "{label}: conservative"
        );
        assert_eq!(
            report,
            crate::conservative::reference::conservative_with(&scratch),
            "{label}: conservative reference"
        );
        resolved.len()
    }

    /// From-scratch explanations over `ctx`, per kind, indexed by flow.
    fn explanations(ctx: &AnalysisContext<'_>) -> Vec<Vec<FlowExplanation>> {
        AnalysisKind::ALL
            .iter()
            .map(|kind| kind.explain_with(ctx).unwrap())
            .collect()
    }

    /// `e` with every flow id renumbered by `map`.
    fn renumbered(e: &FlowExplanation, map: impl Fn(FlowId) -> FlowId) -> FlowExplanation {
        let mut e = e.clone();
        e.flow = map(e.flow);
        for t in &mut e.terms {
            t.interferer = map(t.interferer);
        }
        e
    }

    /// One random delta: an addition (recycling freed priorities, so it
    /// can land mid-order), a removal, or a router resize. Returns the
    /// removed id, if any.
    fn random_delta(
        ctx: &mut AnalysisContext<'_>,
        rng: &mut XorShift,
        freed: &mut Vec<Priority>,
        next_priority: &mut u32,
        min_len: usize,
    ) -> Option<FlowId> {
        let len = ctx.len();
        match rng.below(3) {
            0 if len > min_len => {
                let id = FlowId::new(rng.below(len as u64) as u32);
                freed.push(ctx.system().flow(id).priority());
                ctx.remove_flow(id).unwrap();
                Some(id)
            }
            1 => {
                let routers = ctx.system().topology().router_count() as u64;
                let router = RouterId::new(rng.below(routers) as u32);
                ctx.resize_buffer(router, 1 + rng.below(16) as u32);
                None
            }
            _ => {
                let priority = if !freed.is_empty() && rng.below(2) == 0 {
                    freed.swap_remove(rng.below(freed.len() as u64) as usize)
                } else {
                    *next_priority += 1;
                    Priority::new(*next_priority)
                };
                let system = ctx.system();
                let pick = |r: u64| system.flow(FlowId::new(r as u32)).clone();
                let (a, b) = (pick(rng.below(len as u64)), pick(rng.below(len as u64)));
                let dest = if a.source() == b.dest() {
                    a.dest()
                } else {
                    b.dest()
                };
                let candidate = Flow::builder(a.source(), dest)
                    .priority(priority)
                    .period(Cycles::new(4 * (2_500 + 2_500 * rng.below(40))))
                    .length_flits(4 + rng.below(60) as u32)
                    .burst(rng.below(3) as u32)
                    .build();
                ctx.add_flow(candidate, &XyRouting).unwrap();
                None
            }
        }
    }

    /// Drives random deltas through a fork of a warmed base. After every
    /// step, each kind's report equals a from-scratch solve; every flow
    /// the cutoff skipped has the from-scratch explanation it had before
    /// the delta; every edge term a re-solved flow kept or recomputed has
    /// the from-scratch window jitter and `Idown`; every persisted `Idown`
    /// block holds the from-scratch downstream terms; and the conservative
    /// report equals the bound over a fresh context and the reference
    /// evaluator.
    fn cutoff_oracle(system: System, seed: u64) {
        let min_len = system.flows().len() / 2;
        let mut next_priority = system
            .flows()
            .iter()
            .map(|(_, f)| f.priority().level())
            .max()
            .unwrap();
        let mut freed = Vec::new();
        let mut rng = XorShift(seed | 1);
        let mut before = explanations(&AnalysisContext::new(&system).unwrap());
        let mut ctx = warm_fork(&system);
        let (mut skipped_total, mut conservative_skipped, mut kept_total) = (0, 0, 0);
        for step in 0..oracle_steps() {
            let removed = random_delta(&mut ctx, &mut rng, &mut freed, &mut next_priority, min_len);
            // Pre-delta id → post-delta id, and back.
            let forward = |f: FlowId| match removed {
                Some(r) if f > r => FlowId::new(f.raw() - 1),
                _ => f,
            };
            let backward = |x: usize| match removed {
                Some(r) if x >= r.index() => Some(x + 1),
                _ => (x < before[0].len()).then_some(x),
            };
            let system = ctx.system().clone();
            let scratch = AnalysisContext::new(&system).unwrap();
            let now = explanations(&scratch);
            for kind in AnalysisKind::ALL {
                let (report, resolved_flows, edges) =
                    traced(&mut ctx, kind.index(), |ctx| ctx.analyze(kind).unwrap());
                let label = format!("step {step}, {}", kind.name());
                assert_eq!(report, kind.analyze_with(&scratch).unwrap(), "{label}");
                let cache = ctx.cached(kind.index()).unwrap();
                let clamp = |v: u128| u64::try_from(v).unwrap_or(u64::MAX);
                for e in &edges {
                    let term = &now[kind.index()][e.victim.index()].terms[e.edge];
                    let what = format!("{label}: edge {} of {}", e.edge, e.victim);
                    assert_eq!(clamp(e.jitter), term.window_jitter.as_u64(), "{what}");
                    assert_eq!(clamp(e.downstream), term.downstream_term.as_u64(), "{what}");
                    kept_total += usize::from(e.kept);
                }
                let mut resolved = vec![false; ctx.len()];
                for i in &resolved_flows {
                    resolved[i.index()] = true;
                }
                for (x, expected) in now[kind.index()].iter().enumerate() {
                    let id = FlowId::new(x as u32);
                    if !resolved[x] {
                        skipped_total += 1;
                        let old = backward(x).expect("an added flow is always re-solved");
                        let kept = renumbered(&before[kind.index()][old], forward);
                        assert_eq!(&kept, expected, "{label}: skipped {id} is stale");
                    }
                    // Only kinds that charge downstream interference
                    // write slots.
                    if kind.spec().1 == DownstreamModel::Ignore {
                        continue;
                    }
                    let slots = cache.slots(id);
                    assert_eq!(
                        slots.is_some(),
                        expected.verdict != FlowVerdict::Tainted,
                        "{label}: {id} has a valid block iff it is untainted"
                    );
                    if let Some(slots) = slots {
                        let terms: Vec<u64> = expected
                            .terms
                            .iter()
                            .map(|t| t.downstream_term.as_u64())
                            .collect();
                        let kept: Vec<u64> = slots
                            .iter()
                            .map(|&v| u64::try_from(v).unwrap_or(u64::MAX))
                            .collect();
                        assert_eq!(kept, terms, "{label}: Idown slots of {id}");
                    }
                }
            }
            let evaluated = assert_conservative_matches_scratch(&mut ctx, &format!("step {step}"));
            conservative_skipped += ctx.len() - evaluated;
            before = now;
        }
        assert!(skipped_total > 0, "the cutoff never skipped a flow");
        assert!(kept_total > 0, "no re-solved flow kept an edge term");
        assert!(
            conservative_skipped > 0,
            "the conservative cutoff never skipped a flow"
        );
    }

    #[test]
    fn cutoff_matches_from_scratch_on_a_deep_fixture() {
        cutoff_oracle(deep_fixture(), 0xC0FF_0001);
    }

    #[test]
    fn cutoff_matches_from_scratch_on_a_bursty_heterogeneous_fixture() {
        let system = bursty_hetero_fixture();
        assert!(system.has_heterogeneous_buffers());
        cutoff_oracle(system, 0xC0FF_0002);
    }

    /// A solve with no marks pending reads the base's cache back as it
    /// stands: the fork's slot is still the base's, with no copy.
    #[test]
    fn a_warm_fork_re_solves_nothing_without_a_delta() {
        let system = deep_fixture();
        let base = warm_base(&system);
        let mut fork = AnalysisContext::from_context(&base);
        for kind in AnalysisKind::ALL {
            let report = fork.analyze(kind).unwrap();
            assert_eq!(report, kind.analyze_with(&base).unwrap());
            assert!(shares(&fork, &base, kind.index()), "{}", kind.name());
        }
    }

    #[test]
    fn conservative_cutoff_re_evaluates_nothing_on_a_warm_fork() {
        let system = deep_fixture();
        let base = warm_base(&system);
        let mut fork = AnalysisContext::from_context(&base);
        for round in 0..2 {
            let evaluated = assert_conservative_matches_scratch(&mut fork, "warm fork");
            assert_eq!(evaluated, 0, "round {round}");
            assert!(shares(&fork, &base, CONSERVATIVE), "round {round}");
        }
    }

    /// The conservative bound reads no buffer depth: a router resize marks
    /// nothing in its cache, and the report, in a what-if scope or out of
    /// one, re-evaluates no flow and copies nothing.
    #[test]
    fn conservative_cutoff_re_evaluates_nothing_after_a_router_resize() {
        let system = bursty_hetero_fixture();
        let base = warm_base(&system);
        let mut fork = AnalysisContext::from_context(&base);
        let routers = system.topology().router_count() as u64;
        let mut rng = XorShift(0xC0FF_0003);
        for step in 0..oracle_steps() {
            let router = RouterId::new(rng.below(routers) as u32);
            let depth = 2 + rng.below(15) as u32;
            let label = format!("step {step}, {router}");
            fork.what_if(|ctx| {
                ctx.resize_buffer(router, depth);
                let evaluated = assert_conservative_matches_scratch(ctx, &label);
                assert_eq!(evaluated, 0, "{label}");
                assert!(shares(ctx, &base, CONSERVATIVE), "{label}: copied");
            });
            fork.resize_buffer(router, depth);
            let evaluated = assert_conservative_matches_scratch(&mut fork, &label);
            assert_eq!(evaluated, 0, "{label}");
            assert!(shares(&fork, &base, CONSERVATIVE), "{label}: copied");
        }
    }

    /// After a router resize, a re-solved flow recomputes exactly the
    /// edges whose interferer changed in the pass, plus, for a victim the
    /// resize marked, the edges whose contention domain enters the router;
    /// every other edge term is read back from its memo block. On the
    /// deep fixture each resize also turns uniform depths mixed.
    #[test]
    fn a_resize_recomputes_only_the_edges_into_the_router() {
        for system in [bursty_hetero_fixture(), deep_fixture()] {
            resize_recomputes_only_the_edges_into_the_router(&system);
        }
    }

    fn resize_recomputes_only_the_edges_into_the_router(system: &System) {
        let ibn = AnalysisKind::BufferAware;
        let mut fork = warm_fork(system);
        let topology = system.topology();
        let enters = |ctx: &AnalysisContext<'_>, x: FlowId, edge: usize, router: RouterId| {
            let cd = ctx.graph().direct_domains(x)[edge];
            cd.links(ctx.system().route(x))
                .iter()
                .any(|&l| topology.link(l).target() == Endpoint::Router(router))
        };
        let (mut kept, mut into_router) = (0, 0);
        for router in topology.router_ids() {
            let depth = fork.system().buffer_depth_at(router) + 3;
            let before = fork.analyze(ibn).unwrap();
            let slots_before: Vec<Option<Vec<u128>>> = (0..fork.len())
                .map(|x| {
                    let cache = fork.cached(ibn.index()).unwrap();
                    cache.slots(FlowId::new(x as u32)).map(<[u128]>::to_vec)
                })
                .collect();
            let marked = fork.buffer_dependents(router);
            fork.what_if(|ctx| {
                ctx.resize_buffer(router, depth);
                let after = ctx.analyze(ibn).unwrap();
                let cache = ctx.cached(ibn.index()).unwrap();
                let changed = |j: FlowId| {
                    before.verdict(j) != after.verdict(j)
                        || slots_before[j.index()].as_deref() != cache.slots(j)
                };
                for e in &cache.edges {
                    let x = e.victim;
                    let j = ctx.graph().direct_set(x)[e.edge];
                    let own = marked.contains(&x) && enters(ctx, x, e.edge, router);
                    let recompute = slots_before[x.index()].is_none() || changed(j) || own;
                    assert_eq!(e.kept, !recompute, "{router}: edge {} of {x}", e.edge);
                    kept += usize::from(e.kept);
                    into_router += usize::from(own && !changed(j));
                }
            });
        }
        assert!(kept > 0, "no edge term was kept");
        assert!(
            into_router > 0,
            "no edge was recomputed for the router alone"
        );
    }

    // --- What-if scopes ---------------------------------------------

    /// A what-if scope hands back the very cache handles it held on entry,
    /// whatever its delta and solves copied, drops a cache first laid out
    /// inside it, and leaves the graph as it was.
    #[test]
    fn a_what_if_restores_the_same_caches() {
        let system = deep_fixture();
        let base = AnalysisContext::new(&system).unwrap();
        base.warm(AnalysisKind::BufferAware, &Budget::unlimited())
            .unwrap();
        base.warm_conservative();
        let mut fork = AnalysisContext::from_context(&base);
        // XLWX is laid out here, outside any scope; IBN and the
        // conservative bound stay shared with the base, and the other
        // kinds are first laid out inside the scopes.
        fork.analyze(AnalysisKind::Xlwx).unwrap();
        let xlwx = AnalysisKind::Xlwx.index();
        let handles = |ctx: &AnalysisContext<'_>| -> Vec<Option<Arc<SolveCache>>> {
            ctx.caches.iter().map(|slot| slot.get().cloned()).collect()
        };
        let same = |a: &[Option<Arc<SolveCache>>], b: &[Option<Arc<SolveCache>>]| {
            a.iter().zip(b).all(|pair| match pair {
                (Some(a), Some(b)) => Arc::ptr_eq(a, b),
                (None, None) => true,
                _ => false,
            })
        };
        let before = handles(&fork);
        let graph = fork.graph().clone();
        let candidate = mesh_flow((3, 40, 9_999, 4_000_000));
        for step in 0..3 {
            fork.what_if(|ctx| {
                match step {
                    0 => drop(ctx.add_flow(candidate.clone(), &XyRouting).unwrap()),
                    1 => ctx.remove_flow(FlowId::new(17)).unwrap(),
                    _ => ctx.resize_buffer(RouterId::new(9), 7),
                }
                for kind in AnalysisKind::ALL {
                    ctx.analyze(kind).unwrap();
                }
                ctx.conservative_report();
                assert!(!same(&handles(ctx), &before), "step {step}: nothing copied");
            });
            assert!(same(&handles(&fork), &before), "step {step}");
            assert!(
                fork.cached(AnalysisKind::ShiBurns.index()).is_none(),
                "step {step}"
            );
            assert!(fork.journal.is_none());
            assert_eq!(fork.graph(), &graph, "step {step}");
        }
        assert!(fork.cached(xlwx).is_some());
        assert_matches_scratch(&mut fork);
    }

    /// Scopes nest: an inner scope undoes only its own deltas, and the
    /// outer one the rest.
    #[test]
    fn nested_what_ifs_undo_their_own_deltas() {
        let mut ctx = AnalysisContext::owned(mesh_system(&SPECS)).unwrap();
        let router = RouterId::new(5);
        ctx.resize_buffer(router, 6);
        let (flows, buffers) = (
            ctx.system().flows().clone(),
            ctx.system().buffer_map().clone(),
        );
        ctx.what_if(|ctx| {
            ctx.remove_flow(FlowId::new(1)).unwrap();
            let outer = ctx.system().flows().clone();
            ctx.what_if(|ctx| {
                ctx.resize_buffer(router, 9);
                ctx.remove_flow(FlowId::new(0)).unwrap();
                assert_matches_scratch(ctx);
            });
            assert_eq!(ctx.system().flows(), &outer);
            assert_eq!(ctx.system().buffer_depth_at(router), 6);
            assert_matches_scratch(ctx);
        });
        assert_eq!(ctx.system().flows(), &flows);
        assert_eq!(ctx.system().buffer_map(), &buffers);
        assert_matches_scratch(&mut ctx);
    }

    /// A what-if on a borrowed context copies the system on its first
    /// delta and hands back all it held on entry: the same cache handles,
    /// the kept buffer-depth report and the graph, so the answers after
    /// it are the base system's again.
    #[test]
    fn a_what_if_on_a_borrowed_context_puts_everything_back() {
        let (ibn, unlimited) = (AnalysisKind::BufferAware, Budget::unlimited());
        let system = mesh_system(&SPECS);
        let mut ctx = AnalysisContext::new(&system).unwrap();
        ctx.warm(ibn, &unlimited).unwrap();
        ctx.warm_conservative();
        assert_eq!(ctx.warm_buffer_depths(ibn, &[6], 1), 1);
        let kept = Arc::clone(ctx.cached(ibn.index()).unwrap());
        let at_six = ctx.analyze_at_buffer_depth(ibn, 6, &unlimited).unwrap();
        ctx.what_if(|ctx| {
            ctx.remove_flow(FlowId::new(1)).unwrap();
            ctx.resize_buffer(RouterId::new(5), 9);
            ctx.add_flow(mesh_flow((3, 12, 7, 4000)), &XyRouting)
                .unwrap();
            assert!(ctx.by_depth[0].get().is_none(), "a delta drops the store");
            assert_matches_scratch(ctx);
        });
        assert!(ctx.journal.is_none());
        assert!(Arc::ptr_eq(ctx.cached(ibn.index()).unwrap(), &kept));
        assert_eq!(ctx.system().flows(), system.flows());
        assert_eq!(ctx.system().buffer_map(), system.buffer_map());
        let scratch = AnalysisContext::new(&system).unwrap();
        assert_eq!(ctx.graph(), scratch.graph());
        assert!(ctx.by_depth[0].get().is_some());
        assert_eq!(
            ctx.analyze_at_buffer_depth(ibn, 6, &unlimited).unwrap(),
            at_six
        );
        assert_eq!(
            crate::conservative::conservative_with(&ctx),
            crate::conservative::conservative_with(&scratch)
        );
        assert_matches_scratch(&mut ctx);
    }

    /// A delta outside any scope carries every kept cache across, an
    /// insertion in the middle of the id order too: the next solve
    /// re-solves the inserted flow and what it reaches, not the whole set,
    /// and answers for the new system.
    #[test]
    fn caches_carry_across_a_mid_order_insertion() {
        let system = deep_fixture();
        let mut ctx = warm_fork(&system);
        let gone = FlowId::new(40);
        ctx.remove_flow(gone).unwrap();
        for kind in AnalysisKind::ALL {
            ctx.analyze(kind).unwrap();
        }
        ctx.conservative_report();
        let (flow, route) = (system.flow(gone).clone(), system.route(gone).clone());
        ctx.insert_flow(gone, flow, route).unwrap();
        let scratch = AnalysisContext::new(&system).unwrap();
        assert_eq!(ctx.system().flows(), system.flows());
        assert_eq!(ctx.graph(), scratch.graph());
        for kind in AnalysisKind::ALL {
            let label = kind.name();
            let report = ctx.analyze(kind).unwrap();
            assert_eq!(report, kind.analyze_with(&scratch).unwrap(), "{label}");
            let resolved = &ctx.cached(kind.index()).unwrap().resolved;
            assert!(resolved.contains(&gone), "{label}");
            assert!(resolved.len() < ctx.len(), "{label}: re-solved every flow");
        }
        let evaluated = assert_conservative_matches_scratch(&mut ctx, "insertion");
        assert!(evaluated < ctx.len(), "re-evaluated every flow");
    }

    /// The propagation rule the cutoff replaced: the `affected` flows plus,
    /// down the priority order, every flow with a member of `S^D ∪ S^I`
    /// in the set.
    fn closure(graph: &InterferenceGraph, system: &System, affected: &[FlowId]) -> usize {
        let mut dirty = vec![false; graph.len()];
        for a in affected {
            dirty[a.index()] = true;
        }
        for i in system.flows().ids_by_priority() {
            let indirect = graph.indirect_set(i);
            let sets = graph.direct_set(i).iter().chain(&indirect);
            dirty[i.index()] |= sets.into_iter().any(|j| dirty[j.index()]);
        }
        dirty.iter().filter(|&&d| d).count()
    }

    /// A cached re-solve reads each interferer's `Rⱼ` off its verdict. An
    /// admission that pushes a direct interferer past its deadline taints
    /// that interferer's victim in the fork's re-solve, and the removal
    /// that undoes it lifts the taint; both equal a from-scratch solve.
    #[test]
    fn a_missed_interferer_taints_its_victim_in_a_cached_re_solve() {
        // τ0 runs 0 → 3 and directly interferes with τ1 (1 → 3); the
        // admitted τ2 (0 → 1, top priority, 2000 flits) hits τ0 alone.
        let system = mesh_system(&[(0, 3, 2, 1000), (1, 3, 3, 2000)]);
        let hog = Flow::builder(NodeId::new(0), NodeId::new(1))
            .priority(Priority::new(1))
            .period(Cycles::new(5000))
            .length_flits(2000)
            .build();
        let (interferer, victim) = (FlowId::new(0), FlowId::new(1));
        let mut fork = warm_fork(&system);
        for kind in AnalysisKind::ALL {
            let report = fork.analyze(kind).unwrap();
            assert!(report.is_schedulable(), "{}: {report:?}", kind.name());
        }
        let hog_id = fork.add_flow(hog, &XyRouting).unwrap();
        let scratch_system = fork.system().clone();
        let scratch = AnalysisContext::new(&scratch_system).unwrap();
        for kind in AnalysisKind::ALL {
            let report = fork.analyze(kind).unwrap();
            let label = kind.name();
            assert_eq!(report, kind.analyze_with(&scratch).unwrap(), "{label}");
            assert!(report.verdict(hog_id).is_schedulable(), "{label}");
            assert!(
                matches!(report.verdict(interferer), FlowVerdict::DeadlineMiss { .. }),
                "{label}: {:?}",
                report.verdict(interferer)
            );
            assert_eq!(report.verdict(victim), FlowVerdict::Tainted, "{label}");
            let resolved = &fork.cached(kind.index()).unwrap().resolved;
            assert!(resolved.contains(&victim), "{label}: {resolved:?}");
        }
        fork.remove_flow(hog_id).unwrap();
        let fresh = AnalysisContext::new(&system).unwrap();
        for kind in AnalysisKind::ALL {
            let report = fork.analyze(kind).unwrap();
            let label = kind.name();
            assert_eq!(report, kind.analyze_with(&fresh).unwrap(), "{label}");
            assert!(report.is_schedulable(), "{label}: {report:?}");
        }
    }

    #[test]
    fn a_removal_re_solves_fewer_flows_than_the_closure() {
        let system = deep_fixture();
        let mut fork = warm_fork(&system);
        // The highest-priority flow: its removal reaches deepest.
        let gone = system.flows().ids_by_priority()[0];
        let after = system.without_flow(gone).unwrap();
        let affected = fork.graph().clone().remove_flow(&after, gone);
        fork.remove_flow(gone).unwrap();
        let report = fork.analyze(AnalysisKind::BufferAware).unwrap();
        let scratch = AnalysisContext::new(&after).unwrap();
        assert_eq!(report, BufferAware.analyze_with(&scratch).unwrap());
        let resolved = fork
            .cached(AnalysisKind::BufferAware.index())
            .unwrap()
            .resolved
            .len();
        let closure = closure(fork.graph(), &after, &affected);
        assert!(
            affected.len() <= resolved && resolved < closure,
            "re-solved {resolved} flows: {} marked, closure of {closure}",
            affected.len()
        );
    }
}

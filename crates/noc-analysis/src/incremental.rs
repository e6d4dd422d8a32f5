//! Incrementally maintained analysis state for admission-control workloads.
//!
//! An [`AnalysisContext`] is the right tool
//! when the flow set is fixed: build once, analyse many times. Admission
//! control inverts that pattern — the flow set itself changes (a flow asks
//! to join, a flow retires) and after every change the *whole* system must
//! be re-certified. Rebuilding the interference graph and re-solving every
//! flow per change wastes nearly all of that work: a single flow only
//! touches the interference neighbourhood its route overlaps.
//!
//! [`IncrementalContext`] is an owned [`AnalysisContext`] plus the last
//! solve's results, one solve cache per analysis, kept alive across
//! mutations:
//!
//! * [`IncrementalContext::add_flow`] / [`IncrementalContext::remove_flow`]
//!   update the context's [`InterferenceGraph`] through its delta methods
//!   ([`InterferenceGraph::add_flow`] / [`InterferenceGraph::remove_flow`]),
//!   which recompute only the affected neighbourhood and report exactly
//!   which flows' interference sets changed;
//! * those flows are marked dirty in every solve cache; the next
//!   [`IncrementalContext::analyze`] propagates dirtiness down the priority
//!   order (a flow is re-solved iff a member of `S^D ∪ S^I` — all strictly
//!   higher priority — is dirty) and reuses the cached response time of
//!   every clean flow.
//!
//! [`IncrementalContext::from_context`] forks a shared base context
//! copy-on-write: the fork clones the system but shares the base's graph,
//! and copies the graph only on its first flow addition or removal. Buffer
//! resizes never touch the graph.
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
//! let mut ctx = IncrementalContext::new(system)?;
//! let before = ctx.analyze(AnalysisKind::BufferAware)?;
//!
//! // Admission what-if: add the candidate, re-analyse, roll back.
//! let candidate = Flow::builder(NodeId::new(1), NodeId::new(2))
//!     .priority(Priority::new(2))
//!     .period(Cycles::new(2_000))
//!     .length_flits(8)
//!     .build();
//! let id = ctx.add_flow(candidate, &XyRouting)?;
//! let admitted = ctx.analyze(AnalysisKind::BufferAware)?.is_schedulable();
//! ctx.remove_flow(id)?;
//! assert_eq!(ctx.analyze(AnalysisKind::BufferAware)?, before);
//! # assert!(admitted);
//! # Ok::<(), noc_analysis::error::AnalysisError>(())
//! ```

use std::borrow::Cow;

use noc_model::contention::InterferenceGraph;
use noc_model::flow::Flow;
use noc_model::ids::{FlowId, RouterId};
use noc_model::routing::RoutingAlgorithm;
use noc_model::system::System;

use crate::analysis::AnalysisKind;
use crate::budget::Budget;
use crate::context::AnalysisContext;
use crate::engine::{SolveCache, Solver};
use crate::error::AnalysisError;
use crate::metrics;
use crate::report::AnalysisReport;

/// An owned [`AnalysisContext`] plus per-analysis solve caches, maintained
/// incrementally under flow additions, removals and buffer resizes.
///
/// See the [module docs](self) for the admission-control pattern it serves
/// and for how forks share the base graph.
#[derive(Debug, Clone)]
pub struct IncrementalContext {
    ctx: AnalysisContext<'static>,
    /// One solve cache per [`AnalysisKind`], indexed by `AnalysisKind::index`.
    caches: [SolveCache; AnalysisKind::ALL.len()],
}

impl IncrementalContext {
    /// Builds the full derived structure for `system`, taking ownership.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::Model`] if the system violates the
    /// contiguous contention-domain assumption.
    pub fn new(system: System) -> Result<IncrementalContext, AnalysisError> {
        AnalysisContext::build(Cow::Owned(system)).map(Self::with_context)
    }

    /// Forks an incremental context off an existing [`AnalysisContext`]:
    /// the system is cloned and the interference graph shared, so the fork
    /// pays for a graph copy only on its first flow addition or removal —
    /// the cheap way to give each thread mutable state over one shared base
    /// context.
    pub fn from_context(ctx: &AnalysisContext<'_>) -> IncrementalContext {
        Self::with_context(ctx.fork())
    }

    fn with_context(ctx: AnalysisContext<'static>) -> IncrementalContext {
        let n = ctx.len();
        IncrementalContext {
            ctx,
            caches: std::array::from_fn(|_| SolveCache::all_dirty(n)),
        }
    }

    /// Admits `flow`, routed by `routing`, and returns its new dense id.
    ///
    /// Only the interference neighbourhood the new route overlaps is
    /// recomputed, and only the flows in it are marked for re-solving.
    ///
    /// # Errors
    ///
    /// Propagates routing and validation failures from
    /// [`System::with_added_flow`] and contiguity violations from
    /// [`InterferenceGraph::add_flow`]; the context is unchanged on error.
    pub fn add_flow(
        &mut self,
        flow: Flow,
        routing: &dyn RoutingAlgorithm,
    ) -> Result<FlowId, AnalysisError> {
        let (id, affected) = self.ctx.add_flow(flow, routing)?;
        for cache in &mut self.caches {
            cache.push_flow();
        }
        self.record_delta(&affected, &AnalysisKind::ALL);
        Ok(id)
    }

    /// Retires the flow `id`, renumbering every larger id one down.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::Model`] if `id` is out of bounds; the
    /// context is unchanged in that case.
    pub fn remove_flow(&mut self, id: FlowId) -> Result<(), AnalysisError> {
        let affected = self.ctx.remove_flow(id)?;
        for cache in &mut self.caches {
            cache.remove_flow(id.index());
        }
        self.record_delta(&affected, &AnalysisKind::ALL);
        Ok(())
    }

    /// Resizes the per-VC buffers of `router` to `depth` flits.
    ///
    /// Routes, flows, zero-load latencies and the interference graph are
    /// all unaffected by buffer depths, so the only state invalidated is
    /// the buffer-aware analysis cache — and within it only the flows that
    /// actually read the resized router's depth: a solve of τᵢ reads
    /// `buf(ξ)` exclusively through Equation 6 terms `bi(x, y)` over direct
    /// pairs (`y ∈ S^D_x`), at `x = i` directly and at deeper victims
    /// through the recursive `Idown` chain. Marking every such *victim* `x`
    /// whose `cd(x, y)` contains a link into `router` suffices: the deeper
    /// victims are members of `S^D ∪ S^I` chains above τᵢ, so
    /// `solve_cached`'s one-pass propagation down the priority order dirties
    /// every transitive reader — the same closure argument its docs make
    /// for flow additions and removals. Bit-identity to a from-scratch
    /// solve is pinned by `tests/incremental_equivalence.rs`.
    ///
    /// # Panics
    ///
    /// Panics if `router` is out of bounds or `depth` is zero (mirroring
    /// [`System::with_router_buffer_depth`]); serving layers validate
    /// queries before applying them.
    pub fn resize_buffer(&mut self, router: RouterId, depth: u32) {
        let affected = self.buffer_dependents(router);
        self.ctx.resize_buffer(router, depth);
        self.record_delta(&affected, &[AnalysisKind::BufferAware]);
    }

    /// Flows whose buffer-aware bound reads the depth of `router`: the
    /// victims of direct interference pairs whose contention domain
    /// contains a link into it, in ascending id order. Read off the graph's
    /// link-overlap table for the router's input links, so the cost is
    /// proportional to the flows routed through them.
    fn buffer_dependents(&self, router: RouterId) -> Vec<FlowId> {
        let graph = self.ctx.graph();
        let mut out: Vec<FlowId> = self
            .ctx
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

    /// Marks `affected` dirty in the caches of `kinds` and counts the
    /// delta.
    fn record_delta(&mut self, affected: &[FlowId], kinds: &[AnalysisKind]) {
        for kind in kinds {
            let cache = &mut self.caches[kind.index()];
            for &a in affected {
                cache.mark_dirty(a.index());
            }
        }
        metrics::INCREMENTAL_DELTAS.incr();
        metrics::INCREMENTAL_FLOWS_DIRTIED.add(affected.len() as u64);
    }

    /// Runs `kind` over the current flow set, re-solving only the flows
    /// whose interference inputs changed since this kind last ran.
    ///
    /// Bit-identical to `kind` analysed from scratch over
    /// [`IncrementalContext::system`]; the same call as
    /// [`IncrementalContext::analyze_with_budget`] under an
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

    /// [`IncrementalContext::analyze`] under a cooperative [`Budget`]: the
    /// solver polls the budget and aborts once it is exceeded, so serving
    /// layers can bound the wall-clock cost of a single query.
    ///
    /// # Errors
    ///
    /// [`AnalysisError::DeadlineExceeded`] when the budget expires
    /// mid-solve, plus the conditions of [`IncrementalContext::analyze`].
    /// On any error this kind's cache is marked all-dirty, so a later call
    /// (with a fresh budget) recovers with a full solve — pinned by the
    /// `incremental_equivalence` integration test.
    pub fn analyze_with_budget(
        &mut self,
        kind: AnalysisKind,
        budget: &Budget,
    ) -> Result<AnalysisReport, AnalysisError> {
        Solver::new(&self.ctx, kind.spec(), budget).solve_cached(&mut self.caches[kind.index()])
    }

    /// The cheap, non-iterative conservative bound over the current flow
    /// set — the degraded-mode answer when
    /// [`IncrementalContext::analyze_with_budget`] runs out of budget (see
    /// [`crate::conservative`] for the bound and its soundness argument).
    ///
    /// Total (never fails), does not touch the solve caches, and does not
    /// depend on them: it reads only the incrementally maintained structure.
    pub fn conservative_report(&self) -> AnalysisReport {
        crate::conservative::conservative_with(&self.ctx)
    }

    /// The current system.
    pub fn system(&self) -> &System {
        self.ctx.system()
    }

    /// The incrementally maintained interference graph.
    pub fn graph(&self) -> &InterferenceGraph {
        self.ctx.graph()
    }

    /// Number of flows currently covered.
    pub fn len(&self) -> usize {
        self.ctx.len()
    }

    /// `true` for an empty flow set.
    pub fn is_empty(&self) -> bool {
        self.ctx.is_empty()
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
    fn assert_matches_scratch(ctx: &mut IncrementalContext) {
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
        let mut ctx = IncrementalContext::new(mesh_system(&SPECS[..1])).unwrap();
        for &spec in &SPECS[1..] {
            let id = ctx.add_flow(mesh_flow(spec), &XyRouting).unwrap();
            assert_eq!(id.index() + 1, ctx.len());
            assert_matches_scratch(&mut ctx);
        }
    }

    #[test]
    fn removals_match_from_scratch_solves() {
        let mut ctx = IncrementalContext::new(mesh_system(&SPECS)).unwrap();
        for victim in [2u32, 0, 2] {
            ctx.remove_flow(FlowId::new(victim)).unwrap();
            assert_matches_scratch(&mut ctx);
        }
    }

    #[test]
    fn admission_roundtrip_restores_reports() {
        let mut ctx = IncrementalContext::new(mesh_system(&SPECS[..4])).unwrap();
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
        let mut ctx = IncrementalContext::new(mesh_system(&SPECS[..2])).unwrap();
        let id = ctx.add_flow(mesh_flow(SPECS[2]), &XyRouting).unwrap();
        assert_eq!(id, FlowId::new(2));
        ctx.remove_flow(FlowId::new(1)).unwrap();
        assert_eq!(ctx.len(), 2);
        assert_matches_scratch(&mut ctx);
    }

    #[test]
    fn from_context_matches_new() {
        let sys = mesh_system(&SPECS);
        let base = AnalysisContext::new(&sys).unwrap();
        let mut forked = IncrementalContext::from_context(&base);
        let mut fresh = IncrementalContext::new(sys.clone()).unwrap();
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
        let mut sibling = IncrementalContext::from_context(&base);
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
        let mut ctx = IncrementalContext::new(mesh_system(&SPECS)).unwrap();
        let clean = ctx.analyze(AnalysisKind::BufferAware).unwrap();

        // An unlimited budget is bit-identical to no budget.
        let mut unbudgeted = IncrementalContext::new(mesh_system(&SPECS)).unwrap();
        assert_eq!(
            unbudgeted
                .analyze_with_budget(AnalysisKind::BufferAware, &Budget::unlimited())
                .unwrap(),
            clean
        );

        // A pre-expired budget aborts with the structured deadline error …
        let mut starved = IncrementalContext::new(mesh_system(&SPECS)).unwrap();
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
        let mut ctx = IncrementalContext::new(mesh_system(&SPECS)).unwrap();
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
        let mut ctx = IncrementalContext::new(mesh_system(&SPECS)).unwrap();
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
        let mut ctx = IncrementalContext::new(mesh_system(&SPECS[..3])).unwrap();
        ctx.resize_buffer(RouterId::new(4), 16);
        assert_eq!(ctx.system().buffer_depth_at(RouterId::new(4)), 16);
        assert_matches_scratch(&mut ctx);
    }

    /// The full scan `buffer_dependents` replaced: every flow with a
    /// direct interferer whose contention domain holds a link into
    /// `router`.
    fn scanned_dependents(ctx: &IncrementalContext, router: RouterId) -> Vec<FlowId> {
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
        let mut ctx = IncrementalContext::new(sys).unwrap();
        let check = |ctx: &IncrementalContext| {
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
        let mut ctx = IncrementalContext::new(mesh_system(&SPECS[..2])).unwrap();
        ctx.resize_buffer(RouterId::new(0), 0);
    }

    #[test]
    fn out_of_bounds_removal_is_rejected() {
        let mut ctx = IncrementalContext::new(mesh_system(&SPECS[..2])).unwrap();
        assert!(ctx.remove_flow(FlowId::new(9)).is_err());
        assert_eq!(ctx.len(), 2);
    }
}

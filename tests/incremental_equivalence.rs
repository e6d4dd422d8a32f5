//! Regression guard for the incremental delta path: an owned
//! [`AnalysisContext`] driven through randomized add/remove/resize
//! sequences must report **bit-identically** — for all five
//! analyses — to a fresh context derived from scratch over the
//! same mutated system after every single step.
//!
//! The sequences deliberately recycle priorities freed by removals, so
//! additions land in the *middle* of the priority order (not just at the
//! bottom), exercising dirty-bit propagation through both the direct and
//! indirect interference sets of flows above and below the insertion
//! point. Interleaved [`AnalysisContext::resize_buffer`] steps retarget random
//! routers at random depths (including depth 1 and back), and candidate
//! flows carry random burst allowances, so the buffer-aware cache
//! invalidation and the arrival-curve plumbing are both exercised on the
//! same sequences.
//!
//! Before every step the sequences also run one
//! [`AnalysisContext::what_if`] scope (an admission, a removal of a
//! random id or a router resize, solved inside, the conservative bound
//! too), drawn from a second
//! stream so the delta sequences stay as they were: the scope must leave
//! the graph, flows, routes, buffer map and zero-load latencies equal to
//! their pre-scope state, and the answers after it must still match a
//! from-scratch solve.

use noc_mpb::prelude::*;
use noc_mpb::workload::didactic;
use noc_mpb::workload::synthetic::SyntheticSpec;

/// Minimal deterministic PRNG (xorshift64): the umbrella crate carries no
/// rand dependency, and the delta sequences must be reproducible anyway.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn chance(&mut self, pct: u64) -> bool {
        self.below(100) < pct
    }
}

/// Every analysis kind, incremental vs from-scratch, after one delta.
fn assert_matches_scratch(ctx: &mut AnalysisContext<'_>, label: &str, step: usize) {
    let system = ctx.system().clone();
    let scratch = AnalysisContext::new(&system).expect("mutated system stays analysable");
    for kind in AnalysisKind::ALL {
        let incremental = ctx.analyze(kind).expect("incremental analysis succeeds");
        let full = kind
            .as_analysis()
            .analyze_with(&scratch)
            .expect("from-scratch analysis succeeds");
        assert_eq!(
            incremental, full,
            "{label}, step {step}: incremental {kind:?} diverged from the from-scratch solve"
        );
    }
}

/// A candidate flow templated on existing flows so it is routable under
/// any fixture routing (including the didactic table). With
/// `cross_pairs`, source and destination may come from different
/// templates (mesh fixtures route any pair via XY).
fn random_candidate(
    rng: &mut XorShift,
    system: &System,
    priority: Priority,
    cross_pairs: bool,
) -> Flow {
    let ids: Vec<FlowId> = system.flows().ids().collect();
    let t1 = system
        .flows()
        .flow(ids[rng.below(ids.len() as u64) as usize]);
    let t2 = system
        .flows()
        .flow(ids[rng.below(ids.len() as u64) as usize]);
    let (source, dest) = if cross_pairs && t1.source() != t2.dest() {
        (t1.source(), t2.dest())
    } else {
        (t1.source(), t1.dest())
    };
    Flow::builder(source, dest)
        .priority(priority)
        .period(Cycles::new(500 + 250 * rng.below(16)))
        .length_flits(4 + rng.below(60) as u32)
        .burst(rng.below(3) as u32)
        .build()
}

/// Everything a [`AnalysisContext::what_if`] scope must put back.
#[derive(Debug, PartialEq)]
struct Snapshot {
    graph: InterferenceGraph,
    flows: FlowSet,
    routes: Vec<Route>,
    buffers: BufferMap,
    zero_load: Vec<Cycles>,
}

impl Snapshot {
    fn of(ctx: &AnalysisContext<'_>) -> Snapshot {
        let system = ctx.system();
        Snapshot {
            graph: ctx.graph().clone(),
            flows: system.flows().clone(),
            routes: system
                .flows()
                .ids()
                .map(|id| system.route(id).clone())
                .collect(),
            buffers: system.buffer_map().clone(),
            zero_load: system.flows().ids().map(|id| ctx.zero_load(id)).collect(),
        }
    }
}

/// One what-if scope on `ctx`, cycling through the three delta kinds by
/// `step`: an admission at the unused `priority`, a removal of a random
/// id, or a router resize, each solved inside the scope against a
/// from-scratch solve of the what-if system. The scope must restore the
/// pre-scope state exactly.
fn what_if_step(
    ctx: &mut AnalysisContext<'_>,
    rng: &mut XorShift,
    routing: &dyn RoutingAlgorithm,
    cross_pairs: bool,
    priority: Priority,
    (label, step): (&str, usize),
) {
    let before = Snapshot::of(ctx);
    let label = format!("{label} what-if");
    ctx.what_if(|ctx| {
        match step % 3 {
            0 => {
                let candidate = random_candidate(rng, ctx.system(), priority, cross_pairs);
                ctx.add_flow(candidate, routing)
                    .expect("addition applies cleanly");
            }
            1 => {
                let id = FlowId::new(rng.below(ctx.len() as u64) as u32);
                ctx.remove_flow(id).expect("removal applies cleanly");
            }
            _ => {
                let routers = ctx.system().topology().router_count() as u64;
                let router = RouterId::new(rng.below(routers) as u32);
                ctx.resize_buffer(router, 1 + rng.below(16) as u32);
            }
        }
        assert_matches_scratch(ctx, &label, step);
        ctx.conservative_report();
    });
    assert_eq!(
        Snapshot::of(ctx),
        before,
        "{label}, step {step}: state not restored"
    );
    assert_matches_scratch(ctx, &label, step);
}

/// Drives `steps` random deltas through one fixture, checking equivalence
/// after a what-if scope before every step and after the step itself,
/// then drains back to the original size and checks once more.
fn exercise(
    label: &str,
    system: System,
    routing: &dyn RoutingAlgorithm,
    cross_pairs: bool,
    steps: usize,
    seed: u64,
) {
    let min_flows = system.flows().len();
    let max_flows = min_flows + 6;
    let mut next_priority = system
        .flows()
        .iter()
        .map(|(_, f)| f.priority().level())
        .max()
        .expect("fixtures are non-empty")
        + 1;
    let mut freed_priorities: Vec<Priority> = Vec::new();
    let mut rng = XorShift(seed | 1);
    let mut what_if_rng = XorShift(seed.rotate_left(32) | 1);
    let mut ctx = AnalysisContext::owned(system).expect("fixture is analysable");

    for step in 0..steps {
        let fresh = Priority::new(next_priority);
        let at = (label, step);
        what_if_step(&mut ctx, &mut what_if_rng, routing, cross_pairs, fresh, at);
        let len = ctx.len();
        if rng.chance(30) {
            // Interleave a per-router buffer resize with the flow churn.
            let routers = ctx.system().topology().router_count() as u64;
            let router = RouterId::new(rng.below(routers) as u32);
            let depth = 1 + rng.below(16) as u32;
            ctx.resize_buffer(router, depth);
            assert_matches_scratch(&mut ctx, label, step);
            continue;
        }
        let add = len <= min_flows || (len < max_flows && rng.chance(60));
        if add {
            let priority = if !freed_priorities.is_empty() && rng.chance(50) {
                freed_priorities.remove(rng.below(freed_priorities.len() as u64) as usize)
            } else {
                next_priority += 1;
                Priority::new(next_priority - 1)
            };
            let candidate = random_candidate(&mut rng, ctx.system(), priority, cross_pairs);
            ctx.add_flow(candidate, routing)
                .expect("addition applies cleanly");
        } else {
            let id = FlowId::new(rng.below(len as u64) as u32);
            freed_priorities.push(ctx.system().flows().flow(id).priority());
            ctx.remove_flow(id).expect("removal applies cleanly");
        }
        assert_matches_scratch(&mut ctx, label, step);
    }

    while ctx.len() > min_flows {
        let id = FlowId::new(rng.below(ctx.len() as u64) as u32);
        ctx.remove_flow(id).expect("drain removal applies cleanly");
    }
    assert_matches_scratch(&mut ctx, label, steps);
}

/// A solve that trips the convergence cap poisons the whole cache (every
/// flow goes dirty), but must not poison the *context*: once the
/// offending flow is removed, every analysis reports bit-identically to a
/// from-scratch solve and to the pre-failure reports.
#[test]
fn convergence_cap_failure_recovers_to_scratch_equivalence() {
    let topology = Topology::mesh(3, 1);
    let victim = Flow::builder(NodeId::new(1), NodeId::new(2))
        .priority(Priority::new(2))
        .period(Cycles::new(10_000_000_000))
        .length_flits(32)
        .build();
    let flows = FlowSet::new(vec![victim]).expect("single victim flow is valid");
    let system =
        System::new(topology, NocConfig::default(), flows, &XyRouting).expect("3x1 mesh builds");
    let mut ctx = AnalysisContext::owned(system).expect("victim-only system is analysable");
    let clean: Vec<AnalysisReport> = AnalysisKind::ALL
        .iter()
        .map(|&k| ctx.analyze(k).expect("victim-only system converges"))
        .collect();

    // A near-saturating high-priority interferer: each victim iteration
    // grows the window past another period, so the fixed point never
    // settles and the solver's convergence cap trips.
    let saturating = Flow::builder(NodeId::new(0), NodeId::new(2))
        .priority(Priority::new(1))
        .period(Cycles::new(19))
        .length_flits(16)
        .build();
    let id = ctx
        .add_flow(saturating, &XyRouting)
        .expect("saturating flow routes");
    let err = ctx.analyze(AnalysisKind::Xlwx);
    assert!(
        matches!(err, Err(AnalysisError::ConvergenceCap { .. })),
        "saturating fixture must trip the cap, got {err:?}"
    );

    // The conservative bound stays total where the fixed point gave up.
    let conservative = ctx.conservative_report();
    assert_eq!(
        conservative.len(),
        2,
        "conservative report covers all flows"
    );

    ctx.remove_flow(id)
        .expect("saturating flow removes cleanly");
    assert_matches_scratch(&mut ctx, "cap_recovery", 0);
    for (&kind, before) in AnalysisKind::ALL.iter().zip(&clean) {
        let after = ctx
            .analyze(kind)
            .expect("recovered context converges again");
        assert_eq!(
            &after, before,
            "post-recovery {kind:?} diverged from the pre-failure report"
        );
    }
}

#[test]
fn didactic_delta_sequences_match_from_scratch() {
    // The paper fixture pins vc(Ξ) = 3, which would veto a fourth
    // priority level; auto-sized VCs let admissions through. Didactic
    // routes come from Table I, so candidates reuse existing (src, dst)
    // pairs only.
    let (system, table) = didactic::system_with_routing(2);
    let system = system
        .with_virtual_channels(None)
        .expect("didactic VCs auto-size");
    exercise("didactic", system, &table, false, 12, 0x5EED_0001);
}

#[test]
fn mesh_4x4_delta_sequences_match_from_scratch() {
    let system = SyntheticSpec::paper(4, 4, 24, 2).generate(7).into_system();
    exercise("4x4_24", system, &XyRouting, true, 10, 0x5EED_0002);
}

#[test]
fn mesh_8x8_delta_sequences_match_from_scratch() {
    let system = SyntheticSpec::paper(8, 8, 80, 2).generate(11).into_system();
    exercise("8x8_80", system, &XyRouting, true, 8, 0x5EED_0003);
}

/// Sequences starting from an already-heterogeneous, already-bursty base:
/// resizes stack on top of generated per-router overrides, and removals
/// can evict bursty flows.
#[test]
fn bursty_hetero_delta_sequences_match_from_scratch() {
    let system = SyntheticSpec::paper(4, 4, 20, 2)
        .with_burst_range(0, 2)
        .with_buffer_depth_range(2, 8)
        .generate(13)
        .into_system();
    assert!(system.has_heterogeneous_buffers());
    exercise("4x4_20_hetero", system, &XyRouting, true, 10, 0x5EED_0004);
}

/// The four sequences above at length: at least 200 steps each in the
/// exhaustive soundness leg (`NOC_MPB_SWEEP_EXHAUSTIVE=1`, run in release
/// mode), a short smoke otherwise.
#[test]
fn long_delta_sequences_match_from_scratch() {
    let steps = if std::env::var("NOC_MPB_SWEEP_EXHAUSTIVE").is_ok_and(|v| v == "1") {
        200
    } else {
        4
    };
    let (didactic_system, table) = didactic::system_with_routing(2);
    let didactic_system = didactic_system
        .with_virtual_channels(None)
        .expect("didactic VCs auto-size");
    exercise(
        "didactic_long",
        didactic_system,
        &table,
        false,
        steps,
        0x5EED_0101,
    );
    let mesh = SyntheticSpec::paper(4, 4, 24, 2).generate(7).into_system();
    exercise("4x4_24_long", mesh, &XyRouting, true, steps, 0x5EED_0102);
    let mesh = SyntheticSpec::paper(8, 8, 80, 2).generate(11).into_system();
    exercise("8x8_80_long", mesh, &XyRouting, true, steps, 0x5EED_0103);
    let hetero = SyntheticSpec::paper(4, 4, 20, 2)
        .with_burst_range(0, 2)
        .with_buffer_depth_range(2, 8)
        .generate(13)
        .into_system();
    exercise(
        "4x4_20_hetero_long",
        hetero,
        &XyRouting,
        true,
        steps,
        0x5EED_0104,
    );
}

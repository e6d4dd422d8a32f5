//! Reusable benchmark bodies shared by the `cargo bench` targets and the
//! `bench_json` bench-to-JSON binary.
//!
//! The perf-trajectory policy of this repo is that speed claims must come
//! with numbers: the same closures that `cargo bench` times are run here
//! under a [`criterion::Criterion`] carrying a measurement sink (the shim's
//! machine-readable hook), so `BENCH_sim.json` and the console benches can
//! never drift apart.

use criterion::{BenchmarkId, Criterion};
use noc_analysis::prelude::*;
use noc_experiments::table2::{self, SweepMode};
use noc_model::prelude::*;
use noc_sim::prelude::*;
use noc_workload::didactic;
use std::hint::black_box;

use crate::{dense_sim_system, production_system};

/// One simulator-throughput fixture: a system plus the horizon to simulate.
#[derive(Debug)]
pub struct SimFixture {
    /// Fixture label as it appears in bench output and `BENCH_sim.json`.
    pub name: String,
    /// The system to simulate.
    pub system: System,
    /// Cycles simulated per iteration.
    pub cycles: u64,
}

impl SimFixture {
    fn new(name: &str, system: System, cycles: u64) -> SimFixture {
        SimFixture {
            name: format!("{name}/{cycles}-cycles"),
            system,
            cycles,
        }
    }
}

/// The simulator-throughput fixture set.
///
/// `production` adds the north-star fixture — the §VI workload on a 16×16
/// mesh with 2000 flows — which dominates the suite's wall-clock; CI's fast
/// mode leaves it out.
pub fn sim_fixtures(production: bool) -> Vec<SimFixture> {
    let mut fixtures = vec![
        SimFixture::new("didactic-6r", didactic::system(10), 10_000),
        SimFixture::new("dense-4x4", dense_sim_system(11), 10_000),
    ];
    if production {
        fixtures.push(SimFixture::new(
            "production-16x16-2000f",
            production_system(2_000, 4, 0xC0DE),
            2_000,
        ));
    }
    fixtures
}

/// Bench group `sim_throughput`: one synchronous-release run per fixture.
pub fn bench_sim_throughput(c: &mut Criterion, fixtures: &[SimFixture]) {
    let mut group = c.benchmark_group("sim_throughput");
    for fixture in fixtures {
        group.throughput(criterion::Throughput::Elements(fixture.cycles));
        group.bench_function(fixture.name.as_str(), |b| {
            b.iter(|| {
                let mut sim =
                    Simulator::new(&fixture.system, ReleasePlan::synchronous(&fixture.system));
                sim.run_until(Cycles::new(fixture.cycles));
                black_box(sim.now())
            })
        });
    }
    group.finish();
}

/// Label of the Table II sweep fixture in bench output and JSON.
pub const TABLE2_SWEEP_LABEL: &str = "table2/critical-sweep-b2b10";

/// Total cycles simulated by one [`bench_table2_sweep`] iteration (both
/// buffer depths, all critical-instant candidates, 18k cycles each).
pub fn table2_sweep_cycles() -> u64 {
    let sys = didactic::system(2);
    let f = noc_workload::didactic::DidacticFlows::ids();
    let period = sys.flow(f.tau1).period();
    let sims = critical_offset_candidates(&sys, f.tau1, period).len() as u64;
    2 * sims * 18_000
}

/// Bench group `table2`: the didactic experiment's simulation columns — the
/// pruned critical-instant offset sweep at both buffer depths (the kernel
/// behind `R^sim(b=10)` / `R^sim(b=2)` of Table II).
pub fn bench_table2_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("table2");
    group.bench_function("critical-sweep-b2b10", |b| {
        b.iter(|| {
            let b10 = table2::simulate_worst(10, SweepMode::Critical);
            let b2 = table2::simulate_worst(2, SweepMode::Critical);
            black_box((b10.worst, b2.worst))
        })
    });
    group.finish();
}

/// Bench group `batch_sweep`: the shared-layout batch simulation path
/// ([`BatchSimulator`]) against per-plan `Simulator` construction, on the
/// didactic critical-instant sweep.
pub fn bench_batch_sweep(c: &mut Criterion) {
    let sys = didactic::system(2);
    let f = noc_workload::didactic::DidacticFlows::ids();
    let period = sys.flow(f.tau1).period();
    let horizon = Cycles::new(18_000);
    let mut group = c.benchmark_group("batch_sweep");
    group.bench_function("didactic/per-plan-simulators", |b| {
        b.iter(|| {
            let mut worst = Cycles::ZERO;
            for plan in critical_offset_sweep(&sys, f.tau1, period) {
                let mut sim = Simulator::new(&sys, plan);
                sim.run_until(horizon);
                if let Some(w) = sim.flow_stats(f.tau3).worst_latency() {
                    worst = worst.max(w);
                }
            }
            black_box(worst)
        })
    });
    group.bench_function("didactic/batch-shared-layout", |b| {
        b.iter(|| {
            let mut batch = BatchSimulator::new(&sys);
            let mut worst = Cycles::ZERO;
            for plan in critical_offset_sweep(&sys, f.tau1, period) {
                let stats = batch.run(&plan, horizon);
                if let Some(w) = stats[f.tau3.index()].worst_latency() {
                    worst = worst.max(w);
                }
            }
            black_box(worst)
        })
    });
    group.finish();
}

/// Fixture of the `hetero_analysis` group: `(label, system)`.
///
/// The production fixture is the heterogeneous north-star scenario (16×16
/// mesh, 1000 flows, per-router depths 2–8, bursts σ ≤ 2); fast mode drops
/// to an 8×8 mesh with the same depth/burst distributions.
pub fn hetero_fixture(production: bool) -> (&'static str, System) {
    if production {
        (
            "16x16_1000_hetero",
            crate::heterogeneous_system(16, 1_000, 0xC0DE),
        )
    } else {
        (
            "8x8_260_hetero",
            crate::heterogeneous_system(8, 260, 0xC0DE),
        )
    }
}

/// Bench group `hetero_analysis`: the buffer-aware analysis over a
/// heterogeneous-depth bursty workload — the slow (per-router) path of
/// Equation 6 — plus a batch of per-router buffer what-if queries served
/// through the incremental resize path.
pub fn bench_hetero_analysis(c: &mut Criterion, label: &str, system: &System) {
    let mut group = c.benchmark_group("hetero_analysis");
    group.bench_with_input(BenchmarkId::new("buffer-aware", label), system, |b, sys| {
        let ctx = AnalysisContext::new(sys).unwrap();
        b.iter(|| black_box(BufferAware.analyze_with(&ctx).unwrap()))
    });
    let base = AnalysisContext::new(system).expect("bench fixture is analysable");
    let routers = system.topology().router_count();
    let batch = noc_serve::QueryBatch {
        analysis: AnalysisKind::BufferAware,
        queries: (0..32usize)
            .map(|i| noc_serve::Query::RouterBufferWhatIf {
                router: RouterId::new((i * 7 % routers) as u32),
                depth: 2 + (i % 7) as u32,
            })
            .collect(),
    };
    group.bench_with_input(
        BenchmarkId::new("router-what-if-batch", label),
        system,
        |b, _| b.iter(|| black_box(noc_serve::run_batch(&base, &batch, &XyRouting, 2))),
    );
    group.finish();
}

//! The four groups of the `bench_json` ledger, timed by a [`Sampler`].
//!
//! Each group returns one [`Row`] per fixture: its label, the cycles it
//! simulates per iteration and the sampled [`Stats`]. The label and the
//! cycles are set together, next to the body that is timed, so a row can
//! never carry another fixture's cycles.

use noc_analysis::prelude::*;
use noc_experiments::table2::{self, SweepMode};
use noc_model::prelude::*;
use noc_sim::prelude::*;
use noc_workload::didactic;

use crate::sampler::{Sampler, Stats};
use crate::{dense_sim_system, production_system};

/// One timed fixture of the ledger.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Fixture label as it appears in `BENCH_sim.json` (`group/fixture`).
    pub label: String,
    /// Cycles simulated per iteration; 0 for the analysis-side
    /// `hetero_analysis` group.
    pub cycles: u64,
    /// The sampled timings.
    pub stats: Stats,
}

/// One simulator-throughput fixture: a system plus the horizon to simulate.
#[derive(Debug)]
pub struct SimFixture {
    /// Fixture label within the `sim_throughput` group.
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

/// Every group of the ledger, in `BENCH_sim.json` order; `production`
/// adds the 16×16 fixtures.
pub fn ledger(sampler: &Sampler, production: bool) -> Vec<Row> {
    let mut rows = sim_throughput(sampler, &sim_fixtures(production));
    rows.push(table2_sweep(sampler));
    rows.extend(batch_sweep(sampler));
    let (label, system) = hetero_fixture(production);
    rows.extend(hetero_analysis(sampler, label, &system));
    rows
}

/// Group `sim_throughput`: one synchronous-release run per fixture.
pub fn sim_throughput(sampler: &Sampler, fixtures: &[SimFixture]) -> Vec<Row> {
    fixtures
        .iter()
        .map(|fixture| Row {
            label: format!("sim_throughput/{}", fixture.name),
            cycles: fixture.cycles,
            stats: sampler.run(|| {
                let mut sim =
                    Simulator::new(&fixture.system, ReleasePlan::synchronous(&fixture.system));
                sim.run_until(Cycles::new(fixture.cycles));
                sim.now()
            }),
        })
        .collect()
}

/// Cycles one buffer depth of the Table II sweep simulates: every
/// critical-instant candidate of τ1, 18k cycles each.
fn critical_sweep_cycles() -> u64 {
    let sys = didactic::system(2);
    let f = didactic::DidacticFlows::ids();
    let period = sys.flow(f.tau1).period();
    critical_offset_candidates(&sys, f.tau1, period).len() as u64 * 18_000
}

/// Group `table2`: the didactic experiment's simulation columns — the
/// pruned critical-instant offset sweep at both buffer depths (the kernel
/// behind `R^sim(b=10)` / `R^sim(b=2)` of Table II).
pub fn table2_sweep(sampler: &Sampler) -> Row {
    Row {
        label: "table2/critical-sweep-b2b10".to_string(),
        cycles: 2 * critical_sweep_cycles(),
        stats: sampler.run(|| {
            let b10 = table2::simulate_worst(10, SweepMode::Critical);
            let b2 = table2::simulate_worst(2, SweepMode::Critical);
            (b10.worst, b2.worst)
        }),
    }
}

/// Group `batch_sweep`: the shared-layout batch simulation path
/// ([`BatchSimulator`]) against per-plan `Simulator` construction, on one
/// buffer depth of the didactic critical-instant sweep.
pub fn batch_sweep(sampler: &Sampler) -> Vec<Row> {
    let sys = didactic::system(2);
    let f = didactic::DidacticFlows::ids();
    let period = sys.flow(f.tau1).period();
    let horizon = Cycles::new(18_000);
    let cycles = critical_sweep_cycles();
    vec![
        Row {
            label: "batch_sweep/didactic/per-plan-simulators".to_string(),
            cycles,
            stats: sampler.run(|| {
                let mut worst = Cycles::ZERO;
                for plan in critical_offset_sweep(&sys, f.tau1, period) {
                    let mut sim = Simulator::new(&sys, plan);
                    sim.run_until(horizon);
                    if let Some(w) = sim.flow_stats(f.tau3).worst_latency() {
                        worst = worst.max(w);
                    }
                }
                worst
            }),
        },
        Row {
            label: "batch_sweep/didactic/batch-shared-layout".to_string(),
            cycles,
            stats: sampler.run(|| {
                let mut batch = BatchSimulator::new(&sys);
                let mut worst = Cycles::ZERO;
                for plan in critical_offset_sweep(&sys, f.tau1, period) {
                    let stats = batch.run(&plan, horizon);
                    if let Some(w) = stats[f.tau3.index()].worst_latency() {
                        worst = worst.max(w);
                    }
                }
                worst
            }),
        },
    ]
}

/// Fixture of the `hetero_analysis` group: `(label, system)`.
///
/// The production fixture is the heterogeneous north-star scenario (16×16
/// mesh, per-router depths 2–8, bursts σ ≤ 2) at the load of perfbench's
/// serve base: 700 flows, every period ×4. IBN certifies every flow of it.
/// (The earlier 1000 flows at the paper's periods left 759 flows tainted,
/// so that row mostly timed the taint short-circuit.) Fast mode drops to
/// an 8×8 mesh with 260 flows at the paper's periods and the same
/// depth/burst distributions.
pub fn hetero_fixture(production: bool) -> (&'static str, System) {
    if production {
        let system = crate::heterogeneous_system(16, 700, 0xC0DE);
        let lighter = system.with_scaled_periods(4, 1);
        (
            "16x16_700_hetero_p4",
            lighter.expect("scaling up keeps flows valid"),
        )
    } else {
        (
            "8x8_260_hetero",
            crate::heterogeneous_system(8, 260, 0xC0DE),
        )
    }
}

/// Group `hetero_analysis`: the buffer-aware analysis over a
/// heterogeneous-depth bursty workload — the slow (per-router) path of
/// Equation 6 — plus a batch of per-router buffer what-if queries served
/// through the incremental resize path.
pub fn hetero_analysis(sampler: &Sampler, label: &str, system: &System) -> Vec<Row> {
    // Two contexts, so that the analysis' solves do not warm the base the
    // what-if batch is served from.
    let ctx = AnalysisContext::new(system).expect("bench fixture is analysable");
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
    vec![
        Row {
            label: format!("hetero_analysis/buffer-aware/{label}"),
            cycles: 0,
            stats: sampler.run(|| BufferAware.analyze_with(&ctx).unwrap()),
        },
        Row {
            label: format!("hetero_analysis/router-what-if-batch/{label}"),
            cycles: 0,
            stats: sampler.run(|| noc_serve::run_batch(&base, &batch, &XyRouting, 2)),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// IBN taints at most 10 % of the flows of either `hetero_analysis`
    /// fixture, so both rows time fixed points.
    #[test]
    fn hetero_fixtures_are_mostly_untainted() {
        for production in [false, true] {
            let (label, system) = hetero_fixture(production);
            let report = BufferAware.analyze(&system).unwrap();
            let tainted = report.iter().filter(|(_, v)| *v == FlowVerdict::Tainted);
            let (tainted, n) = (tainted.count(), report.len());
            assert!(10 * tainted <= n, "{label}: {tainted} of {n} flows tainted");
        }
    }

    /// The fast ledger keeps its labels, and every simulator-side row
    /// carries the non-zero cycles of its own fixture.
    #[test]
    fn fast_ledger_rows_carry_their_own_fixture_cycles() {
        let sampler = Sampler {
            samples: 1,
            budget: Duration::ZERO,
        };
        let rows = ledger(&sampler, false);
        let labels: Vec<&str> = rows.iter().map(|r| r.label.as_str()).collect();
        assert_eq!(
            labels,
            [
                "sim_throughput/didactic-6r/10000-cycles",
                "sim_throughput/dense-4x4/10000-cycles",
                "table2/critical-sweep-b2b10",
                "batch_sweep/didactic/per-plan-simulators",
                "batch_sweep/didactic/batch-shared-layout",
                "hetero_analysis/buffer-aware/8x8_260_hetero",
                "hetero_analysis/router-what-if-batch/8x8_260_hetero",
            ]
        );

        // One buffer depth of the sweep, counted plan by plan.
        let sys = didactic::system(2);
        let f = didactic::DidacticFlows::ids();
        let plans = critical_offset_sweep(&sys, f.tau1, sys.flow(f.tau1).period()).len() as u64;
        let sweep = plans * 18_000;
        for row in &rows {
            let expected = match row.label.split('/').next().unwrap() {
                // The horizon the label names.
                "sim_throughput" => row
                    .label
                    .strip_suffix("-cycles")
                    .and_then(|l| l.rsplit('/').next())
                    .unwrap()
                    .parse()
                    .unwrap(),
                "table2" => 2 * sweep,
                "batch_sweep" => sweep,
                _ => 0,
            };
            assert_eq!(row.cycles, expected, "{}", row.label);
            assert_eq!(
                row.cycles > 0,
                !row.label.starts_with("hetero_analysis/"),
                "{}",
                row.label
            );
        }
    }
}

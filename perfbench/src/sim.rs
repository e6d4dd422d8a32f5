//! The simulation check of `design-sweep`: the paper's soundness claim
//! `R^sim ≤ R^IBN`, checked on a named busy fabric outside the timed loop.
//! Traced runs time the `noc-sim` layers on the same fabric.

use std::time::Instant;

use noc_analysis::prelude::*;
use noc_model::prelude::*;
use noc_sim::{BatchSimulator, ReleasePlan};
use noc_workload::synthetic::SyntheticSpec;

use crate::util::{ms_since, Digest, Layers, Rng};
use crate::{ratio, Check, Counters};

const MESH: u16 = 8;
const FLOWS: usize = 128;
const PERIODS: (u64, u64) = (5_000, 50_000);
const LENGTHS: (u32, u32) = (16, 256);
/// Inside the simulator's `buf ≥ 2` fidelity domain.
const DEPTH: u32 = 2;
const HORIZON: Cycles = Cycles::new(200_000);
/// The fixture is a named system; `--seed` drives the release plans.
const FIXTURE_SEED: u64 = 0x51A7;
/// Plans simulated by every run's check.
const PLANS: u64 = 4;

fn fixture() -> System {
    let mut spec = SyntheticSpec::paper(MESH, MESH, FLOWS, DEPTH);
    spec.period_range = PERIODS;
    spec.length_range = LENGTHS;
    spec.generate(FIXTURE_SEED).into_system()
}

pub struct Fabric {
    seed: u64,
    system: &'static System,
    batch: BatchSimulator<'static>,
    /// `R^IBN` per flow, in cycles.
    bounds: Vec<u64>,
    /// Flit-hops one delivered packet of each flow makes.
    flit_hops: Vec<u64>,
}

impl Fabric {
    /// Builds the fabric, fails unless IBN certifies every flow, and lays
    /// out the simulator.
    pub fn setup(seed: u64, layers: &mut Layers) -> Result<Fabric, String> {
        // Leaked so the simulator can borrow it for the whole run.
        let system: &'static System = Box::leak(Box::new(fixture()));
        let ctx = AnalysisContext::new(system).map_err(|e| format!("sim fixture: {e}"))?;
        let report = BufferAware
            .analyze_with(&ctx)
            .map_err(|e| format!("sim fixture: {e}"))?;
        let bounds: Vec<u64> = report
            .iter()
            .map(|(_, v)| v.response_time().map(Cycles::as_u64))
            .collect::<Option<_>>()
            .ok_or_else(|| {
                format!(
                    "sim fixture guard: IBN certifies only {} of {FLOWS} flows",
                    report.schedulable_count()
                )
            })?;
        let flit_hops = system
            .flows()
            .iter()
            .map(|(id, f)| u64::from(f.length_flits()) * system.route(id).len() as u64)
            .collect();
        let batch = layers.time("noc-sim.layout_ms", || BatchSimulator::new(system));
        Ok(Fabric {
            seed,
            system,
            batch,
            bounds,
            flit_hops,
        })
    }

    /// Plan `j`: every flow released periodically from a seeded offset in
    /// `[0, period)`.
    fn plan(&self, j: u64) -> ReleasePlan {
        let mut rng = Rng::stream(self.seed, j);
        self.system
            .flows()
            .iter()
            .fold(ReleasePlan::synchronous(self.system), |plan, (id, f)| {
                plan.with_offset(id, Cycles::new(rng.range(0, f.period().as_u64() - 1)))
            })
    }

    /// Simulates the check's plans. Every flow of every plan must deliver
    /// and stay within its IBN bound. Returns a digest of every simulated
    /// latency and of the simulator's work counters.
    pub fn validate(&mut self, check: &mut Check) -> u64 {
        let mut digest = Digest::default();
        let (mut slack, mut bad) = (u64::MAX, 0);
        let ((), counters) = Counters::traced(|| {
            for j in 0..PLANS {
                let plan = self.plan(j);
                let stats = self.batch.run(&plan, HORIZON);
                let mut violations = 0;
                for (s, bound) in stats.iter().zip(&self.bounds) {
                    digest.u64(s.delivered());
                    for latency in s.latencies() {
                        digest.u64(latency.as_u64());
                    }
                    match s.worst_latency().map(Cycles::as_u64) {
                        Some(w) if w <= *bound => slack = slack.min(bound - w),
                        _ => violations += 1,
                    }
                }
                if violations > 0 {
                    bad += 1;
                    check.problems.push(format!(
                        "sim plan {j}: {violations} flows undelivered or above their IBN bound"
                    ));
                }
            }
        });
        for v in [
            counters.sim_steps,
            counters.sim_cycles_skipped,
            counters.sim_credit_stalls,
        ] {
            digest.u64(v);
        }
        if bad == 0 {
            check.notes.push(format!(
                "R^sim ≤ R^IBN for all {FLOWS} flows of the sim fabric in {PLANS} plans \
                 (tightest slack {slack} cycles)"
            ));
        }
        digest.finish()
    }

    /// Simulates plan `j`, timing the run from outside, then again with
    /// telemetry on for the simulator's work counters.
    pub fn replay(&mut self, j: u64, layers: &mut Layers) {
        let plan = self.plan(j);
        let start = Instant::now();
        let work: u64 = self
            .batch
            .run(&plan, HORIZON)
            .iter()
            .zip(&self.flit_hops)
            .map(|(s, hops)| s.delivered() * hops)
            .sum();
        let ms = ms_since(start);
        layers.record("noc-sim.run_ms", ms);
        layers.record("noc-sim.ns_per_flit_hop", ms * 1e6 / work as f64);
        let (_, c) = Counters::traced(|| self.batch.run(&plan, HORIZON).len());
        layers.record("noc-sim.steps", c.sim_steps as f64);
        layers.record(
            "noc-sim.cycles_skipped_ratio",
            ratio(c.sim_cycles_skipped, c.sim_cycles_skipped + c.sim_steps),
        );
        layers.record("noc-sim.credit_stall_cycles", c.sim_credit_stalls as f64);
    }
}

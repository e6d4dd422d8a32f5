//! `design-sweep`: Figure 4(b) as users run it. Each operation judges two
//! flow sets at once, one per thread, as the `fig4` runner does: each
//! thread generates one seeded 8×8 paper-setup flow set, builds one
//! context and judges the set under SB, XLWX, IBN(2) and IBN(100).
//!
//! Its check also validates the bounds by simulation on a named fabric
//! ([`Fabric`]), outside the timed loop.

use std::collections::BTreeMap;
use std::time::Instant;

use noc_analysis::prelude::*;
use noc_experiments::fig4::{judge_set_with, SetVerdicts};
use noc_experiments::runner::par_map_indexed;
use noc_model::system::System;
use noc_workload::synthetic::SyntheticSpec;

use crate::sim::Fabric;
use crate::util::{mix, Digest, Layers, Rng};
use crate::{input_seed, ratio, Check, Counters, Op, Workload, THREADS};

const MESH: u16 = 8;
/// The paper's Fig. 4(b) x-axis: 80..=520 flows in steps of 20.
const FLOW_COUNTS: u64 = 23;
const BUFFER_SMALL: u32 = 2;
const BUFFER_LARGE: u32 = 100;
/// The share of IBN(2)-schedulable sets a run must see. Below it, most
/// solves would stop at the first deadline miss; above it, few would.
const BAND: (f64, f64) = (0.40, 0.75);
/// The looser band the 46 warm-up sets must meet at set-up.
const WARMUP_BAND: (f64, f64) = (0.25, 0.90);

fn flow_count(i: u64) -> usize {
    80 + 20 * (i % FLOW_COUNTS) as usize
}

pub struct Sweep {
    seed: u64,
    fabric: Fabric,
}

/// The verdicts of sets `THREADS·i ..` of operation `i`; `None` marks a
/// set whose context could not be built. Fixed-size, so memory does not
/// grow with the number of operations a run gets through.
pub struct Record {
    verdicts: [Option<SetVerdicts>; THREADS],
}

impl Sweep {
    pub fn setup(seed: u64, layers: &mut Layers) -> Result<Sweep, String> {
        Ok(Sweep {
            seed,
            fabric: Fabric::setup(seed, layers)?,
        })
    }

    /// Flow set `j`; operation `i` judges sets `THREADS·i ..`, so its
    /// threads get neighbouring points of the flow-count axis.
    fn set(&self, j: u64) -> System {
        let op = j / THREADS as u64;
        SyntheticSpec::paper(MESH, MESH, flow_count(j), BUFFER_SMALL)
            .generate(mix(input_seed(self.seed, op), j))
            .into_system()
    }

    /// Judges the sets of operation `i`, one per thread.
    fn judge(&self, i: u64, exhaustive: bool) -> Vec<Result<SetVerdicts, AnalysisError>> {
        par_map_indexed(THREADS, THREADS, |k| {
            let system = self.set(THREADS as u64 * i + k as u64);
            AnalysisContext::new(&system)
                .map(|ctx| judge_set_with(&ctx, BUFFER_SMALL, BUFFER_LARGE, exhaustive))
        })
    }

    /// Replays set `j` layer by layer.
    fn replay_set(&self, j: u64, layers: &mut Layers) {
        let system = layers.time("noc-workload.generate_ms", || self.set(j));
        let ctx = layers
            .time("noc-model.context_build_ms", || {
                AnalysisContext::new(&system)
            })
            .expect("mesh systems have contiguous contention domains");
        let small_sys = ctx.system().with_buffer_depth(BUFFER_SMALL);
        let small = ctx.rebased(&small_sys);
        let large_sys = ctx.system().with_buffer_depth(BUFFER_LARGE);
        let large = ctx.rebased(&large_sys);
        let solves: [(&'static str, &dyn Analysis, &AnalysisContext<'_>); 4] = [
            ("noc-analysis.solve_ms.sb", &ShiBurns, &small),
            ("noc-analysis.solve_ms.xlwx", &Xlwx, &small),
            ("noc-analysis.solve_ms.ibn2", &BufferAware, &small),
            ("noc-analysis.solve_ms.ibn100", &BufferAware, &large),
        ];
        for (name, analysis, ctx) in solves {
            std::hint::black_box(layers.time(name, || analysis.analyze_with(ctx)).ok());
        }
        std::hint::black_box(layers.time("noc-experiments.judge_ms", || {
            judge_set_with(&ctx, BUFFER_SMALL, BUFFER_LARGE, false)
        }));
    }
}

/// IBN(2)-schedulable sets and all sets among `records`.
fn ibn2_share<'a>(records: impl Iterator<Item = &'a Record>) -> (usize, usize) {
    records
        .flat_map(|r| &r.verdicts)
        .fold((0, 0), |(yes, all), v| {
            (yes + usize::from(v.is_some_and(|v| v.ibn_small)), all + 1)
        })
}

impl Workload for Sweep {
    type Record = Record;

    fn work_unit(&self) -> &'static str {
        "flow sets"
    }

    fn cycle(&self) -> u64 {
        FLOW_COUNTS
    }

    fn warmup_ops(&self) -> u64 {
        FLOW_COUNTS
    }

    fn digest_ops(&self) -> u64 {
        FLOW_COUNTS
    }

    fn counter_ops(&self) -> u64 {
        FLOW_COUNTS / 2
    }

    fn op(&mut self, i: u64) -> Op<Record> {
        let start = Instant::now();
        let judged = self.judge(i, false);
        let elapsed = start.elapsed();
        let mut verdicts = [None; THREADS];
        for (slot, v) in verdicts.iter_mut().zip(judged) {
            *slot = v.ok();
        }
        Op {
            elapsed,
            work: THREADS as f64,
            failed: verdicts.contains(&None),
            record: Record { verdicts },
        }
    }

    fn guard_warmup(&self, warmup: &[Record]) -> Result<(), String> {
        let (yes, all) = ibn2_share(warmup.iter());
        let share = yes as f64 / all as f64;
        if share < WARMUP_BAND.0 || share > WARMUP_BAND.1 {
            return Err(format!(
                "design-sweep fixture guard: {yes} of {all} warm-up sets are IBN(2)-schedulable, \
                 outside {WARMUP_BAND:?}"
            ));
        }
        Ok(())
    }

    fn check(&mut self, records: &[(u64, Record)]) -> Check {
        let mut check = Check::default();
        let (yes, all) = ibn2_share(records.iter().map(|(_, r)| r));
        let share = ratio(yes as u64, all as u64);
        check.notes.push(format!(
            "{yes} of {all} sets IBN(2)-schedulable ({:.1} %), band {BAND:?}",
            share * 100.0
        ));
        if share < BAND.0 || share > BAND.1 {
            check.problems.push(format!(
                "IBN(2)-schedulable share {share:.3} outside {BAND:?}"
            ));
        }
        // One sampled whole cycle (every flow count twice) judged
        // exhaustively: the inclusion chain holds and lazy judging agrees.
        let cycles = records.len() as u64 / FLOW_COUNTS;
        let c = Rng::stream(self.seed, u64::MAX).range(0, cycles.max(1) - 1);
        let mut agreed = 0;
        for (i, record) in records
            .iter()
            .skip((c * FLOW_COUNTS) as usize)
            .take(FLOW_COUNTS as usize)
        {
            let exhaustive = self.judge(*i, true);
            for (lazy, e) in record.verdicts.iter().zip(&exhaustive) {
                let ok = match (lazy, e) {
                    (Some(lazy), Ok(e)) => {
                        e == lazy && (!e.xlwx || e.ibn_large) && (!e.ibn_large || e.ibn_small)
                    }
                    _ => false,
                };
                if ok {
                    agreed += 1;
                } else {
                    check.failed_ops.insert(*i);
                    check
                        .problems
                        .push(format!("operation {i}: lazy {lazy:?}, exhaustive {e:?}"));
                }
            }
        }
        check.notes.push(format!(
            "{agreed} sampled sets: sched(XLWX) ⊆ sched(IBN100) ⊆ sched(IBN2) and lazy = exhaustive"
        ));
        let digest = self.fabric.validate(&mut check);
        check.digests.push(digest);
        check
    }

    fn digest_record(&self, record: &Record, d: &mut Digest) {
        for v in &record.verdicts {
            d.u64(v.map_or(16, |v| {
                u64::from(v.sb)
                    | u64::from(v.xlwx) << 1
                    | u64::from(v.ibn_small) << 2
                    | u64::from(v.ibn_large) << 3
            }));
        }
    }

    /// Replays the sets of operation `i` on their threads, so replayed
    /// calls meet the same contention.
    fn replay(&mut self, i: u64, layers: &mut Layers) {
        let replayed = par_map_indexed(THREADS, THREADS, |k| {
            let mut set_layers = Layers::default();
            self.replay_set(THREADS as u64 * i + k as u64, &mut set_layers);
            set_layers
        });
        for set_layers in replayed {
            layers.merge(set_layers);
        }
        self.fabric.replay(i, layers);
    }

    fn layer_metrics(
        &self,
        layers: &Layers,
        c: &Counters,
        ops: u64,
    ) -> BTreeMap<&'static str, f64> {
        let mut out: BTreeMap<&'static str, f64> = [
            "noc-workload.generate_ms",
            "noc-model.context_build_ms",
            "noc-analysis.solve_ms.sb",
            "noc-analysis.solve_ms.xlwx",
            "noc-analysis.solve_ms.ibn2",
            "noc-analysis.solve_ms.ibn100",
            "noc-experiments.judge_ms",
            "noc-sim.layout_ms",
            "noc-sim.run_ms",
            "noc-sim.ns_per_flit_hop",
            "noc-sim.steps",
            "noc-sim.cycles_skipped_ratio",
            "noc-sim.credit_stall_cycles",
        ]
        .into_iter()
        .map(|n| (n, layers.median(n)))
        .collect();
        out.insert(
            "noc-analysis.solver_iterations",
            ratio(c.solver_iterations, ops),
        );
        out
    }
}

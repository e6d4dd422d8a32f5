//! `serve-exact` and `serve-degraded`: admission-control what-if batches
//! against one live system through `noc_serve::run_batch`.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use noc_analysis::prelude::*;
use noc_model::prelude::*;
use noc_serve::{
    run_batch, run_batch_with, DegradeReason, Query, QueryBatch, QueryOutcome, ServeOptions,
};
use noc_workload::synthetic::SyntheticSpec;

use crate::util::{ms_since, Digest, Layers, Rng};
use crate::{input_seed, ratio, Check, Counters, Op, Workload, THREADS};

const MESH: u16 = 16;
const FLOWS: usize = 700;
/// The paper's period range ×4: with it IBN certifies every base flow, so
/// solves run the full fixed point instead of the taint short-circuit.
const PERIODS: (u64, u64) = (10_000, 10_000_000);
const BASE_DEPTH: u32 = 2;
/// The base system is a named fixture; `--seed` drives the query stream.
const FIXTURE_SEED: u64 = 0x5E7E;
const QUERIES: usize = 10;
/// Buffer what-ifs stay inside the simulator-validated `buf ≥ 2` domain.
const DEPTHS: (u64, u64) = (2, 16);
const KIND: AnalysisKind = AnalysisKind::BufferAware;

/// The base system of both serve workloads.
pub fn base_system() -> System {
    let mut spec = SyntheticSpec::paper(MESH, MESH, FLOWS, BASE_DEPTH);
    spec.period_range = PERIODS;
    spec.generate(FIXTURE_SEED).into_system()
}

pub struct Serve {
    seed: u64,
    degraded: bool,
    base: AnalysisContext<'static>,
    options: ServeOptions,
}

pub struct Record {
    outcomes: Vec<QueryOutcome>,
}

impl Serve {
    pub fn setup(seed: u64, degraded: bool, layers: &mut Layers) -> Result<Serve, String> {
        // Leaked so the shared context can borrow it for the whole run.
        let system: &'static System = Box::leak(Box::new(
            layers.time("noc-workload.generate_ms", base_system),
        ));
        let base = layers
            .time("noc-model.context_build_ms", || {
                AnalysisContext::new(system)
            })
            .map_err(|e| format!("serve fixture: {e}"))?;
        let report = KIND
            .as_analysis()
            .analyze_with(&base)
            .map_err(|e| format!("serve fixture: {e}"))?;
        let uncertified = report.len() - report.schedulable_count();
        if uncertified > 0 {
            let tainted = report
                .iter()
                .filter(|(_, v)| matches!(v, FlowVerdict::Tainted))
                .count();
            return Err(format!(
                "serve fixture guard: IBN leaves {uncertified} of {FLOWS} base flows uncertified \
                 ({tainted} tainted); solves would time the taint short-circuit"
            ));
        }
        let options = ServeOptions {
            deadline: degraded.then_some(Duration::ZERO),
            ..ServeOptions::default()
        };
        Ok(Serve {
            seed,
            degraded,
            base,
            options,
        })
    }

    /// Batch `i`: query classes repeat every five queries (admission,
    /// admission, removal, homogeneous buffer, single-router buffer), so
    /// each of the two shards serves the same mix in every batch.
    fn batch(&self, i: u64) -> QueryBatch {
        let system = self.base.system();
        let mut rng = Rng::stream(input_seed(self.seed, i), i);
        let nodes = system.topology().node_count() as u64;
        let routers = system.topology().router_count() as u64;
        let fresh = Priority::new(system.flows().len() as u32 + 1);
        let queries = (0..QUERIES)
            .map(|q| match q % 5 {
                0 | 1 => {
                    let src = rng.range(0, nodes - 1);
                    let dst = (src + rng.range(1, nodes - 1)) % nodes;
                    let (lo, hi) = SyntheticSpec::PAPER_LENGTHS;
                    Query::Admission {
                        flow: Flow::builder(NodeId::new(src as u32), NodeId::new(dst as u32))
                            .priority(fresh)
                            .period(Cycles::new(rng.range(PERIODS.0, PERIODS.1)))
                            .length_flits(rng.range(u64::from(lo), u64::from(hi)) as u32)
                            .build(),
                    }
                }
                2 => Query::Removal {
                    id: FlowId::new(rng.range(0, system.flows().len() as u64 - 1) as u32),
                },
                3 => Query::BufferWhatIf {
                    depth: rng.range(DEPTHS.0, DEPTHS.1) as u32,
                },
                _ => Query::RouterBufferWhatIf {
                    router: RouterId::new(rng.range(0, routers - 1) as u32),
                    depth: rng.range(DEPTHS.0, DEPTHS.1) as u32,
                },
            })
            .collect();
        QueryBatch {
            analysis: KIND,
            queries,
        }
    }

    fn serve(&self, batch: &QueryBatch) -> noc_serve::BatchReport {
        if self.degraded {
            run_batch_with(&self.base, batch, &XyRouting, THREADS, &self.options)
        } else {
            run_batch(&self.base, batch, &XyRouting, THREADS)
        }
    }

    /// The only answers this workload allows: exact verdicts when serving
    /// exactly, `Degraded` ones under the spent deadline.
    fn allowed(&self, outcome: &QueryOutcome) -> bool {
        match outcome {
            QueryOutcome::Accepted | QueryOutcome::Rejected { .. } => !self.degraded,
            QueryOutcome::Degraded { .. } => self.degraded,
            _ => false,
        }
    }

    /// The IBN and conservative reports of `query`'s what-if system,
    /// recomputed from scratch: the system is built anew, then a new context
    /// and the analyses.
    fn recompute(&self, query: &Query) -> Result<(AnalysisReport, AnalysisReport), AnalysisError> {
        let system = self.base.system();
        let what_if = match query {
            Query::Admission { flow } => system
                .with_added_flow(flow.clone(), &XyRouting)
                .map(|(s, _)| s),
            Query::Removal { id } => system.without_flow(*id),
            Query::BufferWhatIf { depth } => Ok(system.with_buffer_depth(*depth)),
            Query::RouterBufferWhatIf { router, depth } => {
                Ok(system.with_router_buffer_depth(*router, *depth))
            }
        };
        let system = what_if?;
        let ctx = AnalysisContext::new(&system)?;
        let exact = KIND.as_analysis().analyze_with(&ctx)?;
        Ok((exact, conservative_with(&ctx)))
    }

    /// Replays one shard's queries on a fresh fork with the public calls
    /// `run_batch` makes, in its order, timing each call. Returns the
    /// shard's total replayed time in milliseconds.
    ///
    /// With `split` (exact serving only), an extra solve follows every
    /// rollback, so each what-if solve pays only for its own delta and the
    /// rollback's cost is timed on its own. That pass records only those
    /// solves; the plain pass records everything else and yields the shard
    /// time.
    fn replay_shard(&self, queries: &[Query], split: bool, layers: &mut Layers) -> f64 {
        let mut clock = ShardClock { layers, total: 0.0 };
        let plain = |name: &'static str| (!split).then_some(name);
        let mut ctx = clock.time(plain("noc-analysis.fork_ms"), || {
            IncrementalContext::from_context(&self.base)
        });
        let mut map: Vec<FlowId> = (0..self.base.len() as u32).map(FlowId::new).collect();
        let mut cold = true;
        // One what-if solve: exact, or an aborted budgeted attempt plus the
        // conservative fallback.
        let mut solve = |clock: &mut ShardClock<'_>, ctx: &mut IncrementalContext, class| {
            if self.degraded {
                let budget = Budget::with_deadline(Duration::ZERO);
                let _ = clock.time(None, || ctx.analyze_with_budget(KIND, &budget));
                clock.time(Some("noc-analysis.conservative_ms"), || {
                    std::hint::black_box(ctx.conservative_report())
                });
            } else {
                let name = match (split, cold) {
                    (true, _) => Some(class),
                    (false, true) => Some("noc-analysis.cold_solve_ms"),
                    (false, false) => None,
                };
                cold = false;
                clock.time(name, || ctx.analyze(KIND)).expect("exact solve");
            }
        };
        let rollback = |clock: &mut ShardClock<'_>, ctx: &mut IncrementalContext| {
            if split {
                clock
                    .time(Some("noc-analysis.rollback_solve_ms"), || ctx.analyze(KIND))
                    .expect("exact solve");
            }
        };
        for query in queries {
            match query {
                Query::Admission { flow } => {
                    let id = clock
                        .time(plain("noc-analysis.add_flow_ms"), || {
                            ctx.add_flow(flow.clone(), &XyRouting)
                        })
                        .expect("admissible");
                    solve(
                        &mut clock,
                        &mut ctx,
                        "noc-analysis.whatif_solve_ms.admission",
                    );
                    clock
                        .time(plain("noc-analysis.remove_flow_ms"), || ctx.remove_flow(id))
                        .expect("admitted flow exists");
                    rollback(&mut clock, &mut ctx);
                }
                Query::Removal { id } => {
                    let current = map[id.index()];
                    let flow = ctx.system().flows().flow(current).clone();
                    clock
                        .time(plain("noc-analysis.remove_flow_ms"), || {
                            ctx.remove_flow(current)
                        })
                        .expect("mapped id exists");
                    solve(&mut clock, &mut ctx, "noc-analysis.whatif_solve_ms.removal");
                    let restored = clock
                        .time(plain("noc-analysis.add_flow_ms"), || {
                            ctx.add_flow(flow, &XyRouting)
                        })
                        .expect("restorable");
                    for m in map.iter_mut().filter(|m| **m > current) {
                        *m = FlowId::new(m.raw() - 1);
                    }
                    map[id.index()] = restored;
                    rollback(&mut clock, &mut ctx);
                }
                // Served from the shared base, not the shard: the split
                // pass has nothing to add here.
                Query::BufferWhatIf { .. } if split => {}
                Query::BufferWhatIf { depth } if self.degraded => {
                    let system = self.base.system().with_buffer_depth(*depth);
                    let rebased = clock
                        .time(None, || self.base.rebase(&system))
                        .expect("same structure");
                    let budget = Budget::with_deadline(Duration::ZERO);
                    let _ = clock.time(None, || KIND.analyze_with_budget(&rebased, &budget));
                    clock.time(Some("noc-analysis.conservative_ms"), || {
                        std::hint::black_box(noc_analysis::conservative_with(&rebased))
                    });
                }
                Query::BufferWhatIf { depth } => {
                    clock
                        .time(Some("noc-analysis.rebase_solve_ms"), || {
                            let system = self.base.system().with_buffer_depth(*depth);
                            let rebased = self.base.rebase(&system)?;
                            KIND.as_analysis().analyze_with(&rebased)
                        })
                        .expect("exact solve");
                }
                Query::RouterBufferWhatIf { router, depth } => {
                    let original = ctx.system().buffer_depth_at(*router);
                    clock.time(plain("noc-analysis.resize_buffer_ms"), || {
                        ctx.resize_buffer(*router, *depth)
                    });
                    solve(&mut clock, &mut ctx, "noc-analysis.whatif_solve_ms.router");
                    clock.time(plain("noc-analysis.resize_buffer_ms"), || {
                        ctx.resize_buffer(*router, original)
                    });
                    rollback(&mut clock, &mut ctx);
                }
            }
        }
        clock.total
    }
}

impl Serve {
    /// Replays every shard of `batch` on its own thread, as `run_batch`
    /// shards it, so replayed calls meet the same contention. Returns the
    /// slowest shard's replayed time in milliseconds.
    fn replay_shards(&self, batch: &QueryBatch, split: bool, layers: &mut Layers) -> f64 {
        let shards: Vec<(Layers, f64)> = std::thread::scope(|scope| {
            let handles: Vec<_> = batch
                .queries
                .chunks(QUERIES / THREADS)
                .map(|chunk| {
                    scope.spawn(move || {
                        let mut shard = Layers::default();
                        let total = self.replay_shard(chunk, split, &mut shard);
                        (shard, total)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("replayed shard panicked"))
                .collect()
        });
        shards.into_iter().fold(0.0, |slowest, (shard, total)| {
            layers.merge(shard);
            slowest.max(total)
        })
    }
}

/// Times the calls of one replayed shard, summing the shard's total.
struct ShardClock<'a> {
    layers: &'a mut Layers,
    total: f64,
}

impl ShardClock<'_> {
    /// Times `f`, recording it as one call of layer `name` if given.
    fn time<T>(&mut self, name: Option<&'static str>, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let ms = ms_since(start);
        self.total += ms;
        if let Some(name) = name {
            self.layers.record(name, ms);
        }
        out
    }
}

fn outcome_code(outcome: &QueryOutcome, d: &mut Digest) {
    match outcome {
        QueryOutcome::Accepted => d.u64(1),
        QueryOutcome::Rejected { failing } => {
            d.u64(2);
            d.u64(u64::from(*failing));
        }
        QueryOutcome::Infeasible { .. } => d.u64(3),
        QueryOutcome::Degraded { reason, failing } => {
            d.u64(4);
            d.u64(*reason as u64);
            d.u64(u64::from(*failing));
        }
        QueryOutcome::Shed => d.u64(5),
        QueryOutcome::Failed { .. } => d.u64(6),
    }
}

impl Workload for Serve {
    type Record = Record;

    fn work_unit(&self) -> &'static str {
        "queries"
    }

    /// About half a second of batches either way.
    fn warmup_ops(&self) -> u64 {
        if self.degraded {
            3
        } else {
            5
        }
    }

    fn digest_ops(&self) -> u64 {
        20
    }

    fn counter_ops(&self) -> u64 {
        2
    }

    fn op(&mut self, i: u64) -> Op<Record> {
        let batch = self.batch(i);
        let start = Instant::now();
        let report = self.serve(&batch);
        let elapsed = start.elapsed();
        Op {
            elapsed,
            work: report.outcomes.len() as f64,
            failed: !report.outcomes.iter().all(|o| self.allowed(o)),
            record: Record {
                outcomes: report.outcomes,
            },
        }
    }

    fn guard_warmup(&self, _warmup: &[Record]) -> Result<(), String> {
        // The query generator must stay inside the validated buffer domain.
        for i in 0..64 {
            for query in self.batch(i).queries {
                if let Query::BufferWhatIf { depth } | Query::RouterBufferWhatIf { depth, .. } =
                    query
                {
                    if depth < 2 {
                        return Err(format!(
                            "serve query guard: batch {i} asks for depth {depth}, outside the buf ≥ 2 domain"
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    fn check(&mut self, records: &[(u64, Record)]) -> Check {
        let mut check = Check::default();
        let first: Vec<&(u64, Record)> = records.iter().take(100).collect();
        if first.is_empty() {
            check.problems.push("no operation completed".to_string());
            return check;
        }
        if self.degraded {
            let total: usize = records.iter().map(|(_, r)| r.outcomes.len()).sum();
            let degraded = records
                .iter()
                .flat_map(|(_, r)| &r.outcomes)
                .filter(|o| matches!(o, QueryOutcome::Degraded { .. }))
                .count();
            check
                .notes
                .push(format!("{degraded} of {total} queries answered Degraded"));
            if degraded != total {
                check
                    .problems
                    .push(format!("only {degraded} of {total} queries degraded"));
            }
        }
        // Two sampled queries per class, recomputed from scratch. Exact
        // answers must match the IBN analysis, degraded ones the
        // conservative bound. On every sampled what-if, the conservative
        // bound must dominate IBN flow by flow: at least its response time
        // where IBN certifies a flow, a miss where IBN proves one. Then a
        // degraded accept implies an exact accept.
        let mut rng = Rng::stream(self.seed, u64::MAX);
        let (mut matched, mut compared, mut degraded_accepts, mut exact_accepts) = (0, 0, 0, 0);
        for class in 0..5 {
            for shard in 0..2 {
                let (i, record) = first[rng.range(0, first.len() as u64 - 1) as usize];
                let q = class + 5 * shard;
                let served = &record.outcomes[q];
                let problem = match self.recompute(&self.batch(*i).queries[q]) {
                    Err(e) => Some(format!("from scratch: {e}")),
                    Ok((exact, conservative)) => {
                        let failing = |r: &AnalysisReport| (r.len() - r.schedulable_count()) as u32;
                        let expected = match (self.degraded, failing(&exact)) {
                            (false, 0) => QueryOutcome::Accepted,
                            (false, failing) => QueryOutcome::Rejected { failing },
                            (true, _) => QueryOutcome::Degraded {
                                reason: DegradeReason::DeadlineExceeded,
                                failing: failing(&conservative),
                            },
                        };
                        exact_accepts += usize::from(exact.is_schedulable());
                        degraded_accepts += usize::from(conservative.is_schedulable());
                        let undercut = exact
                            .iter()
                            .zip(conservative.iter())
                            .filter(|((_, e), (_, c))| {
                                compared += usize::from(!matches!(e, FlowVerdict::Tainted));
                                match (e, c.response_time()) {
                                    (FlowVerdict::Schedulable { response_time }, Some(b)) => {
                                        b < *response_time
                                    }
                                    (FlowVerdict::DeadlineMiss { .. }, Some(_)) => true,
                                    _ => false,
                                }
                            })
                            .count();
                        if *served != expected {
                            Some(format!("served {served:?}, from scratch {expected:?}"))
                        } else if undercut > 0 {
                            Some(format!(
                                "the conservative bound undercuts IBN on {undercut} flows"
                            ))
                        } else {
                            None
                        }
                    }
                };
                match problem {
                    None => matched += 1,
                    Some(p) => {
                        check.failed_ops.insert(*i);
                        check.problems.push(format!("batch {i} query {q}: {p}"));
                    }
                }
            }
        }
        check.notes.push(format!(
            "{matched} of 10 sampled outcomes match a from-scratch analysis; \
             the conservative bound dominates IBN on all {compared} flow verdicts compared \
             ({exact_accepts} exact accepts, {degraded_accepts} conservative accepts)"
        ));
        check
    }

    fn digest_record(&self, record: &Record, d: &mut Digest) {
        for outcome in &record.outcomes {
            outcome_code(outcome, d);
        }
    }

    fn replay(&mut self, i: u64, layers: &mut Layers) {
        let batch = self.batch(i);
        let report = self.serve(&batch);
        let wall_ms = report.wall_ns as f64 / 1e6;
        let slowest = self.replay_shards(&batch, false, layers);
        layers.record("noc-serve.self_ms", wall_ms - slowest);
        let utilization = report.shard_utilization();
        layers.record(
            "noc-serve.shard_utilization_min",
            utilization.iter().copied().fold(f64::INFINITY, f64::min),
        );
        if !self.degraded {
            self.replay_shards(&batch, true, layers);
        }
    }

    fn layer_metrics(
        &self,
        layers: &Layers,
        c: &Counters,
        ops: u64,
    ) -> BTreeMap<&'static str, f64> {
        let mut names = vec![
            "noc-workload.generate_ms",
            "noc-model.context_build_ms",
            "noc-analysis.fork_ms",
            "noc-analysis.add_flow_ms",
            "noc-analysis.remove_flow_ms",
            "noc-analysis.resize_buffer_ms",
            "noc-serve.self_ms",
            "noc-serve.shard_utilization_min",
        ];
        if self.degraded {
            names.push("noc-analysis.conservative_ms");
        } else {
            names.extend([
                "noc-analysis.cold_solve_ms",
                "noc-analysis.whatif_solve_ms.admission",
                "noc-analysis.whatif_solve_ms.removal",
                "noc-analysis.whatif_solve_ms.router",
                "noc-analysis.rebase_solve_ms",
            ]);
        }
        let mut out: BTreeMap<&'static str, f64> =
            names.into_iter().map(|n| (n, layers.median(n))).collect();
        if !self.degraded {
            // A mean: rollbacks mix cheap admission rollbacks with
            // near-full removal and router ones, which a median would hide.
            let rollback = "noc-analysis.rollback_solve_ms";
            out.insert(rollback, layers.mean(rollback));
        }
        out.insert(
            "noc-analysis.solver_iterations",
            ratio(c.solver_iterations, ops),
        );
        out.insert(
            "noc-analysis.cache_dirty_ratio",
            ratio(
                c.cache_dirty_solved,
                c.cache_dirty_solved + c.cache_clean_reused,
            ),
        );
        out.insert(
            "noc-analysis.flows_dirtied_per_delta",
            ratio(c.flows_dirtied, c.deltas),
        );
        out
    }
}

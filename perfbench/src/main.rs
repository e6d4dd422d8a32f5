//! `noc-perfbench`: one command that runs one named workload of the
//! noc-mpb workspace in a closed loop, checks its outputs and prints every
//! metric by name and unit.
//!
//! ```text
//! noc-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run is untraced (`noc-telemetry` off) and reports
//! the end-to-end metrics. With `--trace 1` it reports the per-layer
//! metrics: it times each public layer call from outside, reads the
//! `noc-telemetry` counters, and measures the tracing overhead against an
//! untraced phase of the same run. The last line of standard output is
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//!
//! The workloads, their fixtures and the reasons for the rules below are
//! in `DESIGN.md` beside this crate.

mod serve;
mod sim;
mod sweep;
mod util;

use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use util::{median, percentile, Digest, Layers};

/// Worker threads of every workload: `nproc` of the machine the bounds
/// were measured on. Operations that keep both busy run at a steadier
/// speed there than single-threaded ones.
pub const THREADS: usize = 2;

/// Every untraced run times at least this many operations, so p90 has at
/// least ten samples beyond it.
const MIN_OPS: u64 = 100;

/// Set-up (fixture build, guards, warm-up) runs this many times per run;
/// `setup_s` is the median.
const SETUP_REPS: usize = 5;

/// No timed loop runs longer than this, whatever `--seconds` and
/// [`MIN_OPS`] ask, so a run always ends well inside three minutes.
const LOOP_CAP: Duration = Duration::from_secs(110);

/// Operation indices at and above this one are warm-up operations: they
/// draw inputs from their own streams and are never timed.
const WARMUP_BASE: u64 = 1 << 48;

/// The seed warm-up operations draw their inputs from, whatever `--seed`.
const WARMUP_SEED: u64 = 0x3A7;

/// The seed operation `i` draws its inputs from: the run's seed for timed
/// operations, a fixed one for warm-up. So set-up does the same work in
/// every run, and `setup_s` moves only with the program and the machine.
pub fn input_seed(seed: u64, i: u64) -> u64 {
    if i >= WARMUP_BASE {
        WARMUP_SEED
    } else {
        seed
    }
}

const WORKLOADS: [&str; 3] = ["serve-exact", "serve-degraded", "design-sweep"];

/// The end-to-end metrics, in output order.
const END_TO_END: [(&str, &str); 5] = [
    ("work_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics of traced runs, in output order. A workload that
/// does not exercise a layer reports 0 for it and says so on stdout.
const PER_LAYER: [(&str, &str); 30] = [
    ("noc-workload.generate_ms", "ms"),
    ("noc-model.context_build_ms", "ms"),
    ("noc-analysis.solve_ms.sb", "ms"),
    ("noc-analysis.solve_ms.xlwx", "ms"),
    ("noc-analysis.solve_ms.ibn2", "ms"),
    ("noc-analysis.solve_ms.ibn100", "ms"),
    ("noc-analysis.solver_iterations", "count"),
    ("noc-analysis.fork_ms", "ms"),
    ("noc-analysis.cold_solve_ms", "ms"),
    ("noc-analysis.add_flow_ms", "ms"),
    ("noc-analysis.remove_flow_ms", "ms"),
    ("noc-analysis.resize_buffer_ms", "ms"),
    ("noc-analysis.whatif_solve_ms.admission", "ms"),
    ("noc-analysis.whatif_solve_ms.removal", "ms"),
    ("noc-analysis.whatif_solve_ms.router", "ms"),
    ("noc-analysis.rollback_solve_ms", "ms"),
    ("noc-analysis.rebase_solve_ms", "ms"),
    ("noc-analysis.cache_dirty_ratio", "ratio"),
    ("noc-analysis.flows_dirtied_per_delta", "count"),
    ("noc-analysis.conservative_ms", "ms"),
    ("noc-serve.self_ms", "ms"),
    ("noc-serve.shard_utilization_min", "ratio"),
    ("noc-experiments.judge_ms", "ms"),
    ("noc-sim.layout_ms", "ms"),
    ("noc-sim.run_ms", "ms"),
    ("noc-sim.ns_per_flit_hop", "ns"),
    ("noc-sim.steps", "count"),
    ("noc-sim.cycles_skipped_ratio", "ratio"),
    ("noc-sim.credit_stall_cycles", "count"),
    ("noc-telemetry.overhead_pct", "%"),
];

/// The result of one timed operation. The workload measures its own timed
/// section, so input generation before it and bookkeeping after it stay
/// untimed.
pub struct Op<R> {
    pub elapsed: Duration,
    /// Work units completed (queries, flow sets, flit-hops).
    pub work: f64,
    /// A `Failed` or `Shed` outcome, or any answer the workload forbids.
    pub failed: bool,
    pub record: R,
}

/// What the untimed output checks found.
#[derive(Default)]
pub struct Check {
    /// Operations whose outputs failed a check.
    pub failed_ops: BTreeSet<u64>,
    /// Checks that fail the run without naming one operation.
    pub problems: Vec<String>,
    /// One-line summaries of what was checked.
    pub notes: Vec<String>,
    /// Digests of outputs the checks computed themselves, folded into the
    /// run's outcome digest.
    pub digests: Vec<u64>,
}

/// The telemetry work counters the benchmark reads, summed over a phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    pub solver_iterations: u64,
    pub cache_dirty_solved: u64,
    pub cache_clean_reused: u64,
    pub deltas: u64,
    pub flows_dirtied: u64,
    pub conservative_solves: u64,
    pub sim_steps: u64,
    pub sim_cycles_skipped: u64,
    pub sim_credit_stalls: u64,
}

impl Counters {
    pub fn read() -> Counters {
        use noc_analysis::metrics as a;
        use noc_sim::metrics as s;
        Counters {
            solver_iterations: a::SOLVER_ITERATIONS.get(),
            cache_dirty_solved: a::CACHE_DIRTY_SOLVED.get(),
            cache_clean_reused: a::CACHE_CLEAN_REUSED.get(),
            deltas: a::INCREMENTAL_DELTAS.get(),
            flows_dirtied: a::INCREMENTAL_FLOWS_DIRTIED.get(),
            conservative_solves: a::CONSERVATIVE_SOLVES.get(),
            sim_steps: s::SIM_STEPS.get(),
            sim_cycles_skipped: s::SIM_CYCLES_SKIPPED.get(),
            sim_credit_stalls: s::SIM_CREDIT_STALL_CYCLES.get(),
        }
    }

    fn since(self, before: Counters) -> Counters {
        Counters {
            solver_iterations: self.solver_iterations - before.solver_iterations,
            cache_dirty_solved: self.cache_dirty_solved - before.cache_dirty_solved,
            cache_clean_reused: self.cache_clean_reused - before.cache_clean_reused,
            deltas: self.deltas - before.deltas,
            flows_dirtied: self.flows_dirtied - before.flows_dirtied,
            conservative_solves: self.conservative_solves - before.conservative_solves,
            sim_steps: self.sim_steps - before.sim_steps,
            sim_cycles_skipped: self.sim_cycles_skipped - before.sim_cycles_skipped,
            sim_credit_stalls: self.sim_credit_stalls - before.sim_credit_stalls,
        }
    }

    /// Runs `f` with telemetry recording on and returns its counter delta.
    pub fn traced<T>(f: impl FnOnce() -> T) -> (T, Counters) {
        noc_telemetry::set_enabled(true);
        let before = Counters::read();
        let out = f();
        let delta = Counters::read().since(before);
        noc_telemetry::set_enabled(false);
        (out, delta)
    }

    fn digest(&self, d: &mut Digest) {
        for v in [
            self.solver_iterations,
            self.cache_dirty_solved,
            self.cache_clean_reused,
            self.deltas,
            self.flows_dirtied,
            self.conservative_solves,
            self.sim_steps,
            self.sim_cycles_skipped,
            self.sim_credit_stalls,
        ] {
            d.u64(v);
        }
    }
}

/// `a / b`, or 0 when nothing was counted.
pub fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// One benchmark workload: a fixture plus a closed-loop operation whose
/// inputs are a pure function of `(seed, operation index)`.
pub trait Workload {
    /// What is kept of one operation for the output checks and digests.
    type Record;

    /// The unit `work_per_s` counts, for the human-readable lines.
    fn work_unit(&self) -> &'static str;

    /// Operations per input cycle; a timed loop stops only between cycles,
    /// so every run covers whole cycles of the input mix.
    fn cycle(&self) -> u64 {
        1
    }

    /// Untimed warm-up operations at the end of set-up.
    fn warmup_ops(&self) -> u64;

    /// Timed operations folded into the outcome digest; every run times
    /// at least this many.
    fn digest_ops(&self) -> u64;

    /// Operations replayed with telemetry on for the counter digest.
    fn counter_ops(&self) -> u64;

    fn op(&mut self, i: u64) -> Op<Self::Record>;

    /// Fixture guards over the warm-up records; an error fails set-up.
    fn guard_warmup(&self, _warmup: &[Self::Record]) -> Result<(), String> {
        Ok(())
    }

    /// Untimed output checks over the timed operations.
    fn check(&mut self, records: &[(u64, Self::Record)]) -> Check;

    fn digest_record(&self, record: &Self::Record, d: &mut Digest);

    /// Replays operation `i` layer by layer, timing each public call.
    fn replay(&mut self, i: u64, layers: &mut Layers);

    /// Per-layer metrics from the replayed calls and the counters of a
    /// traced phase of `ops` operations. Names absent from the map were
    /// not exercised.
    fn layer_metrics(
        &self,
        layers: &Layers,
        counters: &Counters,
        ops: u64,
    ) -> BTreeMap<&'static str, f64>;
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("invalid {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let start = Instant::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("noc-perfbench: {e}");
            eprintln!(
                "usage: noc-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let seed = args.seed;
    let result = match args.workload.as_str() {
        "serve-exact" => run(&args, start, |l| serve::Serve::setup(seed, false, l)),
        "serve-degraded" => run(&args, start, |l| serve::Serve::setup(seed, true, l)),
        "design-sweep" => run(&args, start, |l| sweep::Sweep::setup(seed, l)),
        other => Err(format!(
            "unknown workload {other:?}; expected one of {}",
            WORKLOADS.join(", ")
        )),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("noc-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The timed operations of one closed loop.
struct Loop<R> {
    records: Vec<(u64, R)>,
    latencies_ms: Vec<f64>,
    work: f64,
    busy: Duration,
    failed: BTreeSet<u64>,
}

impl<R> Loop<R> {
    fn ops(&self) -> u64 {
        self.latencies_ms.len() as u64
    }

    fn work_per_s(&self) -> f64 {
        self.work / self.busy.as_secs_f64()
    }
}

/// Closed loop, one client: operation `first + k` starts when operation
/// `first + k - 1` has returned. Stops at the first cycle boundary after
/// both `min_ops` operations and `seconds` of wall time.
fn closed_loop<W: Workload>(w: &mut W, first: u64, min_ops: u64, seconds: f64) -> Loop<W::Record> {
    let mut out = Loop {
        records: Vec::new(),
        latencies_ms: Vec::new(),
        work: 0.0,
        busy: Duration::ZERO,
        failed: BTreeSet::new(),
    };
    let cycle = w.cycle();
    let started = Instant::now();
    for i in first.. {
        let done = i - first;
        let elapsed = started.elapsed();
        if done > 0
            && (elapsed >= LOOP_CAP
                || (done >= min_ops
                    && done.is_multiple_of(cycle)
                    && elapsed.as_secs_f64() >= seconds))
        {
            break;
        }
        let attempt = Instant::now();
        match catch_unwind(AssertUnwindSafe(|| w.op(i))) {
            Ok(op) => {
                out.latencies_ms.push(op.elapsed.as_secs_f64() * 1e3);
                out.busy += op.elapsed;
                if op.failed {
                    out.failed.insert(i);
                } else {
                    out.work += op.work;
                }
                out.records.push((i, op.record));
            }
            Err(_) => {
                let elapsed = attempt.elapsed();
                out.latencies_ms.push(elapsed.as_secs_f64() * 1e3);
                out.busy += elapsed;
                out.failed.insert(i);
            }
        }
    }
    out
}

fn run<W: Workload>(
    args: &Args,
    start: Instant,
    mut build: impl FnMut(&mut Layers) -> Result<W, String>,
) -> Result<(), String> {
    // Telemetry records only where a phase turns it on, whatever
    // `NOC_TELEMETRY` says.
    noc_telemetry::set_enabled(false);
    // Set-up's layer calls are timed in every run; traced runs report them.
    let mut layers = Layers::default();
    // Set-up: fixture build, fixture guards and untimed warm-up, repeated
    // so that `setup_s` is a median. The first repetition is timed from
    // process start.
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut workload = None;
    for rep in 0..SETUP_REPS {
        drop(workload.take());
        let t = if rep == 0 { start } else { Instant::now() };
        let mut w = build(&mut layers)?;
        let warmup: Vec<W::Record> = (0..w.warmup_ops())
            .map(|k| w.op(WARMUP_BASE + k).record)
            .collect();
        w.guard_warmup(&warmup)?;
        setup_s.push(t.elapsed().as_secs_f64());
        workload = Some(w);
    }
    let mut w = workload.expect("at least one set-up repetition");
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "setup_s repetitions {:?} (median {:.4} s)",
        setup_s
            .iter()
            .map(|s| (s * 1e4).round() / 1e4)
            .collect::<Vec<_>>(),
        median(&setup_s)
    );

    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    let (records, failed_in_loop, attempted) = if args.trace {
        let phase = args.seconds / 3.0;
        let min_ops = w.digest_ops();
        let plain = closed_loop(&mut w, 0, min_ops, phase);
        let (traced, counters) =
            Counters::traced(|| closed_loop(&mut w, plain.ops(), min_ops, phase));
        let replay_start = Instant::now();
        let mut replayed = 0u64;
        while replayed == 0
            || !replayed.is_multiple_of(w.cycle())
            || replay_start.elapsed().as_secs_f64() < phase
        {
            w.replay(replayed, &mut layers);
            replayed += 1;
        }
        let overhead_pct = (plain.work_per_s() / traced.work_per_s() - 1.0) * 100.0;
        println!(
            "phases: untraced {} ops at {:.4} {}/s, traced {} ops at {:.4} {}/s, layer replay {} ops",
            plain.ops(),
            plain.work_per_s(),
            w.work_unit(),
            traced.ops(),
            traced.work_per_s(),
            w.work_unit(),
            replayed
        );
        println!("counters over the traced phase: {counters:?}");
        let mut values = w.layer_metrics(&layers, &counters, traced.ops());
        values.insert("noc-telemetry.overhead_pct", overhead_pct);
        for (name, unit) in PER_LAYER {
            let (value, note) = match values.get(name) {
                Some(&v) => (v, ""),
                None => (0.0, "  (not on this workload's path)"),
            };
            println!("  {name:<42} {value:>14.6} {unit}{note}");
            metrics.push((name, value, unit));
        }
        let attempted = plain.ops() + traced.ops();
        let mut records = plain.records;
        records.extend(traced.records);
        let mut failed = plain.failed;
        failed.extend(traced.failed);
        (records, failed, attempted)
    } else {
        let min_ops = MIN_OPS.max(w.digest_ops());
        let timed = closed_loop(&mut w, 0, min_ops, args.seconds);
        let ops = timed.ops();
        let values = [
            timed.work_per_s(),
            median(&timed.latencies_ms),
            percentile(&timed.latencies_ms, 90.0),
            median(&setup_s),
            util::peak_rss_mb(),
        ];
        println!(
            "timed {ops} operations in {:.3} s busy; work_per_s in {}/s; latencies over {ops} samples",
            timed.busy.as_secs_f64(),
            w.work_unit()
        );
        for ((name, unit), value) in END_TO_END.into_iter().zip(values) {
            println!("  {name:<12} {value:>14.6} {unit}");
            metrics.push((name, value, unit));
        }
        (timed.records, timed.failed, ops)
    };

    // Untimed output checks and determinism digests.
    let mut check = w.check(&records);
    let digest_ops = w.digest_ops();
    let mut outcome_digest = Digest::default();
    for (_, record) in records.iter().filter(|(i, _)| *i < digest_ops) {
        w.digest_record(record, &mut outcome_digest);
    }
    for d in &check.digests {
        outcome_digest.u64(*d);
    }
    let replay_ops = w.counter_ops();
    let (replayed, counters) = Counters::traced(|| {
        (0..replay_ops)
            .map(|i| {
                let record = w.op(i).record;
                let mut d = Digest::default();
                w.digest_record(&record, &mut d);
                d.finish()
            })
            .collect::<Vec<u64>>()
    });
    for (i, replay) in replayed.iter().enumerate() {
        let mut d = Digest::default();
        if let Some((_, record)) = records.iter().find(|(j, _)| *j == i as u64) {
            w.digest_record(record, &mut d);
            if d.finish() != *replay {
                check.failed_ops.insert(i as u64);
                check.problems.push(format!(
                    "operation {i} gave different outputs when replayed"
                ));
            }
        }
    }
    let mut counter_digest = Digest::default();
    counters.digest(&mut counter_digest);
    for note in &check.notes {
        println!("check: {note}");
    }
    for problem in &check.problems {
        println!("check FAILED: {problem}");
    }
    println!(
        "digest outcomes {:016x} (first {digest_ops} operations) counters {:016x} (operations 0..{replay_ops}: {counters:?})",
        outcome_digest.finish(),
        counter_digest.finish()
    );

    let mut failed = failed_in_loop;
    failed.extend(check.failed_ops.iter().copied());
    let correct = failed.is_empty() && check.problems.is_empty();
    println!("attempted {attempted} failed {}", failed.len());
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failed.len(),
        body.join(", ")
    );
    Ok(())
}

//! Bench-to-JSON binary: runs the `sim_throughput`, `table2`,
//! `batch_sweep` and `hetero_analysis` fixtures through the shared
//! [`noc_bench::suites`] bodies and writes a machine-readable
//! `BENCH_sim.json`, so performance claims in this repo always come with
//! checked-in numbers. Every run also appends one line to
//! `BENCH_history.jsonl` keyed by the git commit, building a perf
//! trajectory across PRs.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p noc-bench --bin bench_json   # BENCH_sim.json
//! ```
//!
//! Environment:
//!
//! * `NOC_BENCH_FAST=1` — skip the production-scale 16×16 fixtures (CI mode).
//! * `NOC_BENCH_OUT=path` — override the output path.
//! * `NOC_BENCH_HISTORY=path` — override the history path (empty disables).
//!
//! Each measured fixture becomes one line in the output's `results` array:
//! fixture label, cycles simulated per iteration (0 for the analysis-side
//! `hetero_analysis` group) and mean wall-clock nanoseconds per iteration.
//! Compare runs through the history log. The writer is deliberately ad-hoc
//! line-oriented JSON so the repo needs no serde.

use criterion::{Criterion, Measurement};
use noc_bench::suites;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Duration;

/// Schema tag written to (and expected in) the JSON output.
const SCHEMA: &str = "noc-bench/sim/v2";

fn main() {
    let fast = std::env::var("NOC_BENCH_FAST")
        .map(|v| v == "1")
        .unwrap_or(false);
    let production = !fast;

    let out_path = std::env::var("NOC_BENCH_OUT").unwrap_or_else(|_| "BENCH_sim.json".to_string());

    // Collect every measurement the shim emits while the bench bodies run.
    let collected: Rc<RefCell<Vec<Measurement>>> = Rc::new(RefCell::new(Vec::new()));
    let tap = Rc::clone(&collected);
    let mut c = Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .with_measurement_sink(Box::new(move |m| tap.borrow_mut().push(m)));

    let sim_fixtures = suites::sim_fixtures(production);
    suites::bench_sim_throughput(&mut c, &sim_fixtures);
    suites::bench_table2_sweep(&mut c);
    suites::bench_batch_sweep(&mut c);
    let (het_label, het_system) = suites::hetero_fixture(production);
    suites::bench_hetero_analysis(&mut c, het_label, &het_system);

    // Cycles simulated per iteration, by bench label. The analysis-side
    // group (hetero_analysis) simulates nothing and reports 0.
    let mut cycles: BTreeMap<String, u64> = BTreeMap::new();
    for f in &sim_fixtures {
        cycles.insert(format!("sim_throughput/{}", f.name), f.cycles);
    }
    cycles.insert(
        suites::TABLE2_SWEEP_LABEL.to_string(),
        suites::table2_sweep_cycles(),
    );
    // One buffer depth's worth of the table2 sweep per iteration.
    for label in [
        "batch_sweep/didactic/per-plan-simulators",
        "batch_sweep/didactic/batch-shared-layout",
    ] {
        cycles.insert(label.to_string(), suites::table2_sweep_cycles() / 2);
    }

    let mut lines = Vec::new();
    for m in collected.borrow().iter() {
        let cyc = cycles.get(&m.label).copied().unwrap_or(0);
        lines.push(format!(
            "    {{\"fixture\": {}, \"cycles\": {}, \"wall_ns\": {:.0}}}",
            json_string(&m.label),
            cyc,
            m.mean_ns,
        ));
    }

    let body = format!(
        "{{\n  \"schema\": \"{SCHEMA}\",\n  \"results\": [\n{}\n  ]\n}}\n",
        lines.join(",\n")
    );
    std::fs::write(&out_path, &body).expect("write bench json");
    println!("\nwrote {} ({} results)", out_path, lines.len());

    let history_path =
        std::env::var("NOC_BENCH_HISTORY").unwrap_or_else(|_| "BENCH_history.jsonl".to_string());
    if !history_path.is_empty() {
        let mode = if fast { "fast" } else { "full" };
        append_history(&history_path, mode, &collected.borrow());
    }
}

/// Append one compact JSON line for this run — keyed by the git commit —
/// to the history log, so successive PRs leave a perf trajectory.
fn append_history(path: &str, mode: &str, measurements: &[Measurement]) {
    use std::io::Write;

    let results: Vec<String> = measurements
        .iter()
        .map(|m| {
            format!(
                "{{\"fixture\": {}, \"wall_ns\": {:.0}}}",
                json_string(&m.label),
                m.mean_ns
            )
        })
        .collect();
    let line = format!(
        "{{\"schema\": \"noc-bench/history/v1\", \"commit\": {}, \"mode\": \"{}\", \"results\": [{}]}}\n",
        json_string(&noc_telemetry::git_commit()),
        mode,
        results.join(", ")
    );
    let appended = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut f| f.write_all(line.as_bytes()));
    match appended {
        Ok(()) => println!("appended 1 run to {path}"),
        Err(e) => eprintln!("warning: could not append history to {path}: {e}"),
    }
}

/// Minimal JSON string escaping (labels only contain benign characters, but
/// be correct anyway).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

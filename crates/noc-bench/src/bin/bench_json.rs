//! Bench-to-JSON binary: times the `sim_throughput`, `table2`,
//! `batch_sweep` and `hetero_analysis` groups of [`noc_bench::suites`]
//! and writes a machine-readable `BENCH_sim.json`, so performance claims
//! in this repo always come with checked-in numbers. Every run also
//! appends one line to `BENCH_history.jsonl` keyed by the git commit,
//! building a perf trajectory across PRs.
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
//! Each fixture becomes one line in the output's `results` array: fixture
//! label, cycles simulated per iteration (0 for the analysis-side
//! `hetero_analysis` group) and the min, median and max of its 10
//! samples, in wall-clock nanoseconds per iteration
//! ([`Sampler::LEDGER`]). Compare runs through the history log. The writer
//! is deliberately ad-hoc line-oriented JSON so the repo needs no serde.

use noc_bench::sampler::Sampler;
use noc_bench::suites::{self, Row};

/// Schema tag written to (and expected in) the JSON output.
const SCHEMA: &str = "noc-bench/sim/v3";

/// Schema tag of each line appended to the history log.
const HISTORY_SCHEMA: &str = "noc-bench/history/v2";

fn main() {
    let fast = std::env::var("NOC_BENCH_FAST")
        .map(|v| v == "1")
        .unwrap_or(false);

    let out_path = std::env::var("NOC_BENCH_OUT").unwrap_or_else(|_| "BENCH_sim.json".to_string());

    let rows = suites::ledger(&Sampler::LEDGER, !fast);
    for row in &rows {
        let s = &row.stats;
        println!(
            "{:<56} min {:>12.0} ns  median {:>12.0} ns  max {:>12.0} ns",
            row.label, s.min_ns, s.median_ns, s.max_ns
        );
    }

    let lines: Vec<String> = rows
        .iter()
        .map(|row| {
            format!(
                "    {{\"fixture\": {}, \"cycles\": {}, {}}}",
                json_string(&row.label),
                row.cycles,
                stats_fields(row),
            )
        })
        .collect();
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
        append_history(&history_path, mode, &rows);
    }
}

/// The `min_ns`, `median_ns` and `max_ns` fields of one row.
fn stats_fields(row: &Row) -> String {
    let s = &row.stats;
    format!(
        "\"min_ns\": {:.0}, \"median_ns\": {:.0}, \"max_ns\": {:.0}",
        s.min_ns, s.median_ns, s.max_ns
    )
}

/// Append one compact JSON line for this run — keyed by the git commit —
/// to the history log, so successive PRs leave a perf trajectory.
fn append_history(path: &str, mode: &str, rows: &[Row]) {
    use std::io::Write;

    let results: Vec<String> = rows
        .iter()
        .map(|row| {
            format!(
                "{{\"fixture\": {}, {}}}",
                json_string(&row.label),
                stats_fields(row)
            )
        })
        .collect();
    let line = format!(
        "{{\"schema\": \"{HISTORY_SCHEMA}\", \"commit\": {}, \"mode\": \"{}\", \"results\": [{}]}}\n",
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

/// `s` as a JSON string.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    noc_telemetry::events::push_json_str(&mut out, s);
    out
}

//! Extension experiment: breakdown-factor comparison across analyses — a
//! continuous measure of tightness (the smallest uniform period scaling
//! that makes each set schedulable; smaller is tighter).
//!
//! ```text
//! cargo run --release -p noc-experiments --bin scaling
//! ```
//!
//! Environment (a count that is malformed or 0 exits with status 2):
//! * `NOC_MPB_SETS` — flow sets (default 50);
//! * `NOC_MPB_FLOWS` — flows per set (default 160);
//! * `NOC_MPB_THREADS` — worker threads.

use noc_experiments::env::env_count;
use noc_experiments::prelude::*;

fn main() {
    let mut cfg = ScalingConfig::paper();
    cfg.sets = env_count("NOC_MPB_SETS", cfg.sets);
    cfg.n_flows = env_count("NOC_MPB_FLOWS", cfg.n_flows);
    cfg.threads = env_count("NOC_MPB_THREADS", default_threads());
    eprintln!(
        "breakdown scaling: {} sets of {} flows on {}x{} ...",
        cfg.sets, cfg.n_flows, cfg.mesh_width, cfg.mesh_height
    );
    let start = std::time::Instant::now();
    let results = scaling::run(&cfg);
    eprintln!("  done in {:.1}s", start.elapsed().as_secs_f64());
    println!(
        "Breakdown factors ({} sets of {} flows on {}x{}; smaller = tighter):\n",
        cfg.sets, cfg.n_flows, cfg.mesh_width, cfg.mesh_height
    );
    println!("{}", scaling::render(&results, &cfg));
    println!(
        "A factor of 1.0 means \"schedulable exactly as generated\"; the gap\n\
         between the IBN and XLWX rows is the certified-capacity advantage of\n\
         the buffer-aware analysis, and the SB row is the (unsafe) floor."
    );
}

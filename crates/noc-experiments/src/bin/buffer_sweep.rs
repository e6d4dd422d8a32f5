//! Regenerates the paper's §VI buffer-size observation: IBN schedulability
//! decreases monotonically as router buffers grow from 2 to 100 flits.
//!
//! ```text
//! cargo run --release -p noc-experiments --bin buffer_sweep
//! ```
//!
//! Environment (a count that is malformed or 0 exits with status 2):
//! * `NOC_MPB_SETS` — flow sets per depth (default 100);
//! * `NOC_MPB_FLOWS` — flows per set (default 160, where Figure 4(a)
//!   separates the analyses);
//! * `NOC_MPB_THREADS` — worker threads.

use noc_experiments::env::env_count;
use noc_experiments::prelude::*;

fn main() {
    let mut cfg = BufferSweepConfig::paper();
    cfg.sets = env_count("NOC_MPB_SETS", 100);
    cfg.n_flows = env_count("NOC_MPB_FLOWS", cfg.n_flows);
    cfg.threads = env_count("NOC_MPB_THREADS", default_threads());
    eprintln!(
        "buffer sweep: {} depths x {} sets of {} flows on {}x{} ...",
        cfg.buffer_depths.len(),
        cfg.sets,
        cfg.n_flows,
        cfg.mesh_width,
        cfg.mesh_height
    );
    let start = std::time::Instant::now();
    let results = buffer_sweep::run(&cfg);
    eprintln!("  done in {:.1}s", start.elapsed().as_secs_f64());
    println!(
        "Buffer-depth sweep ({} flows on {}x{}): % schedulable flow sets\n",
        cfg.n_flows, cfg.mesh_width, cfg.mesh_height
    );
    println!("{}", buffer_sweep::render(&results));
    println!(
        "The paper reports (§VI) that schedulability decreases monotonically\n\
         with buffer size in every configuration tested; the IBN column above\n\
         should be non-increasing and lower-bounded by the XLWX row."
    );
}

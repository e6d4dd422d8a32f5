//! Regenerates Figure 5: % of schedulable AV-benchmark mappings per
//! topology (26 meshes, 2×2 .. 10×10) under XLWX / IBN2 / IBN100.
//!
//! ```text
//! cargo run --release -p noc-experiments --bin fig5
//! ```
//!
//! Environment (a count that is malformed or 0 exits with status 2):
//! * `NOC_MPB_MAPPINGS` — mappings per topology (default 100);
//! * `NOC_MPB_THREADS` — worker threads;
//! * `NOC_MPB_CSV_DIR` — if set, also writes `fig5.csv`.

use noc_experiments::chart::{render_curves, Series};
use noc_experiments::env::env_count;
use noc_experiments::prelude::*;
use noc_experiments::table::TextTable;

fn main() {
    let mut cfg = Fig5Config::paper();
    cfg.mappings_per_topology = env_count("NOC_MPB_MAPPINGS", 100);
    cfg.threads = env_count("NOC_MPB_THREADS", default_threads());
    eprintln!(
        "fig5: {} topologies x {} mappings, {} threads ...",
        cfg.topologies.len(),
        cfg.mappings_per_topology,
        cfg.threads
    );
    let start = std::time::Instant::now();
    let results = fig5::run(&cfg);
    eprintln!("  done in {:.1}s", start.elapsed().as_secs_f64());
    println!("Figure 5: % schedulable AV-benchmark mappings\n");
    println!("{}", fig5::render(&results, &cfg));
    let labels: Vec<String> = results.points.iter().map(|p| p.dims.to_string()).collect();
    let label_refs: Vec<&str> = labels.iter().map(String::as_str).collect();
    let pick = |f: fn(&noc_experiments::fig5::Fig5Point) -> f64| {
        results.points.iter().map(f).collect::<Vec<f64>>()
    };
    println!(
        "{}",
        render_curves(
            &[
                Series {
                    glyph: 'x',
                    name: "XLWX".into(),
                    values: pick(|p| p.xlwx)
                },
                Series {
                    glyph: 'L',
                    name: format!("IBN{}", cfg.buffer_large),
                    values: pick(|p| p.ibn_large)
                },
                Series {
                    glyph: 'i',
                    name: format!("IBN{}", cfg.buffer_small),
                    values: pick(|p| p.ibn_small)
                },
            ],
            &label_refs,
        )
    );
    println!(
        "max IBN{} - XLWX gap: {:.0} percentage points (paper: up to 67%)",
        cfg.buffer_small,
        fig5::max_ibn_xlwx_gap(&results)
    );
    if let Ok(dir) = std::env::var("NOC_MPB_CSV_DIR") {
        let mut t = TextTable::new(vec!["topology", "xlwx", "ibn2", "ibn100"]);
        for p in &results.points {
            t.add_row(vec![
                p.dims.to_string(),
                format!("{:.1}", p.xlwx),
                format!("{:.1}", p.ibn_small),
                format!("{:.1}", p.ibn_large),
            ]);
        }
        let path = std::path::Path::new(&dir).join("fig5.csv");
        std::fs::create_dir_all(&dir).expect("create CSV dir");
        std::fs::write(&path, t.to_csv()).expect("write CSV");
        eprintln!("  wrote {}", path.display());
    }
}

//! Regenerates Figure 4: % of schedulable flow sets vs set size, for the
//! 4×4 (a) and 8×8 (b) platforms, under SB / XLWX / IBN2 / IBN100.
//!
//! ```text
//! cargo run --release -p noc-experiments --bin fig4
//! ```
//!
//! Environment (a count that is malformed or 0 exits with status 2):
//! * `NOC_MPB_SETS` — flow sets per point (default 100, the paper's value);
//! * `NOC_MPB_THREADS` — worker threads (default: available parallelism);
//! * `NOC_MPB_CSV_DIR` — if set, also writes `fig4a.csv` / `fig4b.csv`.

use noc_experiments::chart::{render_curves, Series};
use noc_experiments::env::env_count;
use noc_experiments::prelude::*;
use noc_experiments::table::TextTable;

fn to_csv(results: &noc_experiments::fig4::Fig4Results) -> String {
    let mut t = TextTable::new(vec!["n_flows", "sb", "xlwx", "ibn2", "ibn100"]);
    for p in &results.points {
        t.add_row(vec![
            p.n_flows.to_string(),
            format!("{:.1}", p.sb),
            format!("{:.1}", p.xlwx),
            format!("{:.1}", p.ibn_small),
            format!("{:.1}", p.ibn_large),
        ]);
    }
    t.to_csv()
}

fn main() {
    let sets = env_count("NOC_MPB_SETS", 100);
    let threads = env_count("NOC_MPB_THREADS", default_threads());
    let csv_dir = std::env::var("NOC_MPB_CSV_DIR").ok();

    for (label, mut cfg, csv_name) in [
        ("(a) 4x4", Fig4Config::paper_4x4(), "fig4a.csv"),
        ("(b) 8x8", Fig4Config::paper_8x8(), "fig4b.csv"),
    ] {
        cfg.sets_per_point = sets;
        cfg.threads = threads;
        eprintln!(
            "fig4 {label}: {} points x {} sets, {} threads ...",
            cfg.flow_counts.len(),
            cfg.sets_per_point,
            cfg.threads
        );
        let start = std::time::Instant::now();
        let results = fig4::run(&cfg);
        eprintln!("  done in {:.1}s", start.elapsed().as_secs_f64());
        println!("Figure 4{label}: % schedulable flow sets\n");
        println!("{}", fig4::render(&results, &cfg));
        let labels: Vec<String> = results
            .points
            .iter()
            .map(|p| p.n_flows.to_string())
            .collect();
        let label_refs: Vec<&str> = labels.iter().map(String::as_str).collect();
        let pick = |f: fn(&noc_experiments::fig4::Fig4Point) -> f64| {
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
                    Series {
                        glyph: 's',
                        name: "SB".into(),
                        values: pick(|p| p.sb)
                    },
                ],
                &label_refs,
            )
        );
        println!(
            "max IBN{} - XLWX gap: {:.0} percentage points (paper: up to {}%)\n",
            cfg.buffer_small,
            fig4::max_ibn_xlwx_gap(&results),
            if label.contains("4x4") { 58 } else { 45 },
        );
        if let Some(dir) = &csv_dir {
            let path = std::path::Path::new(dir).join(csv_name);
            std::fs::create_dir_all(dir).expect("create CSV dir");
            std::fs::write(&path, to_csv(&results)).expect("write CSV");
            eprintln!("  wrote {}", path.display());
        }
    }
}

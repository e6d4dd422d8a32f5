//! Experiment F5: the AV benchmark across 26 topologies (Figure 5).
//!
//! 100 random mappings of the autonomous-vehicle application onto each mesh
//! from 2×2 to 10×10; the percentage of mappings deemed fully schedulable
//! by XLWX, IBN(b=2) and IBN(b=100).

use noc_analysis::prelude::*;
use noc_model::prelude::*;
use noc_model::topology::MeshDims;
use noc_workload::av::{av_benchmark, AvApplication};
use noc_workload::mapping::random_mapping;
use noc_workload::topologies::fig5_topologies;

use crate::fig4::judge_chain;
use crate::runner::{default_threads, par_map_indexed};
use crate::table::TextTable;

/// Configuration of a Figure-5 style sweep.
#[derive(Debug, Clone)]
pub struct Fig5Config {
    /// Topologies to map onto.
    pub topologies: Vec<MeshDims>,
    /// Random mappings per topology.
    pub mappings_per_topology: usize,
    /// Base RNG seed.
    pub seed_base: u64,
    /// Small buffer depth (paper: 2).
    pub buffer_small: u32,
    /// Large buffer depth (paper: 100).
    pub buffer_large: u32,
    /// Worker threads.
    pub threads: usize,
}

impl Fig5Config {
    /// The paper's setup: 26 topologies × 100 mappings.
    pub fn paper() -> Fig5Config {
        Fig5Config {
            topologies: fig5_topologies(),
            mappings_per_topology: 100,
            seed_base: 0xF1_65,
            buffer_small: 2,
            buffer_large: 100,
            threads: default_threads(),
        }
    }

    /// Scales the experiment down for quick runs.
    #[must_use]
    pub fn reduced(mut self, topologies: usize, mappings: usize) -> Fig5Config {
        let stride = (self.topologies.len() / topologies.max(1)).max(1);
        self.topologies = self
            .topologies
            .iter()
            .copied()
            .step_by(stride)
            .take(topologies)
            .collect();
        self.mappings_per_topology = mappings;
        self
    }
}

/// One bar group of Figure 5.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig5Point {
    /// Topology size.
    pub dims: MeshDims,
    /// % of mappings schedulable under XLWX.
    pub xlwx: f64,
    /// % under IBN(small buffers).
    pub ibn_small: f64,
    /// % under IBN(large buffers).
    pub ibn_large: f64,
}

/// Results of a Figure-5 sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig5Results {
    /// One point per topology, in x-axis order.
    pub points: Vec<Fig5Point>,
}

fn judge_mapping(
    app: &AvApplication,
    dims: MeshDims,
    config: &Fig5Config,
    seed: u64,
) -> (bool, bool, bool) {
    let noc = NocConfig::builder()
        .buffer_depth(config.buffer_small)
        .link_latency(Cycles::ONE)
        .routing_latency(Cycles::ZERO)
        .build();
    let mapped =
        random_mapping(app, dims.width, dims.height, noc, seed).expect("mesh mapping cannot fail");
    // One context per mapping: XLWX and both IBN depths share the graph.
    let Ok(ctx) = AnalysisContext::new(mapped.system()) else {
        return (false, false, false);
    };
    judge_chain(&ctx, config.buffer_large)
}

/// Runs the sweep with the bundled AV benchmark.
pub fn run(config: &Fig5Config) -> Fig5Results {
    let app = av_benchmark();
    let points = config
        .topologies
        .iter()
        .map(|&dims| {
            let verdicts: Vec<(bool, bool, bool)> =
                par_map_indexed(config.mappings_per_topology, config.threads, |s| {
                    let seed = config
                        .seed_base
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        .wrapping_add((dims.len() as u64) << 32 | s as u64);
                    judge_mapping(&app, dims, config, seed)
                });
            let pct = |f: &dyn Fn(&(bool, bool, bool)) -> bool| {
                100.0 * verdicts.iter().filter(|v| f(v)).count() as f64 / verdicts.len() as f64
            };
            Fig5Point {
                dims,
                xlwx: pct(&|v| v.0),
                ibn_small: pct(&|v| v.1),
                ibn_large: pct(&|v| v.2),
            }
        })
        .collect();
    Fig5Results { points }
}

/// Renders the results as an aligned table (one row per topology).
pub fn render(results: &Fig5Results, config: &Fig5Config) -> String {
    let mut t = TextTable::new(vec![
        "topology".to_string(),
        "XLWX".to_string(),
        format!("IBN{}", config.buffer_small),
        format!("IBN{}", config.buffer_large),
    ]);
    for p in &results.points {
        t.add_row(vec![
            p.dims.to_string(),
            format!("{:.0}", p.xlwx),
            format!("{:.0}", p.ibn_small),
            format!("{:.0}", p.ibn_large),
        ]);
    }
    t.render()
}

/// Largest IBN(small) − XLWX gap in percentage points (the paper reports up
/// to 67).
pub fn max_ibn_xlwx_gap(results: &Fig5Results) -> f64 {
    results
        .points
        .iter()
        .map(|p| p.ibn_small - p.xlwx)
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> Fig5Config {
        Fig5Config {
            topologies: vec![
                MeshDims {
                    width: 3,
                    height: 3,
                },
                MeshDims {
                    width: 6,
                    height: 6,
                },
            ],
            mappings_per_topology: 10,
            threads: 4,
            ..Fig5Config::paper()
        }
    }

    #[test]
    fn percentages_ordered_by_tightness() {
        let results = run(&small_config());
        assert_eq!(results.points.len(), 2);
        for p in &results.points {
            assert!(p.ibn_small >= p.ibn_large, "{p:?}");
            assert!(p.ibn_large >= p.xlwx, "{p:?}");
        }
    }

    #[test]
    fn reduced_trims() {
        let cfg = Fig5Config::paper().reduced(5, 7);
        assert_eq!(cfg.topologies.len(), 5);
        assert_eq!(cfg.mappings_per_topology, 7);
    }

    #[test]
    fn render_lists_topologies() {
        let cfg = small_config();
        let out = render(&run(&cfg), &cfg);
        assert!(out.contains("3x3"));
        assert!(out.contains("6x6"));
    }
}

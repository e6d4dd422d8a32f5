//! Experiment F4: large-scale schedulability comparison (Figure 4).
//!
//! For flow sets of increasing size on a 4×4 (a) and an 8×8 (b) platform,
//! the percentage of fully schedulable sets under SB (unsafe baseline),
//! XLWX (safe baseline), IBN with 2-flit buffers and IBN with 100-flit
//! buffers.
//!
//! The inclusion `sched(XLWX) ⊆ sched(IBN100) ⊆ sched(IBN2)` lets the
//! harness evaluate the safe analyses lazily (cheapest sufficient check
//! first); [`Fig4Config::exhaustive`] disables the shortcut for
//! benchmarking, and a unit test asserts both modes agree.
//!
//! Each generated flow set builds one [`AnalysisContext`]; all analyses and
//! both buffer depths share its interference graph.

use noc_analysis::prelude::*;
use noc_model::system::System;
use noc_workload::synthetic::SyntheticSpec;

use crate::runner::{default_threads, par_map_indexed};
use crate::table::TextTable;

/// Configuration of a Figure-4 style sweep.
#[derive(Debug, Clone)]
pub struct Fig4Config {
    /// Mesh width.
    pub mesh_width: u16,
    /// Mesh height.
    pub mesh_height: u16,
    /// The x-axis: flow-set sizes.
    pub flow_counts: Vec<usize>,
    /// Flow sets generated per point.
    pub sets_per_point: usize,
    /// Base RNG seed; set `s` of point `n` uses seed `base ⊕ (n, s)`.
    pub seed_base: u64,
    /// Small buffer depth (paper: 2).
    pub buffer_small: u32,
    /// Large buffer depth (paper: 100).
    pub buffer_large: u32,
    /// Worker threads.
    pub threads: usize,
    /// Evaluate all four analyses on every set instead of using the
    /// schedulability inclusions.
    pub exhaustive: bool,
}

impl Fig4Config {
    /// Figure 4(a): the 4×4 platform, 40–420 flows.
    pub fn paper_4x4() -> Fig4Config {
        Fig4Config {
            mesh_width: 4,
            mesh_height: 4,
            flow_counts: (40..=420).step_by(20).collect(),
            sets_per_point: 100,
            seed_base: 0x4A4A,
            buffer_small: 2,
            buffer_large: 100,
            threads: default_threads(),
            exhaustive: false,
        }
    }

    /// Figure 4(b): the 8×8 platform, 80–520 flows.
    pub fn paper_8x8() -> Fig4Config {
        Fig4Config {
            mesh_width: 8,
            mesh_height: 8,
            flow_counts: (80..=520).step_by(20).collect(),
            sets_per_point: 100,
            seed_base: 0x8B8B,
            ..Fig4Config::paper_4x4()
        }
    }

    /// Scales the experiment down (fewer points/sets) for quick runs.
    #[must_use]
    pub fn reduced(mut self, points: usize, sets: usize) -> Fig4Config {
        let stride = (self.flow_counts.len() / points.max(1)).max(1);
        self.flow_counts = self
            .flow_counts
            .iter()
            .copied()
            .step_by(stride)
            .take(points)
            .collect();
        self.sets_per_point = sets;
        self
    }
}

/// Schedulability verdict of one flow set under the four analyses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SetVerdicts {
    /// Shi & Burns (unsafe baseline).
    pub sb: bool,
    /// XLWX (safe state of the art).
    pub xlwx: bool,
    /// IBN with the small buffer depth.
    pub ibn_small: bool,
    /// IBN with the large buffer depth.
    pub ibn_large: bool,
}

/// One point of the schedulability curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig4Point {
    /// Number of flows per set.
    pub n_flows: usize,
    /// % of sets schedulable under SB.
    pub sb: f64,
    /// % under XLWX.
    pub xlwx: f64,
    /// % under IBN(small buffers).
    pub ibn_small: f64,
    /// % under IBN(large buffers).
    pub ibn_large: f64,
}

/// Results of a Figure-4 sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig4Results {
    /// Curve points in x order.
    pub points: Vec<Fig4Point>,
}

/// Evaluates one generated system under all four analyses, building the
/// shared [`AnalysisContext`] internally. Harnesses that already hold a
/// context should call [`judge_set_with`].
pub fn judge_set(
    system: &System,
    buffer_small: u32,
    buffer_large: u32,
    exhaustive: bool,
) -> SetVerdicts {
    let Ok(ctx) = AnalysisContext::new(system) else {
        // A model-assumption violation means no analysis can certify the set.
        return SetVerdicts {
            sb: false,
            xlwx: false,
            ibn_small: false,
            ibn_large: false,
        };
    };
    judge_set_with(&ctx, buffer_small, buffer_large, exhaustive)
}

/// Evaluates one system under all four analyses against a shared context:
/// the interference graph is derived once and reused by every analysis and
/// both buffer depths (via [`AnalysisContext::rebase`]).
pub fn judge_set_with(
    ctx: &AnalysisContext<'_>,
    buffer_small: u32,
    buffer_large: u32,
    exhaustive: bool,
) -> SetVerdicts {
    let small_sys = ctx.system().with_buffer_depth(buffer_small);
    let small = ctx.rebased(&small_sys);
    let sb = schedulable(&ShiBurns, &small);
    let (xlwx, ibn_small, ibn_large) = if exhaustive {
        let large_sys = ctx.system().with_buffer_depth(buffer_large);
        let large = ctx.rebased(&large_sys);
        (
            schedulable(&Xlwx, &small),
            schedulable(&BufferAware, &small),
            schedulable(&BufferAware, &large),
        )
    } else {
        judge_chain(&small, buffer_large)
    };
    SetVerdicts {
        sb,
        xlwx,
        ibn_small,
        ibn_large,
    }
}

/// Whether `analysis` certifies every flow over `ctx`; a failed solve
/// certifies nothing.
fn schedulable(analysis: &dyn Analysis, ctx: &AnalysisContext<'_>) -> bool {
    analysis
        .analyze_with(ctx)
        .map(|r| r.is_schedulable())
        .unwrap_or(false)
}

/// The XLWX, IBN(small) and IBN(large) verdicts of the system `small`
/// holds at the small buffer depth, evaluated lazily along the inclusion
/// chain sched(XLWX) ⊆ sched(IBN_large) ⊆ sched(IBN_small):
/// – an unschedulable IBN_small implies the others are unschedulable;
/// – a schedulable XLWX implies the others are schedulable.
///
/// IBN(large) is solved, over `small` rebased to the large depth, only
/// when neither shortcut decides it.
pub(crate) fn judge_chain(small: &AnalysisContext<'_>, buffer_large: u32) -> (bool, bool, bool) {
    if !schedulable(&BufferAware, small) {
        return (false, false, false);
    }
    let xlwx = schedulable(&Xlwx, small);
    let ibn_large = xlwx || {
        let large_sys = small.system().with_buffer_depth(buffer_large);
        schedulable(&BufferAware, &small.rebased(&large_sys))
    };
    (xlwx, true, ibn_large)
}

/// Runs the sweep.
pub fn run(config: &Fig4Config) -> Fig4Results {
    let points = config
        .flow_counts
        .iter()
        .map(|&n| {
            let spec = SyntheticSpec::paper(
                config.mesh_width,
                config.mesh_height,
                n,
                config.buffer_small,
            );
            let verdicts: Vec<SetVerdicts> =
                par_map_indexed(config.sets_per_point, config.threads, |s| {
                    let seed = config
                        .seed_base
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        .wrapping_add((n as u64) << 32 | s as u64);
                    let system = spec.generate(seed).into_system();
                    judge_set(
                        &system,
                        config.buffer_small,
                        config.buffer_large,
                        config.exhaustive,
                    )
                });
            let pct = |f: &dyn Fn(&SetVerdicts) -> bool| {
                100.0 * verdicts.iter().filter(|v| f(v)).count() as f64 / verdicts.len() as f64
            };
            Fig4Point {
                n_flows: n,
                sb: pct(&|v| v.sb),
                xlwx: pct(&|v| v.xlwx),
                ibn_small: pct(&|v| v.ibn_small),
                ibn_large: pct(&|v| v.ibn_large),
            }
        })
        .collect();
    Fig4Results { points }
}

/// Renders the curve as an aligned table (one row per x value).
pub fn render(results: &Fig4Results, config: &Fig4Config) -> String {
    let mut t = TextTable::new(vec![
        "#flows".to_string(),
        "SB".to_string(),
        "XLWX".to_string(),
        format!("IBN{}", config.buffer_small),
        format!("IBN{}", config.buffer_large),
    ]);
    for p in &results.points {
        t.add_row(vec![
            p.n_flows.to_string(),
            format!("{:.0}", p.sb),
            format!("{:.0}", p.xlwx),
            format!("{:.0}", p.ibn_small),
            format!("{:.0}", p.ibn_large),
        ]);
    }
    t.render()
}

/// Largest IBN(small) − XLWX gap over the curve, in percentage points (the
/// paper reports up to 58 on 4×4 and 45 on 8×8).
pub fn max_ibn_xlwx_gap(results: &Fig4Results) -> f64 {
    results
        .points
        .iter()
        .map(|p| p.ibn_small - p.xlwx)
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> Fig4Config {
        Fig4Config {
            flow_counts: vec![60, 140],
            sets_per_point: 12,
            threads: 4,
            ..Fig4Config::paper_4x4()
        }
    }

    #[test]
    fn lazy_and_exhaustive_agree() {
        let mut cfg = small_config();
        let lazy = run(&cfg);
        cfg.exhaustive = true;
        let full = run(&cfg);
        assert_eq!(lazy, full);
    }

    #[test]
    fn percentages_ordered_by_analysis_tightness() {
        let results = run(&small_config());
        for p in &results.points {
            assert!(p.ibn_small >= p.ibn_large, "{p:?}");
            assert!(p.ibn_large >= p.xlwx, "{p:?}");
            assert!(p.sb >= p.ibn_small, "{p:?}");
            assert!((0.0..=100.0).contains(&p.sb));
        }
    }

    #[test]
    fn reduced_trims_points_and_sets() {
        let cfg = Fig4Config::paper_4x4().reduced(4, 5);
        assert_eq!(cfg.flow_counts.len(), 4);
        assert_eq!(cfg.sets_per_point, 5);
    }

    #[test]
    fn render_contains_counts() {
        let cfg = small_config();
        let out = render(&run(&cfg), &cfg);
        assert!(out.contains("60"));
        assert!(out.contains("IBN2"));
        assert!(out.contains("IBN100"));
    }
}

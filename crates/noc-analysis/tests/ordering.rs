//! Property tests for the paper's safety-ordering claims:
//!
//! * `R_SB ≤ R_IBN ≤ R_XLWX` for every flow (§IV: IBN is "tighter, but
//!   never less tight than XLWX"; SB omits MPB charges entirely);
//! * `R_IBN` is non-decreasing in the buffer depth (§V–VI: "smaller buffers
//!   … tighter bounds");
//! * schedulable-set inclusions follow: XLWX ⊆ IBN(b) ⊆ SB, and
//!   IBN(100) ⊆ IBN(2);
//! * every bound is at least the zero-load latency.

use noc_analysis::prelude::*;
use noc_model::prelude::*;
use noc_workload::synthetic::SyntheticSpec;
use proptest::prelude::*;

/// A small synthetic system: heavy enough for indirect interference to
/// appear, light enough for fast property iterations.
fn workload(seed: u64, n_flows: usize, buffer: u32) -> System {
    let mut spec = SyntheticSpec::paper(4, 4, n_flows, buffer);
    // Shrink periods (denser contention → more MPB scenarios per case).
    spec.period_range = (2_000, 200_000);
    spec.length_range = (16, 512);
    spec.generate(seed).into_system()
}

/// Response times comparable across two reports: both verdicts schedulable.
fn comparable(a: &AnalysisReport, b: &AnalysisReport) -> Vec<(FlowId, Cycles, Cycles)> {
    a.iter()
        .filter_map(|(id, va)| {
            let ra = va.response_time()?;
            let rb = b.verdict(id).response_time()?;
            Some((id, ra, rb))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// SB ≤ IBN ≤ XLWX, flow by flow.
    #[test]
    fn sb_ibn_xlwx_ordering(seed in 0u64..10_000, n in 4usize..28) {
        let sys = workload(seed, n, 4);
        let sb = ShiBurns.analyze(&sys).unwrap();
        let ibn = BufferAware.analyze(&sys).unwrap();
        let xlwx = Xlwx.analyze(&sys).unwrap();
        for (id, r_sb, r_ibn) in comparable(&sb, &ibn) {
            prop_assert!(r_sb <= r_ibn, "{id}: SB {r_sb} > IBN {r_ibn}");
        }
        for (id, r_ibn, r_xlwx) in comparable(&ibn, &xlwx) {
            prop_assert!(r_ibn <= r_xlwx, "{id}: IBN {r_ibn} > XLWX {r_xlwx}");
        }
        // NoIndirect is the loosest model of interference and lower-bounds SB.
        let naive = NoIndirect.analyze(&sys).unwrap();
        for (id, r_naive, r_sb) in comparable(&naive, &sb) {
            prop_assert!(r_naive <= r_sb, "{id}: naive {r_naive} > SB {r_sb}");
        }
    }

    /// IBN response times never decrease when buffers grow.
    #[test]
    fn ibn_monotone_in_buffer(seed in 0u64..10_000, n in 4usize..24) {
        let sys = workload(seed, n, 2);
        let depths = [1u32, 2, 4, 8, 16, 64, 256];
        let mut previous: Option<AnalysisReport> = None;
        for &b in &depths {
            let report = BufferAware.analyze(&sys.with_buffer_depth(b)).unwrap();
            if let Some(prev) = &previous {
                for (id, r_small, r_big) in comparable(prev, &report) {
                    prop_assert!(
                        r_small <= r_big,
                        "{id}: IBN shrank from {r_small} to {r_big} as buffers grew"
                    );
                }
                // Schedulability can only degrade with bigger buffers.
                prop_assert!(prev.schedulable_count() >= report.schedulable_count());
            }
            previous = Some(report);
        }
    }

    /// For enormous buffers IBN coincides with XLWX (the min() in Eq. 8
    /// always selects the XLWX charge).
    #[test]
    fn ibn_saturates_to_xlwx(seed in 0u64..10_000, n in 4usize..20) {
        let sys = workload(seed, n, 2);
        let huge = sys.with_buffer_depth(1_000_000);
        let ibn = BufferAware.analyze(&huge).unwrap();
        let xlwx = Xlwx.analyze(&huge).unwrap();
        for id in sys.flows().ids() {
            prop_assert_eq!(ibn.verdict(id), xlwx.verdict(id), "{}", id);
        }
    }

    /// Schedulable-set inclusions: a set schedulable under XLWX is
    /// schedulable under IBN; schedulable under IBN implies schedulable
    /// under SB.
    #[test]
    fn schedulability_inclusions(seed in 0u64..10_000, n in 4usize..28) {
        let sys = workload(seed, n, 2);
        let sb = ShiBurns.analyze(&sys).unwrap();
        let ibn2 = BufferAware.analyze(&sys).unwrap();
        let ibn100 = BufferAware.analyze(&sys.with_buffer_depth(100)).unwrap();
        let xlwx = Xlwx.analyze(&sys).unwrap();
        if xlwx.is_schedulable() {
            prop_assert!(ibn100.is_schedulable());
        }
        if ibn100.is_schedulable() {
            prop_assert!(ibn2.is_schedulable());
        }
        if ibn2.is_schedulable() {
            prop_assert!(sb.is_schedulable());
        }
    }

    /// Every schedulable bound is at least the zero-load latency, and at
    /// most the deadline.
    #[test]
    fn bounds_bracket(seed in 0u64..10_000, n in 4usize..24) {
        let sys = workload(seed, n, 4);
        for analysis in all_analyses() {
            let report = analysis.analyze(&sys).unwrap();
            for (id, v) in report.iter() {
                if let Some(r) = v.response_time() {
                    prop_assert!(r >= sys.zero_load_latency(id), "{}", analysis.name());
                    prop_assert!(r <= sys.flow(id).deadline(), "{}", analysis.name());
                }
            }
        }
    }

    /// The highest-priority flow's bound is exactly C under every analysis.
    #[test]
    fn top_priority_is_zero_load(seed in 0u64..10_000, n in 2usize..20) {
        let sys = workload(seed, n, 4);
        let top = sys.flows().ids_by_priority()[0];
        for analysis in all_analyses() {
            let report = analysis.analyze(&sys).unwrap();
            prop_assert_eq!(
                report.response_time(top),
                Some(sys.zero_load_latency(top)),
                "{}",
                analysis.name()
            );
        }
    }
}

/// Every schedulable bound is at most its flow's deadline on bursty,
/// heterogeneous-buffer and near-saturated fabrics as well. The solver
/// reads a settled flow's `Rⱼ` back off its verdict, a `u64` cycle count,
/// which loses nothing only because `Rⱼ ≤ Dⱼ`.
#[test]
fn schedulable_bounds_never_exceed_deadlines_on_stressed_fabrics() {
    let mut tightest = 0.0f64;
    for seed in 0..48u64 {
        let mut spec = SyntheticSpec::paper(4, 4, 6 + (seed as usize % 20), 2);
        let saturate = |spec: &mut SyntheticSpec| spec.period_range = (1_000, 20_000);
        match seed % 4 {
            0 => spec = spec.with_burst_range(0, 3),
            1 => spec = spec.with_buffer_depth_range(2, 16),
            2 => saturate(&mut spec),
            _ => {
                spec = spec.with_burst_range(0, 2).with_buffer_depth_range(2, 8);
                saturate(&mut spec);
            }
        }
        let sys = spec.generate(seed).into_system();
        for kind in AnalysisKind::ALL {
            for (id, v) in kind.analyze(&sys).unwrap().iter() {
                if let Some(r) = v.response_time() {
                    let d = sys.flow(id).deadline();
                    assert!(r <= d, "seed {seed}, {}: {id} R={r} > D={d}", kind.name());
                    tightest = tightest.max(r.as_u64() as f64 / d.as_u64() as f64);
                }
            }
        }
    }
    // The near-saturated fabrics bring some bound close to its deadline.
    assert!(tightest > 0.9, "tightest R/D was {tightest}");
}

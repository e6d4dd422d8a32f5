//! Two ablations in one run: what each of the five analyses makes of the
//! same workloads, and whether the paper's rate-monotonic priorities
//! matter.
//!
//! ```text
//! cargo run --release --example ablations
//! ```
//!
//! The first table gives each analysis' bound on the didactic MPB victim
//! τ3 (b=10), including the two that are unsafe under multi-point
//! progressive blocking (NoIndirect and the original Xiong Eq. 4), and
//! how many of 200 flows on a loaded 4×4 platform each one deems
//! schedulable. The second compares rate-monotonic priorities (the
//! paper's choice, §VI) with uniformly random ones under IBN at a
//! Figure-4(a) operating point.

use noc_mpb::prelude::*;

/// Bound per analysis on τ3, then schedulability on a loaded platform.
fn ablation_analyses() {
    // Didactic victim bound per analysis.
    let system = didactic::system(10);
    let tau3 = DidacticFlows::ids().tau3;
    println!("\n=== Ablation: bound on the didactic MPB victim τ3 (b=10) ===");
    for analysis in all_analyses() {
        let bound = analysis
            .analyze(&system)
            .unwrap()
            .response_time(tau3)
            .map_or("miss".to_string(), |r| r.as_u64().to_string());
        let safety = match analysis.name() {
            "XLWX" | "IBN" => "safe under MPB",
            _ => "UNSAFE under MPB",
        };
        println!(
            "  {:<10} R(τ3) = {:>5}   [{safety}]",
            analysis.name(),
            bound
        );
    }

    // Schedulability on a loaded synthetic platform.
    let loaded = SyntheticSpec::paper(4, 4, 200, 2)
        .generate(0xAB1A)
        .into_system();
    println!("\n=== Ablation: schedulable flows out of 200 (4x4, loaded) ===");
    for analysis in all_analyses() {
        let report = analysis.analyze(&loaded).unwrap();
        println!(
            "  {:<10} {:>4}/200 flows, set schedulable: {}",
            analysis.name(),
            report.schedulable_count(),
            report.is_schedulable()
        );
    }
    println!();
}

/// Percentage of `sets` 160-flow 4×4 sets IBN (b=2) deems schedulable
/// under `policy`.
fn schedulable_pct(policy: PriorityPolicy, sets: u64) -> f64 {
    let mut spec = SyntheticSpec::paper(4, 4, 160, 2);
    spec.priority_policy = policy;
    let ok = (0..sets)
        .filter(|&s| {
            let system = spec.generate(0xAB7 + s).into_system();
            BufferAware
                .analyze(&system)
                .map(|r| r.is_schedulable())
                .unwrap_or(false)
        })
        .count();
    100.0 * ok as f64 / sets as f64
}

/// Rate-monotonic against random priorities.
fn ablation_priorities() {
    println!("\n=== Priority-assignment ablation (160 flows on 4x4, IBN b=2) ===");
    let rm = schedulable_pct(PriorityPolicy::RateMonotonic, 24);
    let random = schedulable_pct(PriorityPolicy::Random, 24);
    println!("  rate-monotonic : {rm:.0}% schedulable");
    println!("  random         : {random:.0}% schedulable");
    println!(
        "  (the paper uses RM \"despite sub-optimality\"; random assignment\n\
          discards the period structure and performs no better)\n"
    );
}

fn main() {
    ablation_analyses();
    ablation_priorities();
}

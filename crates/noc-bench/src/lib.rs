//! The `bench_json` ledger: the fixtures behind `BENCH_sim.json` and the
//! one timing loop that times them.
//!
//! The experiment binaries in `noc-experiments` print the paper's tables
//! and figures at any scale; this crate only times the kernels the ledger
//! records, with min/median/max per fixture.
//!
//! # Ledger map (code ↔ paper)
//!
//! | Group | Measures |
//! |---|---|
//! | `sim_throughput` | cycle-accurate simulator throughput (Figure 1 router) |
//! | `table2` | the critical-instant sweep behind Table II's `R^sim` columns |
//! | `batch_sweep` | that sweep through [`BatchSimulator`](noc_sim::prelude::BatchSimulator)'s shared layout against one `Simulator` per plan |
//! | `hetero_analysis` | buffer-aware analysis, and per-router resize and flow removal what-if serving, over the [`heterogeneous_system`] fixture (per-router depths, bursty release) |
//!
//! [`suites`] holds the groups, [`sampler`] the timing loop.

use noc_model::prelude::*;
use noc_workload::synthetic::SyntheticSpec;

pub mod sampler;
pub mod suites;

/// A deterministic synthetic system for performance measurements.
pub fn bench_system(mesh: u16, n_flows: usize, buffer: u32, seed: u64) -> System {
    SyntheticSpec::paper(mesh, mesh, n_flows, buffer)
        .generate(seed)
        .into_system()
}

/// A dense small system whose simulation stays busy (for simulator
/// throughput measurements).
pub fn dense_sim_system(seed: u64) -> System {
    let mut spec = SyntheticSpec::paper(4, 4, 12, 4);
    spec.period_range = (500, 5_000);
    spec.length_range = (16, 128);
    spec.generate(seed).into_system()
}

/// Production-scale fixture: the paper's §VI workload on a **16×16 mesh**
/// with `n_flows` flows (thousands are fine — the north-star scale target).
///
/// The full-mode `sim_throughput` suite simulates it with 2000 flows.
pub fn production_system(n_flows: usize, buffer: u32, seed: u64) -> System {
    bench_system(16, n_flows, buffer, seed)
}

/// Heterogeneous fixture: the §VI workload with per-router buffer depths
/// drawn from `2..=8` flits and bursty sources (σ ≤ 2) — the generalised
/// release/buffer axes the buffer-aware analysis is sensitive to. At
/// `mesh = 16`, with 700 flows and periods ×4
/// ([`suites::hetero_fixture`]), this is the north-star heterogeneous
/// scenario recorded in `BENCH_history.jsonl` by `bench_json`.
pub fn heterogeneous_system(mesh: u16, n_flows: usize, seed: u64) -> System {
    SyntheticSpec::paper(mesh, mesh, n_flows, 2)
        .with_buffer_depth_range(2, 8)
        .with_burst_range(0, 2)
        .generate(seed)
        .into_system()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_are_deterministic() {
        let a = bench_system(4, 20, 2, 1);
        let b = bench_system(4, 20, 2, 1);
        assert_eq!(a.flows().len(), b.flows().len());
        for id in a.flows().ids() {
            assert_eq!(a.flow(id), b.flow(id));
        }
        assert_eq!(dense_sim_system(3).flows().len(), 12);
    }

    #[test]
    fn heterogeneous_fixture_is_heterogeneous_and_bursty() {
        let sys = heterogeneous_system(8, 120, 5);
        assert!(sys.has_heterogeneous_buffers());
        assert!(sys.flows().iter().any(|(_, f)| f.burst() > 0));
        for r in 0..sys.topology().router_count() {
            let d = sys.buffer_depth_at(RouterId::new(r as u32));
            assert!((2..=8).contains(&d));
        }
    }

    #[test]
    fn production_fixture_reaches_16x16_with_thousands_of_flows() {
        let sys = production_system(1_500, 2, 9);
        assert_eq!(sys.topology().router_count(), 256);
        assert_eq!(sys.flows().len(), 1_500);
        // The precomputed interference structure must be buildable at this
        // scale.
        let graph = noc_model::contention::InterferenceGraph::new(&sys).unwrap();
        assert_eq!(graph.len(), 1_500);
    }
}

//! The ledger's one timing loop.
//!
//! A [`Sampler`] times a closure the way every `BENCH_sim.json` row is
//! timed: one warm-up call, then a fixed number of timed samples, each
//! running the closure enough times to fill its share of the time budget.
//! It reports the spread of those samples ([`Stats`]: min, median and max
//! nanoseconds per iteration), not a mean, so noise stays visible.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// How a fixture is timed: `samples` timed samples sharing `budget`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sampler {
    /// Number of timed samples (at least 1).
    pub samples: usize,
    /// Wall-clock time all samples share; a sample runs the closure as
    /// many times as fit its `budget / samples` slice (at least once).
    pub budget: Duration,
}

/// Spread of one fixture's samples, in nanoseconds per iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stats {
    /// Fastest sample.
    pub min_ns: f64,
    /// Median sample (the mean of the middle two for an even count).
    pub median_ns: f64,
    /// Slowest sample.
    pub max_ns: f64,
    /// Calls of the closure per timed sample.
    pub iters: u64,
}

impl Sampler {
    /// The ledger's setting: 10 samples over 2 s.
    pub const LEDGER: Sampler = Sampler {
        samples: 10,
        budget: Duration::from_secs(2),
    };

    /// Times `f`: one warm-up call, which also sizes the samples, then
    /// [`samples`](Sampler::samples) timed samples of
    /// [`Stats::iters`] calls each.
    pub fn run<O>(&self, mut f: impl FnMut() -> O) -> Stats {
        assert!(self.samples >= 1, "a sampler takes at least one sample");
        let start = Instant::now();
        black_box(f());
        let warm_up = start.elapsed().max(Duration::from_nanos(1));
        let slice = self.budget.as_secs_f64() / self.samples as f64;
        let iters = (slice / warm_up.as_secs_f64()).clamp(1.0, 1_000_000.0) as u64;

        let mut ns: Vec<f64> = (0..self.samples)
            .map(|_| {
                let start = Instant::now();
                for _ in 0..iters {
                    black_box(f());
                }
                start.elapsed().as_nanos() as f64 / iters as f64
            })
            .collect();
        ns.sort_by(f64::total_cmp);
        let mid = ns.len() / 2;
        let median_ns = if ns.len().is_multiple_of(2) {
            (ns[mid - 1] + ns[mid]) / 2.0
        } else {
            ns[mid]
        };
        Stats {
            min_ns: ns[0],
            median_ns,
            max_ns: ns[ns.len() - 1],
            iters,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn takes_the_configured_samples_after_one_warm_up() {
        for samples in [1, 2, 10] {
            for budget in [Duration::ZERO, Duration::from_millis(5)] {
                let mut calls = 0u64;
                let stats = Sampler { samples, budget }.run(|| {
                    calls += 1;
                    std::thread::sleep(Duration::from_micros(50));
                });
                assert!(stats.iters >= 1);
                assert_eq!(calls, 1 + samples as u64 * stats.iters, "{samples} samples");
                if budget.is_zero() {
                    assert_eq!(stats.iters, 1);
                }
                assert!(stats.min_ns > 0.0);
                assert!(stats.min_ns <= stats.median_ns, "{stats:?}");
                assert!(stats.median_ns <= stats.max_ns, "{stats:?}");
            }
        }
    }
}

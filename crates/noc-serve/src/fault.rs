//! Deterministic fault injection for the serving layer.
//!
//! Chaos testing a query server is only useful if a failing run can be
//! replayed: a [`FaultPlan`] is a pure function from `(seed, query index,
//! attempt)` to a [`Fault`], so the same seed always injects the same
//! faults into the same queries regardless of thread count or timing. The
//! plan is consulted by [`run_batch_with`](crate::run_batch_with) once per
//! serve attempt; everything else in the crate is fault-oblivious.
//!
//! Activate from the environment (read by [`FaultPlan::try_from_env`],
//! which [`ServeOptions::try_from_env`](crate::ServeOptions::try_from_env)
//! folds in):
//!
//! * `NOC_FAULT_SEED` — u64 seed; setting it turns injection on;
//! * `NOC_FAULT_RATE` — fraction of queries faulted, `0.0..=1.0`
//!   (default 0.1).
//!
//! Injected faults exercise the three failure paths the serving layer
//! defends: worker panics (caught, shard re-forked, bounded retry),
//! slow queries (deadline/degradation machinery), and solver budget
//! exhaustion (the conservative fallback). Every injection bumps
//! [`metrics::FAULTS_INJECTED`](crate::metrics::FAULTS_INJECTED), so a
//! chaos run is auditable from the metrics snapshot alone.

use std::env;

/// One injected failure, decided per `(query, attempt)` pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// No fault for this attempt.
    None,
    /// Panic inside the worker before the query is served. A *transient*
    /// panic (`persistent: false`) fires on the first attempt only, so a
    /// retry against the re-forked shard succeeds; a persistent one fires
    /// on every attempt and must surface as a terminal
    /// [`QueryOutcome::Failed`](crate::QueryOutcome::Failed).
    Panic {
        /// `true` to panic on retries too.
        persistent: bool,
    },
    /// Sleep this long before serving, simulating a slow or descheduled
    /// worker. Fires on the first attempt only.
    Delay {
        /// Injected latency in milliseconds (small, bounded).
        ms: u64,
    },
    /// Serve under a pre-cancelled solve budget, deterministically forcing
    /// the [`DeadlineExceeded`](noc_analysis::error::AnalysisError) →
    /// degraded-answer path without any timing dependence. Fires on the
    /// first attempt only.
    CancelSolve,
}

impl Fault {
    /// Short stable label for telemetry events.
    pub fn name(self) -> &'static str {
        match self {
            Fault::None => "none",
            Fault::Panic { persistent: false } => "panic",
            Fault::Panic { persistent: true } => "panic_persistent",
            Fault::Delay { .. } => "delay",
            Fault::CancelSolve => "cancel_solve",
        }
    }
}

/// A seeded, deterministic schedule of injected faults.
///
/// See the [module docs](self) for the replay guarantee and the
/// environment knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    /// Injection threshold: a query is faulted iff its hash < threshold
    /// (`rate` mapped onto the u64 range).
    threshold: u64,
}

impl FaultPlan {
    /// A plan injecting faults into roughly `rate` of all queries
    /// (`0.0..=1.0`, clamped) under `seed`.
    pub fn new(seed: u64, rate: f64) -> FaultPlan {
        let rate = rate.clamp(0.0, 1.0);
        // `u64::MAX as f64` rounds up to 2^64, so full rate saturates.
        let threshold = if rate >= 1.0 {
            u64::MAX
        } else {
            (rate * (u64::MAX as f64)) as u64
        };
        FaultPlan { seed, threshold }
    }

    /// Reads `NOC_FAULT_SEED` / `NOC_FAULT_RATE`; `Ok(None)` (injection
    /// off) unless a seed is set, and the rate defaults to 0.1. A variable
    /// that is set but unparsable is a configuration error, not "injection
    /// off" — a chaos CI run with a typoed seed fails loudly instead of
    /// silently measuring a clean run.
    pub fn try_from_env() -> Result<Option<FaultPlan>, String> {
        FaultPlan::plan_from(
            env::var("NOC_FAULT_SEED").ok().as_deref(),
            env::var("NOC_FAULT_RATE").ok().as_deref(),
        )
    }

    /// Pure parsing core of [`FaultPlan::try_from_env`].
    fn plan_from(seed: Option<&str>, rate: Option<&str>) -> Result<Option<FaultPlan>, String> {
        let Some(seed) = seed else { return Ok(None) };
        let seed: u64 = seed
            .trim()
            .parse()
            .map_err(|e| format!("invalid NOC_FAULT_SEED {seed:?}: {e}"))?;
        let rate = match rate {
            None => 0.1,
            Some(s) => {
                let rate = s
                    .trim()
                    .parse::<f64>()
                    .map_err(|e| format!("invalid NOC_FAULT_RATE {s:?}: {e}"))?;
                // `parse` accepts "nan" and "inf"; a NaN rate would map to a
                // zero threshold and silently turn injection off.
                if !(0.0..=1.0).contains(&rate) {
                    return Err(format!(
                        "invalid NOC_FAULT_RATE {s:?}: must be within 0.0..=1.0"
                    ));
                }
                rate
            }
        };
        Ok(Some(FaultPlan::new(seed, rate)))
    }

    /// The seed this plan was built with (echoed into run records so chaos
    /// failures are replayable).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The fault to inject when serving `query` (its batch index) on
    /// `attempt` (0 = first try). Pure: depends only on the plan and the
    /// arguments.
    pub fn fault_for(&self, query: usize, attempt: u32) -> Fault {
        let h = splitmix64(self.seed ^ splitmix64(query as u64));
        if h > self.threshold {
            return Fault::None;
        }
        // Derive kind and parameters from fresh hash bits, not from `h`
        // itself (its low bits are biased by the threshold test).
        let kind = splitmix64(h);
        match kind % 4 {
            // Half of all panics are transient, half persistent.
            0 => Fault::Panic { persistent: false },
            1 => Fault::Panic { persistent: true },
            2 => Fault::Delay {
                ms: 1 + splitmix64(kind) % 3,
            },
            _ => Fault::CancelSolve,
        }
        .only_first_attempt_unless_persistent(attempt)
    }
}

impl Fault {
    fn only_first_attempt_unless_persistent(self, attempt: u32) -> Fault {
        match self {
            Fault::Panic { persistent: true } => self,
            _ if attempt == 0 => self,
            _ => Fault::None,
        }
    }
}

/// The splitmix64 finaliser: a well-mixed 64-bit hash, good enough to
/// decorrelate query indices under any seed.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_deterministic() {
        let a = FaultPlan::new(42, 0.5);
        let b = FaultPlan::new(42, 0.5);
        for q in 0..256 {
            for attempt in 0..3 {
                assert_eq!(a.fault_for(q, attempt), b.fault_for(q, attempt));
            }
        }
    }

    #[test]
    fn rate_bounds_are_respected() {
        let none = FaultPlan::new(7, 0.0);
        let all = FaultPlan::new(7, 1.0);
        let mut all_faulted = 0;
        for q in 0..256 {
            assert_eq!(none.fault_for(q, 0), Fault::None);
            if all.fault_for(q, 0) != Fault::None {
                all_faulted += 1;
            }
        }
        assert_eq!(all_faulted, 256, "rate 1.0 faults every query");
    }

    #[test]
    fn moderate_rate_faults_some_not_all() {
        let plan = FaultPlan::new(3, 0.3);
        let faulted = (0..512)
            .filter(|&q| plan.fault_for(q, 0) != Fault::None)
            .count();
        assert!(faulted > 64, "got {faulted}");
        assert!(faulted < 448, "got {faulted}");
    }

    #[test]
    fn transient_faults_do_not_fire_on_retries() {
        let plan = FaultPlan::new(1, 1.0);
        for q in 0..512 {
            match plan.fault_for(q, 0) {
                Fault::Panic { persistent: true } => {
                    assert_eq!(
                        plan.fault_for(q, 1),
                        Fault::Panic { persistent: true },
                        "persistent panics persist"
                    );
                }
                Fault::None => panic!("rate 1.0 must fault query {q}"),
                _ => {
                    assert_eq!(plan.fault_for(q, 1), Fault::None, "query {q}");
                }
            }
        }
    }

    #[test]
    fn all_fault_kinds_occur_at_full_rate() {
        let plan = FaultPlan::new(9, 1.0);
        let mut seen = [false; 4];
        for q in 0..256 {
            match plan.fault_for(q, 0) {
                Fault::Panic { persistent: false } => seen[0] = true,
                Fault::Panic { persistent: true } => seen[1] = true,
                Fault::Delay { ms } => {
                    assert!((1..=3).contains(&ms));
                    seen[2] = true;
                }
                Fault::CancelSolve => seen[3] = true,
                Fault::None => unreachable!(),
            }
        }
        assert_eq!(seen, [true; 4], "all kinds within 256 queries");
    }

    #[test]
    fn strict_parsing_rejects_malformed_values() {
        assert_eq!(FaultPlan::plan_from(None, None), Ok(None));
        assert_eq!(
            FaultPlan::plan_from(Some("42"), None),
            Ok(Some(FaultPlan::new(42, 0.1)))
        );
        assert_eq!(
            FaultPlan::plan_from(Some(" 7 "), Some("0.5")),
            Ok(Some(FaultPlan::new(7, 0.5)))
        );
        assert!(FaultPlan::plan_from(Some("notanumber"), None)
            .unwrap_err()
            .contains("NOC_FAULT_SEED"));
        assert!(FaultPlan::plan_from(Some("42"), Some("often"))
            .unwrap_err()
            .contains("NOC_FAULT_RATE"));
        // A malformed rate never silently falls back on the strict path.
        assert!(FaultPlan::plan_from(Some("42"), Some("")).is_err());
        // Parsable but out of range: NaN would zero the threshold, and 1.5
        // would be clamped without a word.
        for rate in ["nan", "NaN", "1.5", "-0.1", "inf"] {
            assert!(FaultPlan::plan_from(Some("42"), Some(rate))
                .unwrap_err()
                .contains("NOC_FAULT_RATE"));
        }
        assert_eq!(
            FaultPlan::plan_from(Some("42"), Some("1")),
            Ok(Some(FaultPlan::new(42, 1.0)))
        );
    }

    #[test]
    fn from_env_requires_a_seed() {
        // Can't mutate the environment safely in a threaded test binary;
        // just pin the parsing contract on whatever is set. When the chaos
        // CI job exports NOC_FAULT_SEED this still holds.
        if env::var("NOC_FAULT_SEED").is_err() {
            assert_eq!(FaultPlan::try_from_env(), Ok(None));
        } else {
            assert!(FaultPlan::try_from_env().unwrap().is_some());
        }
    }
}

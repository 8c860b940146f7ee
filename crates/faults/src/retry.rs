//! Bounded exponential backoff with deterministic jitter.
//!
//! The resilient tool clients (`ampstat`/`faifa` over a lossy bus) retry
//! timed-out transactions. Real clients jitter their backoff to avoid
//! synchronizing; ours jitter *deterministically* from a dedicated
//! [`FaultRng`] stream, so the retry schedule — and
//! every observable counter derived from it — replays byte for byte.

use crate::rng::FaultRng;
use serde::{Deserialize, Serialize};

/// Sub-stream tag of client jitter sequences (see
/// [`FaultRng::derive`](crate::FaultRng::derive)).
pub const STREAM_RETRY: u64 = 0x5254_5259; // "RTRY"

/// A bounded exponential-backoff retry policy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Total attempts, including the first (≥ 1; a lone attempt means no
    /// retries).
    pub max_attempts: u32,
    /// Backoff before the first retry, µs.
    pub base_us: f64,
    /// Backoff ceiling, µs.
    pub cap_us: f64,
    /// Seed of the jitter stream.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    /// 10 attempts, 100 µs base doubling to a 3200 µs cap. At the chaos
    /// plan's 20% per-leg loss (≈ 36% per-transaction failure), ten
    /// attempts push the give-up probability below 4·10⁻⁵ per request.
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 10,
            base_us: 100.0,
            cap_us: 3200.0,
            jitter_seed: 0,
        }
    }
}

impl RetryPolicy {
    /// No retries: one attempt, fail fast (the pre-resilience behaviour).
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            ..Self::default()
        }
    }

    /// A policy with the given attempt budget.
    pub fn with_attempts(max_attempts: u32) -> Self {
        RetryPolicy {
            max_attempts: max_attempts.max(1),
            ..Self::default()
        }
    }

    /// The jitter stream this policy's clients should draw from.
    pub fn jitter_rng(&self) -> FaultRng {
        FaultRng::derive(self.jitter_seed, STREAM_RETRY)
    }

    /// Backoff before retry number `attempt` (0-based: the delay after
    /// the first failed attempt is `backoff_us(0, …)`). Exponential
    /// growth capped at `cap_us`, then jittered to 50–100% of the capped
    /// value — the "equal jitter" scheme, deterministic via `rng`.
    pub fn backoff_us(&self, attempt: u32, rng: &mut FaultRng) -> f64 {
        let exp = self.base_us * 2.0_f64.powi(attempt.min(30) as i32);
        let capped = exp.min(self.cap_us);
        capped * (0.5 + 0.5 * rng.next_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_and_caps() {
        let p = RetryPolicy::default();
        let mut rng = p.jitter_rng();
        let delays: Vec<f64> = (0..12).map(|k| p.backoff_us(k, &mut rng)).collect();
        // Every delay within [base/2, cap].
        for d in &delays {
            assert!(*d >= p.base_us * 0.5 && *d <= p.cap_us, "delay {d}");
        }
        // Late delays sit at the cap's jitter band.
        assert!(delays[11] >= p.cap_us * 0.5);
    }

    #[test]
    fn jitter_is_deterministic() {
        let p = RetryPolicy::default();
        let mut a = p.jitter_rng();
        let mut b = p.jitter_rng();
        for k in 0..8 {
            assert_eq!(p.backoff_us(k, &mut a), p.backoff_us(k, &mut b));
        }
    }

    #[test]
    fn none_means_single_attempt() {
        assert_eq!(RetryPolicy::none().max_attempts, 1);
        assert_eq!(RetryPolicy::with_attempts(0).max_attempts, 1);
    }

    #[test]
    fn huge_attempt_does_not_overflow() {
        let p = RetryPolicy::default();
        let mut rng = p.jitter_rng();
        let d = p.backoff_us(u32::MAX, &mut rng);
        assert!(d.is_finite() && d <= p.cap_us);
    }
}

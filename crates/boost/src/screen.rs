//! The cheap rung: analytic screening of every candidate.
//!
//! Before any simulation runs, every candidate is pushed through the
//! mean-field fixed point + delay DTMC
//! ([`plc_analysis::screen_schedule`] — the same math behind
//! `Backend::MeanField`) at every portfolio operating point. One
//! (candidate, n) costs ≈0.46 ms — ≈0.27 ms fixed point, ≈0.18 ms delay
//! walk (`perfbench --trace 1` on a 2-vCPU Intel Xeon host) — so the
//! default space screens its 275 points in ≈0.13 s and the expensive
//! slotted rungs only ever see the analytic survivors. The screen is
//! also the single source of the **p99 access-delay objective** for
//! every candidate (including the baseline): the slotted confirm rungs
//! settle throughput and fairness, the DTMC settles the delay tail,
//! deterministically.

use crate::portfolio::Portfolio;
use crate::space::SearchSpace;
use plc_analysis::screen_schedule;
use plc_core::error::Result;
use plc_core::timing::MacTiming;
use serde::{Deserialize, Serialize};

/// Portfolio-aggregated analytic scores for one candidate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScreenScore {
    /// Candidate label.
    pub label: String,
    /// Weighted mean of model throughput over every (scenario, n).
    pub throughput: f64,
    /// Weighted mean of the p99 access delay in µs; `None` when the
    /// delay walk truncated before the p99 at any operating point
    /// (the tail is heavier than the walk bound — rank it worst).
    pub p99_delay_us: Option<f64>,
}

/// Screen every candidate of `space` against every operating point of
/// `portfolio`. Deterministic: output order is enumeration order.
/// Ticks `boost.evals` once per fixed-point solve when a registry is
/// given.
pub fn screen_space(
    space: &SearchSpace,
    portfolio: &Portfolio,
    timing: &MacTiming,
    registry: Option<&plc_obs::Registry>,
) -> Result<Vec<ScreenScore>> {
    let evals = registry.map(|r| r.counter("boost.evals"));
    let total_weight = portfolio.total_weight();
    let mut scores = Vec::with_capacity(space.candidates.len());
    for candidate in &space.candidates {
        let config = candidate.config()?;
        let mut thr = 0.0;
        let mut p99 = Some(0.0f64);
        for scenario in &portfolio.scenarios {
            for &n in &scenario.stations {
                let screen = screen_schedule(&config, scenario.screen_n(n), timing)?;
                if let Some(c) = &evals {
                    c.add(1);
                }
                let w = scenario.weight / total_weight;
                thr += w * screen.throughput;
                p99 = match (p99, screen.delay.p99_us()) {
                    (Some(acc), Some(v)) => Some(acc + w * v),
                    _ => None,
                };
            }
        }
        scores.push(ScreenScore {
            label: candidate.label.clone(),
            throughput: thr,
            p99_delay_us: p99,
        });
    }
    Ok(scores)
}

/// Rank screen scores best-first: throughput descending, then p99
/// ascending (`None` tails rank last), then label — a total,
/// deterministic order.
pub fn rank(scores: &[ScreenScore]) -> Vec<&ScreenScore> {
    let mut ranked: Vec<&ScreenScore> = scores.iter().collect();
    ranked.sort_by(|a, b| {
        b.throughput
            .total_cmp(&a.throughput)
            .then_with(|| match (a.p99_delay_us, b.p99_delay_us) {
                (Some(x), Some(y)) => x.total_cmp(&y),
                (Some(_), None) => std::cmp::Ordering::Less,
                (None, Some(_)) => std::cmp::Ordering::Greater,
                (None, None) => std::cmp::Ordering::Equal,
            })
            .then_with(|| a.label.cmp(&b.label))
    });
    ranked
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn screening_is_deterministic_and_counts_evals() {
        let space = SearchSpace::tiny_space();
        let portfolio = Portfolio::smoke_portfolio();
        let timing = MacTiming::paper_default();
        let registry = plc_obs::Registry::new();
        let a = screen_space(&space, &portfolio, &timing, Some(&registry)).unwrap();
        let b = screen_space(&space, &portfolio, &timing, None).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), space.candidates.len());
        // 5 candidates × 3 (scenario, n) points.
        assert_eq!(registry.snapshot().counter("boost.evals"), Some(15));
        for s in &a {
            assert!(s.throughput > 0.0 && s.throughput < 1.0);
        }
    }

    #[test]
    fn rank_orders_by_throughput_then_delay() {
        let scores = vec![
            ScreenScore {
                label: "slow".into(),
                throughput: 0.5,
                p99_delay_us: Some(9.0),
            },
            ScreenScore {
                label: "fast".into(),
                throughput: 0.8,
                p99_delay_us: Some(5.0),
            },
            ScreenScore {
                label: "tail".into(),
                throughput: 0.5,
                p99_delay_us: None,
            },
            ScreenScore {
                label: "tight".into(),
                throughput: 0.5,
                p99_delay_us: Some(3.0),
            },
        ];
        let ranked: Vec<&str> = rank(&scores).iter().map(|s| s.label.as_str()).collect();
        assert_eq!(ranked, ["fast", "tight", "slow", "tail"]);
    }
}

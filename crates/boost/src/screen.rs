//! The cheap rung: analytic screening of every candidate.
//!
//! Before any simulation runs, every candidate is pushed through the
//! mean-field fixed point + delay DTMC
//! ([`plc_analysis::screen_schedule_p99`] — the same math behind
//! `Backend::MeanField`, with the delay walk stopped at the p99 the
//! screen reads) at every portfolio operating point. One solve costs
//! ≈0.28 ms — ≈0.23 ms fixed point, ≈0.05 ms delay walk, against
//! ≈0.17 ms for the full walk of `screen_schedule` — and each
//! distinct (candidate, contention-domain size) is solved once, on the
//! run's worker pool: the default space's 275 points are 220 solves
//! (`cells` contends in cells of 5, like `saturated` N = 5), screened
//! in ≈0.03 s on two workers (`perfbench --trace 1` on a 2-vCPU
//! Intel Xeon host). The expensive slotted rungs only ever see the
//! analytic survivors. The screen is also the single source of the
//! **p99 access-delay objective** for every candidate (including the
//! baseline): the slotted confirm rungs settle throughput and fairness,
//! the DTMC settles the delay tail, deterministically.

use crate::portfolio::Portfolio;
use crate::space::SearchSpace;
use plc_analysis::screen_schedule_p99;
use plc_core::error::Result;
use plc_core::timing::MacTiming;
use plc_sim::sweep::{default_workers, parallel_map};
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
/// `portfolio` on the machine's default worker count. Deterministic:
/// output order is enumeration order, and every score is bit-identical
/// for any worker count. Ticks `boost.evals` once per distinct
/// fixed-point solve when a registry is given.
pub fn screen_space(
    space: &SearchSpace,
    portfolio: &Portfolio,
    timing: &MacTiming,
    registry: Option<&plc_obs::Registry>,
) -> Result<Vec<ScreenScore>> {
    screen_space_on(default_workers(), space, portfolio, timing, registry)
}

/// [`screen_space`] on `workers` threads.
///
/// Each distinct (candidate, contention-domain size) pair is solved
/// once: the default portfolio screens `cells` (20 stations in cells of
/// 5) at n = 5, exactly like `saturated` N = 5. The solves fan out over
/// [`parallel_map`] in candidate-major order, and its workers take them
/// from one shared queue, so a costly solve holds up no other. Every
/// (scenario, n) then accumulates in enumeration order from its shared
/// solve, as a serial loop over the points would — folding the weights
/// of one size into a single term would change the bits. The error
/// returned is the one that serial loop meets first: a candidate whose
/// table is invalid ends it, so nothing after that candidate is solved.
pub(crate) fn screen_space_on(
    workers: usize,
    space: &SearchSpace,
    portfolio: &Portfolio,
    timing: &MacTiming,
    registry: Option<&plc_obs::Registry>,
) -> Result<Vec<ScreenScore>> {
    let total_weight = portfolio.total_weight();
    // Every (scenario, n) in enumeration order as (weight, index into
    // the distinct domain sizes, kept in first-seen order).
    let mut sizes: Vec<usize> = Vec::new();
    let mut points: Vec<(f64, usize)> = Vec::new();
    for scenario in &portfolio.scenarios {
        for &n in &scenario.stations {
            let size = scenario.screen_n(n);
            let slot = sizes.iter().position(|&s| s == size).unwrap_or_else(|| {
                sizes.push(size);
                sizes.len() - 1
            });
            points.push((scenario.weight / total_weight, slot));
        }
    }
    let mut configs = Vec::with_capacity(space.candidates.len());
    let mut config_error = None;
    for candidate in &space.candidates {
        match candidate.config() {
            Ok(config) => configs.push(config),
            Err(e) => {
                config_error = Some(e);
                break;
            }
        }
    }
    let solves: Vec<(usize, usize)> = (0..configs.len())
        .flat_map(|c| sizes.iter().map(move |&n| (c, n)))
        .collect();
    let solved = parallel_map(workers, solves, |_, (c, n)| {
        screen_schedule_p99(&configs[c], n, timing)
    });
    if let Some(r) = registry {
        r.counter("boost.evals").add(solved.len() as u64);
    }
    let mut scores = Vec::with_capacity(configs.len());
    for (c, candidate) in space.candidates.iter().take(configs.len()).enumerate() {
        let mut thr = 0.0;
        let mut p99 = Some(0.0f64);
        for &(w, slot) in &points {
            let &(throughput, delay) = solved[c * sizes.len() + slot]
                .as_ref()
                .map_err(Clone::clone)?;
            thr += w * throughput;
            p99 = match (p99, delay) {
                (Some(acc), Some(v)) => Some(acc + w * v),
                _ => None,
            };
        }
        scores.push(ScreenScore {
            label: candidate.label.clone(),
            throughput: thr,
            p99_delay_us: p99,
        });
    }
    match config_error {
        Some(e) => Err(e),
        None => Ok(scores),
    }
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
    use crate::space::{ScheduleCandidate, BASELINE_LABEL};
    use plc_analysis::screen_schedule;

    /// The screen as a plain serial loop: one `screen_schedule` per
    /// (scenario, n) in enumeration order, nothing shared. The pooled
    /// screen must match it bit for bit, errors included.
    fn serial_screen(
        space: &SearchSpace,
        portfolio: &Portfolio,
        timing: &MacTiming,
    ) -> Result<Vec<ScreenScore>> {
        let total_weight = portfolio.total_weight();
        let mut scores = Vec::with_capacity(space.candidates.len());
        for candidate in &space.candidates {
            let config = candidate.config()?;
            let mut thr = 0.0;
            let mut p99 = Some(0.0f64);
            for scenario in &portfolio.scenarios {
                for &n in &scenario.stations {
                    let screen = screen_schedule(&config, scenario.screen_n(n), timing)?;
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

    fn assert_same_bits(got: &[ScreenScore], want: &[ScreenScore], workers: usize) {
        assert_eq!(got.len(), want.len(), "{workers} workers");
        for (g, w) in got.iter().zip(want) {
            assert_eq!(g.label, w.label, "{workers} workers");
            assert_eq!(
                g.throughput.to_bits(),
                w.throughput.to_bits(),
                "{} throughput at {workers} workers",
                g.label
            );
            assert_eq!(
                g.p99_delay_us.map(f64::to_bits),
                w.p99_delay_us.map(f64::to_bits),
                "{} p99 at {workers} workers",
                g.label
            );
        }
    }

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
        // 5 candidates × 3 domain sizes (3, 8, and 4 for the cells of 4).
        assert_eq!(registry.snapshot().counter("boost.evals"), Some(15));
        for s in &a {
            assert!(s.throughput > 0.0 && s.throughput < 1.0);
        }
    }

    #[test]
    fn pooled_screen_matches_the_serial_loop_bit_for_bit() {
        let space = SearchSpace::tiny_space();
        let portfolio = Portfolio::smoke_portfolio();
        let timing = MacTiming::paper_default();
        let want = serial_screen(&space, &portfolio, &timing).unwrap();
        for workers in [1, 2, 3, 4] {
            let registry = plc_obs::Registry::new();
            let got =
                screen_space_on(workers, &space, &portfolio, &timing, Some(&registry)).unwrap();
            assert_same_bits(&got, &want, workers);
            assert_eq!(registry.snapshot().counter("boost.evals"), Some(15));
        }
    }

    /// Only the default portfolio screens one domain size twice (`cells`
    /// in cells of 5 and `saturated` N = 5), so the shared solve is
    /// pinned there: on the costliest candidates (CW up to 8192), the
    /// baseline and the no-deferral constant windows.
    #[test]
    fn pooled_screen_matches_the_serial_loop_on_the_default_portfolio() {
        let portfolio = Portfolio::default_portfolio();
        let timing = MacTiming::paper_default();
        let mut space = SearchSpace::default_space();
        space.candidates.retain(|c| {
            let l = c.label.as_str();
            l == BASELINE_LABEL
                || l.starts_with("cw128-g4-")
                || l.starts_with("cw64-g4-")
                || (l.contains("-g1-") && l.ends_with("-dcoff"))
        });
        assert_eq!(space.candidates.len(), 13);
        let want = serial_screen(&space, &portfolio, &timing).unwrap();
        for workers in [1, 3] {
            let got = screen_space_on(workers, &space, &portfolio, &timing, None).unwrap();
            assert_same_bits(&got, &want, workers);
        }
    }

    #[test]
    fn default_screen_solves_each_distinct_point_once() {
        let registry = plc_obs::Registry::new();
        let scores = screen_space(
            &SearchSpace::default_space(),
            &Portfolio::default_portfolio(),
            &MacTiming::paper_default(),
            Some(&registry),
        )
        .unwrap();
        assert_eq!(scores.len(), 55);
        // 55 candidates × sizes {5, 15, 30, 10}; 275 (scenario, n) points.
        assert_eq!(registry.snapshot().counter("boost.evals"), Some(220));
    }

    #[test]
    fn errors_are_the_ones_the_serial_loop_meets_first() {
        let timing = MacTiming::paper_default();
        let broken = ScheduleCandidate::new("broken", vec![8, 16], vec![0]);
        let tiny = SearchSpace::tiny_space();
        let mut broken_last = tiny.clone();
        broken_last.candidates.push(broken.clone());
        let mut broken_first = tiny.clone();
        broken_first.candidates.insert(0, broken);
        let smoke = Portfolio::smoke_portfolio();
        let mut zero = smoke.clone();
        zero.scenarios[0].stations.push(0);
        let cases = [
            (&broken_last, &smoke, "candidate 'broken'"),
            (&tiny, &zero, "at least one station"),
            (&broken_last, &zero, "at least one station"),
            (&broken_first, &zero, "candidate 'broken'"),
        ];
        for (space, portfolio, names) in cases {
            let want = serial_screen(space, portfolio, &timing).unwrap_err();
            assert!(want.to_string().contains(names), "{want}");
            for workers in [1, 2, 3, 4] {
                let got = screen_space_on(workers, space, portfolio, &timing, None).unwrap_err();
                assert_eq!(got, want, "{workers} workers");
            }
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

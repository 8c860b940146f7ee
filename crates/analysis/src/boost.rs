//! Configuration "boosting": searching the (CW, DC) parameter space for
//! throughput-optimal tables.
//!
//! The report positions its simulator for exactly this: "Our simulator can
//! be efficiently employed to evaluate the performance of different MAC
//! configurations". The analytical model makes the search cheap — each
//! candidate costs one fixed-point solve instead of a full simulation — and
//! the winning configurations can then be validated by simulation (the
//! `boost` experiment does both).
//!
//! Two searches are provided:
//!
//! * [`optimize_constant_window`] — the classic single-stage optimum: pick
//!   one fixed CW (no deferral, no doubling) maximizing throughput for a
//!   known N. Its closed-form approximation `CW* ≈ N √(2 Tc/σ)` is a
//!   useful sanity anchor.
//! * [`boost_search`] — enumerate structured 1901-style tables (geometric
//!   window progressions × deferral patterns) and rank by model
//!   throughput, optionally with a short-term-fairness guard (bounding the
//!   ratio of the last window to the first, since giant last stages are
//!   what starve losers).

use crate::drift::{delay_summary, DelaySummary};
use crate::meanfield::{check_station_count, MeanFieldModel, MeanFieldSolution};
use crate::model1901::Model1901;
use plc_core::config::{CsmaConfig, DC_DISABLED};
use plc_core::error::{Error, Result};
use plc_core::timing::MacTiming;
use serde::{Deserialize, Serialize};

/// One evaluated candidate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Candidate {
    /// The parameter table.
    pub config: CsmaConfig,
    /// Model-predicted normalized throughput at the target N.
    pub throughput: f64,
    /// Model-predicted collision probability at the target N.
    pub collision_probability: f64,
}

/// Find the best single-stage constant window in `4..=4096` (powers of
/// two) for `n` stations.
pub fn optimize_constant_window(n: usize, timing: &MacTiming) -> Candidate {
    assert!(n >= 1);
    let mut best: Option<Candidate> = None;
    let mut w = 4u32;
    while w <= 4096 {
        let cfg = CsmaConfig::constant_window(w).expect("valid");
        let model = Model1901::new(cfg.clone());
        let s = model.throughput(n, timing);
        let fp = model.solve(n);
        let cand = Candidate {
            config: cfg,
            throughput: s,
            collision_probability: fp.collision_probability,
        };
        if best.as_ref().is_none_or(|b| cand.throughput > b.throughput) {
            best = Some(cand);
        }
        w *= 2;
    }
    best.expect("non-empty sweep")
}

/// The closed-form approximation of the optimal constant window,
/// `CW* ≈ N √(2 Tc / σ)` (from maximizing slotted-CSMA throughput for
/// small τ).
pub fn approx_optimal_window(n: usize, timing: &MacTiming) -> f64 {
    n as f64 * (2.0 * timing.tc.as_micros() / timing.slot.as_micros()).sqrt()
}

/// Options for [`boost_search`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BoostOptions {
    /// Number of backoff stages in the candidate tables.
    pub stages: usize,
    /// Upper bound on `CW_last / CW_0` — a fairness guard: larger spreads
    /// mean heavier short-term starvation of collision losers. Use
    /// `f64::INFINITY` to disable.
    pub max_window_spread: f64,
    /// How many top candidates to return.
    pub top_k: usize,
}

impl Default for BoostOptions {
    fn default() -> Self {
        BoostOptions {
            stages: 4,
            max_window_spread: f64::INFINITY,
            top_k: 5,
        }
    }
}

/// Enumerate structured candidate tables and return the `top_k` by model
/// throughput at `n` stations.
///
/// The candidate space is the cross product of
/// `CW₀ ∈ {4, 8, 16, 32, 64, 128}`, window growth `g ∈ {1, 2, 4}`
/// (so `CW_i = CW₀ · g^i`, capped at 2¹⁶) and deferral patterns
/// `{standard 1901 (0,1,3,15…), aggressive (0,0,1,3…), off}` truncated to
/// the requested stage count — 54 candidates by default, each costing one
/// fixed-point solve.
pub fn boost_search(n: usize, timing: &MacTiming, opts: &BoostOptions) -> Vec<Candidate> {
    assert!(n >= 1);
    assert!(opts.stages >= 1);
    let cw0_choices = [4u32, 8, 16, 32, 64, 128];
    let growth_choices = [1u32, 2, 4];
    let standard_dc = [0u32, 1, 3, 15, 15, 15, 15, 15];
    let aggressive_dc = [0u32, 0, 1, 3, 7, 15, 15, 15];

    let mut candidates = Vec::new();
    for &cw0 in &cw0_choices {
        for &g in &growth_choices {
            let mut cw = Vec::with_capacity(opts.stages);
            let mut ok = true;
            for i in 0..opts.stages {
                let w = (cw0 as u64) * (g as u64).pow(i as u32);
                if w > 1 << 16 {
                    ok = false;
                    break;
                }
                cw.push(w as u32);
            }
            if !ok {
                continue;
            }
            let spread = *cw.last().unwrap() as f64 / cw[0] as f64;
            if spread > opts.max_window_spread {
                continue;
            }
            for dc_pattern in [&standard_dc[..], &aggressive_dc[..]] {
                let dc: Vec<u32> = dc_pattern.iter().copied().take(opts.stages).collect();
                push_candidate(&mut candidates, &cw, &dc, n, timing);
            }
            // Deferral disabled.
            let dc_off = vec![DC_DISABLED; opts.stages];
            push_candidate(&mut candidates, &cw, &dc_off, n, timing);
        }
    }

    candidates.sort_by(|a, b| b.throughput.partial_cmp(&a.throughput).expect("finite"));
    candidates.truncate(opts.top_k);
    candidates
}

/// One analytic screen of a candidate schedule at `n` stations: the
/// mean-field fixed point (the same decoupling solve behind
/// `Backend::MeanField` in `plc-sim`) plus the drift-DTMC access-delay
/// summary — throughput, collision probability and delay quantiles in
/// one call, ≈1.3 ms per schedule at most N (the delay walk is capped at
/// 100 000 slots), less at few stations. This is the screening API the
/// `plc-boost` optimizer uses to rank whole candidate spaces before any
/// slotted simulation runs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScheduleScreen {
    /// Model-predicted normalized throughput.
    pub throughput: f64,
    /// Fixed-point busy probability (the tagged attempt's collision
    /// probability under decoupling).
    pub collision_probability: f64,
    /// Access-delay distribution summary of a tagged station.
    pub delay: DelaySummary,
    /// The full fixed point with solver diagnostics.
    pub solution: MeanFieldSolution,
}

/// Bound the delay-DTMC walk: far enough for the p99 where feasible,
/// but capped — at extreme contention the conditional delay is
/// astronomical and the summary reports truncated mass instead.
pub(crate) fn delay_walk_slots(mean_slots: f64) -> usize {
    if mean_slots.is_finite() {
        (mean_slots * 50.0).ceil().clamp(1_000.0, 100_000.0) as usize
    } else {
        100_000
    }
}

/// Screen one `(CW_i, d_i)` schedule at `n` stations: solve the
/// mean-field fixed point and derive throughput / collision probability
/// / access-delay quantiles. Errors on `n == 0`, `n > i32::MAX`, invalid
/// timing, or a solver failure.
pub fn screen_schedule(
    config: &CsmaConfig,
    n: usize,
    timing: &MacTiming,
) -> Result<ScheduleScreen> {
    if n == 0 {
        return Err(Error::invalid_config(
            "schedule screening needs at least one station",
        ));
    }
    check_station_count(n)?;
    if !timing.is_valid() {
        return Err(Error::invalid_config(
            "schedule screening needs strictly positive slot/Ts/Tc timing",
        ));
    }
    let solution = MeanFieldModel::single(config.clone(), n).solve()?;
    let class = &solution.classes[0];
    let delay = delay_summary(
        config,
        class.tau,
        class.collision_probability,
        n,
        timing,
        delay_walk_slots(class.mean_access_delay_slots),
    );
    Ok(ScheduleScreen {
        throughput: solution.throughput(timing),
        collision_probability: class.collision_probability,
        delay,
        solution,
    })
}

fn push_candidate(out: &mut Vec<Candidate>, cw: &[u32], dc: &[u32], n: usize, timing: &MacTiming) {
    let Ok(cfg) = CsmaConfig::from_vectors(cw, dc) else {
        return;
    };
    let model = Model1901::new(cfg.clone());
    let fp = model.solve(n);
    let s = model.throughput(n, timing);
    if s.is_finite() {
        out.push(Candidate {
            config: cfg,
            throughput: s,
            collision_probability: fp.collision_probability,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_window_optimum_tracks_n() {
        let timing = MacTiming::paper_default();
        let w2 = optimize_constant_window(2, &timing).config.cw_min();
        let w20 = optimize_constant_window(20, &timing).config.cw_min();
        assert!(w20 > w2, "optimal window grows with N: {w2} vs {w20}");
        // The closed form says CW* ≈ N·12.8; the power-of-two sweep should
        // land within a factor of two of it.
        let approx = approx_optimal_window(20, &timing);
        let ratio = w20 as f64 / approx;
        assert!((0.5..=2.0).contains(&ratio), "W*={w20}, approx {approx:.0}");
    }

    #[test]
    fn boosted_beats_default_at_large_n() {
        // The default CA1 table is tuned for few stations; at N = 20 the
        // search must find something strictly better.
        let timing = MacTiming::paper_default();
        let n = 20;
        let default_s = Model1901::default_ca1().throughput(n, &timing);
        let best = &boost_search(n, &timing, &BoostOptions::default())[0];
        assert!(
            best.throughput > default_s + 0.01,
            "boosted {} vs default {default_s}",
            best.throughput
        );
    }

    #[test]
    fn default_table_is_near_optimal_at_small_n() {
        // At N = 2 the standard table should be close to the best found
        // (within a few percent) — 1901 was designed for small homes.
        let timing = MacTiming::paper_default();
        let default_s = Model1901::default_ca1().throughput(2, &timing);
        let best = &boost_search(2, &timing, &BoostOptions::default())[0];
        assert!(
            best.throughput - default_s < 0.06,
            "gap {}",
            best.throughput - default_s
        );
    }

    #[test]
    fn fairness_guard_restricts_spread() {
        let timing = MacTiming::paper_default();
        let opts = BoostOptions {
            max_window_spread: 8.0,
            top_k: 50,
            ..Default::default()
        };
        let cands = boost_search(10, &timing, &opts);
        assert!(!cands.is_empty());
        for c in &cands {
            let spread = c.config.cw_max() as f64 / c.config.cw_min() as f64;
            assert!(spread <= 8.0, "spread {spread} violates guard");
        }
    }

    #[test]
    fn top_k_is_sorted_and_bounded() {
        let timing = MacTiming::paper_default();
        let opts = BoostOptions {
            top_k: 3,
            ..Default::default()
        };
        let cands = boost_search(5, &timing, &opts);
        assert_eq!(cands.len(), 3);
        assert!(cands[0].throughput >= cands[1].throughput);
        assert!(cands[1].throughput >= cands[2].throughput);
    }

    #[test]
    fn screen_schedule_matches_the_fixed_point_and_orders_delay() {
        let timing = MacTiming::paper_default();
        let ca1 = CsmaConfig::ieee1901_ca01();
        let s5 = screen_schedule(&ca1, 5, &timing).unwrap();
        let s20 = screen_schedule(&ca1, 20, &timing).unwrap();
        assert!(s5.throughput > 0.0 && s5.throughput < 1.0);
        assert!(
            s20.collision_probability > s5.collision_probability,
            "more stations must collide more"
        );
        let (p5, p20) = (
            s5.delay.p99_us().expect("walk covers the p99 at n=5"),
            s20.delay.p99_us().expect("walk covers the p99 at n=20"),
        );
        assert!(p20 > p5, "p99 delay must grow with contention");
        assert!(screen_schedule(&ca1, 0, &timing).is_err());
    }

    #[test]
    fn single_stage_search_space() {
        let timing = MacTiming::paper_default();
        let opts = BoostOptions {
            stages: 1,
            top_k: 100,
            ..Default::default()
        };
        let cands = boost_search(5, &timing, &opts);
        assert!(!cands.is_empty());
        for c in &cands {
            assert_eq!(c.config.num_stages(), 1);
        }
    }
}

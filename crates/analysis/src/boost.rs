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
//! This module provides:
//!
//! * [`optimize_constant_window`] — the classic single-stage optimum: pick
//!   one fixed CW (no deferral, no doubling) maximizing throughput for a
//!   known N. Its closed-form approximation `CW* ≈ N √(2 Tc/σ)` is a
//!   useful sanity anchor.
//! * [`screen_schedule`] / [`screen_schedule_p99`] — the analytic screen
//!   of one (CW, DC) table: mean-field throughput plus the access-delay
//!   tail. The search over structured 1901-style tables (geometric window
//!   progressions × deferral patterns) is `plc-boost`'s, which ranks a
//!   whole `SearchSpace` with this screen.

use crate::drift::{delay_p99_us, delay_summary, DelaySummary};
use crate::meanfield::{check_station_count, MeanFieldModel, MeanFieldSolution};
use crate::model1901::Model1901;
use plc_core::config::CsmaConfig;
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
    let solution = solve_screen(config, n, timing)?;
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

/// [`screen_schedule`]'s `(throughput, delay.p99_us())`, bit for bit,
/// from a delay walk that stops at the first slot whose CDF reaches
/// 0.99 instead of walking its whole bound. Same validation, same fixed
/// point, same errors. This is all a ranking screen reads; over the
/// default `plc-boost` space it walks 3.3× fewer slots.
pub fn screen_schedule_p99(
    config: &CsmaConfig,
    n: usize,
    timing: &MacTiming,
) -> Result<(f64, Option<f64>)> {
    let solution = solve_screen(config, n, timing)?;
    let class = &solution.classes[0];
    let p99_us = delay_p99_us(
        config,
        class.tau,
        class.collision_probability,
        n,
        timing,
        delay_walk_slots(class.mean_access_delay_slots),
    );
    Ok((solution.throughput(timing), p99_us))
}

/// Validate a screen's inputs and solve its mean-field fixed point.
fn solve_screen(config: &CsmaConfig, n: usize, timing: &MacTiming) -> Result<MeanFieldSolution> {
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
    MeanFieldModel::single(config.clone(), n).solve()
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
}

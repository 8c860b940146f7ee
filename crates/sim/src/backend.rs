//! Simulation backends: the slotted discrete-event engine and the
//! mean-field analytic engine.
//!
//! [`Backend::Slotted`] is the exact stochastic simulator
//! ([`SlottedEngine`](crate::engine::SlottedEngine)); cost grows with the
//! horizon and the station count. [`Backend::MeanField`] replaces the
//! event loop with one decoupling-approximation fixed-point solve
//! (`plc_analysis::meanfield`) and *synthesizes* a [`SimReport`] with the
//! same schema, so sweeps, JSON export and experiments run unchanged on
//! either backend. The mean-field run is deterministic (the seed is
//! ignored) and its cost does not grow with the horizon, nor with `N`
//! once the access-delay walk reaches its 100 000-slot cap (from
//! N ≈ 200 for CA1): tens of µs at N = 5, ≈1.1–1.4 ms from the cap up
//! to N = 10⁶, ≈1.08 ms of it the walk and ≈0.06 ms the fixed point at
//! N = 10⁴ (2-vCPU Intel Xeon host).
//! That is the point: fleet-scale sweeps (10⁴–10⁶ stations) in the time
//! one slotted replication takes, at the documented accuracy envelope
//! (`plc_analysis::meanfield::gamma_tolerance`).
//!
//! ## What the synthesized report contains
//!
//! Headline quantities are **exact analytic values**, not re-rounded
//! counts:
//!
//! * `collision_probability` = the fixed-point busy probability `p`. The
//!   slotted report counts `ΣCᵢ/(ΣCᵢ+successes)`, i.e. collisions per
//!   *attempt*; under the decoupling assumption a tagged attempt collides
//!   exactly when another station attempts in the same slot, which is `p`.
//! * `norm_throughput` = `normalized_throughput(slots, timing)`.
//! * `jain_fairness` = 1 exactly (all stations are exchangeable).
//!
//! The embedded [`Metrics`] carry rounded *expected* counters over
//! `⌊horizon / E[slot]⌋` contention slots so downstream consumers that
//! re-derive ratios from counts get consistent numbers. Equal shares are
//! rounded per station and multiplied back, so `jain_fairness` recomputed
//! from `per_station` is exactly 1. PB/channel-error fields are zero:
//! the mean-field backend models the error-free saturated MAC only
//! (enforced by [`Simulation::try_run`](crate::runner::Simulation)).

use crate::metrics::{Metrics, StationMetrics};
use crate::runner::SimReport;
use plc_analysis::throughput::{mean_intersuccess_time, normalized_throughput};
use plc_analysis::{DelaySummary, MeanFieldSolution};
use plc_core::config::CsmaConfig;
use plc_core::error::{Error, Result};
use plc_core::timing::MacTiming;
use plc_core::units::Microseconds;
use serde::{Deserialize, Serialize};

/// Which engine a [`Simulation`](crate::runner::Simulation) runs on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Backend {
    /// The exact stochastic discrete-event engine (the default).
    #[default]
    Slotted,
    /// The deterministic mean-field fixed point; see the module docs for
    /// the accuracy envelope and the report-synthesis rules.
    MeanField,
}

impl Backend {
    /// Whether runs on this backend are seed-independent. Deterministic
    /// backends short-circuit replication: `run_repeated` and sweep
    /// replication rules collapse to a single run.
    pub fn is_deterministic(self) -> bool {
        matches!(self, Backend::MeanField)
    }
}

/// The analytic quantities behind a mean-field run, for callers that want
/// more than the [`SimReport`] schema: the full fixed point with solver
/// diagnostics, and the access-delay distribution summary derived from
/// the drift state (`plc_analysis::drift`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MeanFieldReport {
    /// The solved fixed point (per-stage occupancy, τ, p, diagnostics).
    pub solution: MeanFieldSolution,
    /// Access-delay quantiles of a tagged station (slots and µs).
    pub delay: DelaySummary,
}

/// Solve the fixed point and derive the delay summary for a
/// single-class domain. Delegates to the shared screening API
/// (`plc_analysis::boost::screen_schedule`) so the backend and the
/// `plc-boost` optimizer rank schedules with identical math.
pub(crate) fn meanfield_analysis(
    config: &CsmaConfig,
    n: usize,
    timing: &MacTiming,
) -> Result<MeanFieldReport> {
    if n == 0 {
        return Err(Error::invalid_config(
            "mean-field backend needs at least one station",
        ));
    }
    let screen = plc_analysis::boost::screen_schedule(config, n, timing)?;
    Ok(MeanFieldReport {
        solution: screen.solution,
        delay: screen.delay,
    })
}

/// Synthesize a [`SimReport`] from one mean-field solve (see the module
/// docs for the exact rules). `registry` instrumentation mirrors the
/// slotted engine's: `meanfield.solves` / `meanfield.stations` counters
/// and a `meanfield.solve` span timer.
pub(crate) fn meanfield_report(
    config: &CsmaConfig,
    n: usize,
    timing: &MacTiming,
    horizon: Microseconds,
    registry: Option<&plc_obs::Registry>,
) -> Result<SimReport> {
    let timer = registry.and_then(|r| r.try_timer("meanfield.solve").ok());
    let span = timer.as_ref().map(|t| t.start());
    let analysis = meanfield_analysis(config, n, timing)?;
    drop(span);
    if let Some(reg) = registry {
        if let Ok(c) = reg.try_counter("meanfield.solves") {
            c.inc();
        }
        if let Ok(c) = reg.try_counter("meanfield.stations") {
            c.add(n as u64);
        }
    }
    let solution = &analysis.solution;
    let class = &solution.classes[0];
    let tau = class.tau;
    let p = class.collision_probability;
    let slots = solution.slots;
    let nf = n as f64;

    // Expected counters over ⌊horizon / E[slot]⌋ contention slots.
    let e_slot = solution.expected_slot_us(timing);
    let total_slots = (horizon.as_micros().max(0.0) / e_slot).floor();
    let succ_per_station = (slots.success * total_slots / nf).round() as u64;
    let successes = succ_per_station * n as u64;
    // Attempts per slot = Nτ; of those, P_succ are the lone winners — the
    // rest collide (per-station counting, the testbed's ΣCᵢ semantics).
    let coll_per_station = ((nf * tau - slots.success).max(0.0) * total_slots / nf).round() as u64;
    let collided_tx = coll_per_station * n as u64;
    let collision_events = (slots.collision * total_slots).round() as u64;
    let idle_slots = (slots.idle * total_slots).round() as u64;
    let time_idle = idle_slots as f64 * timing.slot.as_micros();
    let time_success = successes as f64 * timing.ts.as_micros();
    let time_collision = collision_events as f64 * timing.tc.as_micros();
    let elapsed = time_idle + time_success + time_collision;

    let mut station = StationMetrics {
        successes: succ_per_station,
        collisions: coll_per_station,
        attempts: succ_per_station + coll_per_station,
        mpdus_ok: succ_per_station,
        mpdus_collided: coll_per_station,
        frames_completed: succ_per_station,
        ..StationMetrics::default()
    };
    // The expected inter-success time, pushed once so delay-curious
    // consumers see the analytic mean rather than an empty accumulator.
    let intersuccess = mean_intersuccess_time(&slots, timing, n);
    if succ_per_station >= 2 && intersuccess.is_finite() {
        station.intersuccess.push(intersuccess);
    }

    let metrics = Metrics {
        elapsed: Microseconds(elapsed),
        idle_slots,
        successes,
        collision_events,
        collided_tx,
        time_idle: Microseconds(time_idle),
        time_success: Microseconds(time_success),
        time_collision: Microseconds(time_collision),
        beacons: 0,
        time_beacon: Microseconds(0.0),
        mpdus_ok: successes,
        frames_completed: successes,
        payload_delivered_us: successes as f64 * timing.frame_length.as_micros(),
        per_station: vec![station; n],
    };

    Ok(SimReport {
        // Exact analytic headline values — see the module docs for why
        // counter-ratio γ equals the fixed-point busy probability here.
        collision_probability: p,
        norm_throughput: normalized_throughput(&slots, timing),
        jain_fairness: 1.0,
        successes,
        collided_tx,
        elapsed_us: elapsed,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_timing() -> MacTiming {
        MacTiming::paper_default()
    }

    #[test]
    fn default_backend_is_slotted() {
        assert_eq!(Backend::default(), Backend::Slotted);
        assert!(!Backend::Slotted.is_deterministic());
        assert!(Backend::MeanField.is_deterministic());
    }

    #[test]
    fn report_headlines_are_exact_analytic_values() {
        let config = CsmaConfig::ieee1901_ca01();
        let timing = paper_timing();
        let r = meanfield_report(&config, 10, &timing, Microseconds(1e7), None).unwrap();
        let fp = plc_analysis::Model1901::new(config).solve(10);
        assert!((r.collision_probability - fp.collision_probability).abs() < 1e-9);
        assert_eq!(r.jain_fairness, 1.0);
        assert!(r.norm_throughput > 0.4 && r.norm_throughput < 1.0);
    }

    #[test]
    fn synthesized_counters_are_self_consistent() {
        let config = CsmaConfig::ieee1901_ca01();
        let timing = paper_timing();
        let r = meanfield_report(&config, 10, &timing, Microseconds(1e7), None).unwrap();
        let m = &r.metrics;
        assert_eq!(m.num_stations(), 10);
        assert_eq!(m.successes, r.successes);
        assert_eq!(m.mpdus_ok, m.successes);
        // Equal rounded shares → Jain over counters is exactly 1, and the
        // per-station sums reproduce the aggregates.
        assert_eq!(m.jain_fairness(), 1.0);
        let per: u64 = m.per_station.iter().map(|s| s.successes).sum();
        assert_eq!(per, m.successes);
        let coll: u64 = m.per_station.iter().map(|s| s.collisions).sum();
        assert_eq!(coll, m.collided_tx);
        // Count-derived ratios track the analytic headline values.
        assert!((m.collision_probability() - r.collision_probability).abs() < 0.01);
        assert!((m.norm_throughput(timing.frame_length) - r.norm_throughput).abs() < 0.01);
        // Airtime accounting covers the whole synthesized elapsed time.
        let (i, s, c) = m.airtime_shares();
        assert!((i + s + c - 1.0).abs() < 1e-9);
    }

    #[test]
    fn horizon_scales_counts_not_ratios() {
        let config = CsmaConfig::ieee1901_ca01();
        let timing = paper_timing();
        let short = meanfield_report(&config, 5, &timing, Microseconds(1e6), None).unwrap();
        let long = meanfield_report(&config, 5, &timing, Microseconds(1e8), None).unwrap();
        assert_eq!(short.collision_probability, long.collision_probability);
        assert_eq!(short.norm_throughput, long.norm_throughput);
        assert!(long.successes > short.successes * 50);
    }

    #[test]
    fn lone_station_never_collides() {
        let config = CsmaConfig::ieee1901_ca01();
        let timing = paper_timing();
        let r = meanfield_report(&config, 1, &timing, Microseconds(1e7), None).unwrap();
        assert_eq!(r.collision_probability, 0.0);
        assert_eq!(r.collided_tx, 0);
        assert!(r.successes > 0);
    }

    #[test]
    fn registry_instrumentation_counts_solves_and_stations() {
        let reg = plc_obs::Registry::new();
        let config = CsmaConfig::ieee1901_ca01();
        let timing = paper_timing();
        meanfield_report(&config, 7, &timing, Microseconds(1e6), Some(&reg)).unwrap();
        meanfield_report(&config, 7, &timing, Microseconds(1e6), Some(&reg)).unwrap();
        let snap = reg.snapshot();
        assert_eq!(snap.counter("meanfield.solves"), Some(2));
        assert_eq!(snap.counter("meanfield.stations"), Some(14));
        assert!(snap.timer("meanfield.solve").is_some());
    }

    #[test]
    fn zero_stations_is_a_config_error() {
        let err = meanfield_report(
            &CsmaConfig::ieee1901_ca01(),
            0,
            &paper_timing(),
            Microseconds(1e6),
            None,
        )
        .unwrap_err();
        assert!(err.to_string().contains("at least one station"));
    }

    #[test]
    fn analysis_exposes_delay_and_diagnostics() {
        let config = CsmaConfig::ieee1901_ca01();
        let a = meanfield_analysis(&config, 5, &paper_timing()).unwrap();
        assert!(a.solution.diagnostics.converged);
        assert!(a.delay.mean_slots > 1.0);
        assert!(a.delay.mean_us > a.delay.mean_slots * paper_timing().slot.as_micros());
        assert!(a.delay.p50_slots.is_some());
    }
}

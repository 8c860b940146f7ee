//! Multi-class mean-field (decoupling) fixed point with convergence
//! diagnostics — the solver behind the [`Backend::MeanField`] engine
//! backend in `plc-sim`.
//!
//! [`crate::model1901`] solves the single-class fixed point by scalar
//! bisection, which is bulletproof but does not generalize: with several
//! station classes (different CSMA schedules sharing one contention
//! domain, as in the ToN extension of the paper) the fixed point lives in
//! `[0,1]^C` and there is no scalar function to bisect. This module
//! solves the coupled system
//!
//! ```text
//! τ_c = F_c(p_c)                       (per-class renewal–reward response)
//! p_c = 1 − (1−τ_c)^(n_c−1) · Π_{c'≠c} (1−τ_{c'})^(n_{c'})
//! ```
//!
//! by damped iteration `τ ← τ + α (F(p(τ)) − τ)` with **adaptive
//! damping**: whenever the residual `max_c |F_c − τ_c|` grows, the step
//! size is halved (and recovers slowly on progress), which tames the
//! oscillation the plain map exhibits for aggressive schedules and large
//! `N`. The solver never fabricates an answer: if the residual does not
//! reach the tolerance within the iteration cap it returns a typed
//! [`plc_core::error::Error::Runtime`] carrying the diagnostics, and a
//! successful solve reports the iteration count and final residual in
//! [`SolverDiagnostics`].
//!
//! ## Validity envelope
//!
//! The decoupling assumption treats the busy process seen by a station as
//! i.i.d. across slots. That is exact as `N → ∞` and demonstrably wrong
//! at small `N`, where all stations restart together after every
//! transmission (see `decoupling_overestimates_at_small_n` in
//! [`crate::model1901`]). [`gamma_tolerance`] / [`throughput_tolerance`]
//! encode the documented error envelope used by the cross-validation
//! suite and the `validate-backends` experiment; see DESIGN.md §"Analytic
//! backends".
//!
//! [`Backend::MeanField`]: https://docs.rs/plc-sim

use crate::model1901::{stage_quantities_for, stage_visit_counts, tau_from_stages};
use crate::throughput::{normalized_throughput, SlotProbabilities};
use plc_core::config::CsmaConfig;
use plc_core::error::{Error, Result};
use plc_core::timing::MacTiming;
use serde::{Deserialize, Serialize};

/// One class of stations sharing a CSMA schedule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassSpec {
    /// Display label carried into the solution (e.g. `"CA1"`).
    pub label: String,
    /// The class's backoff schedule.
    pub config: CsmaConfig,
    /// Number of stations in the class (≥ 1).
    pub n: usize,
}

/// Knobs of the damped fixed-point iteration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SolverOptions {
    /// Initial step size `α ∈ (0, 1]` of the damped update. Adaptively
    /// halved when the residual grows.
    pub damping: f64,
    /// Iteration cap; exceeding it is a typed error, not a silent return.
    pub max_iterations: u32,
    /// Convergence threshold on the residual `max_c |F_c(τ) − τ_c|`.
    pub tolerance: f64,
}

impl Default for SolverOptions {
    fn default() -> Self {
        SolverOptions {
            damping: 0.5,
            max_iterations: 20_000,
            tolerance: 1e-12,
        }
    }
}

/// What the solver actually did — returned alongside every solution so a
/// caller can tell a crisp fixed point from a barely-converged one.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SolverDiagnostics {
    /// Damped iterations performed.
    pub iterations: u32,
    /// Final residual `max_c |F_c(τ) − τ_c|` at the returned point.
    pub residual: f64,
    /// Whether the residual met the tolerance (always true for a returned
    /// solution; kept explicit for serialization into reports).
    pub converged: bool,
    /// Step size in effect when the solver stopped.
    pub final_damping: f64,
}

/// Per-class quantities at the solved fixed point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassFixedPoint {
    /// Label copied from the [`ClassSpec`].
    pub label: String,
    /// Stations in the class.
    pub n: usize,
    /// Per-slot attempt probability of one station of this class.
    pub tau: f64,
    /// Busy/collision probability seen by one station of this class.
    pub collision_probability: f64,
    /// Per-stage attempt probabilities `x_i` at the fixed point.
    pub stage_attempt_probs: Vec<f64>,
    /// Expected visits to each stage per renewal cycle.
    pub stage_visits: Vec<f64>,
    /// Long-run fraction of a station's backoff slots spent in each stage
    /// (the stationary occupancy of the drift ODE; sums to 1).
    pub stage_occupancy: Vec<f64>,
    /// Expected decision slots between successes of one tagged station
    /// (`Σ_i E_i (s_i + x_i)`); `∞` when the chain never succeeds.
    pub mean_access_delay_slots: f64,
}

/// A solved mean-field fixed point for one contention domain.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MeanFieldSolution {
    /// Per-class fixed points, in input order.
    pub classes: Vec<ClassFixedPoint>,
    /// Aggregate channel slot mix (idle / success / collision).
    pub slots: SlotProbabilities,
    /// Convergence diagnostics of the solve.
    pub diagnostics: SolverDiagnostics,
}

impl MeanFieldSolution {
    /// Total stations across all classes.
    pub fn total_stations(&self) -> usize {
        self.classes.iter().map(|c| c.n).sum()
    }

    /// Normalized throughput under `timing`.
    pub fn throughput(&self, timing: &MacTiming) -> f64 {
        normalized_throughput(&self.slots, timing)
    }

    /// Expected wall-clock duration of one decision slot in µs.
    pub fn expected_slot_us(&self, timing: &MacTiming) -> f64 {
        self.slots.idle * timing.slot.as_micros()
            + self.slots.success * timing.ts.as_micros()
            + self.slots.collision * timing.tc.as_micros()
    }
}

/// Multi-class mean-field model of one saturated contention domain.
///
/// ```
/// use plc_analysis::meanfield::MeanFieldModel;
/// use plc_core::config::CsmaConfig;
///
/// let sol = MeanFieldModel::new()
///     .class("CA1", CsmaConfig::ieee1901_ca01(), 5)
///     .class("CA3", CsmaConfig::ieee1901_ca23(), 3)
///     .solve()
///     .unwrap();
/// assert!(sol.diagnostics.converged);
/// assert!(sol.classes[1].tau > sol.classes[0].tau, "CA3 is more aggressive");
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MeanFieldModel {
    classes: Vec<ClassSpec>,
    options: SolverOptions,
}

impl MeanFieldModel {
    /// An empty model; add classes with [`class`](Self::class).
    pub fn new() -> Self {
        Self::default()
    }

    /// A single-class model — the shape the engine backend uses.
    pub fn single(config: CsmaConfig, n: usize) -> Self {
        Self::new().class("class0", config, n)
    }

    /// Add a station class.
    pub fn class(mut self, label: impl Into<String>, config: CsmaConfig, n: usize) -> Self {
        self.classes.push(ClassSpec {
            label: label.into(),
            config,
            n,
        });
        self
    }

    /// Override the solver options.
    pub fn options(mut self, options: SolverOptions) -> Self {
        self.options = options;
        self
    }

    /// The configured classes.
    pub fn classes(&self) -> &[ClassSpec] {
        &self.classes
    }

    /// Solve the coupled fixed point.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] for an empty model, an empty class, a
    /// class of more than `i32::MAX` stations, or out-of-range solver
    /// options; [`Error::Runtime`] when the damped iteration does not
    /// reach the tolerance within the iteration cap (the message carries
    /// the residual, iteration count and final step size).
    pub fn solve(&self) -> Result<MeanFieldSolution> {
        self.validate()?;
        let specs = &self.classes;
        let opts = &self.options;

        // Total-station count decides the coupling; a lone station sees
        // p = 0 exactly and needs no iteration.
        let total: usize = specs.iter().map(|s| s.n).sum();
        if total == 1 {
            let taus = vec![class_tau(&specs[0].config, 0.0)];
            return Ok(self.solution_at(&taus, 0, 0.0, opts.damping));
        }

        // Damped iteration with adaptive step size.
        let mut taus: Vec<f64> = specs.iter().map(|s| class_tau(&s.config, 0.5)).collect();
        let mut damping = opts.damping;
        let mut prev_residual = f64::INFINITY;
        let mut iterations = 0u32;
        let mut residual = f64::INFINITY;
        let mut converged = false;
        while iterations < opts.max_iterations {
            iterations += 1;
            let fresh: Vec<f64> = (0..specs.len())
                .map(|c| class_tau(&specs[c].config, busy_probability(&taus, specs, c)))
                .collect();
            residual = fresh
                .iter()
                .zip(&taus)
                .map(|(f, t)| (f - t).abs())
                .fold(0.0, f64::max);
            if residual <= opts.tolerance {
                // Stop *before* applying the update: the residual was
                // measured at exactly the point we return.
                converged = true;
                break;
            }
            if residual > prev_residual {
                damping = (damping * 0.5).max(1e-3);
            } else {
                damping = (damping * 1.1).min(opts.damping);
            }
            prev_residual = residual;
            for (t, f) in taus.iter_mut().zip(&fresh) {
                *t = (*t + damping * (f - *t)).clamp(0.0, 1.0);
            }
        }
        if !converged {
            return Err(Error::runtime(format!(
                "mean-field solver did not converge: residual {residual:.3e} after \
                 {iterations} iterations (tolerance {:.1e}, final damping {damping:.4})",
                opts.tolerance
            )));
        }
        Ok(self.solution_at(&taus, iterations, residual, damping))
    }

    fn validate(&self) -> Result<()> {
        if self.classes.is_empty() {
            return Err(Error::invalid_config(
                "mean-field model needs at least one station class",
            ));
        }
        for spec in &self.classes {
            if spec.n == 0 {
                return Err(Error::invalid_config(format!(
                    "class {:?} has zero stations",
                    spec.label
                )));
            }
            check_station_count(spec.n)?;
            spec.config.validate()?;
        }
        let o = &self.options;
        if !(o.damping > 0.0 && o.damping <= 1.0) {
            return Err(Error::invalid_config(format!(
                "damping must be in (0, 1], got {}",
                o.damping
            )));
        }
        if o.max_iterations == 0 {
            return Err(Error::invalid_config("max_iterations must be ≥ 1"));
        }
        // NaN must fail too, so the comparison is written to reject it.
        let tolerance_ok = o.tolerance > 0.0;
        if !tolerance_ok {
            return Err(Error::invalid_config(format!(
                "tolerance must be positive, got {}",
                o.tolerance
            )));
        }
        Ok(())
    }

    /// Assemble the full solution at converged attempt rates.
    fn solution_at(
        &self,
        taus: &[f64],
        iterations: u32,
        residual: f64,
        final_damping: f64,
    ) -> MeanFieldSolution {
        let specs = &self.classes;
        let classes = specs
            .iter()
            .enumerate()
            .map(|(c, spec)| {
                let p = busy_probability(taus, specs, c);
                let stages = stage_quantities_for(&spec.config, p);
                let visits = stage_visit_counts(&stages, p);
                // Occupancy weights: expected slots per cycle in each
                // stage. When the chain diverges (p → 1), all mass sits
                // in the absorbing last stage.
                let weights: Vec<f64> = stages
                    .iter()
                    .zip(&visits)
                    .map(|(s, v)| v * (s.backoff_slots + s.attempt_prob))
                    .collect();
                let cycle_slots: f64 = weights.iter().sum();
                let m = stages.len();
                let stage_occupancy = if cycle_slots.is_finite() && cycle_slots > 0.0 {
                    weights.iter().map(|w| w / cycle_slots).collect()
                } else {
                    let mut occ = vec![0.0; m];
                    occ[m - 1] = 1.0;
                    occ
                };
                ClassFixedPoint {
                    label: spec.label.clone(),
                    n: spec.n,
                    tau: taus[c],
                    collision_probability: p,
                    stage_attempt_probs: stages.iter().map(|s| s.attempt_prob).collect(),
                    stage_visits: visits,
                    stage_occupancy,
                    mean_access_delay_slots: cycle_slots,
                }
            })
            .collect();
        MeanFieldSolution {
            classes,
            slots: aggregate_slots(taus, specs),
            diagnostics: SolverDiagnostics {
                iterations,
                residual,
                converged: true,
                final_damping,
            },
        }
    }
}

/// Reject a station count past `i32::MAX`. The decoupling formulas raise
/// `1 − τ` to the power `n − 1` with `powi`, whose `i32` exponent would
/// wrap: a silently contention-free answer in release builds, an
/// overflow panic in debug ones.
pub(crate) fn check_station_count(n: usize) -> Result<()> {
    match i32::try_from(n) {
        Ok(_) => Ok(()),
        Err(_) => Err(Error::invalid_config(format!(
            "{n} stations in one contention domain; the analytic models take at most {}",
            i32::MAX
        ))),
    }
}

/// The per-class renewal–reward response `τ = F(p)`.
fn class_tau(config: &CsmaConfig, p: f64) -> f64 {
    let stages = stage_quantities_for(config, p);
    let visits = stage_visit_counts(&stages, p);
    tau_from_stages(&stages, &visits)
}

/// Busy probability seen by one station of class `c`: the chance that any
/// of the other `n_c − 1` same-class stations or any station of another
/// class attempts in a slot. Computed as an explicit product so a class
/// at `τ = 1` never divides by zero.
fn busy_probability(taus: &[f64], specs: &[ClassSpec], c: usize) -> f64 {
    let mut others_idle = 1.0;
    for (k, spec) in specs.iter().enumerate() {
        let exp = if k == c {
            spec.n as i32 - 1
        } else {
            spec.n as i32
        };
        others_idle *= (1.0 - taus[k]).powi(exp);
    }
    (1.0 - others_idle).clamp(0.0, 1.0)
}

/// Aggregate channel slot mix for heterogeneous classes.
fn aggregate_slots(taus: &[f64], specs: &[ClassSpec]) -> SlotProbabilities {
    let idle: f64 = taus
        .iter()
        .zip(specs)
        .map(|(t, s)| (1.0 - t).powi(s.n as i32))
        .product();
    let mut success = 0.0;
    for (c, spec) in specs.iter().enumerate() {
        // Exactly one station of class c attempts, everyone else idles.
        let mut term = spec.n as f64 * taus[c] * (1.0 - taus[c]).powi(spec.n as i32 - 1);
        for (k, other) in specs.iter().enumerate() {
            if k != c {
                term *= (1.0 - taus[k]).powi(other.n as i32);
            }
        }
        success += term;
    }
    SlotProbabilities {
        idle,
        success,
        collision: (1.0 - idle - success).max(0.0),
    }
}

/// Documented error envelope of the decoupling approximation on the
/// **collision probability** γ, as a function of the domain's station
/// count. Calibrated against the slotted engine (see DESIGN.md §"Analytic
/// backends"): at small `N` all stations restart together after every
/// transmission, the busy process is strongly correlated across slots,
/// and the model overestimates γ by up to ≈ 0.05; the error decays as
/// stations decorrelate.
pub fn gamma_tolerance(n: usize) -> f64 {
    match n {
        0..=4 => 0.065,
        5..=9 => 0.055,
        10..=29 => 0.035,
        _ => 0.02,
    }
}

/// Documented error envelope on **normalized throughput** — less
/// sensitive than γ because throughput depends on the slot mix, not the
/// per-station busy view.
pub fn throughput_tolerance(n: usize) -> f64 {
    match n {
        0..=9 => 0.05,
        10..=49 => 0.03,
        _ => 0.02,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boost::screen_schedule;
    use crate::drift::DriftModel;
    use crate::model1901::Model1901;

    #[test]
    fn station_counts_past_i32_max_are_config_errors() {
        // `powi(n as i32 - 1)` would wrap here: p = 0 in release builds,
        // an overflow panic in debug ones.
        let n = i32::MAX as usize + 1;
        let ca1 = CsmaConfig::ieee1901_ca01();
        let timing = MacTiming::paper_default();
        let errors = [
            MeanFieldModel::single(ca1.clone(), n).solve().unwrap_err(),
            DriftModel::new(ca1.clone(), n).unwrap_err(),
            screen_schedule(&ca1, n, &timing).unwrap_err(),
        ];
        for err in errors {
            assert!(matches!(err, Error::InvalidConfig { .. }), "{err}");
        }
        // The largest representable count is still accepted.
        assert!(DriftModel::new(ca1, i32::MAX as usize).is_ok());
    }

    #[test]
    fn single_class_matches_bisection() {
        // The adversarial anchor: the damped multi-class solver must land
        // on the same fixed point the scalar bisection finds.
        let model = Model1901::default_ca1();
        for n in [2usize, 3, 5, 10, 50, 200, 1000] {
            let fp = model.solve(n);
            let sol = MeanFieldModel::single(CsmaConfig::ieee1901_ca01(), n)
                .solve()
                .unwrap();
            let mf = &sol.classes[0];
            assert!(
                (mf.tau - fp.tau).abs() < 1e-8,
                "N={n}: mean-field τ={:.10} vs bisection τ={:.10}",
                mf.tau,
                fp.tau
            );
            assert!((mf.collision_probability - fp.collision_probability).abs() < 1e-7);
            assert!(sol.diagnostics.converged);
            assert!(sol.diagnostics.residual <= 1e-12);
        }
    }

    #[test]
    fn lone_station_sees_idle_channel() {
        let sol = MeanFieldModel::single(CsmaConfig::ieee1901_ca01(), 1)
            .solve()
            .unwrap();
        let c = &sol.classes[0];
        assert_eq!(c.collision_probability, 0.0);
        assert!((c.tau - 1.0 / 4.5).abs() < 1e-12, "τ = 1/(3.5 + 1)");
        assert!(sol.diagnostics.converged);
        assert_eq!(sol.diagnostics.iterations, 0);
    }

    #[test]
    fn symmetric_split_equals_single_class() {
        // 2 + 3 stations of the same schedule must behave exactly like a
        // single class of 5.
        let single = MeanFieldModel::single(CsmaConfig::ieee1901_ca01(), 5)
            .solve()
            .unwrap();
        let split = MeanFieldModel::new()
            .class("a", CsmaConfig::ieee1901_ca01(), 2)
            .class("b", CsmaConfig::ieee1901_ca01(), 3)
            .solve()
            .unwrap();
        for c in &split.classes {
            assert!((c.tau - single.classes[0].tau).abs() < 1e-8);
            assert!(
                (c.collision_probability - single.classes[0].collision_probability).abs() < 1e-7
            );
        }
        assert!((split.slots.success - single.slots.success).abs() < 1e-8);
    }

    #[test]
    fn aggregate_matches_from_tau_for_single_class() {
        let sol = MeanFieldModel::single(CsmaConfig::ieee1901_ca23(), 8)
            .solve()
            .unwrap();
        let direct = SlotProbabilities::from_tau(sol.classes[0].tau, 8);
        assert!((sol.slots.idle - direct.idle).abs() < 1e-12);
        assert!((sol.slots.success - direct.success).abs() < 1e-12);
        assert!((sol.slots.collision - direct.collision).abs() < 1e-12);
    }

    #[test]
    fn heterogeneous_classes_order_sensibly() {
        // CA2/CA3 caps CW at 32 → more aggressive than CA0/CA1 in the
        // same domain.
        let sol = MeanFieldModel::new()
            .class("CA1", CsmaConfig::ieee1901_ca01(), 5)
            .class("CA3", CsmaConfig::ieee1901_ca23(), 5)
            .solve()
            .unwrap();
        let (ca1, ca3) = (&sol.classes[0], &sol.classes[1]);
        assert!(ca3.tau > ca1.tau);
        for c in &sol.classes {
            assert!(c.tau > 0.0 && c.tau < 1.0);
            assert!(c.collision_probability > 0.0 && c.collision_probability < 1.0);
        }
        let s = &sol.slots;
        assert!((s.idle + s.success + s.collision - 1.0).abs() < 1e-9);
    }

    #[test]
    fn occupancy_is_a_distribution() {
        let sol = MeanFieldModel::single(CsmaConfig::ieee1901_ca01(), 10)
            .solve()
            .unwrap();
        let occ = &sol.classes[0].stage_occupancy;
        assert_eq!(occ.len(), 4);
        assert!((occ.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(occ.iter().all(|&o| (0.0..=1.0).contains(&o)));
        assert!(sol.classes[0].mean_access_delay_slots > 0.0);
    }

    #[test]
    fn non_convergence_is_a_typed_error() {
        let err = MeanFieldModel::single(CsmaConfig::ieee1901_ca01(), 50)
            .options(SolverOptions {
                damping: 0.5,
                max_iterations: 2,
                tolerance: 1e-15,
            })
            .solve()
            .unwrap_err();
        assert!(
            matches!(err, Error::Runtime { .. }),
            "expected Runtime, got {err:?}"
        );
        assert!(err.to_string().contains("did not converge"));
    }

    #[test]
    fn invalid_inputs_are_config_errors() {
        let empty = MeanFieldModel::new().solve().unwrap_err();
        assert!(matches!(empty, Error::InvalidConfig { .. }));
        let zero = MeanFieldModel::single(CsmaConfig::ieee1901_ca01(), 0)
            .solve()
            .unwrap_err();
        assert!(matches!(zero, Error::InvalidConfig { .. }));
        let bad_opts = MeanFieldModel::single(CsmaConfig::ieee1901_ca01(), 2)
            .options(SolverOptions {
                damping: 0.0,
                max_iterations: 10,
                tolerance: 1e-9,
            })
            .solve()
            .unwrap_err();
        assert!(matches!(bad_opts, Error::InvalidConfig { .. }));
    }

    #[test]
    fn tolerances_decay_with_n() {
        assert!(gamma_tolerance(2) >= gamma_tolerance(5));
        assert!(gamma_tolerance(5) >= gamma_tolerance(10));
        assert!(gamma_tolerance(10) >= gamma_tolerance(200));
        assert!(throughput_tolerance(5) >= throughput_tolerance(500));
    }

    #[test]
    fn fleet_scale_class_is_cheap_and_finite() {
        // The backend's 10k-station shape: cost is independent of n.
        let sol = MeanFieldModel::single(CsmaConfig::ieee1901_ca01(), 10_000)
            .solve()
            .unwrap();
        // τ tends to the last stage's p→1 attempt rate ≈ 0.0177 (16 of 64
        // draws attempt, ≈ 13.9 slots spent), not to zero.
        let c = &sol.classes[0];
        assert!(c.tau > 0.0 && c.tau < 0.05);
        // (1 − τ)^9999 ≈ 1e−78: p rounds to exactly 1.0 in f64.
        assert!(c.collision_probability > 0.99 && c.collision_probability <= 1.0);
        assert!(sol.slots.success > 0.0);
    }
}

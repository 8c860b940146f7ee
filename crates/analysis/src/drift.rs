//! Drift ODE for the transient dynamics of the 1901 backoff process,
//! and the delay distribution of the mean-field backend.
//!
//! The mean-field fixed point ([`crate::meanfield`]) describes the
//! *stationary* regime. The ToN extension of the paper ("How CSMA/CA
//! With Deferral Affects Performance and Dynamics in Power-Line
//! Communications") studies the *transient*: how the population of
//! stations distributes over backoff stages after a perturbation, which
//! is where short-term unfairness and coupling live. In the large-`N`
//! mean-field limit the empirical stage occupancy `θ(t)` (fraction of
//! stations in each stage) follows a deterministic drift ODE.
//!
//! ## The drift field
//!
//! At busy probability `p`, a station visiting stage `i` attempts with
//! probability `x_i` and spends `ℓ_i = s_i + x_i` slots; the per-slot
//! hazards of a station *currently in* stage `i` are therefore
//!
//! ```text
//! a_i = x_i / ℓ_i          (attempt this slot)
//! j_i = (1 − x_i) / ℓ_i    (deferral expiry: jump without attempting)
//! ```
//!
//! A successful attempt (probability `1 − p`) restarts at stage 0; a
//! collided attempt or a jump moves to stage `min(i+1, m−1)`. The busy
//! probability itself is tied to the occupancy through the instantaneous
//! attempt rate `τ̄(θ) = Σ_i θ_i a_i(p)` and `p = 1 − (1 − τ̄)^(N−1)`,
//! a scalar consistency equation solved by bisection inside every
//! derivative evaluation. The stationary point of this field is exactly
//! the mean-field fixed point (pinned by a test below).
//!
//! ## Delay distribution
//!
//! Freezing `p` at the fixed point turns the stage process of one tagged
//! station into an absorbing DTMC (absorption = successful attempt),
//! whose absorption-time distribution is the per-packet access delay in
//! decision slots. One step kernel walks it slot by slot:
//! [`access_delay_distribution`] collects the per-slot PMF and CDF;
//! [`delay_summary`] streams the mean and quantiles without them and
//! converts to microseconds using the tagged station's expected slot
//! duration — this is what the `MeanField` engine backend reports.

use crate::math::bisect_decreasing_iters;
use crate::meanfield::check_station_count;
use crate::model1901::stage_quantities_for;
use plc_core::config::CsmaConfig;
use plc_core::error::{Error, Result};
use plc_core::timing::MacTiming;
use serde::{Deserialize, Serialize};

/// Per-slot hazards of every stage at one busy probability.
fn hazards(config: &CsmaConfig, p: f64) -> Vec<(f64, f64)> {
    stage_quantities_for(config, p)
        .iter()
        .map(|s| {
            // ℓ ≥ x ≥ 1/W > 0: the denominator never vanishes.
            let l = s.backoff_slots + s.attempt_prob;
            (s.attempt_prob / l, (1.0 - s.attempt_prob) / l)
        })
        .collect()
}

/// Mean-field drift ODE of `n` saturated stations running `config`.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftModel {
    config: CsmaConfig,
    n: usize,
}

/// A sampled trajectory of the drift ODE.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DriftTrajectory {
    /// Integration step in slots.
    pub dt: f64,
    /// Stage occupancy at each sample (index 0 = the initial state).
    pub occupancy: Vec<Vec<f64>>,
    /// Instantaneous attempt rate `τ̄(θ)` at each sample.
    pub tau: Vec<f64>,
    /// Instantaneous busy probability at each sample.
    pub busy: Vec<f64>,
}

impl DriftModel {
    /// Model for `1 ≤ n ≤ i32::MAX` stations.
    pub fn new(config: CsmaConfig, n: usize) -> Result<Self> {
        if n == 0 {
            return Err(Error::invalid_config(
                "drift model needs at least one station",
            ));
        }
        check_station_count(n)?;
        config.validate()?;
        Ok(DriftModel { config, n })
    }

    /// Number of backoff stages.
    pub fn num_stages(&self) -> usize {
        self.config.num_stages()
    }

    /// The fresh-start occupancy: everyone in stage 0.
    pub fn fresh_start(&self) -> Vec<f64> {
        let mut occ = vec![0.0; self.num_stages()];
        occ[0] = 1.0;
        occ
    }

    /// Uniform occupancy over the stages.
    pub fn uniform_start(&self) -> Vec<f64> {
        vec![1.0 / self.num_stages() as f64; self.num_stages()]
    }

    /// The busy probability consistent with occupancy `occ`: the root of
    /// `1 − (1 − τ̄(p))^(N−1) − p`, solved by bisection (both endpoints
    /// have the required signs, so the solve cannot fail).
    pub fn consistent_busy(&self, occ: &[f64]) -> f64 {
        if self.n == 1 {
            return 0.0;
        }
        let f = |p: f64| {
            let tau = self.attempt_rate(occ, p);
            1.0 - (1.0 - tau).powi(self.n as i32 - 1) - p
        };
        bisect_decreasing_iters(0.0, 1.0, 60, f)
    }

    /// Instantaneous attempt rate `τ̄(θ) = Σ_i θ_i a_i(p)`.
    pub fn attempt_rate(&self, occ: &[f64], p: f64) -> f64 {
        hazards(&self.config, p)
            .iter()
            .zip(occ)
            .map(|((a, _), th)| th * a)
            .sum()
    }

    /// The drift field `dθ/dt` at occupancy `occ` (time in slots).
    pub fn derivative(&self, occ: &[f64]) -> Vec<f64> {
        let m = self.num_stages();
        assert_eq!(occ.len(), m, "occupancy dimension mismatch");
        let p = self.consistent_busy(occ);
        let haz = hazards(&self.config, p);
        let mut d = vec![0.0; m];
        for (i, &(a, j)) in haz.iter().enumerate() {
            let next = (i + 1).min(m - 1);
            let outflow = occ[i] * (a + j);
            d[i] -= outflow;
            // Success restarts at stage 0; collision or jump escalates.
            d[0] += occ[i] * a * (1.0 - p);
            d[next] += occ[i] * (a * p + j);
        }
        d
    }

    /// One RK4 step of size `dt` slots, projected back onto the simplex
    /// (clamping and renormalization guard floating-point drift only;
    /// the field itself conserves mass).
    pub fn rk4_step(&self, occ: &[f64], dt: f64) -> Vec<f64> {
        let add = |a: &[f64], b: &[f64], w: f64| -> Vec<f64> {
            a.iter().zip(b).map(|(x, y)| x + w * y).collect()
        };
        let k1 = self.derivative(occ);
        let k2 = self.derivative(&add(occ, &k1, dt / 2.0));
        let k3 = self.derivative(&add(occ, &k2, dt / 2.0));
        let k4 = self.derivative(&add(occ, &k3, dt));
        let mut next: Vec<f64> = occ
            .iter()
            .enumerate()
            .map(|(i, &o)| o + dt / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]))
            .collect();
        for v in &mut next {
            *v = v.max(0.0);
        }
        let total: f64 = next.iter().sum();
        if total > 0.0 {
            for v in &mut next {
                *v /= total;
            }
        }
        next
    }

    /// Integrate `steps` RK4 steps of size `dt` from `start`, sampling
    /// every state (including the initial one).
    pub fn trajectory(&self, start: &[f64], dt: f64, steps: usize) -> DriftTrajectory {
        let mut occ = normalize(start);
        let mut traj = DriftTrajectory {
            dt,
            occupancy: Vec::with_capacity(steps + 1),
            tau: Vec::with_capacity(steps + 1),
            busy: Vec::with_capacity(steps + 1),
        };
        for _ in 0..=steps {
            let p = self.consistent_busy(&occ);
            traj.busy.push(p);
            traj.tau.push(self.attempt_rate(&occ, p));
            traj.occupancy.push(occ.clone());
            occ = self.rk4_step(&occ, dt);
        }
        traj
    }

    /// Integrate until the drift field's max component drops below `tol`
    /// and return the equilibrium occupancy.
    ///
    /// # Errors
    ///
    /// [`Error::Runtime`] when `max_steps` RK4 steps of size `dt` do not
    /// reach the tolerance.
    pub fn relax(&self, start: &[f64], dt: f64, max_steps: usize, tol: f64) -> Result<Vec<f64>> {
        let mut occ = normalize(start);
        for _ in 0..max_steps {
            let d = self.derivative(&occ);
            if d.iter().all(|v| v.abs() < tol) {
                return Ok(occ);
            }
            occ = self.rk4_step(&occ, dt);
        }
        Err(Error::runtime(format!(
            "drift relaxation did not reach |dθ/dt| < {tol:.1e} within {max_steps} steps"
        )))
    }
}

fn normalize(occ: &[f64]) -> Vec<f64> {
    assert!(!occ.is_empty(), "occupancy must be non-empty");
    assert!(
        occ.iter().all(|&v| v >= 0.0 && v.is_finite()),
        "occupancy entries must be finite and non-negative"
    );
    let total: f64 = occ.iter().sum();
    assert!(total > 0.0, "occupancy must have positive mass");
    occ.iter().map(|v| v / total).collect()
}

/// Access-delay distribution of one tagged station at frozen busy
/// probability `p`, in decision slots.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DelayDistribution {
    /// `pmf[t]` = P(success exactly `t + 1` slots after the backoff
    /// started).
    pub pmf: Vec<f64>,
    /// `(slots, P(delay ≤ slots))` pairs, one per slot.
    pub cdf: Vec<(f64, f64)>,
    /// Mean delay in slots, conditioned on absorption within the walked
    /// horizon.
    pub mean_slots: f64,
    /// Probability mass beyond the walked horizon.
    pub truncated_mass: f64,
}

/// What every delay walk accumulates on its way.
struct WalkTotals {
    /// `P(delay ≤ max_slots)`.
    absorbed: f64,
    /// `Σ_t t · P(delay = t)`.
    mean_num: f64,
}

impl WalkTotals {
    fn mean_slots(&self) -> f64 {
        if self.absorbed > 0.0 {
            self.mean_num / self.absorbed
        } else {
            f64::INFINITY
        }
    }

    fn truncated_mass(&self) -> f64 {
        (1.0 - self.absorbed).max(0.0)
    }
}

/// Walk the absorbing stage DTMC for `max_slots` slots, calling
/// `on_slot(t, P(delay = t), P(delay ≤ t))` after every slot. This is
/// the one step kernel behind [`access_delay_distribution`] and
/// [`delay_summary`].
///
/// The two stage buffers are allocated once per walk and swapped each
/// slot. After every step, entries below `f64::MIN_POSITIVE` are set to
/// zero: a drained stage otherwise decays into the subnormal range and
/// sticks at the smallest subnormal (which any stay factor above ½
/// rounds back to itself), and every later slot pays the hardware's
/// subnormal-arithmetic penalty. What such an entry would still add
/// lies below the last bit of the CDF and mean sums, so the CDF, the
/// mean and the quantiles are those of the unflushed walk bit for bit
/// (a test pins that); only success probabilities below
/// `f64::MIN_POSITIVE` can read zero.
fn walk_delay(
    config: &CsmaConfig,
    p: f64,
    max_slots: usize,
    mut on_slot: impl FnMut(usize, f64, f64),
) -> WalkTotals {
    let idle = 1.0 - p;
    // Per stage: the attempt hazard, and the factors of a collision or
    // jump and of a stay, each evaluated exactly as the unflushed
    // reference walk in the tests evaluates it every slot.
    let stages: Vec<(f64, f64, f64)> = hazards(config, p)
        .into_iter()
        .map(|(a, j)| (a, a * p + j, 1.0 - a - j))
        .collect();
    let last = stages.len() - 1;
    let mut pi = vec![0.0; stages.len()];
    let mut next = vec![0.0; stages.len()];
    pi[0] = 1.0;
    let mut totals = WalkTotals {
        absorbed: 0.0,
        mean_num: 0.0,
    };
    for t in 1..=max_slots {
        // Stage i keeps `π_i · stay` and passes `π_i · advance` on to
        // stage i + 1; the last stage keeps both. Every sum adds its
        // terms in the reference walk's order: another order would move
        // the last bits of the results.
        let mut succ = 0.0;
        let mut inflow = 0.0;
        let below_last = pi.iter().zip(&stages).zip(&mut next).take(last);
        for ((&x, &(a, advance, stay)), out) in below_last {
            succ += x * a * idle;
            *out = flush_subnormal(inflow + x * stay);
            inflow = x * advance;
        }
        let x = pi[last];
        let (a, advance, stay) = stages[last];
        succ += x * a * idle;
        next[last] = flush_subnormal((inflow + x * advance) + x * stay);
        std::mem::swap(&mut pi, &mut next);
        totals.absorbed += succ;
        totals.mean_num += t as f64 * succ;
        on_slot(t, succ, totals.absorbed);
    }
    totals
}

/// `v`, or zero when `v` is subnormal.
fn flush_subnormal(v: f64) -> f64 {
    if v.abs() < f64::MIN_POSITIVE {
        0.0
    } else {
        v
    }
}

/// Walk the absorbing stage DTMC for `max_slots` slots and collect the
/// whole distribution. [`delay_summary`] walks the same chain without
/// keeping the per-slot tables. Because the walk flushes subnormal stage
/// probabilities, a `pmf` entry below `f64::MIN_POSITIVE` may read zero.
pub fn access_delay_distribution(
    config: &CsmaConfig,
    p: f64,
    max_slots: usize,
) -> DelayDistribution {
    let mut pmf = Vec::with_capacity(max_slots);
    let mut cdf = Vec::with_capacity(max_slots);
    let totals = walk_delay(config, p, max_slots, |t, succ, absorbed| {
        pmf.push(succ);
        cdf.push((t as f64, absorbed));
    });
    DelayDistribution {
        pmf,
        cdf,
        mean_slots: totals.mean_slots(),
        truncated_mass: totals.truncated_mass(),
    }
}

/// Expected wall-clock duration in µs of one decision slot as seen by a
/// tagged *waiting* station: the other `n − 1` stations produce an idle
/// slot, exactly one other success, or a collision among the others.
pub fn tagged_slot_duration_us(tau: f64, n: usize, timing: &MacTiming) -> f64 {
    if n <= 1 {
        return timing.slot.as_micros();
    }
    let p = 1.0 - (1.0 - tau).powi(n as i32 - 1);
    let one_other = (n as f64 - 1.0) * tau * (1.0 - tau).powi(n as i32 - 2);
    (1.0 - p) * timing.slot.as_micros()
        + one_other * timing.ts.as_micros()
        + (p - one_other) * timing.tc.as_micros()
}

/// Access-delay summary of the mean-field backend: slot-domain moments
/// and quantiles plus their µs conversions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DelaySummary {
    /// Mean access delay in decision slots (conditioned on absorption
    /// within the walked horizon).
    pub mean_slots: f64,
    /// Median delay in slots (`None` if the walked horizon is too short).
    pub p50_slots: Option<f64>,
    /// 90th percentile in slots.
    pub p90_slots: Option<f64>,
    /// 99th percentile in slots.
    pub p99_slots: Option<f64>,
    /// Expected per-slot wall-clock duration used for conversion, µs.
    pub slot_us: f64,
    /// Mean access delay in µs.
    pub mean_us: f64,
    /// Probability mass beyond the walked horizon.
    pub truncated_mass: f64,
}

impl DelaySummary {
    /// 99th-percentile access delay in µs (`None` when the walked
    /// horizon was too short to pin the quantile).
    pub fn p99_us(&self) -> Option<f64> {
        self.p99_slots.map(|s| s * self.slot_us)
    }
}

/// Delay summary for one tagged station of a class at attempt rate
/// `tau` / busy probability `p` in an `n`-station domain, from a walk of
/// `max_slots` slots. The quantiles are read off during the walk: each
/// is the first slot whose CDF reaches its level.
pub fn delay_summary(
    config: &CsmaConfig,
    tau: f64,
    p: f64,
    n: usize,
    timing: &MacTiming,
    max_slots: usize,
) -> DelaySummary {
    const LEVELS: [f64; 3] = [0.5, 0.9, 0.99];
    let mut quantiles = [None; LEVELS.len()];
    let mut reached = 0;
    let totals = walk_delay(config, p, max_slots, |t, _, absorbed| {
        while reached < LEVELS.len() && absorbed >= LEVELS[reached] {
            quantiles[reached] = Some(t as f64);
            reached += 1;
        }
    });
    let [p50_slots, p90_slots, p99_slots] = quantiles;
    let mean_slots = totals.mean_slots();
    let slot_us = tagged_slot_duration_us(tau, n, timing);
    DelaySummary {
        mean_slots,
        p50_slots,
        p90_slots,
        p99_slots,
        slot_us,
        mean_us: mean_slots * slot_us,
        truncated_mass: totals.truncated_mass(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boost::delay_walk_slots;
    use crate::meanfield::MeanFieldModel;
    use plc_core::config::DC_DISABLED;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn ca1() -> CsmaConfig {
        CsmaConfig::ieee1901_ca01()
    }

    /// The unflushed per-slot walk, kept as the bit-identity reference:
    /// a fresh stage vector every slot, no subnormal flush, the whole PMF
    /// and CDF collected.
    fn reference_distribution(config: &CsmaConfig, p: f64, max_slots: usize) -> DelayDistribution {
        let haz = hazards(config, p);
        let m = haz.len();
        let mut pi = vec![0.0; m];
        pi[0] = 1.0;
        let mut pmf = Vec::with_capacity(max_slots);
        let mut cdf = Vec::with_capacity(max_slots);
        let mut absorbed = 0.0;
        let mut mean_num = 0.0;
        for t in 1..=max_slots {
            let mut next = vec![0.0; m];
            let mut succ = 0.0;
            for (i, &(a, j)) in haz.iter().enumerate() {
                let nxt = (i + 1).min(m - 1);
                succ += pi[i] * a * (1.0 - p);
                next[nxt] += pi[i] * (a * p + j);
                next[i] += pi[i] * (1.0 - a - j);
            }
            pi = next;
            absorbed += succ;
            mean_num += t as f64 * succ;
            pmf.push(succ);
            cdf.push((t as f64, absorbed));
        }
        DelayDistribution {
            pmf,
            cdf,
            mean_slots: if absorbed > 0.0 {
                mean_num / absorbed
            } else {
                f64::INFINITY
            },
            truncated_mass: (1.0 - absorbed).max(0.0),
        }
    }

    /// The reference summary: the quantiles scanned off the whole
    /// reference CDF.
    fn reference_summary(
        config: &CsmaConfig,
        tau: f64,
        p: f64,
        n: usize,
        timing: &MacTiming,
        max_slots: usize,
    ) -> DelaySummary {
        let dist = reference_distribution(config, p, max_slots);
        let slot_us = tagged_slot_duration_us(tau, n, timing);
        DelaySummary {
            mean_slots: dist.mean_slots,
            p50_slots: plc_stats::quantile_from_cdf(&dist.cdf, 0.5),
            p90_slots: plc_stats::quantile_from_cdf(&dist.cdf, 0.9),
            p99_slots: plc_stats::quantile_from_cdf(&dist.cdf, 0.99),
            slot_us,
            mean_us: dist.mean_slots * slot_us,
            truncated_mass: dist.truncated_mass,
        }
    }

    /// Every field of a summary as bits; destructured so that a new field
    /// cannot be left out of the comparison.
    fn summary_bits(s: &DelaySummary) -> [Option<u64>; 7] {
        let DelaySummary {
            mean_slots,
            p50_slots,
            p90_slots,
            p99_slots,
            slot_us,
            mean_us,
            truncated_mass,
        } = s;
        [
            Some(mean_slots.to_bits()),
            p50_slots.map(f64::to_bits),
            p90_slots.map(f64::to_bits),
            p99_slots.map(f64::to_bits),
            Some(slot_us.to_bits()),
            Some(mean_us.to_bits()),
            Some(truncated_mass.to_bits()),
        ]
    }

    fn assert_walk_matches_reference(
        case: &str,
        config: &CsmaConfig,
        tau: f64,
        p: f64,
        n: usize,
        max_slots: usize,
    ) {
        let timing = MacTiming::paper_default();
        let got = delay_summary(config, tau, p, n, &timing, max_slots);
        let want = reference_summary(config, tau, p, n, &timing, max_slots);
        assert_eq!(
            summary_bits(&got),
            summary_bits(&want),
            "{case}: {got:?} vs reference {want:?}"
        );
    }

    /// Compare the walk with the reference on the input `screen_schedule`
    /// gives it: `p` and `τ` from the fixed point, `delay_walk_slots` of
    /// its mean delay as the bound. `None` when the solver fails.
    fn assert_screen_walk_matches_reference(
        case: &str,
        config: &CsmaConfig,
        n: usize,
    ) -> Option<()> {
        let solution = MeanFieldModel::single(config.clone(), n).solve().ok()?;
        let c = &solution.classes[0];
        let max_slots = delay_walk_slots(c.mean_access_delay_slots);
        assert_walk_matches_reference(case, config, c.tau, c.collision_probability, n, max_slots);
        Some(())
    }

    /// The CA1 baseline plus the 4-stage family the default boost space
    /// screens, `CW₀ ∈ {4…128}` × growth `g ∈ {1, 2, 4}` × deferral
    /// `{1901, aggressive, off}`, labelled as `plc-boost` labels them.
    fn screen_family() -> Vec<(String, CsmaConfig)> {
        let mut family = vec![("ca1-default".to_string(), ca1())];
        for cw0 in [4u32, 8, 16, 32, 64, 128] {
            for g in [1u32, 2, 4] {
                let cw: Vec<u32> = (0..4).map(|i| cw0 * g.pow(i)).collect();
                for (name, dc) in [
                    ("dc1901", [0, 1, 3, 15]),
                    ("dcaggr", [0, 0, 1, 3]),
                    ("dcoff", [DC_DISABLED; 4]),
                ] {
                    let config = CsmaConfig::from_vectors(&cw, &dc).unwrap();
                    family.push((format!("cw{cw0}-g{g}-{name}"), config));
                }
            }
        }
        family
    }

    #[test]
    fn walk_matches_the_reference_on_the_screen_inputs() {
        let family = screen_family();
        assert_eq!(family.len(), 55);
        for (label, config) in &family {
            for n in [5, 10, 15, 30] {
                assert_screen_walk_matches_reference(&format!("{label} n={n}"), config, n)
                    .unwrap_or_else(|| panic!("{label} n={n}: the screen's solve failed"));
            }
        }
    }

    #[test]
    fn walk_matches_the_reference_where_drained_stages_stick_subnormal() {
        // Its first three stages drain, and without the flush 98.6k of
        // the 100k walked slots carry a stage probability stuck at the
        // smallest subnormal, 4.9e-324.
        let config = CsmaConfig::from_vectors(&[4; 4], &[DC_DISABLED; 4]).unwrap();
        assert_screen_walk_matches_reference("cw4-g1-dcoff n=30", &config, 30).unwrap();
    }

    #[test]
    fn walk_matches_the_reference_when_the_cdf_lands_on_a_level() {
        // One stage of window 3 at p = 0 succeeds with hazard ½, so the
        // CDF is exactly 0.5 after the first slot: the median is that
        // slot only if a quantile counts the level as reached.
        let config = CsmaConfig::from_vectors(&[3], &[DC_DISABLED]).unwrap();
        let want = reference_summary(&config, 0.0, 0.0, 1, &MacTiming::paper_default(), 100);
        assert_eq!(want.p50_slots, Some(1.0));
        assert_walk_matches_reference("cw3 p=0", &config, 0.0, 0.0, 1, 100);
    }

    #[test]
    fn walk_matches_the_reference_on_random_schedules() {
        let mut rng = SmallRng::seed_from_u64(0xDE1A7);
        let mut compared = 0;
        for case in 0..40 {
            let stages = rng.gen_range(1..=6usize);
            let cw: Vec<u32> = (0..stages).map(|_| rng.gen_range(1..=256)).collect();
            let dc: Vec<u32> = (0..stages)
                .map(|_| {
                    if rng.gen_bool(0.25) {
                        DC_DISABLED
                    } else {
                        rng.gen_range(0..=31)
                    }
                })
                .collect();
            let n = rng.gen_range(1..=300usize);
            let config = CsmaConfig::from_vectors(&cw, &dc).unwrap();
            let case = format!("case {case}: cw {cw:?} dc {dc:?} n={n}");
            if assert_screen_walk_matches_reference(&case, &config, n).is_some() {
                compared += 1;
            }
        }
        assert!(compared >= 30, "only {compared} of 40 schedules solved");
    }

    #[test]
    fn walk_matches_the_reference_at_fixed_busy_probabilities() {
        let ps = [
            0.0f64, 0.001, 0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99,
            0.999,
        ];
        for (label, config) in [("CA1", ca1()), ("CA3", CsmaConfig::ieee1901_ca23())] {
            for p in ps {
                let n = 10;
                let tau = 1.0 - (1.0 - p).powf(1.0 / (n - 1) as f64);
                let case = format!("{label} p={p}");
                assert_walk_matches_reference(&case, &config, tau, p, n, 20_000);
                // The collector walks the same kernel: its CDF matches the
                // reference's slot for slot, and so does its PMF, except
                // that a success probability below `f64::MIN_POSITIVE`
                // may read zero.
                let got = access_delay_distribution(&config, p, 20_000);
                let want = reference_distribution(&config, p, 20_000);
                let bits = |d: &DelayDistribution| {
                    let cdf: Vec<(u64, u64)> = d
                        .cdf
                        .iter()
                        .map(|(t, c)| (t.to_bits(), c.to_bits()))
                        .collect();
                    (cdf, d.mean_slots.to_bits(), d.truncated_mass.to_bits())
                };
                assert!(bits(&got) == bits(&want), "{case}: distributions differ");
                for (t, (g, w)) in got.pmf.iter().zip(&want.pmf).enumerate() {
                    assert!(
                        g.to_bits() == w.to_bits() || (*g == 0.0 && w.abs() < f64::MIN_POSITIVE),
                        "{case}: pmf[{t}] = {g:e} vs reference {w:e}"
                    );
                }
            }
        }
    }

    #[test]
    fn solver_fixed_point_is_drift_equilibrium() {
        // The tentpole consistency check: the stationary occupancy the
        // fixed-point solver reports must sit (numerically) on a zero of
        // the drift field.
        for n in [2usize, 5, 20, 100] {
            let sol = MeanFieldModel::single(ca1(), n).solve().unwrap();
            let c = &sol.classes[0];
            let drift = DriftModel::new(ca1(), n).unwrap();
            let p = drift.consistent_busy(&c.stage_occupancy);
            assert!(
                (p - c.collision_probability).abs() < 1e-7,
                "N={n}: drift p={p:.8} vs solver p={:.8}",
                c.collision_probability
            );
            let d = drift.derivative(&c.stage_occupancy);
            for (i, v) in d.iter().enumerate() {
                assert!(
                    v.abs() < 1e-6,
                    "N={n}: dθ_{i}/dt = {v:.3e} at the solver fixed point"
                );
            }
        }
    }

    #[test]
    fn relaxation_reaches_the_fixed_point() {
        let n = 5;
        let sol = MeanFieldModel::single(ca1(), n).solve().unwrap();
        let drift = DriftModel::new(ca1(), n).unwrap();
        let eq = drift
            .relax(&drift.uniform_start(), 2.0, 1500, 1e-9)
            .unwrap();
        for (a, b) in eq.iter().zip(&sol.classes[0].stage_occupancy) {
            assert!((a - b).abs() < 1e-5, "relaxed {a:.8} vs solver {b:.8}");
        }
    }

    #[test]
    fn trajectory_conserves_mass_and_records_everything() {
        let drift = DriftModel::new(ca1(), 20).unwrap();
        let traj = drift.trajectory(&drift.fresh_start(), 1.0, 150);
        assert_eq!(traj.occupancy.len(), 151);
        assert_eq!(traj.tau.len(), 151);
        assert_eq!(traj.busy.len(), 151);
        for occ in &traj.occupancy {
            let total: f64 = occ.iter().sum();
            assert!((total - 1.0).abs() < 1e-9);
            assert!(occ.iter().all(|&v| v >= 0.0));
        }
        // A fresh-start population (everyone aggressive in stage 0)
        // initially sees a busier channel than at equilibrium, and the
        // transient decays toward the fixed point.
        let p_star =
            MeanFieldModel::single(ca1(), 20).solve().unwrap().classes[0].collision_probability;
        assert!(traj.busy[0] > p_star);
        let last = traj.busy.last().unwrap();
        assert!((last - p_star).abs() < 0.5 * (traj.busy[0] - p_star).abs());
    }

    #[test]
    fn lone_station_never_sees_busy_slots() {
        let drift = DriftModel::new(ca1(), 1).unwrap();
        assert_eq!(drift.consistent_busy(&drift.fresh_start()), 0.0);
    }

    #[test]
    fn delay_distribution_lone_station_is_geometric() {
        // p = 0: every stage-0 slot succeeds with hazard 1/(s₀+1) = 2/9,
        // so the delay is geometric with mean 4.5 slots.
        let dist = access_delay_distribution(&ca1(), 0.0, 4000);
        assert!(dist.truncated_mass < 1e-9);
        assert!((dist.mean_slots - 4.5).abs() < 1e-6, "{}", dist.mean_slots);
        // CDF is non-decreasing.
        for w in dist.cdf.windows(2) {
            assert!(w[1].1 >= w[0].1);
        }
    }

    #[test]
    fn delay_summary_quantiles_are_ordered() {
        let sol = MeanFieldModel::single(ca1(), 10).solve().unwrap();
        let c = &sol.classes[0];
        let timing = MacTiming::paper_default();
        let s = delay_summary(&ca1(), c.tau, c.collision_probability, 10, &timing, 20_000);
        let (p50, p90, p99) = (
            s.p50_slots.unwrap(),
            s.p90_slots.unwrap(),
            s.p99_slots.unwrap(),
        );
        assert!(p50 <= p90 && p90 <= p99);
        assert!(s.truncated_mass < 1e-6);
        assert!(
            s.mean_us > s.mean_slots * timing.slot.as_micros(),
            "busy slots stretch time"
        );
        // The DTMC mean matches the renewal cycle length from the solver.
        assert!(
            (s.mean_slots - c.mean_access_delay_slots).abs() / c.mean_access_delay_slots < 0.01,
            "DTMC mean {} vs renewal cycle {}",
            s.mean_slots,
            c.mean_access_delay_slots
        );
    }

    #[test]
    fn zero_stations_rejected() {
        assert!(DriftModel::new(ca1(), 0).is_err());
    }

    #[test]
    fn relax_timeout_is_typed() {
        let drift = DriftModel::new(ca1(), 50).unwrap();
        let err = drift
            .relax(&drift.fresh_start(), 0.1, 1, 1e-14)
            .unwrap_err();
        assert!(matches!(err, Error::Runtime { .. }));
    }
}

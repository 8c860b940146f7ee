//! Numerical building blocks for the analytical models.
//!
//! The 1901 decoupling-assumption model needs, per backoff stage, sums of
//! binomial CDFs over the whole contention window. The incremental
//! recurrences here keep that O(CW · d) with no factorials and no
//! catastrophic cancellation — exact enough for CW up to 2¹⁶ in `f64`.

/// Incremental tracker of `P(Bin(b, p) ≤ d)` as `b` grows one slot at a
/// time.
///
/// Maintains the probability mass `P(Bin(b,p) = k)` for `k = 0..=d` and the
/// CDF value. Update per step is O(d); the recurrences are
///
/// ```text
/// P(X_{b+1} = k) = (1-p)·P(X_b = k) + p·P(X_b = k-1)
/// P(X_{b+1} ≤ d) = P(X_b ≤ d) − p·P(X_b = d)
/// ```
#[derive(Debug, Clone)]
pub struct BinomialCdfTracker {
    p: f64,
    /// pmf[k] = P(Bin(b, p) = k) for the current b.
    pmf: Vec<f64>,
    cdf: f64,
    b: u64,
}

impl BinomialCdfTracker {
    /// Start at `b = 0`: `P(Bin(0,p) ≤ d) = 1`, all mass at 0.
    ///
    /// `p` must be a probability; `d` is the CDF threshold.
    pub fn new(p: f64, d: u32) -> Self {
        assert!((0.0..=1.0).contains(&p), "p must be a probability, got {p}");
        let mut pmf = vec![0.0; d as usize + 1];
        pmf[0] = 1.0;
        BinomialCdfTracker {
            p,
            pmf,
            cdf: 1.0,
            b: 0,
        }
    }

    /// Current `b`.
    pub fn b(&self) -> u64 {
        self.b
    }

    /// Current CDF value `P(Bin(b, p) ≤ d)`.
    pub fn cdf(&self) -> f64 {
        self.cdf.clamp(0.0, 1.0)
    }

    /// Advance `b → b + 1`.
    pub fn step(&mut self) {
        let d = self.pmf.len() - 1;
        // CDF update uses the pre-step pmf at k = d.
        self.cdf -= self.p * self.pmf[d];
        // pmf update, in place from the bottom up: `below` carries the
        // pre-step pmf[k − 1]. No loop-carried arithmetic and a hoisted
        // 1 − p let LLVM vectorize it; each element is the same
        // `(1 − p)·pmf[k] + p·pmf[k − 1]`, in that operand order and
        // without a fused multiply-add, so every bit is kept.
        let (p, q) = (self.p, 1.0 - self.p);
        let mut below = 0.0;
        for x in &mut self.pmf {
            let here = *x;
            *x = q * here + p * below;
            below = here;
        }
        self.b += 1;
    }
}

/// `P(Bin(n, p) ≤ d)` computed directly (convenience; O(n·d)).
pub fn binomial_cdf(n: u64, p: f64, d: u32) -> f64 {
    let mut t = BinomialCdfTracker::new(p, d);
    for _ in 0..n {
        t.step();
    }
    t.cdf()
}

/// `P(Bin(n, p) = k)` via the stable multiplicative recurrence.
pub fn binomial_pmf(n: u64, p: f64, k: u64) -> f64 {
    assert!((0.0..=1.0).contains(&p));
    if k > n {
        return 0.0;
    }
    if p == 0.0 {
        return if k == 0 { 1.0 } else { 0.0 };
    }
    if p == 1.0 {
        return if k == n { 1.0 } else { 0.0 };
    }
    // Work in log domain: ln C(n,k) + k ln p + (n-k) ln(1-p).
    let mut ln_c = 0.0f64;
    let k_small = k.min(n - k);
    for i in 0..k_small {
        ln_c += ((n - i) as f64).ln() - ((i + 1) as f64).ln();
    }
    (ln_c + k as f64 * p.ln() + (n - k) as f64 * (1.0 - p).ln()).exp()
}

/// Root of a continuous, strictly decreasing function `f` on `[lo, hi]` by
/// bisection; `f(lo) ≥ 0 ≥ f(hi)` is required (asserted loosely).
///
/// Runs a fixed 200 iterations, more than enough for `f64` resolution on a
/// unit interval; returns the midpoint.
pub fn bisect_decreasing(lo: f64, hi: f64, f: impl FnMut(f64) -> f64) -> f64 {
    bisect_decreasing_iters(lo, hi, 200, f)
}

/// [`bisect_decreasing`] with an explicit iteration budget.
///
/// The drift ODE solves a scalar consistency equation inside every
/// derivative evaluation; there a ~60-iteration budget (interval width
/// `2⁻⁶⁰` ≈ 1e−18) is plenty and keeps the integration cheap.
pub fn bisect_decreasing_iters(
    mut lo: f64,
    mut hi: f64,
    iters: u32,
    mut f: impl FnMut(f64) -> f64,
) -> f64 {
    assert!(lo < hi);
    let flo = f(lo);
    let fhi = f(hi);
    assert!(
        flo >= 0.0 && fhi <= 0.0,
        "bisect_decreasing needs a sign change: f({lo}) = {flo}, f({hi}) = {fhi}"
    );
    for _ in 0..iters {
        let mid = 0.5 * (lo + hi);
        if f(mid) >= 0.0 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracker_matches_direct_pmf_sums() {
        let p = 0.3;
        let d = 3;
        let mut t = BinomialCdfTracker::new(p, d);
        for b in 1..=40u64 {
            t.step();
            let direct: f64 = (0..=d as u64).map(|k| binomial_pmf(b, p, k)).sum();
            assert!(
                (t.cdf() - direct).abs() < 1e-12,
                "b={b}: tracker {} vs direct {direct}",
                t.cdf()
            );
        }
    }

    #[test]
    fn cdf_edge_cases() {
        assert_eq!(binomial_cdf(0, 0.5, 0), 1.0);
        assert_eq!(binomial_cdf(10, 0.0, 0), 1.0);
        assert!((binomial_cdf(10, 1.0, 9) - 0.0).abs() < 1e-12);
        assert!((binomial_cdf(10, 1.0, 10) - 1.0).abs() < 1e-12);
        // P(Bin(4, 0.5) ≤ 2) = (1+4+6)/16
        assert!((binomial_cdf(4, 0.5, 2) - 11.0 / 16.0).abs() < 1e-12);
    }

    #[test]
    fn pmf_known_values() {
        assert!((binomial_pmf(4, 0.5, 2) - 6.0 / 16.0).abs() < 1e-12);
        assert!((binomial_pmf(10, 0.2, 0) - 0.8f64.powi(10)).abs() < 1e-12);
        assert_eq!(binomial_pmf(3, 0.4, 5), 0.0);
        assert_eq!(binomial_pmf(5, 0.0, 0), 1.0);
        assert_eq!(binomial_pmf(5, 1.0, 5), 1.0);
        // Large-n stability: sum over a window of k must stay ≤ 1.
        let s: f64 = (0..=60_000u64).map(|k| binomial_pmf(60_000, 0.1, k)).sum();
        assert!((s - 1.0).abs() < 1e-9);
    }

    #[test]
    fn pmf_symmetric() {
        for k in 0..=8u64 {
            assert!((binomial_pmf(8, 0.5, k) - binomial_pmf(8, 0.5, 8 - k)).abs() < 1e-14);
        }
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn tracker_rejects_bad_p() {
        BinomialCdfTracker::new(1.5, 0);
    }

    #[test]
    fn bisect_finds_root() {
        // f(x) = 0.5 − x, decreasing; root at 0.5.
        let r = bisect_decreasing(0.0, 1.0, |x| 0.5 - x);
        assert!((r - 0.5).abs() < 1e-12);
        // Nonlinear: e^(−x) − x has root ≈ 0.5671432904.
        let r2 = bisect_decreasing(0.0, 1.0, |x| (-x).exp() - x);
        assert!((r2 - 0.567143290409).abs() < 1e-10);
    }

    #[test]
    #[should_panic(expected = "sign change")]
    fn bisect_rejects_no_root() {
        bisect_decreasing(0.0, 1.0, |x| 1.0 + x);
    }
}

//! Quantiles of tabulated distributions.
//!
//! Analytic delay distributions come as a CDF tabulated per slot count;
//! [`quantile_from_cdf`] reads a quantile off such a table.

/// Quantile of a tabulated CDF: the smallest `x` whose cumulative
/// probability reaches `q`.
///
/// `points` is a non-decreasing list of `(x, P(X ≤ x))` pairs, the shape
/// analytic delay distributions come in (one point per slot count).
/// Returns `None` when the tabulated mass never reaches `q` — a
/// truncated distribution whose tail lies beyond the table.
///
/// ```
/// use plc_stats::quantile_from_cdf;
///
/// let cdf = [(1.0, 0.2), (2.0, 0.7), (3.0, 0.95)];
/// assert_eq!(quantile_from_cdf(&cdf, 0.5), Some(2.0));
/// assert_eq!(quantile_from_cdf(&cdf, 0.99), None);
/// ```
///
/// # Panics
///
/// If `q` is outside `(0, 1)`.
pub fn quantile_from_cdf(points: &[(f64, f64)], q: f64) -> Option<f64> {
    assert!(q > 0.0 && q < 1.0, "quantile must be in (0,1), got {q}");
    points.iter().find(|&&(_, cdf)| cdf >= q).map(|&(x, _)| x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_quantile_lookup() {
        let cdf = [(1.0, 0.25), (2.0, 0.5), (3.0, 0.75), (4.0, 1.0)];
        assert_eq!(quantile_from_cdf(&cdf, 0.1), Some(1.0));
        assert_eq!(quantile_from_cdf(&cdf, 0.25), Some(1.0));
        assert_eq!(quantile_from_cdf(&cdf, 0.26), Some(2.0));
        assert_eq!(quantile_from_cdf(&cdf, 0.999), Some(4.0));
        assert_eq!(quantile_from_cdf(&[], 0.5), None);
        assert_eq!(quantile_from_cdf(&[(1.0, 0.4)], 0.5), None);
    }

    #[test]
    #[should_panic(expected = "quantile must be in")]
    fn cdf_quantile_rejects_endpoint() {
        quantile_from_cdf(&[(1.0, 1.0)], 1.0);
    }
}

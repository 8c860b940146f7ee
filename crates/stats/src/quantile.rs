//! Streaming quantile estimation (the P² algorithm).
//!
//! Delay distributions need tail quantiles over millions of observations;
//! storing and sorting them is wasteful inside long simulations. Jain &
//! Chlamtac's P² algorithm (CACM 1985) tracks a single quantile with five
//! markers and O(1) work per observation, with parabolic interpolation of
//! marker heights — plenty accurate for p50–p99 experiment reporting.

use serde::{Deserialize, Serialize};

/// Streaming estimator of one quantile via the P² algorithm.
///
/// # Examples
///
/// ```
/// use plc_stats::P2Quantile;
///
/// let mut p95 = P2Quantile::new(0.95);
/// for k in 0..10_000 {
///     p95.push((k % 100) as f64);
/// }
/// assert!((p95.estimate() - 94.0).abs() < 2.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct P2Quantile {
    /// Target quantile in (0, 1).
    q: f64,
    /// Marker heights.
    heights: [f64; 5],
    /// Marker positions (1-based observation ranks).
    positions: [f64; 5],
    /// Desired marker positions.
    desired: [f64; 5],
    /// Desired-position increments per observation.
    increments: [f64; 5],
    /// Observations seen.
    count: u64,
    /// First five observations, collected before the markers initialize.
    warmup: Vec<f64>,
}

impl P2Quantile {
    /// Estimator for quantile `q` ∈ (0, 1).
    pub fn new(q: f64) -> Self {
        assert!(q > 0.0 && q < 1.0, "quantile must be in (0,1), got {q}");
        P2Quantile {
            q,
            heights: [0.0; 5],
            positions: [1.0, 2.0, 3.0, 4.0, 5.0],
            desired: [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0],
            increments: [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0],
            count: 0,
            warmup: Vec::with_capacity(5),
        }
    }

    /// The target quantile.
    pub fn quantile(&self) -> f64 {
        self.q
    }

    /// Observations seen so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Feed one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        if self.warmup.len() < 5 {
            // Insert in sorted order so estimate() indexes directly and
            // marker initialization needs no final sort.
            let pos = self.warmup.partition_point(|&w| w <= x);
            self.warmup.insert(pos, x);
            if self.warmup.len() == 5 {
                for (h, &w) in self.heights.iter_mut().zip(&self.warmup) {
                    *h = w;
                }
            }
            return;
        }

        // Find the cell and update extreme heights. The interior scan
        // takes the *largest* marker not exceeding x: with duplicate
        // heights (constant or near-constant streams) the textbook
        // half-open test `h[i] ≤ x < h[i+1]` can match nothing, and a
        // first-match scan then silently misfiles x into cell 0.
        let k = if x < self.heights[0] {
            self.heights[0] = x;
            0
        } else if x >= self.heights[4] {
            self.heights[4] = x;
            3
        } else {
            let mut cell = 0;
            for i in (0..4).rev() {
                if self.heights[i] <= x {
                    cell = i;
                    break;
                }
            }
            cell
        };

        for p in self.positions.iter_mut().skip(k + 1) {
            *p += 1.0;
        }
        for (d, inc) in self.desired.iter_mut().zip(&self.increments) {
            *d += inc;
        }

        // Adjust the three interior markers.
        for i in 1..4 {
            let d = self.desired[i] - self.positions[i];
            let right = self.positions[i + 1] - self.positions[i];
            let left = self.positions[i - 1] - self.positions[i];
            if (d >= 1.0 && right > 1.0) || (d <= -1.0 && left < -1.0) {
                let s = d.signum();
                let candidate = self.parabolic(i, s);
                let new_height =
                    if self.heights[i - 1] < candidate && candidate < self.heights[i + 1] {
                        candidate
                    } else {
                        self.linear(i, s)
                    };
                self.heights[i] = new_height;
                self.positions[i] += s;
            }
        }
    }

    fn parabolic(&self, i: usize, s: f64) -> f64 {
        let (qm, qi, qp) = (self.heights[i - 1], self.heights[i], self.heights[i + 1]);
        let (nm, ni, np) = (
            self.positions[i - 1],
            self.positions[i],
            self.positions[i + 1],
        );
        qi + s / (np - nm)
            * ((ni - nm + s) * (qp - qi) / (np - ni) + (np - ni - s) * (qi - qm) / (ni - nm))
    }

    fn linear(&self, i: usize, s: f64) -> f64 {
        let j = if s > 0.0 { i + 1 } else { i - 1 };
        self.heights[i]
            + s * (self.heights[j] - self.heights[i]) / (self.positions[j] - self.positions[i])
    }

    /// Absorb another estimator of the **same quantile** (e.g. one per
    /// worker of a parallel run).
    ///
    /// P² keeps five markers, not the observations, so an exact merge is
    /// impossible. This merge is the standard weighted-marker combine:
    /// the extreme markers take the true min/max, the three interior
    /// marker heights become count-weighted averages, interior marker
    /// positions (ranks) add, and the desired positions are recomputed
    /// for the combined count. If either side is still in warmup
    /// (fewer than five observations), its buffered values are simply
    /// replayed into the other side, which *is* exact.
    ///
    /// Determinism: merging is pairwise symmetric (IEEE addition and
    /// multiplication commute), but **not associative** — merging three
    /// or more estimators is pinned to the merge order. Callers that
    /// need reproducible output must merge in a fixed order.
    ///
    /// # Panics
    ///
    /// If the two estimators target different quantiles.
    pub fn merge_from(&mut self, other: &Self) {
        assert!(
            self.q == other.q,
            "cannot merge estimators of different quantiles ({} vs {})",
            self.q,
            other.q
        );
        if other.count == 0 {
            return;
        }
        // Either side still in warmup: replay its buffered observations
        // into the full (or larger) side — exact, no approximation.
        if other.warmup.len() < 5 {
            for &x in &other.warmup {
                self.push(x);
            }
            return;
        }
        if self.warmup.len() < 5 {
            let mine = std::mem::take(&mut self.warmup);
            *self = other.clone();
            for x in mine {
                self.push(x);
            }
            return;
        }
        let (wa, wb) = (self.count as f64, other.count as f64);
        let total = self.count + other.count;
        self.heights[0] = self.heights[0].min(other.heights[0]);
        self.heights[4] = self.heights[4].max(other.heights[4]);
        for i in 1..4 {
            self.heights[i] = (wa * self.heights[i] + wb * other.heights[i]) / (wa + wb);
        }
        // positions[0] is always rank 1 and positions[4] always the count;
        // interior ranks add (each approximates the number of observations
        // at or below its height).
        self.positions[4] = total as f64;
        for i in 1..4 {
            self.positions[i] += other.positions[i];
        }
        // Desired positions are a pure function of q and the count:
        // initial value plus (count − 5) increments.
        let initial = [
            1.0,
            1.0 + 2.0 * self.q,
            1.0 + 4.0 * self.q,
            3.0 + 2.0 * self.q,
            5.0,
        ];
        for (i, init) in initial.iter().enumerate() {
            self.desired[i] = init + (total - 5) as f64 * self.increments[i];
        }
        self.count = total;
    }

    /// Current estimate; falls back to the exact small-sample quantile
    /// while fewer than five observations have arrived. `NaN` when empty.
    pub fn estimate(&self) -> f64 {
        if self.count == 0 {
            return f64::NAN;
        }
        if self.warmup.len() < 5 {
            // The warmup buffer is kept sorted on insert; interpolate
            // linearly between the bracketing ranks (type-7) instead of
            // the biased nearest-rank rule.
            let h = (self.warmup.len() as f64 - 1.0) * self.q;
            let lo = h.floor() as usize;
            let hi = h.ceil() as usize;
            return self.warmup[lo] + (h - lo as f64) * (self.warmup[hi] - self.warmup[lo]);
        }
        self.heights[2]
    }
}

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
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn exact_quantile(mut v: Vec<f64>, q: f64) -> f64 {
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        v[((v.len() as f64 - 1.0) * q).round() as usize]
    }

    #[test]
    fn uniform_median() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut p2 = P2Quantile::new(0.5);
        for _ in 0..100_000 {
            p2.push(rng.gen::<f64>());
        }
        assert!(
            (p2.estimate() - 0.5).abs() < 0.01,
            "median {}",
            p2.estimate()
        );
    }

    #[test]
    fn exponential_p95() {
        let mut rng = SmallRng::seed_from_u64(2);
        let mut p2 = P2Quantile::new(0.95);
        let mut all = Vec::new();
        for _ in 0..200_000 {
            let u: f64 = rng.gen();
            let x = -(1.0f64 - u).ln();
            p2.push(x);
            all.push(x);
        }
        let exact = exact_quantile(all, 0.95);
        // True p95 of Exp(1) is ln(20) ≈ 2.9957.
        assert!((exact - 2.9957).abs() < 0.05);
        assert!(
            (p2.estimate() - exact).abs() / exact < 0.03,
            "P² {} vs exact {exact}",
            p2.estimate()
        );
    }

    #[test]
    fn small_samples_are_exact() {
        let mut p2 = P2Quantile::new(0.5);
        assert!(p2.estimate().is_nan());
        p2.push(3.0);
        assert_eq!(p2.estimate(), 3.0);
        p2.push(1.0);
        p2.push(2.0);
        assert_eq!(p2.estimate(), 2.0);
        assert_eq!(p2.count(), 3);
    }

    #[test]
    fn heavy_tail_p99() {
        // Pareto-ish: x = u^{-1/2}; p99 = 10.
        let mut rng = SmallRng::seed_from_u64(3);
        let mut p2 = P2Quantile::new(0.99);
        for _ in 0..300_000 {
            let u: f64 = rng.gen_range(1e-9..1.0);
            p2.push(u.powf(-0.5));
        }
        let est = p2.estimate();
        assert!((est - 10.0).abs() / 10.0 < 0.1, "p99 {est}");
    }

    #[test]
    fn constant_stream() {
        let mut p2 = P2Quantile::new(0.9);
        for _ in 0..1000 {
            p2.push(7.0);
        }
        assert_eq!(p2.estimate(), 7.0);
    }

    #[test]
    fn small_sample_interpolates_between_ranks() {
        // Regression for the nearest-rank bias: the old estimate() rounded
        // (n−1)·q to a rank, so the 2-sample median reported 3.0.
        let mut p2 = P2Quantile::new(0.5);
        p2.push(1.0);
        p2.push(3.0);
        assert_eq!(p2.estimate(), 2.0);
        // 4-sample p25 lands a quarter of the way from rank 0 to rank 1.
        let mut p25 = P2Quantile::new(0.25);
        for x in [4.0, 1.0, 3.0, 2.0] {
            p25.push(x);
        }
        assert!((p25.estimate() - 1.75).abs() < 1e-12, "{}", p25.estimate());
    }

    #[test]
    fn near_constant_stream_duplicate_heights() {
        // Regression for duplicate-height cell selection: a stream that is
        // almost all one value collapses several marker heights onto it,
        // and the old first-match scan misfiled in-range observations into
        // cell 0, dragging the estimate toward the minimum.
        let mut p2 = P2Quantile::new(0.5);
        let mut rng = SmallRng::seed_from_u64(4);
        for _ in 0..50_000 {
            let x = if rng.gen::<f64>() < 0.98 {
                7.0
            } else {
                7.0 + rng.gen::<f64>()
            };
            p2.push(x);
        }
        let est = p2.estimate();
        assert!((est - 7.0).abs() < 0.05, "median of ~98% sevens: {est}");
    }

    #[test]
    fn two_point_stream_duplicate_heights() {
        // Bernoulli stream: marker heights are all 0s and 1s (maximal
        // duplication). The median of a fair coin must stay inside [0, 1].
        let mut p2 = P2Quantile::new(0.5);
        let mut rng = SmallRng::seed_from_u64(5);
        for _ in 0..20_000 {
            p2.push(if rng.gen::<bool>() { 1.0 } else { 0.0 });
        }
        let est = p2.estimate();
        assert!((0.0..=1.0).contains(&est), "median {est}");
    }

    #[test]
    #[should_panic(expected = "quantile must be in")]
    fn rejects_bad_quantile() {
        P2Quantile::new(1.0);
    }

    #[test]
    fn merge_of_shards_tracks_exact_quantile() {
        // Four disjoint shards of one exponential stream, merged in
        // shard order, must land near the exact quantile of the union.
        let mut rng = SmallRng::seed_from_u64(11);
        let mut all = Vec::new();
        let mut shards: Vec<P2Quantile> = (0..4).map(|_| P2Quantile::new(0.95)).collect();
        for (k, shard) in shards.iter_mut().enumerate() {
            for _ in 0..50_000 + 7 * k {
                let u: f64 = rng.gen();
                let x = -(1.0f64 - u).ln();
                shard.push(x);
                all.push(x);
            }
        }
        let mut merged = shards[0].clone();
        for s in &shards[1..] {
            merged.merge_from(s);
        }
        assert_eq!(merged.count(), all.len() as u64);
        let exact = exact_quantile(all, 0.95);
        let est = merged.estimate();
        assert!(
            (est - exact).abs() / exact < 0.05,
            "merged {est} vs {exact}"
        );
    }

    #[test]
    fn merge_replays_warmup_sides_exactly() {
        // A shard still in warmup merges by replaying its observations —
        // the result is bit-identical to pushing them directly.
        let mut big = P2Quantile::new(0.5);
        let mut rng = SmallRng::seed_from_u64(12);
        for _ in 0..1000 {
            big.push(rng.gen::<f64>());
        }
        let mut expect = big.clone();
        let mut small = P2Quantile::new(0.5);
        for x in [0.25, 0.5, 0.75] {
            small.push(x);
        }
        // Warmup values replay in sorted-buffer order.
        for x in [0.25, 0.5, 0.75] {
            expect.push(x);
        }
        big.merge_from(&small);
        assert_eq!(big, expect);
        // And the mirror: warmup self absorbing a full other.
        let mut tiny = P2Quantile::new(0.5);
        tiny.push(0.5);
        tiny.merge_from(&expect);
        assert_eq!(tiny.count(), expect.count() + 1);
        assert!((tiny.estimate() - expect.estimate()).abs() < 0.1);
    }

    #[test]
    fn merge_is_pairwise_symmetric_and_deterministic() {
        let mut rng = SmallRng::seed_from_u64(13);
        let mut a = P2Quantile::new(0.9);
        let mut b = P2Quantile::new(0.9);
        for _ in 0..10_000 {
            a.push(rng.gen::<f64>());
            b.push(2.0 * rng.gen::<f64>());
        }
        let mut ab = a.clone();
        ab.merge_from(&b);
        let mut ba = b.clone();
        ba.merge_from(&a);
        // Pairwise merge commutes (IEEE + and × are commutative)…
        assert_eq!(ab.estimate().to_bits(), ba.estimate().to_bits());
        assert_eq!(ab.count(), ba.count());
        // …and repeating the same merge is bit-reproducible.
        let mut again = a.clone();
        again.merge_from(&b);
        assert_eq!(ab, again);
        // Merging an empty estimator is a no-op.
        let before = ab.clone();
        ab.merge_from(&P2Quantile::new(0.9));
        assert_eq!(ab, before);
    }

    #[test]
    #[should_panic(expected = "different quantiles")]
    fn merge_rejects_mismatched_quantiles() {
        let mut a = P2Quantile::new(0.5);
        a.merge_from(&P2Quantile::new(0.9));
    }

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

//! The Gaussian (normal) distribution and the paper's closed-form preceding
//! probability for Gaussian clock offsets.

use crate::erf::{std_normal_cdf, std_normal_inv_cdf, std_normal_pdf};
use rand::Rng;

/// A Gaussian distribution `N(mean, std_dev²)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gaussian {
    mean: f64,
    std_dev: f64,
}

impl Gaussian {
    /// The largest standard deviation a Gaussian may have, `√(f64::MAX / 2)`
    /// rounded down: `2σ²` stays finite, so a pair's spread
    /// `√(σ_i² + σ_j²)` is finite and the closed form's argument is never
    /// `∞/∞`.
    pub const MAX_STD_DEV: f64 = 9.480_751_908_109_176e153;

    /// Create a Gaussian with the given mean and standard deviation.
    ///
    /// # Panics
    ///
    /// Panics if `std_dev` is negative, NaN or above
    /// [`MAX_STD_DEV`](Self::MAX_STD_DEV), or `mean` is not finite. A standard
    /// deviation of exactly zero is allowed and models a perfectly
    /// synchronized clock (a degenerate point mass).
    pub fn new(mean: f64, std_dev: f64) -> Self {
        assert!(
            (0.0..=Self::MAX_STD_DEV).contains(&std_dev),
            "standard deviation must be finite with finite 2σ², and non-negative, got {std_dev}"
        );
        assert!(mean.is_finite(), "mean must be finite, got {mean}");
        Gaussian { mean, std_dev }
    }

    /// The nearest Gaussian [`new`](Self::new) admits, for parameters fitted
    /// from data that may overflow: `mean` saturated into the finite range
    /// (a NaN, the sum of overflows of both signs, taken as 0) and
    /// `std_dev` at [`MAX_STD_DEV`](Self::MAX_STD_DEV) (a NaN too).
    pub fn saturating(mean: f64, std_dev: f64) -> Self {
        let mean = if mean.is_nan() { 0.0 } else { mean.clamp(-f64::MAX, f64::MAX) };
        Gaussian::new(mean, std_dev.min(Self::MAX_STD_DEV))
    }

    /// The mean.
    #[inline]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// The standard deviation.
    #[inline]
    pub fn std_dev(&self) -> f64 {
        self.std_dev
    }

    /// The variance.
    #[inline]
    pub fn variance(&self) -> f64 {
        self.std_dev * self.std_dev
    }

    /// Probability density at `x`. A zero-variance Gaussian returns `0.0`
    /// everywhere except at the mean where the density is unbounded; callers
    /// working with degenerate clocks should use [`Gaussian::cdf`] instead.
    pub fn pdf(&self, x: f64) -> f64 {
        if self.std_dev == 0.0 {
            return if x == self.mean { f64::INFINITY } else { 0.0 };
        }
        std_normal_pdf((x - self.mean) / self.std_dev) / self.std_dev
    }

    /// Cumulative distribution function at `x`.
    pub fn cdf(&self, x: f64) -> f64 {
        if self.std_dev == 0.0 {
            return if x < self.mean { 0.0 } else { 1.0 };
        }
        std_normal_cdf((x - self.mean) / self.std_dev)
    }

    /// Quantile (inverse CDF) at probability `p ∈ (0, 1)`.
    pub fn quantile(&self, p: f64) -> f64 {
        if self.std_dev == 0.0 {
            return self.mean;
        }
        self.mean + self.std_dev * std_normal_inv_cdf(p)
    }

    /// Draw one sample using the Box–Muller transform.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        if self.std_dev == 0.0 {
            return self.mean;
        }
        self.mean + self.std_dev * sample_std_normal(rng)
    }

    /// Closed-form preceding probability of the paper, §3.2:
    ///
    /// `P(T*_i < T*_j | T_i, T_j) = Φ((T_j − T_i + μ_i − μ_j)/√(σ_i² + σ_j²))`
    ///
    /// where `self` is the offset distribution of the client that produced
    /// `t_i` and `other` the one that produced `t_j`. When both variances are
    /// zero the comparison is deterministic and the result is 0, 0.5 or 1.
    pub fn preceding_probability(&self, t_i: f64, other: &Gaussian, t_j: f64) -> f64 {
        let denom = (self.variance() + other.variance()).sqrt();
        let numer = t_j - t_i + self.mean - other.mean;
        if denom == 0.0 {
            return if numer > 0.0 {
                1.0
            } else if numer < 0.0 {
                0.0
            } else {
                0.5
            };
        }
        std_normal_cdf(numer / denom)
    }

    /// [`preceding_probability`](Self::preceding_probability) expressed in
    /// the timestamp *delta* `dt = T_i − T_j` — the only way the timestamps
    /// enter the closed form. Bit-identical to the two-timestamp version:
    /// the numerator `T_j − T_i + μ_i − μ_j` is computed as
    /// `((−dt) + μ_i) − μ_j`, and IEEE 754 negation of a rounded difference
    /// is exact (`−fl(a − b) = fl(b − a)`), so every intermediate matches.
    ///
    /// This is the form the sequencing engines evaluate: a client *pair*
    /// fixes `(μ_i, μ_j, √(σ_i² + σ_j²))`, after which each query depends
    /// only on `dt`.
    pub fn preceding_probability_dt(&self, other: &Gaussian, dt: f64) -> f64 {
        let denom = (self.variance() + other.variance()).sqrt();
        let numer = -dt + self.mean - other.mean;
        if denom == 0.0 {
            return if numer > 0.0 {
                1.0
            } else if numer < 0.0 {
                0.0
            } else {
                0.5
            };
        }
        std_normal_cdf(numer / denom)
    }
}

/// Sample from the standard normal distribution via the Box–Muller transform.
pub fn sample_std_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Draw u1 in (0, 1] to avoid ln(0).
    let u1: f64 = 1.0 - rng.random::<f64>();
    let u2: f64 = rng.random::<f64>();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
impl Gaussian {
    /// The distribution of the difference `other − self` of two independent
    /// Gaussians (used for `Δθ = θ_j − θ_i`).
    pub(crate) fn difference(&self, other: &Gaussian) -> Gaussian {
        Gaussian::new(other.mean - self.mean, (self.variance() + other.variance()).sqrt())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn pdf_integrates_to_one() {
        let g = Gaussian::new(2.0, 3.0);
        let mut sum = 0.0;
        let step = 0.01;
        let mut x = -20.0;
        while x < 24.0 {
            sum += g.pdf(x) * step;
            x += step;
        }
        assert!((sum - 1.0).abs() < 1e-3, "integral = {sum}");
    }

    #[test]
    fn cdf_monotone_and_bounded() {
        let g = Gaussian::new(-1.0, 2.0);
        let mut prev = 0.0;
        for i in -100..=100 {
            let x = i as f64 * 0.1;
            let c = g.cdf(x);
            assert!(c >= prev - 1e-12);
            assert!((0.0..=1.0).contains(&c));
            prev = c;
        }
    }

    #[test]
    fn quantile_inverts_cdf() {
        let g = Gaussian::new(5.0, 0.7);
        for i in 1..100 {
            let p = i as f64 / 100.0;
            let x = g.quantile(p);
            assert!((g.cdf(x) - p).abs() < 1e-6);
        }
    }

    #[test]
    fn sampling_matches_moments() {
        let g = Gaussian::new(-3.0, 4.0);
        let mut rng = StdRng::seed_from_u64(7);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| g.sample(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - -3.0).abs() < 0.05, "mean = {mean}");
        assert!((var - 16.0).abs() < 0.3, "var = {var}");
    }

    #[test]
    fn difference_distribution() {
        let a = Gaussian::new(1.0, 3.0);
        let b = Gaussian::new(4.0, 4.0);
        let d = a.difference(&b);
        assert!((d.mean() - 3.0).abs() < 1e-12);
        assert!((d.variance() - 25.0).abs() < 1e-12);
    }

    #[test]
    fn preceding_probability_equal_timestamps_equal_clocks() {
        let g = Gaussian::new(0.0, 5.0);
        let p = g.preceding_probability(100.0, &g, 100.0);
        assert!((p - 0.5).abs() < 1e-6);
    }

    #[test]
    fn preceding_probability_moves_with_gap() {
        let g = Gaussian::new(0.0, 5.0);
        // j's timestamp 10 units later: likely i precedes j.
        let p = g.preceding_probability(100.0, &g, 110.0);
        assert!(p > 0.9, "p = {p}");
        // Reverse the gap.
        let q = g.preceding_probability(110.0, &g, 100.0);
        assert!((p + q - 1.0).abs() < 1e-9);
    }

    #[test]
    fn preceding_probability_accounts_for_means() {
        // Client i runs 10 units ahead (mean offset -10 corrects it back),
        // so equal raw timestamps mean i actually happened later.
        let gi = Gaussian::new(-10.0, 1.0);
        let gj = Gaussian::new(0.0, 1.0);
        let p = gi.preceding_probability(100.0, &gj, 100.0);
        assert!(p < 0.01, "p = {p}");
    }

    #[test]
    fn degenerate_zero_variance_is_deterministic() {
        let g = Gaussian::new(0.0, 0.0);
        assert_eq!(g.preceding_probability(1.0, &g, 2.0), 1.0);
        assert_eq!(g.preceding_probability(2.0, &g, 1.0), 0.0);
        assert_eq!(g.preceding_probability(1.0, &g, 1.0), 0.5);
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(g.sample(&mut rng), 0.0);
        assert_eq!(g.quantile(0.9), 0.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_std_dev_rejected() {
        Gaussian::new(0.0, -1.0);
    }

    #[test]
    #[should_panic(expected = "finite 2σ²")]
    fn std_dev_past_the_bound_rejected() {
        Gaussian::new(0.0, Gaussian::MAX_STD_DEV.next_up());
    }

    /// At the bound `2σ²` is finite, so the closed form is never `∞/∞`: an
    /// overflowing numerator gives `Φ(±∞) ∈ {0, 1}`, never NaN.
    #[test]
    fn closed_form_at_the_bound_is_a_number() {
        let wide = Gaussian::new(0.0, Gaussian::MAX_STD_DEV);
        assert!((2.0 * wide.variance()).is_finite());
        assert_eq!(wide.preceding_probability_dt(&wide, f64::INFINITY), 0.0);
        assert_eq!(wide.preceding_probability_dt(&wide, f64::NEG_INFINITY), 1.0);
        assert_eq!(wide.preceding_probability(-1e308, &wide, 1e308), 1.0);
        let (high, low) = (Gaussian::new(1e308, 1.0), Gaussian::new(-1e308, 1.0));
        assert_eq!(high.preceding_probability(0.0, &low, 0.0), 1.0);
        assert_eq!(low.preceding_probability(0.0, &high, 0.0), 0.0);
    }

    #[test]
    fn saturating_clamps_only_what_overflowed() {
        let g = Gaussian::saturating(2.0, 3.0);
        assert_eq!((g.mean(), g.std_dev()), (2.0, 3.0));
        let g = Gaussian::saturating(f64::INFINITY, f64::INFINITY);
        assert_eq!((g.mean(), g.std_dev()), (f64::MAX, Gaussian::MAX_STD_DEV));
        assert_eq!(Gaussian::saturating(f64::NEG_INFINITY, 1.0).mean(), -f64::MAX);
        let g = Gaussian::saturating(f64::NAN, f64::NAN);
        assert_eq!((g.mean(), g.std_dev()), (0.0, Gaussian::MAX_STD_DEV));
    }
}

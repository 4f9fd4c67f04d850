//! Clock-offset distribution families.
//!
//! The paper's system model (§3.1) assigns every client `i` a clock-offset
//! random variable `θ_i ~ f_{θ_i}` relative to the sequencer's clock.
//! Different clients have different distributions ("heterogeneous
//! synchronization conditions"), and §3.3 stresses that real offsets can be
//! skewed and long-tailed rather than Gaussian. This module provides the
//! [`Distribution`] trait plus the concrete families used throughout the
//! repository:
//!
//! * [`Gaussian`] — the baseline of §3.2 with the
//!   closed-form preceding probability;
//! * [`OffsetDistribution::Uniform`] — bounded offsets;
//! * [`OffsetDistribution::Laplace`] — sharper peak, heavier tails;
//! * [`OffsetDistribution::ShiftedExponential`] — one-sided asymmetric path
//!   delays;
//! * [`OffsetDistribution::ShiftedLogNormal`] — the "Gaussian-like but with a
//!   long tail and skewed behaviour" shape reported by \[27\] in the paper;
//! * [`OffsetDistribution::Mixture`] — e.g. a bimodal mixture modelling a
//!   client that flips between two synchronization regimes (temperature
//!   excursions, path changes);
//! * [`OffsetDistribution::Empirical`] — a kernel-density estimate learned
//!   from raw synchronization probes.

use crate::gaussian::Gaussian;
use crate::kde::KernelDensity;
use crate::quantile::bisect_increasing;
use rand::Rng;
use rand::RngCore;

/// A univariate continuous probability distribution, implemented by
/// [`Gaussian`] and [`OffsetDistribution`].
pub trait Distribution: std::fmt::Debug {
    /// Probability density at `x`.
    fn pdf(&self, x: f64) -> f64;

    /// Cumulative distribution at `x`.
    fn cdf(&self, x: f64) -> f64;

    /// Mean.
    fn mean(&self) -> f64;

    /// Variance.
    fn variance(&self) -> f64;

    /// Effective support `[lo, hi]` containing (essentially) all probability
    /// mass; used to choose discretization grids.
    fn support(&self) -> (f64, f64);

    /// Draw one sample.
    fn sample(&self, rng: &mut dyn RngCore) -> f64;

    /// Standard deviation.
    fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Quantile at probability `p ∈ (0, 1)`; the default implementation
    /// bisects the CDF over the effective support
    /// ([`bisect_cdf_quantile`]).
    fn quantile(&self, p: f64) -> f64 {
        assert!(p > 0.0 && p < 1.0, "quantile requires p in (0,1), got {p}");
        bisect_cdf_quantile(self, p)
    }
}

/// Generic quantile by bisecting a distribution's CDF over its effective
/// support — the shared fallback for families without a closed-form
/// inverse (the [`Distribution`] trait default and the mixture/empirical
/// arms of [`OffsetDistribution::quantile`]).
pub fn bisect_cdf_quantile<D: Distribution + ?Sized>(d: &D, p: f64) -> f64 {
    let (lo, hi) = d.support();
    let span = (hi - lo).max(1e-12);
    bisect_increasing(|x| d.cdf(x), lo, hi, p, span * 1e-10).unwrap_or(hi)
}

impl Distribution for Gaussian {
    fn pdf(&self, x: f64) -> f64 {
        Gaussian::pdf(self, x)
    }
    fn cdf(&self, x: f64) -> f64 {
        Gaussian::cdf(self, x)
    }
    fn mean(&self) -> f64 {
        Gaussian::mean(self)
    }
    fn variance(&self) -> f64 {
        Gaussian::variance(self)
    }
    fn support(&self) -> (f64, f64) {
        let spread = 8.0 * self.std_dev().max(1e-9);
        (Gaussian::mean(self) - spread, Gaussian::mean(self) + spread)
    }
    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        Gaussian::sample(self, rng)
    }
    fn quantile(&self, p: f64) -> f64 {
        Gaussian::quantile(self, p)
    }
}

/// A clonable clock-offset distribution drawn from the families described in
/// the module documentation.
#[derive(Debug, Clone, PartialEq)]
pub enum OffsetDistribution {
    /// Gaussian offsets `N(mean, std_dev²)` (§3.2 of the paper).
    Gaussian(Gaussian),
    /// Uniform offsets over `[lo, hi]`.
    Uniform {
        /// Lower bound.
        lo: f64,
        /// Upper bound (must exceed `lo`).
        hi: f64,
    },
    /// Laplace (double-exponential) offsets with the given location and scale.
    Laplace {
        /// Location (mean and median).
        location: f64,
        /// Scale `b > 0`; variance is `2b²`.
        scale: f64,
    },
    /// Exponential offsets shifted to start at `location` with the given
    /// `rate` (`λ > 0`): models one-sided asymmetric path delay.
    ShiftedExponential {
        /// Left edge of the support.
        location: f64,
        /// Rate `λ`; mean is `location + 1/λ`.
        rate: f64,
    },
    /// A log-normal shifted so its support starts at `shift`: Gaussian-like
    /// body with a long right tail and positive skew.
    ShiftedLogNormal {
        /// Left edge of the support.
        shift: f64,
        /// Mean of the underlying normal (of `ln(x − shift)`).
        mu: f64,
        /// Std-dev of the underlying normal; larger values mean heavier tails.
        sigma: f64,
    },
    /// A finite mixture of component distributions with the given weights.
    Mixture(Vec<(f64, OffsetDistribution)>),
    /// A kernel-density estimate learned from raw offset samples.
    Empirical(KernelDensity),
}

impl OffsetDistribution {
    /// Convenience constructor for Gaussian offsets.
    pub fn gaussian(mean: f64, std_dev: f64) -> Self {
        OffsetDistribution::Gaussian(Gaussian::new(mean, std_dev))
    }

    /// Convenience constructor for uniform offsets.
    ///
    /// # Panics
    ///
    /// Panics if `hi <= lo`.
    pub fn uniform(lo: f64, hi: f64) -> Self {
        assert!(hi > lo, "uniform needs hi > lo, got [{lo}, {hi}]");
        OffsetDistribution::Uniform { lo, hi }
    }

    /// Convenience constructor for Laplace offsets.
    ///
    /// # Panics
    ///
    /// Panics if `scale <= 0`.
    pub fn laplace(location: f64, scale: f64) -> Self {
        assert!(scale > 0.0, "Laplace scale must be positive, got {scale}");
        OffsetDistribution::Laplace { location, scale }
    }

    /// Convenience constructor for a shifted exponential.
    ///
    /// # Panics
    ///
    /// Panics if `rate <= 0`.
    pub fn shifted_exponential(location: f64, rate: f64) -> Self {
        assert!(rate > 0.0, "exponential rate must be positive, got {rate}");
        OffsetDistribution::ShiftedExponential { location, rate }
    }

    /// Convenience constructor for a shifted log-normal.
    ///
    /// # Panics
    ///
    /// Panics if `sigma <= 0`.
    pub fn shifted_log_normal(shift: f64, mu: f64, sigma: f64) -> Self {
        assert!(sigma > 0.0, "log-normal sigma must be positive, got {sigma}");
        OffsetDistribution::ShiftedLogNormal { shift, mu, sigma }
    }

    /// Convenience constructor for a two-component Gaussian mixture — the
    /// canonical "mostly well synchronized, occasionally way off" clock.
    pub fn bimodal_gaussian(
        weight_a: f64,
        a: Gaussian,
        b: Gaussian,
    ) -> Self {
        assert!(
            (0.0..=1.0).contains(&weight_a),
            "mixture weight must be in [0,1], got {weight_a}"
        );
        OffsetDistribution::Mixture(vec![
            (weight_a, OffsetDistribution::Gaussian(a)),
            (1.0 - weight_a, OffsetDistribution::Gaussian(b)),
        ])
    }

    /// Build an empirical distribution (KDE) from raw offset samples.
    pub fn empirical(samples: &[f64]) -> Self {
        OffsetDistribution::Empirical(KernelDensity::new(samples))
    }

    /// Returns `true` when this distribution is Gaussian, enabling the paper's
    /// closed-form preceding probability and the transitivity guarantee of
    /// Appendix A.
    pub fn is_gaussian(&self) -> bool {
        matches!(self, OffsetDistribution::Gaussian(_))
    }

    /// Returns the Gaussian parameters if this distribution is Gaussian.
    pub fn as_gaussian(&self) -> Option<&Gaussian> {
        match self {
            OffsetDistribution::Gaussian(g) => Some(g),
            _ => None,
        }
    }

    fn mixture_normalizer(components: &[(f64, OffsetDistribution)]) -> f64 {
        let total: f64 = components.iter().map(|(w, _)| *w).sum();
        assert!(total > 0.0, "mixture weights must sum to a positive value");
        total
    }
}

impl Distribution for OffsetDistribution {
    fn pdf(&self, x: f64) -> f64 {
        match self {
            OffsetDistribution::Gaussian(g) => g.pdf(x),
            OffsetDistribution::Uniform { lo, hi } => {
                if x >= *lo && x <= *hi {
                    1.0 / (hi - lo)
                } else {
                    0.0
                }
            }
            OffsetDistribution::Laplace { location, scale } => {
                (-((x - location).abs()) / scale).exp() / (2.0 * scale)
            }
            OffsetDistribution::ShiftedExponential { location, rate } => {
                if x < *location {
                    0.0
                } else {
                    rate * (-(x - location) * rate).exp()
                }
            }
            OffsetDistribution::ShiftedLogNormal { shift, mu, sigma } => {
                let y = x - shift;
                if y <= 0.0 {
                    0.0
                } else {
                    let z = (y.ln() - mu) / sigma;
                    (-0.5 * z * z).exp() / (y * sigma * (2.0 * std::f64::consts::PI).sqrt())
                }
            }
            OffsetDistribution::Mixture(components) => {
                let norm = OffsetDistribution::mixture_normalizer(components);
                components
                    .iter()
                    .map(|(w, d)| w * d.pdf(x))
                    .sum::<f64>()
                    / norm
            }
            OffsetDistribution::Empirical(kde) => kde.pdf(x),
        }
    }

    fn cdf(&self, x: f64) -> f64 {
        match self {
            OffsetDistribution::Gaussian(g) => g.cdf(x),
            OffsetDistribution::Uniform { lo, hi } => {
                if x < *lo {
                    0.0
                } else if x > *hi {
                    1.0
                } else {
                    (x - lo) / (hi - lo)
                }
            }
            OffsetDistribution::Laplace { location, scale } => {
                if x < *location {
                    0.5 * ((x - location) / scale).exp()
                } else {
                    1.0 - 0.5 * (-(x - location) / scale).exp()
                }
            }
            OffsetDistribution::ShiftedExponential { location, rate } => {
                if x < *location {
                    0.0
                } else {
                    1.0 - (-(x - location) * rate).exp()
                }
            }
            OffsetDistribution::ShiftedLogNormal { shift, mu, sigma } => {
                let y = x - shift;
                if y <= 0.0 {
                    0.0
                } else {
                    crate::erf::std_normal_cdf((y.ln() - mu) / sigma)
                }
            }
            OffsetDistribution::Mixture(components) => {
                let norm = OffsetDistribution::mixture_normalizer(components);
                components
                    .iter()
                    .map(|(w, d)| w * d.cdf(x))
                    .sum::<f64>()
                    / norm
            }
            OffsetDistribution::Empirical(kde) => kde.cdf(x),
        }
    }

    fn mean(&self) -> f64 {
        match self {
            OffsetDistribution::Gaussian(g) => Gaussian::mean(g),
            OffsetDistribution::Uniform { lo, hi } => 0.5 * (lo + hi),
            OffsetDistribution::Laplace { location, .. } => *location,
            OffsetDistribution::ShiftedExponential { location, rate } => location + 1.0 / rate,
            OffsetDistribution::ShiftedLogNormal { shift, mu, sigma } => {
                shift + (mu + 0.5 * sigma * sigma).exp()
            }
            OffsetDistribution::Mixture(components) => {
                let norm = OffsetDistribution::mixture_normalizer(components);
                components
                    .iter()
                    .map(|(w, d)| w * d.mean())
                    .sum::<f64>()
                    / norm
            }
            OffsetDistribution::Empirical(kde) => kde.mean(),
        }
    }

    fn variance(&self) -> f64 {
        match self {
            OffsetDistribution::Gaussian(g) => Gaussian::variance(g),
            OffsetDistribution::Uniform { lo, hi } => (hi - lo).powi(2) / 12.0,
            OffsetDistribution::Laplace { scale, .. } => 2.0 * scale * scale,
            OffsetDistribution::ShiftedExponential { rate, .. } => 1.0 / (rate * rate),
            OffsetDistribution::ShiftedLogNormal { mu, sigma, .. } => {
                let s2 = sigma * sigma;
                (s2.exp() - 1.0) * (2.0 * mu + s2).exp()
            }
            OffsetDistribution::Mixture(components) => {
                let norm = OffsetDistribution::mixture_normalizer(components);
                let mean = self.mean();
                components
                    .iter()
                    .map(|(w, d)| {
                        let dm = d.mean() - mean;
                        w * (d.variance() + dm * dm)
                    })
                    .sum::<f64>()
                    / norm
            }
            OffsetDistribution::Empirical(kde) => kde.variance(),
        }
    }

    fn support(&self) -> (f64, f64) {
        match self {
            OffsetDistribution::Gaussian(g) => Distribution::support(g),
            OffsetDistribution::Uniform { lo, hi } => (*lo, *hi),
            OffsetDistribution::Laplace { location, scale } => {
                (location - 20.0 * scale, location + 20.0 * scale)
            }
            OffsetDistribution::ShiftedExponential { location, rate } => {
                (*location, location + 25.0 / rate)
            }
            OffsetDistribution::ShiftedLogNormal { shift, mu, sigma } => {
                (*shift, shift + (mu + 6.0 * sigma).exp())
            }
            OffsetDistribution::Mixture(components) => {
                let mut lo = f64::INFINITY;
                let mut hi = f64::NEG_INFINITY;
                for (_, d) in components {
                    let (a, b) = d.support();
                    lo = lo.min(a);
                    hi = hi.max(b);
                }
                (lo, hi)
            }
            OffsetDistribution::Empirical(kde) => kde.support(),
        }
    }

    /// Closed-form quantiles for every family that has one; only mixtures
    /// and empirical (KDE) distributions fall back to the trait's generic
    /// CDF bisection. The closed forms invert the exact CDFs above, so the
    /// results agree with the bisection to its tolerance while costing a
    /// few floating-point operations instead of ~40 CDF evaluations — this
    /// is the hot path of every safe-emission-time computation
    /// (`T^F = T − Q(1 − p_safe)`), which the online sequencer performs for
    /// each candidate-batch member on every pending-set change.
    fn quantile(&self, p: f64) -> f64 {
        assert!(p > 0.0 && p < 1.0, "quantile requires p in (0,1), got {p}");
        match self {
            OffsetDistribution::Gaussian(g) => g.quantile(p),
            OffsetDistribution::Uniform { lo, hi } => lo + p * (hi - lo),
            OffsetDistribution::Laplace { location, scale } => {
                if p < 0.5 {
                    location + scale * (2.0 * p).ln()
                } else {
                    location - scale * (2.0 * (1.0 - p)).ln()
                }
            }
            OffsetDistribution::ShiftedExponential { location, rate } => {
                location - (1.0 - p).ln() / rate
            }
            OffsetDistribution::ShiftedLogNormal { shift, mu, sigma } => {
                shift + (mu + sigma * crate::erf::std_normal_inv_cdf(p)).exp()
            }
            OffsetDistribution::Mixture(_) | OffsetDistribution::Empirical(_) => {
                bisect_cdf_quantile(self, p)
            }
        }
    }

    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        match self {
            OffsetDistribution::Gaussian(g) => g.sample(rng),
            OffsetDistribution::Uniform { lo, hi } => lo + (hi - lo) * rng.random::<f64>(),
            OffsetDistribution::Laplace { location, scale } => {
                let u: f64 = rng.random::<f64>() - 0.5;
                location - scale * u.signum() * (1.0 - 2.0 * u.abs()).max(f64::MIN_POSITIVE).ln()
            }
            OffsetDistribution::ShiftedExponential { location, rate } => {
                let u: f64 = 1.0 - rng.random::<f64>();
                location - u.ln() / rate
            }
            OffsetDistribution::ShiftedLogNormal { shift, mu, sigma } => {
                let z = crate::gaussian::sample_std_normal(rng);
                shift + (mu + sigma * z).exp()
            }
            OffsetDistribution::Mixture(components) => {
                let norm = OffsetDistribution::mixture_normalizer(components);
                let mut pick = rng.random::<f64>() * norm;
                for (w, d) in components {
                    if pick < *w {
                        return d.sample(rng);
                    }
                    pick -= w;
                }
                components
                    .last()
                    .expect("non-empty mixture")
                    .1
                    .sample(rng)
            }
            OffsetDistribution::Empirical(kde) => {
                // Smooth bootstrap: resample a point and add kernel noise.
                let idx = (rng.random::<f64>() * kde.len() as f64) as usize;
                let idx = idx.min(kde.len() - 1);
                kde.sample_at(idx) + kde.bandwidth() * crate::gaussian::sample_std_normal(rng)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::integrate::simpson;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn check_pdf_integrates_to_one(d: &OffsetDistribution) {
        let (lo, hi) = d.support();
        let integral = simpson(|x| d.pdf(x), lo, hi, 20_000);
        assert!(
            (integral - 1.0).abs() < 5e-3,
            "{d:?}: pdf integral = {integral}"
        );
    }

    fn check_cdf_consistent_with_pdf(d: &OffsetDistribution) {
        let (lo, hi) = d.support();
        for frac in [0.2, 0.4, 0.6, 0.8] {
            let x = lo + frac * (hi - lo);
            let integral = simpson(|t| d.pdf(t), lo, x, 20_000);
            let cdf = d.cdf(x) - d.cdf(lo);
            assert!(
                (integral - cdf).abs() < 5e-3,
                "{d:?}: at {x} integral {integral} vs cdf {cdf}"
            );
        }
    }

    fn check_sampling_matches_moments(d: &OffsetDistribution, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = 100_000;
        let samples: Vec<f64> = (0..n).map(|_| d.sample(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        let tol_mean = 0.05 * d.std_dev().max(0.1);
        let tol_var = 0.1 * d.variance().max(0.1);
        assert!(
            (mean - d.mean()).abs() < tol_mean,
            "{d:?}: sample mean {mean} vs {}",
            d.mean()
        );
        assert!(
            (var - d.variance()).abs() < tol_var,
            "{d:?}: sample var {var} vs {}",
            d.variance()
        );
    }

    fn all_families() -> Vec<OffsetDistribution> {
        vec![
            OffsetDistribution::gaussian(2.0, 3.0),
            OffsetDistribution::uniform(-4.0, 6.0),
            OffsetDistribution::laplace(1.0, 2.0),
            OffsetDistribution::shifted_exponential(-2.0, 0.5),
            OffsetDistribution::shifted_log_normal(-1.0, 1.0, 0.4),
            OffsetDistribution::bimodal_gaussian(
                0.7,
                Gaussian::new(0.0, 1.0),
                Gaussian::new(15.0, 4.0),
            ),
        ]
    }

    #[test]
    fn pdfs_integrate_to_one() {
        for d in all_families() {
            check_pdf_integrates_to_one(&d);
        }
    }

    #[test]
    fn cdfs_consistent_with_pdfs() {
        for d in all_families() {
            check_cdf_consistent_with_pdf(&d);
        }
    }

    #[test]
    fn sampling_matches_analytic_moments() {
        for (i, d) in all_families().into_iter().enumerate() {
            check_sampling_matches_moments(&d, 100 + i as u64);
        }
    }

    #[test]
    fn quantile_inverts_cdf_for_all_families() {
        for d in all_families() {
            for p in [0.05, 0.25, 0.5, 0.75, 0.95] {
                let x = d.quantile(p);
                assert!(
                    (d.cdf(x) - p).abs() < 1e-4,
                    "{d:?}: quantile({p}) = {x}, cdf back = {}",
                    d.cdf(x)
                );
            }
        }
    }

    #[test]
    fn closed_form_quantiles_match_generic_bisection() {
        // Reference: the generic CDF bisection — what every family went
        // through before the closed forms landed.
        for d in all_families() {
            for p in [0.001, 0.05, 0.25, 0.5, 0.75, 0.95, 0.999] {
                let fast = d.quantile(p);
                let slow = bisect_cdf_quantile(&d, p);
                let tol = 1e-6 * d.std_dev().max(1.0);
                assert!(
                    (fast - slow).abs() < tol,
                    "{d:?} p={p}: closed form {fast} vs bisection {slow}"
                );
            }
        }
    }

    #[test]
    fn mixture_mean_and_variance_formula() {
        let d = OffsetDistribution::bimodal_gaussian(
            0.5,
            Gaussian::new(-10.0, 1.0),
            Gaussian::new(10.0, 1.0),
        );
        assert!((d.mean() - 0.0).abs() < 1e-12);
        // var = E[var] + var of means = 1 + 100
        assert!((d.variance() - 101.0).abs() < 1e-9);
    }

    #[test]
    fn log_normal_is_right_skewed() {
        let d = OffsetDistribution::shifted_log_normal(0.0, 0.0, 0.8);
        // Mode < median < mean for a right-skewed distribution.
        let mean = d.mean();
        let median = d.quantile(0.5);
        assert!(median < mean, "median {median} should be below mean {mean}");
    }

    #[test]
    fn empirical_distribution_tracks_samples() {
        let g = Gaussian::new(5.0, 2.0);
        let mut rng = StdRng::seed_from_u64(3);
        let samples: Vec<f64> = (0..2000).map(|_| g.sample(&mut rng)).collect();
        let d = OffsetDistribution::empirical(&samples);
        assert!((d.mean() - 5.0).abs() < 0.2);
        assert!((d.cdf(5.0) - 0.5).abs() < 0.05);
        check_sampling_matches_moments(&d, 17);
    }

    #[test]
    fn gaussian_helpers() {
        let d = OffsetDistribution::gaussian(1.0, 2.0);
        assert!(d.is_gaussian());
        assert_eq!(d.as_gaussian().unwrap().mean(), 1.0);
        assert!(!OffsetDistribution::uniform(0.0, 1.0).is_gaussian());
    }

    #[test]
    #[should_panic(expected = "hi > lo")]
    fn invalid_uniform_rejected() {
        OffsetDistribution::uniform(1.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn invalid_laplace_rejected() {
        OffsetDistribution::laplace(0.0, 0.0);
    }
}

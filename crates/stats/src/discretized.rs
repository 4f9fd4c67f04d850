//! Grid-discretized probability density functions.
//!
//! §3.3 of the paper: when clock offsets are not Gaussian "we must estimate
//! the PDF f_Δθ for each pair of clients to compute the preceding
//! probabilities". The sequencer receives each client's offset distribution,
//! discretizes it onto a uniform grid, convolves pairs of grids (see
//! [`crate::convolution`]) and integrates tails. [`DiscretizedPdf`] is that
//! grid representation.

use crate::distribution::Distribution;
use crate::integrate::trapezoid_uniform;
use crate::quantile::first_at_least;

/// A probability density sampled on a uniform grid.
///
/// The density value at grid point `i` corresponds to `x = lo + i * step`.
/// The represented distribution is the piecewise-linear interpolation of the
/// grid values, normalized to integrate to one.
///
/// A cumulative prefix array is precomputed at construction, so
/// [`cdf`](DiscretizedPdf::cdf) / [`tail`](DiscretizedPdf::tail) are O(1)
/// and [`quantile`](DiscretizedPdf::quantile) is O(log n) — the hot
/// operations of every non-Gaussian precedence query and safe-emission-time
/// computation cost a lookup instead of an O(grid) re-integration.
#[derive(Debug, Clone, PartialEq)]
pub struct DiscretizedPdf {
    lo: f64,
    step: f64,
    densities: Vec<f64>,
    /// `cum[i]` is the trapezoid integral of the density from `lo` to
    /// `x_at(i)`, accumulated cell-by-cell in index order (so it is exactly
    /// the value the pre-prefix-array implementation computed per call).
    cum: Vec<f64>,
}

impl DiscretizedPdf {
    /// Create a discretized PDF from raw grid values.
    ///
    /// Values are clamped to be non-negative and normalized to unit mass.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two points are supplied, `step <= 0`, or the
    /// total mass is zero.
    pub fn from_raw(lo: f64, step: f64, densities: Vec<f64>) -> Self {
        assert!(densities.len() >= 2, "need at least two grid points");
        assert!(step > 0.0 && step.is_finite(), "invalid step {step}");
        assert!(lo.is_finite(), "invalid lower bound {lo}");
        let mut pdf = DiscretizedPdf {
            lo,
            step,
            densities: densities.into_iter().map(|v| v.max(0.0)).collect(),
            cum: Vec::new(),
        };
        pdf.normalize();
        pdf
    }

    /// Discretize an analytic distribution onto `points` grid points spanning
    /// its effective support.
    pub fn from_distribution(dist: &dyn Distribution, points: usize) -> Self {
        assert!(points >= 2, "need at least two grid points");
        let (lo, hi) = dist.support();
        assert!(hi > lo, "distribution support must be non-degenerate");
        let step = (hi - lo) / (points - 1) as f64;
        let densities: Vec<f64> = (0..points)
            .map(|i| dist.pdf(lo + i as f64 * step))
            .collect();
        DiscretizedPdf::from_raw(lo, step, densities)
    }

    fn normalize(&mut self) {
        let mass = trapezoid_uniform(&self.densities, self.step);
        assert!(
            mass > 0.0,
            "cannot normalize a PDF with zero total mass (lo={}, step={})",
            self.lo,
            self.step
        );
        let inv = 1.0 / mass;
        for v in &mut self.densities {
            *v *= inv;
        }
        self.rebuild_cum();
    }

    /// Recompute the cumulative prefix array from the density grid.
    ///
    /// The accumulation order (cell by cell, left to right) matches the old
    /// per-call integration loop exactly, so `cdf`/`quantile` results are
    /// bit-identical to the pre-prefix-array implementation.
    fn rebuild_cum(&mut self) {
        let n = self.densities.len();
        self.cum.clear();
        self.cum.reserve(n);
        self.cum.push(0.0);
        let mut acc = 0.0;
        for i in 0..n - 1 {
            acc += 0.5 * (self.densities[i] + self.densities[i + 1]) * self.step;
            self.cum.push(acc);
        }
    }

    /// Lower bound of the grid.
    #[inline]
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper bound of the grid.
    #[inline]
    pub fn hi(&self) -> f64 {
        self.lo + self.step * (self.densities.len() - 1) as f64
    }

    /// Grid spacing.
    #[inline]
    pub fn step(&self) -> f64 {
        self.step
    }

    /// Number of grid points.
    #[inline]
    pub fn len(&self) -> usize {
        self.densities.len()
    }

    /// Whether the grid is empty (never true for a constructed value).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.densities.is_empty()
    }

    /// The grid density values.
    #[inline]
    pub fn densities(&self) -> &[f64] {
        &self.densities
    }

    /// The x coordinate of grid point `i`.
    #[inline]
    pub fn x_at(&self, i: usize) -> f64 {
        self.lo + i as f64 * self.step
    }

    /// Density at an arbitrary `x` by linear interpolation (zero outside the
    /// grid).
    pub fn pdf(&self, x: f64) -> f64 {
        if x < self.lo || x > self.hi() {
            return 0.0;
        }
        let pos = (x - self.lo) / self.step;
        let i = pos.floor() as usize;
        if i + 1 >= self.densities.len() {
            return self.densities[self.densities.len() - 1];
        }
        let frac = pos - i as f64;
        self.densities[i] * (1.0 - frac) + self.densities[i + 1] * frac
    }

    /// `P(X <= x)` — an O(1) lookup in the precomputed cumulative prefix
    /// array plus a partial-cell correction.
    pub fn cdf(&self, x: f64) -> f64 {
        if x <= self.lo {
            return 0.0;
        }
        if x >= self.hi() {
            return 1.0;
        }
        let pos = (x - self.lo) / self.step;
        let full = pos.floor() as usize;
        let mut acc = self.cum[full.min(self.cum.len() - 1)];
        // Partial last cell with interpolated endpoint.
        let frac = pos - full as f64;
        if frac > 0.0 && full + 1 < self.densities.len() {
            let end = self.densities[full] * (1.0 - frac) + self.densities[full + 1] * frac;
            acc += 0.5 * (self.densities[full] + end) * self.step * frac;
        }
        crate::clamp_probability(acc)
    }

    /// Tail probability `P(X > x)`.
    #[inline]
    pub fn tail(&self, x: f64) -> f64 {
        crate::clamp_probability(1.0 - self.cdf(x))
    }

    /// Mean of the discretized distribution.
    pub fn mean(&self) -> f64 {
        let weighted: Vec<f64> = self
            .densities
            .iter()
            .enumerate()
            .map(|(i, &d)| self.x_at(i) * d)
            .collect();
        trapezoid_uniform(&weighted, self.step)
    }

    /// Variance of the discretized distribution.
    pub fn variance(&self) -> f64 {
        let mean = self.mean();
        let weighted: Vec<f64> = self
            .densities
            .iter()
            .enumerate()
            .map(|(i, &d)| (self.x_at(i) - mean).powi(2) * d)
            .collect();
        trapezoid_uniform(&weighted, self.step).max(0.0)
    }

    /// The distribution of `−X`: the grid is reflected about zero.
    pub fn negate(&self) -> DiscretizedPdf {
        let mut densities: Vec<f64> = self.densities.clone();
        densities.reverse();
        let mut pdf = DiscretizedPdf {
            lo: -self.hi(),
            step: self.step,
            densities,
            cum: Vec::new(),
        };
        pdf.rebuild_cum();
        pdf
    }

    /// Resample this PDF onto a new grid with the given spacing (used to align
    /// two PDFs with different steps before convolving them).
    pub fn resample(&self, step: f64) -> DiscretizedPdf {
        assert!(step > 0.0 && step.is_finite(), "invalid step {step}");
        let span = self.hi() - self.lo;
        let points = ((span / step).ceil() as usize + 1).max(2);
        let densities: Vec<f64> = (0..points)
            .map(|i| self.pdf(self.lo + i as f64 * step))
            .collect();
        DiscretizedPdf::from_raw(self.lo, step, densities)
    }

    /// Smallest `x` on the grid with `P(X <= x) >= p` (grid-resolution
    /// quantile). `p` must be in `(0, 1)`. An O(log n) binary search over
    /// the cumulative prefix array.
    pub fn quantile(&self, p: f64) -> f64 {
        assert!(p > 0.0 && p < 1.0, "quantile requires p in (0,1), got {p}");
        // First cell index i with cum[i + 1] >= p.
        let i = first_at_least(&self.cum[1..], p);
        if i >= self.densities.len() - 1 {
            return self.hi();
        }
        let cell = 0.5 * (self.densities[i] + self.densities[i + 1]) * self.step;
        // Linear interpolation inside the cell.
        let need = p - self.cum[i];
        let frac = if cell > 0.0 { need / cell } else { 0.0 };
        self.x_at(i) + frac * self.step
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::OffsetDistribution;
    use crate::gaussian::Gaussian;

    #[test]
    fn discretized_gaussian_matches_analytic_cdf() {
        let g = Gaussian::new(2.0, 3.0);
        let pdf = DiscretizedPdf::from_distribution(&g, 2048);
        for x in [-4.0, -1.0, 2.0, 5.0, 8.0] {
            assert!(
                (pdf.cdf(x) - g.cdf(x)).abs() < 2e-3,
                "cdf({x}) = {} vs {}",
                pdf.cdf(x),
                g.cdf(x)
            );
        }
    }

    #[test]
    fn mean_and_variance_match_analytic() {
        let g = Gaussian::new(-1.5, 2.0);
        let pdf = DiscretizedPdf::from_distribution(&g, 2048);
        assert!((pdf.mean() - -1.5).abs() < 1e-2);
        assert!((pdf.variance() - 4.0).abs() < 5e-2);
    }

    #[test]
    fn tail_plus_cdf_is_one() {
        let d = OffsetDistribution::laplace(0.0, 1.0);
        let pdf = DiscretizedPdf::from_distribution(&d, 1024);
        for x in [-3.0, -1.0, 0.0, 0.5, 2.0] {
            assert!((pdf.cdf(x) + pdf.tail(x) - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn negate_reflects_distribution() {
        let d = OffsetDistribution::shifted_exponential(1.0, 0.5);
        let pdf = DiscretizedPdf::from_distribution(&d, 1024);
        let neg = pdf.negate();
        assert!((neg.mean() + pdf.mean()).abs() < 1e-6);
        assert!((neg.cdf(-2.0) - pdf.tail(2.0)).abs() < 1e-2);
        assert!((neg.hi() + pdf.lo()).abs() < 1e-9);
    }

    #[test]
    fn quantile_inverts_cdf() {
        let g = Gaussian::new(0.0, 1.0);
        let pdf = DiscretizedPdf::from_distribution(&g, 4096);
        for p in [0.1, 0.25, 0.5, 0.9, 0.99] {
            let x = pdf.quantile(p);
            assert!((pdf.cdf(x) - p).abs() < 1e-3, "p={p} x={x}");
            assert!((x - g.quantile(p)).abs() < 2e-2);
        }
    }

    #[test]
    fn resample_preserves_shape() {
        let g = Gaussian::new(4.0, 1.0);
        let pdf = DiscretizedPdf::from_distribution(&g, 1024);
        let coarse = pdf.resample(pdf.step() * 2.0);
        assert!((coarse.mean() - 4.0).abs() < 1e-2);
        assert!((coarse.cdf(4.0) - 0.5).abs() < 1e-2);
    }

    #[test]
    fn from_raw_normalizes() {
        let pdf = DiscretizedPdf::from_raw(0.0, 1.0, vec![1.0, 1.0, 1.0, 1.0, 1.0]);
        // Uniform over [0,4] → mass 1, mean 2.
        assert!((pdf.mean() - 2.0).abs() < 1e-9);
        assert!((pdf.cdf(2.0) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn pdf_zero_outside_support() {
        let g = Gaussian::new(0.0, 1.0);
        let pdf = DiscretizedPdf::from_distribution(&g, 256);
        assert_eq!(pdf.pdf(pdf.lo() - 1.0), 0.0);
        assert_eq!(pdf.pdf(pdf.hi() + 1.0), 0.0);
        assert_eq!(pdf.cdf(pdf.lo() - 1.0), 0.0);
        assert_eq!(pdf.cdf(pdf.hi() + 1.0), 1.0);
    }

    #[test]
    fn prefix_cdf_matches_direct_trapezoid_integration() {
        // The O(1) prefix-array cdf must agree with a freshly integrated
        // trapezoid sum at every grid point and at off-grid points.
        let d = OffsetDistribution::laplace(1.0, 2.5);
        let pdf = DiscretizedPdf::from_distribution(&d, 777);
        let dens = pdf.densities();
        let mut acc = 0.0;
        for i in 0..pdf.len() - 1 {
            // cdf at a grid point x_at(i) (strictly inside the support).
            if i > 0 {
                let direct = crate::clamp_probability(acc);
                let fast = pdf.cdf(pdf.x_at(i));
                assert!(
                    (fast - direct).abs() < 1e-12,
                    "grid point {i}: {fast} vs {direct}"
                );
            }
            acc += 0.5 * (dens[i] + dens[i + 1]) * pdf.step();
            // Off-grid midpoint of the cell.
            let mid = pdf.x_at(i) + 0.5 * pdf.step();
            let got = pdf.cdf(mid);
            assert!((0.0..=1.0).contains(&got));
        }
    }

    #[test]
    fn quantile_binary_search_matches_linear_scan() {
        let d = OffsetDistribution::shifted_log_normal(-1.0, 0.8, 0.6);
        let pdf = DiscretizedPdf::from_distribution(&d, 513);
        // Reference: the original O(n) scan.
        let scan = |p: f64| -> f64 {
            let dens = pdf.densities();
            let mut acc = 0.0;
            for i in 0..dens.len() - 1 {
                let cell = 0.5 * (dens[i] + dens[i + 1]) * pdf.step();
                if acc + cell >= p {
                    let frac = if cell > 0.0 { (p - acc) / cell } else { 0.0 };
                    return pdf.x_at(i) + frac * pdf.step();
                }
                acc += cell;
            }
            pdf.hi()
        };
        for p in [0.001, 0.05, 0.25, 0.5, 0.75, 0.95, 0.999] {
            let fast = pdf.quantile(p);
            let slow = scan(p);
            assert_eq!(fast, slow, "p = {p}");
        }
    }

    #[test]
    #[should_panic(expected = "zero total mass")]
    fn zero_mass_rejected() {
        DiscretizedPdf::from_raw(0.0, 1.0, vec![0.0, 0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "at least two grid points")]
    fn single_point_rejected() {
        DiscretizedPdf::from_raw(0.0, 1.0, vec![1.0]);
    }
}

//! Direct and FFT-based convolution of discretized PDFs.
//!
//! §3.3 of the paper: the PDF of `Δθ = θ_j − θ_i` is the convolution
//! `f_Δθ(Δ) = ∫ f_{θ_j}(ξ) f_{θ_i}(ξ − Δ) dξ`, and the sequencer can compute
//! all pairwise convolutions in log-linear time by multiplying Fourier
//! transforms instead of evaluating the quadratic-time sum directly. Both
//! code paths are implemented here and tested against each other.

use crate::complex::Complex;
use crate::discretized::DiscretizedPdf;
use crate::fft::{fft_in_place, next_pow2};

/// Above this output length the FFT path is used by [`convolve`].
pub const FFT_CUTOFF: usize = 256;

/// Direct (quadratic-time) linear convolution of two sequences.
pub fn convolve_direct(a: &[f64], b: &[f64]) -> Vec<f64> {
    if a.is_empty() || b.is_empty() {
        return Vec::new();
    }
    let n = a.len() + b.len() - 1;
    let mut out = vec![0.0; n];
    for (i, &ai) in a.iter().enumerate() {
        if ai == 0.0 {
            continue;
        }
        for (j, &bj) in b.iter().enumerate() {
            out[i + j] += ai * bj;
        }
    }
    out
}

/// FFT-based (log-linear) linear convolution of two sequences.
pub fn convolve_fft(a: &[f64], b: &[f64]) -> Vec<f64> {
    if a.is_empty() || b.is_empty() {
        return Vec::new();
    }
    let n = a.len() + b.len() - 1;
    let size = next_pow2(n);

    let mut fa: Vec<Complex> = a.iter().copied().map(Complex::from_real).collect();
    fa.resize(size, Complex::ZERO);
    let mut fb: Vec<Complex> = b.iter().copied().map(Complex::from_real).collect();
    fb.resize(size, Complex::ZERO);

    fft_in_place(&mut fa, false);
    fft_in_place(&mut fb, false);
    for (x, y) in fa.iter_mut().zip(fb.iter()) {
        *x *= *y;
    }
    fft_in_place(&mut fa, true);

    fa.truncate(n);
    // Convolution of non-negative inputs is non-negative; tiny negative values
    // are FFT round-off.
    fa.into_iter().map(|c| c.re.max(0.0)).collect()
}

/// Convolve two sequences, choosing the direct path for small inputs and the
/// FFT path above [`FFT_CUTOFF`].
pub fn convolve(a: &[f64], b: &[f64]) -> Vec<f64> {
    if a.is_empty() || b.is_empty() {
        return Vec::new();
    }
    if a.len() + b.len() - 1 <= FFT_CUTOFF {
        convolve_direct(a, b)
    } else {
        convolve_fft(a, b)
    }
}

/// Compute the distribution of the difference `Δθ = θ_j − θ_i` from the
/// discretized PDFs of `θ_i` and `θ_j`.
///
/// The result is the convolution of `f_{θ_j}` with the reflection of
/// `f_{θ_i}`; its grid starts at `f_j.lo − f_i.hi`. If the two inputs have
/// different grid spacings, the coarser one is resampled onto the finer
/// spacing first. [`convolve`] picks the direct sum or the FFT by size.
pub fn difference_distribution(f_i: &DiscretizedPdf, f_j: &DiscretizedPdf) -> DiscretizedPdf {
    // Align grid spacings.
    let step = f_i.step().min(f_j.step());
    let fi_aligned;
    let fj_aligned;
    let f_i = if (f_i.step() - step).abs() > step * 1e-9 {
        fi_aligned = f_i.resample(step);
        &fi_aligned
    } else {
        f_i
    };
    let f_j = if (f_j.step() - step).abs() > step * 1e-9 {
        fj_aligned = f_j.resample(step);
        &fj_aligned
    } else {
        f_j
    };

    let neg_i = f_i.negate();
    let raw = convolve(f_j.densities(), neg_i.densities());
    // Values are densities; the convolution sum approximates the integral up
    // to a factor of `step`, and `from_raw` re-normalizes anyway.
    DiscretizedPdf::from_raw(f_j.lo() + neg_i.lo(), step, raw)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::{Distribution, OffsetDistribution};
    use crate::gaussian::Gaussian;

    fn assert_close_slices(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert!((x - y).abs() < tol, "{x} vs {y}");
        }
    }

    #[test]
    fn direct_convolution_small_example() {
        let a = [1.0, 2.0, 3.0];
        let b = [0.0, 1.0, 0.5];
        let c = convolve_direct(&a, &b);
        assert_close_slices(&c, &[0.0, 1.0, 2.5, 4.0, 1.5], 1e-12);
    }

    #[test]
    fn fft_matches_direct() {
        let a: Vec<f64> = (0..173).map(|i| ((i * 37) % 11) as f64 * 0.25).collect();
        let b: Vec<f64> = (0..211).map(|i| ((i * 13) % 7) as f64 * 0.5).collect();
        let d = convolve_direct(&a, &b);
        let f = convolve_fft(&a, &b);
        assert_eq!(d.len(), f.len());
        for (x, y) in d.iter().zip(f.iter()) {
            assert!((x - y).abs() < 1e-6, "{x} vs {y}");
        }
    }

    #[test]
    fn auto_dispatch_is_consistent() {
        let small_a = [1.0, 2.0];
        let small_b = [3.0, 4.0];
        assert_close_slices(
            &convolve(&small_a, &small_b),
            &convolve_direct(&small_a, &small_b),
            1e-12,
        );

        let big_a: Vec<f64> = (0..300).map(|i| (i % 5) as f64).collect();
        let big_b: Vec<f64> = (0..300).map(|i| (i % 3) as f64).collect();
        let auto = convolve(&big_a, &big_b);
        let fft = convolve_fft(&big_a, &big_b);
        assert_close_slices(&auto, &fft, 1e-9);
    }

    #[test]
    fn empty_inputs_give_empty_output() {
        assert!(convolve_direct(&[], &[1.0]).is_empty());
        assert!(convolve_fft(&[1.0], &[]).is_empty());
        assert!(convolve(&[], &[]).is_empty());
    }

    #[test]
    fn difference_of_gaussians_matches_closed_form() {
        // θ_i ~ N(1, 2²), θ_j ~ N(4, 3²) ⇒ Δθ ~ N(3, 13)
        let gi = Gaussian::new(1.0, 2.0);
        let gj = Gaussian::new(4.0, 3.0);
        let fi = DiscretizedPdf::from_distribution(&gi, 1024);
        let fj = DiscretizedPdf::from_distribution(&gj, 1024);
        let diff = difference_distribution(&fi, &fj);

        let expected = gi.difference(&gj);
        assert!((diff.mean() - expected.mean()).abs() < 0.05);
        assert!((diff.variance() - expected.variance()).abs() < 0.2);
        for x in [-4.0, 0.0, 3.0, 6.0, 10.0] {
            assert!(
                (diff.cdf(x) - expected.cdf(x)).abs() < 5e-3,
                "cdf({x}) = {} vs {}",
                diff.cdf(x),
                expected.cdf(x)
            );
        }
    }

    #[test]
    fn difference_fft_and_direct_paths_agree() {
        let di = OffsetDistribution::laplace(0.0, 2.0);
        let dj = OffsetDistribution::shifted_exponential(-1.0, 0.25);
        let fi = DiscretizedPdf::from_distribution(&di, 400);
        let fj = DiscretizedPdf::from_distribution(&dj, 400);
        let step = fi.step().min(fj.step());
        let (neg_i, fj) = (fi.resample(step).negate(), fj.resample(step));
        let build = |raw| DiscretizedPdf::from_raw(fj.lo() + neg_i.lo(), step, raw);
        let a = build(convolve_direct(fj.densities(), neg_i.densities()));
        let b = build(convolve_fft(fj.densities(), neg_i.densities()));
        assert!((a.mean() - b.mean()).abs() < 1e-6);
        for x in [-10.0, -2.0, 0.0, 5.0, 20.0] {
            assert!((a.cdf(x) - b.cdf(x)).abs() < 1e-6);
        }
    }

    #[test]
    fn difference_handles_mismatched_grids() {
        let gi = Gaussian::new(0.0, 1.0);
        let gj = Gaussian::new(0.0, 10.0);
        let fi = DiscretizedPdf::from_distribution(&gi, 256);
        let fj = DiscretizedPdf::from_distribution(&gj, 2048);
        let diff = difference_distribution(&fi, &fj);
        let expected = gi.difference(&gj);
        assert!((diff.mean() - expected.mean()).abs() < 0.1);
        assert!(
            (diff.variance() - expected.variance()).abs() / expected.variance() < 0.05,
            "var {} vs {}",
            diff.variance(),
            expected.variance()
        );
    }

    #[test]
    fn difference_distribution_mean_is_mean_difference() {
        // Holds for arbitrary (non-Gaussian) distributions too.
        let di = OffsetDistribution::shifted_log_normal(0.0, 1.0, 0.5);
        let dj = OffsetDistribution::uniform(-3.0, 9.0);
        let fi = DiscretizedPdf::from_distribution(&di, 800);
        let fj = DiscretizedPdf::from_distribution(&dj, 800);
        let diff = difference_distribution(&fi, &fj);
        let expected_mean = dj.mean() - di.mean();
        assert!(
            (diff.mean() - expected_mean).abs() < 0.1,
            "mean {} vs {}",
            diff.mean(),
            expected_mean
        );
    }
}

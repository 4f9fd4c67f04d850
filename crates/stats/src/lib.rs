//! # tommy-stats
//!
//! Numerical and statistical substrate for the Tommy probabilistic fair
//! ordering system ("Beyond Lamport, Towards Probabilistic Fair Ordering",
//! HotNets '25).
//!
//! The paper's core operation is computing the *preceding probability*
//! `P(T*_i < T*_j | T_i, T_j) = P(θ_j − θ_i > T_i − T_j)` where `θ_i`, `θ_j`
//! are per-client clock-offset random variables. For Gaussian offsets this has
//! a closed form (standard normal CDF); for arbitrary offsets the paper
//! proposes discretizing the per-client PDFs, convolving them (optionally via
//! FFT) to obtain the difference distribution `f_Δθ`, and integrating its
//! tail. This crate provides all of that machinery, implemented from scratch:
//!
//! * [`complex`] — minimal complex arithmetic used by the FFT.
//! * [`fft`] — iterative radix-2 FFT / inverse FFT.
//! * [`convolution`] — direct and FFT-based convolution and difference
//!   (cross-correlation style) convolution of discretized PDFs.
//! * [`erf`] — error function, complementary error function and the inverse
//!   standard-normal CDF.
//! * [`gaussian`] — the Gaussian distribution with closed-form preceding
//!   probability helpers.
//! * [`distribution`] — the [`Distribution`] trait
//!   and the concrete clock-offset distribution families used throughout the
//!   repository (uniform, Laplace, shifted log-normal, Student-t, mixtures,
//!   empirical).
//! * [`discretized`] — grid-discretized PDFs ([`DiscretizedPdf`]) supporting
//!   normalization, CDF/tail evaluation and difference distributions.
//! * [`histogram`] — fixed-bin histograms for empirical distribution learning.
//! * [`kde`] — Gaussian kernel density estimation.
//! * [`integrate`] — trapezoid quadrature.
//! * [`quantile`] — sample quantiles and monotone bisection (used to find safe
//!   emission times `T^F_i`).
//! * [`moments`] — streaming moment accumulation (Welford).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod complex;
pub mod convolution;
pub mod discretized;
pub mod distribution;
pub mod erf;
pub mod fft;
pub mod gaussian;
pub mod histogram;
pub mod integrate;
pub mod kde;
pub mod moments;
pub mod quantile;

pub use complex::Complex;
pub use discretized::DiscretizedPdf;
pub use distribution::{Distribution, OffsetDistribution};
pub use gaussian::Gaussian;
pub use histogram::Histogram;
pub use kde::KernelDensity;
pub use moments::Moments;

/// Clamp a floating point value into the closed interval `[0, 1]`.
///
/// Numeric integration of discretized PDFs can produce values that are a few
/// ULPs (or, with coarse grids, a few thousandths) outside the unit interval;
/// every public API that returns a probability clamps through this helper.
#[inline]
pub fn clamp_probability(p: f64) -> f64 {
    if p.is_nan() {
        return 0.5;
    }
    p.clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clamp_probability_clamps_out_of_range() {
        assert_eq!(clamp_probability(-0.2), 0.0);
        assert_eq!(clamp_probability(1.7), 1.0);
        assert_eq!(clamp_probability(0.25), 0.25);
    }

    #[test]
    fn clamp_probability_maps_nan_to_half() {
        assert_eq!(clamp_probability(f64::NAN), 0.5);
    }
}

//! Error function, complementary error function, standard-normal CDF and its
//! inverse.
//!
//! The Gaussian closed form for the preceding probability in §3.2 of the
//! paper is `Φ((T_j − T_i + μ_i − μ_j)/√(σ_i² + σ_j²))`; `Φ` is implemented
//! here via the error function. The inverse CDF is used by the online
//! sequencer to compute safe emission times `T^F_i` in closed form for
//! Gaussian offsets (and as an initial bracket for the generic bisection
//! search).

/// The error function `erf(x)`.
///
/// Implemented with the rational Chebyshev-style approximation from
/// Numerical Recipes (`erfc` with a fitted exponent polynomial); absolute
/// error is below `1.2e-7` over the whole real line, which is far below the
/// probability tolerances used anywhere in this workspace.
pub fn erf(x: f64) -> f64 {
    1.0 - erfc(x)
}

/// The complementary error function `erfc(x) = 1 − erf(x)`.
pub fn erfc(x: f64) -> f64 {
    let z = x.abs();
    let t = 1.0 / (1.0 + 0.5 * z);
    // Numerical Recipes in C, §6.2 (erfcc): fractional error < 1.2e-7.
    let ans = t
        * (-z * z - 1.26551223
            + t * (1.00002368
                + t * (0.37409196
                    + t * (0.09678418
                        + t * (-0.18628806
                            + t * (0.27886807
                                + t * (-1.13520398
                                    + t * (1.48851587
                                        + t * (-0.82215223 + t * 0.17087277)))))))))
        .exp();
    if x >= 0.0 {
        ans
    } else {
        2.0 - ans
    }
}

/// Standard normal cumulative distribution function `Φ(x)`.
#[inline]
pub fn std_normal_cdf(x: f64) -> f64 {
    0.5 * erfc(-x * std::f64::consts::FRAC_1_SQRT_2)
}

/// Standard normal probability density function `φ(x)`.
#[inline]
pub fn std_normal_pdf(x: f64) -> f64 {
    const INV_SQRT_2PI: f64 = 0.398_942_280_401_432_7;
    INV_SQRT_2PI * (-0.5 * x * x).exp()
}

/// Inverse of the standard normal CDF (the probit function).
///
/// Uses Acklam's rational approximation followed by one step of Halley's
/// method against [`std_normal_cdf`], giving roughly full double precision for
/// `p` away from 0 and 1 and ~1e-9 absolute error in the far tails.
///
/// # Panics
///
/// Panics if `p` is not strictly inside `(0, 1)`.
pub fn std_normal_inv_cdf(p: f64) -> f64 {
    assert!(
        p > 0.0 && p < 1.0,
        "inverse normal CDF requires p in (0,1), got {p}"
    );

    // Coefficients for Acklam's approximation.
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;
    const P_HIGH: f64 = 1.0 - P_LOW;

    let x = if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= P_HIGH {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };

    // One Halley refinement step.
    let e = std_normal_cdf(x) - p;
    let u = e * (2.0 * std::f64::consts::PI).sqrt() * (0.5 * x * x).exp();
    x - u / (1.0 + 0.5 * x * u)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erf_reference_values() {
        // Reference values from standard tables.
        let cases = [
            (0.0, 0.0),
            (0.5, 0.5204999),
            (1.0, 0.8427008),
            (2.0, 0.9953223),
            (3.0, 0.9999779),
            (-1.0, -0.8427008),
        ];
        for (x, want) in cases {
            assert!((erf(x) - want).abs() < 1e-6, "erf({x}) = {}", erf(x));
        }
    }

    #[test]
    fn erfc_complements_erf() {
        for i in -40..=40 {
            let x = i as f64 * 0.1;
            assert!((erf(x) + erfc(x) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn normal_cdf_reference_values() {
        let cases = [
            (0.0, 0.5),
            (1.0, 0.8413447),
            (-1.0, 0.1586553),
            (1.959964, 0.975),
            (-2.575829, 0.005),
            (3.0, 0.9986501),
        ];
        for (x, want) in cases {
            assert!(
                (std_normal_cdf(x) - want).abs() < 1e-6,
                "Phi({x}) = {}",
                std_normal_cdf(x)
            );
        }
    }

    #[test]
    fn normal_pdf_peak_and_symmetry() {
        assert!((std_normal_pdf(0.0) - 0.3989423).abs() < 1e-6);
        for i in 0..50 {
            let x = i as f64 * 0.1;
            assert!((std_normal_pdf(x) - std_normal_pdf(-x)).abs() < 1e-15);
        }
    }

    #[test]
    fn inverse_cdf_roundtrip() {
        for i in 1..999 {
            let p = i as f64 / 1000.0;
            let x = std_normal_inv_cdf(p);
            assert!(
                (std_normal_cdf(x) - p).abs() < 1e-7,
                "p={p}, x={x}, back={}",
                std_normal_cdf(x)
            );
        }
    }

    #[test]
    fn inverse_cdf_tails() {
        let x = std_normal_inv_cdf(0.999);
        assert!((x - 3.0902323).abs() < 1e-4);
        let x = std_normal_inv_cdf(1e-6);
        assert!((x + 4.753424).abs() < 1e-3);
    }

    #[test]
    #[should_panic(expected = "requires p in (0,1)")]
    fn inverse_cdf_rejects_zero() {
        std_normal_inv_cdf(0.0);
    }

    #[test]
    #[should_panic(expected = "requires p in (0,1)")]
    fn inverse_cdf_rejects_one() {
        std_normal_inv_cdf(1.0);
    }
}

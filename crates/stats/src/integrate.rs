//! Simple numerical quadrature used for validating distributions and
//! computing tail probabilities of discretized PDFs.

/// Trapezoid rule over uniformly spaced samples `values` with spacing `step`.
pub fn trapezoid_uniform(values: &[f64], step: f64) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let interior: f64 = values[1..values.len() - 1].iter().sum();
    step * (0.5 * (values[0] + values[values.len() - 1]) + interior)
}

/// Composite Simpson's rule for a function `f` over `[a, b]` with `n`
/// intervals (`n` is rounded up to the next even number).
#[cfg(test)]
pub(crate) fn simpson<F: Fn(f64) -> f64>(f: F, a: f64, b: f64, n: usize) -> f64 {
    assert!(n > 0, "need at least one interval");
    assert!(b >= a, "invalid interval [{a}, {b}]");
    let n = if n.is_multiple_of(2) { n } else { n + 1 };
    let h = (b - a) / n as f64;
    let mut sum = f(a) + f(b);
    for i in 1..n {
        let x = a + i as f64 * h;
        sum += if i % 2 == 0 { 2.0 * f(x) } else { 4.0 * f(x) };
    }
    sum * h / 3.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simpson_integrates_cubic_exactly() {
        // Simpson is exact for cubics: ∫_0^1 x^3 dx = 0.25
        let v = simpson(|x| x * x * x, 0.0, 1.0, 2);
        assert!((v - 0.25).abs() < 1e-12);
    }

    #[test]
    fn simpson_handles_odd_interval_count() {
        let v = simpson(|x| x * x, 0.0, 3.0, 5);
        assert!((v - 9.0).abs() < 1e-9);
    }

    #[test]
    fn trapezoid_uniform_matches_function_form() {
        let step = 0.001;
        let xs: Vec<f64> = (0..=2000).map(|i| i as f64 * step).collect();
        let vals: Vec<f64> = xs.iter().map(|x| x.sin()).collect();
        let got = trapezoid_uniform(&vals, step);
        let want = 1.0 - 2.0f64.cos();
        assert!((got - want).abs() < 1e-6);
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(trapezoid_uniform(&[], 0.1), 0.0);
        assert_eq!(trapezoid_uniform(&[1.0], 0.1), 0.0);
    }
}

//! Iterative radix-2 fast Fourier transform.
//!
//! The paper (§3.3) proposes computing all pairwise difference distributions
//! `f_Δθ` by convolving client offset PDFs, and notes that the convolution can
//! be computed in log-linear time by multiplying Fourier transforms. This
//! module provides exactly that primitive, implemented from scratch so the
//! repository has no external numeric dependencies.
//!
//! Inputs whose length is not a power of two are handled by the callers in
//! [`crate::convolution`], which zero-pad to the next power of two (linear
//! convolution requires padding to `n + m - 1` anyway).

use crate::complex::Complex;

/// Returns the smallest power of two that is `>= n` (and at least 1).
#[inline]
pub fn next_pow2(n: usize) -> usize {
    if n <= 1 {
        return 1;
    }
    let mut p = 1usize;
    while p < n {
        p <<= 1;
    }
    p
}

/// Returns `true` if `n` is a power of two (and non-zero).
#[inline]
pub fn is_pow2(n: usize) -> bool {
    n != 0 && (n & (n - 1)) == 0
}

/// In-place iterative radix-2 FFT.
///
/// `invert = false` computes the forward DFT; `invert = true` computes the
/// inverse DFT including the `1/n` scaling.
///
/// # Panics
///
/// Panics if `data.len()` is not a power of two.
pub fn fft_in_place(data: &mut [Complex], invert: bool) {
    let n = data.len();
    assert!(is_pow2(n), "FFT length must be a power of two, got {n}");
    if n <= 1 {
        return;
    }

    // Bit-reversal permutation.
    let mut j = 0usize;
    for i in 1..n {
        let mut bit = n >> 1;
        while j & bit != 0 {
            j ^= bit;
            bit >>= 1;
        }
        j |= bit;
        if i < j {
            data.swap(i, j);
        }
    }

    // Cooley–Tukey butterflies.
    let mut len = 2usize;
    while len <= n {
        let angle = 2.0 * std::f64::consts::PI / len as f64 * if invert { 1.0 } else { -1.0 };
        let wlen = Complex::from_polar_unit(angle);
        let mut i = 0usize;
        while i < n {
            let mut w = Complex::ONE;
            for k in 0..len / 2 {
                let u = data[i + k];
                let v = data[i + k + len / 2] * w;
                data[i + k] = u + v;
                data[i + k + len / 2] = u - v;
                w *= wlen;
            }
            i += len;
        }
        len <<= 1;
    }

    if invert {
        let inv_n = 1.0 / n as f64;
        for x in data.iter_mut() {
            *x = x.scale(inv_n);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Forward FFT of a real signal, zero-padded to the power of two
    /// `target_len`.
    fn fft_real(signal: &[f64], target_len: usize) -> Vec<Complex> {
        let mut buf: Vec<Complex> = signal.iter().copied().map(Complex::from_real).collect();
        buf.resize(target_len, Complex::ZERO);
        fft_in_place(&mut buf, false);
        buf
    }

    /// Inverse FFT returning only real parts (imaginary residue is discarded).
    fn ifft_real(spectrum: &mut [Complex]) -> Vec<f64> {
        fft_in_place(spectrum, true);
        spectrum.iter().map(|c| c.re).collect()
    }

    fn roundtrip(signal: &[f64]) -> Vec<f64> {
        let n = next_pow2(signal.len());
        let mut spec = fft_real(signal, n);
        let back = ifft_real(&mut spec);
        back[..signal.len()].to_vec()
    }

    #[test]
    fn next_pow2_values() {
        assert_eq!(next_pow2(0), 1);
        assert_eq!(next_pow2(1), 1);
        assert_eq!(next_pow2(2), 2);
        assert_eq!(next_pow2(3), 4);
        assert_eq!(next_pow2(17), 32);
        assert_eq!(next_pow2(1024), 1024);
    }

    #[test]
    fn is_pow2_values() {
        assert!(is_pow2(1));
        assert!(is_pow2(2));
        assert!(is_pow2(64));
        assert!(!is_pow2(0));
        assert!(!is_pow2(3));
        assert!(!is_pow2(96));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn fft_rejects_non_pow2() {
        let mut data = vec![Complex::ZERO; 3];
        fft_in_place(&mut data, false);
    }

    #[test]
    fn fft_of_impulse_is_flat() {
        let mut data = vec![Complex::ZERO; 8];
        data[0] = Complex::ONE;
        fft_in_place(&mut data, false);
        for c in data {
            assert!((c.re - 1.0).abs() < 1e-12);
            assert!(c.im.abs() < 1e-12);
        }
    }

    #[test]
    fn fft_roundtrip_recovers_signal() {
        let signal = [0.5, -1.25, 3.0, 2.0, 0.0, 7.5, -0.125, 4.25, 1.0];
        let back = roundtrip(&signal);
        for (a, b) in signal.iter().zip(back.iter()) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn fft_is_linear() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [-2.0, 0.5, 0.0, 1.0];
        let sum: Vec<f64> = a.iter().zip(b.iter()).map(|(x, y)| x + y).collect();

        let fa = fft_real(&a, 4);
        let fb = fft_real(&b, 4);
        let fsum = fft_real(&sum, 4);
        for i in 0..4 {
            let lin = fa[i] + fb[i];
            assert!((lin.re - fsum[i].re).abs() < 1e-9);
            assert!((lin.im - fsum[i].im).abs() < 1e-9);
        }
    }

    #[test]
    fn parseval_energy_is_preserved() {
        let signal = [1.0, -2.0, 0.5, 3.5, 0.25, -1.0, 2.0, 0.0];
        let time_energy: f64 = signal.iter().map(|x| x * x).sum();
        let spec = fft_real(&signal, 8);
        let freq_energy: f64 = spec.iter().map(|c| c.norm_sqr()).sum::<f64>() / 8.0;
        assert!((time_energy - freq_energy).abs() < 1e-9);
    }

    #[test]
    fn dc_component_is_signal_sum() {
        let signal = [2.0, 4.0, 6.0, 8.0];
        let spec = fft_real(&signal, 4);
        assert!((spec[0].re - 20.0).abs() < 1e-12);
        assert!(spec[0].im.abs() < 1e-12);
    }
}

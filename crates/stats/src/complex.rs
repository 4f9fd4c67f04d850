//! Minimal complex-number arithmetic used by the FFT implementation.
//!
//! Only the operations needed by [`crate::fft`] are provided; this is not a
//! general purpose complex library.

use std::ops::{Add, AddAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number with `f64` components.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// The additive identity.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };
    /// The multiplicative identity.
    pub const ONE: Complex = Complex { re: 1.0, im: 0.0 };

    /// Create a complex number from real and imaginary parts.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// Create a purely real complex number.
    #[inline]
    pub const fn from_real(re: f64) -> Self {
        Complex { re, im: 0.0 }
    }

    /// `e^{iθ}` — a unit complex number at angle `theta` radians.
    #[inline]
    pub fn from_polar_unit(theta: f64) -> Self {
        Complex {
            re: theta.cos(),
            im: theta.sin(),
        }
    }

    /// Magnitude (absolute value).
    #[inline]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Scale by a real factor.
    #[inline]
    pub fn scale(self, k: f64) -> Self {
        Complex {
            re: self.re * k,
            im: self.im * k,
        }
    }
}

impl Add for Complex {
    type Output = Complex;
    #[inline]
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl AddAssign for Complex {
    #[inline]
    fn add_assign(&mut self, rhs: Complex) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl Sub for Complex {
    type Output = Complex;
    #[inline]
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl SubAssign for Complex {
    #[inline]
    fn sub_assign(&mut self, rhs: Complex) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl Mul for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl MulAssign for Complex {
    #[inline]
    fn mul_assign(&mut self, rhs: Complex) {
        *self = *self * rhs;
    }
}

impl Neg for Complex {
    type Output = Complex;
    #[inline]
    fn neg(self) -> Complex {
        Complex::new(-self.re, -self.im)
    }
}

impl From<f64> for Complex {
    #[inline]
    fn from(re: f64) -> Self {
        Complex::from_real(re)
    }
}

#[cfg(test)]
impl Complex {
    /// Squared magnitude.
    pub(crate) fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn addition_and_subtraction() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(-0.5, 4.0);
        let s = a + b;
        assert!(close(s.re, 0.5) && close(s.im, 6.0));
        let d = a - b;
        assert!(close(d.re, 1.5) && close(d.im, -2.0));
    }

    #[test]
    fn multiplication_matches_expansion() {
        let a = Complex::new(3.0, -2.0);
        let b = Complex::new(1.0, 7.0);
        let p = a * b;
        // (3 - 2i)(1 + 7i) = 3 + 21i - 2i - 14i^2 = 17 + 19i
        assert!(close(p.re, 17.0) && close(p.im, 19.0));
    }

    #[test]
    fn polar_unit_is_on_unit_circle() {
        for k in 0..16 {
            let theta = k as f64 * std::f64::consts::PI / 8.0;
            let z = Complex::from_polar_unit(theta);
            assert!((z.abs() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn norm_sqr_matches_abs() {
        let z = Complex::new(3.0, 4.0);
        assert!(close(z.abs(), 5.0));
        assert!(close(z.norm_sqr(), 25.0));
    }

    #[test]
    fn assign_operators() {
        let mut z = Complex::new(1.0, 1.0);
        z += Complex::new(2.0, -1.0);
        assert!(close(z.re, 3.0) && close(z.im, 0.0));
        z -= Complex::new(1.0, 1.0);
        assert!(close(z.re, 2.0) && close(z.im, -1.0));
        z *= Complex::new(0.0, 1.0);
        assert!(close(z.re, 1.0) && close(z.im, 2.0));
    }
}

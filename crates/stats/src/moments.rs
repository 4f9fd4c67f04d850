//! Streaming moment accumulation (Welford's algorithm).
//!
//! Clients learning their clock-offset distribution from synchronization
//! probes (§5 of the paper) accumulate probes one at a time; this module
//! provides numerically stable single-pass estimates of mean and variance
//! without storing the probe history.

/// Single-pass accumulator for the first two central moments.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Moments {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Moments {
    /// An empty accumulator.
    pub fn new() -> Self {
        Moments {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Build an accumulator from a slice of samples.
    pub fn from_samples(samples: &[f64]) -> Self {
        let mut m = Moments::new();
        for &x in samples {
            m.push(x);
        }
        m
    }

    /// Add one observation.
    pub fn push(&mut self, x: f64) {
        let n1 = self.n as f64;
        self.n += 1;
        let n = self.n as f64;
        let delta = x - self.mean;
        let delta_n = delta / n;
        let term1 = delta * delta_n * n1;
        self.mean += delta_n;
        self.m2 += term1;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merge another accumulator into this one (parallel Welford update).
    pub fn merge(&mut self, other: &Moments) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let na = self.n as f64;
        let nb = other.n as f64;
        let n = na + nb;
        let delta = other.mean - self.mean;

        let mean = self.mean + delta * nb / n;
        let m2 = self.m2 + other.m2 + delta * delta * na * nb / n;

        self.n += other.n;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    #[inline]
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean. Returns `0.0` when empty.
    #[inline]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance (divides by `n`). Returns `0.0` when empty.
    pub fn variance(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Population standard deviation.
    #[inline]
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (`+inf` when empty).
    #[inline]
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`−inf` when empty).
    #[inline]
    pub fn max(&self) -> f64 {
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variance_simple() {
        let m = Moments::from_samples(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(m.count(), 8);
        assert!((m.mean() - 5.0).abs() < 1e-12);
        assert!((m.variance() - 4.0).abs() < 1e-12);
        assert!((m.std_dev() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn min_max_tracking() {
        let m = Moments::from_samples(&[3.0, -1.0, 7.5, 0.0]);
        assert_eq!(m.min(), -1.0);
        assert_eq!(m.max(), 7.5);
    }

    #[test]
    fn empty_accumulator_defaults() {
        let m = Moments::new();
        assert_eq!(m.count(), 0);
        assert_eq!(m.mean(), 0.0);
        assert_eq!(m.variance(), 0.0);
    }

    #[test]
    fn merge_matches_single_pass() {
        let a: Vec<f64> = (0..500).map(|i| (i as f64 * 0.37).sin() * 3.0 + 1.0).collect();
        let b: Vec<f64> = (0..300).map(|i| (i as f64 * 0.11).cos() * 5.0 - 2.0).collect();
        let mut merged = Moments::from_samples(&a);
        merged.merge(&Moments::from_samples(&b));
        let all: Vec<f64> = a.iter().chain(b.iter()).copied().collect();
        let single = Moments::from_samples(&all);
        assert_eq!(merged.count(), single.count());
        assert!((merged.mean() - single.mean()).abs() < 1e-9);
        assert!((merged.variance() - single.variance()).abs() < 1e-9);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut m = Moments::from_samples(&[1.0, 2.0, 3.0]);
        let before = m;
        m.merge(&Moments::new());
        assert_eq!(m, before);

        let mut empty = Moments::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }
}

//! Fixed-bin histograms.
//!
//! Used by clients to accumulate clock-offset samples from synchronization
//! probes into a compact, shareable representation of their offset
//! distribution (§3.3, §5 of the paper: "clients merely send their respective
//! learned distributions to the sequencer").

/// A histogram with uniformly sized bins over `[lo, hi)`.
///
/// Samples outside the range are clamped into the first/last bin so that no
/// probability mass is silently dropped (important for long-tailed clock
/// error distributions).
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// Create an empty histogram with `bins` bins over `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0` or `hi <= lo` or either bound is non-finite.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(
            lo.is_finite() && hi.is_finite() && hi > lo,
            "invalid histogram range [{lo}, {hi})"
        );
        Histogram {
            lo,
            hi,
            counts: vec![0; bins],
            total: 0,
        }
    }

    /// Build a histogram from samples, choosing the range from the sample
    /// min/max padded by 5% on each side.
    pub fn from_samples(samples: &[f64], bins: usize) -> Self {
        assert!(!samples.is_empty(), "cannot build histogram from no samples");
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &x in samples {
            lo = lo.min(x);
            hi = hi.max(x);
        }
        if hi <= lo {
            // All samples identical: widen artificially so the range is valid.
            hi = lo + 1.0;
            lo -= 1.0;
        } else {
            let pad = 0.05 * (hi - lo);
            lo -= pad;
            hi += pad;
        }
        let mut h = Histogram::new(lo, hi, bins);
        for &x in samples {
            h.record(x);
        }
        h
    }

    /// Record one sample.
    pub fn record(&mut self, x: f64) {
        let idx = self.bin_index(x);
        self.counts[idx] += 1;
        self.total += 1;
    }

    /// Index of the bin that `x` falls into (clamped to the edges).
    pub fn bin_index(&self, x: f64) -> usize {
        if x <= self.lo {
            return 0;
        }
        if x >= self.hi {
            return self.counts.len() - 1;
        }
        let frac = (x - self.lo) / (self.hi - self.lo);
        ((frac * self.counts.len() as f64) as usize).min(self.counts.len() - 1)
    }

    /// Lower bound of the range.
    #[inline]
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper bound of the range.
    #[inline]
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// Width of each bin.
    #[inline]
    pub fn bin_width(&self) -> f64 {
        (self.hi - self.lo) / self.counts.len() as f64
    }

    /// Raw bin counts.
    #[inline]
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Centre of bin `i`.
    pub fn bin_center(&self, i: usize) -> f64 {
        self.lo + (i as f64 + 0.5) * self.bin_width()
    }

    /// Normalized bin densities (integrate to 1 over the range). Returns an
    /// all-zero vector when no samples have been recorded.
    pub fn densities(&self) -> Vec<f64> {
        if self.total == 0 {
            return vec![0.0; self.counts.len()];
        }
        let norm = 1.0 / (self.total as f64 * self.bin_width());
        self.counts.iter().map(|&c| c as f64 * norm).collect()
    }

    /// Empirical mean estimated from bin centres.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let mut sum = 0.0;
        for (i, &c) in self.counts.iter().enumerate() {
            sum += self.bin_center(i) * c as f64;
        }
        sum / self.total as f64
    }

    /// Empirical variance estimated from bin centres.
    pub fn variance(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let mean = self.mean();
        let mut sum = 0.0;
        for (i, &c) in self.counts.iter().enumerate() {
            let d = self.bin_center(i) - mean;
            sum += d * d * c as f64;
        }
        sum / self.total as f64
    }

    /// Merge another histogram with identical geometry into this one.
    ///
    /// # Panics
    ///
    /// Panics if the ranges or bin counts differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.counts.len(), other.counts.len(), "bin count mismatch");
        assert!(
            (self.lo - other.lo).abs() < 1e-12 && (self.hi - other.hi).abs() < 1e-12,
            "histogram range mismatch"
        );
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_into_correct_bins() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        h.record(0.5);
        h.record(9.5);
        h.record(5.0);
        assert_eq!(h.counts()[0], 1);
        assert_eq!(h.counts()[9], 1);
        assert_eq!(h.counts()[5], 1);
        assert_eq!(h.total, 3);
    }

    #[test]
    fn out_of_range_samples_clamp_to_edges() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.record(-100.0);
        h.record(100.0);
        assert_eq!(h.counts()[0], 1);
        assert_eq!(h.counts()[3], 1);
    }

    #[test]
    fn densities_integrate_to_one() {
        let mut h = Histogram::new(-5.0, 5.0, 50);
        for i in 0..1000 {
            h.record(-4.9 + 9.8 * (i as f64 / 999.0));
        }
        let integral: f64 = h.densities().iter().sum::<f64>() * h.bin_width();
        assert!((integral - 1.0).abs() < 1e-9);
    }

    #[test]
    fn from_samples_covers_all_points() {
        let samples = [1.0, 2.0, 3.0, 4.0, 100.0];
        let h = Histogram::from_samples(&samples, 20);
        assert_eq!(h.total, 5);
        assert!(h.lo() < 1.0);
        assert!(h.hi() > 100.0);
    }

    #[test]
    fn from_identical_samples_widens_range() {
        let h = Histogram::from_samples(&[3.0, 3.0, 3.0], 5);
        assert!(h.hi() > h.lo());
        assert_eq!(h.total, 3);
    }

    #[test]
    fn mean_and_variance_approximate_samples() {
        let samples: Vec<f64> = (0..10_000).map(|i| (i % 100) as f64).collect();
        let h = Histogram::from_samples(&samples, 100);
        assert!((h.mean() - 49.5).abs() < 1.0);
        let true_var = (0..100).map(|i| (i as f64 - 49.5).powi(2)).sum::<f64>() / 100.0;
        assert!((h.variance() - true_var).abs() / true_var < 0.05);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = Histogram::new(0.0, 1.0, 4);
        let mut b = Histogram::new(0.0, 1.0, 4);
        a.record(0.1);
        b.record(0.1);
        b.record(0.9);
        a.merge(&b);
        assert_eq!(a.total, 3);
        assert_eq!(a.counts()[0], 2);
        assert_eq!(a.counts()[3], 1);
    }

    #[test]
    #[should_panic(expected = "bin count mismatch")]
    fn merge_rejects_mismatched_bins() {
        let mut a = Histogram::new(0.0, 1.0, 4);
        let b = Histogram::new(0.0, 1.0, 8);
        a.merge(&b);
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn zero_bins_rejected() {
        Histogram::new(0.0, 1.0, 0);
    }
}

//! Ground-truth clock models.
//!
//! A [`ClockModel`] describes how a simulated client's clock actually deviates
//! from the sequencer's clock: a stochastic offset component drawn from an
//! [`OffsetDistribution`] (the `θ` of §3.1), drawn i.i.d. at every read.

use rand::RngCore;
use tommy_stats::distribution::{Distribution, OffsetDistribution};

/// The ground truth for one client's clock behaviour.
#[derive(Debug, Clone)]
pub struct ClockModel {
    distribution: OffsetDistribution,
}

impl ClockModel {
    /// A clock whose offset is drawn i.i.d. from `distribution` at every
    /// read. This is exactly the model used by the paper's evaluation (§4).
    pub fn from_distribution(distribution: OffsetDistribution) -> Self {
        ClockModel { distribution }
    }

    /// A Gaussian clock `N(mean, std_dev²)` — the common case of §3.2/§4.
    pub fn gaussian(mean: f64, std_dev: f64) -> Self {
        ClockModel::from_distribution(OffsetDistribution::gaussian(mean, std_dev))
    }

    /// The stochastic offset distribution.
    pub fn distribution(&self) -> &OffsetDistribution {
        &self.distribution
    }

    /// Sample the instantaneous clock offset.
    pub fn sample_offset(&self, rng: &mut dyn RngCore) -> f64 {
        self.distribution.sample(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn perfect_clock_has_zero_offset() {
        let m = ClockModel::gaussian(0.0, 0.0);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..3 {
            assert_eq!(m.sample_offset(&mut rng), 0.0);
        }
    }

    #[test]
    fn gaussian_clock_offsets_have_requested_moments() {
        let m = ClockModel::gaussian(5.0, 2.0);
        let mut rng = StdRng::seed_from_u64(2);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| m.sample_offset(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.05);
        assert!((var - 4.0).abs() < 0.15);
    }

    #[test]
    fn offset_std_dev_exposed() {
        let m = ClockModel::gaussian(0.0, 7.5);
        assert!((m.distribution().std_dev() - 7.5).abs() < 1e-12);
    }
}

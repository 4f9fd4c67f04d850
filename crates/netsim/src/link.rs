//! Point-to-point link models.
//!
//! A [`LinkModel`] turns a send time into a delivery time by sampling a
//! one-way delay distribution. Jittery links naturally reorder
//! messages — the phenomenon that breaks the equivalence between FIFO
//! arrival order and generation order (§1 of the paper) and motivates fair
//! sequencing in the first place.

use crate::time::SimTime;
use rand::RngCore;
use tommy_stats::distribution::{Distribution, OffsetDistribution};

/// A one-way link with stochastic delay. It loses nothing: loss is what a
/// [`FaultInjector`](crate::fault::FaultInjector) plan adds.
#[derive(Debug, Clone)]
pub struct LinkModel {
    delay: OffsetDistribution,
    min_delay: f64,
}

impl LinkModel {
    /// A link whose delay follows `delay` (samples are clamped below at
    /// `min_delay_floor`, and negative samples are clamped to zero).
    pub fn new(delay: OffsetDistribution) -> Self {
        LinkModel { delay, min_delay: 0.0 }
    }

    /// A deterministic link with constant delay — the "equal length wires" of
    /// the on-premise exchange in Figure 4 of the paper.
    pub fn constant(delay: f64) -> Self {
        assert!(delay >= 0.0, "delay must be non-negative");
        // A degenerate uniform keeps the sampling path uniform across models.
        let eps = (delay.abs() * 1e-12).max(1e-12);
        LinkModel {
            delay: OffsetDistribution::uniform(delay, delay + eps),
            min_delay: delay,
        }
    }

    /// A link with fixed propagation delay plus exponentially distributed
    /// queueing jitter with the given mean — the canonical WAN model used by
    /// the multi-region experiments.
    pub fn jittered(base_delay: f64, jitter_mean: f64) -> Self {
        assert!(base_delay >= 0.0, "delay must be non-negative");
        assert!(jitter_mean >= 0.0, "jitter must be non-negative");
        if jitter_mean == 0.0 {
            return LinkModel::constant(base_delay);
        }
        LinkModel {
            delay: OffsetDistribution::shifted_exponential(base_delay, 1.0 / jitter_mean),
            min_delay: base_delay,
        }
    }

    /// Sample a one-way delay.
    pub fn sample_delay(&self, rng: &mut dyn RngCore) -> f64 {
        self.delay.sample(rng).max(self.min_delay).max(0.0)
    }

    /// Compute the delivery time for a message sent at `sent_at`.
    pub fn deliver(&self, sent_at: SimTime, rng: &mut dyn RngCore) -> SimTime {
        sent_at + self.sample_delay(rng)
    }

    /// Mean one-way delay of the model.
    pub fn mean_delay(&self) -> f64 {
        self.delay.mean().max(self.min_delay)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn constant_link_is_deterministic() {
        let link = LinkModel::constant(5.0);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            let d = link.sample_delay(&mut rng);
            assert!((d - 5.0).abs() < 1e-6);
        }
    }

    #[test]
    fn jittered_link_mean_matches_parameters() {
        let link = LinkModel::jittered(10.0, 4.0);
        let mut rng = StdRng::seed_from_u64(2);
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| link.sample_delay(&mut rng)).sum::<f64>() / n as f64;
        assert!((mean - 14.0).abs() < 0.2, "mean = {mean}");
        assert!((link.mean_delay() - 14.0).abs() < 1e-9);
    }

    #[test]
    fn jitter_reorders_messages() {
        // Two messages sent 0.1 apart over a high-jitter link should be
        // reordered a substantial fraction of the time.
        let link = LinkModel::jittered(1.0, 5.0);
        let mut rng = StdRng::seed_from_u64(5);
        let mut reordered = 0;
        let trials = 5_000;
        for _ in 0..trials {
            let a = link.deliver(SimTime::new(0.0), &mut rng);
            let b = link.deliver(SimTime::new(0.1), &mut rng);
            if b < a {
                reordered += 1;
            }
        }
        let frac = reordered as f64 / trials as f64;
        assert!(frac > 0.3, "reorder fraction = {frac}");
    }

    #[test]
    fn zero_jitter_path_collapses_to_constant() {
        let link = LinkModel::jittered(3.0, 0.0);
        let mut rng = StdRng::seed_from_u64(6);
        assert!((link.sample_delay(&mut rng) - 3.0).abs() < 1e-6);
    }
}

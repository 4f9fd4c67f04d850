//! Per-client clock-error populations.
//!
//! §3.1 of the paper: "Different clients may have different distributions due
//! to heterogeneous synchronization conditions (e.g., different temperature
//! in different parts of a data center, asymmetric latency between clients)."
//! A [`ClockPopulation`] describes how per-client [`ClockModel`]s are drawn
//! for an experiment: homogeneous (the Figure 5 setting, every client gets
//! `N(μ, σ²)` with the same σ), heterogeneous (per-client σ drawn from a
//! range), or multi-region (a few discrete synchronization qualities).

use rand::Rng;
use rand::RngCore;
use std::collections::HashMap;
use tommy_clock::offset::ClockModel;
use tommy_core::message::ClientId;
use tommy_stats::distribution::OffsetDistribution;

/// A recipe for assigning clock models to a set of clients.
#[derive(Debug, Clone)]
pub enum ClockPopulation {
    /// Every client gets a Gaussian offset with the same parameters — the
    /// §4 evaluation setting.
    Homogeneous {
        /// Mean clock offset of every client.
        mean: f64,
        /// Clock offset standard deviation of every client.
        std_dev: f64,
    },
    /// Every client gets a Gaussian offset whose standard deviation is drawn
    /// uniformly from `[min_std_dev, max_std_dev]` and whose mean is drawn
    /// uniformly from `[-mean_spread, +mean_spread]`.
    Heterogeneous {
        /// Smallest per-client standard deviation.
        min_std_dev: f64,
        /// Largest per-client standard deviation.
        max_std_dev: f64,
        /// Half-width of the uniform range the per-client mean is drawn from.
        mean_spread: f64,
    },
    /// Clients are assigned round-robin to regions, each with its own offset
    /// distribution — the multi-data-center setting of §2.
    MultiRegion(
        /// Offset distribution of each region.
        Vec<OffsetDistribution>,
    ),
    /// Every client gets the same, explicitly provided distribution.
    Explicit(
        /// The shared offset distribution.
        OffsetDistribution,
    ),
}

impl ClockPopulation {
    /// The Figure 5 population: zero-mean Gaussian offsets with standard
    /// deviation `std_dev` for every client.
    pub fn gaussian(std_dev: f64) -> Self {
        ClockPopulation::Homogeneous {
            mean: 0.0,
            std_dev,
        }
    }

    /// Draw the clock model for one client.
    pub fn model_for(&self, client: ClientId, rng: &mut dyn RngCore) -> ClockModel {
        match self {
            ClockPopulation::Homogeneous { mean, std_dev } => ClockModel::gaussian(*mean, *std_dev),
            ClockPopulation::Heterogeneous {
                min_std_dev,
                max_std_dev,
                mean_spread,
            } => {
                let sd = if max_std_dev > min_std_dev {
                    rng.random_range(*min_std_dev..*max_std_dev)
                } else {
                    *min_std_dev
                };
                let mean = if *mean_spread > 0.0 {
                    rng.random_range(-*mean_spread..*mean_spread)
                } else {
                    0.0
                };
                ClockModel::gaussian(mean, sd)
            }
            ClockPopulation::MultiRegion(regions) => {
                assert!(!regions.is_empty(), "multi-region population needs regions");
                let region = (client.0 as usize) % regions.len();
                ClockModel::from_distribution(regions[region].clone())
            }
            ClockPopulation::Explicit(dist) => ClockModel::from_distribution(dist.clone()),
        }
    }

    /// Build the clock models for `clients` clients (ids `0..clients`).
    pub fn build(&self, clients: usize, rng: &mut dyn RngCore) -> HashMap<ClientId, ClockModel> {
        (0..clients as u32)
            .map(|c| (ClientId(c), self.model_for(ClientId(c), rng)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tommy_stats::distribution::Distribution;

    #[test]
    fn homogeneous_population_is_identical_across_clients() {
        let pop = ClockPopulation::gaussian(25.0);
        let mut rng = StdRng::seed_from_u64(1);
        let models = pop.build(10, &mut rng);
        assert_eq!(models.len(), 10);
        for model in models.values() {
            assert_eq!(model.distribution().std_dev(), 25.0);
            assert_eq!(model.distribution().mean(), 0.0);
        }
    }

    #[test]
    fn heterogeneous_population_varies() {
        let pop = ClockPopulation::Heterogeneous {
            min_std_dev: 1.0,
            max_std_dev: 50.0,
            mean_spread: 10.0,
        };
        let mut rng = StdRng::seed_from_u64(2);
        let models = pop.build(100, &mut rng);
        let sds: Vec<f64> = models.values().map(|m| m.distribution().std_dev()).collect();
        let min = sds.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = sds.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(min >= 1.0 && max <= 50.0);
        assert!(max - min > 20.0, "expected real spread, got [{min}, {max}]");
    }

    #[test]
    fn multi_region_assignment_is_round_robin() {
        let pop = ClockPopulation::MultiRegion(vec![
            OffsetDistribution::gaussian(0.0, 1.0),
            OffsetDistribution::gaussian(0.0, 100.0),
        ]);
        let mut rng = StdRng::seed_from_u64(3);
        let models = pop.build(4, &mut rng);
        assert_eq!(models[&ClientId(0)].distribution().std_dev(), 1.0);
        assert_eq!(models[&ClientId(1)].distribution().std_dev(), 100.0);
        assert_eq!(models[&ClientId(2)].distribution().std_dev(), 1.0);
        assert_eq!(models[&ClientId(3)].distribution().std_dev(), 100.0);
    }
}

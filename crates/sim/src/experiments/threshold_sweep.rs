//! Ablation A1: the batching threshold.
//!
//! §3.4 of the paper: "A Threshold closer to 1 creates fewer and bigger
//! batches, while a Threshold closer to 0.5 creates smaller and more batches
//! … We leave the optimization of Threshold as future work and currently use
//! a value of 0.75." This sweep quantifies the trade-off: batch resolution
//! and ordering coverage go up as the threshold falls, while per-ordered-pair
//! accuracy goes up as it rises.

use crate::runner::{generate_messages, scenario_offsets};
use crate::scenario::ScenarioConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use tommy_core::config::SequencerConfig;
use tommy_core::sequencer::offline::TommySequencer;
use tommy_metrics::batchstats::BatchStats;
use tommy_metrics::pairwise::PairwiseReport;

/// One row of the threshold sweep.
#[derive(Debug, Clone, Copy)]
pub struct ThresholdRow {
    /// The batching threshold.
    pub threshold: f64,
    /// Number of batches produced.
    pub batches: usize,
    /// Normalized RAS.
    pub ras_normalized: f64,
    /// Accuracy over ordered pairs.
    pub accuracy: f64,
    /// Fraction of pairs ordered at all.
    pub coverage: f64,
    /// Batch resolution (1 = total order, 0 = single batch).
    pub resolution: f64,
}

/// Run the sweep for the given thresholds on one scenario.
pub fn run(base: &ScenarioConfig, thresholds: &[f64]) -> Vec<ThresholdRow> {
    let mut rng = StdRng::seed_from_u64(base.seed);
    let messages = generate_messages(base, &mut rng);
    let offsets = scenario_offsets(base);

    thresholds
        .iter()
        .map(|&threshold| {
            let mut sequencer =
                TommySequencer::new(SequencerConfig::default().with_threshold(threshold));
            for (client, dist) in &offsets {
                sequencer.register_client(*client, dist.clone());
            }
            let order = sequencer.sequence(&messages).expect("registered clients");
            let report = PairwiseReport::evaluate(&order, &messages);
            let stats = BatchStats::from_order(&order);
            ThresholdRow {
                threshold,
                batches: stats.batches,
                ras_normalized: report.ras.normalized(),
                accuracy: report.accuracy(),
                coverage: report.coverage(),
                resolution: stats.resolution(),
            }
        })
        .collect()
}

/// The default threshold grid used by the binary and bench.
pub fn default_thresholds() -> Vec<f64> {
    vec![0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95, 0.99]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> ScenarioConfig {
        ScenarioConfig::default()
            .with_size(30, 60)
            .with_clock_std_dev(15.0)
            .with_gap(2.0)
            .with_seed(3)
    }

    #[test]
    fn batches_decrease_as_threshold_rises() {
        let rows = run(&base(), &[0.55, 0.75, 0.95]);
        assert!(rows[0].batches >= rows[1].batches);
        assert!(rows[1].batches >= rows[2].batches);
        assert!(rows[0].coverage >= rows[2].coverage);
    }

    #[test]
    fn accuracy_rises_with_threshold() {
        let rows = run(&base(), &[0.55, 0.95]);
        assert!(
            rows[1].accuracy >= rows[0].accuracy - 1e-9,
            "accuracy {} -> {}",
            rows[0].accuracy,
            rows[1].accuracy
        );
    }

    #[test]
    fn resolution_tracks_batch_count() {
        let rows = run(&base(), &default_thresholds());
        for w in rows.windows(2) {
            assert!(w[0].resolution >= w[1].resolution - 1e-12);
        }
    }

    /// Regression: the sweep must register the scenario's actual client
    /// population (dice + honest, via `scenario_offsets`), so cyclic
    /// scenarios run instead of panicking on unregistered clients.
    #[test]
    fn cyclic_scenarios_sweep_without_panicking() {
        let rows = run(&ScenarioConfig { cyclic_fraction: 0.3, ..base() }, &[0.6, 0.9]);
        assert_eq!(rows.len(), 2);
        for row in rows {
            assert!(row.batches >= 1);
            assert!(row.coverage >= 0.0 && row.coverage <= 1.0);
        }
    }
}

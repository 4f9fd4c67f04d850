//! Client-side learning of clock-offset distributions.
//!
//! §3.3 of the paper: "If clients learn their own offset (w.r.t. the
//! sequencer's clock) distributions over several rounds of clock
//! synchronization, they can share their respective distributions with the
//! sequencer." §5 adds that robustness to regime changes (e.g. abrupt
//! temperature shifts) matters; the [`DistributionLearner`] therefore supports
//! both an unbounded accumulation mode and a sliding-window mode that forgets
//! old probes.

use std::collections::VecDeque;
use tommy_stats::distribution::OffsetDistribution;
use tommy_stats::gaussian::Gaussian;
use tommy_stats::histogram::Histogram;
use tommy_stats::moments::Moments;

/// How the learner summarizes the accumulated offset samples into a
/// distribution it can share with the sequencer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LearnedModel {
    /// Fit a Gaussian via sample mean / variance (enables the closed-form
    /// preceding probability and the transitivity guarantee of Appendix A).
    #[default]
    GaussianFit,
    /// Ship a fixed-bin histogram (robust to skew and long tails).
    Histogram {
        /// Number of bins in the shared histogram.
        bins: usize,
    },
    /// Ship the raw samples so the sequencer can build a KDE.
    Kde,
}

/// Accumulates offset samples and produces a learned [`OffsetDistribution`].
#[derive(Debug, Clone)]
pub struct DistributionLearner {
    model: LearnedModel,
    window: Option<usize>,
    samples: VecDeque<f64>,
    moments: Moments,
}

impl DistributionLearner {
    /// A learner that keeps every sample it has ever seen.
    pub fn new(model: LearnedModel) -> Self {
        DistributionLearner {
            model,
            window: None,
            samples: VecDeque::new(),
            moments: Moments::new(),
        }
    }

    /// A learner that keeps only the most recent `window` samples, adapting
    /// to synchronization-regime changes at the cost of higher variance.
    pub fn with_window(model: LearnedModel, window: usize) -> Self {
        assert!(window >= 2, "window must hold at least two samples");
        DistributionLearner {
            model,
            window: Some(window),
            samples: VecDeque::with_capacity(window),
            moments: Moments::new(),
        }
    }

    /// Number of samples currently retained.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples have been observed yet.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Record one raw offset estimate.
    pub fn record(&mut self, offset: f64) {
        assert!(offset.is_finite(), "offset estimates must be finite");
        if let Some(w) = self.window {
            if self.samples.len() == w {
                self.samples.pop_front();
            }
        }
        self.samples.push_back(offset);
        // The streaming moments are only exact in unbounded mode; in window
        // mode they are recomputed on demand.
        self.moments.push(offset);
    }

    /// Record a batch of raw offset estimates.
    pub fn record_all(&mut self, offsets: &[f64]) {
        for &o in offsets {
            self.record(o);
        }
    }

    fn window_moments(&self) -> Moments {
        if self.window.is_some() {
            let v: Vec<f64> = self.samples.iter().copied().collect();
            Moments::from_samples(&v)
        } else {
            self.moments
        }
    }

    /// Current estimate of the mean offset.
    pub fn mean(&self) -> f64 {
        self.window_moments().mean()
    }

    /// Current estimate of the offset standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.window_moments().std_dev()
    }

    /// Produce the learned distribution, or `None` if fewer than two samples
    /// have been recorded (a single probe cannot constrain a distribution).
    pub fn learned(&self) -> Option<OffsetDistribution> {
        if self.samples.len() < 2 {
            return None;
        }
        let samples: Vec<f64> = self.samples.iter().copied().collect();
        Some(match self.model {
            LearnedModel::GaussianFit => {
                let m = self.window_moments();
                // Guard against a degenerate zero-variance fit: a tiny floor
                // keeps downstream preceding probabilities well defined.
                // Samples near `±f64::MAX` overflow the fit: it saturates.
                let sd = m.std_dev().max(1e-9);
                OffsetDistribution::Gaussian(Gaussian::saturating(m.mean(), sd))
            }
            LearnedModel::Histogram { bins } => {
                let hist = Histogram::from_samples(&samples, bins);
                histogram_to_distribution(&hist)
            }
            LearnedModel::Kde => OffsetDistribution::empirical(&samples),
        })
    }
}

/// Convert a histogram into a piecewise-constant empirical distribution by
/// replaying bin centres weighted by counts into a KDE-backed empirical
/// distribution. Bins with zero counts contribute nothing.
fn histogram_to_distribution(hist: &Histogram) -> OffsetDistribution {
    let mut expanded = Vec::new();
    for (i, &c) in hist.counts().iter().enumerate() {
        // Cap the expansion so enormous histograms stay cheap: the shape is
        // what matters, not the absolute count.
        let reps = (c as usize).min(64);
        for _ in 0..reps {
            expanded.push(hist.bin_center(i));
        }
    }
    if expanded.len() < 2 {
        // Degenerate histogram: fall back to a narrow Gaussian at the mean.
        let sd = hist.variance().sqrt().max(1e-9);
        return OffsetDistribution::Gaussian(Gaussian::saturating(hist.mean(), sd));
    }
    OffsetDistribution::empirical(&expanded)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::offset::ClockModel;
    use crate::sync::{PathModel, SyncSession};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tommy_stats::distribution::Distribution;

    #[test]
    fn gaussian_fit_recovers_parameters() {
        let mut learner = DistributionLearner::new(LearnedModel::GaussianFit);
        let g = Gaussian::new(12.0, 3.0);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..20_000 {
            learner.record(g.sample(&mut rng));
        }
        let learned = learner.learned().unwrap();
        assert!((learned.mean() - 12.0).abs() < 0.1);
        assert!((learned.std_dev() - 3.0).abs() < 0.1);
        assert!(learned.is_gaussian());
    }

    #[test]
    fn too_few_samples_yield_none() {
        let mut learner = DistributionLearner::new(LearnedModel::GaussianFit);
        assert!(learner.learned().is_none());
        learner.record(1.0);
        assert!(learner.learned().is_none());
        learner.record(2.0);
        assert!(learner.learned().is_some());
    }

    #[test]
    fn window_mode_adapts_to_regime_change() {
        let mut learner = DistributionLearner::with_window(LearnedModel::GaussianFit, 500);
        let mut rng = StdRng::seed_from_u64(2);
        let old = Gaussian::new(0.0, 1.0);
        let new = Gaussian::new(50.0, 1.0);
        for _ in 0..2000 {
            learner.record(old.sample(&mut rng));
        }
        for _ in 0..600 {
            learner.record(new.sample(&mut rng));
        }
        // Only the last 500 samples (all from the new regime) are retained.
        assert_eq!(learner.len(), 500);
        assert!((learner.mean() - 50.0).abs() < 0.5, "mean = {}", learner.mean());
    }

    #[test]
    fn unbounded_mode_blends_regimes() {
        let mut learner = DistributionLearner::new(LearnedModel::GaussianFit);
        for _ in 0..1000 {
            learner.record(0.0);
        }
        for _ in 0..1000 {
            learner.record(10.0);
        }
        assert!((learner.mean() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn kde_model_captures_skew() {
        let mut learner = DistributionLearner::new(LearnedModel::Kde);
        let skewed = OffsetDistribution::shifted_log_normal(0.0, 1.0, 0.75);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..3000 {
            learner.record(skewed.sample(&mut rng));
        }
        let learned = learner.learned().unwrap();
        // The learned median should be well below the learned mean (right skew).
        let median = learned.quantile(0.5);
        assert!(median < learned.mean());
    }

    #[test]
    fn histogram_model_produces_valid_distribution() {
        let mut learner = DistributionLearner::new(LearnedModel::Histogram { bins: 64 });
        let g = Gaussian::new(-5.0, 2.0);
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..5000 {
            learner.record(g.sample(&mut rng));
        }
        let learned = learner.learned().unwrap();
        assert!((learned.mean() - -5.0).abs() < 0.5);
        assert!((learned.cdf(-5.0) - 0.5).abs() < 0.08);
    }

    #[test]
    fn end_to_end_learning_from_sync_session_is_close_to_truth() {
        // The paper notes its seeded-distribution results are an upper bound;
        // this test quantifies that the learned distribution lands close when
        // the path is symmetric.
        let truth = Gaussian::new(30.0, 6.0);
        let clock = ClockModel::from_distribution(OffsetDistribution::Gaussian(truth));
        let path = PathModel::symmetric(10.0, 0.5);
        let mut session = SyncSession::new(clock, path);
        let mut rng = StdRng::seed_from_u64(5);
        for t in 0..=4_000 {
            session.run_probe(t as f64, &mut rng);
        }

        let mut learner = DistributionLearner::new(LearnedModel::GaussianFit);
        for s in session.samples() {
            learner.record(s.offset);
        }
        let learned = learner.learned().unwrap();
        assert!((learned.mean() - 30.0).abs() < 0.5, "mean {}", learned.mean());
        assert!((learned.std_dev() - 6.0).abs() < 0.5, "sd {}", learned.std_dev());
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_offsets_rejected() {
        let mut learner = DistributionLearner::new(LearnedModel::GaussianFit);
        learner.record(f64::NAN);
    }

    /// Drift re-estimation contract (the defense layer's §3.3 loop): after a
    /// step change in the offset regime, a windowed learner converges to the
    /// new regime within exactly one window of samples — the bound the
    /// sequencer-side re-estimation relies on.
    #[test]
    fn windowed_learner_converges_within_one_window_of_drift() {
        const W: usize = 64;
        let mut learner = DistributionLearner::with_window(LearnedModel::GaussianFit, W);
        let mut rng = StdRng::seed_from_u64(11);
        let pre = Gaussian::new(0.0, 2.0);
        let post = Gaussian::new(8.0, 2.0); // a 4σ drift step
        for _ in 0..200 {
            learner.record(pre.sample(&mut rng));
        }
        let before = learner.mean();
        assert!(before.abs() < 1.0, "pre-drift mean {before}");

        // Half a window in: the estimate is mid-transition, pulled off the
        // old regime but not yet settled on the new one.
        for _ in 0..W / 2 {
            learner.record(post.sample(&mut rng));
        }
        let mid = learner.mean();
        assert!(mid > before + 2.0 && mid < 7.0, "mid-drift mean {mid}");

        // One full window after the step, every retained sample comes from
        // the new regime: the fit matches it to sampling noise.
        for _ in 0..W / 2 {
            learner.record(post.sample(&mut rng));
        }
        assert_eq!(learner.len(), W);
        let learned = learner.learned().unwrap();
        assert!((learned.mean() - 8.0).abs() < 1.0, "mean {}", learned.mean());
        assert!((learned.std_dev() - 2.0).abs() < 1.0, "sd {}", learned.std_dev());
    }
}

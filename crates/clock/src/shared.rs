//! The distribution representation a client shares with the sequencer.
//!
//! §3.3 of the paper contrasts two designs: shipping every raw probe to the
//! sequencer (communication-heavy) versus clients learning their own
//! distribution and "merely send\[ing\] their respective learned distributions
//! to the sequencer". [`SharedDistribution`] is that compact wire-friendly
//! summary; `tommy-wire` serializes it and the sequencer converts it back
//! into an [`OffsetDistribution`] for preceding-probability computation.

use tommy_stats::distribution::OffsetDistribution;
use tommy_stats::gaussian::Gaussian;

/// A compact, serializable description of a client's learned clock-offset
/// distribution.
#[derive(Debug, Clone, PartialEq)]
pub enum SharedDistribution {
    /// Gaussian summary: just mean and standard deviation.
    Gaussian {
        /// Mean offset.
        mean: f64,
        /// Offset standard deviation.
        std_dev: f64,
    },
    /// Histogram summary: uniform bins over `[lo, hi)` with raw counts.
    Histogram {
        /// Lower edge of the first bin.
        lo: f64,
        /// Upper edge of the last bin.
        hi: f64,
        /// Per-bin sample counts.
        counts: Vec<u64>,
    },
    /// Raw (possibly subsampled) offset samples; the sequencer builds a KDE.
    Samples(Vec<f64>),
}

impl SharedDistribution {
    /// Summarize an [`OffsetDistribution`] for sharing. Gaussian distributions
    /// are shared exactly; everything else is shared as raw-moment Gaussian
    /// unless the caller opts into a richer representation via
    /// [`SharedDistribution::Samples`] or [`SharedDistribution::Histogram`].
    pub fn from_distribution(dist: &OffsetDistribution) -> Self {
        use tommy_stats::distribution::Distribution as _;
        match dist {
            OffsetDistribution::Gaussian(g) => SharedDistribution::Gaussian {
                mean: g.mean(),
                std_dev: g.std_dev(),
            },
            other => SharedDistribution::Gaussian {
                mean: other.mean(),
                std_dev: other.std_dev(),
            },
        }
    }

    /// Reconstruct an [`OffsetDistribution`] usable by the sequencer.
    ///
    /// # Panics
    ///
    /// Panics if the shared payload is malformed (negative std-dev, empty or
    /// degenerate histogram/samples) — the wire layer validates payloads
    /// before handing them to this function.
    pub fn to_distribution(&self) -> OffsetDistribution {
        match self {
            SharedDistribution::Gaussian { mean, std_dev } => {
                OffsetDistribution::Gaussian(Gaussian::new(*mean, std_dev.max(0.0)))
            }
            SharedDistribution::Histogram { lo, hi, counts } => {
                assert!(hi > lo, "histogram range must be non-empty");
                assert!(!counts.is_empty(), "histogram must have bins");
                let bin_width = (hi - lo) / counts.len() as f64;
                let mut expanded = Vec::new();
                for (i, &c) in counts.iter().enumerate() {
                    let center = lo + (i as f64 + 0.5) * bin_width;
                    let reps = (c as usize).min(64);
                    for _ in 0..reps {
                        expanded.push(center);
                    }
                }
                assert!(
                    expanded.len() >= 2,
                    "histogram must contain at least two samples"
                );
                OffsetDistribution::empirical(&expanded)
            }
            SharedDistribution::Samples(samples) => {
                assert!(
                    samples.len() >= 2,
                    "sample payload must contain at least two samples"
                );
                OffsetDistribution::empirical(samples)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tommy_stats::distribution::Distribution;

    #[test]
    fn gaussian_roundtrip_is_exact() {
        let d = OffsetDistribution::gaussian(3.0, 2.0);
        let shared = SharedDistribution::from_distribution(&d);
        let back = shared.to_distribution();
        assert!((back.mean() - 3.0).abs() < 1e-12);
        assert!((back.std_dev() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn non_gaussian_defaults_to_moment_matched_gaussian() {
        let d = OffsetDistribution::laplace(1.0, 2.0);
        let shared = SharedDistribution::from_distribution(&d);
        let back = shared.to_distribution();
        assert!(back.is_gaussian());
        assert!((back.mean() - 1.0).abs() < 1e-9);
        assert!((back.variance() - 8.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_payload_reconstructs_shape() {
        // A histogram concentrated on two modes.
        let shared = SharedDistribution::Histogram {
            lo: 0.0,
            hi: 10.0,
            counts: vec![50, 0, 0, 0, 0, 0, 0, 0, 0, 50],
        };
        let d = shared.to_distribution();
        // Mean should sit between the two modes at ~5.
        assert!((d.mean() - 5.0).abs() < 0.5);
        // Mass near the modes, little in the middle.
        assert!(d.pdf(0.5) > d.pdf(5.0));
        assert!(d.pdf(9.5) > d.pdf(5.0));
    }

    #[test]
    fn samples_payload_builds_kde() {
        let shared = SharedDistribution::Samples(vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        let d = shared.to_distribution();
        assert!((d.mean() - 3.0).abs() < 0.2);
    }

    #[test]
    #[should_panic(expected = "at least two samples")]
    fn degenerate_sample_payload_rejected() {
        SharedDistribution::Samples(vec![1.0]).to_distribution();
    }
}

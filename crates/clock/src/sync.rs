//! Simulated clock-synchronization sessions.
//!
//! §5 of the paper: "Any clock synchronization protocol gives each client
//! enough information to estimate its offsets distribution." We simulate
//! NTP-style probe exchanges, at the times the caller picks, between a
//! client (with a ground-truth [`ClockModel`]) and the sequencer over an
//! asymmetric, jittery path ([`PathModel`]); the resulting [`OffsetSample`]s
//! feed the client-side learner in [`crate::learning`].

use crate::offset::ClockModel;
use crate::probe::{OffsetSample, ProbeExchange};
use rand::RngCore;
use tommy_stats::distribution::{Distribution, OffsetDistribution};

/// Delay model of the client↔sequencer path used by synchronization probes.
#[derive(Debug, Clone)]
pub struct PathModel {
    /// One-way delay distribution client → sequencer.
    pub forward: OffsetDistribution,
    /// One-way delay distribution sequencer → client.
    pub reverse: OffsetDistribution,
}

impl PathModel {
    /// A symmetric path with the given base one-way delay and jitter
    /// (modelled as a shifted exponential, the classic queueing-delay shape).
    pub fn symmetric(base_delay: f64, jitter_mean: f64) -> Self {
        assert!(base_delay >= 0.0, "delay must be non-negative");
        let d = if jitter_mean > 0.0 {
            OffsetDistribution::shifted_exponential(base_delay, 1.0 / jitter_mean)
        } else {
            OffsetDistribution::uniform(base_delay, base_delay + f64::EPSILON.max(1e-9))
        };
        PathModel {
            forward: d.clone(),
            reverse: d,
        }
    }

    fn sample_forward(&self, rng: &mut dyn RngCore) -> f64 {
        self.forward.sample(rng).max(0.0)
    }

    fn sample_reverse(&self, rng: &mut dyn RngCore) -> f64 {
        self.reverse.sample(rng).max(0.0)
    }
}

/// A simulated synchronization session between one client and the sequencer.
#[derive(Debug, Clone)]
pub struct SyncSession {
    clock: ClockModel,
    path: PathModel,
    samples: Vec<OffsetSample>,
}

impl SyncSession {
    /// A session for a client with `clock` over `path`; each probe runs at
    /// the true time handed to [`run_probe`](Self::run_probe).
    pub fn new(clock: ClockModel, path: PathModel) -> Self {
        SyncSession {
            clock,
            path,
            samples: Vec::new(),
        }
    }

    /// Execute a single probe exchange at true time `send_time`, returning
    /// the raw exchange and recording the derived offset sample.
    pub fn run_probe(&mut self, send_time: f64, rng: &mut dyn RngCore) -> ProbeExchange {
        // The realized client offset is sampled once per probe: both client
        // timestamps of one exchange see the same instantaneous offset, which
        // is what lets a symmetric path recover it exactly.
        let offset = self.clock.sample_offset(rng);
        let fwd = self.path.sample_forward(rng);
        let rev = self.path.sample_reverse(rng);

        let t0 = send_time + offset;
        // The sequencer replies the instant it receives: t2 = t1.
        let t1 = send_time + fwd;
        let recv_true = send_time + fwd + rev;
        let t3 = recv_true + offset;

        let exchange = ProbeExchange { t0, t1, t2: t1, t3 };
        self.samples.push(OffsetSample {
            offset: exchange.offset_estimate(),
            rtt: exchange.round_trip_time(),
            completed_at: recv_true,
        });
        exchange
    }

    /// All offset samples collected so far.
    pub fn samples(&self) -> &[OffsetSample] {
        &self.samples
    }

    /// Just the offset estimates (convenience for feeding the learner).
    pub fn offset_estimates(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.offset).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn symmetric_path_low_jitter_recovers_offset_distribution() {
        let clock = ClockModel::gaussian(25.0, 4.0);
        let path = PathModel::symmetric(5.0, 0.0);
        let mut session = SyncSession::new(clock, path);
        let mut rng = StdRng::seed_from_u64(42);
        for t in 0..=5_000 {
            session.run_probe(t as f64, &mut rng);
        }
        let est = session.offset_estimates();
        let n = est.len() as f64;
        let mean = est.iter().sum::<f64>() / n;
        let var = est.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        assert!((mean - 25.0).abs() < 0.3, "mean = {mean}");
        assert!((var - 16.0).abs() < 2.0, "var = {var}");
    }

    #[test]
    fn asymmetric_path_biases_estimates() {
        // Forward path is 10 units slower on average than reverse; the
        // client-offset estimate is biased by about half of that.
        let clock = ClockModel::gaussian(0.0, 0.0);
        let path = PathModel {
            forward: OffsetDistribution::uniform(14.9, 15.1),
            reverse: OffsetDistribution::uniform(4.9, 5.1),
        };
        let mut session = SyncSession::new(clock, path);
        let mut rng = StdRng::seed_from_u64(9);
        for t in 0..=1_000 {
            session.run_probe(t as f64, &mut rng);
        }
        let est = session.offset_estimates();
        let mean = est.iter().sum::<f64>() / est.len() as f64;
        assert!((mean.abs() - 5.0).abs() < 0.2, "mean = {mean}");
    }

    #[test]
    fn rtt_reflects_both_directions_and_jitter_is_nonnegative() {
        let clock = ClockModel::gaussian(3.0, 1.0);
        let path = PathModel::symmetric(2.0, 1.0);
        let mut session = SyncSession::new(clock, path);
        let mut rng = StdRng::seed_from_u64(5);
        for t in 0..=500 {
            session.run_probe(t as f64, &mut rng);
        }
        for s in session.samples() {
            assert!(s.rtt >= 4.0 - 1e-9, "rtt = {}", s.rtt);
            assert!(s.completed_at >= 4.0);
        }
    }
}

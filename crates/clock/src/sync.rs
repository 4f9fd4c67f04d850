//! Simulated clock-synchronization sessions.
//!
//! §5 of the paper: "Any clock synchronization protocol gives each client
//! enough information to estimate its offsets distribution." We simulate a
//! periodic NTP-style probe exchange between a client (with a ground-truth
//! [`ClockModel`]) and the sequencer over an asymmetric, jittery path
//! ([`PathModel`]); the resulting [`OffsetSample`]s feed the client-side
//! learner in [`crate::learning`].

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
    probe_interval: f64,
    next_probe_at: f64,
    samples: Vec<OffsetSample>,
}

impl SyncSession {
    /// Create a session that sends one probe every `probe_interval` time
    /// units of true time, starting at `start_time`.
    pub fn new(clock: ClockModel, path: PathModel, probe_interval: f64, start_time: f64) -> Self {
        assert!(probe_interval > 0.0, "probe interval must be positive");
        SyncSession {
            clock,
            path,
            probe_interval,
            next_probe_at: start_time,
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

    /// Run the periodic probe schedule up to (and including) true time
    /// `until`, returning the number of probes executed.
    pub fn run_until(&mut self, until: f64, rng: &mut dyn RngCore) -> usize {
        let mut count = 0;
        while self.next_probe_at <= until {
            let at = self.next_probe_at;
            self.run_probe(at, rng);
            self.next_probe_at += self.probe_interval;
            count += 1;
        }
        count
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
        let mut session = SyncSession::new(clock, path, 1.0, 0.0);
        let mut rng = StdRng::seed_from_u64(42);
        session.run_until(5_000.0, &mut rng);
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
        let mut session = SyncSession::new(clock, path, 1.0, 0.0);
        let mut rng = StdRng::seed_from_u64(9);
        session.run_until(1_000.0, &mut rng);
        let est = session.offset_estimates();
        let mean = est.iter().sum::<f64>() / est.len() as f64;
        assert!((mean.abs() - 5.0).abs() < 0.2, "mean = {mean}");
    }

    #[test]
    fn probe_schedule_counts() {
        let clock = ClockModel::gaussian(0.0, 0.0);
        let path = PathModel::symmetric(1.0, 0.5);
        let mut session = SyncSession::new(clock, path, 10.0, 0.0);
        let mut rng = StdRng::seed_from_u64(1);
        let count = session.run_until(99.0, &mut rng);
        assert_eq!(count, 10); // probes at t = 0, 10, ..., 90
        assert_eq!(session.samples().len(), 10);
        assert_eq!(session.next_probe_at, 100.0);
        // Running again up to the same point does nothing.
        assert_eq!(session.run_until(99.0, &mut rng), 0);
    }

    #[test]
    fn rtt_reflects_both_directions_and_jitter_is_nonnegative() {
        let clock = ClockModel::gaussian(3.0, 1.0);
        let path = PathModel::symmetric(2.0, 1.0);
        let mut session = SyncSession::new(clock, path, 1.0, 0.0);
        let mut rng = StdRng::seed_from_u64(5);
        session.run_until(500.0, &mut rng);
        for s in session.samples() {
            assert!(s.rtt >= 4.0 - 1e-9, "rtt = {}", s.rtt);
            assert!(s.completed_at >= 4.0);
        }
    }

    #[test]
    #[should_panic(expected = "probe interval must be positive")]
    fn zero_interval_rejected() {
        SyncSession::new(ClockModel::gaussian(0.0, 0.0), PathModel::symmetric(1.0, 0.0), 0.0, 0.0);
    }
}

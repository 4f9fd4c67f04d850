//! Ablation A6: learned versus oracle (seeded) offset distributions.
//!
//! §4 of the paper: "We seed the clients with clock offsets distributions,
//! instead of clients learning such distributions, so the following results
//! are an upper-bound on the performance as the errors in estimating such
//! distributions are not captured." This experiment measures that gap: each
//! client learns its distribution from a configurable number of NTP-style
//! synchronization probes run over a jittery simulated path, and the RAS of a
//! sequencer using the learned distributions is compared to one using the
//! true (oracle) distributions.

use rand::rngs::StdRng;
use rand::SeedableRng;
use tommy_clock::learning::{DistributionLearner, LearnedModel};
use tommy_clock::offset::ClockModel;
use tommy_clock::sync::{PathModel, SyncSession};
use tommy_core::config::SequencerConfig;
use tommy_core::message::ClientId;
use tommy_core::sequencer::offline::TommySequencer;
use tommy_metrics::ras::{rank_agreement_score, RasScore};
use tommy_stats::distribution::OffsetDistribution;
use tommy_workload::tagging::tag_messages;
use tommy_workload::uniform::UniformWorkload;
use std::collections::HashMap;

/// One row of the learning experiment.
#[derive(Debug, Clone, Copy)]
pub struct LearningRow {
    /// Number of synchronization probes each client learned from.
    pub probes: usize,
    /// RAS with learned distributions.
    pub learned: RasScore,
    /// RAS with oracle (true) distributions.
    pub oracle: RasScore,
}

/// Run the experiment for each probe budget.
pub fn run(
    clients: usize,
    messages: usize,
    gap: f64,
    clock_std_dev: f64,
    probe_counts: &[usize],
    seed: u64,
) -> Vec<LearningRow> {
    probe_counts
        .iter()
        .map(|&probes| run_one(clients, messages, gap, clock_std_dev, probes, seed))
        .collect()
}

fn run_one(
    clients: usize,
    messages: usize,
    gap: f64,
    clock_std_dev: f64,
    probes: usize,
    seed: u64,
) -> LearningRow {
    let mut rng = StdRng::seed_from_u64(seed);

    // Heterogeneous true clocks: per-client mean spread plus the common sigma.
    let clocks: HashMap<ClientId, ClockModel> = (0..clients as u32)
        .map(|c| {
            let mean = (c as f64 - clients as f64 / 2.0) * 0.5;
            (ClientId(c), ClockModel::gaussian(mean, clock_std_dev))
        })
        .collect();

    // Each client learns its distribution from NTP-style probes over a
    // mildly jittery path. Clients go in id order: they draw from one shared
    // rng, so the map's own iteration order would change every run's table.
    let ids = (0..clients as u32).map(ClientId);
    let mut learned: Vec<(ClientId, OffsetDistribution)> = Vec::new();
    for client in ids.clone() {
        let clock = &clocks[&client];
        let path = PathModel::symmetric(2.0, 0.5);
        let mut session = SyncSession::new(clock.clone(), path);
        let mut learner = DistributionLearner::new(LearnedModel::GaussianFit);
        for k in 0..probes {
            session.run_probe(k as f64, &mut rng);
        }
        learner.record_all(&session.offset_estimates());
        let dist = learner
            .learned()
            .unwrap_or_else(|| OffsetDistribution::gaussian(0.0, clock_std_dev));
        learned.push((client, dist));
    }

    // Workload tagged by the true clocks.
    let workload = UniformWorkload::new(clients, messages, gap).with_shuffled_clients();
    let events = workload.generate(&mut rng);
    let tagged = tag_messages(&events, &clocks, 0, &mut rng);

    // Sequencer with learned distributions.
    let mut learned_seq = TommySequencer::new(SequencerConfig::default());
    for (client, dist) in &learned {
        learned_seq.register_client(*client, dist.clone());
    }
    let learned_order = learned_seq.sequence(&tagged).expect("registered");

    // Sequencer with oracle distributions.
    let mut oracle_seq = TommySequencer::new(SequencerConfig::default());
    for client in ids {
        oracle_seq.register_client(client, clocks[&client].distribution().clone());
    }
    let oracle_order = oracle_seq.sequence(&tagged).expect("registered");

    LearningRow {
        probes,
        learned: rank_agreement_score(&learned_order, &tagged),
        oracle: rank_agreement_score(&oracle_order, &tagged),
    }
}

/// The default probe budgets.
pub fn default_probe_counts() -> Vec<usize> {
    vec![16, 64, 256, 1024]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn many_probes_recover_oracle_behaviour() {
        // With a large probe budget the learned Gaussians converge to the
        // true ones, so the learned-distribution sequencer behaves like the
        // oracle one. (With few probes it can differ in *either* direction:
        // an underestimated σ makes the sequencer overconfident, which can
        // even raise raw RAS while lowering the confidence guarantees.)
        let rows = run(12, 36, 2.0, 10.0, &[2048], 8);
        let row = &rows[0];
        assert!(
            (row.learned.normalized() - row.oracle.normalized()).abs() < 0.15,
            "learned {:?} vs oracle {:?}",
            row.learned,
            row.oracle
        );
    }

    #[test]
    fn learned_ordering_is_accurate_when_it_orders() {
        let rows = run(12, 36, 2.0, 10.0, &[64], 9);
        let row = &rows[0];
        let ordered = row.learned.correct + row.learned.incorrect;
        assert!(ordered > 0);
        let accuracy = row.learned.correct as f64 / ordered as f64;
        assert!(accuracy > 0.75, "learned accuracy {accuracy}");
    }

    /// The `learning` binary's table, pinned: the probes of all clients draw
    /// from one rng, so the rows repeat only if the clients go in a fixed
    /// order.
    #[test]
    fn table_is_pinned_per_seed() {
        let rows = run(50, 150, 2.0, 15.0, &default_probe_counts(), 23);
        let scores: Vec<(usize, i64, i64)> =
            rows.iter().map(|r| (r.probes, r.learned.score(), r.oracle.score())).collect();
        let pinned = [(16, 2579, 5890), (64, 7230, 6662), (256, 8001, 7896), (1024, 4649, 4368)];
        assert_eq!(scores, pinned);
    }

    #[test]
    fn row_per_probe_budget() {
        let rows = run(6, 12, 2.0, 5.0, &default_probe_counts(), 1);
        assert_eq!(rows.len(), 4);
    }
}

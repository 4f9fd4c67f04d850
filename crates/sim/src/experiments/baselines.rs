//! Ablation A4: the baseline spectrum (FIFO, WFO, TrueTime, Tommy).
//!
//! Figures 2–4 of the paper contrast three deployment regimes: engineered
//! equal-latency networks (FIFO is fair), negligible clock error (WFO is
//! fair), and the general case (Tommy). This experiment sweeps network jitter
//! while holding clock error fixed and reports the RAS of all four
//! sequencers, with message *arrival* order produced by the network
//! simulator.

use crate::baselines::{FifoSequencer, TrueTimeSequencer, WfoSequencer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use tommy_core::config::SequencerConfig;
use tommy_core::message::ClientId;
use tommy_core::registry::DistributionRegistry;
use tommy_core::sequencer::offline::TommySequencer;
use tommy_metrics::ras::{rank_agreement_score, RasScore};
use tommy_netsim::channel::DeliveryChannel;
use tommy_netsim::link::LinkModel;
use tommy_netsim::time::SimTime;
use tommy_stats::distribution::OffsetDistribution;
use tommy_workload::population::ClockPopulation;
use tommy_workload::tagging::tag_messages_monotone;
use tommy_workload::uniform::UniformWorkload;

/// One row of the baseline comparison.
#[derive(Debug, Clone, Copy)]
pub struct BaselineRow {
    /// Mean network jitter used for delivery to the sequencer.
    pub network_jitter: f64,
    /// FIFO (arrival-order) sequencer RAS.
    pub fifo: RasScore,
    /// WaitsForOne sequencer RAS.
    pub wfo: RasScore,
    /// TrueTime baseline RAS.
    pub truetime: RasScore,
    /// Tommy RAS.
    pub tommy: RasScore,
}

/// Run the sweep over network jitter values.
pub fn run(
    clients: usize,
    messages: usize,
    gap: f64,
    clock_std_dev: f64,
    jitters: &[f64],
    seed: u64,
) -> Vec<BaselineRow> {
    jitters
        .iter()
        .map(|&jitter| run_one(clients, messages, gap, clock_std_dev, jitter, seed))
        .collect()
}

fn run_one(
    clients: usize,
    messages: usize,
    gap: f64,
    clock_std_dev: f64,
    jitter: f64,
    seed: u64,
) -> BaselineRow {
    let mut rng = StdRng::seed_from_u64(seed);
    let population = ClockPopulation::gaussian(clock_std_dev);
    let clocks = population.build(clients, &mut rng);
    let workload = UniformWorkload::new(clients, messages, gap).with_shuffled_clients();
    let events = workload.generate(&mut rng);
    let tagged = tag_messages_monotone(&events, &clocks, 0, &mut rng);

    // Deliver every message to the sequencer over a per-client ordered
    // channel with the configured jitter; FIFO ranks by these arrival times.
    let mut channels: Vec<DeliveryChannel> = (0..clients)
        .map(|_| DeliveryChannel::ordered(LinkModel::jittered(1.0, jitter)))
        .collect();
    let mut fifo = FifoSequencer::new();
    for m in &tagged {
        let arrival = channels[m.client.0 as usize]
            .send(SimTime::new(m.true_time.expect("tagged")), &mut rng);
        fifo.submit(m.clone(), arrival.as_f64());
    }
    let fifo_order = fifo.sequence();

    // WFO.
    let client_ids: Vec<ClientId> = (0..clients as u32).map(ClientId).collect();
    let wfo_order = WfoSequencer::sequence_offline(&client_ids, &tagged).expect("known clients");

    // TrueTime + Tommy with oracle Gaussian distributions.
    let mut registry = DistributionRegistry::new();
    let mut tommy = TommySequencer::new(SequencerConfig::default());
    for c in 0..clients as u32 {
        let dist = OffsetDistribution::gaussian(0.0, clock_std_dev);
        registry.register(ClientId(c), dist.clone());
        tommy.register_client(ClientId(c), dist);
    }
    let truetime_order = TrueTimeSequencer::new(&registry)
        .sequence(&tagged)
        .expect("registered");
    let tommy_order = tommy.sequence(&tagged).expect("registered");

    BaselineRow {
        network_jitter: jitter,
        fifo: rank_agreement_score(&fifo_order, &tagged),
        wfo: rank_agreement_score(&wfo_order, &tagged),
        truetime: rank_agreement_score(&truetime_order, &tagged),
        tommy: rank_agreement_score(&tommy_order, &tagged),
    }
}

/// The default jitter grid.
pub fn default_jitters() -> Vec<f64> {
    vec![0.0, 1.0, 5.0, 20.0]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_is_fair_only_without_jitter() {
        let rows = run(20, 60, 1.0, 0.0, &[0.0, 20.0], 3);
        // With perfect clocks and no jitter every sequencer is perfect.
        assert!(rows[0].fifo.normalized() > 0.95);
        // Heavy jitter reorders arrivals: FIFO degrades, timestamp-based
        // sequencers (with perfect clocks) do not.
        assert!(rows[1].fifo.normalized() < rows[0].fifo.normalized());
        assert!(rows[1].wfo.normalized() > 0.95);
        assert!(rows[1].tommy.normalized() > 0.95);
    }

    #[test]
    fn tommy_dominates_the_conservative_and_arrival_baselines() {
        let rows = run(20, 60, 1.0, 30.0, &[10.0], 4);
        let row = &rows[0];
        // Tommy's raw RAS is at least TrueTime's (the paper's comparison),
        // and the pairs it does commit to are ordered with high accuracy,
        // unlike a blind total order whose every inversion costs a point.
        assert!(row.tommy.score() >= row.truetime.score());
        let ordered = row.tommy.correct + row.tommy.incorrect;
        assert!(ordered > 0, "Tommy ordered no pairs at all");
        let accuracy = row.tommy.correct as f64 / ordered as f64;
        assert!(accuracy > 0.75, "tommy accuracy {accuracy}");
    }

    #[test]
    fn one_row_per_jitter_value() {
        let rows = run(10, 20, 1.0, 5.0, &default_jitters(), 1);
        assert_eq!(rows.len(), 4);
    }
}

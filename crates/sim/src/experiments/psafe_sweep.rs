//! Ablation A2: the `p_safe` latency/confidence trade-off.
//!
//! §3.5 of the paper: "The parameter p_safe presents a trade-off between
//! latency of emitting a batch and certainty of fairness." This experiment
//! drives the online sequencer with a uniform message stream delivered over a
//! jittery simulated network and reports, for each `p_safe`, the mean
//! emission latency and the number of fairness violations (late messages
//! that confidently belonged in an already-emitted batch).

use crate::runner::Drive;
use crate::scenario::ScenarioConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use tommy_core::config::SequencerConfig;
use tommy_core::message::{ClientId, Message, MessageId};
use tommy_core::sequencer::online::OnlineSequencer;
use tommy_metrics::ras::RasScore;
use tommy_netsim::channel::DeliveryChannel;
use tommy_netsim::link::LinkModel;
use tommy_netsim::time::SimTime;
use tommy_stats::distribution::OffsetDistribution;
use tommy_workload::population::ClockPopulation;
use tommy_workload::schedule::StreamEvent;
use tommy_workload::uniform::UniformWorkload;

/// One row of the `p_safe` sweep.
#[derive(Debug, Clone, Copy)]
pub struct PsafeRow {
    /// The safe-emission confidence used.
    pub p_safe: f64,
    /// Mean emission latency (arrival → emission) over emitted messages.
    pub mean_emission_latency: f64,
    /// Number of fairness violations observed.
    pub fairness_violations: usize,
    /// RAS of the emitted order against ground truth.
    pub ras: RasScore,
    /// Number of messages emitted before the final flush.
    pub emitted_before_flush: usize,
}

/// Network and heartbeat parameters of the online experiment.
#[derive(Debug, Clone, Copy)]
pub struct OnlineSetup {
    /// Mean one-way network delay from clients to the sequencer.
    pub base_delay: f64,
    /// Mean exponential jitter on top of the base delay.
    pub jitter: f64,
    /// Interval between client heartbeats.
    pub heartbeat_interval: f64,
}

impl Default for OnlineSetup {
    fn default() -> Self {
        OnlineSetup {
            base_delay: 2.0,
            jitter: 1.0,
            heartbeat_interval: 5.0,
        }
    }
}

/// Run the online sequencer once for each `p_safe` value.
pub fn run(base: &ScenarioConfig, setup: &OnlineSetup, p_safes: &[f64]) -> Vec<PsafeRow> {
    p_safes
        .iter()
        .map(|&p_safe| run_one(base, setup, p_safe))
        .collect()
}

fn run_one(base: &ScenarioConfig, setup: &OnlineSetup, p_safe: f64) -> PsafeRow {
    let mut rng = StdRng::seed_from_u64(base.seed);

    // Workload and clocks.
    let population = ClockPopulation::gaussian(base.clock_std_dev);
    let clocks = population.build(base.clients, &mut rng);
    let workload =
        UniformWorkload::new(base.clients, base.messages, base.inter_message_gap)
            .with_shuffled_clients()
            .with_start(10.0);
    let events = workload.generate(&mut rng);

    // Online sequencer with oracle distributions, run in bounded-memory
    // mode: batches are drained with `take_emitted` as they appear and the
    // fair order is accumulated on the caller's side.
    let config = SequencerConfig::default()
        .with_threshold(base.threshold)
        .with_p_safe(p_safe)
        .with_retain_history(false);
    let mut sequencer = OnlineSequencer::new(config);
    for c in 0..base.clients as u32 {
        sequencer.register_client(
            ClientId(c),
            OffsetDistribution::gaussian(0.0, base.clock_std_dev),
        );
    }

    // Per-client event streams: messages plus periodic heartbeats, in send
    // (true-time) order, timestamped by a *monotone* local clock — a client
    // never reports a timestamp smaller than one it already reported, which
    // is what makes the sequencer's watermark rule sound.
    #[derive(Clone, Copy)]
    enum ClientEvent {
        Msg(usize), // index into `events`
        Heartbeat,
    }
    let horizon = events.iter().map(|e| e.true_time).fold(0.0f64, f64::max)
        + 20.0 * setup.heartbeat_interval;
    let mut messages: Vec<Message> = Vec::with_capacity(events.len());
    // This schedule's channel decides each arrival itself, so the events
    // carry the arrival time and are replayed with no further delay.
    let mut arrivals: Vec<StreamEvent> = Vec::new();
    for c in 0..base.clients as u32 {
        let client = ClientId(c);
        let clock = &clocks[&client];
        // Gather this client's sends in true-time order.
        let mut sends: Vec<(f64, ClientEvent)> = events
            .iter()
            .enumerate()
            .filter(|(_, e)| e.client == client)
            .map(|(i, e)| (e.true_time, ClientEvent::Msg(i)))
            .collect();
        let mut t = 10.0;
        while t < horizon {
            sends.push((t, ClientEvent::Heartbeat));
            t += setup.heartbeat_interval;
        }
        sends.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite times"));

        let mut channel =
            DeliveryChannel::ordered(LinkModel::jittered(setup.base_delay, setup.jitter));
        let mut last_ts = f64::NEG_INFINITY;
        for (send_time, event) in sends {
            // Monotone local clock reading at send time.
            let reading = send_time + clock.sample_offset(&mut rng);
            let timestamp = reading.max(last_ts);
            last_ts = timestamp;
            let arrival = channel.send(SimTime::new(send_time), &mut rng).as_f64();
            match event {
                ClientEvent::Msg(event_idx) => {
                    let message = Message::with_true_time(
                        MessageId(messages.len() as u64),
                        client,
                        timestamp,
                        events[event_idx].true_time,
                    );
                    messages.push(message.clone());
                    arrivals.push(StreamEvent::Submit {
                        message,
                        sent_at: arrival,
                    });
                }
                ClientEvent::Heartbeat => arrivals.push(StreamEvent::Heartbeat {
                    client,
                    timestamp,
                    sent_at: arrival,
                }),
            }
        }
    }
    arrivals.sort_by(|a, b| a.sent_at().partial_cmp(&b.sent_at()).expect("finite times"));

    let mut drive = Drive::default();
    drive.replay(&mut sequencer, &arrivals, 0.0);
    // The trailing heartbeats release batches no submission drains.
    drive.collect(sequencer.take_emitted());
    let emitted_before_flush = drive.emitted();
    sequencer.flush();
    drive.collect(sequencer.take_emitted());

    let stats = sequencer.stats();
    PsafeRow {
        p_safe,
        mean_emission_latency: stats.mean_emission_latency(),
        fairness_violations: stats.fairness_violations,
        ras: drive.score(messages).ras,
        emitted_before_flush,
    }
}

/// The default `p_safe` grid.
pub fn default_p_safes() -> Vec<f64> {
    vec![0.9, 0.99, 0.999, 0.9999]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> ScenarioConfig {
        ScenarioConfig::default()
            .with_size(10, 40)
            .with_clock_std_dev(3.0)
            .with_gap(2.0)
            .with_seed(5)
    }

    #[test]
    fn all_messages_are_sequenced() {
        let rows = run(&base(), &OnlineSetup::default(), &[0.99]);
        assert_eq!(rows.len(), 1);
        let row = &rows[0];
        assert_eq!(row.ras.pairs(), 40 * 39 / 2);
    }

    #[test]
    fn higher_p_safe_waits_longer() {
        let rows = run(&base(), &OnlineSetup::default(), &[0.9, 0.9999]);
        assert!(
            rows[1].mean_emission_latency >= rows[0].mean_emission_latency,
            "latency {} -> {}",
            rows[0].mean_emission_latency,
            rows[1].mean_emission_latency
        );
    }

    #[test]
    fn emitted_order_is_reasonably_fair() {
        let rows = run(&base(), &OnlineSetup::default(), &[0.999]);
        assert!(rows[0].ras.normalized() > 0.3, "ras = {:?}", rows[0].ras);
    }
}

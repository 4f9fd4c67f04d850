//! The scaffolding the integration suites share: census builders, the
//! honest-stream drivers `tests/collusion_defense.rs` feeds the defense
//! with, and the small-model spec the checker suites start from.
//! Differential runs across engines are the oracle's ([`crate::oracle`]).

use rand::rngs::StdRng;
use tommy_core::config::SequencerConfig;
use tommy_core::message::{ClientId, Message, MessageId};
use tommy_core::sequencer::online::OnlineSequencer;
use tommy_core::sequencer::register_all;
use tommy_stats::distribution::{Distribution, OffsetDistribution};

use crate::checker::ModelSpec;

/// A census of `clients` zero-mean Gaussian clients with a common σ.
pub fn gaussian_census(clients: usize, sigma: f64) -> Vec<(ClientId, OffsetDistribution)> {
    (0..clients as u32)
        .map(|c| (ClientId(c), OffsetDistribution::gaussian(0.0, sigma)))
        .collect()
}

/// One honest message: client's clock error drawn from its own claimed
/// distribution, arriving after its (sequencer-unknown) link delay. Returns
/// the message and its arrival time.
pub fn honest_message(
    id: u64,
    client: ClientId,
    truth: f64,
    dist: &OffsetDistribution,
    delay: f64,
    rng: &mut StdRng,
) -> (Message, f64) {
    let ts = truth + dist.sample(rng);
    (
        Message::with_true_time(MessageId(id), client, ts, truth),
        truth + delay,
    )
}

/// Drive a round-robin honest stream through a defended sequencer and
/// return it for counter inspection. `delays[c]` is client `c`'s constant
/// link delay; per-client generation spacing is `4 · clients`, wide enough
/// to keep honest timestamps monotone for the σ the suites use.
pub fn run_honest(
    seed: u64,
    dists: &[(ClientId, OffsetDistribution)],
    delays: &[f64],
    rounds: u64,
    config: SequencerConfig,
) -> OnlineSequencer {
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut seq = OnlineSequencer::new(config);
    register_all(&mut seq, dists);
    let clients = dists.len() as u64;
    let mut id = 0;
    for round in 0..rounds {
        for (c, (client, dist)) in dists.iter().enumerate() {
            let truth = (round * clients + c as u64) as f64 * 4.0;
            let (msg, arrival) = honest_message(id, *client, truth, dist, delays[c], &mut rng);
            seq.submit(msg, arrival).expect("registered, unique id");
            id += 1;
        }
    }
    seq
}

/// The small-model census the checker suites share: three clients with
/// moderate clocks (σ = 2).
pub fn model_offsets() -> Vec<(ClientId, OffsetDistribution)> {
    gaussian_census(3, 2.0)
}

/// The small-model stream: two well-separated messages per client, with
/// fixed sub-σ noise so every schedule stays deterministic.
pub fn model_messages() -> Vec<Message> {
    let noise = [0.4, -0.7, 1.1, -0.2, 0.9, -1.3];
    noise
        .iter()
        .enumerate()
        .map(|(i, off)| {
            let truth = 10.0 + 15.0 * i as f64;
            Message::with_true_time(
                MessageId(i as u64),
                ClientId((i % 3) as u32),
                truth + off,
                truth,
            )
        })
        .collect()
}

/// The small-model spec over [`model_offsets`] and [`model_messages`],
/// bounded to two in-flight deliveries.
pub fn model_spec() -> ModelSpec {
    ModelSpec::new(model_offsets(), model_messages()).with_max_in_flight(2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use tommy_core::sequencer::sharded::ShardedSequencer;
    use tommy_core::sequencer::StreamEngine;
    use tommy_sim::runner::defended_config;
    use tommy_workload::schedule::{close_stream, Schedule, StreamEvent, DELIVERY_DELAY};

    #[test]
    fn census_and_model_builders_are_stable() {
        let census = gaussian_census(3, 2.0);
        assert_eq!(census.len(), 3);
        assert_eq!(census, model_offsets());
        let messages = model_messages();
        assert_eq!(messages.len(), 6);
        for pair in messages.windows(2) {
            assert!(pair[0].true_time < pair[1].true_time);
        }
        let report = model_spec().check().expect("well-formed model");
        assert!(report.ok(), "violations: {:?}", report.violations);
    }

    /// The schedule is the §4 policy: true-time order, C − 1 heartbeats per
    /// delivery, one monotone clock per client, a horizon past every message.
    #[test]
    fn schedule_resolves_heartbeats_clamps_and_horizon() {
        let clients: Vec<ClientId> = (0..3).map(ClientId).collect();
        let msg = |id, client, ts, truth| Message::with_true_time(MessageId(id), ClientId(client), ts, truth);
        // Generated out of send order; message 1's clock reads behind the
        // heartbeat its client sent alongside message 0.
        let stream = vec![msg(1, 1, 8.0, 20.0), msg(0, 0, 11.0, 10.0), msg(2, 0, 9.0, 30.0)];
        let schedule = Schedule::resolve(&clients, stream, 100.0);

        assert_eq!(schedule.events.len(), 3 * 3);
        assert_eq!(schedule.events.iter().filter(|e| e.is_submit()).count(), 3);
        let sent: Vec<f64> = schedule.events.iter().map(StreamEvent::sent_at).collect();
        assert!(sent.windows(2).all(|w| w[0] <= w[1]), "send order: {sent:?}");
        assert_eq!(
            schedule.events[0],
            StreamEvent::Heartbeat { client: ClientId(1), timestamp: 10.0, sent_at: 10.0 }
        );
        let stamps: Vec<f64> = schedule.messages.iter().map(|m| m.timestamp).collect();
        assert_eq!(stamps, vec![11.0, 10.0, 20.0], "clamped to each client's floor");
        assert_eq!(schedule.horizon, 20.0 + 100.0);
        assert_eq!(schedule.clients, clients);

        // Replaying the list is the whole drive: every message comes out.
        let mut engine = OnlineSequencer::new(SequencerConfig::default());
        register_all(&mut engine, &gaussian_census(3, 1.0));
        for event in &schedule.events {
            event.apply(&mut engine, DELIVERY_DELAY).expect("clamped schedule is valid");
        }
        let mut out = engine.drain();
        out.extend(close_stream(&mut engine, &schedule.clients, schedule.horizon));
        assert_eq!(out.iter().map(|b| b.messages.len()).sum::<usize>(), 3);
        assert_eq!((engine.undrained(), engine.stats().messages_emitted), (0, 3));
    }

    #[test]
    fn stream_engine_drives_the_sharded_wrapper() {
        let offsets = gaussian_census(4, 1.0);
        let mut sharded = ShardedSequencer::new(SequencerConfig::default().with_shards(2));
        register_all(&mut sharded, &offsets);
        let clients: Vec<ClientId> = offsets.iter().map(|(c, _)| *c).collect();
        let mut total = 0;
        for i in 0..24u64 {
            let t = i as f64 * 5.0;
            let m = Message::new(MessageId(i), ClientId((i % 4) as u32), t);
            for &client in &clients {
                if client != m.client {
                    sharded.heartbeat_at(client, t, t + 1.0).expect("heartbeat");
                }
            }
            sharded.submit_at(m, t + 1.0).expect("valid");
            sharded.pump(t + 1.0);
            total += sharded.drain().iter().map(|b| b.messages.len()).sum::<usize>();
        }
        total += close_stream(&mut sharded, &clients, 10_000.0)
            .iter()
            .map(|b| b.messages.len())
            .sum::<usize>();
        assert_eq!(total, 24, "every message emitted exactly once");
    }

    #[test]
    fn run_honest_emits_and_stays_trusted() {
        let dists = gaussian_census(3, 2.0);
        let seq = run_honest(5, &dists, &[1.0, 1.5, 2.0], 10, defended_config());
        let stats = seq.stats();
        assert_eq!(stats.quarantines, 0, "{stats:?}");
        let mut rng = StdRng::seed_from_u64(1);
        let (msg, arrival) = honest_message(999, ClientId(0), 1e6, &dists[0].1, 1.0, &mut rng);
        assert_eq!(msg.client, ClientId(0));
        assert_eq!(arrival, 1e6 + 1.0);
    }
}

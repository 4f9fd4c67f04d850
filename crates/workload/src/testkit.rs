//! Test-support helpers shared by the integration suites.
//!
//! The equivalence, defense and fault suites under `tests/` all need the
//! same scaffolding: build a census, register it into one or more engines,
//! drive identical event streams through them in lockstep, close the stream
//! (far-future heartbeats → tick → flush), and compare emitted batches
//! bitwise. This module is that scaffolding, factored out once so
//! `tests/sparse_dense_equivalence.rs`, `tests/collusion_defense.rs`,
//! `tests/fault_invariants.rs` and `tests/sharded_equivalence.rs` stop
//! copy-pasting it.
//!
//! The [`StreamEngine`] trait is the common surface the helpers drive:
//! implemented by both the single-engine [`OnlineSequencer`] and the
//! sharded `ShardedSequencer`, so a differential harness can run one of
//! each through the same schedule with the same code. It lives in
//! `tommy_core::sequencer` (the model checker drives it too) and is
//! re-exported here.
//!
//! The §4 delivery schedule itself is data: [`Schedule::resolve`] turns a
//! generated stream into a flat [`StreamEvent`] list once, and every driver
//! (the sim runner, the fault runner's send phase, the lockstep suites)
//! replays that list instead of re-deriving it.

use rand::rngs::StdRng;
use std::collections::HashMap;
use tommy_core::checker::ModelSpec;
use tommy_core::config::{FastPathMode, SequencerConfig};
use tommy_core::defense::{DefenseConfig, ExpectedDelay};
use tommy_core::error::CoreError;
use tommy_core::message::{ClientId, Message, MessageId};
use tommy_core::sequencer::online::{EmittedBatch, OnlineSequencer};
pub use tommy_core::sequencer::{register_all, StreamEngine};
use tommy_stats::distribution::{Distribution, OffsetDistribution};

/// A census of `clients` zero-mean Gaussian clients with a common σ.
pub fn gaussian_census(clients: usize, sigma: f64) -> Vec<(ClientId, OffsetDistribution)> {
    (0..clients as u32)
        .map(|c| (ClientId(c), OffsetDistribution::gaussian(0.0, sigma)))
        .collect()
}

/// An `Auto` sequencer and its `ForceDense` twin over the same census — the
/// sparse ≡ dense differential pair.
pub fn paired_engines(
    offsets: &[(ClientId, OffsetDistribution)],
) -> (OnlineSequencer, OnlineSequencer) {
    let mut auto = OnlineSequencer::new(SequencerConfig::default());
    let mut dense =
        OnlineSequencer::new(SequencerConfig::default().with_fast_path(FastPathMode::ForceDense));
    register_all(&mut auto, offsets);
    register_all(&mut dense, offsets);
    (auto, dense)
}

/// The defended configuration the defense suite runs and whose `defense`
/// block the sim runners reuse: small windows so the defense reaches
/// verdicts within short streams, online delay estimation so heterogeneous
/// links don't shift residuals.
pub fn defended_config() -> SequencerConfig {
    SequencerConfig::new().with_p_safe(0.99).with_defense(
        DefenseConfig::enabled()
            .with_window(24)
            .with_min_samples(12)
            .with_check_interval(4)
            .with_expected_delay(ExpectedDelay::Online),
    )
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

/// Assert two freshly drained batch sequences are bit-identical — ids,
/// ranks, safe-emission times, emission clocks. Returns how many messages
/// the sequences carried (counted once).
pub fn assert_batches_bit_identical(a: &[EmittedBatch], b: &[EmittedBatch], ctx: &str) -> usize {
    assert_eq!(a.len(), b.len(), "batch count diverged at {ctx}");
    let mut messages = 0;
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.rank, y.rank, "rank diverged at {ctx}");
        assert_eq!(x.message_ids(), y.message_ids(), "batch diverged at {ctx}");
        assert_eq!(
            x.safe_after.to_bits(),
            y.safe_after.to_bits(),
            "safe-emission time diverged at {ctx}"
        );
        assert_eq!(
            x.emitted_at.to_bits(),
            y.emitted_at.to_bits(),
            "emission clock diverged at {ctx}"
        );
        messages += x.messages.len();
    }
    messages
}

/// Drain two engines and assert the freshly emitted batches are
/// bit-identical. Returns how many messages were emitted this step.
pub fn drain_lockstep<A: StreamEngine, B: StreamEngine>(a: &mut A, b: &mut B, ctx: &str) -> usize {
    let x = a.drain();
    let y = b.drain();
    assert_batches_bit_identical(&x, &y, ctx)
}

/// Assert two single-engine twins agree on the maintained order *and* on
/// every batch boundary over the current pending set.
pub fn assert_boundaries_agree(a: &mut OnlineSequencer, b: &mut OnlineSequencer, ctx: &str) {
    assert_eq!(
        a.pending_order(),
        b.pending_order(),
        "pending order / boundary set diverged at {ctx}"
    );
}

/// The constant one-way delay of the §4 direct-delivery schedule.
pub const DELIVERY_DELAY: f64 = 1.0;

/// One input of a resolved delivery schedule, stamped with its *send*
/// (true) time: a direct driver adds its delivery delay on
/// [`apply`](Self::apply), a simulated network is handed the send time.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamEvent {
    /// `client` reports its local clock reading `timestamp`.
    Heartbeat {
        /// The reporting client.
        client: ClientId,
        /// Its (monotone-clamped) local clock reading.
        timestamp: f64,
        /// True time the heartbeat was sent.
        sent_at: f64,
    },
    /// A client submits `message` (timestamp monotone-clamped).
    Submit {
        /// The clamped message.
        message: Message,
        /// True time the message was sent.
        sent_at: f64,
    },
}

impl StreamEvent {
    /// True time the event was sent.
    pub fn sent_at(&self) -> f64 {
        match self {
            StreamEvent::Heartbeat { sent_at, .. } | StreamEvent::Submit { sent_at, .. } => *sent_at,
        }
    }

    /// Whether this is a message submission.
    pub fn is_submit(&self) -> bool {
        matches!(self, StreamEvent::Submit { .. })
    }

    /// Deliver the event to `engine`, arriving `delay` after it was sent.
    pub fn apply<E: StreamEngine>(&self, engine: &mut E, delay: f64) -> Result<(), CoreError> {
        match self {
            StreamEvent::Heartbeat {
                client,
                timestamp,
                sent_at,
            } => engine.heartbeat_at(*client, *timestamp, sent_at + delay),
            StreamEvent::Submit { message, sent_at } => {
                engine.submit_at(message.clone(), sent_at + delay)
            }
        }
    }
}

/// Sort a generated stream into send (true-time) order; ties keep their
/// generation order.
pub fn sort_by_true_time(stream: &mut [Message]) {
    stream.sort_by(|a, b| {
        let ta = a.true_time.expect("generated messages carry true times");
        let tb = b.true_time.expect("generated messages carry true times");
        ta.partial_cmp(&tb).expect("finite true times")
    });
}

/// The §4 delivery schedule of one stream, resolved once: what every client
/// sends and when, plus what the close and the scorer need.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// Every heartbeat and submission, in send order.
    pub events: Vec<StreamEvent>,
    /// The submitted messages in send order, with the clamped timestamps the
    /// engines saw — the set RAS scores against.
    pub messages: Vec<Message>,
    /// The census, in registration order.
    pub clients: Vec<ClientId>,
    /// A timestamp past everything pending: the largest clamped message
    /// timestamp plus the margin [`Schedule::resolve`] was given. Hand it to
    /// [`close_stream`].
    pub horizon: f64,
}

impl Schedule {
    /// Resolve `stream` into the schedule every §4 run delivers: messages in
    /// true-time order, and alongside each one every *other* client
    /// heartbeats its reading of the current true time. Each client's merged
    /// sequence of message timestamps and heartbeat readings is clamped
    /// monotone (the paper's ordered-channel assumption, which is what makes
    /// the watermark rule sound).
    pub fn resolve(clients: &[ClientId], mut stream: Vec<Message>, horizon_margin: f64) -> Schedule {
        sort_by_true_time(&mut stream);
        let mut floors: HashMap<ClientId, f64> = HashMap::new();
        let mut clamp = |client: ClientId, reading: f64| {
            let floor = floors.entry(client).or_insert(f64::NEG_INFINITY);
            *floor = reading.max(*floor);
            *floor
        };
        let mut events = Vec::with_capacity(stream.len() * clients.len());
        let mut messages = Vec::with_capacity(stream.len());
        for delivery in stream {
            let sent_at = delivery.true_time.expect("sorted by true time");
            for &client in clients.iter().filter(|&&c| c != delivery.client) {
                events.push(StreamEvent::Heartbeat {
                    client,
                    timestamp: clamp(client, sent_at),
                    sent_at,
                });
            }
            let timestamp = clamp(delivery.client, delivery.timestamp);
            let message = Message::with_true_time(delivery.id, delivery.client, timestamp, sent_at);
            messages.push(message.clone());
            events.push(StreamEvent::Submit { message, sent_at });
        }
        let horizon = messages.iter().map(|m| m.timestamp).fold(0.0f64, f64::max) + horizon_margin;
        Schedule {
            events,
            messages,
            clients: clients.to_vec(),
            horizon,
        }
    }
}

/// Close a stream the way every suite does: heartbeat each client far past
/// the pending horizon, tick the clock there, flush the stragglers, and
/// drain. Returns the batches released by the close.
pub fn close_stream<E: StreamEngine>(
    engine: &mut E,
    clients: &[ClientId],
    horizon: f64,
) -> Vec<EmittedBatch> {
    for &client in clients {
        engine
            .heartbeat_at(client, horizon, horizon)
            .expect("registered client heartbeat");
    }
    engine.tick_at(horizon);
    engine.flush_all();
    engine.drain()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use tommy_core::sequencer::sharded::ShardedSequencer;

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

    #[test]
    fn lockstep_helpers_accept_identical_twins() {
        let offsets = gaussian_census(3, 1.0);
        let (mut auto, mut dense) = paired_engines(&offsets);
        let mut emitted = 0;
        for i in 0..20u64 {
            let t = i as f64 * 5.0;
            let m = Message::new(MessageId(i), ClientId((i % 3) as u32), t);
            auto.submit_at(m.clone(), t + 1.0).expect("valid");
            dense.submit_at(m, t + 1.0).expect("valid");
            for (client, _) in &offsets {
                auto.heartbeat_at(*client, t, t + 1.0).expect("heartbeat");
                dense.heartbeat_at(*client, t, t + 1.0).expect("heartbeat");
            }
            emitted += drain_lockstep(&mut auto, &mut dense, "step");
            assert_boundaries_agree(&mut auto, &mut dense, "step");
        }
        let clients: Vec<ClientId> = offsets.iter().map(|(c, _)| *c).collect();
        let a = close_stream(&mut auto, &clients, 10_000.0);
        let d = close_stream(&mut dense, &clients, 10_000.0);
        emitted += assert_batches_bit_identical(&a, &d, "close");
        assert_eq!(emitted, 20);
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

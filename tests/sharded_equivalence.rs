//! Named regressions of the sharded wrapper. The lockstep contracts
//! against the single engine — K = 1 bit-identical, K > 1 the same released
//! set with dense ranks and a bounded RAS gap, shard-order independence,
//! synchronous duplicate rejection — are the differential oracle's
//! (`tommy_contract::oracle`); what stays here pins one scenario each:
//!
//! * with K = 4 the merged order really interleaves shards;
//! * a crashed client is evicted by its own shard's liveness detector, and
//!   by the combiner when it is alone in its shard;
//! * the bounded duplicate set of `retain_history(false)`.

use rand::rngs::StdRng;
use rand::SeedableRng;
use tommy_contract::properties::bit_identical;
use tommy_contract::testkit::gaussian_census;
use tommy_core::config::{LivenessConfig, SequencerConfig};
use tommy_core::error::CoreError;
use tommy_core::message::{ClientId, Message, MessageId};
use tommy_core::sequencer::online::{EmittedBatch, OnlineSequencer};
use tommy_core::sequencer::sharded::ShardedSequencer;
use tommy_core::sequencer::{register_all, StreamEngine};
use tommy_sim::runner::{generate_messages, scenario_claimed_offsets};
use tommy_sim::ScenarioConfig;
use tommy_stats::distribution::OffsetDistribution;
use tommy_workload::schedule::{close_stream, Schedule, DELIVERY_DELAY};

/// Cross-shard pairs exist and are scored: with K = 4 and a round-robin
/// assignment, the merged order must actually interleave shards (not
/// degenerate to per-shard runs).
#[test]
fn multi_shard_output_interleaves_shards() {
    let scenario = ScenarioConfig::default()
        .with_size(12, 90)
        .with_clock_std_dev(3.0)
        .with_gap(4.0)
        .with_seed(11);
    let offsets = scenario_claimed_offsets(&scenario);
    let clients: Vec<ClientId> = offsets.iter().map(|(c, _)| *c).collect();
    let stream = generate_messages(&scenario, &mut StdRng::seed_from_u64(scenario.seed));
    let schedule = Schedule::resolve(&clients, stream, 3_000.0);
    let config = SequencerConfig::default().with_p_safe(0.99).with_retain_history(false);
    let mut sharded = ShardedSequencer::new(config.with_shards(4));
    register_all(&mut sharded, &offsets);
    for event in &schedule.events {
        event.apply(&mut sharded, DELIVERY_DELAY).expect("valid event");
        if event.is_submit() {
            sharded.pump(event.sent_at() + DELIVERY_DELAY);
        }
    }
    let mut batches = sharded.drain();
    batches.extend(close_stream(&mut sharded, &schedule.clients, schedule.horizon));
    let shard_of = |m: &Message| sharded.shard_of(m.client).expect("registered");
    let members = batches.iter().flat_map(|b| &b.messages);
    let shards_in_order: Vec<usize> = members.map(shard_of).collect();
    let switches = shards_in_order.windows(2).filter(|w| w[0] != w[1]).count();
    assert!(
        switches > batches.len() / 2,
        "emission order barely interleaves shards: {switches} switches"
    );
}

/// A crashed client is evicted by its own shard's liveness detector, and the
/// combiner must then stop waiting for it too: client 3 heartbeats once and
/// goes silent, the other three keep a well-separated stream flowing, and
/// nothing closes the stream — whatever comes out was released past the
/// crashed client.
fn crashed_client_run<E: StreamEngine>(engine: &mut E) -> Vec<EmittedBatch> {
    register_all(engine, &gaussian_census(4, 1.0));
    engine.heartbeat_at(ClientId(3), 0.0, 0.0).expect("heartbeat");
    let mut out = Vec::new();
    for i in 0..200u64 {
        let t = 10.0 * (i + 1) as f64;
        let speaker = (i % 3) as u32;
        engine
            .submit_at(Message::new(MessageId(i), ClientId(speaker), t), t)
            .expect("valid submission");
        for c in (0..3u32).filter(|&c| c != speaker) {
            engine.heartbeat_at(ClientId(c), t, t).expect("heartbeat");
        }
        engine.pump(t);
        out.extend(engine.drain());
    }
    out
}

#[test]
fn evicted_client_stops_constraining_the_cross_shard_frontier() {
    let config = SequencerConfig::default().with_liveness(LivenessConfig::enabled(50.0));
    let mut single = OnlineSequencer::new(config);
    let reference = crashed_client_run(&mut single);
    assert_eq!(single.stats().evictions, 1);
    let reference_len: usize = reference.iter().map(|b| b.messages.len()).sum();
    assert!(reference_len >= 190, "single engine released {reference_len}");

    for shards in [1usize, 2] {
        let mut sharded = ShardedSequencer::new(config.with_shards(shards));
        let released = crashed_client_run(&mut sharded);
        assert!(sharded.take_rejections().is_empty());
        assert_eq!(sharded.stats().evictions, 1, "K={shards}");
        if shards == 1 {
            bit_identical(&reference, &released).expect("crashed client, K=1");
        } else {
            let mut ids: Vec<MessageId> = released.iter().flat_map(|b| b.message_ids()).collect();
            ids.sort();
            ids.dedup();
            assert!(
                ids.len() >= 190,
                "K={shards}: {} of 200 messages released before any flush",
                ids.len()
            );
        }
    }
}

/// A crashed client *alone* in its shard: that shard holds nothing pending,
/// so its own emission gate never stalls and never runs the eviction rule,
/// while the silent client's floor holds every other shard's batches back.
/// The combiner runs the blocking shard's rule on its own clock, so K = 4
/// releases before any flush what K = 1 does, with the same one eviction.
#[test]
fn crashed_client_alone_in_its_shard_is_evicted() {
    let config = SequencerConfig::default().with_liveness(LivenessConfig::enabled(20.0));
    let run = |shards: usize| {
        let mut seq = ShardedSequencer::new(config.with_shards(shards));
        register_all(&mut seq, &gaussian_census(4, 1.0));
        let mut released = 0;
        for i in 0..200u64 {
            // Round robin over the four clients until client 3 goes silent
            // after t = 50, over the other three from then on.
            let t = (i + 1) as f64;
            let live = if t <= 50.0 { 4 } else { 3 };
            let speaker = (i % live) as u32;
            let message = Message::new(MessageId(i), ClientId(speaker), t);
            seq.submit(message, t).expect("valid submission");
            for c in (0..live as u32).filter(|&c| c != speaker) {
                seq.heartbeat(ClientId(c), t, t).expect("heartbeat");
            }
            released += seq.drive(t).iter().map(|b| b.messages.len()).sum::<usize>();
        }
        assert!(seq.take_rejections().is_empty());
        (released, seq.stats().evictions)
    };
    let (single, evictions) = run(1);
    assert_eq!(evictions, 1);
    assert!(single >= 190, "K=1 released {single} of 200");
    let (sharded, evictions) = run(4);
    assert_eq!(evictions, 1, "K=4 never evicted the crashed client");
    assert!(
        sharded >= single,
        "K=4 released {sharded} of 200 before any flush, K=1 {single}"
    );
}

/// With `retain_history(false)` the wrapper's duplicate set is bounded by
/// what it still holds — pending and staged ids — like the single engine's,
/// not by the length of the stream.
#[test]
fn duplicate_set_is_bounded_without_history() {
    let clients = 4u32;
    type Check<'a> = &'a mut dyn FnMut(&ShardedSequencer, usize);
    let stream = |seq: &mut ShardedSequencer, messages: u64, check: Check| {
        for c in 0..clients {
            seq.register_client(ClientId(c), OffsetDistribution::gaussian(0.0, 2.0));
        }
        let mut released = 0usize;
        for i in 0..messages {
            let t = 5.0 * (i + 1) as f64;
            let speaker = (i % u64::from(clients)) as u32;
            seq.submit(Message::new(MessageId(i), ClientId(speaker), t), t)
                .expect("valid submission");
            for c in (0..clients).filter(|&c| c != speaker) {
                seq.heartbeat(ClientId(c), t, t).expect("heartbeat");
            }
            seq.drive(t);
            released += seq.take_emitted().iter().map(|b| b.messages.len()).sum::<usize>();
            check(seq, i as usize + 1 - released);
        }
        assert!(seq.take_rejections().is_empty());
    };

    let bounded = SequencerConfig::default().with_shards(2).with_retain_history(false);
    let mut seq = ShardedSequencer::new(bounded);
    let mut peak = 0usize;
    stream(&mut seq, 5_000, &mut |seq, unreleased| {
        // Everything accepted and not yet released is pending or staged.
        assert!(seq.pending_len() <= unreleased);
        assert!(seq.tracked_ids() <= unreleased, "{} ids tracked", seq.tracked_ids());
        peak = peak.max(seq.tracked_ids());
    });
    assert!(peak < 100, "duplicate set peaked at {peak} ids over 5000 messages");
    // A rejected id can still be resubmitted (a backwards timestamp here).
    seq.submit(Message::new(MessageId(9_000), ClientId(0), 1.0), 30_000.0)
        .expect("queued");
    seq.drive(30_000.0);
    assert_eq!(seq.take_rejections().len(), 1);
    seq.submit(Message::new(MessageId(9_000), ClientId(0), 30_000.0), 30_001.0)
        .expect("a rejected id is forgotten");
    seq.flush();
    assert_eq!(seq.tracked_ids(), 0, "everything released, nothing tracked");

    // With history retained, a duplicate of a released id is still caught.
    let mut seq = ShardedSequencer::new(bounded.with_retain_history(true));
    stream(&mut seq, 200, &mut |_, _| {});
    assert!(seq.tracked_ids() >= 190);
    assert!(matches!(
        seq.submit(Message::new(MessageId(0), ClientId(0), 30_000.0), 30_000.0),
        Err(CoreError::DuplicateMessage(MessageId(0)))
    ));
}

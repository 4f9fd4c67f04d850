//! Sharded ≡ single-engine differential harness (the multi-core tentpole).
//!
//! Every workload family the repo exercises — Gaussian, mixed-census,
//! cyclic, adversarial, faulty — is driven through a [`ShardedSequencer`]
//! at K ∈ {1, 2, 4} in lockstep with a single-engine reference over the
//! *identical* delivery schedule (same clamped timestamps, same heartbeat
//! discipline, same stream close). The harness pins:
//!
//! * **K = 1 is a bit-identical passthrough** — every batch (ids, ranks,
//!   safe-emission times, emission clocks) and every counter agrees with
//!   the reference exactly;
//! * **K > 1 preserves the emission set** — no loss, no duplication, dense
//!   ascending global ranks, per-client emission monotonicity;
//! * **the cross-shard fairness cost is bounded** — the merged order's RAS
//!   stays within [`CROSS_SHARD_RAS_GAP`] of the single-engine score, the
//!   quantified price of the merge watermark's margin rule;
//! * **determinism** — identical reruns are bit-identical, and the
//!   combiner's watermark handoff is insensitive to shard scheduling
//!   (serial drive permutations, rotating per-step schedules, and the
//!   threaded drive all produce the same output);
//! * **liveness under load** — a register/submit/tick/retire stress run at
//!   K = 4 keeps every counter invariant and drains completely;
//! * **the combiner sees what its shells see** — a *defended* family, whose
//!   shells re-register a quarantined client behind the wrapper's back, a
//!   crashed client evicted by its shard's liveness detector, and the
//!   bounded duplicate set of `retain_history(false)`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use tommy_contract::testkit::{assert_batches_bit_identical, gaussian_census};
use tommy_core::batching::FairOrder;
use tommy_core::config::{LivenessConfig, SequencerConfig};
use tommy_core::error::CoreError;
use tommy_core::message::{ClientId, Message, MessageId};
use tommy_core::sequencer::online::{EmittedBatch, OnlineSequencer, OnlineStats};
use tommy_core::sequencer::sharded::ShardedSequencer;
use tommy_core::sequencer::{register_all, StreamEngine};
use tommy_metrics::rank_agreement_score;
use tommy_sim::runner::{defended_config, generate_messages, scenario_claimed_offsets};
use tommy_sim::ScenarioConfig;
use tommy_stats::distribution::OffsetDistribution;
use tommy_workload::schedule::{close_stream, sort_by_true_time, Schedule};
use tommy_workload::{AttackFamily, AttackPlan};

/// Shard counts every family is checked at.
const SHARD_COUNTS: [usize; 3] = [1, 2, 4];

/// Upper bound on the normalized-RAS cost of the cross-shard merge vs the
/// single-engine reference, uniform across every workload family. The
/// merge watermark turns uncertain cross-shard pairs into rank-equal
/// indifference (score 0) instead of deciding them, and bounds every
/// decided cross-shard pair's inversion probability by the threshold — so
/// the gap stays a modest fraction of the cross-pair share rather than
/// collapsing toward zero. Measured gaps across the five families sit
/// under 0.10; the bound leaves slack for seed drift without ever
/// tolerating an unbounded fairness regression.
const CROSS_SHARD_RAS_GAP: f64 = 0.15;

/// The constant one-way delay of the harness's reliable schedule.
const NETWORK_DELAY: f64 = 1.0;

/// A deterministic perturbation of the delivery schedule for the faulty
/// family: which deliveries are dropped and which are offered twice.
#[derive(Clone, Copy, Default)]
struct Perturbation {
    drop_every: usize,
    duplicate_every: usize,
}

/// What one engine produced over a schedule.
struct RunOutput {
    batches: Vec<EmittedBatch>,
    stats: OnlineStats,
}

/// One workload family: its claimed census and raw generated stream.
struct Family {
    name: &'static str,
    offsets: Vec<(ClientId, OffsetDistribution)>,
    stream: Vec<Message>,
    sigma_max: f64,
    /// Run both engines with the untrusted-distribution defense on and
    /// require it to reach a quarantine.
    defended: bool,
}

impl Family {
    fn from_scenario(name: &'static str, config: &ScenarioConfig) -> Family {
        let mut rng = StdRng::seed_from_u64(config.seed);
        Family {
            name,
            offsets: scenario_claimed_offsets(config),
            stream: generate_messages(config, &mut rng),
            sigma_max: config.clock_std_dev.max(1.0),
            defended: false,
        }
    }
}

fn gaussian_family() -> Family {
    Family::from_scenario(
        "gaussian",
        &ScenarioConfig::default()
            .with_size(12, 90)
            .with_clock_std_dev(3.0)
            .with_gap(4.0)
            .with_seed(11),
    )
}

fn cyclic_family() -> Family {
    Family::from_scenario(
        "cyclic",
        &ScenarioConfig::default()
            .with_size(9, 80)
            .with_clock_std_dev(2.0)
            .with_gap(2.0)
            .with_seed(13)
            .with_cyclic_fraction(0.3),
    )
}

fn adversarial_family() -> Family {
    Family::from_scenario(
        "adversarial",
        &ScenarioConfig::default()
            .with_size(8, 90)
            .with_clock_std_dev(3.0)
            .with_gap(6.0)
            .with_seed(17)
            .with_adversarial(AttackPlan::new(AttackFamily::Misreport, 0.5).with_scale(3.0)),
    )
}

/// The adversarial census over a stream long enough for the defense to reach
/// a verdict: the misreporting clients are quarantined *inside* their shard's
/// shell, which re-registers them onto the fallback distribution — the one
/// path where the combiner's keys must follow a mean the wrapper never saw.
fn defended_family() -> Family {
    let mut family = Family::from_scenario(
        "defended",
        &ScenarioConfig::default()
            .with_size(8, 400)
            .with_clock_std_dev(3.0)
            .with_gap(6.0)
            .with_seed(17)
            .with_adversarial(AttackPlan::new(AttackFamily::Misreport, 0.5).with_scale(3.0)),
    );
    family.defended = true;
    family
}

/// A census mixing Gaussian and non-closed-form (Laplace) clients: the
/// sharded combiner collapses its merge window to 0 and the per-shard
/// engines ride the dense path.
fn mixed_census_family() -> Family {
    let mut offsets: Vec<(ClientId, OffsetDistribution)> = (0..4u32)
        .map(|c| (ClientId(c), OffsetDistribution::gaussian(0.0, 2.0)))
        .collect();
    offsets.push((ClientId(4), OffsetDistribution::laplace(0.0, 1.5)));
    offsets.push((ClientId(5), OffsetDistribution::laplace(0.5, 2.0)));
    let mut rng = StdRng::seed_from_u64(19);
    let mut stream = Vec::new();
    let mut t = 0.0f64;
    for i in 0..90u64 {
        t += rng.random_range(1.0..6.0);
        let (client, dist) = &offsets[rng.random_range(0..offsets.len())];
        let noise: f64 = match dist {
            OffsetDistribution::Gaussian(_) => rng.random_range(-2.0..2.0),
            _ => rng.random_range(-1.5..1.5),
        };
        stream.push(Message::with_true_time(
            MessageId(i),
            *client,
            t + noise,
            t,
        ));
    }
    Family {
        name: "mixed-census",
        offsets,
        stream,
        sigma_max: 2.0,
        defended: false,
    }
}

/// The Gaussian family's stream under a deterministic loss + duplication
/// perturbation, applied identically to both engines.
fn faulty_family() -> (Family, Perturbation) {
    let mut family = gaussian_family();
    family.name = "faulty";
    (
        family,
        Perturbation {
            drop_every: 7,
            duplicate_every: 5,
        },
    )
}

fn all_families() -> Vec<(Family, Perturbation)> {
    let mut families = vec![
        (gaussian_family(), Perturbation::default()),
        (mixed_census_family(), Perturbation::default()),
        (cyclic_family(), Perturbation::default()),
        (adversarial_family(), Perturbation::default()),
        (defended_family(), Perturbation::default()),
    ];
    families.push(faulty_family());
    families
}

/// How a lockstep run schedules the sharded engine's drives.
#[derive(Clone, Copy)]
enum DriveMode {
    /// The production path: `drive` (threaded above the spawn threshold).
    Parallel,
    /// Serial drives in a fixed shard order.
    Fixed,
    /// Serial drives in a per-step rotating shard order — the
    /// schedule-permutation surface over the combiner's watermark handoff.
    Rotating,
}

/// Drive a single-engine reference and a K-shard wrapper through the same
/// delivery schedule in lockstep and return both outputs plus the clamped
/// message set the run actually submitted (for RAS scoring).
fn lockstep_run(
    family: &Family,
    shards: usize,
    perturbation: Perturbation,
    mode: DriveMode,
) -> (RunOutput, RunOutput, Vec<Message>, Vec<usize>) {
    let config = match family.defended {
        true => defended_config(),
        false => SequencerConfig::default().with_p_safe(0.99),
    }
    .with_retain_history(false);
    let mut single = OnlineSequencer::new(config);
    let mut sharded = ShardedSequencer::new(config.with_shards(shards));
    for (client, dist) in &family.offsets {
        single.register_client(*client, dist.clone());
        sharded.register_client(*client, dist.clone());
    }
    let client_ids: Vec<ClientId> = family.offsets.iter().map(|(c, _)| *c).collect();
    let shard_of: Vec<usize> = client_ids
        .iter()
        .map(|c| sharded.shard_of(*c).expect("registered"))
        .collect();

    // Drops are decided on the send-ordered stream, before it is resolved:
    // a dropped delivery sends nothing, its heartbeats included.
    let mut deliveries = family.stream.clone();
    sort_by_true_time(&mut deliveries);
    let (steps, kept): (Vec<usize>, Vec<Message>) = deliveries
        .into_iter()
        .enumerate()
        .filter(|(step, _)| perturbation.drop_every == 0 || step % perturbation.drop_every != 3)
        .unzip();
    let schedule = Schedule::resolve(&client_ids, kept, 1_000.0 * family.sigma_max);

    let order: Vec<usize> = (0..sharded.shard_count()).collect();
    let drive = |sharded: &mut ShardedSequencer, now: f64, step: usize| match mode {
        DriveMode::Parallel => {
            sharded.drive(now);
        }
        DriveMode::Fixed => {
            sharded.drive_with_shard_order(now, &order);
        }
        DriveMode::Rotating => {
            let mut rotated = order.clone();
            rotated.rotate_left(step % order.len().max(1));
            sharded.drive_with_shard_order(now, &rotated);
        }
    };

    let mut single_out: Vec<EmittedBatch> = Vec::new();
    let mut sharded_out: Vec<EmittedBatch> = Vec::new();
    let mut steps = steps.into_iter();
    for event in &schedule.events {
        event.apply(&mut single, NETWORK_DELAY).expect("valid event");
        event.apply(&mut sharded, NETWORK_DELAY).expect("valid event");
        if !event.is_submit() {
            continue;
        }
        let step = steps.next().expect("one step per submission");
        if perturbation.duplicate_every != 0 && step % perturbation.duplicate_every == 2 {
            // The duplicate offer must be rejected synchronously by BOTH
            // engines — the wrapper's global id set mirrors the single
            // engine's.
            assert!(matches!(
                event.apply(&mut single, NETWORK_DELAY),
                Err(CoreError::DuplicateMessage(_))
            ));
            assert!(matches!(
                event.apply(&mut sharded, NETWORK_DELAY),
                Err(CoreError::DuplicateMessage(_))
            ));
        }
        drive(&mut sharded, event.sent_at() + NETWORK_DELAY, step);
        single_out.extend(single.take_emitted());
        sharded_out.extend(sharded.take_emitted());
    }

    // Close both streams identically.
    single_out.extend(close_stream(&mut single, &schedule.clients, schedule.horizon));
    sharded_out.extend(close_stream(&mut sharded, &schedule.clients, schedule.horizon));
    assert!(
        sharded.take_rejections().is_empty(),
        "{}: the clamped schedule must not be rejected asynchronously",
        family.name
    );
    assert_eq!(sharded.pending_len(), 0, "{}: flush must drain", family.name);

    (
        RunOutput {
            batches: single_out,
            stats: single.stats(),
        },
        RunOutput {
            batches: sharded_out,
            stats: sharded.stats(),
        },
        schedule.messages,
        shard_of,
    )
}

/// Normalized RAS of a batch sequence against the scored message set.
fn ras_of(batches: &[EmittedBatch], messages: &[Message]) -> f64 {
    let mut order = FairOrder::default();
    for batch in batches {
        order.push_batch(batch.message_ids());
    }
    rank_agreement_score(&order, messages).normalized()
}

/// The K > 1 invariants every family must satisfy: identical emission set,
/// no duplicates, dense ascending ranks, per-client monotonicity, bounded
/// RAS gap.
fn assert_equivalent(
    family: &Family,
    shards: usize,
    single: &RunOutput,
    sharded: &RunOutput,
    messages: &[Message],
) {
    let ctx = format!("{} K={shards}", family.name);

    // Emission-set equality, no loss, no duplication.
    let mut single_ids: Vec<MessageId> =
        single.batches.iter().flat_map(|b| b.message_ids()).collect();
    let mut sharded_ids: Vec<MessageId> =
        sharded.batches.iter().flat_map(|b| b.message_ids()).collect();
    assert_eq!(sharded_ids.len(), messages.len(), "{ctx}: loss or duplication");
    single_ids.sort();
    sharded_ids.sort();
    assert_eq!(single_ids, sharded_ids, "{ctx}: emission sets differ");
    sharded_ids.dedup();
    assert_eq!(sharded_ids.len(), messages.len(), "{ctx}: duplicate emission");

    // Dense ascending global ranks.
    for (i, batch) in sharded.batches.iter().enumerate() {
        assert_eq!(batch.rank, i, "{ctx}: ranks must be dense and ascending");
    }

    // Per-client emission monotonicity.
    let mut last: HashMap<ClientId, f64> = HashMap::new();
    for batch in &sharded.batches {
        for m in &batch.messages {
            if let Some(&prev) = last.get(&m.client) {
                assert!(
                    m.timestamp >= prev,
                    "{ctx}: {:?} emitted {} after {}",
                    m.client,
                    m.timestamp,
                    prev
                );
            }
            last.insert(m.client, m.timestamp);
        }
    }

    // Counters: everything emitted, and the combiner actually merged.
    assert_eq!(sharded.stats.messages_emitted, messages.len(), "{ctx}");
    assert_eq!(
        sharded.stats.messages_emitted, single.stats.messages_emitted,
        "{ctx}"
    );
    assert!(sharded.stats.shard_merges > 0, "{ctx}: combiner idle");
    assert!(sharded.stats.cross_shard_evals > 0, "{ctx}");
    if family.defended {
        assert!(sharded.stats.quarantines >= 1, "{ctx}: defense idle");
    }

    // Quantified fairness cost of the merge.
    let gap = ras_of(&single.batches, messages) - ras_of(&sharded.batches, messages);
    assert!(
        gap <= CROSS_SHARD_RAS_GAP,
        "{ctx}: RAS gap {gap} exceeds the {CROSS_SHARD_RAS_GAP} bound"
    );
}

/// The headline matrix: all six families × K ∈ {1, 2, 4}. K = 1 must be a
/// bit-identical passthrough (batches *and* stats); K > 1 must preserve the
/// emission set with a bounded fairness cost.
#[test]
fn all_families_are_equivalent_across_shard_counts() {
    for (family, perturbation) in all_families() {
        for shards in SHARD_COUNTS {
            let (single, sharded, messages, _) =
                lockstep_run(&family, shards, perturbation, DriveMode::Parallel);
            if family.defended {
                assert!(single.stats.quarantines >= 1, "{}: defense idle", family.name);
            }
            if shards == 1 {
                assert_batches_bit_identical(
                    &single.batches,
                    &sharded.batches,
                    &format!("{} K=1", family.name),
                );
                assert_eq!(
                    single.stats, sharded.stats,
                    "{}: K=1 stats must be bit-identical",
                    family.name
                );
            } else {
                assert_equivalent(&family, shards, &single, &sharded, &messages);
            }
        }
    }
}

/// Seed stability: rerunning the same family at the same K reproduces the
/// batch sequence bit for bit — the threaded drive cannot leak scheduling
/// into the output.
#[test]
fn sharded_runs_are_seed_stable() {
    for (family, perturbation) in all_families() {
        let (_, a, _, _) = lockstep_run(&family, 4, perturbation, DriveMode::Parallel);
        let (_, b, _, _) = lockstep_run(&family, 4, perturbation, DriveMode::Parallel);
        assert_batches_bit_identical(&a.batches, &b.batches, family.name);
        assert_eq!(a.stats, b.stats, "{}", family.name);
    }
}

/// The watermark handoff is schedule-independent: the threaded drive, the
/// fixed serial order, and a per-step rotating order all release the same
/// batches bit for bit. (Nightly-only thread sanitizers can't run here;
/// this permutation surface is the deterministic stand-in that would catch
/// an order-dependent merge.)
#[test]
fn drive_schedule_permutations_do_not_change_output() {
    for (family, perturbation) in all_families() {
        let (_, parallel, _, _) = lockstep_run(&family, 4, perturbation, DriveMode::Parallel);
        let (_, fixed, _, _) = lockstep_run(&family, 4, perturbation, DriveMode::Fixed);
        let (_, rotating, _, _) = lockstep_run(&family, 4, perturbation, DriveMode::Rotating);
        assert_batches_bit_identical(
            &parallel.batches,
            &fixed.batches,
            &format!("{}: parallel vs fixed", family.name),
        );
        assert_batches_bit_identical(
            &fixed.batches,
            &rotating.batches,
            &format!("{}: fixed vs rotating", family.name),
        );
        assert_eq!(parallel.stats, fixed.stats, "{}", family.name);
        assert_eq!(fixed.stats, rotating.stats, "{}", family.name);
    }
}

/// Cross-shard pairs exist and are scored: with K = 4 and a round-robin
/// assignment, the merged order must actually interleave shards (not
/// degenerate to per-shard runs).
#[test]
fn multi_shard_output_interleaves_shards() {
    let family = gaussian_family();
    let (_, sharded, _, shard_of) =
        lockstep_run(&family, 4, Perturbation::default(), DriveMode::Parallel);
    let shards_in_order: Vec<usize> = sharded
        .batches
        .iter()
        .flat_map(|b| b.messages.iter().map(|m| shard_of[m.client.0 as usize]))
        .collect();
    let switches = shards_in_order.windows(2).filter(|w| w[0] != w[1]).count();
    assert!(
        switches > sharded.batches.len() / 2,
        "emission order barely interleaves shards: {switches} switches"
    );
}

/// Stress: hammer register/submit/tick/retire at K = 4 with a growing
/// client set and assert the counter invariants — everything accepted is
/// emitted exactly once, the pending set drains, imbalance stays bounded
/// by the routing spread, and late registrations join cleanly.
#[test]
fn stress_register_submit_tick_keeps_counter_invariants() {
    let mut rng = StdRng::seed_from_u64(23);
    let mut seq = ShardedSequencer::new(
        SequencerConfig::default()
            .with_p_safe(0.99)
            .with_retain_history(false)
            .with_shards(4),
    );
    let mut clients: Vec<ClientId> = Vec::new();
    for c in 0..6u32 {
        let client = ClientId(c);
        seq.register_client(client, OffsetDistribution::gaussian(0.0, 2.0));
        clients.push(client);
    }
    let mut floors: HashMap<ClientId, f64> = HashMap::new();
    let mut accepted = 0usize;
    let mut emitted = 0usize;
    let mut t = 0.0f64;
    for i in 0..400u64 {
        t += rng.random_range(0.2..3.0);
        // Occasionally grow the population mid-stream.
        if i % 97 == 96 {
            let client = ClientId(6 + (i / 97) as u32);
            seq.register_client(client, OffsetDistribution::gaussian(0.0, 2.0));
            clients.push(client);
        }
        let client = clients[rng.random_range(0..clients.len())];
        let floor = floors.get(&client).copied().unwrap_or(f64::NEG_INFINITY);
        let ts = (t + rng.random_range(-2.0..2.0f64)).max(floor);
        floors.insert(client, ts);
        seq.submit(Message::new(MessageId(i), client, ts), t + 1.0)
            .expect("registered, unique id");
        accepted += 1;
        // Duplicate ids are rejected synchronously even across shards.
        assert!(matches!(
            seq.submit(Message::new(MessageId(i), ClientId(0), ts), t + 1.0),
            Err(CoreError::DuplicateMessage(_))
        ));
        if i % 3 == 0 {
            for &c in &clients {
                let floor = floors.get(&c).copied().unwrap_or(f64::NEG_INFINITY);
                let ts = t.max(floor);
                floors.insert(c, ts);
                seq.heartbeat(c, ts, t + 1.0).expect("heartbeat");
            }
        }
        if i % 7 == 0 {
            seq.tick(t + 1.0);
        } else {
            seq.drive(t + 1.0);
        }
        emitted += seq.take_emitted().iter().map(|b| b.messages.len()).sum::<usize>();
    }
    // Unknown clients are rejected synchronously.
    assert!(matches!(
        seq.submit(Message::new(MessageId(9_999), ClientId(99), t), t + 1.0),
        Err(CoreError::UnknownClient(_))
    ));
    // Close out: far-future heartbeats, tick, flush.
    let horizon = t + 10_000.0;
    for &c in &clients {
        seq.heartbeat(c, horizon, horizon).expect("heartbeat");
    }
    seq.tick(horizon);
    seq.flush();
    emitted += seq.take_emitted().iter().map(|b| b.messages.len()).sum::<usize>();
    assert!(seq.take_rejections().is_empty(), "clamped stream never rejects");

    assert_eq!(emitted, accepted, "everything accepted is emitted exactly once");
    assert_eq!(seq.pending_len(), 0, "flush drains every shard");
    let stats = seq.stats();
    assert_eq!(stats.messages_emitted, accepted, "{stats:?}");
    assert!(stats.shard_merges > 0, "{stats:?}");
    assert!(stats.cross_shard_evals > 0, "{stats:?}");
    assert!(stats.max_pending > 0, "{stats:?}");
    assert!(
        stats.shard_imbalance < accepted,
        "imbalance must stay below the routed total: {stats:?}"
    );
    // Retire a client and keep going: the frontier stops waiting for it.
    let retired = clients[0];
    seq.retire_client(retired);
    let mut t2 = horizon;
    for i in 0..40u64 {
        t2 += 1.0;
        let client = clients[1 + (i as usize % (clients.len() - 1))];
        let floor = floors.get(&client).copied().unwrap_or(f64::NEG_INFINITY);
        seq.submit(
            Message::new(MessageId(10_000 + i), client, t2.max(floor)),
            t2 + 1.0,
        )
        .expect("live client");
        floors.insert(client, t2.max(floor));
        for &c in &clients[1..] {
            let floor = floors.get(&c).copied().unwrap_or(f64::NEG_INFINITY);
            let ts = t2.max(floor);
            floors.insert(c, ts);
            seq.heartbeat(c, ts, t2 + 1.0).expect("heartbeat");
        }
        seq.drive(t2 + 1.0);
    }
    seq.flush();
    let post = seq
        .take_emitted()
        .iter()
        .map(|b| b.messages.len())
        .sum::<usize>();
    assert_eq!(post, 40, "the retired client no longer blocks the frontier");
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
            assert_batches_bit_identical(&reference, &released, "crashed client, K=1");
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

//! Property-based tests of the core fair-ordering invariants, run through
//! the public API of the umbrella crate.
//!
//! These were originally written against `proptest`; the offline build
//! container cannot fetch it, so each property is driven by seeded randomized
//! cases instead (same invariants, deterministic per seed).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tommy::prelude::*;
use tommy_contract::reference;

const CASES: u64 = 64;

/// Random (client id, timestamp) pairs: between 2 and 39 messages.
fn arbitrary_messages(rng: &mut StdRng, max_clients: u32) -> Vec<(u32, f64)> {
    let n = rng.random_range(2usize..40);
    (0..n)
        .map(|_| {
            (
                rng.random_range(0..max_clients),
                rng.random_range(-1_000.0..1_000.0f64),
            )
        })
        .collect()
}

fn to_messages(raw: &[(u32, f64)]) -> Vec<Message> {
    raw.iter()
        .enumerate()
        .map(|(i, (c, t))| Message::new(MessageId(i as u64), ClientId(*c), *t))
        .collect()
}

/// Every sequenced message appears in exactly one batch and ranks are
/// contiguous from zero.
#[test]
fn batching_partitions_the_input() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let raw = arbitrary_messages(&mut rng, 8);
        let sigma = rng.random_range(0.1..50.0f64);
        let mut sequencer = TommySequencer::new(SequencerConfig::default());
        for c in 0..8u32 {
            sequencer.register_client(ClientId(c), OffsetDistribution::gaussian(0.0, sigma));
        }
        let messages = to_messages(&raw);
        let order = sequencer.sequence(&messages).unwrap();

        assert_eq!(order.num_messages(), messages.len());
        let mut seen = std::collections::HashSet::new();
        for (rank, batch) in order.batches().iter().enumerate() {
            assert_eq!(batch.rank, rank);
            assert!(!batch.is_empty());
            for id in &batch.messages {
                assert!(seen.insert(*id), "message {id} in two batches (seed {seed})");
            }
        }
        assert_eq!(seen.len(), messages.len());
    }
}

/// With identical Gaussian clocks, the extracted linear order never inverts
/// two messages whose timestamps differ (the earlier-stamped message never
/// lands in a strictly later batch than a later-stamped one).
#[test]
fn ranks_never_contradict_timestamps_for_identical_clocks() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(1_000 + seed);
        let raw = arbitrary_messages(&mut rng, 6);
        let sigma = rng.random_range(0.5..30.0f64);
        let mut sequencer = TommySequencer::new(SequencerConfig::default());
        for c in 0..6u32 {
            sequencer.register_client(ClientId(c), OffsetDistribution::gaussian(0.0, sigma));
        }
        let messages = to_messages(&raw);
        let order = sequencer.sequence(&messages).unwrap();
        for a in &messages {
            for b in &messages {
                if a.timestamp < b.timestamp {
                    let ra = order.rank_of(a.id).unwrap();
                    let rb = order.rank_of(b.id).unwrap();
                    assert!(
                        ra <= rb,
                        "{} (T={}) ranked {} after {} (T={}) ranked {} (seed {})",
                        a.id,
                        a.timestamp,
                        ra,
                        b.id,
                        b.timestamp,
                        rb,
                        seed
                    );
                }
            }
        }
    }
}

/// The preceding probability is complementary: p(a,b) + p(b,a) = 1, and the
/// Gaussian closed form always lies in [0, 1].
#[test]
fn preceding_probability_is_complementary() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(2_000 + seed);
        let t1 = rng.random_range(-1_000.0..1_000.0f64);
        let t2 = rng.random_range(-1_000.0..1_000.0f64);
        let sigma1 = rng.random_range(0.1..100.0f64);
        let sigma2 = rng.random_range(0.1..100.0f64);
        let mean1 = rng.random_range(-50.0..50.0f64);
        let mean2 = rng.random_range(-50.0..50.0f64);
        let mut registry = DistributionRegistry::new();
        registry.register(ClientId(0), OffsetDistribution::gaussian(mean1, sigma1));
        registry.register(ClientId(1), OffsetDistribution::gaussian(mean2, sigma2));
        let a = Message::new(MessageId(0), ClientId(0), t1);
        let b = Message::new(MessageId(1), ClientId(1), t2);
        let p_ab = registry.preceding_probability(&a, &b).unwrap();
        let p_ba = registry.preceding_probability(&b, &a).unwrap();
        assert!((0.0..=1.0).contains(&p_ab));
        assert!((p_ab + p_ba - 1.0).abs() < 1e-9, "seed {seed}");
    }
}

/// Raising the threshold never increases the number of batches.
#[test]
fn higher_threshold_never_creates_more_batches() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(3_000 + seed);
        let raw = arbitrary_messages(&mut rng, 6);
        let sigma = rng.random_range(0.5..40.0f64);
        let messages = to_messages(&raw);
        let mut counts = Vec::new();
        for threshold in [0.6, 0.75, 0.9] {
            let mut sequencer =
                TommySequencer::new(SequencerConfig::default().with_threshold(threshold));
            for c in 0..6u32 {
                sequencer.register_client(ClientId(c), OffsetDistribution::gaussian(0.0, sigma));
            }
            counts.push(sequencer.sequence(&messages).unwrap().num_batches());
        }
        assert!(counts[0] >= counts[1], "seed {seed}: {counts:?}");
        assert!(counts[1] >= counts[2], "seed {seed}: {counts:?}");
    }
}

/// Batch boundaries are monotone in the threshold: a boundary is placed only
/// when the adjacent-pair probability *exceeds* the threshold, so raising it
/// can only remove boundaries — every boundary set at a higher threshold is
/// contained in (and each lower threshold's set is a superset of) the sets
/// below it. Pinned for both the one-shot constructor and the incremental
/// tournament's maintained batches across the sweep 0.5 / 0.75 / 0.9, the
/// two bit-identical at every threshold.
#[test]
fn batch_boundaries_are_monotone_in_threshold() {
    use tommy::core::precedence::PrecedenceMatrix;
    use tommy::core::tournament::IncrementalTournament;

    const THRESHOLDS: [f64; 3] = [0.5, 0.75, 0.9];
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(6_000 + seed);
        let raw = arbitrary_messages(&mut rng, 6);
        let sigma = rng.random_range(0.5..40.0f64);
        let mut registry = DistributionRegistry::new();
        for c in 0..6u32 {
            registry.register(ClientId(c), OffsetDistribution::gaussian(0.0, sigma));
        }
        let messages = to_messages(&raw);

        // Drive one shared matrix and one incremental tournament per
        // threshold, message by message (Gaussian offsets are always
        // transitive, so every arrival is a clean insertion).
        let mut matrix = PrecedenceMatrix::empty();
        let mut tournaments: Vec<IncrementalTournament> =
            THRESHOLDS.iter().map(|&t| IncrementalTournament::new(t)).collect();
        for m in &messages {
            matrix.insert(m.clone(), &registry).unwrap();
            for tournament in &mut tournaments {
                tournament.insert_last(&matrix);
            }
        }
        let order = tournaments[0].order().to_vec();

        let mut boundary_sets: Vec<Vec<usize>> = Vec::new();
        for (tournament, &threshold) in tournaments.iter().zip(&THRESHOLDS) {
            // One-shot and incremental agree on the order and its boundaries.
            assert_eq!(tournament.order(), order, "seed {seed}: orders diverged");
            let one_shot = reference::fair_order(&matrix, &order, threshold);
            let one_shot_bounds = one_shot.boundary_positions();
            assert_eq!(
                tournament.boundary_positions(),
                one_shot_bounds,
                "seed {seed}: engines diverged at threshold {threshold}"
            );
            boundary_sets.push(one_shot_bounds);
        }
        // Nesting: every boundary surviving a higher threshold also exists
        // at every lower one.
        for pair in boundary_sets.windows(2) {
            let (lower, higher) = (&pair[0], &pair[1]);
            for b in higher {
                assert!(
                    lower.contains(b),
                    "seed {seed}: boundary {b} present at the higher threshold \
                     but missing at the lower one"
                );
            }
        }
    }
}

/// The Rank Agreement Score of any output is bounded by the pair count in
/// absolute value, and a perfect (ground-truth) total order achieves the
/// maximum.
#[test]
fn ras_is_bounded_and_maximized_by_ground_truth() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(4_000 + seed);
        let raw = arbitrary_messages(&mut rng, 6);
        // Build messages whose timestamps equal their true times (perfect
        // clocks), with distinct true times.
        let messages: Vec<Message> = raw
            .iter()
            .enumerate()
            .map(|(i, (c, t))| {
                let t = t + i as f64 * 1e-6; // enforce distinctness
                Message::with_true_time(MessageId(i as u64), ClientId(*c), t, t)
            })
            .collect();
        let mut sorted = messages.clone();
        sorted.sort_by(|a, b| a.timestamp.partial_cmp(&b.timestamp).unwrap());
        let perfect =
            FairOrder::from_total_order(&sorted.iter().map(|m| m.id).collect::<Vec<_>>());
        let ras = rank_agreement_score(&perfect, &messages);
        let pairs = messages.len() * (messages.len() - 1) / 2;
        assert_eq!(ras.pairs(), pairs);
        assert_eq!(ras.score(), pairs as i64);
        assert!(ras.normalized() <= 1.0 && ras.normalized() >= -1.0);
    }
}

//! Engine/per-call equivalence properties.
//!
//! The engines evaluate the preceding probability through one per-pair body
//! in the registry: the dense engine's arrival column, of which a one-shot
//! `PrecedenceMatrix::compute` is a loop, and the sparse engine's exact
//! evaluation. They must be *bit-identical* to the per-call reference
//! `DistributionRegistry::preceding_probability`: same formulas, same
//! operation order, same clamping. These seeded property tests pin that
//! across Gaussian, uniform, Laplace, and empirical (KDE) distribution
//! mixes:
//!
//! 1. the `PrecedenceMatrix` (both the one-shot compute and the incremental
//!    insert path) is element-wise identical to a per-call query of every
//!    cell, the lower triangle as `1 − p` of the mirrored query;
//! 2. the online sequencer's emitted batch sequence on a randomized
//!    workload, over the mixed census (the dense engine) and an all-Gaussian
//!    one (the sparse engine), equals a from-scratch reference pipeline
//!    driven purely by per-call legacy queries (invariant 3's one-shot
//!    candidate, with its re-scanning Appendix C closure, over the legacy
//!    matrix, and the per-member safe-emission fold, which
//!    `batch_emission_time` must also reproduce);
//! 3. a maintained matrix survives re-registration bit for bit, and a
//!    refused insert changes nothing.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tommy::core::precedence::{PrecedenceMatrix, Removal};
use tommy::core::CoreError;
use tommy::prelude::*;
use tommy_contract::properties::scratch_candidate;
use tommy_contract::reference::{batch_emission_time, safe_emission_time};

const CLIENTS: u32 = 5;

/// A registry mixing every distribution family the engines take: two
/// Gaussians, a uniform, a Laplace, and an empirical KDE learned from
/// Gaussian samples.
fn mixed_registry(rng: &mut StdRng) -> DistributionRegistry {
    let mut registry = DistributionRegistry::new();
    for c in 0..CLIENTS {
        let dist = match c {
            0 => OffsetDistribution::gaussian(rng.random_range(-2.0..2.0), 1.0 + c as f64),
            1 => OffsetDistribution::gaussian(rng.random_range(-2.0..2.0), 4.0),
            2 => OffsetDistribution::uniform(-6.0, 4.0),
            3 => OffsetDistribution::laplace(rng.random_range(-1.0..1.0), 2.5),
            _ => {
                let g = Gaussian::new(0.5, 3.0);
                let samples: Vec<f64> = (0..300).map(|_| g.sample(rng)).collect();
                OffsetDistribution::empirical(&samples)
            }
        };
        registry.register(ClientId(c), dist);
    }
    registry
}

/// A registry of Gaussian clients only: a census the sparse engine takes.
fn gaussian_registry(rng: &mut StdRng) -> DistributionRegistry {
    let mut registry = DistributionRegistry::new();
    for c in 0..CLIENTS {
        let dist = OffsetDistribution::gaussian(rng.random_range(-2.0..2.0), 1.0 + c as f64);
        registry.register(ClientId(c), dist);
    }
    registry
}

/// Random messages with per-client monotone timestamps (the online
/// sequencer's ordered-channel assumption).
fn monotone_messages(rng: &mut StdRng, n: usize) -> Vec<Message> {
    let mut floor = vec![0.0f64; CLIENTS as usize];
    (0..n)
        .map(|i| {
            let c = rng.random_range(0..CLIENTS);
            floor[c as usize] += rng.random_range(0.0..8.0);
            Message::new(MessageId(i as u64), ClientId(c), floor[c as usize])
        })
        .collect()
}

/// Legacy reference matrix: every cell from an individual
/// `preceding_probability` call, mirrored exactly as both matrix builds
/// mirror it.
fn legacy_matrix(messages: &[Message], registry: &DistributionRegistry) -> PrecedenceMatrix {
    let n = messages.len();
    let mut pairwise = vec![vec![0.5; n]; n];
    for i in 0..n {
        for j in (i + 1)..n {
            let p = registry
                .preceding_probability(&messages[i], &messages[j])
                .unwrap();
            pairwise[i][j] = p;
            pairwise[j][i] = 1.0 - p;
        }
    }
    PrecedenceMatrix::from_probabilities(messages, &pairwise)
}

#[test]
fn kernel_matrix_is_element_wise_identical_to_legacy_build() {
    for seed in 0..6u64 {
        let mut rng = StdRng::seed_from_u64(100 + seed);
        let registry = mixed_registry(&mut rng);
        let n = rng.random_range(5..45);
        let messages = monotone_messages(&mut rng, n);
        let query = |i: usize, j: usize| {
            registry
                .preceding_probability(&messages[i], &messages[j])
                .unwrap()
        };

        let computed = PrecedenceMatrix::compute(&messages, &registry).unwrap();
        let mut inserted = PrecedenceMatrix::empty();
        for m in &messages {
            inserted.insert(m.clone(), &registry).unwrap();
        }
        for i in 0..messages.len() {
            for j in 0..messages.len() {
                // Each cell from its own query, the lower triangle mirrored
                // as both builds mirror it: no read goes through `prob`.
                let expect = match i.cmp(&j) {
                    std::cmp::Ordering::Equal => 0.5,
                    std::cmp::Ordering::Less => query(i, j),
                    std::cmp::Ordering::Greater => 1.0 - query(j, i),
                };
                assert_eq!(
                    computed.prob(i, j).to_bits(),
                    expect.to_bits(),
                    "seed {seed} compute cell ({i},{j})"
                );
                assert_eq!(
                    inserted.prob(i, j).to_bits(),
                    expect.to_bits(),
                    "seed {seed} insert cell ({i},{j})"
                );
            }
        }
    }
}

/// The seed implementation of the online candidate loop: invariant 3's
/// one-shot candidate (from-scratch tournament + linear order, threshold
/// batching, the re-scanning Appendix C closure) over the legacy matrix,
/// and the per-member safe-emission fold.
fn legacy_candidate(
    pending: &[Message],
    registry: &DistributionRegistry,
    config: &SequencerConfig,
) -> (Vec<MessageId>, f64) {
    let matrix = legacy_matrix(pending, registry);
    let in_batch = scratch_candidate(&matrix, config);
    let safe_after = in_batch
        .iter()
        .map(|&i| {
            let m = matrix.message(i);
            safe_emission_time(registry.get(m.client).unwrap(), m.timestamp, config.p_safe)
        })
        .fold(f64::NEG_INFINITY, f64::max);
    let ids = in_batch.iter().map(|&i| matrix.message(i).id).collect();
    (ids, safe_after)
}

#[test]
fn online_sequencer_emits_identical_batch_sequence_to_legacy_reference() {
    let censuses: [fn(&mut StdRng) -> DistributionRegistry; 2] =
        [mixed_registry, gaussian_registry];
    for (seed, census) in (0..6u64).flat_map(|seed| censuses.map(|c| (seed, c))) {
        let mut rng = StdRng::seed_from_u64(200 + seed);
        let registry = census(&mut rng);
        let config = SequencerConfig::default();

        let mut sequencer = OnlineSequencer::new(config);
        for c in 0..CLIENTS {
            sequencer
                .register_client(ClientId(c), registry.get(ClientId(c)).unwrap().clone());
        }
        // A registered client that never speaks: its watermark blocks every
        // emission, so the full pending set reaches flush() and the whole
        // batch sequence comes out of one deterministic drain.
        sequencer.register_client(ClientId(99), OffsetDistribution::gaussian(0.0, 1.0));

        let n = rng.random_range(8..30);
        let messages = monotone_messages(&mut rng, n);
        for (k, m) in messages.iter().enumerate() {
            let emitted = sequencer.submit(m.clone(), 1000.0 + k as f64).unwrap();
            assert!(emitted.is_empty(), "watermark must block early emission");
        }

        // Reference: repeatedly take the legacy candidate off the pending
        // set — exactly what flush() does with its engine.
        let mut pending = messages.clone();
        for batch in sequencer.flush() {
            let (expect_ids, expect_safe) = legacy_candidate(&pending, &registry, &config);
            assert_eq!(
                batch.message_ids(),
                expect_ids,
                "seed {seed}: batch {} diverged from the legacy reference",
                batch.rank
            );
            assert_eq!(
                batch.safe_after.to_bits(),
                expect_safe.to_bits(),
                "seed {seed}: safe emission time diverged"
            );
            let formula = batch_emission_time(&registry, &batch.messages, config.p_safe);
            assert_eq!(formula.to_bits(), expect_safe.to_bits(), "seed {seed}: T_b formula");
            pending.retain(|m| !expect_ids.contains(&m.id));
        }
        assert!(pending.is_empty(), "seed {seed}: flush must drain everything");
    }
}

/// `maintained` equals `PrecedenceMatrix::compute` over `pending`, to the
/// bit, both through `registry` and through a registry registered afresh
/// with the same distributions — whose caches cannot be stale.
fn assert_same_matrix(
    maintained: &PrecedenceMatrix,
    pending: &[Message],
    registry: &DistributionRegistry,
    at: &str,
) {
    assert_eq!(maintained.len(), pending.len(), "{at}: size");
    if pending.is_empty() {
        return;
    }
    let mut fresh = DistributionRegistry::with_numerics(GRID_POINTS);
    for client in registry.clients() {
        fresh.register(client, registry.get(client).unwrap().clone());
    }
    for (which, reference) in [("live", registry), ("fresh", &fresh)] {
        let computed = PrecedenceMatrix::compute(pending, reference).unwrap();
        for i in 0..pending.len() {
            assert_eq!(maintained.message(i).id, pending[i].id, "{at}: slot {i}");
            for j in 0..pending.len() {
                assert_eq!(
                    maintained.prob(i, j).to_bits(),
                    computed.prob(i, j).to_bits(),
                    "{at}: cell ({i},{j}) against the {which} registry"
                );
            }
        }
    }
}

/// Coarse grids: the staleness test rebuilds every one of them per step.
const GRID_POINTS: usize = 128;

/// The one thing a maintained column can get wrong that a fresh build
/// cannot: a probability read from a table that outlived the registration
/// it was built for. A seeded interleaving of inserts, `remove_indices` and
/// re-registrations — of clients with and without pending messages, across
/// Gaussian ↔ Laplace ↔ uniform ↔ empirical, with two clients sharing one
/// distribution and a freed class index taken by a new distribution — after
/// every step of which the maintained matrix equals a from-scratch `compute`
/// to the bit, and every insert counts exactly `n` queries.
#[test]
fn maintained_matrix_survives_reregistration_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(4242);
    let empirical = {
        let g = Gaussian::new(-0.5, 2.0);
        let samples: Vec<f64> = (0..200).map(|_| g.sample(&mut rng)).collect();
        OffsetDistribution::empirical(&samples)
    };
    let shared = OffsetDistribution::laplace(0.0, 2.0);
    let mut registry = DistributionRegistry::with_numerics(GRID_POINTS);
    for c in 0..CLIENTS {
        registry.register(ClientId(c), OffsetDistribution::gaussian(0.1 * c as f64, 1.0 + c as f64));
    }
    // (client, new distribution, drop its pending messages first?)
    let script = [
        (1, shared.clone(), false),                              // Gaussian -> Laplace, pending
        (2, shared.clone(), true),                               // a second holder of that class
        (0, OffsetDistribution::laplace(1.0, 3.0), false),       // a second class
        (0, empirical, false),                                   // Laplace -> empirical
        (3, OffsetDistribution::uniform(-4.0, 2.0), true),       // a class with one holder ...
        (3, OffsetDistribution::gaussian(0.0, 2.5), true),       // ... freed ...
        (4, OffsetDistribution::laplace(-1.0, 1.5), true),       // ... and its index taken
        (1, OffsetDistribution::gaussian(0.3, 1.2), false),      // one sharer leaves, 2 holds on
        (2, OffsetDistribution::gaussian(0.0, 4.0), true),       // the class's last holder leaves
        (0, OffsetDistribution::gaussian(0.0, 1.0), false),      // a Gaussian census again
        (4, shared, false),                                      // and back to numeric
    ];

    let mut matrix = PrecedenceMatrix::empty();
    let mut pending: Vec<Message> = Vec::new();
    let mut floor = vec![0.0f64; CLIENTS as usize];
    let mut next_id = 0u64;
    let (mut flipped_pending, mut flipped_idle) = (0, 0);
    for (step, (client, distribution, idle)) in script.into_iter().enumerate() {
        for op in 0..10 {
            let at = format!("step {step} op {op}");
            if pending.len() > 3 && rng.random_range(0u32..4) == 0 {
                let count = rng.random_range(1..pending.len());
                let mut removed: Vec<usize> = (0..pending.len()).collect();
                for _ in 0..pending.len() - count {
                    removed.remove(rng.random_range(0..removed.len()));
                }
                matrix.remove_indices(&Removal::of(matrix.len(), &removed));
                for &i in removed.iter().rev() {
                    pending.remove(i);
                }
            } else {
                let c = rng.random_range(0..CLIENTS);
                floor[c as usize] += rng.random_range(0.0..6.0);
                let message = Message::new(MessageId(next_id), ClientId(c), floor[c as usize]);
                next_id += 1;
                let before = registry.query_count();
                assert_eq!(matrix.insert(message.clone(), &registry).unwrap(), pending.len(), "{at}");
                assert_eq!(registry.query_count() - before, pending.len() as u64, "{at}: queries");
                pending.push(message);
            }
            assert_same_matrix(&matrix, &pending, &registry, &at);
        }

        let at = format!("step {step} re-registration of client {client}");
        let held: Vec<usize> =
            (0..pending.len()).filter(|&i| pending[i].client == ClientId(client)).collect();
        if idle {
            matrix.remove_indices(&Removal::of(matrix.len(), &held));
            pending.retain(|m| m.client != ClientId(client));
        }
        registry.register(ClientId(client), distribution);
        if !idle && !held.is_empty() {
            // The stored cells of a pending client are stale by definition:
            // the engine re-derives them (`DenseEngine::rebuild_from`), and
            // later arrivals land on the slots `compute` resolved.
            matrix = PrecedenceMatrix::compute(&pending, &registry).unwrap();
            flipped_pending += 1;
        } else {
            flipped_idle += 1;
        }
        assert_same_matrix(&matrix, &pending, &registry, &at);
    }
    assert!(flipped_pending >= 3 && flipped_idle >= 3, "{flipped_pending} / {flipped_idle}");
}

/// An insert the admission rule refuses — checked in its order: a finite
/// timestamp, a registered client, a fresh id — returns that rule's error,
/// counts no query and leaves the matrix as it was, bit for bit; an
/// unregistered client is refused even into an empty matrix, where no pair
/// would consult the registry.
#[test]
fn insert_errors_are_admission_errors_and_change_nothing() {
    let mut registry = DistributionRegistry::new();
    registry.register(ClientId(0), OffsetDistribution::gaussian(0.0, 1.0));
    registry.register(ClientId(1), OffsetDistribution::laplace(0.0, 2.0));
    registry.register(ClientId(2), OffsetDistribution::gaussian(1.0, 2.0));
    let stranger = ClientId(9);
    let raw = |id: u64, client: ClientId, timestamp: f64| Message {
        id: MessageId(id),
        client,
        timestamp,
        true_time: None,
    };
    let refused = |matrix: &mut PrecedenceMatrix, new: Message, expected: CoreError| {
        let snapshot = matrix.clone();
        let before = registry.query_count();
        assert_eq!(matrix.insert(new, &registry), Err(expected.clone()), "{expected}");
        assert_eq!(registry.query_count(), before, "{expected}: queries");
        assert_eq!(matrix.len(), snapshot.len(), "{expected}: size");
        for i in 0..snapshot.len() {
            assert_eq!(matrix.message(i), snapshot.message(i), "{expected}: slot {i}");
            for j in 0..snapshot.len() {
                let (got, was) = (matrix.prob(i, j), snapshot.prob(i, j));
                assert_eq!(got.to_bits(), was.to_bits(), "{expected}");
            }
        }
    };
    let invalid =
        |client: ClientId, observed: f64| CoreError::InvalidTimestamp { client, observed };

    let mut matrix = PrecedenceMatrix::empty();
    refused(&mut matrix, raw(0, stranger, 5.0), CoreError::UnknownClient(stranger));
    for (id, client, ts) in [(0, 0, 1.0), (1, 1, 2.0), (2, 2, 3.0), (3, 0, 4.0)] {
        let before = registry.query_count();
        assert_eq!(matrix.insert(raw(id, ClientId(client), ts), &registry), Ok(id as usize));
        assert_eq!(registry.query_count() - before, id, "fill: one query per pending message");
    }
    // The timestamp first, then the client, then the id.
    refused(&mut matrix, raw(2, stranger, f64::INFINITY), invalid(stranger, f64::INFINITY));
    refused(&mut matrix, raw(2, stranger, 9.0), CoreError::UnknownClient(stranger));
    refused(&mut matrix, raw(2, ClientId(1), 9.0), CoreError::DuplicateMessage(MessageId(2)));
    refused(&mut matrix, raw(4, stranger, 9.0), CoreError::UnknownClient(stranger));
    for bad in [f64::NEG_INFINITY, f64::INFINITY] {
        refused(&mut matrix, raw(4, ClientId(0), bad), invalid(ClientId(0), bad));
    }
    // NaN never equals itself, so its error is matched by shape.
    let snapshot_len = matrix.len();
    let before = registry.query_count();
    let nan = matrix.insert(raw(4, ClientId(0), f64::NAN), &registry);
    let refused = matches!(nan, Err(CoreError::InvalidTimestamp { client: ClientId(0), observed })
        if observed.is_nan());
    assert!(refused, "{nan:?}");
    assert_eq!((matrix.len(), registry.query_count()), (snapshot_len, before));
    assert_eq!(matrix.insert(raw(4, ClientId(1), 5.0), &registry), Ok(4));
}

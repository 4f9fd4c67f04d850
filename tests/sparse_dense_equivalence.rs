//! Sparse ≡ dense equivalence properties (the Gaussian fast-path tentpole).
//!
//! The sub-quadratic sparse fast path (order-statistics treap + lazy
//! probability evaluation) must be indistinguishable — output-wise — from
//! the dense matrix engine it retires on all-closed-form streams. Seeded
//! property tests drive an `Auto` sequencer and a `ForceDense` twin through
//! identical event streams and pin bit-identity from four angles:
//!
//! 1. **Gaussian streams**: random clients, timestamps, heartbeats and
//!    ticks — emitted batch sequences (ids, ranks, safe-emission times,
//!    emission clocks) and pending boundary sets agree bitwise, while the
//!    twins' counters prove they took different paths (lazy evals vs dense
//!    columns).
//! 2. **Mixed censuses**: a Laplace client in the census routes `Auto` onto
//!    the dense engine at registration (one free mode settle, zero lazy
//!    work), so non-closed-form streams are byte-for-byte the dense path.
//! 3. **Cyclic streams**: Condorcet dice clients exercise the FAS machinery
//!    identically on both twins — same batches, same repair counters.
//! 4. **Mid-stream census changes**: re-registering a client across the
//!    closed-form boundary migrates a non-empty pending set sparse → dense
//!    → sparse without perturbing a single emission.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use tommy::prelude::*;
use tommy::workload::intransitive::IntransitiveWorkload;
use tommy::workload::schedule::close_stream;
use tommy_contract::testkit::{
    assert_batches_bit_identical, assert_boundaries_agree, drain_lockstep, paired_engines as paired,
};

/// Property 1: random all-Gaussian streams are bit-identical across the two
/// engines — emissions, boundary sets, and FAS costs (zero on both,
/// Appendix A) — while the counters prove the sparse twin never built a
/// dense column.
#[test]
fn sparse_matches_dense_on_random_gaussian_streams() {
    for seed in 0..8u64 {
        let mut rng = StdRng::seed_from_u64(40_000 + seed);
        let clients = 3 + (seed as usize % 4);
        let offsets: Vec<(ClientId, OffsetDistribution)> = (0..clients)
            .map(|c| {
                (
                    ClientId(c as u32),
                    OffsetDistribution::gaussian(
                        rng.random_range(-3.0..3.0),
                        rng.random_range(0.5..6.0),
                    ),
                )
            })
            .collect();
        let (mut auto, mut dense) = paired(&offsets);

        const MESSAGES: usize = 120;
        let mut floors: HashMap<ClientId, f64> = HashMap::new();
        let mut t = 0.0f64;
        let mut emitted = 0usize;
        for i in 0..MESSAGES {
            t += rng.random_range(0.1..4.0);
            let client = offsets[rng.random_range(0..clients)].0;
            let floor = floors.get(&client).copied().unwrap_or(f64::NEG_INFINITY);
            let ts = (t + rng.random_range(-2.0..2.0f64)).max(floor);
            floors.insert(client, ts);
            let m = Message::new(MessageId(i as u64), client, ts);
            auto.submit(m.clone(), t + 1.0).expect("valid submission");
            dense.submit(m, t + 1.0).expect("valid submission");
            emitted += drain_lockstep(&mut auto, &mut dense, &format!("seed {seed} submit {i}"));

            if i % 5 == 0 {
                for (client, _) in &offsets {
                    let floor = floors.get(client).copied().unwrap_or(f64::NEG_INFINITY);
                    let ts = t.max(floor);
                    floors.insert(*client, ts);
                    auto.heartbeat(*client, ts, t + 1.0).expect("heartbeat");
                    dense.heartbeat(*client, ts, t + 1.0).expect("heartbeat");
                }
                emitted +=
                    drain_lockstep(&mut auto, &mut dense, &format!("seed {seed} heartbeat {i}"));
            }
            if i % 13 == 0 {
                assert_boundaries_agree(&mut auto, &mut dense, &format!("seed {seed} step {i}"));
                auto.tick(t + 2.0);
                dense.tick(t + 2.0);
                emitted += drain_lockstep(&mut auto, &mut dense, &format!("seed {seed} tick {i}"));
            }
        }
        // Close the stream: far-future heartbeats, a final tick, then flush.
        let clients: Vec<ClientId> = offsets.iter().map(|(c, _)| *c).collect();
        let a = close_stream(&mut auto, &clients, t + 10_000.0);
        let d = close_stream(&mut dense, &clients, t + 10_000.0);
        emitted += assert_batches_bit_identical(&a, &d, &format!("seed {seed} close"));
        assert_eq!(emitted, MESSAGES, "every message must be emitted once");
        assert_boundaries_agree(&mut auto, &mut dense, &format!("seed {seed} final"));

        // The twins took different paths to the same output.
        let (a, d) = (auto.stats(), dense.stats());
        assert_eq!(a.dense_columns_avoided as usize, MESSAGES, "{a:?}");
        assert!(a.lazy_evals > 0, "{a:?}");
        assert_eq!(a.peak_matrix_bytes, 0, "{a:?}");
        assert!(a.peak_index_bytes > 0, "{a:?}");
        assert_eq!(a.mode_switches, 0, "{a:?}");
        assert_eq!(d.lazy_evals, 0, "forced dense must do no lazy work: {d:?}");
        assert_eq!(d.dense_columns_avoided, 0, "{d:?}");
        assert_eq!(d.mode_switches, 0, "{d:?}");
        assert_eq!(d.peak_index_bytes, 0, "{d:?}");
        assert!(d.peak_matrix_bytes > 0, "{d:?}");

        // Gaussian streams perform zero FAS work on either engine.
        for seq in [&auto, &dense] {
            assert_eq!(seq.tournament().full_rebuilds(), 0);
            assert_eq!(seq.tournament().local_repairs(), 0);
        }
    }
}

/// Property 2: one empirical (Laplace) client in the census routes `Auto`
/// onto the dense engine at registration — the stream is byte-for-byte the
/// dense path, with zero lazy work and a single free mode settle.
#[test]
fn mixed_census_routes_auto_onto_the_dense_path() {
    for seed in 0..4u64 {
        let mut rng = StdRng::seed_from_u64(50_000 + seed);
        let mut offsets: Vec<(ClientId, OffsetDistribution)> = (0..3)
            .map(|c| {
                (
                    ClientId(c),
                    OffsetDistribution::gaussian(0.0, rng.random_range(1.0..4.0)),
                )
            })
            .collect();
        offsets.push((ClientId(3), OffsetDistribution::laplace(0.0, 2.0)));
        let (mut auto, mut dense) = paired(&offsets);

        let mut emitted = 0usize;
        let mut t = 0.0f64;
        for i in 0..60usize {
            t += 1.0;
            let client = ClientId(rng.random_range(0..4u32));
            let m = Message::new(MessageId(i as u64), client, t);
            auto.submit(m.clone(), t + 1.0).expect("valid submission");
            dense.submit(m, t + 1.0).expect("valid submission");
            for c in 0..4u32 {
                auto.heartbeat(ClientId(c), t, t + 1.0).expect("heartbeat");
                dense.heartbeat(ClientId(c), t, t + 1.0).expect("heartbeat");
            }
            emitted += drain_lockstep(&mut auto, &mut dense, &format!("seed {seed} step {i}"));
            if i % 11 == 0 {
                assert_boundaries_agree(&mut auto, &mut dense, &format!("seed {seed} step {i}"));
            }
        }
        auto.flush();
        dense.flush();
        emitted += drain_lockstep(&mut auto, &mut dense, &format!("seed {seed} close"));
        assert_eq!(emitted, 60);

        let a = auto.stats();
        assert_eq!(a.lazy_evals, 0, "mixed census must stay dense: {a:?}");
        assert_eq!(a.dense_columns_avoided, 0, "{a:?}");
        assert_eq!(a.mode_switches, 1, "one settle at registration: {a:?}");
        assert!(a.peak_matrix_bytes > 0, "{a:?}");
        assert_eq!(a.peak_index_bytes, 0, "{a:?}");
    }
}

/// Property 3: cyclic (Condorcet-burst) streams route both twins through the
/// dense FAS machinery — bit-identical batches *and* identical repair
/// counters, so the fast path cannot perturb cycle handling.
#[test]
fn cyclic_streams_exercise_identical_fas_machinery() {
    for seed in 0..3u64 {
        let workload = IntransitiveWorkload::new(6, 80, 0.3)
            .with_scale(10.0)
            .with_honest_std_dev(2.0)
            .with_spacing(1.0);
        let mut rng = StdRng::seed_from_u64(60_000 + seed);
        let stream = workload.generate(&mut rng);
        let offsets = workload.offsets();
        let (mut auto, mut dense) = paired(&offsets);

        let mut emitted = 0usize;
        for (i, m) in stream.iter().enumerate() {
            let arrival = m.true_time.unwrap_or(m.timestamp) + 1.0;
            auto.submit(m.clone(), arrival).expect("valid submission");
            dense.submit(m.clone(), arrival).expect("valid submission");
            emitted += drain_lockstep(&mut auto, &mut dense, &format!("seed {seed} submit {i}"));
        }
        let horizon = stream
            .iter()
            .map(|m| m.timestamp)
            .fold(0.0f64, f64::max)
            + 10_000.0;
        let clients: Vec<ClientId> = offsets.iter().map(|(c, _)| *c).collect();
        let a = close_stream(&mut auto, &clients, horizon);
        let d = close_stream(&mut dense, &clients, horizon);
        emitted += assert_batches_bit_identical(&a, &d, &format!("seed {seed} close"));
        assert_eq!(emitted, stream.len());

        // Identical FAS costs: the dice census forces both twins onto the
        // dense engine, so the cycle-repair machinery runs once, the same
        // way, on each.
        assert_eq!(
            auto.tournament().local_repairs(),
            dense.tournament().local_repairs()
        );
        assert_eq!(
            auto.tournament().full_rebuilds(),
            dense.tournament().full_rebuilds()
        );
        assert_eq!(auto.stats().lazy_evals, 0);
        assert_eq!(auto.stats().dense_columns_avoided, 0);
    }
}

/// Property 4: a mid-stream census change migrates a **non-empty** pending
/// set sparse → dense (Laplace client joins the census) and back dense →
/// sparse (it re-registers as Gaussian) without perturbing a single
/// emission or boundary.
#[test]
fn mid_stream_mode_switches_preserve_equivalence() {
    for seed in 0..4u64 {
        let mut rng = StdRng::seed_from_u64(70_000 + seed);
        let offsets: Vec<(ClientId, OffsetDistribution)> = (0..4)
            .map(|c| {
                (
                    ClientId(c),
                    OffsetDistribution::gaussian(0.0, rng.random_range(1.0..5.0)),
                )
            })
            .collect();
        let (mut auto, mut dense) = paired(&offsets);

        let mut t = 0.0f64;
        let mut next_id = 0u64;
        let mut emitted = 0usize;
        let mut submit_some =
            |auto: &mut OnlineSequencer, dense: &mut OnlineSequencer, n: usize, t: &mut f64,
             rng: &mut StdRng, emitted: &mut usize| {
                for _ in 0..n {
                    *t += rng.random_range(0.5..2.0);
                    let client = ClientId(rng.random_range(0..4u32));
                    let m = Message::new(MessageId(next_id), client, *t);
                    next_id += 1;
                    auto.submit(m.clone(), *t + 1.0).expect("valid submission");
                    dense.submit(m, *t + 1.0).expect("valid submission");
                    *emitted += drain_lockstep(auto, dense, "submit");
                }
            };

        // Phase 1: all-Gaussian census — `Auto` rides the sparse path.
        submit_some(&mut auto, &mut dense, 25, &mut t, &mut rng, &mut emitted);
        assert_boundaries_agree(&mut auto, &mut dense, "pre-switch");
        assert!(auto.pending_len() > 0, "the migration must move real state");

        // Phase 2: client 3 re-registers as Laplace — sparse → dense with a
        // non-empty pending set.
        auto.register_client(ClientId(3), OffsetDistribution::laplace(0.0, 3.0));
        dense.register_client(ClientId(3), OffsetDistribution::laplace(0.0, 3.0));
        assert_boundaries_agree(&mut auto, &mut dense, "post-switch-to-dense");
        submit_some(&mut auto, &mut dense, 25, &mut t, &mut rng, &mut emitted);
        assert_boundaries_agree(&mut auto, &mut dense, "dense phase");

        // Phase 3: client 3 re-registers as Gaussian — dense → sparse with a
        // non-empty pending set.
        auto.register_client(ClientId(3), OffsetDistribution::gaussian(0.0, 3.0));
        dense.register_client(ClientId(3), OffsetDistribution::gaussian(0.0, 3.0));
        assert_boundaries_agree(&mut auto, &mut dense, "post-switch-to-sparse");
        submit_some(&mut auto, &mut dense, 25, &mut t, &mut rng, &mut emitted);
        assert_boundaries_agree(&mut auto, &mut dense, "sparse phase");

        // Close out and compare the full emission history.
        let clients: Vec<ClientId> = (0..4).map(ClientId).collect();
        let a = close_stream(&mut auto, &clients, t + 10_000.0);
        let d = close_stream(&mut dense, &clients, t + 10_000.0);
        emitted += assert_batches_bit_identical(&a, &d, "close");
        assert_eq!(emitted, 75, "every message emitted exactly once");

        let a = auto.stats();
        assert_eq!(a.mode_switches, 2, "sparse → dense → sparse: {a:?}");
        assert!(a.lazy_evals > 0, "{a:?}");
        assert!(a.dense_columns_avoided > 0, "{a:?}");
        assert!(a.peak_matrix_bytes > 0, "the dense interlude allocated: {a:?}");
        assert!(a.peak_index_bytes > 0, "{a:?}");
        assert_eq!(dense.stats().mode_switches, 0);
    }
}

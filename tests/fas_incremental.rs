//! Incremental-FAS equivalence properties (PR 5).
//!
//! The incremental FAS engine (SCC-scoped local repairs over a maintained
//! block condensation) must be indistinguishable — output-wise — from the
//! exhaustive full-recompute fallback it replaces. Seeded property tests pin
//! that from three angles:
//!
//! 1. **Feedback-arc cost**: over random cyclic tournaments driven through
//!    arbitrary insert/remove sequences, the maintained order's backward
//!    (discarded-evidence) weight equals the exhaustive one-shot pass's —
//!    in fact the orders themselves are identical.
//! 2. **Emitted batches**: a full online sequencing run over Condorcet
//!    collusion streams emits a bit-identical batch sequence (ids, ranks,
//!    safe-emission times) whether the incremental engine or the fallback
//!    is active — while the two runs' counters prove they took different
//!    paths (local repairs vs full rebuilds).
//! 3. **Gaussian regression**: a pure-Gaussian stream performs zero local
//!    repairs and zero exhaustive passes (Appendix A: no cycles to repair).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tommy::core::graph::fas;
use tommy::core::precedence::{PrecedenceMatrix, Removal};
use tommy::core::tournament::{IncrementalTournament, Tournament};
use tommy::core::sequencer::online::EmittedBatch;
use tommy::core::sequencer::register_all;
use tommy::prelude::*;
use tommy::workload::intransitive::IntransitiveWorkload;
use tommy::workload::schedule::{close_stream, Schedule, DELIVERY_DELAY};

/// Property 1: incremental FAS output equals the exhaustive pass's
/// feedback-arc cost on random cyclic tournaments, across random
/// insert/remove sequences (the maintained state is never rebuilt wholesale
/// — `full_rebuilds` stays zero — yet its cost matches the one-shot order).
#[test]
#[allow(clippy::needless_range_loop)] // symmetric (i, j) matrix fill
fn incremental_fas_matches_exhaustive_feedback_arc_cost() {
    const POOL: usize = 22;
    for seed in 0..12u64 {
        let mut rng = StdRng::seed_from_u64(9_000 + seed);
        let mut pairwise = vec![vec![0.5; POOL]; POOL];
        for i in 0..POOL {
            for j in (i + 1)..POOL {
                let p = rng.random_range(0.05..0.95f64);
                pairwise[i][j] = p;
                pairwise[j][i] = 1.0 - p;
            }
        }
        let pool_msgs: Vec<Message> = (0..POOL)
            .map(|i| Message::new(MessageId(i as u64), ClientId(i as u32), 0.0))
            .collect();
        let rebuild_matrix = |pending: &[usize]| -> PrecedenceMatrix {
            let messages: Vec<Message> = pending.iter().map(|&g| pool_msgs[g].clone()).collect();
            let probs: Vec<Vec<f64>> = pending
                .iter()
                .map(|&gi| pending.iter().map(|&gj| pairwise[gi][gj]).collect())
                .collect();
            PrecedenceMatrix::from_probabilities(&messages, &probs)
        };

        let config = SequencerConfig::default();
        let mut pending: Vec<usize> = Vec::new();
        let mut inc = IncrementalTournament::new();
        let mut next = 0usize;
        let mut saw_cycle = false;
        for _ in 0..40 {
            let remove = !pending.is_empty() && rng.random_range(0u32..3) == 0;
            if remove {
                let count = rng.random_range(1usize..=pending.len());
                let mut positions: Vec<usize> = (0..pending.len()).collect();
                for _ in 0..(pending.len() - count) {
                    let k = rng.random_range(0usize..positions.len());
                    positions.remove(k);
                }
                let removal = Removal::of(pending.len(), &positions);
                for &p in positions.iter().rev() {
                    pending.remove(p);
                }
                if pending.is_empty() {
                    inc.remove_indices(&removal, &PrecedenceMatrix::empty());
                } else {
                    inc.remove_indices(&removal, &rebuild_matrix(&pending));
                }
            } else if next < POOL {
                pending.push(next);
                next += 1;
                inc.insert_last(&rebuild_matrix(&pending));
            } else {
                continue;
            }
            if pending.is_empty() {
                continue;
            }
            let matrix = rebuild_matrix(&pending);
            let maintained = inc.linear_order(&matrix, &config, None);
            let one_shot =
                Tournament::from_matrix(&matrix).linear_order(&matrix, &config, None);
            let prob = |a: usize, b: usize| matrix.prob(a, b);
            let inc_cost = fas::backward_weight(&maintained, &prob);
            let ref_cost = fas::backward_weight(&one_shot, &prob);
            assert!(
                (inc_cost - ref_cost).abs() < 1e-12,
                "seed {seed}: feedback-arc cost diverged ({inc_cost} vs {ref_cost})"
            );
            assert_eq!(maintained, one_shot, "seed {seed}: orders diverged");
            saw_cycle |= !inc.is_transitive();
        }
        assert!(saw_cycle, "seed {seed}: random relation never cycled");
        assert_eq!(
            inc.full_rebuilds(),
            0,
            "seed {seed}: the incremental engine must never rebuild wholesale"
        );
    }
}

/// Resolve a generated stream into the §4 delivery schedule once, so both
/// runs consume the identical event list.
fn schedule_of(workload: &IntransitiveWorkload, stream: &[Message]) -> Schedule {
    let clients: Vec<ClientId> = workload.offsets().into_iter().map(|(c, _)| c).collect();
    Schedule::resolve(&clients, stream.to_vec(), 1e6)
}

/// Drive one online sequencer over a resolved schedule, closing the stream
/// at the end — returns every emitted batch plus the tournament counters
/// (full rebuilds, local repairs) and the exhaustive greedy passes the run
/// cost.
fn run_sequencer(
    workload: &IntransitiveWorkload,
    schedule: &Schedule,
    incremental: bool,
) -> (Vec<EmittedBatch>, u64, u64, u64) {
    let passes_before = fas::exhaustive_passes();
    let config = SequencerConfig::default().with_incremental_fas(incremental);
    let mut sequencer = OnlineSequencer::new(config);
    register_all(&mut sequencer, &workload.offsets());
    let mut emitted = Vec::new();
    for event in &schedule.events {
        event
            .apply(&mut sequencer, DELIVERY_DELAY)
            .expect("clamped schedule is valid");
        emitted.extend(sequencer.take_emitted());
    }
    emitted.extend(close_stream(&mut sequencer, &schedule.clients, schedule.horizon));
    (
        emitted,
        sequencer.tournament().full_rebuilds(),
        sequencer.tournament().local_repairs(),
        fas::exhaustive_passes() - passes_before,
    )
}

/// Property 2: bit-identical emitted batches — the incremental engine and
/// the exhaustive fallback produce the same batch sequence (ids, ranks,
/// safe-emission times) on Condorcet collusion streams, while their
/// counters prove the paths differed.
#[test]
fn emitted_batches_bit_identical_to_fallback_on_cyclic_streams() {
    let mut saw_repairs = false;
    for seed in 0..6u64 {
        let workload = IntransitiveWorkload::new(4, 60, 0.4)
            .with_scale(10.0)
            .with_honest_std_dev(1.5)
            .with_spacing(2.0);
        let mut rng = StdRng::seed_from_u64(100 + seed);
        let stream = workload.generate(&mut rng);
        let events = schedule_of(&workload, &stream);

        let (incremental, inc_rebuilds, inc_repairs, inc_passes) =
            run_sequencer(&workload, &events, true);
        let (fallback, fb_rebuilds, fb_repairs, fb_passes) =
            run_sequencer(&workload, &events, false);

        assert_eq!(
            incremental.len(),
            fallback.len(),
            "seed {seed}: batch counts diverged"
        );
        for (a, b) in incremental.iter().zip(fallback.iter()) {
            assert_eq!(a.rank, b.rank, "seed {seed}");
            assert_eq!(a.message_ids(), b.message_ids(), "seed {seed}");
            assert_eq!(
                a.safe_after.to_bits(),
                b.safe_after.to_bits(),
                "seed {seed}: safe-emission times must be bit-identical"
            );
        }
        let total: usize = incremental.iter().map(|b| b.messages.len()).sum();
        assert_eq!(total, stream.len(), "seed {seed}: every message must emit");

        assert_eq!(inc_rebuilds, 0, "seed {seed}: incremental must not rebuild");
        assert_eq!(fb_repairs, 0, "seed {seed}: fallback must not repair");
        saw_repairs |= inc_repairs > 0;
        if inc_repairs > 0 {
            assert!(
                fb_rebuilds > 0,
                "seed {seed}: cycles must force fallback rebuilds"
            );
            assert!(inc_passes > 0, "seed {seed}: a repair runs the exhaustive pass");
        }
        assert!(
            fb_passes >= inc_passes,
            "seed {seed}: the fallback re-runs the exhaustive pass per event ({fb_passes} vs {inc_passes})"
        );
    }
    assert!(saw_repairs, "the streams must exercise the repair path");
}

/// Property 3 (satellite regression): a pure-Gaussian stream performs zero
/// FAS local repairs and zero exhaustive passes, end to end.
#[test]
fn gaussian_streams_perform_zero_fas_work() {
    let workload = IntransitiveWorkload::new(6, 80, 0.0).with_honest_std_dev(3.0);
    let mut rng = StdRng::seed_from_u64(7);
    let stream = workload.generate(&mut rng);
    let events = schedule_of(&workload, &stream);
    let repairs_before = fas::local_repairs();
    for incremental in [true, false] {
        let (emitted, rebuilds, repairs, passes) = run_sequencer(&workload, &events, incremental);
        let total: usize = emitted.iter().map(|b| b.messages.len()).sum();
        assert_eq!(total, stream.len());
        assert_eq!(rebuilds, 0);
        assert_eq!(repairs, 0);
        assert_eq!(passes, 0, "Gaussian streams must never run the exhaustive pass");
    }
    assert_eq!(
        fas::local_repairs(),
        repairs_before,
        "Gaussian streams must never run a local repair"
    );
}

//! Incremental-FAS equivalence at the tournament level.
//!
//! The incremental FAS engine (SCC-scoped local repairs over a maintained
//! block condensation) must be indistinguishable — output-wise — from the
//! exhaustive full-recompute fallback it replaces. Over random cyclic
//! tournaments driven through arbitrary insert/remove sequences, the
//! maintained order's backward (discarded-evidence) weight equals the
//! exhaustive one-shot pass's — in fact the orders themselves are
//! identical. The same contract over whole online runs (bit-identical
//! batches, no FAS work on Gaussian censuses) is the differential oracle's
//! (`tommy_contract::oracle`).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tommy::core::graph::fas;
use tommy::core::precedence::{PrecedenceMatrix, Removal};
use tommy::core::tournament::{IncrementalTournament, Tournament};
use tommy::prelude::*;

/// Incremental FAS output equals the exhaustive pass's
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

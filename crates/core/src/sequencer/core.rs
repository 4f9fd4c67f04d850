//! The shared sequencing core: the §3.4 pipeline tail both sequencers run.
//!
//! Offline and online sequencing share the same tail — linear order
//! ([`IncrementalTournament`]) → fair order (threshold batching) → the
//! candidate/emission schedule derived from it. [`SequencingCore`] owns that
//! tail once, replacing the duplicated stage sequences the two sequencers
//! used to carry:
//!
//! * the **online** path maintains the core incrementally —
//!   [`insert_last`](SequencingCore::insert_last) per arrival (one scan
//!   over the maintained condensation blocks places the arrival, or
//!   repairs only the SCC it strongly connects, plus two local
//!   batch-boundary re-evaluations),
//!   [`remove_indices`](SequencingCore::remove_indices) per emission
//!   (in-place restriction + one boundary seam per removed run) — so a
//!   candidate recomputation builds nothing from scratch;
//! * the **offline** path [`load`](SequencingCore::load)s a prebuilt matrix
//!   (a wholesale rebuild) and materializes the one-shot
//!   [`SequencingOutcome`] through the identical
//!   [`outcome`](SequencingCore::outcome) accessor.
//!
//! Both directions resolve cycle fallbacks the same way: when the
//! tournament's maintained order is invalidated, the batch-boundary engine
//! is rebuilt from the recomputed linear order, and the randomized property
//! tests below pin the maintained state equal to
//! [`FairOrder::from_linear_order`] — batches, ranks, and boundary set —
//! across arbitrary insert/remove/threshold sequences.

use crate::batching::{FairOrder, IncrementalFairOrder};
use crate::config::{FasFallbackReason, SequencerConfig};
use crate::precedence::{PrecedenceMatrix, Removal};
use crate::tournament::IncrementalTournament;
use rand::RngCore;

/// Detailed output of one sequencing run.
#[derive(Debug, Clone)]
pub struct SequencingOutcome {
    /// The fair partial order (totally ordered batches).
    pub order: FairOrder,
    /// Whether the tournament was transitive (always true for Gaussian
    /// offsets, Appendix A of the paper).
    pub transitive: bool,
    /// Number of strongly connected components with more than one message —
    /// i.e. the number of intransitivity cycles that had to be broken.
    pub cyclic_components: usize,
    /// Fraction of message pairs the sequencer could order with confidence
    /// above the threshold.
    pub confident_pair_fraction: f64,
    /// Why the incremental FAS engine was bypassed for this run (`None`
    /// when it ran) — [`SequencerConfig::fas_fallback_reason`] echoed onto
    /// the result so consumers need not re-derive the historical silent
    /// override.
    pub fas_fallback_reason: Option<FasFallbackReason>,
}

/// The shared linear-order → fair-order pipeline tail (see module docs).
///
/// The core tracks an externally maintained [`PrecedenceMatrix`]: every
/// matrix mutation must be mirrored here in lockstep ([`insert_last`]
/// after `PrecedenceMatrix::insert`, [`remove_indices`] after
/// `PrecedenceMatrix::remove_indices`, [`load`] after a wholesale recompute).
///
/// [`insert_last`]: SequencingCore::insert_last
/// [`remove_indices`]: SequencingCore::remove_indices
/// [`load`]: SequencingCore::load
#[derive(Debug)]
pub struct SequencingCore {
    config: SequencerConfig,
    tournament: IncrementalTournament,
    fair: IncrementalFairOrder,
    /// The candidate closure's working sets, reused across recomputations:
    /// the batch so far (what [`candidate_indices`](Self::candidate_indices)
    /// returns) and the messages still outside it.
    closure: Vec<usize>,
    outside: Vec<usize>,
}

impl SequencingCore {
    /// An empty core for the given configuration. The tournament's
    /// incremental FAS engine runs iff
    /// [`SequencerConfig::fas_fallback_reason`] is `None`: disabled
    /// explicitly, or bypassed under stochastic cycle breaking (whose
    /// randomized per-component orders cannot be cached) — the reason is
    /// echoed on [`SequencingOutcome::fas_fallback_reason`].
    pub fn new(config: SequencerConfig) -> Self {
        let mut tournament = IncrementalTournament::new();
        tournament.set_incremental_fas(config.fas_fallback_reason().is_none());
        SequencingCore {
            tournament,
            fair: IncrementalFairOrder::new(config.threshold),
            config,
            closure: Vec::new(),
            outside: Vec::new(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SequencerConfig {
        &self.config
    }

    /// The incrementally maintained tournament (read-only; exposes the
    /// edge-comparison and full-rebuild counters).
    pub fn tournament(&self) -> &IncrementalTournament {
        &self.tournament
    }

    /// The incremental batch-boundary engine (read-only; exposes the
    /// boundary-re-evaluation and split/merge counters).
    pub fn fair(&self) -> &IncrementalFairOrder {
        &self.fair
    }

    /// Incorporate the message `matrix` just gained (its last index): the
    /// tournament orients the new edges and places the arrival in its
    /// maintained order (a singleton insertion, or an SCC-scoped local
    /// repair when the arrival closes a cycle); on a clean insertion the
    /// batch-boundary engine re-evaluates only the two new adjacencies at
    /// the insertion point, and on a repair (or a fallback-mode cycle
    /// event) the boundary set is rebuilt from the new order at the next
    /// read.
    pub fn insert_last(&mut self, matrix: &PrecedenceMatrix) {
        match self.tournament.insert_last(matrix) {
            Some(position) if !self.fair.is_dirty() => self.fair.insert_at(position, matrix),
            _ => self.fair.mark_dirty(),
        }
    }

    /// Drop the messages `removal` removes. `matrix` is the *post-removal*
    /// matrix — hand the same remap to `PrecedenceMatrix::remove_indices`
    /// first. Surviving batch boundaries keep their bits; only one seam per
    /// removed run is re-evaluated.
    pub fn remove_indices(&mut self, removal: &Removal, matrix: &PrecedenceMatrix) {
        if self.tournament.remove_indices(removal, matrix) && !self.fair.is_dirty() {
            self.fair.remove_slots(removal, matrix);
        } else {
            self.fair.mark_dirty();
        }
    }

    /// Track `matrix` wholesale (the offline one-shot entry point, and the
    /// online re-registration path): every tournament edge is re-derived and
    /// the fair order awaits a one-shot rebuild.
    pub fn load(&mut self, matrix: &PrecedenceMatrix) {
        self.tournament.rebuild(matrix);
        self.fair.mark_dirty();
    }

    /// Make the maintained order and boundary set valid (recomputing only
    /// after a cycle or a [`load`](Self::load)). On a clean incremental
    /// state this is a no-op: zero comparisons, zero boundary evaluations.
    fn refresh(&mut self, matrix: &PrecedenceMatrix, rng: Option<&mut dyn RngCore>) {
        self.tournament.ensure_order(matrix, &self.config, rng);
        if self.fair.is_dirty() {
            self.fair.rebuild_from(self.tournament.order(), matrix);
        }
        debug_assert_eq!(
            self.fair.order(),
            self.tournament.order(),
            "fair order out of lockstep with the tournament"
        );
    }

    /// The complete linear order (§3.4), identical to what the one-shot
    /// `Tournament::from_matrix(..).linear_order(..)` would produce.
    pub fn linear_order(
        &mut self,
        matrix: &PrecedenceMatrix,
        rng: Option<&mut dyn RngCore>,
    ) -> Vec<usize> {
        self.refresh(matrix, rng);
        self.tournament.order().to_vec()
    }

    /// The fair partial order over the tracked messages, materialized as a
    /// [`FairOrder`] — identical to
    /// [`FairOrder::from_linear_order`] over the same matrix and order.
    pub fn fair_order(
        &mut self,
        matrix: &PrecedenceMatrix,
        rng: Option<&mut dyn RngCore>,
    ) -> FairOrder {
        self.refresh(matrix, rng);
        self.fair.to_fair_order(matrix)
    }

    /// The matrix indices of the online candidate batch: the lowest-rank
    /// batch of the maintained fair order, closed under the Appendix C rule
    /// (the batch absorbs every pending message that cannot be confidently
    /// separated from some member, transitively), sorted ascending.
    ///
    /// On a clean incremental state this reads the maintained boundary set
    /// directly — no linear-order clone, no `FairOrder` construction, no
    /// rank hashing — leaving the closure's `O(n × batch)` probability
    /// *reads* as the only per-candidate scan.
    ///
    /// The worklist form is identical to re-scanning every round: a message
    /// already checked against a batch member never needs re-checking, so
    /// each round compares the remaining outsiders only against the members
    /// added last round (`batch[frontier..]`). The returned slice is the
    /// core's own reused buffer.
    pub fn candidate_indices(
        &mut self,
        matrix: &PrecedenceMatrix,
        rng: Option<&mut dyn RngCore>,
    ) -> Option<&[usize]> {
        if matrix.is_empty() {
            return None;
        }
        self.refresh(matrix, rng);
        let (batch, outside) = (&mut self.closure, &mut self.outside);
        batch.clear();
        batch.extend_from_slice(self.fair.first_batch());
        outside.clear();
        outside.extend((0..matrix.len()).filter(|i| !batch.contains(i)));
        let threshold = self.config.threshold;
        let mut frontier = 0;
        while frontier < batch.len() && !outside.is_empty() {
            let round_end = batch.len();
            outside.retain(|&cand| {
                let inseparable = batch[frontier..round_end].iter().any(|&b| {
                    let p = matrix.prob(b, cand).max(matrix.prob(cand, b));
                    p <= threshold
                });
                if inseparable {
                    batch.push(cand);
                }
                !inseparable
            });
            frontier = round_end;
        }
        batch.sort_unstable();
        Some(batch)
    }

    /// The one-shot sequencing outcome (fair order + diagnostics) over the
    /// tracked matrix — the accessor the offline sequencer returns from
    /// `sequence_detailed`.
    pub fn outcome(
        &mut self,
        matrix: &PrecedenceMatrix,
        rng: Option<&mut dyn RngCore>,
    ) -> SequencingOutcome {
        self.refresh(matrix, rng);
        let transitive = self.tournament.is_transitive();
        let cyclic_components = if transitive {
            0
        } else {
            self.tournament.cyclic_component_count()
        };
        SequencingOutcome {
            order: self.fair.to_fair_order(matrix),
            transitive,
            cyclic_components,
            confident_pair_fraction: matrix.confident_pair_fraction(self.config.threshold),
            fas_fallback_reason: self.config.fas_fallback_reason(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{ClientId, Message, MessageId};
    use crate::registry::DistributionRegistry;
    use crate::tournament::Tournament;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use tommy_stats::distribution::OffsetDistribution;

    fn msgs(n: usize) -> Vec<Message> {
        (0..n)
            .map(|i| Message::new(MessageId(i as u64), ClientId(i as u32), 0.0))
            .collect()
    }

    /// The maintained core must be bit-identical to the one-shot pipeline:
    /// same linear order, and a fair order equal in batches, ranks, and
    /// boundary set to `FairOrder::from_linear_order` over it.
    fn assert_core_matches_one_shot(core: &mut SequencingCore, matrix: &PrecedenceMatrix) {
        let config = *core.config();
        let scratch = Tournament::from_matrix(matrix);
        let scratch_order = scratch.linear_order(matrix, &config, None);
        assert_eq!(
            core.linear_order(matrix, None),
            scratch_order,
            "linear order diverged"
        );
        let reference = FairOrder::from_linear_order(matrix, &scratch_order, config.threshold);
        let maintained = core.fair_order(matrix, None);
        assert_eq!(maintained, reference, "fair order diverged");
        assert_eq!(
            core.fair().boundary_positions(),
            reference.boundary_positions(),
            "boundary set diverged"
        );
        // The candidate batch equals the closure over the reference's batch 0.
        let candidate = core.candidate_indices(matrix, None).unwrap();
        assert!(!candidate.is_empty());
        for id in &reference.batches()[0].messages {
            let slot = matrix.index_of(*id).unwrap();
            assert!(candidate.contains(&slot), "candidate lost a batch-0 member");
        }
    }

    /// Mirror of the tournament's randomized insert/remove property test,
    /// extended to the batch-boundary engine: Gaussian + Laplace clients
    /// (always transitive ⇒ zero rebuilds), random thresholds per seed.
    #[test]
    fn random_insert_remove_sequences_match_one_shot() {
        for seed in 0..10u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut reg = DistributionRegistry::new();
            for c in 0..4u32 {
                let dist = if c % 2 == 0 {
                    OffsetDistribution::gaussian(0.0, 1.0 + c as f64)
                } else {
                    OffsetDistribution::laplace(0.0, 1.0 + c as f64)
                };
                reg.register(ClientId(c), dist);
            }
            let threshold = rng.random_range(0.55..0.95f64);
            let config = SequencerConfig::default().with_threshold(threshold);
            let mut matrix = PrecedenceMatrix::empty();
            let mut core = SequencingCore::new(config);
            let mut next_id = 0u64;
            for _ in 0..30 {
                let remove = !matrix.is_empty() && rng.random_range(0u32..4) == 0;
                if remove {
                    let count = rng.random_range(1usize..=matrix.len());
                    let mut indices: Vec<usize> = (0..matrix.len()).collect();
                    for _ in 0..(matrix.len() - count) {
                        let k = rng.random_range(0usize..indices.len());
                        indices.remove(k);
                    }
                    let removal = Removal::of(matrix.len(), &indices);
                    matrix.remove_indices(&removal);
                    core.remove_indices(&removal, &matrix);
                } else {
                    let m = Message::new(
                        MessageId(next_id),
                        ClientId(rng.random_range(0u32..4)),
                        rng.random_range(-100.0..100.0f64),
                    );
                    next_id += 1;
                    matrix.insert(m, &reg).unwrap();
                    core.insert_last(&matrix);
                }
                if matrix.is_empty() {
                    assert!(core.fair().is_empty());
                } else {
                    assert_core_matches_one_shot(&mut core, &matrix);
                }
            }
            assert_eq!(
                core.tournament().full_rebuilds(),
                0,
                "seed {seed}: transitive workload must never rebuild"
            );
            assert_eq!(
                core.fair().counters().full_rebuilds,
                0,
                "seed {seed}: transitive workload must never rebuild the boundaries"
            );
        }
    }

    /// Same property over explicit random probability matrices, which —
    /// unlike Gaussian offsets — produce intransitive triples, exercising
    /// the cycle-induced rebuild fallbacks of both the tournament and the
    /// batch-boundary engine.
    #[test]
    #[allow(clippy::needless_range_loop)] // symmetric (i, j) matrix fill
    fn random_probability_matrices_match_one_shot_including_cycles() {
        const POOL: usize = 20;
        for seed in 0..10u64 {
            let mut rng = StdRng::seed_from_u64(5_000 + seed);
            let mut pairwise = vec![vec![0.5; POOL]; POOL];
            for i in 0..POOL {
                for j in (i + 1)..POOL {
                    let p = rng.random_range(0.05..0.95f64);
                    pairwise[i][j] = p;
                    pairwise[j][i] = 1.0 - p;
                }
            }
            let pool_msgs = msgs(POOL);
            let rebuild_matrix = |pending: &[usize]| -> PrecedenceMatrix {
                let messages: Vec<Message> =
                    pending.iter().map(|&g| pool_msgs[g].clone()).collect();
                let probs: Vec<Vec<f64>> = pending
                    .iter()
                    .map(|&gi| pending.iter().map(|&gj| pairwise[gi][gj]).collect())
                    .collect();
                PrecedenceMatrix::from_probabilities(&messages, &probs)
            };

            let threshold = rng.random_range(0.55..0.95f64);
            let config = SequencerConfig::default().with_threshold(threshold);
            let mut pending: Vec<usize> = Vec::new();
            let mut core = SequencingCore::new(config);
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
                        // The core still tracks the removal; compare against
                        // an empty state below.
                        core.remove_indices(&removal, &PrecedenceMatrix::empty());
                    } else {
                        core.remove_indices(&removal, &rebuild_matrix(&pending));
                    }
                } else if next < POOL {
                    pending.push(next);
                    next += 1;
                    core.insert_last(&rebuild_matrix(&pending));
                } else {
                    continue;
                }
                if pending.is_empty() {
                    assert!(core.tournament().is_empty());
                } else {
                    let matrix = rebuild_matrix(&pending);
                    assert_core_matches_one_shot(&mut core, &matrix);
                    saw_cycle |= !core.tournament().is_transitive();
                }
            }
            assert!(saw_cycle, "seed {seed}: random relation never cycled");
        }
    }

    /// `load` + `outcome` is the offline pipeline: diagnostics and order
    /// must match the historical `Tournament::from_matrix` path exactly.
    #[test]
    fn loaded_outcome_matches_one_shot_pipeline() {
        let matrix = PrecedenceMatrix::from_probabilities(
            &msgs(4),
            &[
                vec![0.5, 0.85, 0.65, 0.92],
                vec![0.15, 0.5, 0.72, 0.68],
                vec![0.35, 0.28, 0.5, 0.80],
                vec![0.08, 0.32, 0.20, 0.5],
            ],
        );
        let config = SequencerConfig::default();
        let mut core = SequencingCore::new(config);
        core.load(&matrix);
        let outcome = core.outcome(&matrix, None);
        assert!(outcome.transitive);
        assert_eq!(outcome.cyclic_components, 0);
        assert_eq!(outcome.order.num_batches(), 3);
        assert_eq!(outcome.order.batches()[1].messages, vec![MessageId(1), MessageId(2)]);

        // A cyclic matrix reports its component count like the one-shot path.
        let cyclic = PrecedenceMatrix::from_probabilities(
            &msgs(3),
            &[
                vec![0.5, 0.8, 0.3],
                vec![0.2, 0.5, 0.8],
                vec![0.7, 0.2, 0.5],
            ],
        );
        core.load(&cyclic);
        let outcome = core.outcome(&cyclic, None);
        assert!(!outcome.transitive);
        assert_eq!(outcome.cyclic_components, 1);
        assert_eq!(outcome.order.num_messages(), 3);
    }
}

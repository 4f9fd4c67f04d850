//! The incremental batch-boundary engine.
//!
//! [`IncrementalFairOrder`] maintains the §3.4 threshold batching *across*
//! arrivals and removals instead of recomputing
//! [`FairOrder::from_linear_order`] per arrival. A batch boundary between two
//! adjacent messages depends only on that pair's probability, so:
//!
//! * an arrival inserted at position `k` of the maintained linear order
//!   re-evaluates exactly the two adjacencies `k−1/k` and `k/k+1`
//!   (and drops the old `k−1/k+1` one), splitting or merging batches
//!   locally;
//! * an emitted batch's removal keeps every surviving adjacency's bit and
//!   re-evaluates only the one seam per removed run;
//! * ranks are never stored: a batch's rank is the number of set boundary
//!   bits ([`BoundarySet`]) before it, read off when the order is
//!   materialized — no `HashMap<MessageId, usize>` is ever rebuilt on the
//!   arrival path.
//!
//! When the tournament's maintained order is invalidated (an intransitivity
//! cycle — never for Gaussian offsets), the engine is marked dirty and
//! rebuilt one-shot from the recomputed linear order, mirroring
//! [`IncrementalTournament`](crate::tournament::IncrementalTournament)'s
//! `full_rebuilds` fallback. The maintained state is pinned equal to the
//! one-shot constructor — batches, ranks, and boundary set — by the property
//! tests below and in the dense engine's (`sequencer::dense`), which keeps
//! one beside the tournament.

use crate::batching::boundary::BoundarySet;
use crate::batching::fair_order::FairOrder;
use crate::message::MessageId;
use crate::precedence::{PrecedenceMatrix, Removal};

/// Counters describing the work an [`IncrementalFairOrder`] performed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FairOrderCounters {
    /// Adjacent-pair probability re-evaluations (each a single matrix read).
    /// An arrival costs at most two; a removal costs one per removed run; a
    /// rebuild costs `n − 1`.
    pub boundary_evals: u64,
    /// Local edits that increased the boundary count (an arrival separating
    /// what was one batch).
    pub batch_splits: u64,
    /// Local edits that decreased the boundary count (an arrival bridging
    /// two batches into one).
    pub batch_merges: u64,
    /// One-shot rebuilds from a recomputed linear order (cycle fallbacks and
    /// wholesale re-registrations). Stays **zero** on acyclic (Gaussian)
    /// workloads.
    pub full_rebuilds: u64,
}

/// Threshold batching maintained incrementally over a linear order that is
/// itself maintained incrementally (see module docs).
#[derive(Debug, Clone)]
pub struct IncrementalFairOrder {
    threshold: f64,
    /// The maintained linear order: position → matrix slot. Kept in lockstep
    /// with `IncrementalTournament`'s maintained order by the dense engine
    /// (`sequencer::dense`).
    order: Vec<usize>,
    /// Batch-start bits aligned with `order`.
    boundary: BoundarySet,
    /// Set when the maintained order was invalidated wholesale; cleared by
    /// [`rebuild_from`](Self::rebuild_from).
    dirty: bool,
    counters: FairOrderCounters,
}

impl IncrementalFairOrder {
    /// An empty engine at the given batching threshold (same domain as
    /// [`FairOrder::from_linear_order`]).
    pub fn new(threshold: f64) -> Self {
        assert!(
            (0.5..1.0).contains(&threshold),
            "threshold must be in [0.5, 1.0), got {threshold}"
        );
        IncrementalFairOrder {
            threshold,
            order: Vec::new(),
            boundary: BoundarySet::new(),
            dirty: false,
            counters: FairOrderCounters::default(),
        }
    }

    /// Number of tracked messages.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether no messages are tracked.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Work counters so far.
    pub fn counters(&self) -> FairOrderCounters {
        self.counters
    }

    /// Whether the maintained state awaits a [`rebuild_from`](Self::rebuild_from).
    pub fn is_dirty(&self) -> bool {
        self.dirty
    }

    /// Invalidate the maintained state (the linear order changed wholesale —
    /// a cycle appeared or a client was re-registered).
    pub fn mark_dirty(&mut self) {
        self.dirty = true;
    }

    /// The maintained linear order (position → matrix slot).
    pub fn order(&self) -> &[usize] {
        debug_assert!(!self.dirty, "order read while dirty");
        &self.order
    }

    /// Number of batches.
    pub fn num_batches(&self) -> usize {
        debug_assert!(!self.dirty, "batches read while dirty");
        self.boundary.num_batches()
    }

    /// The boundary positions (`p ≥ 1` such that position `p` starts a new
    /// batch), ascending — the set the equivalence tests compare against the
    /// one-shot constructor.
    pub fn boundary_positions(&self) -> Vec<usize> {
        debug_assert!(!self.dirty, "boundaries read while dirty");
        self.boundary.positions()
    }

    /// The matrix slots of the lowest-rank batch (positions `0..` up to the
    /// first boundary). `O(batch size)`.
    pub fn first_batch(&self) -> &[usize] {
        debug_assert!(!self.dirty, "first batch read while dirty");
        let end = self.boundary.first_boundary().unwrap_or(self.order.len());
        &self.order[..end]
    }

    /// Rebuild one-shot from a recomputed linear order (the cycle / wholesale
    /// fallback): every adjacent pair is re-evaluated, exactly as
    /// [`FairOrder::from_linear_order`] would. Clears the dirty flag and
    /// counts a full rebuild.
    pub fn rebuild_from(&mut self, order: &[usize], matrix: &PrecedenceMatrix) {
        debug_assert_eq!(order.len(), matrix.len(), "order out of sync with matrix");
        self.order = order.to_vec();
        let mut bits = Vec::with_capacity(order.len());
        for (p, &slot) in order.iter().enumerate() {
            let start = p == 0 || matrix.prob(order[p - 1], slot) > self.threshold;
            bits.push(start);
        }
        self.counters.boundary_evals += order.len().saturating_sub(1) as u64;
        self.counters.full_rebuilds += 1;
        self.boundary = BoundarySet::from_bits(bits);
        self.dirty = false;
    }

    /// Incorporate the message `matrix` just gained (its last slot), inserted
    /// at position `pos` of the maintained linear order — the position the
    /// tournament's block scan chose. Exactly the two new adjacencies are
    /// evaluated; the old `pos−1/pos` adjacency bit is replaced.
    ///
    /// # Panics
    ///
    /// Panics if `pos` is out of range; the engine must not be dirty and the
    /// matrix must be one message ahead of the engine (debug-asserted).
    pub fn insert_at(&mut self, pos: usize, matrix: &PrecedenceMatrix) {
        debug_assert!(!self.dirty, "insert into a dirty engine");
        let n = self.order.len();
        debug_assert_eq!(matrix.len(), n + 1, "insert_at must follow the matrix insert");
        assert!(pos <= n, "insert position {pos} out of range for {n} messages");
        let slot = matrix.len() - 1;

        let old_boundary = pos > 0 && pos < n && self.boundary.get(pos);
        let left_start = if pos == 0 {
            true
        } else {
            self.counters.boundary_evals += 1;
            matrix.prob(self.order[pos - 1], slot) > self.threshold
        };
        let right_start = if pos < n {
            self.counters.boundary_evals += 1;
            Some(matrix.prob(slot, self.order[pos]) > self.threshold)
        } else {
            None
        };

        self.order.insert(pos, slot);
        self.boundary.insert(pos, left_start);
        if let Some(start) = right_start {
            self.boundary.set(pos + 1, start);
        }

        let new_boundaries =
            usize::from(pos > 0 && left_start) + usize::from(right_start == Some(true));
        let old_boundaries = usize::from(old_boundary);
        if new_boundaries > old_boundaries {
            self.counters.batch_splits += (new_boundaries - old_boundaries) as u64;
        } else if old_boundaries > new_boundaries {
            self.counters.batch_merges += (old_boundaries - new_boundaries) as u64;
        }
    }

    /// Drop the messages `removal` removes (by matrix slot), compacting the
    /// survivors exactly like [`PrecedenceMatrix::remove_indices`] and
    /// `IncrementalTournament::remove_indices` do under the same remap.
    /// `matrix` is the *post-removal* matrix. Surviving adjacencies keep
    /// their bits; only the one seam per removed run is re-evaluated.
    pub fn remove_slots(&mut self, removal: &Removal, matrix: &PrecedenceMatrix) {
        debug_assert!(!self.dirty, "removal from a dirty engine");
        assert_eq!(removal.len(), self.order.len(), "remap of another index space");
        let next = removal.kept().len();
        debug_assert_eq!(matrix.len(), next, "matrix must already be compacted");

        // In place: position `p` is read before the write cursor reaches it.
        let mut kept = 0usize;
        let mut prev_pos: Option<usize> = None;
        for p in 0..self.order.len() {
            let Some(slot) = removal.new_index(self.order[p]) else {
                continue;
            };
            let start = match prev_pos {
                None => true,
                // Adjacent survivors: the pair (and its probability) is
                // unchanged, so the bit carries over.
                Some(q) if q + 1 == p => self.boundary.get(p),
                // A removed run sat between them: one seam re-evaluation.
                Some(_) => {
                    self.counters.boundary_evals += 1;
                    matrix.prob(self.order[kept - 1], slot) > self.threshold
                }
            };
            self.order[kept] = slot;
            self.boundary.set(kept, start);
            kept += 1;
            prev_pos = Some(p);
        }
        self.order.truncate(next);
        self.boundary.truncate(next);
    }

    /// Materialize the maintained state as a [`FairOrder`] (used by the
    /// offline path's output and by the equivalence tests).
    pub fn to_fair_order(&self, matrix: &PrecedenceMatrix) -> FairOrder {
        debug_assert!(!self.dirty, "materialized while dirty");
        let mut groups: Vec<Vec<MessageId>> = Vec::with_capacity(self.boundary.num_batches());
        for (p, &slot) in self.order.iter().enumerate() {
            if p == 0 || self.boundary.get(p) {
                groups.push(Vec::new());
            }
            groups
                .last_mut()
                .expect("position 0 opens a group")
                .push(matrix.message(slot).id);
        }
        FairOrder::from_groups(groups)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{ClientId, Message};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn mk_msgs(n: usize) -> Vec<Message> {
        (0..n)
            .map(|i| Message::new(MessageId(i as u64), ClientId(i as u32), 0.0))
            .collect()
    }

    fn appendix_b_matrix() -> PrecedenceMatrix {
        PrecedenceMatrix::from_probabilities(
            &mk_msgs(4),
            &[
                vec![0.5, 0.85, 0.65, 0.92],
                vec![0.15, 0.5, 0.72, 0.68],
                vec![0.35, 0.28, 0.5, 0.80],
                vec![0.08, 0.32, 0.20, 0.5],
            ],
        )
    }

    /// The maintained state must equal the one-shot constructor over the
    /// maintained order: batches, ranks, and boundary positions.
    fn assert_matches_one_shot(inc: &IncrementalFairOrder, matrix: &PrecedenceMatrix) {
        let order = inc.order().to_vec();
        let reference = FairOrder::from_linear_order(matrix, &order, inc.threshold);
        let materialized = inc.to_fair_order(matrix);
        assert_eq!(materialized, reference, "batches diverged");
        assert_eq!(
            inc.boundary_positions(),
            reference.boundary_positions(),
            "boundaries diverged"
        );
        assert_eq!(inc.num_batches(), reference.num_batches());
        // First batch = batch 0 of the reference.
        let first_ids: Vec<MessageId> = inc
            .first_batch()
            .iter()
            .map(|&s| matrix.message(s).id)
            .collect();
        assert_eq!(first_ids, reference.batches()[0].messages);
    }

    #[test]
    fn appendix_b_built_by_appends_matches_one_shot() {
        // Insert A, B, C, D in order (each appended at the end of the path),
        // reproducing the paper's {A} ≺ {B, C} ≺ {D} at threshold 0.75.
        let full = appendix_b_matrix();
        let reference = full.messages().to_vec();
        let pairwise: Vec<Vec<f64>> = (0..4)
            .map(|i| (0..4).map(|j| full.prob(i, j)).collect())
            .collect();
        let mut inc = IncrementalFairOrder::new(0.75);
        for k in 1..=4usize {
            let prefix: Vec<Vec<f64>> = (0..k)
                .map(|i| (0..k).map(|j| pairwise[i][j]).collect())
                .collect();
            let matrix = PrecedenceMatrix::from_probabilities(&reference[..k], &prefix);
            inc.insert_at(k - 1, &matrix);
            assert_matches_one_shot(&inc, &matrix);
        }
        assert_eq!(inc.num_batches(), 3);
        assert_eq!(inc.first_batch(), &[0]);
        assert_eq!(inc.counters().full_rebuilds, 0);
        // 3 appends with an existing neighbour: one eval each.
        assert_eq!(inc.counters().boundary_evals, 3);
    }

    /// Random insert positions and thresholds: after every edit the engine
    /// equals the one-shot constructor over its own order. Exercises splits,
    /// merges and interior inserts.
    #[test]
    #[allow(clippy::needless_range_loop)] // symmetric (i, j) matrix fill
    fn random_insert_positions_match_one_shot() {
        for seed in 0..20u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            const POOL: usize = 16;
            let mut pairwise = vec![vec![0.5; POOL]; POOL];
            for i in 0..POOL {
                for j in (i + 1)..POOL {
                    let p = rng.random_range(0.05..0.95f64);
                    pairwise[i][j] = p;
                    pairwise[j][i] = 1.0 - p;
                }
            }
            let pool_msgs = mk_msgs(POOL);
            let threshold = rng.random_range(0.55..0.95f64);
            let mut inc = IncrementalFairOrder::new(threshold);
            for k in 1..=POOL {
                let prefix: Vec<Vec<f64>> = (0..k)
                    .map(|i| (0..k).map(|j| pairwise[i][j]).collect())
                    .collect();
                let matrix = PrecedenceMatrix::from_probabilities(&pool_msgs[..k], &prefix);
                let pos = rng.random_range(0..k); // any position is legal here
                inc.insert_at(pos, &matrix);
                assert_matches_one_shot(&inc, &matrix);
            }
        }
    }

    #[test]
    fn removal_keeps_surviving_bits_and_reevaluates_seams() {
        let matrix = appendix_b_matrix();
        let mut inc = IncrementalFairOrder::new(0.75);
        inc.rebuild_from(&[0, 1, 2, 3], &matrix);
        assert_eq!(inc.counters().full_rebuilds, 1);
        // Remove B (slot 1): A and C become adjacent — p(A→C) = 0.65 ≤ 0.75,
        // so they merge into one batch; D stays separate (p(C→D) = 0.80).
        let survivors = vec![
            matrix.message(0).clone(),
            matrix.message(2).clone(),
            matrix.message(3).clone(),
        ];
        let compacted = PrecedenceMatrix::from_probabilities(
            &survivors,
            &[
                vec![0.5, 0.65, 0.92],
                vec![0.35, 0.5, 0.80],
                vec![0.08, 0.20, 0.5],
            ],
        );
        let before = inc.counters().boundary_evals;
        inc.remove_slots(&Removal::of(4, &[1]), &compacted);
        assert_eq!(inc.counters().boundary_evals, before + 1, "one seam");
        assert_matches_one_shot(&inc, &compacted);
        assert_eq!(inc.num_batches(), 2);
        assert_eq!(inc.first_batch(), &[0, 1]);
    }

    #[test]
    fn split_and_merge_counters_track_local_edits() {
        // Two inseparable messages (p = 0.6 ≤ 0.75): one batch.
        let msgs = mk_msgs(3);
        let m2 = PrecedenceMatrix::from_probabilities(
            &msgs[..2],
            &[vec![0.5, 0.6], vec![0.4, 0.5]],
        );
        let mut inc = IncrementalFairOrder::new(0.75);
        inc.insert_at(0, &PrecedenceMatrix::from_probabilities(&msgs[..1], &[vec![0.5]]));
        inc.insert_at(1, &m2);
        assert_eq!(inc.num_batches(), 1);
        assert_eq!(inc.counters().batch_splits, 0);
        // A third message lands *between* them and separates both sides:
        // one old (absent) boundary replaced by two new ones — 2 splits.
        let m3 = PrecedenceMatrix::from_probabilities(
            &msgs,
            &[
                vec![0.5, 0.6, 0.9],
                vec![0.4, 0.5, 0.05],
                vec![0.1, 0.95, 0.5],
            ],
        );
        inc.insert_at(1, &m3);
        assert_eq!(inc.num_batches(), 3);
        assert_eq!(inc.counters().batch_splits, 2);
        assert_eq!(inc.counters().batch_merges, 0);
        assert_matches_one_shot(&inc, &m3);
    }

    #[test]
    fn dirty_engine_rebuilds_to_clean_state() {
        let matrix = appendix_b_matrix();
        let mut inc = IncrementalFairOrder::new(0.75);
        inc.rebuild_from(&[0, 1, 2, 3], &matrix);
        inc.mark_dirty();
        assert!(inc.is_dirty());
        inc.rebuild_from(&[3, 2, 1, 0], &matrix); // any recomputed order
        assert!(!inc.is_dirty());
        assert_matches_one_shot(&inc, &matrix);
        assert_eq!(inc.counters().full_rebuilds, 2);
    }

    #[test]
    #[should_panic(expected = "threshold must be in")]
    fn out_of_range_threshold_rejected() {
        IncrementalFairOrder::new(1.0);
    }
}

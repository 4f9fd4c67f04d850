//! The static fair-order types: [`Batch`] and [`FairOrder`].
//!
//! [`FairOrder::from_linear_order`] is the one-shot §3.4 constructor — walk
//! the linear order, split wherever the adjacent-pair probability exceeds the
//! threshold. Only reference tests call it: both engines keep the same
//! boundary bits beside the order they maintain
//! ([`crate::tournament::IncrementalTournament`], or the sparse engine's
//! `starts_batch` bits) and materialize a `FairOrder` from them through
//! [`FairOrder::from_groups`], or, on the offline sparse path,
//! through `from_parts` with the window's id map as the rank index.

use crate::message::MessageId;
use crate::precedence::PrecedenceMatrix;
use std::collections::HashMap;

/// One batch of messages sharing a rank.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Batch {
    /// The batch's rank; batches are processed in increasing rank order.
    pub rank: usize,
    /// The messages in this batch, in the order the linear extraction
    /// produced them (this internal order carries *no* fairness meaning).
    pub messages: Vec<MessageId>,
}

impl Batch {
    /// Number of messages in the batch.
    pub fn len(&self) -> usize {
        self.messages.len()
    }

    /// Whether the batch is empty (never true for sequencer output).
    pub fn is_empty(&self) -> bool {
        self.messages.is_empty()
    }
}

/// The output of a fair sequencer: a totally ordered sequence of batches,
/// i.e. a fair partial order over messages.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FairOrder {
    batches: Vec<Batch>,
    rank_index: HashMap<MessageId, usize>,
}

impl FairOrder {
    /// Build a fair order by walking a linear order and inserting batch
    /// boundaries wherever the adjacent-pair probability exceeds `threshold`.
    ///
    /// `order` contains indices into `matrix`.
    pub fn from_linear_order(matrix: &PrecedenceMatrix, order: &[usize], threshold: f64) -> Self {
        assert!(
            (0.5..1.0).contains(&threshold) || threshold == 0.5,
            "threshold must be in [0.5, 1.0), got {threshold}"
        );
        let mut groups: Vec<Vec<MessageId>> = Vec::new();
        let mut current: Vec<MessageId> = Vec::new();
        for (pos, &idx) in order.iter().enumerate() {
            if pos > 0 {
                let prev = order[pos - 1];
                if matrix.prob(prev, idx) > threshold {
                    groups.push(std::mem::take(&mut current));
                }
            }
            current.push(matrix.message(idx).id);
        }
        if !current.is_empty() {
            groups.push(current);
        }
        FairOrder::from_groups(groups)
    }

    /// Build a fair order from explicit groups of message ids (each group is
    /// one batch, in the given order): the rank index is built here, then
    /// the order is assembled by the one constructor path, `from_parts`.
    ///
    /// Every id must appear in at most one group; the duplicate check
    /// re-hashes each message and is only performed in debug builds (the
    /// sequencers construct groups from a matrix that already rejects
    /// duplicates).
    pub fn from_groups(groups: Vec<Vec<MessageId>>) -> Self {
        let total: usize = groups.iter().map(Vec::len).sum();
        let mut rank_index = HashMap::with_capacity(total);
        for (rank, messages) in groups.iter().enumerate() {
            for &id in messages {
                let previous = rank_index.insert(id, rank);
                debug_assert!(previous.is_none(), "message {id} appears in two batches");
            }
        }
        FairOrder::from_parts(groups, rank_index)
    }

    /// Assemble a fair order from its groups and a rank index the caller
    /// already holds, hashing nothing: the offline sparse path turns the
    /// window's duplicate-check map into this index in place. The index
    /// must map exactly the grouped ids to their group's position.
    pub(crate) fn from_parts(
        groups: Vec<Vec<MessageId>>,
        rank_index: HashMap<MessageId, usize>,
    ) -> Self {
        debug_assert_eq!(rank_index.len(), groups.iter().map(Vec::len).sum::<usize>());
        let batches = (0..)
            .zip(groups)
            .map(|(rank, messages)| {
                assert!(!messages.is_empty(), "batches must be non-empty");
                Batch { rank, messages }
            })
            .collect();
        FairOrder {
            batches,
            rank_index,
        }
    }

    /// Build a fair *total* order: every message is its own batch, in the
    /// given order. Used by the FIFO / WFO baselines.
    pub fn from_total_order(ids: &[MessageId]) -> Self {
        FairOrder::from_groups(ids.iter().map(|&id| vec![id]).collect())
    }

    /// The batches in rank order.
    pub fn batches(&self) -> &[Batch] {
        &self.batches
    }

    /// Number of batches.
    pub fn num_batches(&self) -> usize {
        self.batches.len()
    }

    /// Total number of messages across all batches.
    pub fn num_messages(&self) -> usize {
        self.rank_index.len()
    }

    /// Whether the order contains no messages.
    pub fn is_empty(&self) -> bool {
        self.batches.is_empty()
    }

    /// The rank of the batch containing `id`, if the message was sequenced.
    pub fn rank_of(&self, id: MessageId) -> Option<usize> {
        self.rank_index.get(&id).copied()
    }

    /// Whether two messages were confidently ordered (different batches).
    /// Returns `None` if either message was not sequenced.
    pub fn ordered(&self, a: MessageId, b: MessageId) -> Option<bool> {
        Some(self.rank_of(a)? != self.rank_of(b)?)
    }

    /// Sizes of all batches, in rank order.
    pub fn batch_sizes(&self) -> Vec<usize> {
        self.batches.iter().map(|b| b.len()).collect()
    }

    /// The batch-boundary positions in flattened order: the cumulative batch
    /// lengths, excluding the total (a boundary sits *before* each batch of
    /// rank ≥ 1). Matches
    /// [`IncrementalTournament::boundary_positions`](crate::tournament::IncrementalTournament::boundary_positions)
    /// when both describe the same order.
    pub fn boundary_positions(&self) -> Vec<usize> {
        let mut positions = Vec::with_capacity(self.batches.len().saturating_sub(1));
        let mut cut = 0usize;
        for batch in &self.batches {
            if cut > 0 {
                positions.push(cut);
            }
            cut += batch.len();
        }
        positions
    }

    /// The size of the largest batch (0 if empty).
    pub fn max_batch_size(&self) -> usize {
        self.batches.iter().map(|b| b.len()).max().unwrap_or(0)
    }

    /// All message ids flattened in batch-rank order (within a batch the
    /// internal order is preserved but meaningless).
    pub fn flatten(&self) -> Vec<MessageId> {
        self.batches
            .iter()
            .flat_map(|b| b.messages.iter().copied())
            .collect()
    }

    /// Append a batch at the end (used by the online sequencer as batches are
    /// emitted incrementally).
    ///
    /// # Panics
    ///
    /// Panics if the batch is empty or contains an already-sequenced message.
    pub fn push_batch(&mut self, messages: Vec<MessageId>) {
        assert!(!messages.is_empty(), "batches must be non-empty");
        let rank = self.batches.len();
        for &id in &messages {
            let previous = self.rank_index.insert(id, rank);
            assert!(previous.is_none(), "message {id} appears in two batches");
        }
        self.batches.push(Batch { rank, messages });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{ClientId, Message};

    impl FairOrder {
        /// Mean batch size (0 if empty).
        fn mean_batch_size(&self) -> f64 {
            if self.batches.is_empty() {
                return 0.0;
            }
            self.num_messages() as f64 / self.num_batches() as f64
        }
    }

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

    #[test]
    fn appendix_b_batching_at_075() {
        // Paper: {A} ≺ {B, C} ≺ {D} at threshold 0.75.
        let m = appendix_b_matrix();
        let order = vec![0, 1, 2, 3];
        let fo = FairOrder::from_linear_order(&m, &order, 0.75);
        assert_eq!(fo.num_batches(), 3);
        assert_eq!(fo.batches()[0].messages, vec![MessageId(0)]);
        assert_eq!(fo.batches()[1].messages, vec![MessageId(1), MessageId(2)]);
        assert_eq!(fo.batches()[2].messages, vec![MessageId(3)]);
        assert_eq!(fo.rank_of(MessageId(0)), Some(0));
        assert_eq!(fo.rank_of(MessageId(2)), Some(1));
        assert_eq!(fo.rank_of(MessageId(3)), Some(2));
    }

    #[test]
    fn higher_threshold_gives_fewer_batches() {
        let m = appendix_b_matrix();
        let order = vec![0, 1, 2, 3];
        let strict = FairOrder::from_linear_order(&m, &order, 0.9);
        let loose = FairOrder::from_linear_order(&m, &order, 0.6);
        assert!(strict.num_batches() <= loose.num_batches());
        // At 0.9 only the 0.92 edge? No adjacent edge exceeds 0.9
        // (0.85, 0.72, 0.80), so everything is one batch.
        assert_eq!(strict.num_batches(), 1);
        // At 0.6 every adjacent edge exceeds the threshold: total order.
        assert_eq!(loose.num_batches(), 4);
    }

    #[test]
    fn batching_preserves_all_messages_exactly_once() {
        let m = appendix_b_matrix();
        let order = vec![0, 1, 2, 3];
        for threshold in [0.55, 0.7, 0.75, 0.85, 0.95] {
            let fo = FairOrder::from_linear_order(&m, &order, threshold);
            assert_eq!(fo.num_messages(), 4);
            let mut flat = fo.flatten();
            flat.sort();
            assert_eq!(
                flat,
                vec![MessageId(0), MessageId(1), MessageId(2), MessageId(3)]
            );
            // Ranks within bounds and non-decreasing along the linear order.
            let ranks: Vec<usize> = order
                .iter()
                .map(|&i| fo.rank_of(m.message(i).id).unwrap())
                .collect();
            for w in ranks.windows(2) {
                assert!(w[1] >= w[0]);
            }
        }
    }

    #[test]
    fn total_order_helper() {
        let ids = vec![MessageId(5), MessageId(3), MessageId(9)];
        let fo = FairOrder::from_total_order(&ids);
        assert_eq!(fo.num_batches(), 3);
        assert_eq!(fo.rank_of(MessageId(3)), Some(1));
        assert_eq!(fo.max_batch_size(), 1);
        assert!((fo.mean_batch_size() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ordered_pairs() {
        let fo = FairOrder::from_groups(vec![
            vec![MessageId(1)],
            vec![MessageId(2), MessageId(3)],
        ]);
        assert_eq!(fo.ordered(MessageId(1), MessageId(2)), Some(true));
        assert_eq!(fo.ordered(MessageId(2), MessageId(3)), Some(false));
        assert_eq!(fo.ordered(MessageId(1), MessageId(99)), None);
    }

    #[test]
    fn push_batch_appends_with_increasing_rank() {
        let mut fo = FairOrder::default();
        assert!(fo.is_empty());
        fo.push_batch(vec![MessageId(1)]);
        fo.push_batch(vec![MessageId(2), MessageId(3)]);
        assert_eq!(fo.num_batches(), 2);
        assert_eq!(fo.rank_of(MessageId(3)), Some(1));
        assert_eq!(fo.batch_sizes(), vec![1, 2]);
    }

    /// The duplicate check is debug-only: release builds trust the caller
    /// (the matrix already rejects duplicate ids) and skip the re-hash.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "two batches")]
    fn duplicate_message_across_batches_rejected() {
        FairOrder::from_groups(vec![vec![MessageId(1)], vec![MessageId(1)]]);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_batch_rejected() {
        FairOrder::from_groups(vec![vec![]]);
    }
}

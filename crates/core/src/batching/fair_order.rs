//! The static fair-order types: [`Batch`] and [`FairOrder`].
//!
//! Both engines keep their batch boundaries as bits beside the order they
//! maintain ([`crate::tournament::IncrementalTournament`], or the sparse
//! engine's `starts_batch` bits) and materialize a `FairOrder` from them
//! through [`FairOrder::from_groups`], or, on the offline sparse path,
//! through `from_parts` with the window's id map as the rank index.

use crate::message::MessageId;
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
    /// given order. Used by the FIFO / WFO baselines (`tommy_sim::baselines`).
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
impl FairOrder {
    /// The size of the largest batch (0 if empty).
    pub(crate) fn max_batch_size(&self) -> usize {
        self.batches.iter().map(|b| b.len()).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl FairOrder {
        /// Mean batch size (0 if empty).
        fn mean_batch_size(&self) -> f64 {
            if self.batches.is_empty() {
                return 0.0;
            }
            self.num_messages() as f64 / self.num_batches() as f64
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

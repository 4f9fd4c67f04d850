//! The Rank Agreement Score (RAS).
//!
//! §4 of the paper: "We propose a metric, Rank Agreement Score (RAS): +1 for
//! each correct ordered pair, −1 for incorrect, and 0 for indifference i.e.,
//! for assigning same batch to a pair of messages." Figure 5 plots the sum of
//! RAS over all pairs of messages.

use tommy_core::batching::FairOrder;
use tommy_core::message::{ClientId, Message};

/// The decomposed Rank Agreement Score of one sequencer output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RasScore {
    /// Pairs the sequencer ordered the same way as the ground truth.
    pub correct: usize,
    /// Pairs the sequencer ordered opposite to the ground truth.
    pub incorrect: usize,
    /// Pairs left in the same batch (indifference).
    pub indifferent: usize,
}

impl RasScore {
    /// The raw score: `correct − incorrect` (what Figure 5 plots).
    pub fn score(&self) -> i64 {
        self.correct as i64 - self.incorrect as i64
    }

    /// Total number of evaluated pairs.
    pub fn pairs(&self) -> usize {
        self.correct + self.incorrect + self.indifferent
    }

    /// Score normalized to `[-1, 1]` by the number of pairs (0 for no pairs).
    pub fn normalized(&self) -> f64 {
        let pairs = self.pairs();
        if pairs == 0 {
            0.0
        } else {
            self.score() as f64 / pairs as f64
        }
    }

    /// Fraction of pairs the sequencer committed to an order on.
    pub fn coverage(&self) -> f64 {
        let pairs = self.pairs();
        if pairs == 0 {
            0.0
        } else {
            (self.correct + self.incorrect) as f64 / pairs as f64
        }
    }
}

/// Compute the RAS of a sequencer output against ground truth.
///
/// Every message must carry a ground-truth generation time
/// ([`Message::true_time`]) and must have been assigned a rank by the
/// sequencer; messages missing either are skipped (they contribute no pairs).
///
/// Ground-truth ties (two messages generated at exactly the same instant) are
/// excluded from scoring, matching the paper's assumption that "no two events
/// occur at the same instant".
pub fn rank_agreement_score(order: &FairOrder, messages: &[Message]) -> RasScore {
    let mut usable: Vec<(&Message, usize, f64)> = Vec::with_capacity(messages.len());
    for m in messages {
        if let (Some(rank), Some(true_time)) = (order.rank_of(m.id), m.true_time) {
            usable.push((m, rank, true_time));
        }
    }

    let mut score = RasScore::default();
    for i in 0..usable.len() {
        for j in (i + 1)..usable.len() {
            let (_, rank_i, true_i) = usable[i];
            let (_, rank_j, true_j) = usable[j];
            if true_i == true_j {
                continue; // ground-truth tie: not scored
            }
            if rank_i == rank_j {
                score.indifferent += 1;
                continue;
            }
            let truth_says_i_first = true_i < true_j;
            let sequencer_says_i_first = rank_i < rank_j;
            if truth_says_i_first == sequencer_says_i_first {
                score.correct += 1;
            } else {
                score.incorrect += 1;
            }
        }
    }
    score
}

/// The RAS of a *sharded* sequencer output, split by whether a pair's two
/// messages came from clients on the same shard.
///
/// Intra-shard pairs are ordered by a single per-shard engine — the
/// single-core fairness machinery applies to them unchanged. Cross-shard
/// pairs are ordered by the combiner's watermark-driven merge, so this
/// split is the direct measurement of what sharding costs: compare
/// `cross.normalized()` against the same stream's K=1 anchor to get the
/// fairness gap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PartitionedRas {
    /// Pairs whose clients share a shard.
    pub intra: RasScore,
    /// Pairs whose clients live on different shards.
    pub cross: RasScore,
}

impl PartitionedRas {
    /// The combined score over all pairs (equals what
    /// [`rank_agreement_score`] computes on the same inputs).
    pub fn total(&self) -> RasScore {
        RasScore {
            correct: self.intra.correct + self.cross.correct,
            incorrect: self.intra.incorrect + self.cross.incorrect,
            indifferent: self.intra.indifferent + self.cross.indifferent,
        }
    }
}

/// Compute the RAS of a sequencer output split into intra-shard and
/// cross-shard pair scores (see [`PartitionedRas`]).
///
/// `shard_of` maps each client to its shard index — for a
/// `ShardedSequencer`, its `shard_of` accessor. Messages without a ground
/// truth or a rank are skipped and ground-truth ties excluded, exactly as
/// in [`rank_agreement_score`].
pub fn partitioned_rank_agreement_score(
    order: &FairOrder,
    messages: &[Message],
    shard_of: impl Fn(ClientId) -> usize,
) -> PartitionedRas {
    let mut usable: Vec<(usize, usize, f64)> = Vec::with_capacity(messages.len());
    for m in messages {
        if let (Some(rank), Some(true_time)) = (order.rank_of(m.id), m.true_time) {
            usable.push((shard_of(m.client), rank, true_time));
        }
    }

    let mut score = PartitionedRas::default();
    for i in 0..usable.len() {
        for j in (i + 1)..usable.len() {
            let (shard_i, rank_i, true_i) = usable[i];
            let (shard_j, rank_j, true_j) = usable[j];
            if true_i == true_j {
                continue; // ground-truth tie: not scored
            }
            let side = if shard_i == shard_j {
                &mut score.intra
            } else {
                &mut score.cross
            };
            if rank_i == rank_j {
                side.indifferent += 1;
                continue;
            }
            let truth_says_i_first = true_i < true_j;
            let sequencer_says_i_first = rank_i < rank_j;
            if truth_says_i_first == sequencer_says_i_first {
                side.correct += 1;
            } else {
                side.incorrect += 1;
            }
        }
    }
    score
}

#[cfg(test)]
mod tests {
    use super::*;
    use tommy_core::message::{ClientId, MessageId};

    fn msg(id: u64, true_time: f64) -> Message {
        Message::with_true_time(MessageId(id), ClientId(id as u32), true_time, true_time)
    }

    #[test]
    fn perfect_total_order_scores_all_pairs() {
        let messages: Vec<Message> = (0..5).map(|i| msg(i, i as f64)).collect();
        let order = FairOrder::from_total_order(&messages.iter().map(|m| m.id).collect::<Vec<_>>());
        let ras = rank_agreement_score(&order, &messages);
        assert_eq!(ras.correct, 10);
        assert_eq!(ras.incorrect, 0);
        assert_eq!(ras.indifferent, 0);
        assert_eq!(ras.score(), 10);
        assert!((ras.normalized() - 1.0).abs() < 1e-12);
        assert!((ras.coverage() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fully_reversed_order_scores_negative() {
        let messages: Vec<Message> = (0..4).map(|i| msg(i, i as f64)).collect();
        let reversed: Vec<MessageId> = messages.iter().rev().map(|m| m.id).collect();
        let order = FairOrder::from_total_order(&reversed);
        let ras = rank_agreement_score(&order, &messages);
        assert_eq!(ras.score(), -6);
        assert!((ras.normalized() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn single_batch_is_all_indifference() {
        let messages: Vec<Message> = (0..4).map(|i| msg(i, i as f64)).collect();
        let order = FairOrder::from_groups(vec![messages.iter().map(|m| m.id).collect()]);
        let ras = rank_agreement_score(&order, &messages);
        assert_eq!(ras.indifferent, 6);
        assert_eq!(ras.score(), 0);
        assert_eq!(ras.coverage(), 0.0);
    }

    #[test]
    fn mixed_batching_scores_cross_batch_pairs_only() {
        // Ground truth order: 0, 1, 2, 3. Sequencer: {0, 1} ≺ {2, 3}.
        let messages: Vec<Message> = (0..4).map(|i| msg(i, i as f64)).collect();
        let order = FairOrder::from_groups(vec![
            vec![MessageId(0), MessageId(1)],
            vec![MessageId(2), MessageId(3)],
        ]);
        let ras = rank_agreement_score(&order, &messages);
        // Cross-batch pairs: (0,2), (0,3), (1,2), (1,3) → all correct.
        assert_eq!(ras.correct, 4);
        assert_eq!(ras.incorrect, 0);
        assert_eq!(ras.indifferent, 2);
        assert_eq!(ras.score(), 4);
    }

    #[test]
    fn wrong_batch_order_penalized() {
        // Ground truth: 0 before 1, but the sequencer put 1 in an earlier batch.
        let messages = vec![msg(0, 0.0), msg(1, 1.0)];
        let order = FairOrder::from_groups(vec![vec![MessageId(1)], vec![MessageId(0)]]);
        let ras = rank_agreement_score(&order, &messages);
        assert_eq!(ras.score(), -1);
    }

    #[test]
    fn ground_truth_ties_are_skipped() {
        let messages = vec![msg(0, 5.0), msg(1, 5.0)];
        let order = FairOrder::from_total_order(&[MessageId(0), MessageId(1)]);
        let ras = rank_agreement_score(&order, &messages);
        assert_eq!(ras.pairs(), 0);
        assert_eq!(ras.normalized(), 0.0);
    }

    #[test]
    fn messages_without_truth_or_rank_are_skipped() {
        let mut messages = vec![msg(0, 0.0), msg(1, 1.0)];
        // Message 2 has no ground truth.
        messages.push(Message::new(MessageId(2), ClientId(2), 2.0));
        // Message 3 has truth but was never sequenced.
        messages.push(msg(3, 3.0));
        let order = FairOrder::from_total_order(&[MessageId(0), MessageId(1), MessageId(2)]);
        let ras = rank_agreement_score(&order, &messages);
        assert_eq!(ras.pairs(), 1); // only the (0, 1) pair
        assert_eq!(ras.score(), 1);
    }

    #[test]
    fn partitioned_ras_splits_by_shard_and_sums_to_total() {
        // Clients 0..4, shard = client mod 2; perfect order.
        let messages: Vec<Message> = (0..4)
            .map(|i| Message::with_true_time(MessageId(i), ClientId(i as u32), i as f64, i as f64))
            .collect();
        let order = FairOrder::from_total_order(&messages.iter().map(|m| m.id).collect::<Vec<_>>());
        let split =
            partitioned_rank_agreement_score(&order, &messages, |c| (c.0 % 2) as usize);
        // Intra pairs: (0,2), (1,3). Cross pairs: (0,1), (0,3), (1,2), (2,3).
        assert_eq!(split.intra.pairs(), 2);
        assert_eq!(split.cross.pairs(), 4);
        assert_eq!(split.total(), rank_agreement_score(&order, &messages));
        assert_eq!(split.total().score(), 6);
    }

    #[test]
    fn partitioned_ras_scores_cross_shard_inversion() {
        // Truth 0 before 1, sequencer reversed; the clients sit on
        // different shards, so the inversion lands on the cross side.
        let messages = vec![
            Message::with_true_time(MessageId(0), ClientId(0), 0.0, 0.0),
            Message::with_true_time(MessageId(1), ClientId(1), 1.0, 1.0),
        ];
        let order = FairOrder::from_groups(vec![vec![MessageId(1)], vec![MessageId(0)]]);
        let split = partitioned_rank_agreement_score(&order, &messages, |c| c.0 as usize);
        assert_eq!(split.cross.incorrect, 1);
        assert_eq!(split.intra.pairs(), 0);
        // A fused (rank-equal) cross pair is indifference, not a penalty.
        let fused = FairOrder::from_groups(vec![vec![MessageId(0), MessageId(1)]]);
        let split = partitioned_rank_agreement_score(&fused, &messages, |c| c.0 as usize);
        assert_eq!(split.cross.indifferent, 1);
        assert_eq!(split.cross.score(), 0);
    }

    #[test]
    fn truetime_like_conservatism_never_goes_negative() {
        // A sequencer that refuses to order anything scores exactly zero —
        // the behaviour Figure 5 shows for TrueTime under high uncertainty.
        let messages: Vec<Message> = (0..10).map(|i| msg(i, i as f64)).collect();
        let order = FairOrder::from_groups(vec![messages.iter().map(|m| m.id).collect()]);
        let ras = rank_agreement_score(&order, &messages);
        assert_eq!(ras.score(), 0);
        assert!(ras.normalized() >= 0.0);
    }
}

//! Extending the fair partial order to a fair total order.
//!
//! §5 of the paper ("Extension to Fair Total Order"): some applications need
//! individual messages, not batches. "Arbitrarily breaking ties on messages
//! of a batch would violate fairness as some clients may always be preferred
//! over others. A random mechanism for breaking ties might be of interest as
//! it would lead to stochastic fairness over a sufficiently long duration."
//! This module implements that random tie-breaking.

use crate::batching::FairOrder;
use crate::message::MessageId;
use rand::Rng;
use rand::RngCore;

/// Produce a total order from a fair partial order by shuffling messages
/// uniformly at random within each batch.
pub fn break_ties_randomly(order: &FairOrder, rng: &mut dyn RngCore) -> Vec<MessageId> {
    let mut total = Vec::with_capacity(order.num_messages());
    for batch in order.batches() {
        let mut members = batch.messages.clone();
        // Fisher–Yates shuffle.
        for i in (1..members.len()).rev() {
            let j = rng.random_range(0..=i);
            members.swap(i, j);
        }
        total.extend(members);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn two_batch_order() -> FairOrder {
        FairOrder::from_groups(vec![
            vec![MessageId(0)],
            vec![MessageId(1), MessageId(2), MessageId(3)],
        ])
    }

    #[test]
    fn tie_breaking_preserves_batch_boundaries() {
        let order = two_batch_order();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            let total = break_ties_randomly(&order, &mut rng);
            assert_eq!(total.len(), 4);
            assert_eq!(total[0], MessageId(0)); // batch 0 always first
            let mut tail: Vec<u64> = total[1..].iter().map(|m| m.0).collect();
            tail.sort_unstable();
            assert_eq!(tail, vec![1, 2, 3]);
        }
    }

    #[test]
    fn random_tie_breaking_is_unbiased_over_many_rounds() {
        let order = two_batch_order();
        let mut rng = StdRng::seed_from_u64(42);
        let rounds = 3000;
        let mut position_sum = [0usize; 4];
        for _ in 0..rounds {
            for (position, id) in break_ties_randomly(&order, &mut rng).iter().enumerate() {
                position_sum[id.0 as usize] += position;
            }
        }
        // The three members of the second batch share positions 1..=3: each
        // should average close to the middle one.
        for (id, &sum) in position_sum.iter().enumerate().skip(1) {
            let mean = sum as f64 / rounds as f64;
            assert!((mean - 2.0).abs() < 0.1, "message {id} mean position {mean}");
        }
    }

    #[test]
    fn empty_order_yields_empty_total_order() {
        let order = FairOrder::default();
        let mut rng = StdRng::seed_from_u64(1);
        assert!(break_ties_randomly(&order, &mut rng).is_empty());
    }
}

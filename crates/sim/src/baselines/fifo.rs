//! The FIFO (arrival-order) sequencer.
//!
//! "This ranking is typically independent of when a message was originally
//! generated. Instead, it is assigned based on the order in which it is
//! observed by a server/sequencer (i.e., FIFO sequencer)." — §1 of the paper.
//! FIFO is fair only when the network does not reorder messages relative to
//! their generation order (the engineered equal-length-wire setting of
//! Figure 4).

use tommy_core::batching::FairOrder;
use tommy_core::message::Message;

/// A FIFO sequencer: ranks messages purely by arrival time.
#[derive(Debug, Default)]
pub struct FifoSequencer {
    arrivals: Vec<(Message, f64)>,
}

impl FifoSequencer {
    /// Create an empty FIFO sequencer.
    pub fn new() -> Self {
        FifoSequencer::default()
    }

    /// Record a message arrival.
    pub fn submit(&mut self, message: Message, arrival_time: f64) {
        assert!(arrival_time.is_finite(), "arrival time must be finite");
        self.arrivals.push((message, arrival_time));
    }

    /// Produce the total order: one batch per message, in arrival order
    /// (ties broken by message id for determinism).
    pub fn sequence(&self) -> FairOrder {
        let mut sorted: Vec<&(Message, f64)> = self.arrivals.iter().collect();
        sorted.sort_by(|a, b| {
            a.1.partial_cmp(&b.1)
                .expect("finite arrival times")
                .then_with(|| a.0.id.cmp(&b.0.id))
        });
        FairOrder::from_total_order(&sorted.iter().map(|(m, _)| m.id).collect::<Vec<_>>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::MaxBatchSize;
    use tommy_core::message::{ClientId, MessageId};

    impl FifoSequencer {
        fn len(&self) -> usize {
            self.arrivals.len()
        }

        fn is_empty(&self) -> bool {
            self.arrivals.is_empty()
        }
    }

    fn msg(id: u64, ts: f64) -> Message {
        Message::new(MessageId(id), ClientId(id as u32), ts)
    }

    #[test]
    fn ranks_follow_arrival_not_timestamp() {
        let mut fifo = FifoSequencer::new();
        // Message 0 was generated first (timestamp 1) but arrives last.
        fifo.submit(msg(0, 1.0), 10.0);
        fifo.submit(msg(1, 5.0), 2.0);
        fifo.submit(msg(2, 6.0), 3.0);
        let order = fifo.sequence();
        assert_eq!(order.rank_of(MessageId(1)), Some(0));
        assert_eq!(order.rank_of(MessageId(2)), Some(1));
        assert_eq!(order.rank_of(MessageId(0)), Some(2));
        assert_eq!(order.num_batches(), 3);
    }

    #[test]
    fn arrival_ties_broken_by_id() {
        let mut fifo = FifoSequencer::new();
        fifo.submit(msg(7, 0.0), 1.0);
        fifo.submit(msg(3, 0.0), 1.0);
        let order = fifo.sequence();
        assert_eq!(order.rank_of(MessageId(3)), Some(0));
        assert_eq!(order.rank_of(MessageId(7)), Some(1));
    }

    #[test]
    fn empty_sequencer_produces_empty_order() {
        let fifo = FifoSequencer::new();
        assert!(fifo.is_empty());
        assert_eq!(fifo.sequence().num_messages(), 0);
    }

    #[test]
    fn every_message_gets_its_own_batch() {
        let mut fifo = FifoSequencer::new();
        for i in 0..50 {
            fifo.submit(msg(i, i as f64), i as f64);
        }
        let order = fifo.sequence();
        assert_eq!(order.num_batches(), 50);
        assert_eq!(order.max_batch_size(), 1);
        assert_eq!(fifo.len(), 50);
    }
}

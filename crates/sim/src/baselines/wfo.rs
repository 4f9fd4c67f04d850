//! The WaitsForOne (WFO) sequencer.
//!
//! Figure 2 / §1 of the paper: "by waiting for at least one message from
//! every client and then releasing the message with the smallest timestamp,
//! iteratively. This algorithm achieves a fair total order, provided in-order
//! delivery of messages per client" — *and* provided clock-synchronization
//! errors are negligible, which is exactly the assumption Tommy removes.

use std::collections::HashMap;
use std::collections::VecDeque;
use tommy_core::batching::FairOrder;
use tommy_core::error::CoreError;
use tommy_core::message::{ClientId, Message};

/// The WaitsForOne sequencer. The evaluation runs it offline only, over a
/// complete workload from a fixed, known set of clients.
#[derive(Debug)]
pub struct WfoSequencer;

impl WfoSequencer {
    /// Sequence a complete offline workload (every message is already
    /// present, no client will send more) into a fair total order: queue
    /// each client's messages in arrival order, then repeatedly release the
    /// head with the smallest timestamp (ties by message id). With every
    /// client finished, waiting for one message from each never blocks, so
    /// the merge runs until every queue is empty.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownClient`] for a message from a client
    /// outside `clients`.
    pub fn sequence_offline(
        clients: &[ClientId],
        messages: &[Message],
    ) -> Result<FairOrder, CoreError> {
        let mut queues: HashMap<ClientId, VecDeque<&Message>> =
            clients.iter().map(|&c| (c, VecDeque::new())).collect();
        for m in messages {
            let queue = queues
                .get_mut(&m.client)
                .ok_or(CoreError::UnknownClient(m.client))?;
            queue.push_back(m);
        }
        let mut released = Vec::with_capacity(messages.len());
        while let Some(queue) = queues
            .values_mut()
            .filter(|q| !q.is_empty())
            .min_by(|a, b| {
                a[0].timestamp
                    .partial_cmp(&b[0].timestamp)
                    .expect("finite timestamps")
                    .then_with(|| a[0].id.cmp(&b[0].id))
            })
        {
            released.push(queue.pop_front().expect("non-empty queue").id);
        }
        Ok(FairOrder::from_total_order(&released))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::MaxBatchSize;
    use tommy_core::message::MessageId;

    fn msg(id: u64, client: u32, ts: f64) -> Message {
        Message::new(MessageId(id), ClientId(client), ts)
    }

    #[test]
    fn offline_sequence_orders_by_timestamp() {
        let clients: Vec<ClientId> = (0..3).map(ClientId).collect();
        // Per-client timestamps are monotone (as the paper assumes).
        let messages = vec![
            msg(0, 0, 10.0),
            msg(1, 0, 40.0),
            msg(2, 1, 20.0),
            msg(3, 1, 50.0),
            msg(4, 2, 30.0),
        ];
        let order = WfoSequencer::sequence_offline(&clients, &messages).unwrap();
        let expected = [0u64, 2, 4, 1, 3];
        for (rank, id) in expected.iter().enumerate() {
            assert_eq!(order.rank_of(MessageId(*id)), Some(rank));
        }
        assert_eq!(order.max_batch_size(), 1);
    }

    #[test]
    fn equal_heads_release_by_message_id() {
        // Three clients' heads tie on timestamp: the smallest id goes first,
        // whatever the client or input order.
        let clients: Vec<ClientId> = (0..3).map(ClientId).collect();
        let messages = [
            msg(5, 0, 10.0),
            msg(1, 1, 10.0),
            msg(3, 2, 10.0),
            msg(0, 2, 20.0),
        ];
        let order = WfoSequencer::sequence_offline(&clients, &messages).unwrap();
        let ids: Vec<u64> = order.batches().iter().map(|b| b.messages[0].0).collect();
        assert_eq!(ids, vec![1, 3, 5, 0]);
    }

    #[test]
    fn unknown_client_rejected() {
        assert_eq!(
            WfoSequencer::sequence_offline(&[ClientId(0)], &[msg(0, 7, 1.0)]),
            Err(CoreError::UnknownClient(ClientId(7)))
        );
    }

    #[test]
    fn wfo_is_fair_with_perfect_clocks_despite_reordered_arrival() {
        // Messages arrive out of generation order across clients (input
        // order below), but per-client order is preserved. With perfect
        // clocks (timestamp == true time), WFO recovers the fair order.
        let clients: Vec<ClientId> = (0..2).map(ClientId).collect();
        // Client 1's messages arrive before client 0's earlier message.
        let arrivals = [
            msg(2, 1, 15.0),
            msg(3, 1, 25.0),
            msg(0, 0, 10.0),
            msg(1, 0, 20.0),
        ];
        let order = WfoSequencer::sequence_offline(&clients, &arrivals).unwrap();
        let ids: Vec<u64> = order.batches().iter().map(|b| b.messages[0].0).collect();
        assert_eq!(ids, vec![0, 2, 1, 3]); // sorted by true generation time
    }
}

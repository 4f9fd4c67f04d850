//! The WaitsForOne (WFO) sequencer.
//!
//! Figure 2 / §1 of the paper: "by waiting for at least one message from
//! every client and then releasing the message with the smallest timestamp,
//! iteratively. This algorithm achieves a fair total order, provided in-order
//! delivery of messages per client" — *and* provided clock-synchronization
//! errors are negligible, which is exactly the assumption Tommy removes.

use crate::batching::FairOrder;
use crate::error::CoreError;
use crate::message::{ClientId, Message};
use std::collections::HashMap;
use std::collections::VecDeque;

/// The WaitsForOne sequencer over a fixed, known set of clients.
#[derive(Debug)]
pub struct WfoSequencer {
    queues: HashMap<ClientId, VecDeque<Message>>,
    finished: HashMap<ClientId, bool>,
}

impl WfoSequencer {
    /// Create a WFO sequencer for the given client set.
    pub fn new(clients: &[ClientId]) -> Self {
        WfoSequencer {
            queues: clients.iter().map(|&c| (c, VecDeque::new())).collect(),
            finished: clients.iter().map(|&c| (c, false)).collect(),
        }
    }

    /// Enqueue a message in its client's arrival-order queue.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownClient`] for clients outside the known set.
    pub fn submit(&mut self, message: Message) -> Result<(), CoreError> {
        let queue = self
            .queues
            .get_mut(&message.client)
            .ok_or(CoreError::UnknownClient(message.client))?;
        queue.push_back(message);
        Ok(())
    }

    /// Declare that a client will send no further messages (end of the
    /// workload); the sequencer stops waiting for it.
    pub fn finish_client(&mut self, client: ClientId) {
        if let Some(flag) = self.finished.get_mut(&client) {
            *flag = true;
        }
    }

    /// Release messages while every unfinished client has at least one queued
    /// message: repeatedly emit the head with the smallest timestamp. Returns
    /// the released messages as a total order (one batch each).
    pub fn release(&mut self) -> Vec<Message> {
        let mut released = Vec::new();
        loop {
            // WFO only proceeds when it holds a message from every client
            // that may still send.
            let blocked = self
                .queues
                .iter()
                .any(|(c, q)| q.is_empty() && !self.finished[c]);
            if blocked {
                break;
            }
            // Pick the head with the smallest timestamp (ties by message id).
            let next_client = self
                .queues
                .iter()
                .filter_map(|(c, q)| q.front().map(|m| (*c, m.timestamp, m.id)))
                .min_by(|a, b| {
                    a.1.partial_cmp(&b.1)
                        .expect("finite timestamps")
                        .then_with(|| a.2.cmp(&b.2))
                })
                .map(|(c, _, _)| c);
            match next_client {
                Some(c) => {
                    let msg = self.queues.get_mut(&c).expect("known client").pop_front();
                    released.push(msg.expect("non-empty queue"));
                }
                None => break, // all queues empty
            }
        }
        released
    }

    /// Convenience: sequence a complete offline workload (every message is
    /// already present, no client will send more) into a fair total order.
    pub fn sequence_offline(clients: &[ClientId], messages: &[Message]) -> Result<FairOrder, CoreError> {
        let mut wfo = WfoSequencer::new(clients);
        for m in messages {
            wfo.submit(m.clone())?;
        }
        for &c in clients {
            wfo.finish_client(c);
        }
        let released = wfo.release();
        Ok(FairOrder::from_total_order(
            &released.iter().map(|m| m.id).collect::<Vec<_>>(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::MessageId;

    impl WfoSequencer {
        /// Number of messages currently queued across all clients.
        fn queued(&self) -> usize {
            self.queues.values().map(|q| q.len()).sum()
        }
    }

    fn msg(id: u64, client: u32, ts: f64) -> Message {
        Message::new(MessageId(id), ClientId(client), ts)
    }

    #[test]
    fn blocks_until_every_client_has_a_message() {
        let clients = vec![ClientId(0), ClientId(1)];
        let mut wfo = WfoSequencer::new(&clients);
        wfo.submit(msg(0, 0, 5.0)).unwrap();
        assert!(wfo.release().is_empty());
        wfo.submit(msg(1, 1, 3.0)).unwrap();
        let released = wfo.release();
        // Both heads present: the smaller timestamp (client 1) goes first,
        // then client 0's queue head is released too? No — once client 1's
        // queue empties, WFO blocks again.
        assert_eq!(released.len(), 1);
        assert_eq!(released[0].id, MessageId(1));
        assert_eq!(wfo.queued(), 1);
    }

    #[test]
    fn finished_clients_no_longer_block() {
        let clients = vec![ClientId(0), ClientId(1)];
        let mut wfo = WfoSequencer::new(&clients);
        wfo.submit(msg(0, 0, 5.0)).unwrap();
        wfo.finish_client(ClientId(1));
        let released = wfo.release();
        assert_eq!(released.len(), 1);
        assert_eq!(released[0].id, MessageId(0));
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
    fn unknown_client_rejected() {
        let mut wfo = WfoSequencer::new(&[ClientId(0)]);
        assert_eq!(
            wfo.submit(msg(0, 7, 1.0)),
            Err(CoreError::UnknownClient(ClientId(7)))
        );
    }

    #[test]
    fn wfo_is_fair_with_perfect_clocks_despite_reordered_arrival() {
        // Messages arrive out of generation order across clients (submission
        // order below), but per-client order is preserved. With perfect
        // clocks (timestamp == true time), WFO recovers the fair order.
        let clients: Vec<ClientId> = (0..2).map(ClientId).collect();
        let mut wfo = WfoSequencer::new(&clients);
        // Client 1's messages arrive before client 0's earlier message.
        wfo.submit(msg(2, 1, 15.0)).unwrap();
        wfo.submit(msg(3, 1, 25.0)).unwrap();
        wfo.submit(msg(0, 0, 10.0)).unwrap();
        wfo.submit(msg(1, 0, 20.0)).unwrap();
        for c in &clients {
            wfo.finish_client(*c);
        }
        let released = wfo.release();
        let ids: Vec<u64> = released.iter().map(|m| m.id.0).collect();
        assert_eq!(ids, vec![0, 2, 1, 3]); // sorted by true generation time
    }
}

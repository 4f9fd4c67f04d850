//! The §4 delivery schedule as data.
//!
//! [`Schedule::resolve`] turns a generated stream into a flat
//! [`StreamEvent`] list once, and every driver (the sim runner, the fault
//! runner's send phase, the test rig's suites) replays that list instead of
//! re-deriving it. Events are delivered to anything that implements
//! [`StreamEngine`], the driving surface the single-engine and sharded
//! sequencers share, and [`close_stream`] is the one way a run ends.

use std::collections::HashMap;
use tommy_core::error::CoreError;
use tommy_core::message::{ClientId, Message};
use tommy_core::sequencer::online::EmittedBatch;
use tommy_core::sequencer::StreamEngine;

/// The constant one-way delay of the §4 direct-delivery schedule.
pub const DELIVERY_DELAY: f64 = 1.0;

/// One input of a resolved delivery schedule, stamped with its *send*
/// (true) time: a direct driver adds its delivery delay on
/// [`apply`](Self::apply), a simulated network is handed the send time.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamEvent {
    /// `client` reports its local clock reading `timestamp`.
    Heartbeat {
        /// The reporting client.
        client: ClientId,
        /// Its (monotone-clamped) local clock reading.
        timestamp: f64,
        /// True time the heartbeat was sent.
        sent_at: f64,
    },
    /// A client submits `message` (timestamp monotone-clamped).
    Submit {
        /// The clamped message.
        message: Message,
        /// True time the message was sent.
        sent_at: f64,
    },
}

impl StreamEvent {
    /// True time the event was sent.
    pub fn sent_at(&self) -> f64 {
        match self {
            StreamEvent::Heartbeat { sent_at, .. } | StreamEvent::Submit { sent_at, .. } => *sent_at,
        }
    }

    /// Whether this is a message submission.
    pub fn is_submit(&self) -> bool {
        matches!(self, StreamEvent::Submit { .. })
    }

    /// Deliver the event to `engine`, arriving `delay` after it was sent.
    pub fn apply<E: StreamEngine>(&self, engine: &mut E, delay: f64) -> Result<(), CoreError> {
        match self {
            StreamEvent::Heartbeat {
                client,
                timestamp,
                sent_at,
            } => engine.heartbeat_at(*client, *timestamp, sent_at + delay),
            StreamEvent::Submit { message, sent_at } => {
                engine.submit_at(message.clone(), sent_at + delay)
            }
        }
    }
}

/// Sort a generated stream into send (true-time) order; ties keep their
/// generation order.
pub fn sort_by_true_time(stream: &mut [Message]) {
    stream.sort_by(|a, b| {
        let ta = a.true_time.expect("generated messages carry true times");
        let tb = b.true_time.expect("generated messages carry true times");
        ta.partial_cmp(&tb).expect("finite true times")
    });
}

/// The §4 delivery schedule of one stream, resolved once: what every client
/// sends and when, plus what the close and the scorer need.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// Every heartbeat and submission, in send order.
    pub events: Vec<StreamEvent>,
    /// The submitted messages in send order, with the clamped timestamps the
    /// engines saw — the set RAS scores against.
    pub messages: Vec<Message>,
    /// The census, in registration order.
    pub clients: Vec<ClientId>,
    /// A timestamp past everything pending: the largest clamped message
    /// timestamp plus the margin [`Schedule::resolve`] was given. Hand it to
    /// [`close_stream`].
    pub horizon: f64,
}

impl Schedule {
    /// Resolve `stream` into the schedule every §4 run delivers: messages in
    /// true-time order, and alongside each one every *other* client
    /// heartbeats its reading of the current true time. Each client's merged
    /// sequence of message timestamps and heartbeat readings is clamped
    /// monotone (the paper's ordered-channel assumption, which is what makes
    /// the watermark rule sound).
    pub fn resolve(clients: &[ClientId], mut stream: Vec<Message>, horizon_margin: f64) -> Schedule {
        sort_by_true_time(&mut stream);
        let mut floors: HashMap<ClientId, f64> = HashMap::new();
        let mut clamp = |client: ClientId, reading: f64| {
            let floor = floors.entry(client).or_insert(f64::NEG_INFINITY);
            *floor = reading.max(*floor);
            *floor
        };
        let mut events = Vec::with_capacity(stream.len() * clients.len());
        let mut messages = Vec::with_capacity(stream.len());
        for delivery in stream {
            let sent_at = delivery.true_time.expect("sorted by true time");
            for &client in clients.iter().filter(|&&c| c != delivery.client) {
                events.push(StreamEvent::Heartbeat {
                    client,
                    timestamp: clamp(client, sent_at),
                    sent_at,
                });
            }
            let timestamp = clamp(delivery.client, delivery.timestamp);
            let message = Message::with_true_time(delivery.id, delivery.client, timestamp, sent_at);
            messages.push(message.clone());
            events.push(StreamEvent::Submit { message, sent_at });
        }
        let horizon = messages.iter().map(|m| m.timestamp).fold(0.0f64, f64::max) + horizon_margin;
        Schedule {
            events,
            messages,
            clients: clients.to_vec(),
            horizon,
        }
    }
}

/// Close a stream the way every suite does: heartbeat each client far past
/// the pending horizon, tick the clock there, flush the stragglers, and
/// drain. Returns the batches released by the close.
pub fn close_stream<E: StreamEngine>(
    engine: &mut E,
    clients: &[ClientId],
    horizon: f64,
) -> Vec<EmittedBatch> {
    for &client in clients {
        engine
            .heartbeat_at(client, horizon, horizon)
            .expect("registered client heartbeat");
    }
    engine.tick_at(horizon);
    engine.flush_all();
    engine.drain()
}

//! Messages, clients and timestamps.
//!
//! A message carries the local timestamp its client attached at generation
//! time (§3.1: "Each client submits a message to the sequencer and attaches
//! the current timestamp from its local clock"). For evaluation purposes a
//! message may also carry its ground-truth generation time — the timestamp an
//! omniscient observer (Definition 1) would have assigned — which the
//! sequencer never looks at but the metrics crate does.

/// Identifier of a client (a participant submitting messages).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClientId(pub u32);

impl std::fmt::Display for ClientId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "client{}", self.0)
    }
}

/// Identifier of a message, unique within one experiment / sequencer run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MessageId(pub u64);

impl std::fmt::Display for MessageId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "msg{}", self.0)
    }
}

/// A timestamped message as seen by the sequencer.
#[derive(Debug, Clone, PartialEq)]
pub struct Message {
    /// Unique message identifier.
    pub id: MessageId,
    /// The client that generated the message.
    pub client: ClientId,
    /// The local timestamp the client attached (`T_i` in the paper).
    pub timestamp: f64,
    /// Ground-truth generation time in the sequencer's frame (`T*_i`), if
    /// known. Only simulations know this; the sequencer itself never uses it.
    pub true_time: Option<f64>,
}

impl Message {
    /// Create a message without ground truth (what a real deployment sees).
    pub fn new(id: MessageId, client: ClientId, timestamp: f64) -> Self {
        assert!(timestamp.is_finite(), "timestamps must be finite");
        Message {
            id,
            client,
            timestamp,
            true_time: None,
        }
    }

    /// Create a message with ground truth attached (for simulations).
    pub fn with_true_time(id: MessageId, client: ClientId, timestamp: f64, true_time: f64) -> Self {
        assert!(timestamp.is_finite(), "timestamps must be finite");
        assert!(true_time.is_finite(), "true time must be finite");
        Message {
            id,
            client,
            timestamp,
            true_time: Some(true_time),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        assert_eq!(ClientId(3).to_string(), "client3");
        assert_eq!(MessageId(42).to_string(), "msg42");
    }

    #[test]
    fn message_without_ground_truth() {
        let m = Message::new(MessageId(1), ClientId(2), 10.5);
        assert_eq!(m.true_time, None);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_timestamp_rejected() {
        Message::new(MessageId(1), ClientId(1), f64::NAN);
    }

    #[test]
    fn ids_are_ordered() {
        assert!(MessageId(1) < MessageId(2));
        assert!(ClientId(0) < ClientId(1));
    }
}

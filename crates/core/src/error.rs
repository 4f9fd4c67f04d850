//! Error types for the core sequencing library.

use crate::message::{ClientId, MessageId};

/// Errors surfaced by the sequencers and relation machinery.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// A message referenced a client whose offset distribution has not been
    /// registered with the sequencer.
    UnknownClient(ClientId),
    /// A message id was submitted twice to the same sequencer.
    DuplicateMessage(MessageId),
    /// The same client sent timestamps that move backwards, violating the
    /// monotone-local-clock assumption the online watermark logic needs.
    NonMonotoneTimestamp {
        /// The offending client.
        client: ClientId,
        /// The previously observed timestamp.
        previous: f64,
        /// The newly observed (smaller) timestamp.
        observed: f64,
    },
    /// A client sent a timestamp that is not a number, or a *message*
    /// timestamp that is not finite. NaN compares false against everything,
    /// so it would pass the monotonicity check and then disable it for every
    /// later timestamp of that client; two messages stamped `+∞` would hand
    /// the pair kernels `∞ − ∞ = NaN`. (Heartbeats may carry `±∞`.)
    InvalidTimestamp {
        /// The offending client.
        client: ClientId,
        /// The rejected timestamp.
        observed: f64,
    },
    /// An operation that needs at least one message was invoked on an empty
    /// input.
    EmptyInput,
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::UnknownClient(c) => {
                write!(f, "no offset distribution registered for {c}")
            }
            CoreError::DuplicateMessage(m) => write!(f, "duplicate message id {m}"),
            CoreError::NonMonotoneTimestamp {
                client,
                previous,
                observed,
            } => write!(
                f,
                "{client} sent a non-monotone timestamp: {observed} after {previous}"
            ),
            CoreError::InvalidTimestamp { client, observed } => {
                write!(f, "{client} sent an invalid timestamp: {observed}")
            }
            CoreError::EmptyInput => write!(f, "operation requires at least one message"),
        }
    }
}

impl std::error::Error for CoreError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = CoreError::UnknownClient(ClientId(7));
        assert!(e.to_string().contains("client7"));

        let e = CoreError::DuplicateMessage(MessageId(3));
        assert!(e.to_string().contains("msg3"));

        let e = CoreError::NonMonotoneTimestamp {
            client: ClientId(1),
            previous: 10.0,
            observed: 9.0,
        };
        assert!(e.to_string().contains("non-monotone"));

        let e = CoreError::InvalidTimestamp {
            client: ClientId(1),
            observed: f64::NAN,
        };
        assert!(e.to_string().contains("invalid timestamp"));

        assert!(CoreError::EmptyInput.to_string().contains("at least one"));
    }

    #[test]
    fn is_std_error() {
        fn assert_error<E: std::error::Error>(_e: &E) {}
        assert_error(&CoreError::EmptyInput);
    }
}

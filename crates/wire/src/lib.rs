//! # tommy-wire
//!
//! The binary wire protocol spoken between Tommy clients and the sequencer
//! (Figure 1 of the paper): clients submit timestamped messages, periodically
//! share their learned clock-offset distributions, and send heartbeats so the
//! sequencer's watermarks advance; the sequencer emits ranked batches back.
//!
//! The protocol is deliberately simple: every frame is
//! `[u32 length][u8 kind][payload]`, with fixed-width little-endian numeric
//! fields and a trailing CRC-32 over the kind byte and payload. Framing and
//! codecs are hand-rolled over plain `Vec<u8>` and `&[u8]` rather than
//! pulling in a serialization framework or a buffer crate, both to keep the
//! dependency surface small and because the formats are simple enough that
//! an explicit layout is the better documentation.
//!
//! A frame carries a [`Frame`]: a bare [`WireMessage`], or one held by value
//! behind a sequenced session header ([`Frame::Stream`]), so a stream frame
//! cannot nest another and decoding one allocates nothing. On top of the
//! codecs, [`stream`] adds fault-tolerant delivery: messages wrapped in
//! sequence-numbered stream frames by a [`SequencedSender`] are reassembled
//! in strict send order by a [`StreamReceiver`], which detects gaps, drops
//! duplicates, buffers reordering, and recovers per the configured
//! [`RecoveryPolicy`] (halt, skip after a timeout, or request bounded
//! retransmits with exponential backoff). An in-order frame goes from bytes
//! to released message without touching the heap.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checksum;
pub mod error;
pub mod frame;
pub mod messages;
pub mod stream;

pub use error::WireError;
pub use frame::{FrameDecoder, MAX_FRAME_LEN};
pub use messages::{Frame, WireMessage};
pub use stream::{Released, RetransmitRequest, SequencedSender, StreamPoll, StreamReceiver};
// Session-layer building blocks re-exported from tommy-core for convenience.
pub use tommy_core::session::{RecoveryPolicy, SequenceValidator, SessionCounters};

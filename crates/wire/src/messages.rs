//! Wire message types and their binary codecs.
//!
//! All multi-byte integers and floats are little-endian. Every message kind
//! has a fixed layout documented on its variant; variable-length payloads
//! (histogram counts, raw samples, batch members) carry an explicit `u32`
//! element count.

use crate::error::WireError;
use tommy_clock::shared::SharedDistribution;
use tommy_core::message::{ClientId, Message, MessageId};

/// Frame kind bytes.
mod kind {
    pub const SUBMIT: u8 = 0x01;
    pub const HEARTBEAT: u8 = 0x02;
    pub const SHARE_GAUSSIAN: u8 = 0x03;
    pub const SHARE_HISTOGRAM: u8 = 0x04;
    pub const SHARE_SAMPLES: u8 = 0x05;
    pub const BATCH_EMIT: u8 = 0x06;
    pub const ACK: u8 = 0x07;
    pub const PROBE: u8 = 0x08;
    pub const PROBE_REPLY: u8 = 0x09;
    pub const STREAM: u8 = 0x0A;
}

/// A read cursor over the unread bytes of a payload. A `need` check bounds
/// the reads after it: a read past the end is a bug, not bad input.
struct Reader<'a>(&'a [u8]);

impl Reader<'_> {
    /// `Ok` when at least `n` bytes are left to read.
    fn need(&self, n: usize, context: &'static str) -> Result<(), WireError> {
        if self.0.len() < n {
            Err(WireError::Truncated { context })
        } else {
            Ok(())
        }
    }

    fn take<const N: usize>(&mut self) -> [u8; N] {
        let (field, rest) = self.0.split_first_chunk().expect("bounded by need");
        self.0 = rest;
        *field
    }

    fn u8(&mut self) -> u8 {
        u8::from_le_bytes(self.take())
    }

    fn u32(&mut self) -> u32 {
        u32::from_le_bytes(self.take())
    }

    fn u64(&mut self) -> u64 {
        u64::from_le_bytes(self.take())
    }

    fn f64(&mut self) -> f64 {
        f64::from_le_bytes(self.take())
    }

    /// `Ok` when every byte was read: a payload is exactly one message.
    fn finish(&self, kind: u8) -> Result<(), WireError> {
        if self.0.is_empty() {
            Ok(())
        } else {
            Err(WireError::TrailingBytes {
                kind,
                extra: self.0.len(),
            })
        }
    }
}

/// A message exchanged between a client and the sequencer.
#[derive(Debug, Clone, PartialEq)]
pub enum WireMessage {
    /// Client → sequencer: a timestamped application message.
    Submit {
        /// Message id (unique per client session).
        id: MessageId,
        /// Submitting client.
        client: ClientId,
        /// The client's local timestamp.
        timestamp: f64,
    },
    /// Client → sequencer: liveness + watermark advancement.
    Heartbeat {
        /// The client sending the heartbeat.
        client: ClientId,
        /// The client's current local timestamp.
        timestamp: f64,
    },
    /// Client → sequencer: the client's learned offset distribution.
    ShareDistribution {
        /// The sharing client.
        client: ClientId,
        /// The learned distribution summary.
        distribution: SharedDistribution,
    },
    /// Sequencer → clients: one emitted batch.
    BatchEmit {
        /// Rank of the batch.
        rank: u64,
        /// Ids of the messages in the batch.
        message_ids: Vec<MessageId>,
    },
    /// Sequencer → client: acknowledgement of a submit.
    Ack {
        /// The acknowledged message id.
        id: MessageId,
    },
    /// Client → sequencer: a clock-synchronization probe.
    Probe {
        /// Probe sequence number.
        seq: u64,
        /// Client transmit timestamp (client clock).
        t0: f64,
    },
    /// Sequencer → client: the probe reply carrying the server timestamps.
    ProbeReply {
        /// Probe sequence number being answered.
        seq: u64,
        /// Echoed client transmit timestamp.
        t0: f64,
        /// Sequencer receive timestamp (sequencer clock).
        t1: f64,
        /// Sequencer transmit timestamp (sequencer clock).
        t2: f64,
    },
}

impl WireMessage {
    /// Build a [`WireMessage::Submit`] from a core [`Message`].
    pub fn from_message(message: &Message) -> Self {
        WireMessage::Submit {
            id: message.id,
            client: message.client,
            timestamp: message.timestamp,
        }
    }

    /// The frame kind byte of this message.
    pub fn kind(&self) -> u8 {
        match self {
            WireMessage::Submit { .. } => kind::SUBMIT,
            WireMessage::Heartbeat { .. } => kind::HEARTBEAT,
            WireMessage::ShareDistribution { distribution, .. } => match distribution {
                SharedDistribution::Gaussian { .. } => kind::SHARE_GAUSSIAN,
                SharedDistribution::Histogram { .. } => kind::SHARE_HISTOGRAM,
                SharedDistribution::Samples(_) => kind::SHARE_SAMPLES,
            },
            WireMessage::BatchEmit { .. } => kind::BATCH_EMIT,
            WireMessage::Ack { .. } => kind::ACK,
            WireMessage::Probe { .. } => kind::PROBE,
            WireMessage::ProbeReply { .. } => kind::PROBE_REPLY,
        }
    }

    /// Encode just the payload (no frame header, no checksum).
    pub fn encode_payload(&self, buf: &mut Vec<u8>) {
        match self {
            WireMessage::Submit {
                id,
                client,
                timestamp,
            } => {
                buf.extend_from_slice(&id.0.to_le_bytes());
                buf.extend_from_slice(&client.0.to_le_bytes());
                buf.extend_from_slice(&timestamp.to_le_bytes());
            }
            WireMessage::Heartbeat { client, timestamp } => {
                buf.extend_from_slice(&client.0.to_le_bytes());
                buf.extend_from_slice(&timestamp.to_le_bytes());
            }
            WireMessage::ShareDistribution {
                client,
                distribution,
            } => {
                buf.extend_from_slice(&client.0.to_le_bytes());
                match distribution {
                    SharedDistribution::Gaussian { mean, std_dev } => {
                        buf.extend_from_slice(&mean.to_le_bytes());
                        buf.extend_from_slice(&std_dev.to_le_bytes());
                    }
                    SharedDistribution::Histogram { lo, hi, counts } => {
                        buf.extend_from_slice(&lo.to_le_bytes());
                        buf.extend_from_slice(&hi.to_le_bytes());
                        buf.extend_from_slice(&(counts.len() as u32).to_le_bytes());
                        for &c in counts {
                            buf.extend_from_slice(&c.to_le_bytes());
                        }
                    }
                    SharedDistribution::Samples(samples) => {
                        buf.extend_from_slice(&(samples.len() as u32).to_le_bytes());
                        for &s in samples {
                            buf.extend_from_slice(&s.to_le_bytes());
                        }
                    }
                }
            }
            WireMessage::BatchEmit { rank, message_ids } => {
                buf.extend_from_slice(&rank.to_le_bytes());
                buf.extend_from_slice(&(message_ids.len() as u32).to_le_bytes());
                for id in message_ids {
                    buf.extend_from_slice(&id.0.to_le_bytes());
                }
            }
            WireMessage::Ack { id } => buf.extend_from_slice(&id.0.to_le_bytes()),
            WireMessage::Probe { seq, t0 } => {
                buf.extend_from_slice(&seq.to_le_bytes());
                buf.extend_from_slice(&t0.to_le_bytes());
            }
            WireMessage::ProbeReply { seq, t0, t1, t2 } => {
                buf.extend_from_slice(&seq.to_le_bytes());
                buf.extend_from_slice(&t0.to_le_bytes());
                buf.extend_from_slice(&t1.to_le_bytes());
                buf.extend_from_slice(&t2.to_le_bytes());
            }
        }
    }

    /// Decode a payload of the given kind. The payload must be exactly the
    /// message: bytes left over after the last field are an error.
    pub fn decode_payload(kind_byte: u8, payload: &[u8]) -> Result<Self, WireError> {
        fn finite(value: f64, field: &'static str) -> Result<f64, WireError> {
            if value.is_finite() {
                Ok(value)
            } else {
                Err(WireError::InvalidField { field })
            }
        }

        let buf = &mut Reader(payload);
        let msg = match kind_byte {
            kind::SUBMIT => {
                buf.need(20, "submit")?;
                let id = MessageId(buf.u64());
                let client = ClientId(buf.u32());
                let timestamp = finite(buf.f64(), "timestamp")?;
                WireMessage::Submit {
                    id,
                    client,
                    timestamp,
                }
            }
            kind::HEARTBEAT => {
                buf.need(12, "heartbeat")?;
                let client = ClientId(buf.u32());
                let timestamp = finite(buf.f64(), "timestamp")?;
                WireMessage::Heartbeat { client, timestamp }
            }
            kind::SHARE_GAUSSIAN => {
                buf.need(20, "gaussian share")?;
                let client = ClientId(buf.u32());
                let mean = finite(buf.f64(), "mean")?;
                let std_dev = finite(buf.f64(), "std_dev")?;
                if std_dev < 0.0 {
                    return Err(WireError::InvalidField { field: "std_dev" });
                }
                WireMessage::ShareDistribution {
                    client,
                    distribution: SharedDistribution::Gaussian { mean, std_dev },
                }
            }
            kind::SHARE_HISTOGRAM => {
                buf.need(24, "histogram share header")?;
                let client = ClientId(buf.u32());
                let lo = finite(buf.f64(), "lo")?;
                let hi = finite(buf.f64(), "hi")?;
                if hi <= lo {
                    return Err(WireError::InvalidField { field: "hi" });
                }
                let n = buf.u32() as usize;
                buf.need(n * 8, "histogram counts")?;
                let counts = (0..n).map(|_| buf.u64()).collect();
                WireMessage::ShareDistribution {
                    client,
                    distribution: SharedDistribution::Histogram { lo, hi, counts },
                }
            }
            kind::SHARE_SAMPLES => {
                buf.need(8, "sample share header")?;
                let client = ClientId(buf.u32());
                let n = buf.u32() as usize;
                buf.need(n * 8, "samples")?;
                let samples = (0..n)
                    .map(|_| finite(buf.f64(), "sample"))
                    .collect::<Result<Vec<_>, _>>()?;
                WireMessage::ShareDistribution {
                    client,
                    distribution: SharedDistribution::Samples(samples),
                }
            }
            kind::BATCH_EMIT => {
                buf.need(12, "batch header")?;
                let rank = buf.u64();
                let n = buf.u32() as usize;
                buf.need(n * 8, "batch members")?;
                let message_ids = (0..n).map(|_| MessageId(buf.u64())).collect();
                WireMessage::BatchEmit { rank, message_ids }
            }
            kind::ACK => {
                buf.need(8, "ack")?;
                WireMessage::Ack {
                    id: MessageId(buf.u64()),
                }
            }
            kind::PROBE => {
                buf.need(16, "probe")?;
                let seq = buf.u64();
                let t0 = finite(buf.f64(), "t0")?;
                WireMessage::Probe { seq, t0 }
            }
            kind::PROBE_REPLY => {
                buf.need(32, "probe reply")?;
                let seq = buf.u64();
                let t0 = finite(buf.f64(), "t0")?;
                let t1 = finite(buf.f64(), "t1")?;
                let t2 = finite(buf.f64(), "t2")?;
                WireMessage::ProbeReply { seq, t0, t1, t2 }
            }
            // A stream header is a frame's, never a message's.
            other => return Err(WireError::UnknownKind(other)),
        };
        buf.finish(kind_byte)?;
        Ok(msg)
    }
}

/// What one frame carries: a bare message, or a message (or nothing, for a
/// bare fin) behind a sequenced session header. The header holds its
/// message by value, so a stream frame cannot nest another.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// A message sent outside any stream.
    Message(WireMessage),
    /// A sequenced session frame: a message wrapped with a
    /// per-`(sender, stream)` monotone sequence number, so the receiver can
    /// detect gaps, duplicates and reordering (and request retransmits).
    Stream {
        /// The client that owns the stream.
        sender: ClientId,
        /// Stream identifier within the sender (a sender may run several
        /// independent sequenced streams).
        stream_id: u64,
        /// Dense per-stream sequence number, starting at 0.
        sequence: u64,
        /// Whether this is the final frame of the stream.
        fin: bool,
        /// The wrapped message. `None` for a bare control frame (e.g. a
        /// standalone fin).
        inner: Option<WireMessage>,
    },
}

impl Frame {
    /// The kind byte of this frame.
    pub fn kind(&self) -> u8 {
        match self {
            Frame::Message(message) => message.kind(),
            Frame::Stream { .. } => kind::STREAM,
        }
    }

    /// Encode just the payload (no frame header, no checksum). A stream
    /// frame's payload is its header (sender, stream id, sequence, flags:
    /// `0x01` fin, `0x02` inner present), then the inner message's kind byte
    /// and payload.
    pub fn encode_payload(&self, buf: &mut Vec<u8>) {
        match self {
            Frame::Message(message) => message.encode_payload(buf),
            Frame::Stream {
                sender,
                stream_id,
                sequence,
                fin,
                inner,
            } => {
                buf.extend_from_slice(&sender.0.to_le_bytes());
                buf.extend_from_slice(&stream_id.to_le_bytes());
                buf.extend_from_slice(&sequence.to_le_bytes());
                buf.push(u8::from(*fin) | if inner.is_some() { 0x02 } else { 0 });
                if let Some(inner) = inner {
                    buf.push(inner.kind());
                    inner.encode_payload(buf);
                }
            }
        }
    }

    /// Decode a payload of the given kind. The payload must be exactly the
    /// frame: bytes left over after the last field are an error, reported
    /// under the inner message's kind when there is one.
    pub fn decode_payload(kind_byte: u8, payload: &[u8]) -> Result<Self, WireError> {
        if kind_byte != kind::STREAM {
            return WireMessage::decode_payload(kind_byte, payload).map(Frame::Message);
        }
        let buf = &mut Reader(payload);
        buf.need(21, "stream header")?;
        let sender = ClientId(buf.u32());
        let stream_id = buf.u64();
        let sequence = buf.u64();
        let flags = buf.u8();
        if flags & !0x03 != 0 {
            return Err(WireError::InvalidField { field: "flags" });
        }
        let inner = if flags & 0x02 != 0 {
            buf.need(1, "stream inner kind")?;
            let inner_kind = buf.u8();
            if inner_kind == kind::STREAM {
                return Err(WireError::InvalidField { field: "inner" });
            }
            // The inner message owns the rest of the payload, and answers
            // for any bytes it leaves over.
            Some(WireMessage::decode_payload(inner_kind, buf.0)?)
        } else {
            buf.finish(kind::STREAM)?;
            None
        };
        Ok(Frame::Stream {
            sender,
            stream_id,
            sequence,
            fin: flags & 0x01 != 0,
            inner,
        })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn roundtrip(frame: &Frame) -> Frame {
        let mut buf = Vec::new();
        frame.encode_payload(&mut buf);
        Frame::decode_payload(frame.kind(), &buf).expect("roundtrip decode")
    }

    /// Every message kind as a bare frame, then a stream-wrapped submit and a
    /// bare fin.
    pub(crate) fn all_variants() -> Vec<Frame> {
        let messages = [
            WireMessage::Submit {
                id: MessageId(42),
                client: ClientId(7),
                timestamp: 123.456,
            },
            WireMessage::Heartbeat {
                client: ClientId(3),
                timestamp: -5.25,
            },
            WireMessage::ShareDistribution {
                client: ClientId(1),
                distribution: SharedDistribution::Gaussian {
                    mean: 2.5,
                    std_dev: 10.0,
                },
            },
            WireMessage::ShareDistribution {
                client: ClientId(2),
                distribution: SharedDistribution::Histogram {
                    lo: -10.0,
                    hi: 10.0,
                    counts: vec![1, 2, 3, 4, 0, 6],
                },
            },
            WireMessage::ShareDistribution {
                client: ClientId(4),
                distribution: SharedDistribution::Samples(vec![0.5, -1.5, 3.25]),
            },
            WireMessage::BatchEmit {
                rank: 9,
                message_ids: vec![MessageId(1), MessageId(5), MessageId(9)],
            },
            WireMessage::Ack { id: MessageId(77) },
            WireMessage::Probe { seq: 11, t0: 99.5 },
            WireMessage::ProbeReply {
                seq: 11,
                t0: 99.5,
                t1: 100.25,
                t2: 100.5,
            },
        ];
        let streamed = [
            Frame::Stream {
                sender: ClientId(6),
                stream_id: 2,
                sequence: 17,
                fin: false,
                inner: Some(WireMessage::Submit {
                    id: MessageId(8),
                    client: ClientId(6),
                    timestamp: 0.125,
                }),
            },
            Frame::Stream {
                sender: ClientId(6),
                stream_id: 2,
                sequence: 18,
                fin: true,
                inner: None,
            },
        ];
        messages
            .into_iter()
            .map(Frame::Message)
            .chain(streamed)
            .collect()
    }

    #[test]
    fn every_variant_roundtrips() {
        for frame in all_variants() {
            assert_eq!(roundtrip(&frame), frame);
        }
    }

    #[test]
    fn kinds_are_distinct() {
        // Two of the sample variants are both Stream frames; every other
        // sample has its own kind byte.
        let kinds: std::collections::HashSet<u8> = all_variants().iter().map(Frame::kind).collect();
        assert_eq!(kinds.len(), all_variants().len() - 1);
    }

    #[test]
    fn from_message_carries_fields() {
        let m = Message::new(MessageId(5), ClientId(9), 12.5);
        match WireMessage::from_message(&m) {
            WireMessage::Submit {
                id,
                client,
                timestamp,
            } => {
                assert_eq!(id, MessageId(5));
                assert_eq!(client, ClientId(9));
                assert_eq!(timestamp, 12.5);
            }
            other => panic!("unexpected variant {other:?}"),
        }
    }

    #[test]
    fn truncated_payloads_error() {
        let mut buf = Vec::new();
        WireMessage::Ack { id: MessageId(1) }.encode_payload(&mut buf);
        let err = WireMessage::decode_payload(0x07, &buf[..4]).unwrap_err();
        assert!(matches!(err, WireError::Truncated { .. }));
    }

    /// One byte past the last field is rejected for every kind, a stream
    /// frame's inner message included (which reports its own kind).
    #[test]
    fn trailing_bytes_rejected_for_every_kind() {
        for frame in all_variants() {
            let mut buf = Vec::new();
            frame.encode_payload(&mut buf);
            buf.push(0);
            let innermost = match &frame {
                Frame::Stream {
                    inner: Some(inner), ..
                } => inner.kind(),
                other => other.kind(),
            };
            assert_eq!(
                Frame::decode_payload(frame.kind(), &buf),
                Err(WireError::TrailingBytes {
                    kind: innermost,
                    extra: 1
                }),
                "{frame:?}"
            );
        }
    }

    #[test]
    fn unknown_kind_errors() {
        let err = Frame::decode_payload(0xEE, &[]).unwrap_err();
        assert_eq!(err, WireError::UnknownKind(0xEE));
        // A stream header is only ever a frame's, never a message's.
        let err = WireMessage::decode_payload(0x0A, &[]).unwrap_err();
        assert_eq!(err, WireError::UnknownKind(0x0A));
    }

    #[test]
    fn non_finite_timestamp_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&1_u64.to_le_bytes());
        buf.extend_from_slice(&2_u32.to_le_bytes());
        buf.extend_from_slice(&f64::NAN.to_le_bytes());
        let err = WireMessage::decode_payload(0x01, &buf).unwrap_err();
        assert_eq!(err, WireError::InvalidField { field: "timestamp" });
    }

    #[test]
    fn negative_std_dev_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&1_u32.to_le_bytes());
        buf.extend_from_slice(&0.0_f64.to_le_bytes());
        buf.extend_from_slice(&(-1.0_f64).to_le_bytes());
        let err = WireMessage::decode_payload(0x03, &buf).unwrap_err();
        assert_eq!(err, WireError::InvalidField { field: "std_dev" });
    }

    #[test]
    fn invalid_histogram_bounds_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&1_u32.to_le_bytes());
        buf.extend_from_slice(&5.0_f64.to_le_bytes());
        buf.extend_from_slice(&5.0_f64.to_le_bytes());
        buf.extend_from_slice(&0_u32.to_le_bytes());
        let err = WireMessage::decode_payload(0x04, &buf).unwrap_err();
        assert_eq!(err, WireError::InvalidField { field: "hi" });
    }

    #[test]
    fn nested_stream_frames_rejected_on_decode() {
        // Hand-craft a stream frame whose inner kind byte is itself STREAM.
        let mut buf = Vec::new();
        buf.extend_from_slice(&1_u32.to_le_bytes()); // sender
        buf.extend_from_slice(&0_u64.to_le_bytes()); // stream_id
        buf.extend_from_slice(&0_u64.to_le_bytes()); // sequence
        buf.push(0x02); // flags: has_inner
        buf.push(0x0A); // inner kind: STREAM — illegal
        let err = Frame::decode_payload(0x0A, &buf).unwrap_err();
        assert_eq!(err, WireError::InvalidField { field: "inner" });
    }

    #[test]
    fn unknown_stream_flags_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&1_u32.to_le_bytes());
        buf.extend_from_slice(&0_u64.to_le_bytes());
        buf.extend_from_slice(&0_u64.to_le_bytes());
        buf.push(0x80); // reserved flag bit set
        let err = Frame::decode_payload(0x0A, &buf).unwrap_err();
        assert_eq!(err, WireError::InvalidField { field: "flags" });
    }

    #[test]
    fn truncated_vector_payload_rejected() {
        // Batch that claims 100 members but carries only 1.
        let mut buf = Vec::new();
        buf.extend_from_slice(&0_u64.to_le_bytes());
        buf.extend_from_slice(&100_u32.to_le_bytes());
        buf.extend_from_slice(&1_u64.to_le_bytes());
        let err = WireMessage::decode_payload(0x06, &buf).unwrap_err();
        assert!(matches!(err, WireError::Truncated { .. }));
    }
}

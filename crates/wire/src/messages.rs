//! Wire message types and their binary codecs.
//!
//! All multi-byte integers and floats are little-endian. Every message kind
//! has a fixed layout documented on its variant; variable-length payloads
//! (histogram counts, raw samples, batch members) carry an explicit `u32`
//! element count.

use crate::error::WireError;
use bytes::{Buf, BufMut, BytesMut};
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
    /// A sequenced session frame: any other message wrapped with a
    /// per-`(sender, stream)` monotone sequence number, so the receiver can
    /// detect gaps, duplicates and reordering (and request retransmits).
    /// Stream frames must not nest.
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
        inner: Option<Box<WireMessage>>,
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
            WireMessage::Stream { .. } => kind::STREAM,
        }
    }

    /// Encode just the payload (no frame header, no checksum).
    pub fn encode_payload(&self, buf: &mut BytesMut) {
        match self {
            WireMessage::Submit {
                id,
                client,
                timestamp,
            } => {
                buf.put_u64_le(id.0);
                buf.put_u32_le(client.0);
                buf.put_f64_le(*timestamp);
            }
            WireMessage::Heartbeat { client, timestamp } => {
                buf.put_u32_le(client.0);
                buf.put_f64_le(*timestamp);
            }
            WireMessage::ShareDistribution {
                client,
                distribution,
            } => {
                buf.put_u32_le(client.0);
                match distribution {
                    SharedDistribution::Gaussian { mean, std_dev } => {
                        buf.put_f64_le(*mean);
                        buf.put_f64_le(*std_dev);
                    }
                    SharedDistribution::Histogram { lo, hi, counts } => {
                        buf.put_f64_le(*lo);
                        buf.put_f64_le(*hi);
                        buf.put_u32_le(counts.len() as u32);
                        for &c in counts {
                            buf.put_u64_le(c);
                        }
                    }
                    SharedDistribution::Samples(samples) => {
                        buf.put_u32_le(samples.len() as u32);
                        for &s in samples {
                            buf.put_f64_le(s);
                        }
                    }
                }
            }
            WireMessage::BatchEmit { rank, message_ids } => {
                buf.put_u64_le(*rank);
                buf.put_u32_le(message_ids.len() as u32);
                for id in message_ids {
                    buf.put_u64_le(id.0);
                }
            }
            WireMessage::Ack { id } => buf.put_u64_le(id.0),
            WireMessage::Probe { seq, t0 } => {
                buf.put_u64_le(*seq);
                buf.put_f64_le(*t0);
            }
            WireMessage::ProbeReply { seq, t0, t1, t2 } => {
                buf.put_u64_le(*seq);
                buf.put_f64_le(*t0);
                buf.put_f64_le(*t1);
                buf.put_f64_le(*t2);
            }
            WireMessage::Stream {
                sender,
                stream_id,
                sequence,
                fin,
                inner,
            } => {
                buf.put_u32_le(sender.0);
                buf.put_u64_le(*stream_id);
                buf.put_u64_le(*sequence);
                let mut flags = 0u8;
                if *fin {
                    flags |= 0x01;
                }
                if inner.is_some() {
                    flags |= 0x02;
                }
                buf.put_u8(flags);
                if let Some(inner) = inner {
                    assert!(
                        !matches!(**inner, WireMessage::Stream { .. }),
                        "stream frames must not nest"
                    );
                    buf.put_u8(inner.kind());
                    inner.encode_payload(buf);
                }
            }
        }
    }

    /// Decode a payload of the given kind. The payload must be exactly the
    /// message: bytes left over after the last field are an error.
    pub fn decode_payload(kind_byte: u8, mut payload: &[u8]) -> Result<Self, WireError> {
        fn need(buf: &[u8], n: usize, context: &'static str) -> Result<(), WireError> {
            if buf.remaining() < n {
                Err(WireError::Truncated { context })
            } else {
                Ok(())
            }
        }
        fn finite(value: f64, field: &'static str) -> Result<f64, WireError> {
            if value.is_finite() {
                Ok(value)
            } else {
                Err(WireError::InvalidField { field })
            }
        }

        let buf = &mut payload;
        let msg = match kind_byte {
            kind::SUBMIT => {
                need(buf, 20, "submit")?;
                let id = MessageId(buf.get_u64_le());
                let client = ClientId(buf.get_u32_le());
                let timestamp = finite(buf.get_f64_le(), "timestamp")?;
                WireMessage::Submit {
                    id,
                    client,
                    timestamp,
                }
            }
            kind::HEARTBEAT => {
                need(buf, 12, "heartbeat")?;
                let client = ClientId(buf.get_u32_le());
                let timestamp = finite(buf.get_f64_le(), "timestamp")?;
                WireMessage::Heartbeat { client, timestamp }
            }
            kind::SHARE_GAUSSIAN => {
                need(buf, 20, "gaussian share")?;
                let client = ClientId(buf.get_u32_le());
                let mean = finite(buf.get_f64_le(), "mean")?;
                let std_dev = finite(buf.get_f64_le(), "std_dev")?;
                if std_dev < 0.0 {
                    return Err(WireError::InvalidField { field: "std_dev" });
                }
                WireMessage::ShareDistribution {
                    client,
                    distribution: SharedDistribution::Gaussian { mean, std_dev },
                }
            }
            kind::SHARE_HISTOGRAM => {
                need(buf, 24, "histogram share header")?;
                let client = ClientId(buf.get_u32_le());
                let lo = finite(buf.get_f64_le(), "lo")?;
                let hi = finite(buf.get_f64_le(), "hi")?;
                if hi <= lo {
                    return Err(WireError::InvalidField { field: "hi" });
                }
                let n = buf.get_u32_le() as usize;
                need(buf, n * 8, "histogram counts")?;
                let counts = (0..n).map(|_| buf.get_u64_le()).collect();
                WireMessage::ShareDistribution {
                    client,
                    distribution: SharedDistribution::Histogram { lo, hi, counts },
                }
            }
            kind::SHARE_SAMPLES => {
                need(buf, 8, "sample share header")?;
                let client = ClientId(buf.get_u32_le());
                let n = buf.get_u32_le() as usize;
                need(buf, n * 8, "samples")?;
                let samples = (0..n)
                    .map(|_| finite(buf.get_f64_le(), "sample"))
                    .collect::<Result<Vec<_>, _>>()?;
                WireMessage::ShareDistribution {
                    client,
                    distribution: SharedDistribution::Samples(samples),
                }
            }
            kind::BATCH_EMIT => {
                need(buf, 12, "batch header")?;
                let rank = buf.get_u64_le();
                let n = buf.get_u32_le() as usize;
                need(buf, n * 8, "batch members")?;
                let message_ids = (0..n).map(|_| MessageId(buf.get_u64_le())).collect();
                WireMessage::BatchEmit { rank, message_ids }
            }
            kind::ACK => {
                need(buf, 8, "ack")?;
                WireMessage::Ack {
                    id: MessageId(buf.get_u64_le()),
                }
            }
            kind::PROBE => {
                need(buf, 16, "probe")?;
                let seq = buf.get_u64_le();
                let t0 = finite(buf.get_f64_le(), "t0")?;
                WireMessage::Probe { seq, t0 }
            }
            kind::PROBE_REPLY => {
                need(buf, 32, "probe reply")?;
                let seq = buf.get_u64_le();
                let t0 = finite(buf.get_f64_le(), "t0")?;
                let t1 = finite(buf.get_f64_le(), "t1")?;
                let t2 = finite(buf.get_f64_le(), "t2")?;
                WireMessage::ProbeReply { seq, t0, t1, t2 }
            }
            kind::STREAM => {
                need(buf, 21, "stream header")?;
                let sender = ClientId(buf.get_u32_le());
                let stream_id = buf.get_u64_le();
                let sequence = buf.get_u64_le();
                let flags = buf.get_u8();
                if flags & !0x03 != 0 {
                    return Err(WireError::InvalidField { field: "flags" });
                }
                let fin = flags & 0x01 != 0;
                let inner = if flags & 0x02 != 0 {
                    need(buf, 1, "stream inner kind")?;
                    let inner_kind = buf.get_u8();
                    if inner_kind == kind::STREAM {
                        return Err(WireError::InvalidField { field: "inner" });
                    }
                    // The inner message owns the rest of the payload, and
                    // answers for any bytes it leaves over.
                    let rest = std::mem::take(buf);
                    Some(Box::new(WireMessage::decode_payload(inner_kind, rest)?))
                } else {
                    None
                };
                WireMessage::Stream {
                    sender,
                    stream_id,
                    sequence,
                    fin,
                    inner,
                }
            }
            other => return Err(WireError::UnknownKind(other)),
        };
        if buf.has_remaining() {
            return Err(WireError::TrailingBytes {
                kind: kind_byte,
                extra: buf.remaining(),
            });
        }
        Ok(msg)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn roundtrip(msg: &WireMessage) -> WireMessage {
        let mut buf = BytesMut::new();
        msg.encode_payload(&mut buf);
        WireMessage::decode_payload(msg.kind(), &buf).expect("roundtrip decode")
    }

    pub(crate) fn all_variants() -> Vec<WireMessage> {
        vec![
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
            WireMessage::Stream {
                sender: ClientId(6),
                stream_id: 2,
                sequence: 17,
                fin: false,
                inner: Some(Box::new(WireMessage::Submit {
                    id: MessageId(8),
                    client: ClientId(6),
                    timestamp: 0.125,
                })),
            },
            WireMessage::Stream {
                sender: ClientId(6),
                stream_id: 2,
                sequence: 18,
                fin: true,
                inner: None,
            },
        ]
    }

    #[test]
    fn every_variant_roundtrips() {
        for msg in all_variants() {
            assert_eq!(roundtrip(&msg), msg);
        }
    }

    #[test]
    fn kinds_are_distinct() {
        // Two of the sample variants are both Stream frames; every other
        // sample has its own kind byte.
        let kinds: std::collections::HashSet<u8> =
            all_variants().iter().map(|m| m.kind()).collect();
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
        let mut buf = BytesMut::new();
        WireMessage::Ack { id: MessageId(1) }.encode_payload(&mut buf);
        let err = WireMessage::decode_payload(0x07, &buf[..4]).unwrap_err();
        assert!(matches!(err, WireError::Truncated { .. }));
    }

    /// One byte past the last field is rejected for every kind, a stream
    /// frame's inner message included (which reports its own kind).
    #[test]
    fn trailing_bytes_rejected_for_every_kind() {
        for msg in all_variants() {
            let mut buf = BytesMut::new();
            msg.encode_payload(&mut buf);
            buf.put_u8(0);
            let innermost = match &msg {
                WireMessage::Stream {
                    inner: Some(inner), ..
                } => inner.kind(),
                other => other.kind(),
            };
            assert_eq!(
                WireMessage::decode_payload(msg.kind(), &buf),
                Err(WireError::TrailingBytes {
                    kind: innermost,
                    extra: 1
                }),
                "{msg:?}"
            );
        }
    }

    #[test]
    fn unknown_kind_errors() {
        let err = WireMessage::decode_payload(0xEE, &[]).unwrap_err();
        assert_eq!(err, WireError::UnknownKind(0xEE));
    }

    #[test]
    fn non_finite_timestamp_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u64_le(1);
        buf.put_u32_le(2);
        buf.put_f64_le(f64::NAN);
        let err = WireMessage::decode_payload(0x01, &buf).unwrap_err();
        assert_eq!(err, WireError::InvalidField { field: "timestamp" });
    }

    #[test]
    fn negative_std_dev_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u32_le(1);
        buf.put_f64_le(0.0);
        buf.put_f64_le(-1.0);
        let err = WireMessage::decode_payload(0x03, &buf).unwrap_err();
        assert_eq!(err, WireError::InvalidField { field: "std_dev" });
    }

    #[test]
    fn invalid_histogram_bounds_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u32_le(1);
        buf.put_f64_le(5.0);
        buf.put_f64_le(5.0);
        buf.put_u32_le(0);
        let err = WireMessage::decode_payload(0x04, &buf).unwrap_err();
        assert_eq!(err, WireError::InvalidField { field: "hi" });
    }

    #[test]
    fn nested_stream_frames_rejected_on_decode() {
        // Hand-craft a stream frame whose inner kind byte is itself STREAM.
        let mut buf = BytesMut::new();
        buf.put_u32_le(1); // sender
        buf.put_u64_le(0); // stream_id
        buf.put_u64_le(0); // sequence
        buf.put_u8(0x02); // flags: has_inner
        buf.put_u8(0x0A); // inner kind: STREAM — illegal
        let err = WireMessage::decode_payload(0x0A, &buf).unwrap_err();
        assert_eq!(err, WireError::InvalidField { field: "inner" });
    }

    #[test]
    fn unknown_stream_flags_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u32_le(1);
        buf.put_u64_le(0);
        buf.put_u64_le(0);
        buf.put_u8(0x80); // reserved flag bit set
        let err = WireMessage::decode_payload(0x0A, &buf).unwrap_err();
        assert_eq!(err, WireError::InvalidField { field: "flags" });
    }

    #[test]
    #[should_panic(expected = "must not nest")]
    fn nested_stream_frames_rejected_on_encode() {
        let inner = WireMessage::Stream {
            sender: ClientId(1),
            stream_id: 0,
            sequence: 0,
            fin: false,
            inner: None,
        };
        let outer = WireMessage::Stream {
            sender: ClientId(1),
            stream_id: 0,
            sequence: 1,
            fin: false,
            inner: Some(Box::new(inner)),
        };
        let mut buf = BytesMut::new();
        outer.encode_payload(&mut buf);
    }

    #[test]
    fn truncated_vector_payload_rejected() {
        // Batch that claims 100 members but carries only 1.
        let mut buf = BytesMut::new();
        buf.put_u64_le(0);
        buf.put_u32_le(100);
        buf.put_u64_le(1);
        let err = WireMessage::decode_payload(0x06, &buf).unwrap_err();
        assert!(matches!(err, WireError::Truncated { .. }));
    }
}

//! Length-prefixed framing with checksums.
//!
//! Frame layout (all little-endian):
//!
//! ```text
//! [u32 length] [u8 kind] [payload bytes...] [u32 crc32(kind + payload)]
//! ```
//!
//! `length` counts everything after itself (kind + payload + crc). The
//! checksum covers the kind byte as well as the payload — a bit flip in the
//! kind byte would otherwise silently re-type a frame whose payload happens
//! to parse under both kinds. The decoder is incremental: feed it arbitrary
//! byte chunks from a TCP stream and pull complete messages out as they
//! become available.

use crate::checksum::crc32;
use crate::error::WireError;
use crate::messages::WireMessage;
use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Maximum accepted frame body length (kind + payload + crc). Large enough
/// for a 64k-sample distribution share, small enough to bound memory per
/// connection.
pub const MAX_FRAME_LEN: usize = 1 << 20;

/// Encode a message into a complete frame ready to write to a socket.
pub fn encode_frame(message: &WireMessage) -> Bytes {
    // One buffer: the length is reserved up front and patched once the body
    // behind it is known. 64 bytes hold every fixed-size kind, stream-wrapped
    // or not, without a regrow.
    let mut frame = BytesMut::with_capacity(64);
    frame.put_u32_le(0);
    frame.put_u8(message.kind());
    message.encode_payload(&mut frame);
    let crc = crc32(&frame[4..]);
    frame.put_u32_le(crc);
    let body_len = (frame.len() - 4) as u32;
    frame[..4].copy_from_slice(&body_len.to_le_bytes());
    frame.freeze()
}

/// An incremental frame decoder for a byte stream.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buffer: BytesMut,
}

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> Self {
        FrameDecoder::default()
    }

    /// Number of buffered (not yet consumed) bytes.
    pub fn buffered(&self) -> usize {
        self.buffer.len()
    }

    /// Append raw bytes received from the transport.
    pub fn feed(&mut self, data: &[u8]) {
        self.buffer.extend_from_slice(data);
    }

    /// Discard all buffered bytes and start clean.
    ///
    /// A corrupted *length* field leaves the decoder wedged: it either
    /// rejects the frame outright ([`WireError::FrameTooLarge`]) or waits
    /// forever for bytes that will never arrive, and every subsequent read
    /// is misaligned. Framing carries no sync markers, so the only safe
    /// recovery is to drop the buffer and resume at the next clean frame
    /// boundary (e.g. after a reconnect, or a sender-side resend).
    pub fn resync(&mut self) {
        self.buffer.clear();
    }

    /// Try to decode the next complete message. Returns `Ok(None)` when more
    /// bytes are needed.
    pub fn next_message(&mut self) -> Result<Option<WireMessage>, WireError> {
        if self.buffer.len() < 4 {
            return Ok(None);
        }
        let mut peek = &self.buffer[..];
        let body_len = peek.get_u32_le() as usize;
        if body_len > MAX_FRAME_LEN {
            return Err(WireError::FrameTooLarge { declared: body_len });
        }
        if body_len < 5 {
            // A frame must at least carry a kind byte and a checksum.
            return Err(WireError::Truncated {
                context: "frame body",
            });
        }
        if self.buffer.len() < 4 + body_len {
            return Ok(None);
        }

        // We have a complete frame: parse it where it lies, then consume it
        // whole, whatever the outcome.
        let (covered, crc) = self.buffer[4..4 + body_len].split_at(body_len - 4);
        let expected = u32::from_le_bytes(crc.try_into().expect("split 4 bytes from the end"));
        let actual = crc32(covered);
        let decoded = if actual == expected {
            WireMessage::decode_payload(covered[0], &covered[1..]).map(Some)
        } else {
            Err(WireError::ChecksumMismatch { expected, actual })
        };
        self.buffer.advance(4 + body_len);
        decoded
    }

    /// Decode every complete message currently buffered.
    pub fn drain(&mut self) -> Result<Vec<WireMessage>, WireError> {
        let mut out = Vec::new();
        while let Some(msg) = self.next_message()? {
            out.push(msg);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};
    use tommy_core::message::{ClientId, MessageId};

    fn sample_messages() -> Vec<WireMessage> {
        vec![
            WireMessage::Submit {
                id: MessageId(1),
                client: ClientId(2),
                timestamp: 3.5,
            },
            WireMessage::Heartbeat {
                client: ClientId(2),
                timestamp: 4.0,
            },
            WireMessage::BatchEmit {
                rank: 0,
                message_ids: vec![MessageId(1)],
            },
        ]
    }

    /// The encoder before it wrote one buffer (fill, checksum, copy behind a
    /// length), kept as the byte-for-byte reference.
    fn encode_frame_two_buffers(message: &WireMessage) -> Bytes {
        let mut covered = BytesMut::new();
        covered.put_u8(message.kind());
        message.encode_payload(&mut covered);
        let crc = crc32(&covered);
        let body_len = covered.len() + 4;
        let mut frame = BytesMut::with_capacity(4 + body_len);
        frame.put_u32_le(body_len as u32);
        frame.extend_from_slice(&covered);
        frame.put_u32_le(crc);
        frame.freeze()
    }

    #[test]
    fn one_buffer_encoder_is_byte_identical() {
        let mut rng = StdRng::seed_from_u64(0xE2C0DE);
        let seeded = (0..1000).map(|_| {
            let client = ClientId(rng.next_u32());
            let inner = match rng.random_range(0..3u32) {
                0 => None,
                1 => Some(WireMessage::Heartbeat {
                    client,
                    timestamp: rng.random_range(-1.0e6..1.0e6),
                }),
                _ => Some(WireMessage::Submit {
                    id: MessageId(rng.next_u64()),
                    client,
                    timestamp: rng.random_range(-1.0e6..1.0e6),
                }),
            };
            WireMessage::Stream {
                sender: client,
                stream_id: rng.next_u64(),
                sequence: rng.next_u64(),
                fin: rng.random_bool(0.2),
                inner: inner.map(Box::new),
            }
        });
        // The histogram share among the variants outgrows the encoder's
        // initial capacity.
        for msg in crate::messages::tests::all_variants()
            .into_iter()
            .chain(seeded)
        {
            assert_eq!(
                encode_frame(&msg),
                encode_frame_two_buffers(&msg),
                "{msg:?}"
            );
        }
    }

    #[test]
    fn frame_roundtrip() {
        let mut decoder = FrameDecoder::new();
        for msg in sample_messages() {
            decoder.feed(&encode_frame(&msg));
            let decoded = decoder.next_message().unwrap().unwrap();
            assert_eq!(decoded, msg);
        }
        assert_eq!(decoder.buffered(), 0);
    }

    #[test]
    fn decoder_handles_partial_feeds() {
        let msg = WireMessage::Submit {
            id: MessageId(9),
            client: ClientId(1),
            timestamp: -2.5,
        };
        let frame = encode_frame(&msg);
        let mut decoder = FrameDecoder::new();
        // Feed one byte at a time; the message appears only at the end.
        for (i, byte) in frame.iter().enumerate() {
            decoder.feed(&[*byte]);
            let result = decoder.next_message().unwrap();
            if i + 1 < frame.len() {
                assert!(result.is_none());
            } else {
                assert_eq!(result.unwrap(), msg);
            }
        }
    }

    #[test]
    fn decoder_handles_coalesced_frames() {
        let msgs = sample_messages();
        let mut stream = Vec::new();
        for m in &msgs {
            stream.extend_from_slice(&encode_frame(m));
        }
        let mut decoder = FrameDecoder::new();
        decoder.feed(&stream);
        let decoded = decoder.drain().unwrap();
        assert_eq!(decoded, msgs);
    }

    #[test]
    fn corrupted_payload_is_detected() {
        let msg = WireMessage::Ack { id: MessageId(1) };
        let frame = encode_frame(&msg);
        let mut corrupted = frame.to_vec();
        // Flip a bit inside the payload (after length + kind).
        corrupted[6] ^= 0x01;
        let mut decoder = FrameDecoder::new();
        decoder.feed(&corrupted);
        let err = decoder.next_message().unwrap_err();
        assert!(matches!(err, WireError::ChecksumMismatch { .. }));
    }

    #[test]
    fn oversized_frame_rejected() {
        let mut decoder = FrameDecoder::new();
        let mut bogus = BytesMut::new();
        bogus.put_u32_le((MAX_FRAME_LEN + 1) as u32);
        decoder.feed(&bogus);
        let err = decoder.next_message().unwrap_err();
        assert!(matches!(err, WireError::FrameTooLarge { .. }));
    }

    #[test]
    fn resync_recovers_a_wedged_decoder() {
        let mut decoder = FrameDecoder::new();
        let mut bogus = BytesMut::new();
        bogus.put_u32_le((MAX_FRAME_LEN + 1) as u32);
        decoder.feed(&bogus);
        assert!(decoder.next_message().is_err());
        // The poisoned length stays buffered: the decoder keeps failing.
        assert!(decoder.next_message().is_err());
        decoder.resync();
        assert_eq!(decoder.buffered(), 0);
        let msg = WireMessage::Ack { id: MessageId(3) };
        decoder.feed(&encode_frame(&msg));
        assert_eq!(decoder.next_message().unwrap().unwrap(), msg);
    }

    #[test]
    fn undersized_frame_rejected() {
        let mut decoder = FrameDecoder::new();
        let mut bogus = BytesMut::new();
        bogus.put_u32_le(2);
        bogus.put_u8(0x01);
        bogus.put_u8(0x00);
        decoder.feed(&bogus);
        let err = decoder.next_message().unwrap_err();
        assert!(matches!(err, WireError::Truncated { .. }));
    }

    #[test]
    fn large_distribution_share_roundtrips() {
        let msg = WireMessage::ShareDistribution {
            client: ClientId(3),
            distribution: tommy_clock::shared::SharedDistribution::Samples(
                (0..10_000).map(|i| i as f64 * 0.001).collect(),
            ),
        };
        let mut decoder = FrameDecoder::new();
        decoder.feed(&encode_frame(&msg));
        assert_eq!(decoder.next_message().unwrap().unwrap(), msg);
    }
}

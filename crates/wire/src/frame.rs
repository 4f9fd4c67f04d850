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
//! byte chunks from a TCP stream and pull complete [`Frame`]s out as they
//! become available.

use crate::checksum::crc32;
use crate::error::WireError;
use crate::messages::Frame;

/// Maximum accepted frame body length (kind + payload + crc). Large enough
/// for a 64k-sample distribution share, small enough to bound memory per
/// connection.
pub const MAX_FRAME_LEN: usize = 1 << 20;

/// Encode a frame into the bytes ready to write to a socket.
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    // One buffer: the length is reserved up front and patched once the body
    // behind it is known. 64 bytes hold every fixed-size kind, stream-wrapped
    // or not, without a regrow.
    let mut bytes = Vec::with_capacity(64);
    bytes.extend_from_slice(&[0; 4]);
    bytes.push(frame.kind());
    frame.encode_payload(&mut bytes);
    let crc = crc32(&bytes[4..]);
    bytes.extend_from_slice(&crc.to_le_bytes());
    let body_len = (bytes.len() - 4) as u32;
    bytes[..4].copy_from_slice(&body_len.to_le_bytes());
    bytes
}

/// An incremental frame decoder for a byte stream.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    /// Bytes fed so far; those before `head` are consumed.
    buffer: Vec<u8>,
    /// The read cursor: the start of the first frame not yet decoded.
    head: usize,
}

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> Self {
        FrameDecoder::default()
    }

    /// Number of buffered (not yet consumed) bytes.
    pub fn buffered(&self) -> usize {
        self.buffer.len() - self.head
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
        self.head = 0;
    }

    /// Try to decode the next complete frame. Returns `Ok(None)` when more
    /// bytes are needed.
    pub fn next_message(&mut self) -> Result<Option<Frame>, WireError> {
        let unread = &self.buffer[self.head..];
        let Some(&length) = unread.first_chunk() else {
            return Ok(None);
        };
        let body_len = u32::from_le_bytes(length) as usize;
        if body_len > MAX_FRAME_LEN {
            return Err(WireError::FrameTooLarge { declared: body_len });
        }
        if body_len < 5 {
            // A frame must at least carry a kind byte and a checksum.
            return Err(WireError::Truncated {
                context: "frame body",
            });
        }
        if unread.len() < 4 + body_len {
            return Ok(None);
        }

        // We have a complete frame: parse it where it lies, then consume it
        // whole, whatever the outcome.
        let (covered, crc) = unread[4..4 + body_len].split_at(body_len - 4);
        let expected = u32::from_le_bytes(crc.try_into().expect("split 4 bytes from the end"));
        let actual = crc32(covered);
        let decoded = if actual == expected {
            Frame::decode_payload(covered[0], &covered[1..]).map(Some)
        } else {
            Err(WireError::ChecksumMismatch { expected, actual })
        };
        self.head += 4 + body_len;
        self.compact_if_large();
        decoded
    }

    /// Decode every complete frame currently buffered.
    pub fn drain(&mut self) -> Result<Vec<Frame>, WireError> {
        let mut out = Vec::new();
        while let Some(frame) = self.next_message()? {
            out.push(frame);
        }
        Ok(out)
    }

    /// Drop the consumed bytes once they are over 4 KiB and most of the
    /// buffer, so each byte is moved at most once on average: amortised O(1).
    /// Only consuming a frame can make that true, so only it calls this.
    fn compact_if_large(&mut self) {
        if self.head > 4096 && self.head * 2 > self.buffer.len() {
            self.buffer.drain(..self.head);
            self.head = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::WireMessage;
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};
    use tommy_core::message::{ClientId, MessageId};

    fn sample_frames() -> Vec<Frame> {
        [
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
        .into_iter()
        .map(Frame::Message)
        .collect()
    }

    /// The encoder before it wrote one buffer (fill, checksum, copy behind a
    /// length), kept as the byte-for-byte reference.
    fn encode_frame_two_buffers(frame: &Frame) -> Vec<u8> {
        let mut covered = vec![frame.kind()];
        frame.encode_payload(&mut covered);
        let crc = crc32(&covered);
        let body_len = covered.len() + 4;
        let mut frame = Vec::with_capacity(4 + body_len);
        frame.extend_from_slice(&(body_len as u32).to_le_bytes());
        frame.extend_from_slice(&covered);
        frame.extend_from_slice(&crc.to_le_bytes());
        frame
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
            Frame::Stream {
                sender: client,
                stream_id: rng.next_u64(),
                sequence: rng.next_u64(),
                fin: rng.random_bool(0.2),
                inner,
            }
        });
        // The histogram share among the variants outgrows the encoder's
        // initial capacity.
        for frame in crate::messages::tests::all_variants()
            .into_iter()
            .chain(seeded)
        {
            assert_eq!(
                encode_frame(&frame),
                encode_frame_two_buffers(&frame),
                "{frame:?}"
            );
        }
    }

    #[test]
    fn frame_roundtrip() {
        let mut decoder = FrameDecoder::new();
        for frame in sample_frames() {
            decoder.feed(&encode_frame(&frame));
            let decoded = decoder.next_message().unwrap().unwrap();
            assert_eq!(decoded, frame);
        }
        assert_eq!(decoder.buffered(), 0);
    }

    #[test]
    fn decoder_handles_partial_feeds() {
        let frame = Frame::Message(WireMessage::Submit {
            id: MessageId(9),
            client: ClientId(1),
            timestamp: -2.5,
        });
        let bytes = encode_frame(&frame);
        let mut decoder = FrameDecoder::new();
        // Feed one byte at a time; the frame appears only at the end.
        for (i, byte) in bytes.iter().enumerate() {
            decoder.feed(&[*byte]);
            let result = decoder.next_message().unwrap();
            if i + 1 < bytes.len() {
                assert!(result.is_none());
            } else {
                assert_eq!(result.unwrap(), frame);
            }
        }
    }

    #[test]
    fn decoder_handles_coalesced_frames() {
        let frames = sample_frames();
        let mut stream = Vec::new();
        for frame in &frames {
            stream.extend_from_slice(&encode_frame(frame));
        }
        let mut decoder = FrameDecoder::new();
        decoder.feed(&stream);
        let decoded = decoder.drain().unwrap();
        assert_eq!(decoded, frames);
    }

    /// More than 4 KiB of frames fed in chunks that cut across frame
    /// boundaries: the decoder moves its unread bytes to the front while a
    /// partial frame straddles the read cursor, and every frame still
    /// decodes, in order.
    #[test]
    fn compaction_keeps_a_straddling_partial_frame() {
        let frames: Vec<Frame> = (0..600u64)
            .map(|i| {
                Frame::Message(WireMessage::Submit {
                    id: MessageId(i),
                    client: ClientId(i as u32 % 7),
                    timestamp: i as f64 * 0.5,
                })
            })
            .collect();
        let frame_len = encode_frame(&frames[0]).len();
        let stream: Vec<u8> = frames.iter().flat_map(encode_frame).collect();
        assert!(stream.len() > 4 * 4096);
        let mut decoder = FrameDecoder::new();
        let (mut decoded, mut straddled) = (Vec::new(), 0);
        for chunk in stream.chunks(37) {
            decoder.feed(chunk);
            loop {
                let head = decoder.head;
                let Some(frame) = decoder.next_message().unwrap() else {
                    break;
                };
                decoded.push(frame);
                if decoder.head < head && !decoder.buffered().is_multiple_of(frame_len) {
                    straddled += 1;
                }
            }
        }
        assert_eq!(decoded, frames);
        assert_eq!(decoder.buffered(), 0);
        assert!(
            straddled >= 3,
            "{straddled} compactions held a partial frame"
        );
    }

    #[test]
    fn corrupted_payload_is_detected() {
        let frame = Frame::Message(WireMessage::Ack { id: MessageId(1) });
        let mut corrupted = encode_frame(&frame);
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
        decoder.feed(&(MAX_FRAME_LEN as u32 + 1).to_le_bytes());
        let err = decoder.next_message().unwrap_err();
        assert!(matches!(err, WireError::FrameTooLarge { .. }));
    }

    #[test]
    fn resync_recovers_a_wedged_decoder() {
        let mut decoder = FrameDecoder::new();
        decoder.feed(&(MAX_FRAME_LEN as u32 + 1).to_le_bytes());
        assert!(decoder.next_message().is_err());
        // The poisoned length stays buffered: the decoder keeps failing.
        assert!(decoder.next_message().is_err());
        decoder.resync();
        assert_eq!(decoder.buffered(), 0);
        let frame = Frame::Message(WireMessage::Ack { id: MessageId(3) });
        decoder.feed(&encode_frame(&frame));
        assert_eq!(decoder.next_message().unwrap().unwrap(), frame);
    }

    #[test]
    fn undersized_frame_rejected() {
        let mut decoder = FrameDecoder::new();
        decoder.feed(&[2, 0, 0, 0, 0x01, 0x00]);
        let err = decoder.next_message().unwrap_err();
        assert!(matches!(err, WireError::Truncated { .. }));
    }

    #[test]
    fn large_distribution_share_roundtrips() {
        let frame = Frame::Message(WireMessage::ShareDistribution {
            client: ClientId(3),
            distribution: tommy_clock::shared::SharedDistribution::Samples(
                (0..10_000).map(|i| i as f64 * 0.001).collect(),
            ),
        });
        let mut decoder = FrameDecoder::new();
        decoder.feed(&encode_frame(&frame));
        assert_eq!(decoder.next_message().unwrap().unwrap(), frame);
    }
}

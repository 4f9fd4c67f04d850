//! Property tests for the frame decoder under hostile byte streams.
//!
//! The decoder sits on an untrusted transport: truncated frames, flipped
//! bits and absurd declared lengths must never panic it, corruption must be
//! caught by the CRC (or the payload validators), and a [`FrameDecoder::
//! resync`] must always return it to a working state.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use tommy_clock::shared::SharedDistribution;
use tommy_core::message::{ClientId, MessageId};
use tommy_wire::frame::{encode_frame, FrameDecoder, MAX_FRAME_LEN};
use tommy_wire::{Frame, WireError, WireMessage};

fn sample_frames(rng: &mut StdRng) -> Vec<Frame> {
    let ts = |rng: &mut StdRng| rng.random_range(-1.0e6..1.0e6);
    let messages = [
        WireMessage::Submit {
            id: MessageId(rng.next_u64()),
            client: ClientId(rng.next_u32()),
            timestamp: ts(rng),
        },
        WireMessage::Heartbeat {
            client: ClientId(rng.next_u32()),
            timestamp: ts(rng),
        },
        WireMessage::ShareDistribution {
            client: ClientId(rng.next_u32()),
            distribution: SharedDistribution::Samples(
                (0..rng.random_range(0usize..64)).map(|_| ts(rng)).collect(),
            ),
        },
        WireMessage::BatchEmit {
            rank: rng.next_u64(),
            message_ids: (0..rng.random_range(0usize..32))
                .map(|_| MessageId(rng.next_u64()))
                .collect(),
        },
        WireMessage::Ack {
            id: MessageId(rng.next_u64()),
        },
        WireMessage::Probe {
            seq: rng.next_u64(),
            t0: ts(rng),
        },
    ];
    let streamed = Frame::Stream {
        sender: ClientId(rng.next_u32()),
        stream_id: rng.next_u64(),
        sequence: rng.next_u64(),
        fin: rng.random_bool(0.2),
        inner: Some(WireMessage::Submit {
            id: MessageId(rng.next_u64()),
            client: ClientId(rng.next_u32()),
            timestamp: ts(rng),
        }),
    };
    messages
        .into_iter()
        .map(Frame::Message)
        .chain([streamed])
        .collect()
}

/// Feed arbitrary junk: the decoder must return (Ok or Err), never panic.
#[test]
fn random_bytes_never_panic_the_decoder() {
    let mut rng = StdRng::seed_from_u64(0xF00D);
    for _ in 0..200 {
        let mut decoder = FrameDecoder::new();
        let len = rng.random_range(0usize..512);
        let mut junk = vec![0u8; len];
        rng.fill_bytes(&mut junk);
        decoder.feed(&junk);
        // Pump until the decoder settles (needs-more-bytes or an error).
        for _ in 0..64 {
            match decoder.next_message() {
                Ok(Some(_)) => continue, // junk decoded as a real frame: fine
                Ok(None) => break,
                Err(_) => break,
            }
        }
    }
}

/// Truncate a valid frame at every possible boundary: never a panic, never
/// a bogus message — just "need more bytes" (and a clean completion once
/// the rest arrives).
#[test]
fn truncated_frames_wait_for_the_remainder() {
    let mut rng = StdRng::seed_from_u64(1);
    for sent in sample_frames(&mut rng) {
        let frame = encode_frame(&sent);
        for cut in 0..frame.len() {
            let mut decoder = FrameDecoder::new();
            decoder.feed(&frame[..cut]);
            match decoder.next_message() {
                Ok(None) => {}
                Ok(Some(got)) => panic!("decoded {got:?} from a truncated frame"),
                Err(e) => panic!("truncation at {cut} errored: {e}"),
            }
            // The remainder completes the frame exactly.
            decoder.feed(&frame[cut..]);
            assert_eq!(decoder.next_message().unwrap().as_ref(), Some(&sent));
            assert_eq!(decoder.buffered(), 0);
        }
    }
}

/// Flip one bit anywhere in a frame: decoding must either fail cleanly or
/// (only when the flip hits the length prefix in just the right way) leave
/// the decoder waiting for more bytes. A flipped payload/crc bit must never
/// yield a wrong message with a matching checksum.
#[test]
fn single_bit_flips_never_yield_a_corrupted_message() {
    let mut rng = StdRng::seed_from_u64(2);
    for sent in sample_frames(&mut rng) {
        let frame = encode_frame(&sent);
        for byte in 0..frame.len() {
            for bit in 0..8u8 {
                let mut corrupted = frame.clone();
                corrupted[byte] ^= 1 << bit;
                let mut decoder = FrameDecoder::new();
                decoder.feed(&corrupted);
                match decoder.next_message() {
                    // A flip in the length prefix can make the decoder wait
                    // for a longer (never-arriving) frame…
                    Ok(None) => assert!(byte < 4, "flip at byte {byte} stalled the decoder"),
                    // …or any flip is caught as a decode error…
                    Err(_) => {}
                    // …but a "successful" decode must be byte-flip-invisible
                    // only if the flip landed in a part of the length prefix
                    // that still frames the same bytes — impossible here, so
                    // any Ok(Some) must equal the original frame.
                    Ok(Some(got)) => {
                        assert_eq!(got, sent, "bit flip at {byte}:{bit} silently accepted")
                    }
                }
            }
        }
    }
}

/// Oversized declared lengths are rejected, and resync recovers the stream.
#[test]
fn oversized_frames_reject_and_resync_recovers() {
    let mut rng = StdRng::seed_from_u64(3);
    for _ in 0..50 {
        let mut decoder = FrameDecoder::new();
        let declared = MAX_FRAME_LEN + 1 + rng.random_range(0usize..1_000_000);
        decoder.feed(&(declared as u32).to_le_bytes());
        decoder.feed(&[0xFF]);
        assert!(matches!(
            decoder.next_message(),
            Err(WireError::FrameTooLarge { .. })
        ));
        // Wedged: the poisoned length is still buffered.
        assert!(decoder.next_message().is_err());
        // After a resync, the decoder round-trips normally again.
        decoder.resync();
        for frame in sample_frames(&mut rng) {
            decoder.feed(&encode_frame(&frame));
            assert_eq!(decoder.next_message().unwrap(), Some(frame));
        }
        assert_eq!(decoder.buffered(), 0);
    }
}

/// A corrupted frame in the middle of a stream, once resynced at a frame
/// boundary, does not affect frames after it.
#[test]
fn stream_recovers_after_mid_stream_corruption() {
    let mut rng = StdRng::seed_from_u64(4);
    let frames = sample_frames(&mut rng);
    let mut decoder = FrameDecoder::new();

    // First message arrives intact.
    decoder.feed(&encode_frame(&frames[0]));
    assert_eq!(decoder.next_message().unwrap(), Some(frames[0].clone()));

    // Second arrives with a corrupted payload byte: checksum rejects it but
    // the decoder stays frame-aligned (the corrupt frame is consumed).
    let mut corrupted = encode_frame(&frames[1]);
    let last_payload = corrupted.len() - 5;
    corrupted[last_payload] ^= 0x10;
    decoder.feed(&corrupted);
    assert!(matches!(
        decoder.next_message(),
        Err(WireError::ChecksumMismatch { .. }) | Err(WireError::InvalidField { .. })
    ));

    // Third decodes cleanly without an explicit resync.
    decoder.feed(&encode_frame(&frames[2]));
    assert_eq!(decoder.next_message().unwrap(), Some(frames[2].clone()));
}

/// The wire format, pinned byte for byte: one `Submit`, one `Heartbeat`, one
/// stream-wrapped `Submit` and one bare fin. A frame is the body length (u32
/// LE), then the body: the kind byte, the payload (integers and `f64`s
/// little-endian) and the CRC-32 of kind + payload (u32 LE). Every byte below was computed
/// outside this crate, with Python's `struct.pack` and `zlib.crc32` (e.g.
/// `zlib.crc32(bytes([0x01]) + struct.pack('<QId', 0x0102030405060708,
/// 0x0A0B0C0D, 1234.5)) == 0xA29B022C`), so encoder and decoder, which
/// share `crc32`, cannot drift together unseen.
#[test]
fn golden_frames_pin_the_wire_format() {
    #[rustfmt::skip]
    let golden: [(Frame, &[u8]); 4] = [
        (
            Frame::Message(WireMessage::Submit {
                id: MessageId(0x0102_0304_0506_0708),
                client: ClientId(0x0A0B_0C0D),
                timestamp: 1234.5,
            }),
            &[
                0x19, 0x00, 0x00, 0x00,                         // body length 25
                0x01,                                           // kind: Submit
                0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01, // id
                0x0d, 0x0c, 0x0b, 0x0a,                         // client
                0x00, 0x00, 0x00, 0x00, 0x00, 0x4a, 0x93, 0x40, // timestamp 1234.5
                0x2c, 0x02, 0x9b, 0xa2,                         // CRC 0xA29B022C
            ],
        ),
        (
            Frame::Message(WireMessage::Heartbeat {
                client: ClientId(7),
                timestamp: -0.25,
            }),
            &[
                0x11, 0x00, 0x00, 0x00,                         // body length 17
                0x02,                                           // kind: Heartbeat
                0x07, 0x00, 0x00, 0x00,                         // client
                0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xd0, 0xbf, // timestamp -0.25
                0x44, 0x71, 0x56, 0xc1,                         // CRC 0xC1567144
            ],
        ),
        (
            Frame::Stream {
                sender: ClientId(3),
                stream_id: 1,
                sequence: 42,
                fin: true,
                inner: Some(WireMessage::Submit {
                    id: MessageId(9),
                    client: ClientId(3),
                    timestamp: 100.125,
                }),
            },
            &[
                0x2f, 0x00, 0x00, 0x00,                         // body length 47
                0x0a,                                           // kind: Stream
                0x03, 0x00, 0x00, 0x00,                         // sender
                0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // stream id
                0x2a, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // sequence 42
                0x03,                                           // flags: fin | inner
                0x01,                                           // inner kind: Submit
                0x09, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // inner id
                0x03, 0x00, 0x00, 0x00,                         // inner client
                0x00, 0x00, 0x00, 0x00, 0x00, 0x08, 0x59, 0x40, // timestamp 100.125
                0xb7, 0xca, 0x48, 0x0d,                         // CRC 0x0D48CAB7
            ],
        ),
        (
            Frame::Stream {
                sender: ClientId(3),
                stream_id: 1,
                sequence: 43,
                fin: true,
                inner: None,
            },
            &[
                0x1a, 0x00, 0x00, 0x00,                         // body length 26
                0x0a,                                           // kind: Stream
                0x03, 0x00, 0x00, 0x00,                         // sender
                0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // stream id
                0x2b, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // sequence 43
                0x01,                                           // flags: fin
                0x28, 0x3b, 0x21, 0xb4,                         // CRC 0xB4213B28
            ],
        ),
    ];
    for (frame, bytes) in golden {
        assert_eq!(&encode_frame(&frame)[..], bytes, "{frame:?}");
        let mut decoder = FrameDecoder::new();
        decoder.feed(bytes);
        assert_eq!(decoder.next_message().unwrap(), Some(frame));
        assert_eq!(decoder.buffered(), 0);
    }
}

//! Wire-protocol codec bench: encode/decode throughput of the frames a busy
//! sequencer handles (submits, heartbeats, batch emissions, distribution
//! shares), and the session layer's in-order path: a run of stream-wrapped
//! heartbeats decoded, received and polled.

use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;
use tommy_clock::shared::SharedDistribution;
use tommy_core::message::{ClientId, MessageId};
use tommy_wire::frame::{encode_frame, FrameDecoder};
use tommy_wire::messages::{Frame, WireMessage};
use tommy_wire::{RecoveryPolicy, SequencedSender, StreamReceiver};

/// Heartbeats per `stream_receive_in_order` iteration.
const STREAM_RUN: usize = 256;

fn wire_bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire_codec");
    group
        .sample_size(30)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(500));

    let submit = Frame::Message(WireMessage::Submit {
        id: MessageId(123),
        client: ClientId(7),
        timestamp: 1234.567,
    });
    let batch = Frame::Message(WireMessage::BatchEmit {
        rank: 42,
        message_ids: (0..64).map(MessageId).collect(),
    });
    let share = Frame::Message(WireMessage::ShareDistribution {
        client: ClientId(7),
        distribution: SharedDistribution::Histogram {
            lo: -50.0,
            hi: 50.0,
            counts: vec![3; 64],
        },
    });

    group.bench_function("encode_submit", |b| b.iter(|| encode_frame(&submit)));
    group.bench_function("encode_batch_64", |b| b.iter(|| encode_frame(&batch)));
    group.bench_function("encode_share_histogram", |b| b.iter(|| encode_frame(&share)));

    let stream: Vec<u8> = [&submit, &batch, &share]
        .iter()
        .flat_map(|frame| encode_frame(frame))
        .collect();
    group.bench_function("decode_three_frames", |b| {
        b.iter(|| {
            let mut decoder = FrameDecoder::new();
            decoder.feed(&stream);
            decoder.drain().unwrap()
        })
    });

    let client = ClientId(7);
    let mut sender = SequencedSender::new(client, 0);
    let run: Vec<u8> = (0..STREAM_RUN)
        .flat_map(|i| {
            encode_frame(&sender.wrap(WireMessage::Heartbeat {
                client,
                timestamp: i as f64,
            }))
        })
        .collect();
    group.bench_function("stream_receive_in_order", |b| {
        b.iter(|| {
            let mut decoder = FrameDecoder::new();
            let mut receiver = StreamReceiver::new(RecoveryPolicy::RequestRetransmit {
                max_retries: 4,
                base_backoff: 2.0,
            });
            decoder.feed(&run);
            let mut released = 0;
            let mut now = 0.0;
            while let Some(frame) = decoder.next_message().unwrap() {
                released += receiver.receive(frame, now).len();
                released += receiver.poll(now).released.len();
                now += 1.0;
            }
            assert_eq!(released, STREAM_RUN);
        })
    });
    group.finish();
}

criterion_group!(benches, wire_bench);
criterion_main!(benches);

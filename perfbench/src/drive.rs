//! The closed-loop drivers: one caller replays a workload's events as fast
//! as the sequencer accepts them, on a simulated clock.
//!
//! Every pass has the same shape. Set-up (untimed): fresh sequencer, client
//! registration, a clone of the inputs the drive consumes. Drive (timed):
//! first event through the closing heartbeats, `tick(horizon)`, `flush()` and
//! the final drain. Afterwards (untimed): counters are read from public
//! accessors and the released batches are handed to the scorer.
//!
//! Only the stable top-level surface of the system is called, so an
//! internal refactor cannot break the benchmark.

use crate::score::Released;
use crate::trace::{Layer, Tracer, NONE};
use crate::workload::{Engine, Event, Spec, Stream, Timed, NET_DELAY, P_SAFE, THRESHOLD};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;
use tommy_core::batching::FairOrderCounters;
use tommy_core::config::{LivenessConfig, SequencerConfig};
use tommy_core::defense::{DefenseConfig, ExpectedDelay};
use tommy_core::graph::fas;
use tommy_core::message::{ClientId, Message};
use tommy_core::sequencer::{EmittedBatch, OnlineSequencer, OnlineStats, ShardedSequencer};
use tommy_core::session::{RecoveryPolicy, SessionCounters};
use tommy_core::{CoreError, TommySequencer};
use tommy_netsim::{FaultAction, FaultFamily, FaultInjector, FaultPlan};
use tommy_wire::frame::encode_frame;
use tommy_wire::{FrameDecoder, SequencedSender, StreamReceiver, WireMessage};

/// `sharded_k2` calls `drive(now)` after this many enqueued events: under
/// `ShardedSequencer`'s spawn threshold (32 queued), so both shards run on
/// the caller's thread. With 256 it spawned two workers per drive, and
/// throughput swung between 217k and 507k msgs/s with whether this shared
/// host's second vCPU was free (README.md).
pub const DRIVE_EVERY: usize = 16;
/// `full_path` liveness: a client silent this long while blocking the
/// watermark is suspended.
pub const STALENESS_DEADLINE: f64 = 200.0;
/// `full_path` recovery: up to 4 retransmit requests per hole, first
/// re-request after 2.0.
pub const RETRANSMIT: RecoveryPolicy = RecoveryPolicy::RequestRetransmit {
    max_retries: 4,
    base_backoff: 2.0,
};
/// `full_path` defense: the first residual check waits for a full window.
/// The default (16) gives each client seven small-sample KS checks at
/// alpha = 0.01, about one sticky false quarantine per 16-client run; which
/// seeds get one would decide the regime the run measures (README.md).
pub const DEFENSE_MIN_SAMPLES: usize = 64;
/// `offline_batch` collects this many messages, sequences them in one call
/// and starts the next window.
pub const OFFLINE_WINDOW: usize = 3_000;
const LOSS: f64 = 0.05;
const REORDER: f64 = 0.3;

/// One frame reaching the sequencer's socket.
#[derive(Debug, Clone)]
pub struct Delivery {
    pub at: f64,
    /// Index of the stream event the frame carries, or [`NONE`].
    pub request: u32,
    pub bytes: Vec<u8>,
}

/// The sender side of `full_path`, built once per run: every first
/// transmission wrapped, encoded and passed through the fault injector.
#[derive(Debug)]
pub struct WirePrep {
    /// Per-client sender history, indexed by client id, for retransmits.
    pub senders: Vec<SequencedSender>,
    /// Surviving first transmissions (and the fault-free closing frames),
    /// ascending by delivery time.
    pub schedule: Vec<Delivery>,
    pub frames_sent: u64,
    pub frames_dropped: u64,
    pub frames_duplicated: u64,
    pub frames_delayed: u64,
    pub bytes_sent: u64,
    pub wrap_ns: u64,
    pub encode_ns: u64,
}

/// A workload ready to be driven any number of times.
#[derive(Debug)]
pub struct Prepared {
    pub spec: Spec,
    pub stream: Stream,
    pub wire: Option<WirePrep>,
}

/// Generate `messages` messages of `spec` from `seed` and build whatever
/// sender-side state the engine needs.
pub fn prepare(spec: &Spec, messages: usize, seed: u64) -> Prepared {
    let stream = crate::workload::generate(spec, messages, seed);
    let wire = (spec.engine == Engine::FullPath).then(|| prepare_wire(&stream, seed));
    Prepared {
        spec: *spec,
        stream,
        wire,
    }
}

fn prepare_wire(stream: &Stream, seed: u64) -> WirePrep {
    let plans = [
        FaultPlan::new(FaultFamily::Loss, LOSS).with_seed(seed ^ 0x1055),
        FaultPlan::new(FaultFamily::Reorder, REORDER).with_seed(seed ^ 0x4e04de4),
    ];
    let injector = FaultInjector::new(&plans, 0.0, stream.close_at);
    let mut prep = WirePrep {
        senders: stream
            .clients
            .iter()
            .map(|(client, _)| SequencedSender::new(*client, 0))
            .collect(),
        schedule: Vec::with_capacity(stream.events.len() + 2 * stream.clients.len()),
        frames_sent: 0,
        frames_dropped: 0,
        frames_duplicated: 0,
        frames_delayed: 0,
        bytes_sent: 0,
        wrap_ns: 0,
        encode_ns: 0,
    };
    for (index, timed) in stream.events.iter().enumerate() {
        let (client, inner) = match &timed.event {
            Event::Submit(m) => (m.client, WireMessage::from_message(m)),
            Event::Heartbeat(client, timestamp) => (
                *client,
                WireMessage::Heartbeat {
                    client: *client,
                    timestamp: *timestamp,
                },
            ),
        };
        let sender = &mut prep.senders[client.0 as usize];
        let sequence = sender.next_sequence();
        let started = Instant::now();
        let frame = sender.wrap(inner);
        let wrapped = Instant::now();
        let bytes = encode_frame(&frame).to_vec();
        prep.wrap_ns += (wrapped - started).as_nanos() as u64;
        prep.encode_ns += wrapped.elapsed().as_nanos() as u64;
        prep.frames_sent += 1;
        prep.bytes_sent += bytes.len() as u64;
        let mut deliver = |extra: f64, bytes: Vec<u8>| {
            prep.schedule.push(Delivery {
                at: timed.at + NET_DELAY + extra,
                request: index as u32,
                bytes,
            });
        };
        match injector.action(client.0, sequence, timed.at) {
            FaultAction::Drop => prep.frames_dropped += 1,
            FaultAction::Deliver { extra_delay } => {
                prep.frames_delayed += u64::from(extra_delay > 0.0);
                deliver(extra_delay, bytes);
            }
            FaultAction::Duplicate {
                extra_delay,
                duplicate_delay,
            } => {
                prep.frames_duplicated += 1;
                deliver(extra_delay, bytes.clone());
                deliver(duplicate_delay, bytes);
            }
        }
    }
    // The close travels fault-free, so every tail loss is detected as a gap
    // and recovered: a far-horizon heartbeat, then the fin.
    for (client, _) in &stream.clients {
        let sender = &mut prep.senders[client.0 as usize];
        let heartbeat = sender.wrap(WireMessage::Heartbeat {
            client: *client,
            timestamp: stream.far_timestamp,
        });
        for frame in [heartbeat, sender.fin()] {
            prep.schedule.push(Delivery {
                at: stream.close_at + NET_DELAY,
                request: NONE,
                bytes: encode_frame(&frame).to_vec(),
            });
        }
    }
    prep.schedule.sort_by(|a, b| a.at.total_cmp(&b.at));
    prep
}

/// Everything read from public accessors after a pass's timer has stopped.
/// Deterministic: equal across passes of the same stream.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counters {
    pub stats: OnlineStats,
    pub probability_queries: u64,
    pub fair: FairOrderCounters,
    pub tournament_full_rebuilds: u64,
    pub tournament_local_repairs: u64,
    pub fas_exhaustive_passes: u64,
    pub session: SessionCounters,
    pub frames_received: u64,
    pub frames_released: u64,
    pub poll_calls: u64,
    pub retransmits_answered: u64,
    pub drive_calls: u64,
    pub offline_batches: u64,
}

/// One pass over a prepared workload.
#[derive(Debug)]
pub struct PassResult {
    pub setup_ns: u64,
    pub drive_ns: u64,
    pub released: Vec<Released>,
    /// Driver calls that returned `Err`, plus undecodable frames.
    pub errors: u64,
    pub counters: Counters,
}

fn base_config() -> SequencerConfig {
    SequencerConfig::default()
        .with_threshold(THRESHOLD)
        .with_p_safe(P_SAFE)
        .with_retain_history(false)
}

/// Released batches tagged with the simulated time of the call that
/// returned them; converted for scoring after the timer stops.
struct Sink(Vec<(f64, EmittedBatch)>);

impl Sink {
    fn absorb(&mut self, at: f64, batches: Vec<EmittedBatch>) {
        self.0.extend(batches.into_iter().map(|b| (at, b)));
    }

    fn into_released(self) -> Vec<Released> {
        self.0
            .into_iter()
            .map(|(at, batch)| Released {
                rank: batch.rank,
                at,
                ids: batch.messages.iter().map(|m| m.id.0).collect(),
            })
            .collect()
    }
}

/// Run one pass: set-up, timed drive, counter read-out.
pub fn run_pass<T: Tracer>(prep: &Prepared, tracer: &mut T) -> PassResult {
    match prep.spec.engine {
        Engine::Online => reference_pass(prep, tracer),
        Engine::FullPath => full_path_pass(prep, tracer),
        Engine::Sharded => sharded_pass(prep, tracer),
        Engine::Offline => offline_pass(prep, tracer),
    }
}

/// An `OnlineSequencer` plus the bookkeeping every call into it shares.
struct OnlineSide {
    seq: OnlineSequencer,
    sink: Sink,
    errors: u64,
}

impl OnlineSide {
    fn new(config: SequencerConfig, stream: &Stream) -> Self {
        let mut seq = OnlineSequencer::new(config);
        for (client, distribution) in &stream.clients {
            seq.register_client(*client, distribution.clone());
        }
        OnlineSide {
            seq,
            sink: Sink(Vec::with_capacity(stream.messages() / 2 + 16)),
            errors: 0,
        }
    }

    /// Account one call's result and drain what it emitted.
    fn settle<T: Tracer>(
        &mut self,
        result: Result<Vec<EmittedBatch>, CoreError>,
        span: u32,
        now: f64,
        tr: &mut T,
    ) {
        let emitted = matches!(&result, Ok(batches) if !batches.is_empty());
        tr.end(span, emitted);
        self.errors += u64::from(result.is_err());
        if emitted {
            self.drain(now, tr);
        }
    }

    fn drain<T: Tracer>(&mut self, now: f64, tr: &mut T) {
        let span = tr.begin(Layer::OnlineTakeEmitted, NONE);
        let batches = self.seq.take_emitted();
        tr.end(span, false);
        self.sink.absorb(now, batches);
    }

    fn submit<T: Tracer>(&mut self, message: Message, now: f64, request: u32, tr: &mut T) {
        let span = tr.begin(Layer::OnlineSubmit, request);
        let result = self.seq.submit(message, now);
        self.settle(result, span, now, tr);
    }

    fn heartbeat<T: Tracer>(
        &mut self,
        client: ClientId,
        ts: f64,
        now: f64,
        request: u32,
        tr: &mut T,
    ) {
        let span = tr.begin(Layer::OnlineHeartbeat, request);
        let result = self.seq.heartbeat(client, ts, now);
        self.settle(result, span, now, tr);
    }

    /// `tick(horizon)`, `flush()`, final drain.
    fn finish<T: Tracer>(&mut self, horizon: f64, tr: &mut T) {
        let span = tr.begin(Layer::OnlineTick, NONE);
        let ticked = self.seq.tick(horizon);
        tr.end(span, !ticked.is_empty());
        let span = tr.begin(Layer::OnlineFlush, NONE);
        let flushed = self.seq.flush();
        tr.end(span, !flushed.is_empty());
        self.drain(horizon, tr);
    }

    fn counters(&self) -> Counters {
        Counters {
            stats: self.seq.stats(),
            probability_queries: self.seq.registry().query_count(),
            fair: self.seq.fair_order_counters(),
            tournament_full_rebuilds: self.seq.tournament().full_rebuilds(),
            tournament_local_repairs: self.seq.tournament().local_repairs(),
            ..Counters::default()
        }
    }
}

/// The stream through a bare single `OnlineSequencer`: the `Online`
/// workloads, and the reference `full_path` and `sharded_k2` compare
/// themselves against.
pub fn reference_pass<T: Tracer>(prep: &Prepared, tr: &mut T) -> PassResult {
    let stream = &prep.stream;
    let setup = Instant::now();
    let mut side = OnlineSide::new(base_config(), stream);
    let events = stream.events.clone();
    let setup_ns = setup.elapsed().as_nanos() as u64;

    let fas_before = fas::exhaustive_passes();
    let timer = Instant::now();
    let pass = tr.begin(Layer::Pass, NONE);
    for (index, Timed { at, event }) in events.into_iter().enumerate() {
        let now = at + NET_DELAY;
        match event {
            Event::Submit(message) => side.submit(message, now, index as u32, tr),
            Event::Heartbeat(client, ts) => side.heartbeat(client, ts, now, index as u32, tr),
        }
    }
    let close = stream.close_at + NET_DELAY;
    for (client, _) in &stream.clients {
        side.heartbeat(*client, stream.far_timestamp, close, NONE, tr);
    }
    side.finish(stream.horizon, tr);
    tr.end(pass, false);
    let drive_ns = timer.elapsed().as_nanos() as u64;

    let mut counters = side.counters();
    counters.fas_exhaustive_passes = fas::exhaustive_passes() - fas_before;
    PassResult {
        setup_ns,
        drive_ns,
        released: side.sink.into_released(),
        errors: side.errors,
        counters,
    }
}

/// A retransmitted frame on its way back to the sequencer.
struct Resent {
    at: f64,
    order: u64,
    bytes: Vec<u8>,
}

impl PartialEq for Resent {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}
impl Eq for Resent {}
impl PartialOrd for Resent {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Resent {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.at
            .total_cmp(&other.at)
            .then(self.order.cmp(&other.order))
    }
}

fn full_path_pass<T: Tracer>(prep: &Prepared, tr: &mut T) -> PassResult {
    let stream = &prep.stream;
    let wire = prep
        .wire
        .as_ref()
        .expect("full_path is prepared with a wire");
    let setup = Instant::now();
    let config = base_config()
        .with_liveness(LivenessConfig::enabled(STALENESS_DEADLINE))
        .with_defense(
            DefenseConfig::enabled()
                .with_min_samples(DEFENSE_MIN_SAMPLES)
                .with_expected_delay(ExpectedDelay::Online),
        );
    let mut side = OnlineSide::new(config, stream);
    let mut decoder = FrameDecoder::new();
    let mut receiver = StreamReceiver::new(RETRANSMIT);
    let mut first = wire.schedule.clone().into_iter().peekable();
    let mut resent: BinaryHeap<Reverse<Resent>> = BinaryHeap::new();
    let setup_ns = setup.elapsed().as_nanos() as u64;

    let mut wire_side = Counters::default();
    let mut clock = f64::NEG_INFINITY;
    let timer = Instant::now();
    let pass = tr.begin(Layer::Pass, NONE);
    loop {
        // Earliest delivery next; a first transmission wins a tie.
        let resend_due = match (first.peek(), resent.peek()) {
            (None, None) => break,
            (Some(f), Some(Reverse(r))) => r.at < f.at,
            (first, _) => first.is_none(),
        };
        let (at, request, bytes) = if resend_due {
            let Reverse(r) = resent.pop().expect("peeked");
            (r.at, NONE, r.bytes)
        } else {
            let d = first.next().expect("peeked");
            (d.at, d.request, d.bytes)
        };
        clock = clock.max(at);
        let now = clock;

        let span = tr.begin(Layer::FrameDecode, request);
        decoder.feed(&bytes);
        let decoded = decoder.next_message();
        tr.end(span, false);
        wire_side.frames_received += 1;
        let Ok(Some(frame)) = decoded else {
            side.errors += 1;
            continue;
        };

        let span = tr.begin(Layer::StreamReceive, request);
        let released = receiver.receive(frame, now);
        tr.end(span, false);
        let span = tr.begin(Layer::StreamPoll, request);
        let poll = receiver.poll(now);
        tr.end(span, false);
        wire_side.poll_calls += 1;

        for inner in released.into_iter().chain(poll.released) {
            wire_side.frames_released += 1;
            match inner {
                WireMessage::Submit {
                    id,
                    client,
                    timestamp,
                } => side.submit(Message::new(id, client, timestamp), now, request, tr),
                WireMessage::Heartbeat { client, timestamp } => {
                    side.heartbeat(client, timestamp, now, request, tr)
                }
                _ => side.errors += 1,
            }
        }
        // Retransmit requests are answered from the sender's history one
        // round trip later, over a reliable side channel.
        for ask in poll.retransmits {
            let Some(frame) = wire.senders[ask.sender.0 as usize].frame(ask.sequence) else {
                side.errors += 1;
                continue;
            };
            let span = tr.begin(Layer::FrameEncode, NONE);
            let bytes = encode_frame(frame).to_vec();
            tr.end(span, false);
            resent.push(Reverse(Resent {
                at: now + 2.0 * NET_DELAY,
                order: wire_side.retransmits_answered,
                bytes,
            }));
            wire_side.retransmits_answered += 1;
        }
    }
    side.finish(stream.horizon.max(clock), tr);
    tr.end(pass, false);
    let drive_ns = timer.elapsed().as_nanos() as u64;

    let counters = Counters {
        session: receiver.counters(),
        frames_received: wire_side.frames_received,
        frames_released: wire_side.frames_released,
        poll_calls: wire_side.poll_calls,
        retransmits_answered: wire_side.retransmits_answered,
        ..side.counters()
    };
    PassResult {
        setup_ns,
        drive_ns,
        released: side.sink.into_released(),
        errors: side.errors,
        counters,
    }
}

fn sharded_pass<T: Tracer>(prep: &Prepared, tr: &mut T) -> PassResult {
    let stream = &prep.stream;
    let setup = Instant::now();
    let mut seq = ShardedSequencer::new(base_config().with_shards(2));
    for (client, distribution) in &stream.clients {
        seq.register_client(*client, distribution.clone());
    }
    let mut sink = Sink(Vec::with_capacity(stream.messages() / 2 + 16));
    let events = stream.events.clone();
    let setup_ns = setup.elapsed().as_nanos() as u64;

    let mut errors = 0u64;
    let mut drive_calls = 0u64;
    let mut drive = |seq: &mut ShardedSequencer, sink: &mut Sink, now: f64, tr: &mut T| {
        let span = tr.begin(Layer::ShardedDrive, NONE);
        let released = seq.drive(now);
        tr.end(span, !released.is_empty());
        drive_calls += 1;
        if !released.is_empty() {
            let span = tr.begin(Layer::ShardedTakeEmitted, NONE);
            let batches = seq.take_emitted();
            tr.end(span, false);
            sink.absorb(now, batches);
        }
    };
    let timer = Instant::now();
    let pass = tr.begin(Layer::Pass, NONE);
    for (index, Timed { at, event }) in events.into_iter().enumerate() {
        let now = at + NET_DELAY;
        let result = match event {
            Event::Submit(message) => {
                let span = tr.begin(Layer::ShardedSubmit, index as u32);
                let result = seq.submit(message, now);
                tr.end(span, false);
                result
            }
            Event::Heartbeat(client, ts) => {
                let span = tr.begin(Layer::ShardedHeartbeat, index as u32);
                let result = seq.heartbeat(client, ts, now);
                tr.end(span, false);
                result
            }
        };
        errors += u64::from(result.is_err());
        if (index + 1) % DRIVE_EVERY == 0 {
            drive(&mut seq, &mut sink, now, tr);
        }
    }
    let close = stream.close_at + NET_DELAY;
    for (client, _) in &stream.clients {
        let span = tr.begin(Layer::ShardedHeartbeat, NONE);
        let result = seq.heartbeat(*client, stream.far_timestamp, close);
        tr.end(span, false);
        errors += u64::from(result.is_err());
    }
    drive(&mut seq, &mut sink, close, tr);
    // `tick` is a clock advance plus a drive.
    let span = tr.begin(Layer::ShardedDrive, NONE);
    let ticked = seq.tick(stream.horizon);
    tr.end(span, !ticked.is_empty());
    drive_calls += 1;
    let span = tr.begin(Layer::ShardedFlush, NONE);
    let flushed = seq.flush();
    tr.end(span, !flushed.is_empty());
    let span = tr.begin(Layer::ShardedTakeEmitted, NONE);
    let batches = seq.take_emitted();
    tr.end(span, false);
    sink.absorb(stream.horizon, batches);
    tr.end(pass, false);
    let drive_ns = timer.elapsed().as_nanos() as u64;

    errors += seq.take_rejections().len() as u64;
    PassResult {
        setup_ns,
        drive_ns,
        released: sink.into_released(),
        errors,
        counters: Counters {
            stats: seq.stats(),
            drive_calls,
            ..Counters::default()
        },
    }
}

fn offline_pass<T: Tracer>(prep: &Prepared, tr: &mut T) -> PassResult {
    let stream = &prep.stream;
    let setup = Instant::now();
    let mut seq = TommySequencer::new(base_config());
    for (client, distribution) in &stream.clients {
        seq.register_client(*client, distribution.clone());
    }
    let messages: Vec<Message> = stream
        .events
        .iter()
        .filter_map(|timed| match &timed.event {
            Event::Submit(m) => Some(m.clone()),
            Event::Heartbeat(..) => None,
        })
        .collect();
    let setup_ns = setup.elapsed().as_nanos() as u64;

    let fas_before = fas::exhaustive_passes();
    let timer = Instant::now();
    let pass = tr.begin(Layer::Pass, NONE);
    let orders: Vec<_> = messages
        .chunks(OFFLINE_WINDOW)
        .enumerate()
        .map(|(window, chunk)| {
            let span = tr.begin(Layer::OfflineSequence, window as u32);
            let result = seq.sequence(chunk);
            tr.end(span, result.is_ok());
            result
        })
        .collect();
    tr.end(pass, false);
    let drive_ns = timer.elapsed().as_nanos() as u64;

    // Offline mode holds a window's messages until its last one has
    // arrived, then releases the window's batches after the previous ones.
    let mut errors = 0;
    let mut released: Vec<Released> = Vec::new();
    for (chunk, result) in messages.chunks(OFFLINE_WINDOW).zip(orders) {
        let Ok(order) = result else {
            errors += 1;
            continue;
        };
        let window_closed = chunk
            .last()
            .and_then(|m| m.true_time)
            .expect("ground truth");
        let first_rank = released.len();
        released.extend(order.batches().iter().map(|batch| Released {
            rank: first_rank + batch.rank,
            at: window_closed + NET_DELAY,
            ids: batch.messages.iter().map(|id| id.0).collect(),
        }));
    }
    PassResult {
        setup_ns,
        drive_ns,
        errors,
        counters: Counters {
            probability_queries: seq.registry().query_count(),
            fas_exhaustive_passes: fas::exhaustive_passes() - fas_before,
            offline_batches: released.len() as u64,
            ..Counters::default()
        },
        released,
    }
}

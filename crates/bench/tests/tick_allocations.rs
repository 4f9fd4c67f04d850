//! Hot paths whose heap traffic is part of their contract, pinned by count.
//!
//! A counting `#[global_allocator]` (which is why these tests have a binary
//! to themselves) turns "does not allocate" into an assertion: an allocation
//! would show up as noise long before it showed up as a mean shift.
//!
//! * `OnlineSequencer::tick` against a settled pending set compares the
//!   cached candidate's `safe_after` and the watermark frontier with the
//!   clock and returns an empty batch vector: zero allocations.
//! * The receive pipeline costs what a frame carries: an in-order wrapped
//!   heartbeat through `feed` + `next_message` + `receive` allocates
//!   nothing, and neither does a `poll` with nothing due. A frame that heals
//!   a one-frame gap costs a pinned count per recovery cycle. Encoding a
//!   frame allocates the one buffer `encode_frame` returns.
//! * Each engine pays for what changed: a `submit` into a warm pending set
//!   that emits nothing, and the `heartbeat` that releases one batch from
//!   it, each allocate a pinned count, on the dense engine (`ForceDense`,
//!   one Laplace client) and on the sparse one (all-Gaussian, `Auto`). With
//!   the defense on, the sparse submit still allocates nothing, on the
//!   submits where a KS check or a collusion check comes due as well.
//! * An offline window pays for its output: a 3,000-message closed-form
//!   window through `TommySequencer::sequence` allocates a pinned count, and
//!   a mixed-census window on the dense engine another.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use tommy_bench::prefilled_sequencer;
use tommy_core::batching::FairOrder;
use tommy_core::config::{FastPathMode, SequencerConfig};
use tommy_core::defense::DefenseConfig;
use tommy_core::message::{ClientId, Message, MessageId};
use tommy_core::sequencer::offline::TommySequencer;
use tommy_core::sequencer::online::OnlineSequencer;
use tommy_stats::distribution::{Distribution, OffsetDistribution};
use tommy_wire::frame::encode_frame;
use tommy_wire::{
    FrameDecoder, RecoveryPolicy, Released, SequencedSender, StreamReceiver, WireMessage,
};

struct CountingAllocator;

thread_local! {
    /// Allocation calls made by this thread. Per-thread, so the test
    /// harness's own threads cannot leak into the count; const-initialized
    /// with no destructor, so reading it never allocates.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: defers entirely to `System`; the counter is a plain thread-local.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

#[test]
fn cached_tick_is_allocation_free() {
    // The silent client blocks the watermark frontier: nothing emits.
    let mut sequencer = prefilled_sequencer(200);
    let now = 201.0;
    // Settle the candidate cache (this may allocate).
    sequencer.tick(now);
    assert_eq!(sequencer.pending_len(), 200);
    let before = ALLOCATIONS.with(Cell::get);
    for _ in 0..100 {
        std::hint::black_box(sequencer.tick(now).len());
    }
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    assert_eq!(
        allocations, 0,
        "a cached tick must not touch the heap (got {allocations} allocations over 100 ticks)"
    );
}

/// `count` stream-wrapped heartbeats from client 3, encoded.
fn heartbeat_frames(count: usize) -> (SequencedSender, Vec<Vec<u8>>) {
    let client = ClientId(3);
    let mut sender = SequencedSender::new(client, 0);
    let frames = (0..count)
        .map(|i| {
            encode_frame(&sender.wrap(WireMessage::Heartbeat {
                client,
                timestamp: i as f64,
            }))
        })
        .collect();
    (sender, frames)
}

/// Allocations `body` makes on this thread.
fn allocations_of(body: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    body();
    ALLOCATIONS.with(Cell::get) - before
}

fn retransmitting_receiver() -> StreamReceiver {
    StreamReceiver::new(RecoveryPolicy::RequestRetransmit {
        max_retries: 4,
        base_backoff: 2.0,
    })
}

/// Decode one whole frame from `bytes` and hand it to `receiver` at `now`.
fn deliver(
    decoder: &mut FrameDecoder,
    receiver: &mut StreamReceiver,
    bytes: &[u8],
    now: f64,
) -> Released {
    decoder.feed(bytes);
    let frame = decoder
        .next_message()
        .expect("valid frame")
        .expect("whole frame");
    receiver.receive(frame, now)
}

#[test]
fn in_order_frame_allocates_nothing() {
    const WARM_UP: usize = 1000;
    const MEASURED: usize = 100;
    let (_, frames) = heartbeat_frames(WARM_UP + MEASURED);
    let mut decoder = FrameDecoder::new();
    let mut receiver = retransmitting_receiver();
    let mut pump = |range: std::ops::Range<usize>| {
        for i in range {
            let now = i as f64;
            let released = deliver(&mut decoder, &mut receiver, &frames[i], now);
            assert_eq!(released.len(), 1);
            let poll = receiver.poll(now);
            assert!(poll.released.is_empty() && poll.retransmits.is_empty());
        }
    };
    // The decoder's buffer and the stream map reach their steady size (this
    // allocates).
    pump(0..WARM_UP);
    let allocations = allocations_of(|| pump(WARM_UP..WARM_UP + MEASURED));
    assert_eq!(
        allocations, 0,
        "an in-order frame is decoded inline and released inline, and an idle poll \
         allocates nothing"
    );
}

/// One lost frame, recovered: the frame after it arrives first and opens a
/// one-frame gap, the `poll` at that time asks for the lost one, and the
/// retransmitted frame heals the gap and releases both. Every cycle
/// allocates twice: the `Vec` of the poll's one retransmit request, and the
/// spill buffer of the healing frame's second released message. The first
/// cycle also allocates the stream window's buffer and the blocked set's
/// node.
#[test]
fn healing_a_one_frame_gap_allocates_the_request_and_the_spill() {
    const WARM_UP: usize = 1000;
    const CYCLES: usize = 100;
    let (_, frames) = heartbeat_frames(WARM_UP + 2 * CYCLES);
    let mut decoder = FrameDecoder::new();
    let mut receiver = retransmitting_receiver();
    // The decoder's buffer reaches its steady capacity (this allocates).
    for (i, bytes) in frames[..WARM_UP].iter().enumerate() {
        let released = deliver(&mut decoder, &mut receiver, bytes, i as f64);
        assert_eq!(released.len(), 1);
    }
    // Frame `lost` is retransmitted after frame `lost + 1` arrives.
    let mut cycle = |k: usize| {
        let lost = WARM_UP + 2 * k;
        let now = (lost + 1) as f64;
        let mut counts = [0; 3];
        counts[0] = allocations_of(|| {
            let early = deliver(&mut decoder, &mut receiver, &frames[lost + 1], now);
            assert!(early.is_empty());
        });
        counts[1] = allocations_of(|| {
            let poll = receiver.poll(now);
            assert_eq!(poll.retransmits.len(), 1);
            assert_eq!(poll.retransmits[0].sequence, lost as u64);
        });
        counts[2] = allocations_of(|| {
            let healed = deliver(&mut decoder, &mut receiver, &frames[lost], now + 0.5);
            assert_eq!(healed.len(), 2);
        });
        counts
    };
    // The first gap also sizes the stream's window and gives the
    // receiver's blocked set its node; both are kept for later gaps.
    assert_eq!(cycle(0), [2, 1, 1], "the first cycle");
    for k in 1..CYCLES {
        assert_eq!(
            cycle(k),
            [0, 1, 1],
            "cycle {k}: [frame that opens the gap, poll, frame that heals it]"
        );
    }
}

#[test]
fn encoded_frame_allocates_only_its_buffer() {
    const MEASURED: usize = 100;
    let client = ClientId(3);
    let mut sender = SequencedSender::new(client, 0);
    let wrapped: Vec<_> = (0..MEASURED)
        .map(|i| {
            sender.wrap(WireMessage::Heartbeat {
                client,
                timestamp: i as f64,
            })
        })
        .collect();
    let before = ALLOCATIONS.with(Cell::get);
    for message in &wrapped {
        std::hint::black_box(encode_frame(message));
    }
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    assert_eq!(
        allocations, MEASURED as u64,
        "a stream-wrapped heartbeat is encoded into the one buffer returned"
    );
}

/// Clients 0 and 1 alternate messages 10 apart — each its own batch at
/// σ = 1 — and client 2 only heartbeats, `LAG` messages behind: a submit
/// finds `LAG` pending and emits nothing, the heartbeat that follows releases
/// exactly the oldest one. Message `k` is stamped `offset(k)` from its
/// arrival. Every measured submit must allocate `submit_pin` times and every
/// measured heartbeat `heartbeat_pin` times. Returns the sequencer.
fn assert_pinned_allocations(
    config: SequencerConfig,
    census: [OffsetDistribution; 3],
    offset: impl Fn(u64) -> f64,
    submit_pin: u64,
    heartbeat_pin: u64,
) -> OnlineSequencer {
    const LAG: u64 = 12;
    const WARM_UP: u64 = 400;
    const MEASURED: u64 = 100;
    let mut sequencer = OnlineSequencer::new(config.with_retain_history(false));
    for (client, distribution) in (0..).zip(census) {
        sequencer.register_client(ClientId(client), distribution);
    }
    let (mut submit_allocations, mut heartbeat_allocations) = (Vec::new(), Vec::new());
    for k in 0..WARM_UP + MEASURED {
        let now = 10.0 * k as f64;
        let message = Message::new(MessageId(k), ClientId((k % 2) as u32), now + offset(k));
        let before = ALLOCATIONS.with(Cell::get);
        let emitted = sequencer.submit(message, now).expect("valid submission");
        let after_submit = ALLOCATIONS.with(Cell::get);
        assert!(emitted.is_empty(), "the gate client holds every batch back");
        drop(emitted);
        let Some(release) = k.checked_sub(LAG) else { continue };
        assert_eq!(sequencer.pending_len() as u64, LAG + 1);
        let before_heartbeat = ALLOCATIONS.with(Cell::get);
        let emitted = sequencer
            .heartbeat(ClientId(2), 10.0 * release as f64 + 5.0, now)
            .expect("registered client");
        let after_heartbeat = ALLOCATIONS.with(Cell::get);
        assert_eq!(emitted.len(), 1);
        assert_eq!(emitted[0].messages[0].id, MessageId(release));
        drop(emitted);
        sequencer.take_emitted();
        if k >= WARM_UP {
            submit_allocations.push(after_submit - before);
            heartbeat_allocations.push(after_heartbeat - before_heartbeat);
        }
    }
    assert_eq!(submit_allocations, vec![submit_pin; MEASURED as usize], "submit");
    assert_eq!(heartbeat_allocations, vec![heartbeat_pin; MEASURED as usize], "heartbeat");
    sequencer
}

/// Client 1 is Laplace, so half of every column is numeric. The engine
/// itself allocates nothing; the heartbeat's four are the shell's: the
/// batch's messages, the copy kept for `take_emitted`, and the two vectors
/// that hold a batch.
#[test]
fn dense_submit_and_emitting_heartbeat_allocate_a_pinned_count() {
    let census = [
        OffsetDistribution::gaussian(0.0, 1.0),
        OffsetDistribution::laplace(0.0, 1.0),
        OffsetDistribution::gaussian(0.0, 1.0),
    ];
    let config = SequencerConfig { fast_path: FastPathMode::ForceDense, ..SequencerConfig::default() };
    assert_pinned_allocations(config, census, |_| 0.0, 0, 4);
}

/// The all-Gaussian twin on the sparse engine: a submit walks in from the
/// tail and allocates nothing; the heartbeat pays the shell's four plus the
/// engine's candidate member list.
#[test]
fn sparse_submit_and_emitting_heartbeat_allocate_a_pinned_count() {
    let census = std::array::from_fn(|_| OffsetDistribution::gaussian(0.0, 1.0));
    assert_pinned_allocations(SequencerConfig::default(), census, |_| 0.0, 0, 5);
}

/// The sparse twin with the defense on. Each message is stamped with an
/// offset drawn from its client's σ = 0.25 claim, so every trust window
/// validates and no pair co-moves: across the 500 submits each client's
/// window is KS-checked 30 times and each client runs 31 collusion checks,
/// about six of each in the measured hundred, and a submit allocates
/// nothing on those too.
#[test]
fn defended_sparse_submit_allocates_nothing_when_checks_come_due() {
    let claim = OffsetDistribution::gaussian(0.0, 0.25);
    let mut rng = StdRng::seed_from_u64(0xDEF);
    let offsets: Vec<f64> = (0..500).map(|_| claim.sample(&mut rng)).collect();
    let config = SequencerConfig::default().with_defense(DefenseConfig::enabled());
    let census = std::array::from_fn(|_| claim.clone());
    let sequencer = assert_pinned_allocations(config, census, |k| offsets[k as usize], 0, 5);
    let stats = sequencer.stats();
    assert_eq!((stats.quarantines, stats.reestimations), (0, 0));
    assert_eq!(stats.collusion_checks, 62);
}

/// Sequences `window` once to warm the engine's reused buffers, then again
/// under the counter: the second call's order (equal to the first) and its
/// allocation count.
fn warm_window_allocations(
    census: impl Fn(u32) -> OffsetDistribution,
    clients: u32,
    window: &[Message],
) -> (FairOrder, u64) {
    let mut sequencer = TommySequencer::new(SequencerConfig::default());
    for client in 0..clients {
        sequencer.register_client(ClientId(client), census(client));
    }
    let warm = sequencer.sequence(window).expect("valid window");
    let before = ALLOCATIONS.with(Cell::get);
    let order = sequencer.sequence(window).expect("valid window");
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    assert_eq!(order, warm);
    assert_eq!(order.num_messages(), window.len());
    (order, allocations)
}

/// `n` messages, one per unit of time, from `clients` clients chosen at
/// random, each stamped with noise of spread `noise`.
fn offline_window(rng: &mut StdRng, n: u64, clients: u32, noise: f64) -> Vec<Message> {
    (0..n)
        .map(|id| {
            let client = ClientId(rng.random_range(0..clients));
            let noise: f64 = (0..4).map(|_| rng.random_range(-noise..noise)).sum();
            Message::new(MessageId(id), client, id as f64 + noise)
        })
        .collect()
}

/// A closed-form window shaped like the benchmark's `offline_batch` (100
/// clients, σ = 20, one message per unit of time) on the sparse engine.
/// What is left is the returned `FairOrder`: the window's one id map (the
/// duplicate check, then the rank index), the batch vector, and the growth
/// of the group vectors its 36 batches are cut into.
#[test]
fn offline_window_allocates_a_pinned_count() {
    let window = offline_window(&mut StdRng::seed_from_u64(0x0FF1), 3_000, 100, 17.0);
    let census = |_| OffsetDistribution::gaussian(0.0, 20.0);
    let (order, allocations) = warm_window_allocations(census, 100, &window);
    assert_eq!(order.num_batches(), 36, "batches");
    assert_eq!(allocations, 187, "allocations");
}

/// The dense twin: one client in four is Laplace, so the window is built
/// into a `PrecedenceMatrix` (one arrival column per message, appended to a
/// store sized to the window) and run through the tournament and batching.
/// The build itself allocates four times: the admission map, the store of
/// one float per pair, and the matrix's message and slot vectors. The order's recomputation
/// after the tournament's rebuild condenses the edge grid through one
/// out-degree column (the window is transitive, so no cycle heuristic
/// runs); nearly all the rest is the returned `FairOrder`, a vector per
/// batch grown as its messages are pushed.
#[test]
fn dense_offline_window_allocates_a_pinned_count() {
    let window = offline_window(&mut StdRng::seed_from_u64(0x0FF2), 300, 20, 2.0);
    let census = |client: u32| match client % 4 {
        0 => OffsetDistribution::laplace(0.0, 2.0),
        _ => OffsetDistribution::gaussian(0.0, 2.0),
    };
    let (order, allocations) = warm_window_allocations(census, 20, &window);
    assert_eq!(order.num_batches(), 49, "batches");
    assert_eq!(allocations, 102, "allocations");
}

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
//!   heartbeat through `feed` + `next_message` + `receive` allocates the
//!   `Box` of its inner message and the one returned `Vec`, and a `poll`
//!   with nothing due allocates nothing.
//! * Each engine pays for what changed: a `submit` into a warm pending set
//!   that emits nothing, and the `heartbeat` that releases one batch from
//!   it, each allocate a pinned count, on the dense engine (`ForceDense`,
//!   one Laplace client) and on the sparse one (all-Gaussian, `Auto`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use tommy_bench::prefilled_sequencer;
use tommy_core::config::{FastPathMode, SequencerConfig};
use tommy_core::message::{ClientId, Message, MessageId};
use tommy_core::sequencer::online::OnlineSequencer;
use tommy_stats::distribution::OffsetDistribution;
use tommy_wire::frame::encode_frame;
use tommy_wire::{FrameDecoder, RecoveryPolicy, SequencedSender, StreamReceiver, WireMessage};

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

#[test]
fn in_order_frame_allocates_its_box_and_its_vec() {
    const WARM_UP: usize = 1000;
    const MEASURED: usize = 100;
    let client = ClientId(3);
    let mut sender = SequencedSender::new(client, 0);
    let frames: Vec<_> = (0..WARM_UP + MEASURED)
        .map(|i| {
            encode_frame(&sender.wrap(WireMessage::Heartbeat {
                client,
                timestamp: i as f64,
            }))
        })
        .collect();
    let mut decoder = FrameDecoder::new();
    let mut receiver = StreamReceiver::new(RecoveryPolicy::RequestRetransmit {
        max_retries: 4,
        base_backoff: 2.0,
    });
    let mut pump = |range: std::ops::Range<usize>| {
        for i in range {
            let now = i as f64;
            decoder.feed(&frames[i]);
            let frame = decoder
                .next_message()
                .expect("valid frame")
                .expect("whole frame");
            assert_eq!(receiver.receive(frame, now).len(), 1);
            let poll = receiver.poll(now);
            assert!(poll.released.is_empty() && poll.retransmits.is_empty());
        }
    };
    // The decoder's buffer reaches its steady capacity (this allocates).
    pump(0..WARM_UP);
    let before = ALLOCATIONS.with(Cell::get);
    pump(WARM_UP..WARM_UP + MEASURED);
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    assert_eq!(
        allocations,
        2 * MEASURED as u64,
        "an in-order frame allocates the Box of its inner message and the returned Vec, \
         and an idle poll nothing"
    );
}

/// Clients 0 and 1 alternate messages 10 apart — each its own batch at
/// σ = 1 — and client 2 only heartbeats, `LAG` messages behind: a submit
/// finds `LAG` pending and emits nothing, the heartbeat that follows releases
/// exactly the oldest one. Every measured submit must allocate `submit_pin`
/// times and every measured heartbeat `heartbeat_pin` times.
fn assert_pinned_allocations(
    config: SequencerConfig,
    census: [OffsetDistribution; 3],
    submit_pin: u64,
    heartbeat_pin: u64,
) {
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
        let message = Message::new(MessageId(k), ClientId((k % 2) as u32), now);
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
}

/// Client 1 is Laplace, so half of every column is numeric. The engine
/// itself allocates nothing; the heartbeat's five are the shell's: the
/// batch's messages, their ids, the copy kept for `take_emitted`, and the
/// two vectors that hold a batch.
#[test]
fn dense_submit_and_emitting_heartbeat_allocate_a_pinned_count() {
    let census = [
        OffsetDistribution::gaussian(0.0, 1.0),
        OffsetDistribution::laplace(0.0, 1.0),
        OffsetDistribution::gaussian(0.0, 1.0),
    ];
    let config = SequencerConfig::default().with_fast_path(FastPathMode::ForceDense);
    assert_pinned_allocations(config, census, 0, 5);
}

/// The all-Gaussian twin on the sparse engine: a submit walks in from the
/// tail and allocates nothing; the heartbeat pays the shell's five plus the
/// engine's candidate member list.
#[test]
fn sparse_submit_and_emitting_heartbeat_allocate_a_pinned_count() {
    let census = std::array::from_fn(|_| OffsetDistribution::gaussian(0.0, 1.0));
    assert_pinned_allocations(SequencerConfig::default(), census, 0, 6);
}

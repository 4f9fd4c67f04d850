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

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use tommy_bench::prefilled_sequencer;
use tommy_core::message::ClientId;
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

//! A cached clock tick touches the heap zero times.
//!
//! `OnlineSequencer::tick` against a settled pending set compares the cached
//! candidate's `safe_after` and the watermark frontier with the clock and
//! returns an empty batch vector. A counting `#[global_allocator]` (which is
//! why this is the only test in its binary) turns that into an assertion: a
//! tick that allocates would show up as noise long before it showed up as a
//! mean shift.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use tommy_bench::prefilled_sequencer;

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

//! A counting global allocator.
//!
//! Counting is off until [`set_counting`] turns it on, so the untraced run
//! pays one relaxed load per allocation and nothing else. When on, every
//! allocation (including `realloc`) bumps a per-thread counter and one
//! shard of a process-wide counter: the process-wide sum gives allocations
//! per call across client and server threads, the per-thread count gives
//! the exact allocations of a single layer call made on the current thread.
//! Threads are spread over cache-line-sized shards so that counting does
//! not make every allocating thread contend for one line.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

/// The allocator installed by this crate (`#[global_allocator]` in `lib.rs`).
pub struct CountingAlloc;

const SHARDS: usize = 16;

#[repr(align(64))]
struct Shard(AtomicU64);

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: [Shard; SHARDS] = [const { Shard(AtomicU64::new(0)) }; SHARDS];
static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    // Const-initialised and without destructors, so touching them from
    // inside the allocator never allocates and stays valid during thread
    // teardown.
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
    static THREAD_SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
}

#[inline]
fn note() {
    if COUNTING.load(Ordering::Relaxed) {
        let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
        let _ = THREAD_SHARD.try_with(|s| {
            if s.get() == usize::MAX {
                s.set(NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % SHARDS);
            }
            ALLOCS[s.get()].0.fetch_add(1, Ordering::Relaxed);
        });
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters are plain atomics and const thread-locals that
// never allocate, so the `GlobalAlloc` contract is exactly `System`'s.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: forwarded verbatim; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: `ptr` came from `System` through this allocator; the
        // caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Turns allocation counting on or off for the whole process.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Allocations counted on all threads while counting was on.
pub fn process_allocs() -> u64 {
    ALLOCS.iter().map(|s| s.0.load(Ordering::Relaxed)).sum()
}

/// Allocations counted on the calling thread while counting was on.
pub fn thread_allocs() -> u64 {
    THREAD_ALLOCS.with(Cell::get)
}

//! Hostile size headers: `decompress` must reject a declared output above
//! its limit before reserving memory for it, and must stop a stream that
//! expands past its declared size.
//!
//! A counting global allocator records the largest single allocation, so
//! "without a large allocation" is measured, not assumed. This file holds
//! one test so no other test's allocations land in the measurement.

use sbq_lz::{compress, decompress};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct LargestAlloc;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for LargestAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: LargestAlloc = LargestAlloc;

#[test]
fn hostile_size_headers_fail_without_large_allocations() {
    const LIMIT: usize = 1 << 20;

    // 9 bytes claiming a 4 GiB original, in both stream modes.
    let raw_claim = [0xff, 0xff, 0xff, 0xff, 0, 1, 2, 3, 4];
    let huffman_claim = [0xff, 0xff, 0xff, 0xff, 1, 0xff, 0xff, 0xff, 0xff];
    // A small declared size whose Huffman token length claims 4 GiB.
    let token_claim = [16, 0, 0, 0, 1, 0xff, 0xff, 0xff, 0xff];

    LARGEST.store(0, Ordering::Relaxed);
    for input in [&raw_claim, &huffman_claim, &token_claim] {
        assert!(decompress(input, LIMIT).is_err(), "{input:?}");
    }
    let largest = LARGEST.load(Ordering::Relaxed);
    assert!(largest < 64 * 1024, "largest allocation {largest} bytes");

    // A well-formed stream that expands past the limit is refused, and
    // the same stream decodes under a limit that admits it.
    let data = vec![b'x'; 4 * LIMIT];
    let packed = compress(&data);
    assert!(packed.len() < LIMIT / 8, "{} bytes packed", packed.len());
    assert!(decompress(&packed, LIMIT).is_err());
    assert_eq!(decompress(&packed, data.len()).unwrap(), data);
}

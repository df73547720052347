//! Allocation count of XML array decode, measured with a counting global
//! allocator: a numeric array decodes with the same small number of heap
//! allocations at any length, because item text is parsed straight from
//! the borrowed document into the packed array.

use sbq_model::{TypeDesc, Value};
use soap_binq::marshal;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts every allocation and reallocation made on the calling thread,
/// so other test threads cannot disturb a measurement.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the slot is gone while the thread shuts down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Allocations `parse_document` makes decoding `xml` as `ty`.
fn decode_allocs(xml: &str, ty: &TypeDesc) -> u64 {
    let before = ALLOCS.with(Cell::get);
    let v = marshal::parse_document(xml, ty).unwrap();
    let n = ALLOCS.with(Cell::get) - before;
    drop(v);
    n
}

/// Decodes `make(n)` at two lengths 64× apart and checks that both cost
/// the same few allocations.
fn assert_flat(what: &str, ty: &TypeDesc, make: impl Fn(usize) -> Value) {
    let counts: Vec<u64> = [1024, 65_536]
        .iter()
        .map(|&n| decode_allocs(&marshal::value_to_xml(&make(n), "p"), ty))
        .collect();
    assert_eq!(counts[0], counts[1], "{what}: allocations grew with length");
    assert!(counts[0] <= 16, "{what}: {} allocations", counts[0]);
}

#[test]
fn numeric_array_decode_allocations_do_not_grow_with_length() {
    assert_flat("f64", &TypeDesc::list_of(TypeDesc::Float), |n| {
        Value::FloatArray((0..n).map(|i| i as f64 * -0.37 + 1e-3).collect())
    });
    assert_flat("i64", &TypeDesc::list_of(TypeDesc::Int), |n| {
        Value::IntArray((0..n).map(|i| (i as i64 - 500) * 7_919_003).collect())
    });
}

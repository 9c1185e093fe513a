//! The benchmark of record: seeded closed-loop workloads over the public
//! APIs of the client, store, wire and server crates.  See `README.md` for
//! the workloads, the metrics and how to run them.

pub mod replay;
pub mod report;
pub mod run;
pub mod trace;
pub mod workload;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The seed used while developing a change.
pub const DEFAULT_SEED: u64 = 1;
/// The seed reserved for confirming a claimed gain: a change must also win
/// on it, and nobody tunes against it.
pub const HELD_OUT_SEED: u64 = 20_161_031;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// A global allocator that counts the allocations of each thread.
pub struct CountingAllocator;

// SAFETY: every call defers to the system allocator unchanged; the only
// addition is a bump of a const-initialised thread-local counter, which
// never allocates and has no destructor.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn count_allocation() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// Heap allocations made by the calling thread so far.
pub fn thread_allocations() -> u64 {
    ALLOCATIONS.try_with(Cell::get).unwrap_or(0)
}

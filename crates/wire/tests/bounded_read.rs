//! A hostile peer cannot make a reader allocate what it never sends: a
//! valid header claiming the maximum payload, followed by end of stream,
//! must fail `Truncated` after allocating a few bytes, not 64 MiB.
//!
//! The file holds one test on purpose: the counting allocator below is
//! process-wide, and a second test running in parallel would blur the
//! peak it measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Cursor;
use std::sync::atomic::{AtomicUsize, Ordering};

use sb_wire::{read_message, read_payload, FrameHeader, FrameType, WireError, MAX_PAYLOAD};

/// A global allocator that tracks live heap bytes and their high-water
/// mark, so the test can bound what one read allocates.
struct CountingAllocator;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: defers entirely to the system allocator; the counters are
// relaxed atomics with no further invariants.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        grew(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Peak heap growth, in bytes, while `f` runs.
fn peak_growth<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let baseline = LIVE.load(Ordering::Relaxed);
    PEAK.store(baseline, Ordering::Relaxed);
    let out = f();
    (out, PEAK.load(Ordering::Relaxed) - baseline)
}

#[test]
fn a_header_claiming_max_payload_then_eof_allocates_almost_nothing() {
    let header = FrameHeader {
        frame_type: FrameType::FullHashRequests,
        payload_len: MAX_PAYLOAD as u32,
        checksum: 0,
    }
    .encode();
    let bound = 1 << 20; // 1 MiB, against the 64 MiB the header claims

    let (result, peak) = peak_growth(|| read_message(&mut Cursor::new(header.to_vec())));
    assert!(matches!(result, Err(WireError::Truncated)), "{result:?}");
    assert!(peak < bound, "read_message allocated {peak} bytes");

    // The same through the payload reader alone, with a few bytes sent.
    let (result, peak) =
        peak_growth(|| read_payload(&mut Cursor::new(vec![7u8; 100]), MAX_PAYLOAD as u32));
    assert!(matches!(result, Err(WireError::Truncated)), "{result:?}");
    assert!(peak < bound, "read_payload allocated {peak} bytes");
}

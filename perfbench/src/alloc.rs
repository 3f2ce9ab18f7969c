//! Counting global allocator: cumulative bytes allocated, live bytes and
//! their high-water mark, read from outside the simulator.
//!
//! A `realloc` counts as a fresh allocation of the new size plus a free
//! of the old one, so "bytes allocated" is the traffic a layer puts on the
//! allocator. Counts are of requested sizes, which the simulator makes
//! deterministically, so they repeat exactly from run to run.
//!
//! The counters are per thread: plain thread-local cells cost a few
//! nanoseconds per allocation where shared atomics would cost several
//! times that, and a simulation runs on one thread. Memory freed by
//! another thread than the one that allocated it is counted there, so
//! `live` may wrap on such a thread; no measured run does that.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // `const` cells without `Drop`: no lazy set-up that could allocate.
    static ALLOCATED: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<u64> = const { Cell::new(0) };
    static PEAK: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator plus three per-thread counters.
pub struct Counting;

fn grow(bytes: usize) {
    let bytes = bytes as u64;
    ALLOCATED.with(|a| a.set(a.get().wrapping_add(bytes)));
    let live = LIVE.with(|l| {
        let v = l.get().wrapping_add(bytes);
        l.set(v);
        v
    });
    PEAK.with(|p| p.set(p.get().max(live)));
}

fn shrink(bytes: usize) {
    LIVE.with(|l| l.set(l.get().wrapping_sub(bytes as u64)));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters never touch the memory
// and never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            shrink(layout.size());
            grow(new_size);
        }
        p
    }
}

/// Bytes this thread has allocated since it started.
pub fn allocated() -> u64 {
    ALLOCATED.with(Cell::get)
}

/// Bytes this thread holds live right now.
pub fn live() -> u64 {
    LIVE.with(Cell::get)
}

/// Restart this thread's high-water mark at its current live size.
pub fn reset_peak() {
    PEAK.with(|p| p.set(live()));
}

/// This thread's largest live size since the last [`reset_peak`].
pub fn peak() -> u64 {
    PEAK.with(Cell::get)
}

//! The one counting global allocator of the workspace's allocation tests,
//! included by each test binary that installs it:
//!
//! ```ignore
//! #[path = "../../../tests/support/counting_alloc.rs"]
//! mod counting_alloc;
//! ```
//!
//! It forwards every call to `System` and counts, per thread, the
//! allocation calls made (`alloc`, `alloc_zeroed` and `realloc` each count
//! one) and the net bytes allocated and not yet freed. Counting per thread
//! makes a count a pure function of the code run on that thread, whatever
//! else the test harness is doing. Live bytes are net of what the thread
//! itself frees, so they read true only for memory a thread allocates and
//! frees itself — as a single-threaded simulation does.

#![allow(dead_code)] // each binary uses its own part of the API

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocation calls made by this thread (no destructor, const
    /// initializer: touching it never allocates).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread allocated minus the bytes it freed.
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

/// Counts one allocation call that moved this thread's live bytes by
/// `grew` (a `realloc`'s new size minus its old one).
fn count(grew: i64) {
    ALLOCS.with(|n| n.set(n.get() + 1));
    LIVE.with(|b| b.set(b.get() + grew));
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters never touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        // SAFETY: the caller's obligations for `alloc` are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr` and `layout` come from this allocator, which is
        // `System` underneath, so they are valid for `System.realloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.with(|b| b.set(b.get() - layout.size() as i64));
        // SAFETY: `ptr` was returned by `System` through one of the methods
        // above with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocation calls this thread has made so far.
pub fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Bytes this thread has allocated and not freed so far.
pub fn live_bytes() -> i64 {
    LIVE.with(Cell::get)
}

/// Allocations this thread makes inside `body`.
pub fn allocs_in<R>(body: impl FnOnce() -> R) -> (R, u64) {
    let before = allocs();
    let out = body();
    (out, allocs() - before)
}

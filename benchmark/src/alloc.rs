//! The benchmark binary's counting allocator: every heap allocation the
//! process makes bumps two relaxed counters and is then served by
//! [`System`]. It is installed in both the timed and the traced pass, so
//! any two commits pay the same cost, and it is the only `unsafe` in the
//! benchmark.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

// Relaxed: the counters are statistics and publish no other data.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// Counts allocations (and reallocations, each as one) and requested
/// bytes, delegating the memory itself to [`System`].
pub struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters never touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations for `alloc` are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` and `layout` come from this allocator, which is
        // `System` underneath, so they are valid for `System.realloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` through one of the methods
        // above with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

fn count(bytes: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

/// Allocation calls and requested bytes since process start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Snapshot {
    pub allocs: u64,
    pub bytes: u64,
}

impl Snapshot {
    pub fn now() -> Snapshot {
        Snapshot {
            allocs: ALLOCS.load(Ordering::Relaxed),
            bytes: BYTES.load(Ordering::Relaxed),
        }
    }

    /// What was allocated since `self` was taken.
    pub fn elapsed(&self) -> Snapshot {
        let now = Snapshot::now();
        Snapshot {
            allocs: now.allocs - self.allocs,
            bytes: now.bytes - self.bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hint::black_box;

    fn scripted() -> Snapshot {
        let before = Snapshot::now();
        let a = black_box(Box::new(7u64)); // alloc, 8 bytes
        let mut v: Vec<u8> = black_box(Vec::with_capacity(100)); // alloc, 100 bytes
        v.reserve_exact(400); // realloc to 400 bytes
        let z = black_box(vec![0u32; 64]); // alloc_zeroed, 256 bytes
        drop(a); // frees are not counted
        let d = before.elapsed();
        drop((v, z));
        d
    }

    // The counters are process-wide and `cargo test` runs other tests on
    // parallel threads, so one sample may include their allocations. Noise
    // can only add: the scripted count is the floor, and it must be hit.
    #[test]
    fn scripted_sequence_counts_exactly() {
        let want = Snapshot {
            allocs: 4,
            bytes: 8 + 100 + 400 + 256,
        };
        let seen: Vec<Snapshot> = (0..200).map(|_| scripted()).collect();
        assert!(
            seen.contains(&want),
            "never counted exactly {want:?}; first sample {:?}",
            seen[0]
        );
        assert!(
            seen.iter()
                .all(|s| s.allocs >= want.allocs && s.bytes >= want.bytes),
            "an allocation went uncounted"
        );
    }
}

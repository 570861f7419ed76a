//! A per-thread pool of reusable scratch vectors.
//!
//! Every shuffle map task encodes its output into freshly grown `Vec`s,
//! and a wide stage runs thousands of tasks — under the old path the
//! allocator served (and immediately reclaimed) one multi-kilobyte
//! buffer per bucket per task. The pool recycles those buffers: a task
//! [`take`]s a buffer with at least the capacity its size hint predicts,
//! fills it, snapshots the bytes into an exact-sized block, and
//! [`give`]s the buffer back for the next task.
//!
//! Byte buffers are not the only scratch a task throws away. The same
//! pool recycles vectors of the other [`Recycled`] element types through
//! [`take_vec`] and [`give_vec`]: the `u32` index tables of the engine's
//! hash grouping, a map task's per-bucket size list and the list that
//! holds its bucket buffers. Each element type has a free list of its
//! own, and all of them share the thread's one byte budget.
//!
//! The pool is deliberately modest and bounded — it is a steady-state
//! allocation damper, not a general allocator:
//!
//! - the free lists are **thread-local and lock-free**: with task
//!   bodies running on a worker pool, every worker recycles its own
//!   vectors and shares nothing with any other thread;
//! - the vectors a thread retains hold at most `POOL_BUDGET_BYTES` of
//!   capacity between them, kept as a running total, and none more than
//!   `MAX_BUFFER_CAPACITY` bytes, so a one-off giant record cannot pin
//!   memory forever. The bound is on bytes, not vectors: a map task with
//!   64 small buckets runs entirely on pooled scratch, and a thread never
//!   pins more than the budget however its vectors are sized.
//!
//! Returned vectors are always cleared; a take never exposes stale
//! elements. Pooling only affects *where* scratch space comes from, never
//! the bytes written through it, so determinism is unaffected.

use std::cell::RefCell;

/// Most bytes of capacity the pool retains per thread, summed over its
/// vectors of every element type.
pub(crate) const POOL_BUDGET_BYTES: usize = 64 << 20;

/// Largest vector, in bytes of capacity, the pool will retain (larger
/// ones are dropped on `give` and fall back to the allocator).
pub(crate) const MAX_BUFFER_CAPACITY: usize = 8 << 20;

/// One thread's free lists and the bytes of capacity they hold.
struct Pool {
    bytes: Vec<Vec<u8>>,
    slots: Vec<Vec<u32>>,
    sizes: Vec<Vec<usize>>,
    lists: Vec<Vec<Vec<u8>>>,
    held: usize,
}

thread_local! {
    static POOL: RefCell<Pool> = const {
        RefCell::new(Pool {
            bytes: Vec::new(),
            slots: Vec::new(),
            sizes: Vec::new(),
            lists: Vec::new(),
            held: 0,
        })
    };
}

/// An element type whose vectors the pool recycles.
pub trait Recycled: Sized {
    /// Runs `f` on this type's free list in the calling thread's pool and
    /// on the bytes of capacity the whole pool holds.
    #[doc(hidden)]
    fn with_free_list<R>(f: impl FnOnce(&mut Vec<Vec<Self>>, &mut usize) -> R) -> R;
}

macro_rules! recycled {
    ($($elem:ty => $list:ident),* $(,)?) => {$(
        impl Recycled for $elem {
            fn with_free_list<R>(f: impl FnOnce(&mut Vec<Vec<Self>>, &mut usize) -> R) -> R {
                POOL.with(|p| {
                    let pool = &mut *p.borrow_mut();
                    f(&mut pool.$list, &mut pool.held)
                })
            }
        }
    )*};
}

recycled!(u8 => bytes, u32 => slots, usize => sizes, Vec<u8> => lists);

/// Takes a cleared buffer with `capacity() >= min_capacity`.
///
/// Prefers the pooled buffer whose capacity fits best; allocates fresh
/// when the pool is empty or nothing is large enough (growing a pooled
/// buffer would just move the allocation, so undersized entries stay
/// pooled for smaller requests).
///
/// # Examples
///
/// ```
/// let buf = splitserve_rt::pool::take(1024);
/// assert!(buf.capacity() >= 1024 && buf.is_empty());
/// splitserve_rt::pool::give(buf);
/// ```
pub fn take(min_capacity: usize) -> Vec<u8> {
    take_vec(min_capacity)
}

/// Returns `buf` to the calling thread's pool for reuse.
///
/// The buffer is cleared before it is stored. Oversized buffers and
/// returns that would take the pool past its byte budget are dropped
/// (allocator takes them back), so the pool's resident memory stays
/// bounded.
pub fn give(buf: Vec<u8>) {
    give_vec(buf)
}

/// [`take`] for any [`Recycled`] element type: a cleared vector with
/// `capacity() >= min_capacity`, the best fit from this type's free list
/// or a fresh one.
///
/// # Examples
///
/// ```
/// use splitserve_rt::pool;
///
/// let mut slots: Vec<u32> = pool::take_vec(64);
/// slots.resize(64, u32::MAX);
/// pool::give_vec(slots);
/// let again: Vec<u32> = pool::take_vec(16);
/// assert!(again.is_empty() && again.capacity() >= 64);
/// ```
pub fn take_vec<T: Recycled>(min_capacity: usize) -> Vec<T> {
    T::with_free_list(|free, held| {
        let best = free
            .iter()
            .enumerate()
            .filter(|(_, v)| v.capacity() >= min_capacity)
            .min_by_key(|(_, v)| v.capacity())
            .map(|(i, _)| i);
        match best {
            Some(i) => {
                let v = free.swap_remove(i);
                *held -= footprint(&v);
                v
            }
            None => Vec::with_capacity(min_capacity),
        }
    })
}

/// [`give`] for any [`Recycled`] element type. The vector is cleared
/// before it is stored, so a list of buffers should come back empty:
/// buffers still in it are dropped with it.
pub fn give_vec<T: Recycled>(mut v: Vec<T>) {
    let bytes = footprint(&v);
    if bytes == 0 || bytes > MAX_BUFFER_CAPACITY {
        return;
    }
    v.clear();
    T::with_free_list(|free, held| {
        if *held + bytes <= POOL_BUDGET_BYTES {
            *held += bytes;
            free.push(v);
        }
    })
}

/// Bytes of capacity `v` holds.
fn footprint<T>(v: &Vec<T>) -> usize {
    v.capacity() * std::mem::size_of::<T>()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each test runs on a thread of its own, whose free list starts
    /// empty: `cargo test` reuses its threads.
    fn on_fresh_thread(test: impl FnOnce() + Send + 'static) {
        std::thread::spawn(test).join().expect("test thread");
    }

    #[test]
    fn round_trip_reuses_the_allocation() {
        on_fresh_thread(|| {
            let mut a = take(100);
            a.extend_from_slice(b"scratch");
            let (cap, ptr) = (a.capacity(), a.as_ptr());
            give(a);
            let b = take(50);
            assert_eq!(b.as_ptr(), ptr, "same allocation must come back");
            assert_eq!(b.capacity(), cap);
            assert!(b.is_empty(), "pooled buffers are cleared");
            let c = take(50);
            assert_ne!(c.as_ptr(), ptr, "a taken buffer has left the pool");
        });
    }

    #[test]
    fn undersized_buffers_are_skipped_not_grown() {
        on_fresh_thread(|| {
            let small = Vec::with_capacity(16);
            let ptr = small.as_ptr();
            give(small);
            let big = take(1 << 16);
            assert!(big.capacity() >= 1 << 16);
            assert_ne!(big.as_ptr(), ptr, "small pooled buffer must not serve");
            // The 16-byte buffer is still pooled for a fitting request.
            let fitting = take(8);
            assert_eq!(fitting.as_ptr(), ptr);
        });
    }

    #[test]
    fn pool_is_bounded() {
        on_fresh_thread(|| {
            // Oversized buffers are never retained.
            give(Vec::with_capacity(MAX_BUFFER_CAPACITY + 1));
            assert!(take(8).capacity() <= MAX_BUFFER_CAPACITY);
            // Returns beyond the byte budget are dropped: exactly the
            // budget's worth of largest-size buffers comes back, and a
            // take the pool cannot serve allocates what was asked for.
            let fits = POOL_BUDGET_BYTES / MAX_BUFFER_CAPACITY;
            for _ in 0..fits + 3 {
                give(Vec::with_capacity(MAX_BUFFER_CAPACITY));
            }
            let served = (0..fits + 3)
                .filter(|_| take(8).capacity() == MAX_BUFFER_CAPACITY)
                .count();
            assert_eq!(served, fits);
            // A drained pool has its whole budget again, for small
            // buffers as for large ones.
            let small = POOL_BUDGET_BYTES / (64 << 10);
            for _ in 0..small + 5 {
                give(Vec::with_capacity(64 << 10));
            }
            let served = (0..small + 5).filter(|_| take(8).capacity() == 64 << 10).count();
            assert_eq!(served, small);
        });
    }

    /// A map task over 64 buckets takes all its scratch before it gives
    /// any back: once 64 buffers are pooled, every take of such a round is
    /// served from the pool. (Pooled buffers are told apart from fresh ones
    /// by a capacity a fresh take never has; the allocator may well hand a
    /// fresh take a freed buffer's address.)
    #[test]
    fn a_sixty_four_bucket_round_is_served_from_the_pool() {
        on_fresh_thread(|| {
            const ASKED: usize = 4096;
            const POOLED: usize = 5000;
            (0..64).for_each(|_| give(Vec::with_capacity(POOLED)));
            for round in 0..3 {
                let bufs: Vec<Vec<u8>> = (0..64).map(|_| take(ASKED)).collect();
                let fresh = bufs.iter().filter(|b| b.capacity() != POOLED).count();
                assert_eq!(fresh, 0, "round {round}: {fresh} of 64 takes allocated");
                bufs.into_iter().for_each(give);
            }
        });
    }

    /// Every element type draws on the one byte budget: index tables that
    /// fill it leave no room for a byte buffer until one of them is taken.
    #[test]
    fn element_types_share_one_budget() {
        on_fresh_thread(|| {
            for _ in 0..POOL_BUDGET_BYTES / MAX_BUFFER_CAPACITY {
                give_vec(Vec::<u32>::with_capacity(MAX_BUFFER_CAPACITY / 4));
            }
            give(Vec::with_capacity(64));
            assert_eq!(take(8).capacity(), 8, "a full budget turns the buffer away");
            let table: Vec<u32> = take_vec(1);
            assert_eq!(table.capacity(), MAX_BUFFER_CAPACITY / 4, "tables have their own list");
            give(Vec::with_capacity(64));
            assert_eq!(take(8).capacity(), 64, "the taken table freed its bytes");
        });
    }

    #[test]
    fn best_fit_prefers_tightest_capacity() {
        on_fresh_thread(|| {
            give(Vec::with_capacity(4096));
            give(Vec::with_capacity(256));
            let b = take(100);
            assert!(b.capacity() < 4096, "tightest fitting buffer serves first");
        });
    }
}

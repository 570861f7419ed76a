//! The pending-event queue: an exact `(at, seq)` priority queue whose hot
//! part stays small.
//!
//! Two observations shape it. Most events a simulation schedules are due
//! almost immediately (a task hand-off, a flow completion), while a few
//! thousand are scheduled far ahead and in ascending time order (a whole
//! arrival trace queued up front, lifetime kills). A single binary heap
//! makes every near-term push and pop pay `log n` of the far-future
//! population. Here an event whose time is not earlier than the newest
//! entry of the ascending *run* is appended to that run in O(1) — the
//! sequence number only grows, so the run stays sorted by `(at, seq)` —
//! and everything else goes to a binary heap. The next event is the
//! smaller of the run's front and the heap's root, so pops come out in
//! exactly the order one sorted queue would give.
//!
//! Keys are `Copy` and 24 bytes; what each event runs — a boxed closure
//! or an inline `(handler, token)` pair, see [`Action`] — sits still in a
//! slab while keys are sifted.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use splitserve_rt::Slab;

use crate::sim::Action;
use crate::time::SimTime;

#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) struct Key {
    pub at: SimTime,
    pub seq: u64,
    slot: u32,
}

impl Key {
    /// `(at, seq)` as one integer, so ordering is a single wide compare
    /// instead of two data-dependent branches.
    #[inline]
    fn rank(&self) -> u128 {
        (u128::from(self.at.as_micros()) << 64) | u128::from(self.seq)
    }

    #[inline]
    fn before(&self, other: &Key) -> bool {
        self.rank() < other.rank()
    }
}

// The *earliest* key is the greatest, so it sits at the max-heap's root.
impl Ord for Key {
    #[inline]
    fn cmp(&self, other: &Key) -> Ordering {
        other.rank().cmp(&self.rank())
    }
}

impl PartialOrd for Key {
    #[inline]
    fn partial_cmp(&self, other: &Key) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

#[derive(Default)]
pub(crate) struct EventQueue {
    /// Ascending by `(at, seq)`; appended to, popped from the front.
    run: VecDeque<Key>,
    /// The events that arrived out of run order.
    heap: BinaryHeap<Key>,
    /// What each queued key runs, by the key's slot.
    slab: Slab<Action>,
}

impl EventQueue {
    /// Queues `action` under `(at, seq)`. `seq` must exceed every sequence
    /// number pushed before — the run's sortedness rests on it.
    pub(crate) fn push(&mut self, at: SimTime, seq: u64, action: Action) {
        let slot = self.slab.insert(action);
        let key = Key { at, seq, slot };
        match self.run.back() {
            Some(back) if at < back.at => self.heap.push(key),
            _ => self.run.push_back(key),
        }
    }

    /// The earliest pending key, if any.
    pub(crate) fn peek(&self) -> Option<Key> {
        match (self.run.front(), self.heap.peek()) {
            (Some(r), Some(h)) => Some(if h.before(r) { *h } else { *r }),
            (Some(k), None) | (None, Some(k)) => Some(*k),
            (None, None) => None,
        }
    }

    /// Removes and returns the earliest pending event.
    pub(crate) fn pop(&mut self) -> Option<(Key, Action)> {
        let from_heap = match (self.run.front(), self.heap.peek()) {
            (Some(r), Some(h)) => h.before(r),
            (Some(_), None) => false,
            (None, Some(_)) => true,
            (None, None) => return None,
        };
        let key = if from_heap {
            self.heap.pop()
        } else {
            self.run.pop_front()
        }
        .expect("front was just seen");
        let action = self.slab.take(key.slot).expect("queued key owns its slot");
        Some((key, action))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl EventQueue {
        fn len(&self) -> usize {
            self.run.len() + self.heap.len()
        }
    }

    fn drain(q: &mut EventQueue) -> Vec<(u64, u64)> {
        std::iter::from_fn(|| q.pop())
            .map(|(k, _)| (k.at.as_micros(), k.seq))
            .collect()
    }

    #[test]
    fn ascending_pushes_stay_out_of_the_heap() {
        let mut q = EventQueue::default();
        for (seq, at) in [5u64, 5, 7, 9].into_iter().enumerate() {
            q.push(
                SimTime::from_micros(at),
                seq as u64,
                Action::Call(Box::new(|_| {})),
            );
        }
        assert_eq!(q.heap.len(), 0);
        assert_eq!(q.len(), 4);
        assert_eq!(drain(&mut q), vec![(5, 0), (5, 1), (7, 2), (9, 3)]);
    }

    #[test]
    fn run_and_heap_merge_in_key_order() {
        let mut q = EventQueue::default();
        let times = [50u64, 10, 60, 10, 55, 5, 60, 1, 70, 65];
        for (seq, at) in times.into_iter().enumerate() {
            q.push(
                SimTime::from_micros(at),
                seq as u64,
                Action::Call(Box::new(|_| {})),
            );
        }
        assert!(!q.heap.is_empty() && !q.run.is_empty());
        let mut want: Vec<(u64, u64)> = times
            .into_iter()
            .enumerate()
            .map(|(seq, at)| (at, seq as u64))
            .collect();
        want.sort_unstable();
        assert_eq!(q.peek().map(|k| (k.at.as_micros(), k.seq)), Some(want[0]));
        assert_eq!(drain(&mut q), want);
        assert!(q.peek().is_none());
    }

    #[test]
    fn slots_are_reused() {
        let mut q = EventQueue::default();
        for seq in 0..100u64 {
            q.push(
                SimTime::from_micros(seq),
                seq,
                Action::Call(Box::new(|_| {})),
            );
            drop(q.pop().expect("just pushed"));
        }
        assert_eq!(q.slab.slots(), 1);
    }
}

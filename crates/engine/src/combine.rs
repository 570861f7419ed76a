//! Insertion-ordered hash grouping for the shuffle data plane.
//!
//! Every wide operator used to group keys through `BTreeMap`s — one
//! ordered tree walk (and one rebalance) per record, on the hottest loop
//! of every CloudSort/TPC-DS/PageRank stage. [`HashGroup`] replaces them
//! with a flat open-addressing table: entries live contiguously in a
//! `Vec` in **first-insertion order**, and a power-of-two index of `u32`
//! slots maps precomputed hashes onto them with linear probing, at most
//! half full.
//!
//! A key's home slot comes from the hash's **high half**. The shuffle
//! sends a key to reduce partition `hash % P`
//! ([`bucket_of_hash`](crate::ops::bucket_of_hash)), so every key one
//! reduce task groups shares those low bits: with `P` a power of two, a
//! home slot taken from them would land on only `1/P` of the index, and
//! lookups would walk long clusters.
//!
//! Determinism is the design constraint, not an accident: iteration
//! yields entries in the order keys first arrived, which is itself a
//! pure function of the input order — so replacing the BTreeMaps changes
//! *output ordering* (callers sort where ordering is asserted) but never
//! the multiset of results, and two same-seed runs still produce
//! byte-identical shuffle blocks.
//!
//! The index is scratch: it never leaves the task, so it is taken from
//! the thread's [`splitserve_rt::pool`] when a group is built or grows and
//! given back when the old index is dropped, under the pool's one byte
//! budget. A recycled index is refilled with `EMPTY` to its new length, so
//! a group behaves the same whatever its index held before.
//!
//! Callers pass the hash in (from [`splitserve_rt::hash::shuffle_hash`])
//! rather than a `Hasher` living here, because the map side needs the
//! same hash twice — once to group, once to pick the shuffle bucket —
//! and should compute it once.

use splitserve_rt::pool;

/// Sentinel for an unoccupied index slot.
const EMPTY: u32 = u32::MAX;

/// The home slot of `hash` in an index of `mask + 1` slots: the high
/// half first, which the partitioner's `hash % P` leaves free for a power
/// of two `P`, then the low half above bit 32 for an index that big.
#[inline]
fn home(hash: u64, mask: usize) -> usize {
    hash.rotate_left(32) as usize & mask
}

/// An all-`EMPTY` index of `slots` slots, on pooled scratch.
fn empty_index(slots: usize) -> Vec<u32> {
    let mut index = pool::take_vec(slots);
    index.resize(slots, EMPTY);
    index
}

/// An insertion-ordered hash table from keys (with caller-supplied
/// hashes) to accumulators.
#[derive(Debug)]
pub(crate) struct HashGroup<K, A> {
    /// `(hash, key, accumulator)` in first-insertion order.
    entries: Vec<(u64, K, A)>,
    /// Power-of-two open-addressing index into `entries`, from the pool.
    table: Vec<u32>,
}

impl<K: Eq, A> HashGroup<K, A> {
    /// An empty group that holds `cap` distinct keys without growing: the
    /// index gets the first power of two strictly above `2 · cap` (16 at
    /// least), so the `cap`-th insert still leaves it under half full.
    /// Callers size it from what the task already holds (DESIGN.md §8
    /// "Combine").
    pub(crate) fn with_capacity(cap: usize) -> Self {
        let slots = (cap.max(4) * 2 + 1).next_power_of_two();
        HashGroup {
            entries: Vec::with_capacity(cap),
            table: empty_index(slots),
        }
    }

    /// Distinct keys inserted so far.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Index of the slot holding `key`, or the empty slot where it would
    /// be inserted.
    fn probe(&self, hash: u64, key: &K) -> usize {
        let mask = self.table.len() - 1;
        let mut slot = home(hash, mask);
        loop {
            let e = self.table[slot];
            if e == EMPTY {
                return slot;
            }
            let (h, k, _) = &self.entries[e as usize];
            if *h == hash && k == key {
                return slot;
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Doubles the index and re-threads every entry through its stored
    /// hash (entry order — and therefore iteration order — is untouched).
    fn grow(&mut self) {
        let mut table = empty_index(self.table.len() * 2);
        let mask = table.len() - 1;
        for (i, (h, _, _)) in self.entries.iter().enumerate() {
            let mut slot = home(*h, mask);
            while table[slot] != EMPTY {
                slot = (slot + 1) & mask;
            }
            table[slot] = i as u32;
        }
        pool::give_vec(std::mem::replace(&mut self.table, table));
    }

    fn insert_at(&mut self, slot: usize, hash: u64, key: K, acc: A) {
        self.table[slot] = self.entries.len() as u32;
        self.entries.push((hash, key, acc));
        // Load factor 1/2: linear probing inspects 1.5 slots per hit on average.
        if self.entries.len() * 2 >= self.table.len() {
            self.grow();
        }
    }

    /// Merges `arg` into `key`'s accumulator, creating it with `insert`
    /// on first sight (the key is cloned only then). Returns `true` when
    /// an existing accumulator was merged into.
    pub(crate) fn upsert<Q>(
        &mut self,
        hash: u64,
        key: &K,
        arg: Q,
        insert: impl FnOnce(Q) -> A,
        merge: impl FnOnce(&mut A, Q),
    ) -> bool
    where
        K: Clone,
    {
        let slot = self.probe(hash, key);
        match self.table[slot] {
            EMPTY => {
                self.insert_at(slot, hash, key.clone(), insert(arg));
                false
            }
            e => {
                merge(&mut self.entries[e as usize].2, arg);
                true
            }
        }
    }

    /// Like [`upsert`](Self::upsert) for an owned key: consumed on
    /// insertion, dropped on merge — the reduce side never clones keys.
    pub(crate) fn upsert_owned<Q>(
        &mut self,
        hash: u64,
        key: K,
        arg: Q,
        insert: impl FnOnce(Q) -> A,
        merge: impl FnOnce(&mut A, Q),
    ) -> bool {
        let slot = self.probe(hash, &key);
        match self.table[slot] {
            EMPTY => {
                self.insert_at(slot, hash, key, insert(arg));
                false
            }
            e => {
                merge(&mut self.entries[e as usize].2, arg);
                true
            }
        }
    }

    /// Where `key`'s entry sits, if present (the join probe side). Entries
    /// never move, so the position stays good for the life of the group.
    pub(crate) fn find(&self, hash: u64, key: &K) -> Option<usize> {
        match self.table[self.probe(hash, key)] {
            EMPTY => None,
            e => Some(e as usize),
        }
    }

    /// The accumulator at a position [`find`](Self::find) returned.
    pub(crate) fn acc_mut(&mut self, at: usize) -> &mut A {
        &mut self.entries[at].2
    }

    /// Entries as `(hash, key, accumulator)` in first-insertion order —
    /// the map side re-derives each entry's shuffle bucket from the
    /// stored hash without rehashing.
    pub(crate) fn entries(&self) -> impl Iterator<Item = &(u64, K, A)> {
        self.entries.iter()
    }

    /// Consumes the group, yielding `(key, accumulator)` pairs in
    /// first-insertion order.
    pub(crate) fn into_pairs(mut self) -> impl Iterator<Item = (K, A)> {
        std::mem::take(&mut self.entries).into_iter().map(|(_, k, a)| (k, a))
    }
}

impl<K, A> Drop for HashGroup<K, A> {
    /// Gives the index back to the thread's pool.
    fn drop(&mut self) {
        pool::give_vec(std::mem::take(&mut self.table));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splitserve_rt::hash::shuffle_hash;

    fn get(g: &mut HashGroup<u64, u64>, hash: u64, key: u64) -> Option<u64> {
        g.find(hash, &key).map(|at| *g.acc_mut(at))
    }

    fn count_all(keys: &[u64]) -> HashGroup<u64, u64> {
        let mut g = HashGroup::with_capacity(4);
        for k in keys {
            g.upsert(shuffle_hash(k), k, 1u64, |n| n, |a, n| *a += n);
        }
        g
    }

    #[test]
    fn groups_and_counts() {
        let mut g = count_all(&[3, 1, 3, 2, 1, 3]);
        assert_eq!(g.len(), 3);
        assert_eq!(get(&mut g, shuffle_hash(&3u64), 3), Some(3));
        assert_eq!(get(&mut g, shuffle_hash(&1u64), 1), Some(2));
        assert_eq!(get(&mut g, shuffle_hash(&9u64), 9), None);
    }

    #[test]
    fn iteration_is_first_insertion_order() {
        let g = count_all(&[5, 2, 9, 2, 5, 7]);
        let keys: Vec<u64> = g.into_pairs().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![5, 2, 9, 7]);
    }

    #[test]
    fn growth_preserves_entries_and_order() {
        let keys: Vec<u64> = (0..10_000).map(|i| i % 997).collect();
        let g = count_all(&keys);
        assert_eq!(g.len(), 997);
        let drained: Vec<(u64, u64)> = g.into_pairs().collect();
        // First-insertion order of i % 997 is 0, 1, 2, …
        for (i, (k, n)) in drained.iter().enumerate() {
            assert_eq!(*k, i as u64);
            let expect = 10_000 / 997 + u64::from((i as u64) < 10_000 % 997);
            assert_eq!(*n, expect, "key {k}");
        }
    }

    /// `with_capacity(n)` is a promise: `n` distinct keys never re-thread
    /// the index — including the `n` for which `2n` is itself a power of
    /// two (8, 512, 2048, …), where the `n`-th insert reaches half load —
    /// and the index it takes is never more than needed for that.
    #[test]
    fn with_capacity_holds_its_capacity_without_growing() {
        let mut grows = 0;
        for n in 1..=4096u64 {
            let mut g: HashGroup<u64, ()> = HashGroup::with_capacity(n as usize);
            let (slots, n2) = (g.table.len(), 2 * n as usize);
            assert!(slots > n2 && (slots <= 2 * n2 || slots == 16), "{n}: {slots} slots");
            for k in 0..n {
                g.upsert(shuffle_hash(&k), &k, (), |()| (), |(), ()| ());
            }
            assert_eq!(g.len(), n as usize);
            grows += usize::from(g.table.len() != slots);
        }
        assert_eq!(grows, 0, "capacities that re-threaded before holding n keys");
    }

    /// Mean slots a successful lookup inspects, read off the index: an
    /// entry `d` slots past its home slot takes `d + 1`.
    fn mean_probes<A>(g: &HashGroup<u64, A>) -> f64 {
        let mask = g.table.len() - 1;
        let steps: usize = (0..g.table.len())
            .filter(|&slot| g.table[slot] != EMPTY)
            .map(|slot| {
                let (h, _, _) = &g.entries[g.table[slot] as usize];
                (slot.wrapping_sub(home(*h, mask)) & mask) + 1
            })
            .sum();
        steps as f64 / g.len() as f64
    }

    /// One reduce task of a 64-wide shuffle only sees keys with
    /// `shuffle_hash(k) % 64` equal to its partition. Filled to the load
    /// bound, its table must probe like one fed unfiltered keys, which a
    /// home slot taken from the low bits those keys share cannot: only
    /// every 64th slot would be a home. Linear probing at load `α`
    /// inspects `(1 + 1/(1 − α)) / 2` slots per successful lookup on
    /// average, 1.5 at `α = ½`; the bound adds 0.05 for the spread of
    /// 2 047 keys about that mean.
    #[test]
    fn one_reduce_partitions_keys_probe_like_any_keys() {
        const N: usize = 2047;
        let fill = |keys: &mut dyn Iterator<Item = u64>| {
            let mut g: HashGroup<u64, ()> = HashGroup::with_capacity(N);
            for k in keys.take(N) {
                g.upsert(shuffle_hash(&k), &k, (), |()| (), |(), ()| ());
            }
            assert_eq!((g.len(), g.table.len()), (N, 4096), "filled to the load bound");
            mean_probes(&g)
        };
        let any = fill(&mut (0u64..));
        let one_partition = fill(&mut (0u64..).filter(|k| shuffle_hash(k) % 64 == 5));
        assert!(any <= 1.55, "unfiltered keys: {any:.3} probes per lookup");
        assert!(
            one_partition <= 1.55 && (one_partition - any).abs() <= 0.1,
            "one reduce partition's keys: {one_partition:.3} probes per lookup, \
             unfiltered {any:.3}"
        );
    }

    /// A group built on an index recycled from a larger, full one starts
    /// all-`EMPTY` and groups and iterates exactly like one built on
    /// fresh memory. The recycling runs on a thread of its own, whose pool
    /// starts empty.
    #[test]
    fn a_recycled_index_starts_empty_and_keeps_insertion_order() {
        let keys = [5u64, 2, 9, 2, 5, 7, 11, 2];
        let fresh: Vec<(u64, u64)> = count_all(&keys).into_pairs().collect();
        std::thread::spawn(move || {
            let big: Vec<u64> = (0..4_000).collect();
            let mut g: HashGroup<u64, u64> = HashGroup::with_capacity(big.len());
            for k in &big {
                g.upsert(shuffle_hash(k), k, 1, |n| n, |a, n| *a += n);
            }
            let (big_slots, big_index) = (g.table.len(), g.table.as_ptr() as usize);
            drop(g);
            let g: HashGroup<u64, u64> = HashGroup::with_capacity(4);
            assert_eq!(g.table.as_ptr() as usize, big_index, "the big index came back");
            assert!(g.table.len() < big_slots);
            assert!(g.table.iter().all(|&e| e == EMPTY), "recycled slots start empty");
            drop(g);
            let recycled: Vec<(u64, u64)> = count_all(&keys).into_pairs().collect();
            assert_eq!(recycled, fresh);
        })
        .join()
        .expect("test thread");
    }

    #[test]
    fn colliding_hashes_stay_distinct_keys() {
        // Force every key onto one slot chain: correctness must come from
        // key equality, not the hash.
        let mut g: HashGroup<u64, u64> = HashGroup::with_capacity(8);
        for k in 0..64u64 {
            g.upsert(7, &k, 1, |n| n, |a, n| *a += n);
            g.upsert(7, &k, 1, |n| n, |a, n| *a += n);
        }
        assert_eq!(g.len(), 64);
        for k in 0..64u64 {
            assert_eq!(get(&mut g, 7, k), Some(2));
        }
    }

    #[test]
    fn upsert_owned_consumes_keys_without_clone() {
        // String is Clone, but upsert_owned must work without invoking it:
        // verified indirectly by moving the keys in.
        let mut g: HashGroup<String, Vec<u32>> = HashGroup::with_capacity(2);
        for (k, v) in [("a", 1u32), ("b", 2), ("a", 3)] {
            g.upsert_owned(
                shuffle_hash(k),
                k.to_string(),
                v,
                |v| vec![v],
                |acc, v| acc.push(v),
            );
        }
        assert_eq!(g.len(), 2);
        let pairs: Vec<(String, Vec<u32>)> = g.into_pairs().collect();
        assert_eq!(pairs[0], ("a".to_string(), vec![1, 3]));
        assert_eq!(pairs[1], ("b".to_string(), vec![2]));
    }
}

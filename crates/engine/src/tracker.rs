//! The map-output tracker: which executor wrote each shuffle block and how
//! big the per-reduce buckets are — the driver-side metadata Spark keeps in
//! `MapOutputTracker`.

use splitserve_rt::FastMap;

use crate::executor::ExecutorId;
use crate::node::ShuffleId;

/// What the tracker holds for one shuffle: two allocations, however many
/// map tasks register.
#[derive(Debug)]
struct MapOutputs {
    /// The executor holding each map partition's blocks (its block-store
    /// directory prefix); `None` until the map registers, and again once
    /// its output is lost.
    writers: Vec<Option<ExecutorId>>,
    /// Serialized bytes per reduce bucket, one row of `reduces` per map,
    /// row-major. A row means something only while its map has a writer;
    /// zero-sized buckets were not written and must not be fetched.
    sizes: Vec<u64>,
    /// Reduce partitions: the length of a row.
    reduces: usize,
    /// Maps with a writer; the shuffle is complete when every map has one.
    registered: usize,
    /// Registered by more than one job since the tracker last forgot it.
    shared: bool,
}

impl MapOutputs {
    fn row(&self, map: usize) -> &[u64] {
        &self.sizes[map * self.reduces..][..self.reduces]
    }

    /// Drops map `map`'s output, reporting whether it had one.
    fn unregister(&mut self, map: usize) -> bool {
        let lost = self.writers[map].take().is_some();
        self.registered -= usize::from(lost);
        lost
    }
}

/// Driver-side shuffle metadata.
///
/// Entries last as long as the scheduler keeps them: it forgets a shuffle
/// ([`MapOutputTracker::forget_shuffle`]) once no live job and no
/// caller-held `Dataset` can reach the shuffle's dependency any more.
#[derive(Debug, Default)]
pub(crate) struct MapOutputTracker {
    shuffles: FastMap<ShuffleId, MapOutputs>,
}

impl MapOutputTracker {
    /// An empty tracker.
    pub(crate) fn new() -> Self {
        MapOutputTracker::default()
    }

    /// Registers a shuffle of `maps` map partitions into `reduces` reduce
    /// partitions. Registering a known shuffle again keeps its outputs and
    /// marks it [shared](MapOutputTracker::is_shared).
    pub(crate) fn register_shuffle(&mut self, id: ShuffleId, maps: usize, reduces: usize) {
        self.shuffles
            .entry(id)
            .and_modify(|outputs| outputs.shared = true)
            .or_insert_with(|| MapOutputs {
                writers: vec![None; maps],
                sizes: vec![0; maps * reduces],
                reduces,
                registered: 0,
                shared: false,
            });
    }

    /// Whether shuffle `id` was registered more than once since it was
    /// last forgotten — by two jobs over one `Dataset`, whose map tasks
    /// may then register outputs the other job still has queued.
    pub(crate) fn is_shared(&self, id: ShuffleId) -> bool {
        self.shuffles.get(&id).is_some_and(|outputs| outputs.shared)
    }

    /// Drops everything known about shuffle `id`; registering it again
    /// starts from no outputs.
    pub(crate) fn forget_shuffle(&mut self, id: ShuffleId) {
        self.shuffles.remove(&id);
    }

    /// Number of shuffles currently tracked.
    pub(crate) fn shuffle_count(&self) -> usize {
        self.shuffles.len()
    }

    /// Records that `executor` holds map task `map`'s output, with `sizes`
    /// the serialized bytes of its buckets in reduce order.
    ///
    /// # Panics
    ///
    /// Panics if the shuffle or map index is unknown, or `sizes` does not
    /// hold one entry per reduce partition.
    pub(crate) fn register_output(
        &mut self,
        id: ShuffleId,
        map: usize,
        executor: ExecutorId,
        sizes: impl ExactSizeIterator<Item = u64>,
    ) {
        let Some(outputs) = self.shuffles.get_mut(&id) else {
            panic!("unknown shuffle {id}");
        };
        assert_eq!(sizes.len(), outputs.reduces, "one size per reduce partition");
        let reduces = outputs.reduces;
        let row = &mut outputs.sizes[map * reduces..][..reduces];
        row.iter_mut().zip(sizes).for_each(|(slot, size)| *slot = size);
        if outputs.writers[map].replace(executor).is_none() {
            outputs.registered += 1;
        }
    }

    /// Map partitions of `id` with registered output (0 for an unknown
    /// shuffle).
    pub(crate) fn registered(&self, id: ShuffleId) -> usize {
        self.shuffles.get(&id).map_or(0, |outputs| outputs.registered)
    }

    /// Whether every map partition of `id` has registered output.
    pub(crate) fn is_complete(&self, id: ShuffleId) -> bool {
        self.shuffles
            .get(&id)
            .is_some_and(|outputs| outputs.registered == outputs.writers.len())
    }

    /// Map partitions of `id` with no (surviving) output, ascending (none
    /// for an unknown shuffle).
    pub(crate) fn missing(&self, id: ShuffleId) -> impl Iterator<Item = usize> + '_ {
        self.shuffles
            .get(&id)
            .into_iter()
            .flat_map(|outputs| outputs.writers.iter().enumerate())
            .filter(|(_, writer)| writer.is_none())
            .map(|(map, _)| map)
    }

    /// Appends the non-empty blocks a reduce task for partition `reduce`
    /// must fetch onto `plan` as `(shuffle, map_index, writer, size)`, in
    /// map order (`plan` is the caller's task-scoped fetch plan).
    ///
    /// # Panics
    ///
    /// Panics if the shuffle is unknown or incomplete — stages are only
    /// launched once their parents finished, so this is an engine
    /// invariant.
    pub(crate) fn inputs_for_reduce_into(
        &self,
        id: ShuffleId,
        reduce: usize,
        plan: &mut Vec<(ShuffleId, usize, ExecutorId, u64)>,
    ) {
        assert!(self.is_complete(id), "shuffle {id} is unknown or incomplete");
        let outputs = &self.shuffles[&id];
        plan.reserve(outputs.writers.len());
        for (map, writer) in outputs.writers.iter().enumerate() {
            let size = outputs.row(map)[reduce];
            if let (Some(writer), true) = (writer, size > 0) {
                plan.push((id, map, *writer, size));
            }
        }
    }

    /// Whether `executor` currently holds any registered output of shuffle
    /// `id` — i.e. whether losing it would leave the shuffle incomplete.
    pub(crate) fn has_outputs_from(&self, id: ShuffleId, executor: &ExecutorId) -> bool {
        self.shuffles
            .get(&id)
            .is_some_and(|outputs| outputs.writers.contains(&Some(*executor)))
    }

    /// Forgets every output written by `executor` (its local blocks died
    /// with it). Returns the shuffles that lost outputs, with how many.
    pub(crate) fn unregister_executor(&mut self, executor: &ExecutorId) -> Vec<(ShuffleId, usize)> {
        let mut affected = Vec::new();
        for (id, outputs) in &mut self.shuffles {
            let mut lost = 0;
            for map in 0..outputs.writers.len() {
                if outputs.writers[map] == Some(*executor) && outputs.unregister(map) {
                    lost += 1;
                }
            }
            if lost > 0 {
                affected.push((*id, lost));
            }
        }
        affected.sort_by_key(|(id, _)| *id);
        affected
    }

    /// Forgets one map output (after a fetch failure pinpointed it).
    pub(crate) fn unregister_output(&mut self, id: ShuffleId, map: usize) {
        if let Some(outputs) = self.shuffles.get_mut(&id) {
            outputs.unregister(map);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl MapOutputTracker {
        /// Total bytes registered for shuffle `id` (for metrics).
        fn shuffle_bytes(&self, id: ShuffleId) -> u64 {
            self.shuffles.get(&id).map_or(0, |outputs| {
                (0..outputs.writers.len())
                    .filter(|&map| outputs.writers[map].is_some())
                    .map(|map| outputs.row(map).iter().sum::<u64>())
                    .sum()
            })
        }

        /// `true` if the shuffle is known.
        fn has_shuffle(&self, id: ShuffleId) -> bool {
            self.shuffles.contains_key(&id)
        }
    }

    fn register(t: &mut MapOutputTracker, s: ShuffleId, map: usize, exec: &str, sizes: &[u64]) {
        t.register_output(s, map, ExecutorId::new(exec), sizes.iter().copied());
    }

    fn inputs(t: &MapOutputTracker, s: ShuffleId, reduce: usize) -> Vec<(usize, &'static str, u64)> {
        let mut plan = Vec::new();
        t.inputs_for_reduce_into(s, reduce, &mut plan);
        assert!(plan.iter().all(|(id, ..)| *id == s));
        plan.into_iter()
            .map(|(_, map, writer, size)| (map, writer.as_str(), size))
            .collect()
    }

    #[test]
    fn completeness_tracking() {
        let mut t = MapOutputTracker::new();
        let s = ShuffleId(1);
        t.register_shuffle(s, 3, 2);
        assert!(!t.is_complete(s));
        assert_eq!(t.registered(s), 0);
        assert_eq!(t.missing(s).collect::<Vec<_>>(), vec![0, 1, 2]);
        register(&mut t, s, 0, "e1", &[10, 0]);
        register(&mut t, s, 2, "e2", &[5, 5]);
        assert_eq!(t.registered(s), 2);
        assert_eq!(t.missing(s).collect::<Vec<_>>(), vec![1]);
        register(&mut t, s, 1, "e1", &[0, 7]);
        assert!(t.is_complete(s));
        assert_eq!(t.registered(s), 3);
    }

    #[test]
    fn re_registering_a_map_overwrites_its_row_and_counts_it_once() {
        let mut t = MapOutputTracker::new();
        let s = ShuffleId(1);
        t.register_shuffle(s, 2, 2);
        register(&mut t, s, 0, "e1", &[3, 4]);
        register(&mut t, s, 0, "e2", &[5, 0]);
        assert_eq!(t.registered(s), 1);
        assert_eq!(t.shuffle_bytes(s), 5);
        register(&mut t, s, 1, "e1", &[0, 1]);
        assert!(t.is_complete(s));
        assert_eq!(inputs(&t, s, 0), vec![(0, "e2", 5)]);
        assert_eq!(inputs(&t, s, 1), vec![(1, "e1", 1)]);
    }

    #[test]
    fn unregistering_an_output_uncounts_it_once() {
        let mut t = MapOutputTracker::new();
        let s = ShuffleId(1);
        t.register_shuffle(s, 2, 1);
        register(&mut t, s, 0, "e1", &[4]);
        register(&mut t, s, 1, "e1", &[6]);
        assert!(t.is_complete(s));
        t.unregister_output(s, 1);
        t.unregister_output(s, 1); // already gone: no double count
        t.unregister_output(ShuffleId(9), 0); // unknown shuffle: a no-op
        assert_eq!(t.registered(s), 1);
        assert!(!t.is_complete(s));
        assert_eq!(t.missing(s).collect::<Vec<_>>(), vec![1]);
        assert_eq!(t.shuffle_bytes(s), 4, "a lost row's bytes stop counting");
        register(&mut t, s, 1, "e2", &[2]);
        assert!(t.is_complete(s));
        assert_eq!(t.shuffle_bytes(s), 6);
    }

    #[test]
    fn register_shuffle_is_idempotent() {
        let mut t = MapOutputTracker::new();
        let s = ShuffleId(1);
        t.register_shuffle(s, 2, 1);
        register(&mut t, s, 0, "e1", &[1]);
        assert!(!t.is_shared(s));
        t.register_shuffle(s, 2, 1); // must not wipe
        assert_eq!(t.missing(s).collect::<Vec<_>>(), vec![1]);
        assert_eq!(t.registered(s), 1);
        assert!(t.is_shared(s), "a second registration marks it shared");
    }

    #[test]
    fn forgotten_shuffle_starts_over() {
        let mut t = MapOutputTracker::new();
        let s = ShuffleId(4);
        t.register_shuffle(s, 1, 1);
        register(&mut t, s, 0, "e1", &[1]);
        t.register_shuffle(s, 1, 1);
        assert_eq!(t.shuffle_count(), 1);
        t.forget_shuffle(s);
        assert!(!t.has_shuffle(s) && !t.is_complete(s) && !t.is_shared(s));
        assert_eq!(t.shuffle_count(), 0);
        assert_eq!((t.registered(s), t.shuffle_bytes(s)), (0, 0));
        t.register_shuffle(s, 1, 1);
        assert_eq!(t.missing(s).collect::<Vec<_>>(), vec![0]);
        assert!(!t.is_shared(s));
    }

    #[test]
    fn reduce_inputs_skip_empty_buckets() {
        let mut t = MapOutputTracker::new();
        let s = ShuffleId(0);
        t.register_shuffle(s, 2, 2);
        register(&mut t, s, 0, "e1", &[10, 0]);
        register(&mut t, s, 1, "e2", &[0, 20]);
        assert_eq!(inputs(&t, s, 0), vec![(0, "e1", 10)]);
        assert_eq!(inputs(&t, s, 1), vec![(1, "e2", 20)]);
        // Appends after what the plan already holds.
        let mut plan = vec![(ShuffleId(7), 3, ExecutorId::new("e9"), 1)];
        t.inputs_for_reduce_into(s, 1, &mut plan);
        assert_eq!(plan[1..], [(s, 1, ExecutorId::new("e2"), 20)]);
        assert_eq!(t.shuffle_bytes(s), 30);
    }

    #[test]
    fn executor_loss_invalidates_only_its_outputs() {
        let mut t = MapOutputTracker::new();
        let s1 = ShuffleId(1);
        let s2 = ShuffleId(2);
        t.register_shuffle(s1, 2, 1);
        t.register_shuffle(s2, 1, 1);
        register(&mut t, s1, 0, "dead", &[1]);
        register(&mut t, s1, 1, "alive", &[2]);
        register(&mut t, s2, 0, "dead", &[3]);
        let dead = ExecutorId::new("dead");
        assert!(t.has_outputs_from(s1, &dead));
        let affected = t.unregister_executor(&dead);
        assert_eq!(affected, vec![(s1, 1), (s2, 1)]);
        assert!(!t.has_outputs_from(s1, &dead) && !t.has_outputs_from(s2, &dead));
        assert_eq!(t.missing(s1).collect::<Vec<_>>(), vec![0]);
        assert!(!t.is_complete(s2));
        assert!(!t.is_complete(s1));
        // Survivor intact, and the counts follow the loss.
        assert_eq!((t.registered(s1), t.registered(s2)), (1, 0));
        assert_eq!((t.shuffle_bytes(s1), t.shuffle_bytes(s2)), (2, 0));
        assert!(t.unregister_executor(&dead).is_empty(), "nothing left to lose");
    }

    #[test]
    #[should_panic(expected = "incomplete")]
    fn reduce_inputs_on_incomplete_shuffle_panics() {
        let mut t = MapOutputTracker::new();
        let s = ShuffleId(3);
        t.register_shuffle(s, 1, 1);
        t.inputs_for_reduce_into(s, 0, &mut Vec::new());
    }
}

//! The map-output tracker: which executor wrote each shuffle block and how
//! big the per-reduce buckets are — the driver-side metadata Spark keeps in
//! `MapOutputTracker`.

use splitserve_rt::FastMap;

use crate::executor::ExecutorId;
use crate::node::ShuffleId;

/// The record a completed map task registers: who holds its output and the
/// serialized size of each reduce bucket.
#[derive(Debug, Clone, PartialEq)]
pub struct MapStatus {
    /// Executor that wrote the blocks (block-store directory prefix).
    pub executor: ExecutorId,
    /// Serialized bytes per reduce partition; zero-sized buckets were not
    /// written and must not be fetched.
    pub sizes: Vec<u64>,
}

/// Driver-side shuffle metadata.
///
/// Entries last as long as the scheduler keeps them: it forgets a shuffle
/// ([`MapOutputTracker::forget_shuffle`]) once no live job and no
/// caller-held `Dataset` can reach the shuffle's dependency any more.
#[derive(Debug, Default)]
pub struct MapOutputTracker {
    shuffles: FastMap<ShuffleId, Vec<Option<MapStatus>>>,
}

impl MapOutputTracker {
    /// An empty tracker.
    pub fn new() -> Self {
        MapOutputTracker::default()
    }

    /// Registers a shuffle with `maps` map partitions (idempotent).
    pub fn register_shuffle(&mut self, id: ShuffleId, maps: usize) {
        self.shuffles.entry(id).or_insert_with(|| vec![None; maps]);
    }

    /// `true` if the shuffle is known.
    pub fn has_shuffle(&self, id: ShuffleId) -> bool {
        self.shuffles.contains_key(&id)
    }

    /// Drops everything known about shuffle `id`; registering it again
    /// starts from no outputs.
    pub fn forget_shuffle(&mut self, id: ShuffleId) {
        self.shuffles.remove(&id);
    }

    /// Number of shuffles currently tracked.
    pub fn shuffle_count(&self) -> usize {
        self.shuffles.len()
    }

    /// Records a completed map task's output.
    ///
    /// # Panics
    ///
    /// Panics if the shuffle or map index is unknown.
    pub fn register_output(&mut self, id: ShuffleId, map: usize, status: MapStatus) {
        let maps = self
            .shuffles
            .get_mut(&id)
            .unwrap_or_else(|| panic!("unknown shuffle {id}"));
        maps[map] = Some(status);
    }

    /// Whether every map partition of `id` has registered output.
    pub fn is_complete(&self, id: ShuffleId) -> bool {
        self.shuffles
            .get(&id)
            .is_some_and(|m| m.iter().all(Option::is_some))
    }

    /// Map partitions of `id` with no (surviving) output, ascending (none
    /// for an unknown shuffle).
    pub fn missing(&self, id: ShuffleId) -> impl Iterator<Item = usize> + '_ {
        self.shuffles
            .get(&id)
            .into_iter()
            .flat_map(|m| m.iter().enumerate())
            .filter(|(_, s)| s.is_none())
            .map(|(i, _)| i)
    }

    /// The non-empty blocks a reduce task for partition `reduce` must
    /// fetch: `(map_index, writer, size)` triples.
    ///
    /// # Panics
    ///
    /// Panics if the shuffle is incomplete — stages are only launched once
    /// their parents finished, so this is an engine invariant.
    pub fn inputs_for_reduce(&self, id: ShuffleId, reduce: usize) -> Vec<(usize, ExecutorId, u64)> {
        let maps = self
            .shuffles
            .get(&id)
            .unwrap_or_else(|| panic!("unknown shuffle {id}"));
        maps.iter()
            .enumerate()
            .map(|(m, s)| {
                let s = s
                    .as_ref()
                    .unwrap_or_else(|| panic!("shuffle {id} map {m} incomplete"));
                (m, s.executor, s.sizes[reduce])
            })
            .filter(|(_, _, size)| *size > 0)
            .collect()
    }

    /// Appends the non-empty blocks a reduce task for partition `reduce`
    /// must fetch onto `plan` as `(shuffle, map_index, writer, size)` —
    /// the allocation-free form of [`inputs_for_reduce`] the dispatch hot
    /// path uses (`plan` is the caller's task-scoped fetch plan).
    ///
    /// # Panics
    ///
    /// Panics if the shuffle is incomplete, like [`inputs_for_reduce`].
    ///
    /// [`inputs_for_reduce`]: MapOutputTracker::inputs_for_reduce
    pub fn inputs_for_reduce_into(
        &self,
        id: ShuffleId,
        reduce: usize,
        plan: &mut Vec<(ShuffleId, usize, ExecutorId, u64)>,
    ) {
        let maps = self
            .shuffles
            .get(&id)
            .unwrap_or_else(|| panic!("unknown shuffle {id}"));
        plan.reserve(maps.len());
        for (m, s) in maps.iter().enumerate() {
            let s = s
                .as_ref()
                .unwrap_or_else(|| panic!("shuffle {id} map {m} incomplete"));
            let size = s.sizes[reduce];
            if size > 0 {
                plan.push((id, m, s.executor, size));
            }
        }
    }

    /// Whether `executor` currently holds any registered output of shuffle
    /// `id` — i.e. whether losing it would leave the shuffle incomplete.
    pub fn has_outputs_from(&self, id: ShuffleId, executor: &ExecutorId) -> bool {
        self.shuffles.get(&id).is_some_and(|maps| {
            maps.iter()
                .flatten()
                .any(|s| &s.executor == executor)
        })
    }

    /// Forgets every output written by `executor` (its local blocks died
    /// with it). Returns the shuffles that lost outputs, with how many.
    pub fn unregister_executor(&mut self, executor: &ExecutorId) -> Vec<(ShuffleId, usize)> {
        let mut affected = Vec::new();
        for (id, maps) in &mut self.shuffles {
            let mut lost = 0;
            for slot in maps.iter_mut() {
                if slot.as_ref().is_some_and(|s| &s.executor == executor) {
                    *slot = None;
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
    pub fn unregister_output(&mut self, id: ShuffleId, map: usize) {
        if let Some(maps) = self.shuffles.get_mut(&id) {
            maps[map] = None;
        }
    }

    /// Total bytes registered for shuffle `id` (for metrics).
    pub fn shuffle_bytes(&self, id: ShuffleId) -> u64 {
        self.shuffles
            .get(&id)
            .map(|maps| {
                maps.iter()
                    .flatten()
                    .flat_map(|s| s.sizes.iter())
                    .sum::<u64>()
            })
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn status(exec: &str, sizes: Vec<u64>) -> MapStatus {
        MapStatus {
            executor: ExecutorId::new(exec),
            sizes,
        }
    }

    #[test]
    fn completeness_tracking() {
        let mut t = MapOutputTracker::new();
        let s = ShuffleId(1);
        t.register_shuffle(s, 3);
        assert!(!t.is_complete(s));
        assert_eq!(t.missing(s).collect::<Vec<_>>(), vec![0, 1, 2]);
        t.register_output(s, 0, status("e1", vec![10, 0]));
        t.register_output(s, 2, status("e2", vec![5, 5]));
        assert_eq!(t.missing(s).collect::<Vec<_>>(), vec![1]);
        t.register_output(s, 1, status("e1", vec![0, 7]));
        assert!(t.is_complete(s));
    }

    #[test]
    fn register_shuffle_is_idempotent() {
        let mut t = MapOutputTracker::new();
        let s = ShuffleId(1);
        t.register_shuffle(s, 2);
        t.register_output(s, 0, status("e1", vec![1]));
        t.register_shuffle(s, 2); // must not wipe
        assert_eq!(t.missing(s).collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn forgotten_shuffle_starts_over() {
        let mut t = MapOutputTracker::new();
        let s = ShuffleId(4);
        t.register_shuffle(s, 1);
        t.register_output(s, 0, status("e1", vec![1]));
        assert_eq!(t.shuffle_count(), 1);
        t.forget_shuffle(s);
        assert!(!t.has_shuffle(s) && !t.is_complete(s));
        assert_eq!(t.shuffle_count(), 0);
        t.register_shuffle(s, 1);
        assert_eq!(t.missing(s).collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn reduce_inputs_skip_empty_buckets() {
        let mut t = MapOutputTracker::new();
        let s = ShuffleId(0);
        t.register_shuffle(s, 2);
        t.register_output(s, 0, status("e1", vec![10, 0]));
        t.register_output(s, 1, status("e2", vec![0, 20]));
        let r0 = t.inputs_for_reduce(s, 0);
        assert_eq!(r0, vec![(0, ExecutorId::new("e1"), 10)]);
        let r1 = t.inputs_for_reduce(s, 1);
        assert_eq!(r1, vec![(1, ExecutorId::new("e2"), 20)]);
        let mut plan = Vec::new();
        t.inputs_for_reduce_into(s, 1, &mut plan);
        assert_eq!(plan, vec![(s, 1, ExecutorId::new("e2"), 20)]);
        assert_eq!(t.shuffle_bytes(s), 30);
    }

    #[test]
    fn executor_loss_invalidates_only_its_outputs() {
        let mut t = MapOutputTracker::new();
        let s1 = ShuffleId(1);
        let s2 = ShuffleId(2);
        t.register_shuffle(s1, 2);
        t.register_shuffle(s2, 1);
        t.register_output(s1, 0, status("dead", vec![1]));
        t.register_output(s1, 1, status("alive", vec![1]));
        t.register_output(s2, 0, status("dead", vec![1]));
        let affected = t.unregister_executor(&ExecutorId::new("dead"));
        assert_eq!(affected, vec![(s1, 1), (s2, 1)]);
        assert_eq!(t.missing(s1).collect::<Vec<_>>(), vec![0]);
        assert!(!t.is_complete(s2));
        assert!(!t.is_complete(s1));
        // Survivor intact.
        assert_eq!(t.missing(s1).count(), 1);
    }

    #[test]
    #[should_panic(expected = "incomplete")]
    fn reduce_inputs_on_incomplete_shuffle_panics() {
        let mut t = MapOutputTracker::new();
        let s = ShuffleId(3);
        t.register_shuffle(s, 1);
        t.inputs_for_reduce(s, 0);
    }
}

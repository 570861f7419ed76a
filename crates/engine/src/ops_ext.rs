//! Extended operator library: aggregations, distinct, co-group and a
//! range-partitioned sort — the rest of the RDD API surface a Spark user
//! would expect, built on the same shuffle machinery as `ops`.

use splitserve_rt::hash::shuffle_hash;

use std::sync::Arc;

use crate::combine::HashGroup;
use crate::ops::{decode_stream, fetched_records, wide, Dataset, ShuffleKey, ShuffleValue};

/// The output of [`Dataset::cogroup`]: per key, the full value lists from
/// both sides.
pub(crate) type Cogrouped<K, V, W> = Dataset<(K, (Vec<V>, Vec<W>))>;

impl<T: Clone + Send + Sync + 'static> Dataset<T> {
    /// Counts all records (runs when the job executes; the count arrives
    /// as the single record of the single result partition).
    pub fn count(&self) -> Dataset<u64> {
        self.map(|_| (0u8, 1u64))
            .collect_into_single(|acc, n| acc + n, 0)
    }
}

impl<T: Send + Sync + 'static> Dataset<(u8, T)> {
    /// Internal helper: single-partition fold via one shuffle. Exposed
    /// through `count`/`sum_values`.
    fn collect_into_single<A>(
        &self,
        fold: impl Fn(A, T) -> A + Send + Sync + 'static,
        init: A,
    ) -> Dataset<A>
    where
        T: ShuffleValue,
        A: Clone + Send + Sync + 'static,
    {
        let dep = self.hash_shuffled(1);
        wide("fold", [dep], move |ctx, [blocks]| {
            let mut acc = init.clone();
            for (_, v) in decode_stream::<u8, T>(blocks) {
                ctx.charge_combine(1);
                acc = fold(acc, v);
            }
            vec![acc]
        })
    }
}

impl<K: ShuffleKey, V: ShuffleValue> Dataset<(K, V)> {
    /// Spark's `cogroup`: for every key present on either side, the full
    /// value lists from both datasets.
    pub fn cogroup<W: ShuffleValue>(
        &self,
        other: &Dataset<(K, W)>,
        partitions: usize,
    ) -> Cogrouped<K, V, W> {
        let left = self.hash_shuffled(partitions);
        let right = other.hash_shuffled(partitions);
        wide("cogroup", [left, right], |ctx, [lefts, rights]| {
            let expected = fetched_records::<K, V>(&lefts) + fetched_records::<K, W>(&rights);
            let mut groups: HashGroup<K, (Vec<V>, Vec<W>)> = HashGroup::with_capacity(expected);
            for (k, v) in decode_stream::<K, V>(lefts) {
                ctx.charge_combine(1);
                groups.upsert_owned(
                    shuffle_hash(&k),
                    k,
                    v,
                    |v| (vec![v], Vec::new()),
                    |a, v| a.0.push(v),
                );
            }
            for (k, w) in decode_stream::<K, W>(rights) {
                ctx.charge_combine(1);
                groups.upsert_owned(
                    shuffle_hash(&k),
                    k,
                    w,
                    |w| (Vec::new(), vec![w]),
                    |a, w| a.1.push(w),
                );
            }
            groups.into_pairs().collect()
        })
    }

    /// Globally sorts by key via range partitioning: partition `i` holds
    /// keys ≤ partition `i+1`'s, each partition internally sorted —
    /// Spark's `sortByKey`, the heart of CloudSort-style workloads.
    ///
    /// Range bounds are derived from a deterministic sample of the keys
    /// (provided by the caller via `bounds`, typically from
    /// [`sample_sort_bounds`]).
    pub fn sort_by_key(&self, bounds: Vec<K>) -> Dataset<(K, V)> {
        let partitions = bounds.len() + 1;
        // Range buckets instead of hash buckets; the single-pass pooled
        // encode is shared with the hash shuffles.
        let bounds = Arc::new(bounds);
        let dep = self.shuffled_by(partitions, move |k| match bounds.binary_search(k) {
            Ok(i) | Err(i) => i,
        });
        wide("sortByKey", [dep], |ctx, [blocks]| {
            let mut records: Vec<(K, V)> = decode_stream::<K, V>(blocks).collect();
            let n = records.len() as u64;
            // n log n comparison charge.
            ctx.charge_combine(n.max(1).ilog2() as u64 * n);
            records.sort_by(|a, b| a.0.cmp(&b.0));
            records
        })
    }
}

/// Derives `partitions - 1` range bounds for [`Dataset::sort_by_key`] from
/// a caller-provided key sample (deterministic: sort + equi-spaced picks).
pub fn sample_sort_bounds<K: Ord + Clone>(mut sample: Vec<K>, partitions: usize) -> Vec<K> {
    assert!(partitions > 0, "need at least one partition");
    if partitions == 1 || sample.is_empty() {
        return Vec::new();
    }
    sample.sort();
    let n = sample.len();
    (1..partitions)
        .map(|i| sample[(i * n / partitions).min(n - 1)].clone())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WorkModel;
    use crate::context::TaskContext;
    use crate::node::ShuffleDep;
    use crate::ops::tests::rows;
    use splitserve_rt::Bytes;

    impl<K: ShuffleKey, V: ShuffleValue> Dataset<(K, V)> {
        /// Distinct keys (drops values), one record per key.
        fn distinct_keys(&self, partitions: usize) -> Dataset<K> {
            self.map(|(k, _)| (k.clone(), ()))
                .reduce_by_key(partitions, |_, _| ())
                .map(|(k, _)| k.clone())
        }

        /// Spark's `aggregateByKey`: per-key fold into an accumulator type
        /// `A`, with map-side partial aggregation (`seq`) and reduce-side
        /// accumulator merging (`comb`).
        pub(crate) fn aggregate_by_key<A>(
            &self,
            partitions: usize,
            init: A,
            seq: impl Fn(&A, &V) -> A + Send + Sync + 'static,
            comb: impl Fn(&A, &A) -> A + Send + Sync + 'static,
        ) -> Dataset<(K, A)>
        where
            A: ShuffleValue,
        {
            // Map side: fold raw values into accumulators, then shuffle the
            // (K, A) pairs with combiner `comb`.
            let pre: Dataset<(K, A)> = self.map_partitions(move |ctx, records: &[(K, V)]| {
                ctx.charge_combine(records.len() as u64);
                // Group by reference: keys are cloned once per distinct key at
                // the very end, not on every record.
                let mut acc: HashGroup<&K, A> = HashGroup::with_capacity(records.len());
                for (k, v) in records {
                    acc.upsert_owned(
                        shuffle_hash(k),
                        k,
                        v,
                        |v| seq(&init, v),
                        |a, v| {
                            let m = seq(a, v);
                            *a = m;
                        },
                    );
                }
                acc.into_pairs().map(|(k, a)| (k.clone(), a)).collect()
            });
            pre.reduce_by_key(partitions, comb)
        }
    }

    /// Runs an arbitrary one-or-two-shuffle plan to completion by hand.
    fn run_plan<T: Clone + Send + Sync + 'static>(ds: &Dataset<T>) -> Vec<T> {
        // Breadth-first over stages using the engine's own builder.
        let graph = crate::stage::build_stages(ds.node());
        let mut tracker = crate::tracker::MapOutputTracker::new();
        let mut store: std::collections::HashMap<(u64, usize, usize), Bytes> =
            std::collections::HashMap::new();
        for stage in &graph.stages {
            // Stage order is topological.
            match &stage.kind {
                crate::stage::StageKind::ShuffleMap(dep) => {
                    tracker.register_shuffle(dep.id, stage.num_tasks, dep.num_partitions);
                    for part in 0..stage.num_tasks {
                        let mut c = task_ctx(&stage.input_shuffles, part, &tracker, &store);
                        let data = stage.terminal.compute(&mut c, part);
                        let buckets = (dep.partitioner)(&mut c, data);
                        let sizes = buckets.iter().map(|b| b.bytes.len() as u64);
                        let writer = crate::executor::ExecutorId::new("t");
                        tracker.register_output(dep.id, part, writer, sizes);
                        for (r, b) in buckets.into_iter().enumerate() {
                            if !b.bytes.is_empty() {
                                store.insert((dep.id.0, part, r), b.bytes);
                            }
                        }
                    }
                }
                crate::stage::StageKind::Result => {
                    let mut out = Vec::new();
                    for part in 0..stage.num_tasks {
                        let mut c = task_ctx(&stage.input_shuffles, part, &tracker, &store);
                        let data = stage.terminal.compute(&mut c, part);
                        out.extend(rows::<T>(&data).iter().cloned());
                    }
                    return out;
                }
            }
        }
        unreachable!("graph always ends in a result stage")
    }

    fn task_ctx(
        inputs: &[Arc<ShuffleDep>],
        part: usize,
        tracker: &crate::tracker::MapOutputTracker,
        store: &std::collections::HashMap<(u64, usize, usize), Bytes>,
    ) -> TaskContext {
        let mut m = splitserve_rt::FastMap::default();
        for dep in inputs {
            let mut plan = Vec::new();
            tracker.inputs_for_reduce_into(dep.id, part, &mut plan);
            let blocks: Vec<Bytes> = plan
                .into_iter()
                .map(|(_, mi, _, _)| store[&(dep.id.0, mi, part)].clone())
                .collect();
            m.insert(dep.id, blocks);
        }
        TaskContext::new(WorkModel::default(), m)
    }

    #[test]
    fn count_counts() {
        let ds = Dataset::parallelize((0..777u32).collect(), 5).filter(|x| x % 3 == 0);
        let got = run_plan(&ds.count());
        assert_eq!(got, vec![259]);
    }

    #[test]
    fn aggregate_by_key_computes_means() {
        let data: Vec<(u32, f64)> = (0..100).map(|i| (i % 4, i as f64)).collect();
        let ds = Dataset::parallelize(data.clone(), 6);
        let agg = ds.aggregate_by_key(
            3,
            (0.0f64, 0u64),
            |acc, v| (acc.0 + v, acc.1 + 1),
            |a, b| (a.0 + b.0, a.1 + b.1),
        );
        let mut got = run_plan(&agg);
        got.sort_by_key(|(k, _)| *k);
        assert_eq!(got.len(), 4);
        for (k, (sum, n)) in got {
            assert_eq!(n, 25);
            let expect: f64 = data
                .iter()
                .filter(|(kk, _)| *kk == k)
                .map(|(_, v)| v)
                .sum();
            assert!((sum - expect).abs() < 1e-9);
        }
    }

    #[test]
    fn distinct_keys_dedups() {
        let data: Vec<(u16, ())> = (0..1000).map(|i| (i % 37, ())).collect();
        let ds = Dataset::parallelize(data, 4);
        let mut got = run_plan(&ds.distinct_keys(3));
        got.sort();
        assert_eq!(got, (0..37u16).collect::<Vec<_>>());
    }

    #[test]
    fn cogroup_pairs_full_value_lists() {
        let left: Vec<(u8, u32)> = vec![(1, 10), (1, 11), (2, 20)];
        let right: Vec<(u8, String)> = vec![(1, "a".into()), (3, "c".into())];
        let l = Dataset::parallelize(left, 2);
        let r = Dataset::parallelize(right, 2);
        let mut got = run_plan(&l.cogroup(&r, 2));
        got.sort_by_key(|(k, _)| *k);
        assert_eq!(got.len(), 3);
        assert_eq!(got[0], (1, (vec![10, 11], vec!["a".into()])));
        assert_eq!(got[1], (2, (vec![20], vec![])));
        assert_eq!(got[2], (3, (vec![], vec!["c".into()])));
    }

    #[test]
    fn sort_by_key_totally_orders_across_partitions() {
        let data: Vec<(u64, u64)> = (0..2_000).map(|i| ((i * 7919) % 5_000, i)).collect();
        let ds = Dataset::parallelize(data.clone(), 8);
        let sample: Vec<u64> = data.iter().step_by(10).map(|(k, _)| *k).collect();
        let bounds = sample_sort_bounds(sample, 4);
        assert_eq!(bounds.len(), 3);
        let sorted = ds.sort_by_key(bounds);
        // run_plan concatenates partition 0..n in order: globally sorted.
        let got = run_plan(&sorted);
        assert_eq!(got.len(), 2_000);
        for w in got.windows(2) {
            assert!(w[0].0 <= w[1].0, "global order violated");
        }
        // Same multiset.
        let mut keys: Vec<u64> = got.iter().map(|(k, _)| *k).collect();
        let mut expect: Vec<u64> = data.iter().map(|(k, _)| *k).collect();
        keys.sort();
        expect.sort();
        assert_eq!(keys, expect);
    }

    #[test]
    fn sample_sort_bounds_are_monotone() {
        let bounds = sample_sort_bounds((0..100u32).rev().collect(), 5);
        assert_eq!(bounds.len(), 4);
        for w in bounds.windows(2) {
            assert!(w[0] <= w[1]);
        }
        assert!(sample_sort_bounds(Vec::<u32>::new(), 4).is_empty());
        assert!(sample_sort_bounds(vec![1u32, 2], 1).is_empty());
    }
}

//! The typed operator library: [`Dataset<T>`], whose every method builds
//! its edges and hands one closure to [`crate::node`]'s single operator
//! type.
//!
//! A stage runs as one stream (see [`crate::node`]): its source makes its
//! rows (`generate`, a wide operator's merge, `map_partitions`) or lends
//! them (`parallelize`, `cache`) in one call of the stage's sink, and each
//! narrow operator (`map`, `filter`, `flat_map`, …) passes them on one at
//! a time to that sink, with no partition in between. Operators have no
//! other output: where a partition is collected (a result task, `cache`,
//! `map_partitions`) the sink is the collecting one, and since it must
//! own a shared row a `filter` passes on, a dataset's rows are `Clone`.
//! Wide operators (`reduce_by_key`, `group_by_key`, `join`) introduce
//! [`ShuffleDep`]s: their map side is such a sink, which partitions
//! records by key hash, optionally applies map-side combine, and
//! serializes buckets with `splitserve-codec`; their reduce side
//! deserializes and merges. All transformations do *real* work on real
//! data — the context only accounts the CPU seconds, and every operator
//! charges only once its input's stream has returned, so charges land in
//! the order source, each narrow operator, sink.
//!
//! The shuffle data plane is built for throughput without giving up
//! byte-determinism (see DESIGN.md "Shuffle data plane"): keys are hashed
//! once with the fixed-seed XXH64 [`shuffle_hash`], grouping goes through
//! the insertion-ordered [`HashGroup`] instead of `BTreeMap`s, encode
//! buffers are sized exactly via [`Encode::encoded_len`] and recycled
//! through [`splitserve_rt::pool`], and the reduce side consumes blocks
//! through a streaming decoder instead of materializing them.
//!
//! Everything here is `Send + Sync` — plan nodes, partition payloads and
//! the user closures inside them — because task bodies execute on the
//! engine's worker-thread pool (see DESIGN.md "Parallel task data
//! plane").

use std::hash::Hash;
use std::marker::PhantomData;
use std::sync::{Arc, Mutex};

use splitserve_codec::{Decode, Encode};
use splitserve_rt::hash::shuffle_hash;
use splitserve_rt::{pool, Bytes};

use crate::combine::HashGroup;
use crate::context::TaskContext;
use crate::node::{
    input_shuffles, kept_rows, op, Batch, Dep, Feed, PartitionData, PlanNode, Row, ShuffleBucket,
    ShuffleDep, Sink, Stream,
};

/// A typed, lazily-evaluated distributed dataset — the engine's RDD.
///
/// Cloning a `Dataset` clones the handle, not the data. Its rows are
/// `Clone` (as Spark's must be serializable): collecting a partition owns
/// the rows a `filter` passes on from a shared source, and clones them.
///
/// # Examples
///
/// ```
/// use splitserve_engine::Dataset;
///
/// let nums = Dataset::parallelize((0..100u64).collect::<Vec<_>>(), 4);
/// let evens = nums.filter(|n| n % 2 == 0).map(|n| n * 10);
/// assert_eq!(evens.num_partitions(), 4);
/// ```
pub struct Dataset<T> {
    node: Arc<dyn Stream<T>>,
}

impl<T> Clone for Dataset<T> {
    fn clone(&self) -> Self {
        Dataset {
            node: Arc::clone(&self.node),
        }
    }
}

impl<T> std::fmt::Debug for Dataset<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Dataset<{}>({} x{})",
            std::any::type_name::<T>(),
            self.node.label(),
            self.node.num_partitions()
        )
    }
}

/// Deterministic key→partition hashing: fixed-seed XXH64 (see
/// [`splitserve_rt::hash`]), so every run — on any toolchain — partitions
/// identically, and at a fraction of SipHash's cost.
pub fn bucket_of<K: Hash>(key: &K, num_partitions: usize) -> usize {
    bucket_of_hash(shuffle_hash(key), num_partitions)
}

/// The bucket for an already-computed [`shuffle_hash`] — the map side
/// hashes each key once and reuses it for grouping and bucketing.
///
/// So every key one reduce task holds has the same `hash % num_partitions`
/// (for a power-of-two width, the same low `log2 num_partitions` bits): a
/// per-task structure keyed by the hash must index by other bits, as
/// [`HashGroup`] takes its home slot from the high half.
pub(crate) fn bucket_of_hash(hash: u64, num_partitions: usize) -> usize {
    (hash % num_partitions as u64) as usize
}

/// One memoized partition: the rows plus the work-model deltas the fill
/// charged, replayed verbatim to every later reader. Without the replay,
/// whichever task happened to fill the cache first would be the only one
/// charged for the parent's work — a real-time race once tasks run on
/// worker threads, and a determinism hole in accounted durations.
struct CacheSlot<T> {
    rows: Arc<Vec<T>>,
    cpu_secs: f64,
    bytes_in: u64,
    bytes_out: u64,
}

impl<T: Clone + Send + Sync + 'static> Dataset<T> {
    pub(crate) fn from_node(node: Arc<dyn Stream<T>>) -> Self {
        Dataset { node }
    }

    /// The underlying plan node (for job submission).
    pub fn node(&self) -> Arc<dyn PlanNode> {
        Arc::clone(&self.node) as Arc<dyn PlanNode>
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.node.num_partitions()
    }

    /// A one-parent narrow operator: partition for partition, `stream`
    /// reads the parent's stream (the closure's first argument) and sends
    /// this node's rows into the sink inside the same task.
    fn narrow<U: Clone + Send + Sync + 'static>(
        &self,
        label: &'static str,
        stream: impl Fn(&dyn Stream<T>, &mut TaskContext, usize, &mut Sink<'_, U>)
            + Send
            + Sync
            + 'static,
    ) -> Dataset<U> {
        let parent = Arc::clone(&self.node);
        let edge = Dep::Narrow(self.node());
        let body = move |ctx: &mut TaskContext, part: usize, sink: &mut Sink<'_, U>| {
            stream(&*parent, ctx, part, sink)
        };
        Dataset::from_node(op(label, self.num_partitions(), [edge], body))
    }

    /// Distributes driver-resident data over `partitions` partitions.
    ///
    /// # Panics
    ///
    /// Panics if `partitions` is zero.
    pub fn parallelize(data: Vec<T>, partitions: usize) -> Self {
        assert!(partitions > 0, "need at least one partition");
        let total = data.len();
        let mut parts: Vec<Vec<T>> = (0..partitions).map(|_| Vec::new()).collect();
        let chunk = total.div_ceil(partitions).max(1);
        for (i, x) in data.into_iter().enumerate() {
            parts[(i / chunk).min(partitions - 1)].push(x);
        }
        let parts: Vec<Arc<Vec<T>>> = parts.into_iter().map(Arc::new).collect();
        let bytes_per_record = std::mem::size_of::<T>().max(8) as u64;
        Dataset::from_node(op("parallelize", partitions, [], move |ctx, part, sink| {
            let rows = &parts[part];
            ctx.charge_scan(rows.len() as u64 * bytes_per_record);
            sink(rows.len(), Batch::Lent(rows));
        }))
    }

    /// Creates a dataset whose partitions are generated on the executors by
    /// `gen(partition_index)` — the way workload inputs are materialized
    /// without the driver holding them. `gen` must be deterministic in its
    /// argument.
    ///
    /// # Panics
    ///
    /// Panics if `partitions` is zero.
    pub fn generate(
        partitions: usize,
        gen: impl Fn(usize) -> Vec<T> + Send + Sync + 'static,
    ) -> Self {
        assert!(partitions > 0, "need at least one partition");
        let bytes_per_record = std::mem::size_of::<T>().max(8) as u64;
        Dataset::from_node(op("generate", partitions, [], move |ctx, part, sink| {
            let rows = gen(part);
            ctx.charge_scan(rows.len() as u64 * bytes_per_record);
            sink(rows.len(), Batch::Made(rows));
        }))
    }

    /// Element-wise transformation.
    pub fn map<U: Clone + Send + Sync + 'static>(
        &self,
        f: impl Fn(&T) -> U + Send + Sync + 'static,
    ) -> Dataset<U> {
        self.map_with_cost(f, None)
    }

    /// Like [`Dataset::map`] but charging `cost_secs_per_record` instead of
    /// the default narrow-operator rate — for compute-heavy user functions
    /// (distance computations, parsing, …).
    pub fn map_with_cost<U: Clone + Send + Sync + 'static>(
        &self,
        f: impl Fn(&T) -> U + Send + Sync + 'static,
        cost_secs_per_record: Option<f64>,
    ) -> Dataset<U> {
        self.narrow("map", move |parent, ctx, part, sink| {
            let mut read = 0u64;
            parent.stream(ctx, part, &mut |expected, rows| {
                rows.for_each(|row| {
                    read += 1;
                    sink(expected, Batch::Row(Row::Owned(f(row.get()))));
                })
            });
            match cost_secs_per_record {
                Some(c) => ctx.charge_secs(read as f64 * c),
                None => ctx.charge_records(read),
            }
        })
    }

    /// Keeps the records for which `f` is true, passing them on as they
    /// came: a lent row is cloned only if this partition is collected.
    pub fn filter(&self, f: impl Fn(&T) -> bool + Send + Sync + 'static) -> Dataset<T> {
        self.narrow("filter", move |parent, ctx, part, sink| {
            let mut read = 0u64;
            parent.stream(ctx, part, &mut |expected, rows| {
                rows.for_each(|row| {
                    read += 1;
                    if f(row.get()) {
                        sink(expected, Batch::Row(row));
                    }
                })
            });
            ctx.charge_records(read);
        })
    }

    /// Maps each record to zero or more outputs, streamed on: Spark's
    /// `flatMap(T => TraversableOnce[U])`, so `f` takes the record by value
    /// and returns any iterable, with nothing collected per record.
    /// Records a task made are moved into `f`, and lent ones (behind a
    /// `parallelize` or a `cache()`) cloned.
    pub fn flat_map<U, I>(&self, f: impl Fn(T) -> I + Send + Sync + 'static) -> Dataset<U>
    where
        U: Clone + Send + Sync + 'static,
        I: IntoIterator<Item = U>,
    {
        self.narrow("flatMap", move |parent, ctx, part, sink| {
            let (mut read, mut made) = (0u64, 0u64);
            // Sized for a fan-out of one: the input's count goes on.
            parent.stream(ctx, part, &mut |expected, rows| {
                rows.for_each(|row| {
                    read += 1;
                    for u in f(row.into_owned()) {
                        made += 1;
                        sink(expected, Batch::Row(Row::Owned(u)));
                    }
                })
            });
            ctx.charge_records(read + made);
        })
    }

    /// Whole-partition transformation with direct access to the context
    /// for custom cost accounting. A stage's stream materializes here: the
    /// input partition is collected (or borrowed, if shared) for `f`, and
    /// `f`'s rows are a new source.
    pub fn map_partitions<U: Clone + Send + Sync + 'static>(
        &self,
        f: impl Fn(&mut TaskContext, &[T]) -> Vec<U> + Send + Sync + 'static,
    ) -> Dataset<U> {
        self.narrow("mapPartitions", move |parent, ctx, part, sink| {
            let rows = parent.rows(ctx, part);
            let made = f(ctx, rows.as_slice());
            sink(made.len(), Batch::Made(made));
        })
    }

    /// Pairs each record with a key.
    ///
    /// Test aid: only tests call this.
    pub fn key_by<K: Clone + Send + Sync + 'static>(
        &self,
        f: impl Fn(&T) -> K + Send + Sync + 'static,
    ) -> Dataset<(K, T)> {
        self.map(move |t| (f(t), t.clone()))
    }

    /// Concatenates two datasets (partitions are appended, no shuffle).
    ///
    /// # Panics
    ///
    /// Panics if the stage of either side reads a shuffle, as in
    /// `a.reduce_by_key(2, f).union(&b)`: a task fetches its stage's
    /// shuffles at its own partition index, and a union computes its
    /// second side at a shifted one, so the engine cannot run that stage
    /// until narrow edges carry a partition mapping. Union the inputs
    /// ahead of the shuffle instead.
    pub fn union(&self, other: &Dataset<T>) -> Dataset<T> {
        let (first, second) = (Arc::clone(&self.node), Arc::clone(&other.node));
        assert!(
            input_shuffles(&self.node()).is_empty() && input_shuffles(&other.node()).is_empty(),
            "union of a dataset whose stage reads a shuffle cannot run: union ahead of the shuffle"
        );
        let edges = [self, other].map(|side| Dep::Narrow(side.node()));
        let split = first.num_partitions();
        let partitions = split + second.num_partitions();
        let stream = move |ctx: &mut TaskContext, part: usize, sink: &mut Sink<'_, T>| {
            match part.checked_sub(split) {
                None => first.stream(ctx, part, sink),
                Some(rest) => second.stream(ctx, rest, sink),
            }
        };
        Dataset::from_node(op("union", partitions, edges, stream))
    }

    /// Memoizes computed partitions so repeated jobs over the same lineage
    /// skip recomputation (an idealized `.cache()`: the cache is not
    /// invalidated by executor loss — documented simplification). A stage's
    /// stream materializes here: the fill collects the parent's partition,
    /// and every reader is lent the kept rows.
    pub fn cache(&self) -> Dataset<T> {
        let partitions = self.num_partitions();
        let empty: Vec<Option<CacheSlot<T>>> = (0..partitions).map(|_| None).collect();
        let slots = Mutex::new(empty);
        self.narrow("cache", move |parent, ctx, part, sink| {
            let rows = {
                // Hold the lock across the fill so concurrent readers of
                // one partition compute it exactly once; losers replay the
                // stored charges and see identical accounted cost.
                let mut slots = slots.lock().unwrap_or_else(|e| e.into_inner());
                match &slots[part] {
                    Some(slot) => {
                        ctx.replay_charges(slot.cpu_secs, slot.bytes_in, slot.bytes_out);
                        Arc::clone(&slot.rows)
                    }
                    None => {
                        let (cpu0, in0, out0) = (ctx.cpu_secs(), ctx.bytes_in(), ctx.bytes_out());
                        let rows = parent.rows(ctx, part).into_kept();
                        slots[part] = Some(CacheSlot {
                            rows: Arc::clone(&rows),
                            cpu_secs: ctx.cpu_secs() - cpu0,
                            bytes_in: ctx.bytes_in() - in0,
                            bytes_out: ctx.bytes_out() - out0,
                        });
                        rows
                    }
                }
            };
            sink(rows.len(), Batch::Lent(&rows));
        })
    }
}

/// A wide operator over `N` co-partitioned shuffles: each task takes the
/// blocks the scheduler fetched for its partition, one list per edge in
/// edge order, and `merge` decodes and combines them.
pub(crate) fn wide<C: Clone + Send + Sync + 'static, const N: usize>(
    label: &'static str,
    deps: [Arc<ShuffleDep>; N],
    merge: impl Fn(&mut TaskContext, [Vec<Bytes>; N]) -> Vec<C> + Send + Sync + 'static,
) -> Dataset<C> {
    let ids = deps.each_ref().map(|dep| dep.id);
    let partitions = deps[0].num_partitions;
    let stream = move |ctx: &mut TaskContext, _part: usize, sink: &mut Sink<'_, C>| {
        let blocks = ids.map(|id| ctx.shuffle_input(id));
        let merged = merge(ctx, blocks);
        sink(merged.len(), Batch::Made(merged));
    };
    Dataset::from_node(op(label, partitions, deps.map(Dep::Shuffle), stream))
}

/// The sizing rule of every reduce-side table (DESIGN.md §8 "Combine"):
/// the records a task can expect in the blocks it fetched, taken as their
/// bytes over a record's size in memory, and always within a small factor
/// of the bytes the task already holds. Low wherever a record encodes
/// shorter than it sits in memory: a little for varint-encoded fixed-size
/// records, ≈ 3× for PageRank's `(u64, Vec<u64>)` join build side (≈ 10 B
/// on the wire, 32 B in memory, the `Vec` counted by its header). High
/// only for heap-carrying values longer on the wire than their header.
pub(crate) fn fetched_records<K, V>(blocks: &[Bytes]) -> usize {
    let bytes: usize = blocks.iter().map(|b| b.len()).sum();
    bytes / std::mem::size_of::<(K, V)>().max(1)
}

/// End of a [`Chain`].
const NIL: u32 = u32::MAX;

/// One key of `join`'s build table: its left values as a chain through
/// the arena (`head` → … → `tail`, arrival order) and how many matched
/// right records have not been emitted yet.
struct Chain {
    head: u32,
    tail: u32,
    pending: u32,
}

/// Bound bundle for keys crossing a shuffle.
pub trait ShuffleKey: Ord + Hash + Clone + Encode + Decode + Send + Sync + 'static {}
impl<K: Ord + Hash + Clone + Encode + Decode + Send + Sync + 'static> ShuffleKey for K {}

/// Bound bundle for values crossing a shuffle.
pub trait ShuffleValue: Clone + Encode + Decode + Send + Sync + 'static {}
impl<V: Clone + Encode + Decode + Send + Sync + 'static> ShuffleValue for V {}

impl<K: ShuffleKey, V: ShuffleValue> Dataset<(K, V)> {
    /// A fresh hash shuffle of `self` into `partitions` buckets, without
    /// map-side combine.
    pub(crate) fn hash_shuffled(&self, partitions: usize) -> Arc<ShuffleDep> {
        self.shuffled_by(partitions, move |k| bucket_of(k, partitions))
    }

    /// A fresh shuffle of `self` into `partitions` buckets, without
    /// map-side combine: every record goes to the bucket `bucket_fn` names.
    pub(crate) fn shuffled_by(
        &self,
        partitions: usize,
        bucket_fn: impl Fn(&K) -> usize + Clone + Send + Sync + 'static,
    ) -> Arc<ShuffleDep> {
        ShuffleDep::new(Arc::clone(&self.node), partitions, move |ctx, feed| {
            bucket_side(ctx, feed, partitions, &bucket_fn)
        })
    }

    /// Merges values per key with `f`, shuffling into `partitions`
    /// partitions. Applies map-side combine (Spark's `reduceByKey`).
    ///
    /// # Panics
    ///
    /// Panics if `partitions` is zero (as does every shuffling operator).
    pub fn reduce_by_key(
        &self,
        partitions: usize,
        f: impl Fn(&V, &V) -> V + Send + Sync + 'static,
    ) -> Dataset<(K, V)> {
        // Shared by the map-side combine and the reduce-side merge.
        let f = Arc::new(f);
        let combine = Arc::clone(&f);
        let dep = ShuffleDep::new(Arc::clone(&self.node), partitions, move |ctx, feed| {
            combine_side(ctx, feed, partitions, &*combine)
        });
        wide("reduceByKey", [dep], move |ctx, [blocks]| {
            let mut acc: HashGroup<K, V> = HashGroup::with_capacity(fetched_records::<K, V>(&blocks));
            for (k, v) in decode_stream::<K, V>(blocks) {
                let h = shuffle_hash(&k);
                let merged = acc.upsert_owned(h, k, v, |v| v, |a, v| {
                    let m = f(a, &v);
                    *a = m;
                });
                if merged {
                    ctx.charge_combine(1);
                }
            }
            acc.into_pairs().collect()
        })
    }

    /// Groups all values per key (Spark's `groupByKey`; no map-side
    /// combine, so it shuffles every record).
    pub fn group_by_key(&self, partitions: usize) -> Dataset<(K, Vec<V>)> {
        let dep = self.hash_shuffled(partitions);
        wide("groupByKey", [dep], |ctx, [blocks]| {
            let mut acc: HashGroup<K, Vec<V>> =
                HashGroup::with_capacity(fetched_records::<K, V>(&blocks));
            for (k, v) in decode_stream::<K, V>(blocks) {
                ctx.charge_combine(1);
                acc.upsert_owned(shuffle_hash(&k), k, v, |v| vec![v], |a, v| a.push(v));
            }
            acc.into_pairs().collect()
        })
    }

    /// Inner hash join on the key, shuffling both sides into `partitions`
    /// co-partitioned buckets.
    pub fn join<W: ShuffleValue>(
        &self,
        other: &Dataset<(K, W)>,
        partitions: usize,
    ) -> Dataset<(K, (V, W))> {
        let left = self.hash_shuffled(partitions);
        let right = other.hash_shuffled(partitions);
        wide("join", [left, right], |ctx, [left_blocks, right_blocks]| {
            // Build: every left value sits in one arena, chained per key in
            // arrival order; the table holds each chain's two ends.
            let lefts = fetched_records::<K, V>(&left_blocks);
            let mut arena: Vec<(Option<V>, u32)> = Vec::with_capacity(lefts);
            let mut table: HashGroup<K, Chain> = HashGroup::with_capacity(lefts);
            let first = |at| Chain { head: at, tail: at, pending: 0 };
            for (k, v) in decode_stream::<K, V>(left_blocks) {
                ctx.charge_combine(1);
                let at = arena.len() as u32;
                arena.push((Some(v), NIL));
                table.upsert_owned(shuffle_hash(&k), k, at, first, |chain, at| {
                    arena[chain.tail as usize].1 = at;
                    chain.tail = at;
                });
            }
            // Probe: one pass over the right stream keeps the records that
            // match and counts them per key, so the emit below knows each
            // left value's last use.
            let mut matched: Vec<(usize, K, W)> =
                Vec::with_capacity(fetched_records::<K, W>(&right_blocks));
            for (k, w) in decode_stream::<K, W>(right_blocks) {
                ctx.charge_combine(1);
                if let Some(entry) = table.find(shuffle_hash(&k), &k) {
                    table.acc_mut(entry).pending += 1;
                    matched.push((entry, k, w));
                }
            }
            // Emit in right-stream order, left arrival order within a key:
            // a left value is cloned for every match but its key's last,
            // which moves it out; the right record ends in its last row.
            // Every match yields at least one row, exactly one on a 1:1 join.
            let mut out: Vec<(K, (V, W))> = Vec::with_capacity(matched.len());
            for (entry, k, w) in matched {
                let chain = table.acc_mut(entry);
                chain.pending -= 1;
                let (last_match, mut at) = (chain.pending == 0, chain.head);
                loop {
                    let (slot, next) = &mut arena[at as usize];
                    let v = if last_match { slot.take() } else { slot.clone() }
                        .expect("a left value moves out on its key's last match only");
                    if *next == NIL {
                        out.push((k, (v, w)));
                        break;
                    }
                    out.push((k.clone(), (v, w.clone())));
                    at = *next;
                }
            }
            out
        })
    }

    /// Transforms values, keeping keys (no shuffle).
    pub fn map_values<U: Clone + Send + Sync + 'static>(
        &self,
        f: impl Fn(&V) -> U + Send + Sync + 'static,
    ) -> Dataset<(K, U)> {
        self.map(move |(k, v)| (k.clone(), f(v)))
    }
}

/// Extracts and concatenates the typed records of a job's output
/// partitions (the driver-side half of `collect()`).
///
/// Takes the partitions by value: whenever a partition's `Arc` is the
/// last handle (the common case — the scheduler hands its only reference
/// over), the rows are moved out instead of cloned, and the first
/// non-empty partition's vector is taken over wholesale. Shared
/// partitions (e.g. behind a `cache()`) fall back to cloning.
///
/// # Panics
///
/// Panics if the partitions hold a different record type.
pub fn collect_partitions<T: Clone + Send + Sync + 'static>(parts: Vec<PartitionData>) -> Vec<T> {
    let mut out: Vec<T> = Vec::new();
    for p in parts {
        match Arc::try_unwrap(kept_rows::<T>(p)) {
            Ok(v) if out.is_empty() => out = v,
            Ok(v) => out.extend(v),
            Err(shared) => out.extend(shared.iter().cloned()),
        }
    }
    out
}

// ----- map-side shuffle machinery -------------------------------------

/// Streaming decoder over fetched shuffle blocks: yields records one at
/// a time with no intermediate `Vec`, so reduce-side merges fold each
/// record straight into their accumulator. Deserialization cost for
/// every fetched block is charged once when the task's context is built
/// (see [`TaskContext::new`]) — the bytes will all be decoded — so the
/// stream itself never touches the context and can run on any thread.
pub(crate) struct DecodeStream<K, V> {
    blocks: Vec<Bytes>,
    block: usize,
    offset: usize,
    _t: PhantomData<fn() -> (K, V)>,
}

impl<K: Decode, V: Decode> Iterator for DecodeStream<K, V> {
    type Item = (K, V);
    fn next(&mut self) -> Option<(K, V)> {
        loop {
            let block = self.blocks.get(self.block)?;
            let mut slice: &[u8] = &block[self.offset..];
            if slice.is_empty() {
                self.block += 1;
                self.offset = 0;
                continue;
            }
            let before = slice.len();
            let rec = splitserve_codec::from_bytes_seq(&mut slice)
                .expect("corrupt shuffle block: engine invariant violated");
            self.offset += before - slice.len();
            return Some(rec);
        }
    }
}

pub(crate) fn decode_stream<K: Decode, V: Decode>(blocks: Vec<Bytes>) -> DecodeStream<K, V> {
    DecodeStream {
        blocks,
        block: 0,
        offset: 0,
        _t: PhantomData,
    }
}

/// `num` empty scratch buffers for a map task's buckets, each holding at
/// least the bytes `capacity` names for it, in a list of pooled scratch.
fn bucket_scratch(num: usize, capacity: impl Fn(usize) -> usize) -> Vec<Vec<u8>> {
    let mut bufs = pool::take_vec(num);
    bufs.extend((0..num).map(|b| pool::take(capacity(b))));
    bufs
}

/// Most bytes of buckets frozen into one shared buffer. Buckets are
/// packed back to back up to this size, and a larger bucket gets a buffer
/// of its own: below glibc's default mmap threshold (128 KiB), a buffer is
/// served from the heap's free lists. One buffer per CloudSort map task
/// (≈ 9 MB) read +16 % `cloudsort` `wall_s`, and flat with glibc's mmap
/// and trim thresholds pinned, so the cost was the allocator's handling
/// of large buffers, not the copy.
const FROZEN_BUFFER_BYTES: usize = 128 << 10;

/// Freezes a map task's filled bucket scratch into exact-size shared
/// buffers, packing consecutive buckets into one up to
/// [`FROZEN_BUFFER_BYTES`], each bucket a slice of its buffer; charges
/// the serialization work (which counts the encoded volume as task
/// output) and returns the scratch to the pool. A map task with small
/// buckets allocates its bucket list and one buffer, however many
/// buckets it fills.
fn finish_buckets(ctx: &mut TaskContext, mut bufs: Vec<Vec<u8>>) -> Vec<ShuffleBucket> {
    let mut buckets = Vec::with_capacity(bufs.len());
    let mut rest = &bufs[..];
    while let Some(first) = rest.first() {
        let mut len = first.len();
        let packed = 1 + rest[1..]
            .iter()
            .take_while(|buf| {
                len += buf.len();
                len <= FROZEN_BUFFER_BYTES
            })
            .count();
        let frozen = Bytes::concat(&rest[..packed]);
        let mut at = 0;
        for buf in &rest[..packed] {
            ctx.charge_ser(buf.len() as u64);
            buckets.push(ShuffleBucket { bytes: frozen.slice(at..at + buf.len()) });
            at += buf.len();
        }
        rest = &rest[packed..];
    }
    bufs.drain(..).for_each(pool::give);
    pool::give_vec(bufs);
    buckets
}

/// Encodes a combined [`HashGroup`] into one bucket per reduce partition,
/// reserving each buffer exactly via [`Encode::encoded_len`]: after
/// map-side combine the surviving entries are few relative to the input,
/// so the sizing pass is cheap and the encode pass never reallocates.
fn encode_grouped<K, V>(
    ctx: &mut TaskContext,
    num: usize,
    groups: &HashGroup<K, V>,
) -> Vec<ShuffleBucket>
where
    K: Encode + Eq,
    V: Encode,
{
    let mut totals: Vec<usize> = pool::take_vec(num);
    totals.resize(num, 0);
    for (h, k, v) in groups.entries() {
        totals[bucket_of_hash(*h, num)] += k.encoded_len() + v.encoded_len();
    }
    let mut bufs = bucket_scratch(num, |b| totals[b]);
    for (h, k, v) in groups.entries() {
        let b = bucket_of_hash(*h, num);
        // Field-by-field writes produce the same bytes as encoding the
        // `(K, V)` tuple: the wire format has no framing between fields.
        k.encode(&mut bufs[b]);
        v.encode(&mut bufs[b]);
    }
    debug_assert!(
        bufs.iter().zip(&totals).all(|(buf, t)| buf.len() == *t),
        "encoded_len must match encode exactly"
    );
    pool::give_vec(totals);
    finish_buckets(ctx, bufs)
}

/// The map side of a shuffle without combine: sends every record `feed`
/// yields to the bucket `bucket_fn` names, encoding it as it arrives, then
/// charges the scan. Shared by every non-combining map side (hash buckets
/// here; range buckets in `sort_by_key`).
///
/// Deliberately a single pass into recycled pool buffers, which arrive
/// pre-grown after a thread's first task. A sizing pass has nothing to
/// buy here: every record is shuffled, so it walks (and bucket-chooses)
/// the whole input a second time to save regrowth the pool has already
/// absorbed — even with a byte payload's `encoded_len` down to a count of
/// high bits it measured 1.3x slower on both CloudSort's records and
/// PageRank's join (DESIGN.md §8).
fn bucket_side<K: ShuffleKey, V: ShuffleValue>(
    ctx: &mut TaskContext,
    feed: Feed<'_, (K, V)>,
    num: usize,
    bucket_fn: &impl Fn(&K) -> usize,
) -> Vec<ShuffleBucket> {
    let (mut bufs, mut read) = (None, 0u64);
    feed.into_sink(ctx, &mut |_, rows| {
        // Taken once the source has made its rows, as a computed input's.
        let bufs = bufs.get_or_insert_with(|| bucket_scratch(num, |_| 0));
        rows.for_each(|row| {
            let (k, v) = row.get();
            let b = bucket_fn(k);
            k.encode(&mut bufs[b]);
            v.encode(&mut bufs[b]);
            read += 1;
        })
    });
    ctx.charge_records(read);
    finish_buckets(ctx, bufs.unwrap_or_else(|| bucket_scratch(num, |_| 0)))
}

/// The map side of `reduce_by_key`: combines values per key with `f` as
/// `feed` yields them, then hash-buckets what is left. One hash of each
/// key serves both the grouping table and (via the stored hash) bucket
/// choice, since equal keys share a hash and therefore a bucket.
///
/// Its charges wait for the stream to end and then land as a materialized
/// input made them: the scan, then one `charge_combine(1)` per merge — the
/// context's one `f64` accumulator makes the order of additions part of
/// every virtual time — and the combine span is read around exactly those.
fn combine_side<K: ShuffleKey, V: ShuffleValue>(
    ctx: &mut TaskContext,
    feed: Feed<'_, (K, V)>,
    num: usize,
    f: &impl Fn(&V, &V) -> V,
) -> Vec<ShuffleBucket> {
    let (mut groups, mut read, mut merges) = (None, 0u64, 0u64);
    feed.into_sink(ctx, &mut |expected, rows| {
        let groups: &mut HashGroup<K, V> =
            groups.get_or_insert_with(|| HashGroup::with_capacity(expected));
        rows.for_each(|row| {
            let merged = match row {
                Row::Lent((k, v)) => groups.upsert(shuffle_hash(k), k, v, V::clone, |a, v| {
                    let m = f(a, v);
                    *a = m;
                }),
                Row::Owned((k, v)) => groups.upsert_owned(shuffle_hash(&k), k, v, |v| v, |a, v| {
                    let m = f(a, &v);
                    *a = m;
                }),
            };
            read += 1;
            merges += u64::from(merged);
        })
    });
    ctx.charge_records(read);
    let combine_started = ctx.cpu_secs();
    for _ in 0..merges {
        ctx.charge_combine(1);
    }
    ctx.note_combine(ctx.cpu_secs() - combine_started);
    let groups = groups.unwrap_or_else(|| HashGroup::with_capacity(0));
    encode_grouped(ctx, num, &groups)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::config::WorkModel;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A computed partition's rows.
    pub(crate) fn rows<T: Send + Sync + 'static>(data: &PartitionData) -> &Vec<T> {
        data.downcast_ref::<Vec<T>>().expect("partition type mismatch")
    }

    fn ctx() -> TaskContext {
        TaskContext::empty(WorkModel::default())
    }

    fn compute_all<T: Clone + Send + Sync + 'static>(ds: &Dataset<T>) -> Vec<T> {
        let node = ds.node();
        let parts: Vec<PartitionData> = (0..node.num_partitions())
            .map(|p| node.compute(&mut ctx(), p))
            .collect();
        collect_partitions(parts)
    }

    #[test]
    fn parallelize_splits_evenly() {
        let ds = Dataset::parallelize((0..10u32).collect(), 3);
        let node = ds.node();
        let sizes: Vec<usize> = (0..3)
            .map(|p| rows::<u32>(&node.compute(&mut ctx(), p)).len())
            .collect();
        assert_eq!(sizes.iter().sum::<usize>(), 10);
        assert!(sizes.iter().all(|s| *s >= 2), "balanced-ish: {sizes:?}");
        assert_eq!(compute_all(&ds), (0..10u32).collect::<Vec<_>>());
    }

    #[test]
    fn narrow_ops_pipeline() {
        let ds = Dataset::parallelize((0..100i64).collect(), 4)
            .filter(|x| x % 2 == 0)
            .map(|x| x * 3)
            .flat_map(|x| [x, -x]);
        let got = compute_all(&ds);
        assert_eq!(got.len(), 100);
        assert!(got.contains(&294) && got.contains(&-294));
    }

    #[test]
    fn generate_is_lazy_and_deterministic() {
        let ds = Dataset::<u64>::generate(4, |p| vec![p as u64; p + 1]);
        let got = compute_all(&ds);
        assert_eq!(got, vec![0, 1, 1, 2, 2, 2, 3, 3, 3, 3]);
    }

    #[test]
    fn union_concatenates_partitions() {
        let a = Dataset::parallelize(vec![1u8, 2], 1);
        let b = Dataset::parallelize(vec![3u8, 4], 2);
        let u = a.union(&b);
        assert_eq!(u.num_partitions(), 3);
        assert_eq!(compute_all(&u), vec![1, 2, 3, 4]);
    }

    #[test]
    fn cache_memoizes_partitions() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let calls = Arc::new(AtomicU32::new(0));
        let c = Arc::clone(&calls);
        let ds = Dataset::<u32>::generate(2, move |p| {
            c.fetch_add(1, Ordering::Relaxed);
            vec![p as u32]
        })
        .cache();
        let node = ds.node();
        node.compute(&mut ctx(), 0);
        node.compute(&mut ctx(), 0);
        node.compute(&mut ctx(), 1);
        assert_eq!(calls.load(Ordering::Relaxed), 2, "partition 0 computed once");
    }

    #[test]
    fn cache_replays_identical_charges_to_every_reader() {
        let ds = Dataset::parallelize((0..100u64).collect(), 1)
            .map(|x| x * 2)
            .cache();
        let node = ds.node();
        let mut first = ctx();
        node.compute(&mut first, 0);
        let mut second = ctx();
        node.compute(&mut second, 0);
        assert!(first.cpu_secs() > 0.0, "fill must charge work");
        assert_eq!(
            first.cpu_secs().to_bits(),
            second.cpu_secs().to_bits(),
            "cache hit must replay the fill's exact charge"
        );
    }

    #[test]
    fn collecting_a_shared_source_keeps_its_rows() {
        let cases = [
            ("parallelize", Dataset::parallelize((0..10u64).collect(), 2)),
            ("cache", Dataset::<u64>::generate(2, |p| vec![p as u64; 5]).cache()),
        ];
        for (name, ds) in cases {
            let node = ds.node();
            let first = node.compute(&mut ctx(), 1);
            let second = node.compute(&mut ctx(), 1);
            assert!(Arc::ptr_eq(&first, &second), "{name}: rows shared, not copied");
        }
    }

    /// A row that counts its clones.
    #[derive(Debug)]
    struct Counted {
        n: u64,
        clones: Arc<AtomicUsize>,
    }

    impl Clone for Counted {
        fn clone(&self) -> Self {
            self.clones.fetch_add(1, Ordering::Relaxed);
            Counted {
                n: self.n,
                clones: Arc::clone(&self.clones),
            }
        }
    }

    #[test]
    fn a_collected_filter_clones_exactly_the_lent_rows_it_keeps() {
        let clones = Arc::new(AtomicUsize::new(0));
        let made = {
            let clones = Arc::clone(&clones);
            move || (0..10).map(|n| Counted { n, clones: Arc::clone(&clones) }).collect::<Vec<_>>()
        };
        let keep = |row: &Counted| row.n.is_multiple_of(3);
        let cases = [
            ("lent", Dataset::parallelize(made(), 1), 4),
            ("made", Dataset::generate(1, move |_| made()), 0),
        ];
        for (name, source, want) in cases {
            clones.store(0, Ordering::Relaxed);
            let data = source.filter(keep).node().compute(&mut ctx(), 0);
            let kept: Vec<u64> = rows::<Counted>(&data).iter().map(|row| row.n).collect();
            assert_eq!(kept, [0, 3, 6, 9], "{name}");
            assert_eq!(clones.load(Ordering::Relaxed), want, "{name}");
        }
    }

    #[test]
    fn a_flat_map_that_emits_nothing_collects_an_empty_partition() {
        let ds = Dataset::parallelize((0..10u32).collect(), 2).flat_map(|_| None::<u32>);
        let node = ds.node();
        for part in 0..2 {
            let data = node.compute(&mut ctx(), part);
            let rows = rows::<u32>(&data);
            assert!(rows.is_empty(), "partition {part}");
            assert_eq!(rows.capacity(), 0, "nothing reserved before a row arrives");
        }
    }

    #[test]
    fn bucket_of_is_deterministic_and_in_range() {
        for k in 0u64..1000 {
            let b = bucket_of(&k, 7);
            assert!(b < 7);
            assert_eq!(b, bucket_of(&k, 7));
        }
    }

    /// Drives the map side and reduce side of a shuffle by hand (the
    /// scheduler normally does this through the block store).
    fn run_shuffle<K: ShuffleKey, C>(
        ds: &Dataset<(K, C)>,
        shuffled: &Dataset<(K, C)>,
    ) -> Vec<(K, C)>
    where
        C: ShuffleValue + Clone + 'static,
    {
        let _ = ds;
        let node = shuffled.node();
        let deps = input_shuffles(&node);
        assert_eq!(deps.len(), 1);
        let dep = &deps[0];
        let maps = dep.parent.num_partitions();
        let reduces = dep.num_partitions;
        // map side
        let mut buckets: Vec<Vec<Bytes>> = vec![Vec::new(); reduces];
        for m in 0..maps {
            let mut c = ctx();
            let data = dep.parent.compute(&mut c, m);
            let bs = (dep.partitioner)(&mut c, data);
            for (r, b) in bs.into_iter().enumerate() {
                if !b.bytes.is_empty() {
                    buckets[r].push(b.bytes);
                }
            }
        }
        // reduce side
        let mut out = Vec::new();
        for (r, blocks) in buckets.into_iter().enumerate() {
            let mut inputs = splitserve_rt::FastMap::default();
            inputs.insert(dep.id, blocks);
            let mut c = TaskContext::new(WorkModel::default(), inputs);
            let part = node.compute(&mut c, r);
            out.extend(rows::<(K, C)>(&part).iter().cloned());
        }
        out
    }

    #[test]
    fn reduce_by_key_sums_correctly() {
        let data: Vec<(u64, u64)> = (0..1000).map(|i| (i % 10, 1u64)).collect();
        let ds = Dataset::parallelize(data, 8);
        let red = ds.reduce_by_key(4, |a, b| a + b);
        let mut got = run_shuffle(&ds, &red);
        got.sort();
        assert_eq!(got.len(), 10);
        for (_k, v) in got {
            assert_eq!(v, 100);
        }
    }

    #[test]
    fn map_side_combine_shrinks_buckets() {
        // With combine, each bucket carries at most #distinct-keys records.
        let data: Vec<(u64, u64)> = (0..1000).map(|i| (i % 4, 1u64)).collect();
        let ds = Dataset::parallelize(data, 1);
        let red = ds.reduce_by_key(2, |a, b| a + b);
        let deps = input_shuffles(&red.node());
        let mut c = ctx();
        let data = deps[0].parent.compute(&mut c, 0);
        let buckets = (deps[0].partitioner)(&mut c, data);
        let blocks = buckets.into_iter().map(|b| b.bytes).collect();
        let total_records = decode_stream::<u64, u64>(blocks).count();
        assert_eq!(total_records, 4, "combined down to one record per key");
    }

    #[test]
    fn group_by_key_collects_all_values() {
        let data: Vec<(String, u32)> = vec![
            ("a".into(), 1),
            ("b".into(), 2),
            ("a".into(), 3),
            ("b".into(), 4),
            ("a".into(), 5),
        ];
        let ds = Dataset::parallelize(data, 2);
        let grouped = ds.group_by_key(3);
        let node = grouped.node();
        let deps = input_shuffles(&node);
        let dep = &deps[0];
        let mut buckets: Vec<Vec<Bytes>> = vec![Vec::new(); 3];
        for m in 0..dep.parent.num_partitions() {
            let mut c = ctx();
            let d = dep.parent.compute(&mut c, m);
            for (r, b) in (dep.partitioner)(&mut c, d).into_iter().enumerate() {
                if !b.bytes.is_empty() {
                    buckets[r].push(b.bytes);
                }
            }
        }
        let mut all: Vec<(String, Vec<u32>)> = Vec::new();
        for (r, blocks) in buckets.into_iter().enumerate() {
            let mut inputs = splitserve_rt::FastMap::default();
            inputs.insert(dep.id, blocks);
            let mut c = TaskContext::new(WorkModel::default(), inputs);
            let part = node.compute(&mut c, r);
            all.extend(rows::<(String, Vec<u32>)>(&part).iter().cloned());
        }
        all.sort();
        assert_eq!(all.len(), 2);
        let a = &all[0];
        assert_eq!(a.0, "a");
        let mut vals = a.1.clone();
        vals.sort();
        assert_eq!(vals, vec![1, 3, 5]);
    }

    #[test]
    fn join_produces_matching_pairs() {
        let left: Vec<(u32, String)> = vec![(1, "x".into()), (2, "y".into()), (3, "z".into())];
        let right: Vec<(u32, u64)> = vec![(1, 10), (1, 11), (3, 30), (4, 40)];
        let l = Dataset::parallelize(left, 2);
        let r = Dataset::parallelize(right, 2);
        let joined = l.join(&r, 2);
        let node = joined.node();
        let deps = input_shuffles(&node);
        assert_eq!(deps.len(), 2);
        // run both map sides
        let mut per_dep_buckets: Vec<Vec<Vec<Bytes>>> = Vec::new();
        for dep in &deps {
            let mut buckets: Vec<Vec<Bytes>> = vec![Vec::new(); dep.num_partitions];
            for m in 0..dep.parent.num_partitions() {
                let mut c = ctx();
                let d = dep.parent.compute(&mut c, m);
                for (rr, b) in (dep.partitioner)(&mut c, d).into_iter().enumerate() {
                    if !b.bytes.is_empty() {
                        buckets[rr].push(b.bytes);
                    }
                }
            }
            per_dep_buckets.push(buckets);
        }
        let mut all: Vec<(u32, (String, u64))> = Vec::new();
        #[allow(clippy::needless_range_loop)] // `part` also names the computed partition
        for part in 0..2 {
            let mut inputs = splitserve_rt::FastMap::default();
            for (di, dep) in deps.iter().enumerate() {
                inputs.insert(dep.id, per_dep_buckets[di][part].clone());
            }
            let mut c = TaskContext::new(WorkModel::default(), inputs);
            let p = node.compute(&mut c, part);
            all.extend(rows::<(u32, (String, u64))>(&p).iter().cloned());
        }
        all.sort();
        assert_eq!(
            all,
            vec![
                (1, ("x".into(), 10)),
                (1, ("x".into(), 11)),
                (3, ("z".into(), 30)),
            ]
        );
    }

    /// A zero-width shuffle used to build fine and die inside a task body
    /// on `hash % 0`; the one `ShuffleDep` constructor rejects it.
    #[test]
    fn zero_partition_shuffles_are_rejected_where_the_plan_is_built() {
        type Build = fn(&Dataset<(u64, u64)>);
        let cases: [(&str, Build); 5] = [
            ("reduce_by_key", |d| drop(d.reduce_by_key(0, |a, b| a + b))),
            ("group_by_key", |d| drop(d.group_by_key(0))),
            ("join", |d| drop(d.join(d, 0))),
            ("cogroup", |d| drop(d.cogroup(d, 0))),
            ("aggregate_by_key", |d| {
                drop(d.aggregate_by_key(0, 0u64, |a, v| a + v, |a, b| a + b))
            }),
        ];
        for (name, build) in cases {
            let panic = std::panic::catch_unwind(|| build(&Dataset::parallelize(vec![(1, 1)], 1)))
                .expect_err(name);
            let message = panic.downcast_ref::<&str>().copied().unwrap_or_default();
            assert_eq!(message, "need at least one partition", "{name}");
        }
    }

    /// The buckets one map task of `shuffled`'s input shuffle writes.
    fn map_task_buckets<T: Clone + Send + Sync + 'static>(shuffled: &Dataset<T>) -> Vec<ShuffleBucket> {
        let deps = input_shuffles(&shuffled.node());
        let mut c = ctx();
        let data = deps[0].parent.compute(&mut c, 0);
        (deps[0].partitioner)(&mut c, data)
    }

    /// A map task's buckets are adjacent slices of one buffer, in bucket
    /// order, and each holds exactly its reference bytes `want[b]`.
    fn assert_frozen_layout(buckets: &[ShuffleBucket], want: &[Vec<u8>]) {
        assert_eq!(buckets.len(), want.len());
        for (b, (bucket, want)) in buckets.iter().zip(want).enumerate() {
            assert_eq!(&bucket.bytes[..], &want[..], "bucket {b}");
        }
        for pair in buckets.windows(2) {
            let (a, b) = (&pair[0].bytes, &pair[1].bytes);
            assert_eq!(a.as_ptr() as usize + a.len(), b.as_ptr() as usize, "adjacent slices");
        }
    }

    /// Three keys over eight buckets: at least five buckets stay empty.
    fn three_key_records() -> Vec<(u64, u64)> {
        (0..30u64).map(|i| ([7, 1_000, 77][i as usize % 3], i)).collect()
    }

    #[test]
    fn a_map_task_without_combine_freezes_its_buckets_into_one_buffer() {
        let records = three_key_records();
        let buckets = map_task_buckets(&Dataset::parallelize(records.clone(), 1).group_by_key(8));
        let mut want = vec![Vec::new(); 8];
        for rec in &records {
            rec.encode(&mut want[bucket_of(&rec.0, 8)]);
        }
        assert!(want.iter().filter(|w| w.is_empty()).count() >= 5);
        assert_frozen_layout(&buckets, &want);
    }

    #[test]
    fn a_combining_map_task_freezes_its_buckets_into_one_buffer() {
        let records = three_key_records();
        let summed = Dataset::parallelize(records.clone(), 1).reduce_by_key(8, |a, b| a + b);
        let buckets = map_task_buckets(&summed);
        // Combined per key, in the order keys first arrive.
        let mut sums: Vec<(u64, u64)> = Vec::new();
        for (k, v) in records {
            match sums.iter_mut().find(|(seen, _)| *seen == k) {
                Some((_, sum)) => *sum += v,
                None => sums.push((k, v)),
            }
        }
        let mut want = vec![Vec::new(); 8];
        for rec in &sums {
            rec.encode(&mut want[bucket_of(&rec.0, 8)]);
        }
        assert!(want.iter().filter(|w| w.is_empty()).count() >= 5);
        assert_frozen_layout(&buckets, &want);
    }

    /// Buckets are packed into one buffer up to the bound; a bucket that
    /// would take a buffer past it starts a buffer of its own.
    #[test]
    fn buckets_past_the_packing_bound_get_buffers_of_their_own() {
        let parts = [vec![1; 10], vec![2; 20], vec![3; FROZEN_BUFFER_BYTES], vec![4; 5]];
        let buckets = finish_buckets(&mut ctx(), parts.to_vec());
        let ends = |b: &ShuffleBucket| (b.bytes.as_ptr() as usize, b.bytes.len());
        let [(p0, l0), (p1, l1), (p2, l2), (p3, _)] = [0, 1, 2, 3].map(|b| ends(&buckets[b]));
        assert_eq!(p0 + l0, p1, "small buckets share a buffer");
        assert_ne!(p1 + l1, p2, "the big bucket starts a buffer");
        assert_ne!(p2 + l2, p3, "a bucket past a full buffer starts another");
        for (bucket, part) in buckets.iter().zip(&parts) {
            assert_eq!(&bucket.bytes[..], &part[..]);
        }
    }

    #[test]
    fn shuffle_work_is_charged() {
        let data: Vec<(u64, u64)> = (0..100).map(|i| (i, i)).collect();
        let ds = Dataset::parallelize(data, 1);
        let red = ds.reduce_by_key(2, |a, b| a + b);
        let deps = input_shuffles(&red.node());
        let mut c = ctx();
        let d = deps[0].parent.compute(&mut c, 0);
        let before = c.cpu_secs();
        (deps[0].partitioner)(&mut c, d);
        assert!(c.cpu_secs() > before, "partitioner must charge CPU");
        assert!(c.bytes_out() > 0, "serialized bytes counted as output");
    }
}

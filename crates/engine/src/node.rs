//! The untyped plan layer: lineage nodes, dependencies and shuffle edges,
//! and the typed row stream a stage's narrow operators run as.
//!
//! A job is a DAG of [`PlanNode`]s mirroring Spark's RDD graph. A stage's
//! narrow operators run as one pass, as Spark's `RDD.compute` iterators
//! do: rows flow from the stage's source (`generate`, `parallelize`, a
//! wide operator's merge, `cache`, `map_partitions`) through every narrow
//! operator straight into the stage's sink (a shuffle's map side, or the
//! collecting sink), and are materialized only at those sources and
//! sinks. The sink is the only way a node hands rows on: a source calls
//! it once with its whole partition, and `map`, `flat_map` and `filter`
//! once per row. Collecting a partition — a result task's
//! [`PlanNode::compute`], the input of `cache` or `map_partitions` — is
//! one more sink, which keeps a source's rows as they came and owns the
//! rows an operator passes on; a row a `filter` passes on from a shared
//! source is cloned there, which is why a dataset's rows are `Clone`.
//! [`ShuffleDep`] edges are the stage boundaries where data is
//! partitioned by key, serialized and moved through the block store.
//!
//! The whole layer is `Send + Sync`: task bodies execute on the engine's
//! worker-thread pool, so plan nodes, partition payloads and the closures
//! inside them must be shareable across threads.

use std::any::Any;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use splitserve_rt::Bytes;

use crate::context::TaskContext;

/// A computed partition: `Arc<Vec<T>>` behind `Any`. What a result task
/// hands back to the job's submitter and what a `cache()` or
/// `parallelize` shares between tasks; cheap to clone and movable to
/// worker threads.
pub type PartitionData = Arc<dyn Any + Send + Sync>;

/// Identifies a plan node within a process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u64);

/// Identifies a shuffle (stage boundary) within a process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ShuffleId(pub u64);

impl std::fmt::Display for ShuffleId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "shuffle-{}", self.0)
    }
}

static NEXT_NODE: AtomicU64 = AtomicU64::new(0);
static NEXT_SHUFFLE: AtomicU64 = AtomicU64::new(0);

/// Allocates a fresh node id (process-unique).
fn next_node_id() -> NodeId {
    NodeId(NEXT_NODE.fetch_add(1, Ordering::Relaxed))
}

/// Allocates a fresh shuffle id (process-unique).
fn next_shuffle_id() -> ShuffleId {
    ShuffleId(NEXT_SHUFFLE.fetch_add(1, Ordering::Relaxed))
}

/// One serialized shuffle bucket produced by a map task: the bytes bound
/// for one reduce partition.
///
/// The payload is an immutable [`Bytes`] slice of a buffer the map task's
/// buckets share, back to back and sized exactly to their contents: the
/// partitioner encodes into pooled scratch and freezes consecutive
/// buckets together into buffers of up to 128 KiB (a larger bucket has
/// one of its own), so a task with small buckets allocates one buffer
/// for all of them, and the scheduler hands each slice to the block store
/// without copying. An empty bucket is an empty slice.
#[derive(Debug, Clone)]
pub struct ShuffleBucket {
    /// Serialized records.
    pub bytes: Bytes,
}

/// The map side of a shuffle, type-erased: takes the parent's computed
/// partition, applies any map-side combine, partitions by key and
/// serializes — returning one bucket per reduce partition. Charges its
/// CPU work to the context.
pub(crate) type Partitioner =
    Arc<dyn Fn(&mut TaskContext, PartitionData) -> Vec<ShuffleBucket> + Send + Sync>;

/// A map task: the parent's rows of one partition streamed straight into
/// the shuffle's map side.
type MapTask = Box<dyn Fn(&mut TaskContext, usize) -> Vec<ShuffleBucket> + Send + Sync>;

/// A wide (shuffle) dependency: the child reads `parent`'s output
/// re-partitioned into `num_partitions` buckets by `partitioner`.
pub struct ShuffleDep {
    /// The shuffle's id (names its blocks in the store).
    pub id: ShuffleId,
    /// The map-side plan.
    pub parent: Arc<dyn PlanNode>,
    /// Number of reduce partitions.
    pub num_partitions: usize,
    /// Type-erased map-side work: the parent's computed partition in, one
    /// bucket per reduce partition out.
    pub partitioner: Partitioner,
    /// The same map side, fed by the parent's stream (see
    /// [`ShuffleDep::map_task`]).
    task: MapTask,
}

/// What a shuffle's map side reads: the parent stage's stream, or the
/// rows of a partition computed already, lent.
pub(crate) enum Feed<'a, T> {
    /// Partition `.1` of the parent, streamed.
    Stream(&'a dyn Stream<T>, usize),
    /// A computed partition.
    Computed(PartitionData),
}

impl<T: Send + Sync + 'static> Feed<'_, T> {
    /// Sends the rows into `sink`. A computed partition is dropped once
    /// its rows have been read, before the map side encodes anything.
    pub(crate) fn into_sink(self, ctx: &mut TaskContext, sink: &mut Sink<'_, T>) {
        match self {
            Feed::Stream(parent, part) => parent.stream(ctx, part, sink),
            Feed::Computed(data) => {
                let rows = kept_rows(data);
                sink(rows.len(), Batch::Lent(&rows))
            }
        }
    }
}

/// A partition's rows, typed again.
///
/// # Panics
///
/// Panics if `data` holds another row type: an engine invariant violation.
pub(crate) fn kept_rows<T: Send + Sync + 'static>(data: PartitionData) -> Arc<Vec<T>> {
    data.downcast::<Vec<T>>()
        .unwrap_or_else(|_| panic!("partition type mismatch: engine invariant violated"))
}

impl ShuffleDep {
    /// A fresh shuffle of `parent` into `num_partitions` buckets — the one
    /// place a shuffle edge is made, so the one place its width is checked.
    /// `side` is the map side, written once: the [`Partitioner`] feeds it
    /// a computed partition, the map task the parent's stream.
    ///
    /// # Panics
    ///
    /// Panics if `num_partitions` is zero.
    pub(crate) fn new<T: Send + Sync + 'static>(
        parent: Arc<dyn Stream<T>>,
        num_partitions: usize,
        side: impl Fn(&mut TaskContext, Feed<'_, T>) -> Vec<ShuffleBucket>
            + Clone
            + Send
            + Sync
            + 'static,
    ) -> Arc<ShuffleDep> {
        assert!(num_partitions > 0, "need at least one partition");
        let computed = side.clone();
        let streamed = Arc::clone(&parent);
        Arc::new(ShuffleDep {
            id: next_shuffle_id(),
            parent,
            num_partitions,
            partitioner: Arc::new(move |ctx, data| computed(ctx, Feed::Computed(data))),
            task: Box::new(move |ctx, part| side(ctx, Feed::Stream(&*streamed, part))),
        })
    }

    /// Runs map task `part`: the parent's rows stream from the stage's
    /// source through its narrow operators into the map side, and are
    /// materialized nowhere in between. Buckets and charges are bit for bit
    /// those of `(self.partitioner)(ctx, self.parent.compute(ctx, part))`.
    pub fn map_task(&self, ctx: &mut TaskContext, part: usize) -> Vec<ShuffleBucket> {
        (self.task)(ctx, part)
    }
}

impl std::fmt::Debug for ShuffleDep {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShuffleDep")
            .field("id", &self.id)
            .field("parent", &self.parent.id())
            .field("num_partitions", &self.num_partitions)
            .finish()
    }
}

/// A dependency edge in the plan DAG.
#[derive(Clone)]
pub enum Dep {
    /// Same-stage dependency: the child reads the parent's rows as a stream
    /// inside the same task.
    Narrow(Arc<dyn PlanNode>),
    /// Stage boundary: child reads the shuffle's blocks.
    Shuffle(Arc<ShuffleDep>),
}

impl std::fmt::Debug for Dep {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Dep::Narrow(p) => write!(f, "Narrow({:?})", p.id()),
            Dep::Shuffle(d) => write!(f, "Shuffle({:?})", d.id),
        }
    }
}

/// A lineage node. The operator library builds every one of them through
/// the one operator type; workloads interact through the typed
/// [`Dataset`](crate::Dataset) wrapper instead.
///
/// `Send + Sync` because `compute` runs on worker threads.
pub trait PlanNode: Send + Sync {
    /// This node's id.
    fn id(&self) -> NodeId;
    /// Human-readable operator name for logs ("map", "reduceByKey", …).
    fn label(&self) -> &str;
    /// Number of partitions this node produces.
    fn num_partitions(&self) -> usize;
    /// Dependency edges.
    fn deps(&self) -> &[Dep];
    /// Computes partition `part`, performing the *real* data
    /// transformation and charging its CPU work to `ctx`: the node's
    /// stream collected into one `Vec`, or a shared source's rows as they
    /// are shared.
    fn compute(&self, ctx: &mut TaskContext, part: usize) -> PartitionData;
}

/// One row on its way down a stage's stream: lent by a source that keeps
/// its rows across tasks (`parallelize`, `cache`), or handed over by one
/// that made them for this task. An operator reads a row by reference
/// and clones a lent row only where it must own it.
pub(crate) enum Row<'a, T> {
    /// Borrowed from a shared source.
    Lent(&'a T),
    /// Owned by the stream.
    Owned(T),
}

impl<T> Row<'_, T> {
    /// The row, by reference.
    pub(crate) fn get(&self) -> &T {
        match self {
            Row::Lent(row) => row,
            Row::Owned(row) => row,
        }
    }

    /// The row, by value: moved when owned, cloned when lent.
    pub(crate) fn into_owned(self) -> T
    where
        T: Clone,
    {
        match self {
            Row::Lent(row) => row.clone(),
            Row::Owned(row) => row,
        }
    }
}

/// Rows on their way down a stage's stream, as one call of a [`Sink`]
/// carries them: a source's whole partition at once, or one row a narrow
/// operator passes on.
pub(crate) enum Batch<'a, T> {
    /// One row.
    Row(Row<'a, T>),
    /// A shared source's rows, lent.
    Lent(&'a Arc<Vec<T>>),
    /// The rows a source made for this task, handed over.
    Made(Vec<T>),
}

impl<'a, T> Batch<'a, T> {
    /// Calls `f` on every row, in order: a loop over the source's rows
    /// with `f` inlined, so a sink right behind a source reads its rows as
    /// fast as from a slice.
    #[inline]
    pub(crate) fn for_each(self, mut f: impl FnMut(Row<'a, T>)) {
        match self {
            Batch::Row(row) => f(row),
            Batch::Lent(rows) => rows.iter().for_each(|row| f(Row::Lent(row))),
            Batch::Made(rows) => rows.into_iter().for_each(|row| f(Row::Owned(row))),
        }
    }
}

/// Where a stage's rows go, and the one way a plan node hands rows on: how
/// many rows the stream expects in all (exact at a source and through
/// `map`, the input's count past a `filter` or `flat_map`: a sizing hint
/// only), and the next rows. A source calls it once, with its whole
/// partition; a narrow operator once per row it passes on. A sink is a
/// closure on its caller's stack and charges nothing until the stream has
/// returned.
pub(crate) type Sink<'s, T> = dyn FnMut(usize, Batch<'_, T>) + 's;

/// A partition's rows collected whole: made by this task, or kept across
/// tasks by a shared source.
pub(crate) enum Rows<T> {
    /// Made by this task.
    Made(Vec<T>),
    /// Shared with other tasks.
    Kept(Arc<Vec<T>>),
}

impl<T: Clone> Rows<T> {
    /// The rows, in order.
    pub(crate) fn as_slice(&self) -> &[T] {
        match self {
            Rows::Made(rows) => rows,
            Rows::Kept(rows) => rows,
        }
    }

    /// The rows behind an `Arc`, which shared rows already are.
    pub(crate) fn into_kept(self) -> Arc<Vec<T>> {
        match self {
            Rows::Made(rows) => Arc::new(rows),
            Rows::Kept(rows) => rows,
        }
    }

    /// The collecting sink. A source's lone batch is kept as it came: its
    /// `Vec` taken over, or its `Arc` shared. Rows an operator passes on
    /// are pushed into one `Vec`, reserved for the `expected` rows when the
    /// first arrives; a lent one, which reaches here only past a `filter`,
    /// is cloned.
    fn collect(&mut self, expected: usize, batch: Batch<'_, T>) {
        match batch {
            Batch::Made(rows) if self.as_slice().is_empty() => *self = Rows::Made(rows),
            Batch::Lent(rows) if self.as_slice().is_empty() => *self = Rows::Kept(Arc::clone(rows)),
            batch => {
                let rows = match self {
                    Rows::Made(rows) => rows,
                    Rows::Kept(rows) => Arc::make_mut(rows),
                };
                if rows.is_empty() {
                    rows.reserve(expected);
                }
                batch.for_each(|row| rows.push(row.into_owned()));
            }
        }
    }
}

/// A plan node's typed side: the rows of a partition, sent into the
/// stage's sink. Every [`Dataset`](crate::Dataset) holds one; it upcasts
/// to the untyped [`PlanNode`] the scheduler walks.
pub(crate) trait Stream<T>: PlanNode {
    /// Sends partition `part` into `sink`, charging its work to `ctx` only
    /// after its input's stream has returned, so charges land in the order
    /// source, each narrow operator, sink.
    fn stream(&self, ctx: &mut TaskContext, part: usize, sink: &mut Sink<'_, T>);
}

impl<T: Clone> dyn Stream<T> + '_ {
    /// Partition `part` collected whole by the collecting sink
    /// ([`Rows::collect`]): shared rows stay shared.
    pub(crate) fn rows(&self, ctx: &mut TaskContext, part: usize) -> Rows<T> {
        let mut rows = Rows::Made(Vec::new());
        self.stream(ctx, part, &mut |expected, batch| rows.collect(expected, batch));
        rows
    }
}

/// The one operator type: what a scheduler needs to know about a node is
/// stored as data (id, label, width, the `N` edges inline), and what the
/// node *does* is one closure holding the user's function — and whatever
/// else the body reads, such as its parent or a cache's slots — by value.
struct Op<T, F, const N: usize> {
    id: NodeId,
    label: &'static str,
    num_partitions: usize,
    deps: [Dep; N],
    stream: F,
    _rows: PhantomData<fn() -> T>,
}

impl<T, F, const N: usize> PlanNode for Op<T, F, N>
where
    T: Clone + Send + Sync + 'static,
    F: Fn(&mut TaskContext, usize, &mut Sink<'_, T>) + Send + Sync,
{
    fn id(&self) -> NodeId {
        self.id
    }
    fn label(&self) -> &str {
        self.label
    }
    fn num_partitions(&self) -> usize {
        self.num_partitions
    }
    fn deps(&self) -> &[Dep] {
        &self.deps
    }
    fn compute(&self, ctx: &mut TaskContext, part: usize) -> PartitionData {
        let this: &dyn Stream<T> = self;
        this.rows(ctx, part).into_kept()
    }
}

impl<T, F, const N: usize> Stream<T> for Op<T, F, N>
where
    T: Clone + Send + Sync + 'static,
    F: Fn(&mut TaskContext, usize, &mut Sink<'_, T>) + Send + Sync,
{
    fn stream(&self, ctx: &mut TaskContext, part: usize, sink: &mut Sink<'_, T>) {
        (self.stream)(ctx, part, sink)
    }
}

/// A fresh plan node (one allocation): `stream(ctx, part, sink)` sends
/// partition `part` of `num_partitions` into `sink`, reading the nodes and
/// shuffles named by `deps`. Rows are `Clone` so that the collecting sink
/// can own the rows a `filter` passes on from a shared source.
pub(crate) fn op<T: Clone + Send + Sync + 'static, const N: usize>(
    label: &'static str,
    num_partitions: usize,
    deps: [Dep; N],
    stream: impl Fn(&mut TaskContext, usize, &mut Sink<'_, T>) + Send + Sync + 'static,
) -> Arc<dyn Stream<T>> {
    Arc::new(Op {
        id: next_node_id(),
        label,
        num_partitions,
        deps,
        stream,
        _rows: PhantomData,
    })
}

/// Walks the narrow-dependency closure of `node` (the nodes that execute
/// within its stage) and returns every [`ShuffleDep`] feeding that stage,
/// in shuffle-id order.
pub fn input_shuffles(node: &Arc<dyn PlanNode>) -> Vec<Arc<ShuffleDep>> {
    // `seen` keeps a diamond (a union of two views of one parent) from
    // being walked once per path.
    fn walk(node: &dyn PlanNode, seen: &mut Seen, out: &mut Vec<Arc<ShuffleDep>>) {
        if !seen.insert(node.id()) {
            return;
        }
        for dep in node.deps() {
            match dep {
                Dep::Narrow(parent) => walk(&**parent, seen, out),
                Dep::Shuffle(shuffle) => out.push(Arc::clone(shuffle)),
            }
        }
    }
    let mut out = Vec::new();
    walk(&**node, &mut Seen::default(), &mut out);
    out.sort_by_key(|s| s.id);
    out.dedup_by_key(|s| s.id);
    out
}

/// The nodes a stage walk has visited. A stage's closure is a handful of
/// nodes, so the first [`Seen::INLINE`] live inline and the walk
/// allocates nothing; a longer narrow chain spills into `rest`.
struct Seen {
    first: [NodeId; Seen::INLINE],
    /// How many of `first` are filled.
    len: usize,
    rest: Vec<NodeId>,
}

impl Default for Seen {
    fn default() -> Self {
        Seen {
            first: [NodeId(0); Seen::INLINE],
            len: 0,
            rest: Vec::new(),
        }
    }
}

impl Seen {
    const INLINE: usize = 16;

    /// Adds `id`, reporting whether it was new.
    fn insert(&mut self, id: NodeId) -> bool {
        if self.first[..self.len].contains(&id) || self.rest.contains(&id) {
            return false;
        }
        match self.first.get_mut(self.len) {
            Some(slot) => {
                *slot = id;
                self.len += 1;
            }
            None => self.rest.push(id),
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_increasing() {
        let a = next_node_id();
        let b = next_node_id();
        assert!(b > a);
        let s1 = next_shuffle_id();
        let s2 = next_shuffle_id();
        assert!(s2 > s1);
    }

    #[test]
    fn seen_spills_past_its_inline_slots() {
        let mut seen = Seen::default();
        for id in 0..40 {
            assert!(seen.insert(NodeId(id)), "{id} is new");
        }
        assert_eq!(seen.rest.len(), 40 - Seen::INLINE);
        for id in [0, 15, 16, 39] {
            assert!(!seen.insert(NodeId(id)), "{id} was seen");
        }
        assert!(seen.insert(NodeId(40)));
    }
}

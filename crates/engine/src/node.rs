//! The untyped plan layer: lineage nodes, dependencies and shuffle edges.
//!
//! A job is a DAG of [`PlanNode`]s mirroring Spark's RDD graph. Narrow
//! dependencies are computed by recursive calls within one task
//! (pipelining); [`ShuffleDep`] edges are the stage boundaries where data
//! is partitioned by key, serialized and moved through the block store.
//!
//! The whole layer is `Send + Sync`: task bodies execute on the engine's
//! worker-thread pool, so plan nodes, partition payloads and the closures
//! inside them must be shareable across threads.

use std::any::Any;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use splitserve_rt::Bytes;

use crate::context::TaskContext;

/// A computed partition: `Arc<Vec<T>>` behind `Any`. Cheap to clone,
/// shared between pipelined operators, and movable to worker threads.
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
pub type Partitioner = Arc<dyn Fn(&mut TaskContext, PartitionData) -> Vec<ShuffleBucket> + Send + Sync>;

/// A wide (shuffle) dependency: the child reads `parent`'s output
/// re-partitioned into `num_partitions` buckets by `partitioner`.
pub struct ShuffleDep {
    /// The shuffle's id (names its blocks in the store).
    pub id: ShuffleId,
    /// The map-side plan.
    pub parent: Arc<dyn PlanNode>,
    /// Number of reduce partitions.
    pub num_partitions: usize,
    /// Type-erased map-side work (see [`Partitioner`]).
    pub partitioner: Partitioner,
}

impl ShuffleDep {
    /// A fresh shuffle of `parent` into `num_partitions` buckets — the one
    /// place a shuffle edge is made, so the one place its width is checked.
    ///
    /// # Panics
    ///
    /// Panics if `num_partitions` is zero.
    pub fn new(
        parent: Arc<dyn PlanNode>,
        num_partitions: usize,
        partitioner: Partitioner,
    ) -> Arc<ShuffleDep> {
        assert!(num_partitions > 0, "need at least one partition");
        Arc::new(ShuffleDep {
            id: next_shuffle_id(),
            parent,
            num_partitions,
            partitioner,
        })
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
    /// Same-stage dependency: child's `compute` calls parent's `compute`.
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

/// A lineage node. The operator library in [`crate::ops`] builds every
/// one of them through [`op`]; workloads interact through the typed
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
    /// transformation and charging its CPU work to `ctx`.
    fn compute(&self, ctx: &mut TaskContext, part: usize) -> PartitionData;
}

/// The one operator type: what a scheduler needs to know about a node is
/// stored as data (id, label, width, the `N` edges inline), and what the
/// node *does* is one closure holding the user's function — and whatever
/// else the body reads, such as its parent or a cache's slots — by value.
struct Op<F, const N: usize> {
    id: NodeId,
    label: &'static str,
    num_partitions: usize,
    deps: [Dep; N],
    compute: F,
}

impl<F, const N: usize> PlanNode for Op<F, N>
where
    F: Fn(&mut TaskContext, usize) -> PartitionData + Send + Sync,
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
        (self.compute)(ctx, part)
    }
}

/// A fresh plan node (one allocation): `compute(ctx, part)` produces
/// partition `part` of `num_partitions`, reading the nodes and shuffles
/// named by `deps`.
pub(crate) fn op<const N: usize>(
    label: &'static str,
    num_partitions: usize,
    deps: [Dep; N],
    compute: impl Fn(&mut TaskContext, usize) -> PartitionData + Send + Sync + 'static,
) -> Arc<dyn PlanNode> {
    Arc::new(Op {
        id: next_node_id(),
        label,
        num_partitions,
        deps,
        compute,
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

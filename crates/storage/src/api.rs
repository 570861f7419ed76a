//! The common block-store API all shuffle/state substrates implement.

use std::fmt;
use std::rc::Rc;

use splitserve_rt::{Bytes, Interned};
use splitserve_des::{LinkId, Sim};

/// A stored block, addressed Spark-style: each executor's *unique ID* is the
/// entry point into the directory structure (paper §4.3), and the block name
/// follows Spark's `shuffle_<shuffle>_<map>_<reduce>` convention.
///
/// `Copy`: the executor is an interned symbol and shuffle names are kept
/// structured (see `BlockName`), so block ids move through the store
/// request path — built per fetch and per write — without allocating.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId {
    /// The executor that wrote the block (directory prefix).
    pub executor: Interned,
    /// Block name within the executor's directory.
    pub name: BlockName,
}

/// A block's name within its executor directory: either a structured
/// shuffle triple (rendered in Spark's `shuffle_<s>_<m>_<r>` convention)
/// or an interned free-form name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BlockName {
    /// A shuffle block: `shuffle_<shuffle>_<map>_<reduce>`.
    Shuffle {
        /// Shuffle id.
        shuffle: u64,
        /// Map partition index.
        map: u64,
        /// Reduce partition index.
        reduce: u64,
    },
    /// An arbitrary named block.
    Named(Interned),
}

impl BlockId {
    /// A shuffle block id in Spark's naming convention.
    pub fn shuffle(executor: impl Into<Interned>, shuffle: u64, map: u64, reduce: u64) -> Self {
        BlockId {
            executor: executor.into(),
            name: BlockName::Shuffle {
                shuffle,
                map,
                reduce,
            },
        }
    }

    /// An arbitrary named block.
    ///
    /// Test aid: only tests call this.
    pub fn named(executor: impl Into<Interned>, name: impl Into<BlockName>) -> Self {
        BlockId {
            executor: executor.into(),
            name: name.into(),
        }
    }

    /// Whether this is a block of shuffle `shuffle`.
    pub fn in_shuffle(&self, shuffle: u64) -> bool {
        matches!(self.name, BlockName::Shuffle { shuffle: s, .. } if s == shuffle)
    }
}

impl From<Interned> for BlockName {
    fn from(name: Interned) -> Self {
        BlockName::Named(name)
    }
}

impl From<&str> for BlockName {
    fn from(name: &str) -> Self {
        BlockName::Named(Interned::new(name))
    }
}

impl fmt::Display for BlockName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BlockName::Shuffle {
                shuffle,
                map,
                reduce,
            } => write!(f, "shuffle_{shuffle}_{map}_{reduce}"),
            BlockName::Named(name) => f.write_str(name.as_str()),
        }
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.executor, self.name)
    }
}

/// Where the requesting executor runs, so the store can charge the right
/// links for the transfer.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClientLoc {
    /// The client's network link, if network is traversed.
    pub nic: Option<LinkId>,
    /// The client's local-disk link, for local reads/writes.
    pub disk: Option<LinkId>,
}

impl ClientLoc {
    /// A client with only a network link (e.g. a Lambda).
    ///
    /// Test aid: only tests call this.
    pub fn net(nic: LinkId) -> Self {
        ClientLoc {
            nic: Some(nic),
            disk: None,
        }
    }

    /// A client with network and disk links (a VM executor).
    pub fn vm(nic: LinkId, disk: LinkId) -> Self {
        ClientLoc {
            nic: Some(nic),
            disk: Some(disk),
        }
    }
}

/// Errors surfaced by block stores.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The block does not exist (never written, or deleted).
    NotFound(BlockId),
    /// The block was lost because the executor holding it died — the event
    /// that triggers Spark's recompute-from-lineage rollback.
    ExecutorLost {
        /// The dead executor whose local blocks vanished.
        executor: String,
        /// The block that was being fetched.
        block: BlockId,
    },
    /// The store rejected the request (e.g. block exceeds a service limit).
    Rejected(String),
    /// A deliberately injected fault (chaos testing): which operation was
    /// struck and its 1-based ordinal in the store's request sequence.
    Injected {
        /// The struck operation ("get" or "put").
        op: &'static str,
        /// 1-based position in that operation's request sequence.
        ordinal: u64,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::NotFound(b) => write!(f, "block not found: {b}"),
            StoreError::ExecutorLost { executor, block } => {
                write!(f, "executor {executor} lost; block {block} gone")
            }
            StoreError::Rejected(m) => write!(f, "request rejected: {m}"),
            StoreError::Injected { op, ordinal } => {
                write!(f, "injected fault: {op} #{ordinal}")
            }
        }
    }
}

impl std::error::Error for StoreError {}

/// Completion continuation for writes (benchmark seam, like `put`).
pub type PutCallback = Box<dyn FnOnce(&mut Sim, Result<(), StoreError>)>;
/// Completion continuation for reads (benchmark seam, like `get`).
pub type GetCallback = Box<dyn FnOnce(&mut Sim, Result<Bytes, StoreError>)>;

/// A component that hears its store requests land as `(client, token)`
/// answers rather than through a boxed callback: what
/// [`BlockStore::put_to`] / [`BlockStore::get_to`] report to. The token is
/// the caller's own — typically a slot where it parked what the request
/// needs back — and comes back unchanged with the result.
///
/// (`splitserve_des::EventHandler` carries a token only; a store has to
/// hand back bytes or an error as well.)
pub trait StoreClient {
    /// The put issued under `token` landed (or was refused).
    fn put_landed(self: Rc<Self>, sim: &mut Sim, token: u64, result: Result<(), StoreError>);

    /// The get issued under `token` landed (or failed).
    fn get_landed(self: Rc<Self>, sim: &mut Sim, token: u64, result: Result<Bytes, StoreError>);
}

/// Aggregate counters a store keeps about its own traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StoreStats {
    /// Completed writes.
    pub puts: u64,
    /// Completed reads.
    pub gets: u64,
    /// Bytes written.
    pub bytes_in: u64,
    /// Bytes read.
    pub bytes_out: u64,
    /// Failed reads (not-found / lost).
    pub failed_gets: u64,
    /// Cumulative seconds requests spent waiting on throttling.
    pub throttle_wait_secs: f64,
}

/// A shuffle/state storage substrate.
///
/// All operations are asynchronous in simulated time: they charge the
/// appropriate links/latencies and invoke the continuation when done.
/// Implementations differ in *where bytes live* — and therefore in whether
/// blocks survive the death of the executor that wrote them, which is the
/// architectural property SplitServe's HDFS-based state exchange provides.
pub trait BlockStore {
    /// Short name for logs and experiment tables ("hdfs", "s3", …).
    fn kind(&self) -> &'static str;

    /// Whether blocks survive the loss of the executor that wrote them.
    /// `false` for executor-local disk (vanilla dynamic allocation);
    /// `true` for the shared substrates (HDFS, S3, SQS, Redis).
    fn survives_executor_loss(&self) -> bool;

    /// Writes `data` under `block`, invoking `cb` when the bytes are
    /// durably placed. Benchmark seam: library code uses
    /// [`BlockStore::put_to`].
    fn put(&self, sim: &mut Sim, client: ClientLoc, block: BlockId, data: Bytes, cb: PutCallback);

    /// Reads `block`, invoking `cb` with the bytes or an error. Benchmark
    /// seam: library code uses [`BlockStore::get_to`].
    fn get(&self, sim: &mut Sim, client: ClientLoc, block: BlockId, cb: GetCallback);

    /// [`BlockStore::put`], answered by `to.put_landed(sim, token, ..)`
    /// at the instant and program point `put` would call its callback.
    /// The default boxes that call into `put` (the benchmark's frozen
    /// decorator inherits it); the library's stores answer without the box.
    fn put_to(
        &self,
        sim: &mut Sim,
        client: ClientLoc,
        block: BlockId,
        data: Bytes,
        to: Rc<dyn StoreClient>,
        token: u64,
    ) {
        let cb: PutCallback = Box::new(move |sim, result| to.put_landed(sim, token, result));
        self.put(sim, client, block, data, cb);
    }

    /// [`BlockStore::get`], answered by `to.get_landed(sim, token, ..)`;
    /// see [`BlockStore::put_to`].
    fn get_to(
        &self,
        sim: &mut Sim,
        client: ClientLoc,
        block: BlockId,
        to: Rc<dyn StoreClient>,
        token: u64,
    ) {
        let cb: GetCallback = Box::new(move |sim, result| to.get_landed(sim, token, result));
        self.get(sim, client, block, cb);
    }

    /// Reacts to the death of `executor`: a local store drops its blocks;
    /// shared stores keep them.
    fn on_executor_lost(&self, sim: &mut Sim, executor: &str);

    /// Registers an executor's location so local stores can serve its
    /// blocks. Shared substrates don't care; the default is a no-op.
    fn register_executor(&self, executor: &str, loc: ClientLoc) {
        let _ = (executor, loc);
    }

    /// Drops every block of shuffle `shuffle`, on every executor: its
    /// reader is gone. Costs no simulated time and moves no counter. A put
    /// of that shuffle still in flight lands and is counted, but its block
    /// is not kept. The default keeps everything; a decorator must forward
    /// the call.
    fn forget_shuffle(&self, shuffle: u64) {
        let _ = shuffle;
    }

    /// Whether the block currently exists.
    fn contains(&self, block: &BlockId) -> bool;

    /// Traffic counters.
    fn stats(&self) -> StoreStats;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shuffle_block_naming_matches_spark() {
        let b = BlockId::shuffle("exec-7", 1, 3, 9);
        assert_eq!(b.to_string(), "exec-7/shuffle_1_3_9");
    }

    #[test]
    fn block_ids_order_by_executor_then_name() {
        let a = BlockId::named("a", "z");
        let b = BlockId::named("b", "a");
        assert!(a < b);
    }

    #[test]
    fn error_display_is_informative() {
        let e = StoreError::ExecutorLost {
            executor: "exec-1".into(),
            block: BlockId::shuffle("exec-1", 0, 0, 0),
        };
        let s = e.to_string();
        assert!(s.contains("exec-1") && s.contains("shuffle_0_0_0"));
    }
}

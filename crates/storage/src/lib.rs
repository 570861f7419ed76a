//! # splitserve-storage — shuffle/state storage substrates
//!
//! The paper's central storage question is *where intermediate shuffle data
//! lives* when executors are fleeting:
//!
//! | Store | Used by | Fee | Throttle | Latency | Route | On executor loss |
//! |---|---|---|---|---|---|---|
//! | [`LocalDiskStore`] | vanilla Spark dynamic allocation | — | — | — | put: the writer's disk; get: the owner's disk and both NICs, the disk alone when the owner reads | the executor's blocks are dropped, reads fail `ExecutorLost` → lineage rollback |
//! | [`HdfsStore`] | **SplitServe** (§4.3) | — | — | namenode round trip | client NIC ↔ the block's datanode NIC + EBS pipe (the bottleneck); datanode picked round-robin at write | kept |
//! | [`S3Store`] | Qubole Spark-on-Lambda, PyWren | per request, hit or miss | one token per request, wait × client back-off | first byte (put / get) | client NIC ↔ next service connection | kept |
//! | [`SqsStore`] | Flint | per 256 KB message, hits only | one token per message | per batch | client NIC ↔ next service connection | kept |
//! | [`RedisStore`] | Locus | — (an always-on VM bills instead) | — (over capacity → `Rejected`) | in-memory | client NIC ↔ server NIC | kept |
//!
//! Those five columns are the whole difference. All five are one
//! [`Store`] — one block table, one set of counters, one asynchronous
//! `put`/`get` path behind [`BlockStore`] — over a cost model that answers
//! them per request.

#![warn(missing_docs)]

mod api;
mod fault;
mod hdfs;
mod local;
mod redis;
mod s3;
mod sqs;
mod store;

pub use api::{
    BlockId, BlockStore, ClientLoc, GetCallback, PutCallback, StoreClient, StoreError, StoreStats,
};
pub use fault::{FaultStore, StoreFaults};
pub use hdfs::{HdfsSpec, HdfsStore};
pub use local::LocalDiskStore;
pub use redis::{RedisSpec, RedisStore};
pub use s3::{S3Spec, S3Store};
pub use sqs::{SqsSpec, SqsStore};
pub use store::Store;

use std::rc::Rc;

/// A reference-counted dynamic block store, the form the engine consumes.
pub type SharedStore = Rc<dyn BlockStore>;

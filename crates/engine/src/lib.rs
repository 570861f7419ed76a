//! # splitserve-engine — a Spark-like distributed dataflow engine
//!
//! A reproduction of the Apache Spark execution model at the fidelity the
//! SplitServe paper needs: typed lazily-evaluated datasets with lineage
//! ([`Dataset`]), stages split at shuffle boundaries ([`build_stages`]), a
//! driver-side map-output tracker, a task scheduler over registered
//! executors ([`Engine`]), dynamic executor churn (register / drain /
//! kill), and lineage-based fault recovery with rollback cascades when
//! shuffle data dies with its executor.
//!
//! Tasks perform **real computation on real data**; the discrete-event
//! simulation only decides how long that computation and its shuffle I/O
//! take (see [`WorkModel`]). Results are therefore checkable while timing
//! remains faithful to the simulated cloud.
//!
//! The two SplitServe-critical mechanisms live here:
//!
//! - **Pluggable shuffle store** — the engine writes map outputs through a
//!   [`splitserve_storage::BlockStore`], so vanilla local-disk shuffle,
//!   Qubole-style S3 shuffle and SplitServe's HDFS shuffle are one
//!   constructor argument apart.
//! - **Graceful draining** ([`Engine::drain_executor`]) vs. abrupt kills
//!   ([`Engine::kill_executor`]) — the difference between SplitServe's
//!   segue and the execution rollback it avoids.

#![warn(missing_docs)]

mod combine;
mod config;
mod context;
mod events;
mod executor;
mod flight;
mod metrics;
mod node;
mod ops;
mod ops_ext;
mod scheduler;
mod stage;
mod telemetry;
mod tracker;

pub use config::{EngineConfig, WorkModel};
pub use context::TaskContext;
pub use events::{
    EngineEvent, EngineEventKind, EventLog, FailureKind, JobId, ShufflePhase, TaskRef,
};
pub use executor::{ExecutorDesc, ExecutorId, ExecutorKind};
pub use flight::flight_dump;
pub use metrics::{JobMetrics, JobOutput};
pub use node::{
    input_shuffles, Dep, NodeId, PartitionData, PlanNode, ShuffleBucket, ShuffleDep, ShuffleId,
};
pub use ops::{bucket_of, collect_partitions, Dataset, ShuffleKey, ShuffleValue};
pub use ops_ext::sample_sort_bounds;
pub use scheduler::{Engine, ExecutorInfo, LiveState};
pub use stage::{build_stages, Stage, StageGraph, StageId, StageKind};

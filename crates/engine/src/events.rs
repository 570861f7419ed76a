//! The engine's typed events — the one description of everything that
//! happens in a run — and the log that keeps them: the raw material for
//! the paper's execution timelines (Figure 7), the per-executor
//! work-distribution analyses and the post-mortem dump
//! ([`flight_dump`](crate::flight_dump)).
//!
//! The scheduler reports each occurrence once, through
//! `Telemetry::emit`; per-job metrics, registry series, spans, rollups and
//! this log are all derived there from the same value. No per-task variant
//! owns heap memory, so building one while every view is off allocates
//! nothing.

use std::cell::RefCell;
use std::rc::Rc;

use splitserve_des::SimTime;

use crate::executor::{ExecutorId, ExecutorKind};
use crate::node::ShuffleId;
use crate::stage::StageId;

/// Identifies a submitted job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job-{}", self.0)
    }
}

/// The two shuffle I/O phases of a task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShufflePhase {
    /// A reduce-side fetch of map-output blocks, before compute.
    Fetch,
    /// A map-side write of the task's buckets, after compute.
    Write,
}

impl ShufflePhase {
    /// `"fetch"` / `"write"` — the `phase` label of
    /// `shuffle_phase_seconds` and the dump's `phase` field.
    pub fn label(self) -> &'static str {
        match self {
            ShufflePhase::Fetch => "fetch",
            ShufflePhase::Write => "write",
        }
    }
}

/// Why a task attempt ended without producing its output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// The executor died mid-flight.
    ExecutorLost,
    /// A shuffle-input block could not be fetched.
    FetchFailed,
    /// A map-output write was rejected by the store.
    WriteFailed,
}

impl FailureKind {
    /// The `reason` label of `tasks_failed_total` and of the dump.
    pub fn label(self) -> &'static str {
        match self {
            FailureKind::ExecutorLost => "executor-lost",
            FailureKind::FetchFailed => "fetch-failed",
            FailureKind::WriteFailed => "write-failed",
        }
    }
}

/// Which task, where: the coordinates every task event carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskRef {
    /// The job the task belongs to.
    pub job: JobId,
    /// Stage the task belongs to.
    pub stage: StageId,
    /// Partition index.
    pub part: usize,
    /// The executor this attempt runs on.
    pub exec: ExecutorId,
}

/// What happened.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineEventKind {
    /// An executor joined the cluster.
    ExecutorRegistered {
        /// The executor.
        exec: ExecutorId,
        /// VM- or Lambda-backed.
        kind: ExecutorKind,
    },
    /// An executor was put in draining mode (no new tasks).
    ExecutorDraining {
        /// The executor.
        exec: ExecutorId,
    },
    /// A draining executor went idle and left the cluster gracefully.
    ExecutorDecommissioned {
        /// The executor.
        exec: ExecutorId,
    },
    /// An executor died abruptly (Lambda lifetime kill, VM crash).
    ExecutorLost {
        /// The executor.
        exec: ExecutorId,
    },
    /// A job was submitted.
    JobSubmitted {
        /// The job.
        job: JobId,
        /// Number of stages in its DAG.
        stages: usize,
    },
    /// A job's result stage finished.
    JobCompleted {
        /// The job.
        job: JobId,
    },
    /// A stage's tasks entered the pending queue.
    StageSubmitted {
        /// The job the stage belongs to.
        job: JobId,
        /// The stage.
        stage: StageId,
        /// Tasks queued (may be fewer than the stage's width when map
        /// outputs are being recomputed selectively).
        tasks: usize,
    },
    /// All of a stage's outputs are available.
    StageCompleted {
        /// The job the stage belongs to.
        job: JobId,
        /// The stage.
        stage: StageId,
    },
    /// A completed stage lost map outputs and was resubmitted — the
    /// "execution rollback" SplitServe's graceful segue avoids.
    StageRolledBack {
        /// The job the stage belongs to.
        job: JobId,
        /// The stage.
        stage: StageId,
        /// Map partitions that must be recomputed.
        missing: usize,
    },
    /// A task began on an executor.
    TaskStarted {
        /// Which task, where.
        task: TaskRef,
        /// VM- or Lambda-backed.
        kind: ExecutorKind,
    },
    /// A task's modeled CPU time has elapsed; its output is ready to be
    /// persisted (map task) or handed to the driver (result task).
    TaskComputed {
        /// Which task, where.
        task: TaskRef,
        /// Reference-core CPU seconds it charged.
        cpu_secs: f64,
    },
    /// A task finished.
    TaskFinished {
        /// Which task, where.
        task: TaskRef,
        /// VM- or Lambda-backed.
        kind: ExecutorKind,
        /// Reference-core CPU seconds it charged.
        cpu_secs: f64,
        /// Virtual seconds from dispatch to completion.
        run_secs: f64,
    },
    /// A task attempt failed and was re-queued.
    TaskFailed {
        /// Which task, where.
        task: TaskRef,
        /// Which way it failed.
        why: FailureKind,
        /// The store's error text, or `"executor lost"`.
        reason: String,
    },
    /// A reduce task could not fetch a map output block.
    FetchFailed {
        /// The consuming task.
        task: TaskRef,
        /// The shuffle whose block was missing.
        shuffle: ShuffleId,
    },
    /// A task began fetching its shuffle inputs or writing its buckets.
    ShufflePhaseStarted {
        /// Which task, where.
        task: TaskRef,
        /// VM- or Lambda-backed.
        kind: ExecutorKind,
        /// Fetch or write.
        phase: ShufflePhase,
        /// Serialized bytes the phase sets out to move.
        bytes: u64,
    },
    /// Every block of a shuffle phase landed.
    ShufflePhaseFinished {
        /// Which task, where.
        task: TaskRef,
        /// Fetch or write.
        phase: ShufflePhase,
        /// Serialized bytes moved.
        bytes: u64,
        /// Virtual seconds the phase took.
        secs: f64,
    },
    /// A shuffle phase ended without completing (store error, or a block
    /// landing after its attempt died — by then nobody knows whose).
    ShufflePhaseAborted {
        /// Fetch or write.
        phase: ShufflePhase,
    },
    /// A running task has outlived the configured multiple of its stage's
    /// live completion-time quantile. Detection only.
    StragglerSuspected {
        /// Which task, where.
        task: TaskRef,
        /// Virtual seconds since the attempt was dispatched.
        elapsed_secs: f64,
        /// The threshold it crossed.
        threshold_secs: f64,
    },
    /// The chaos plane performed a fault (`"kill"`, `"drain"`,
    /// `"straggle"`).
    FaultInjected {
        /// Which fault.
        kind: &'static str,
    },
    /// A marker emitted by a higher layer (e.g. `"segue commences"`).
    Marker(&'static str),
}

/// A timestamped engine event.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineEvent {
    /// When it happened.
    pub at: SimTime,
    /// What happened.
    pub kind: EngineEventKind,
}

/// Shared, cloneable event log. Unbounded while enabled: a run that must
/// not grow one (the fleet) switches it off with
/// [`EngineConfig::event_log`](crate::EngineConfig::event_log).
#[derive(Debug, Clone)]
pub struct EventLog {
    events: Rc<RefCell<Vec<EngineEvent>>>,
    enabled: bool,
}

/// The default log is **disabled** — it drops every push. This mirrors
/// observability being opt-in everywhere in the workspace; construct via
/// [`EventLog::new`] to actually record.
impl Default for EventLog {
    fn default() -> Self {
        EventLog::disabled()
    }
}

impl EventLog {
    /// Creates a log; when `enabled` is false, pushes are dropped.
    pub fn new(enabled: bool) -> Self {
        EventLog {
            events: Rc::new(RefCell::new(Vec::new())),
            enabled,
        }
    }

    /// A log that explicitly records nothing (also the [`Default`]).
    pub fn disabled() -> Self {
        EventLog::new(false)
    }

    /// Appends an event.
    pub(crate) fn push(&self, at: SimTime, kind: EngineEventKind) {
        if self.enabled {
            self.events.borrow_mut().push(EngineEvent { at, kind });
        }
    }

    /// Snapshot of all events so far.
    pub fn snapshot(&self) -> Vec<EngineEvent> {
        self.events.borrow().clone()
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.borrow().len()
    }

    /// `true` when nothing is recorded.
    pub fn is_empty(&self) -> bool {
        self.events.borrow().is_empty()
    }

    /// Clears the log (between scenario runs sharing an engine).
    pub fn clear(&self) {
        self.events.borrow_mut().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_snapshot() {
        let log = EventLog::new(true);
        log.push(SimTime::ZERO, EngineEventKind::Marker("hi"));
        log.push(
            SimTime::from_secs(1),
            EngineEventKind::JobCompleted { job: JobId(0) },
        );
        let snap = log.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].kind, EngineEventKind::Marker("hi"));
        log.clear();
        assert!(log.is_empty());
    }

    #[test]
    fn disabled_log_drops_events() {
        let log = EventLog::new(false);
        log.push(SimTime::ZERO, EngineEventKind::Marker("dropped"));
        assert!(log.is_empty());
    }

    #[test]
    fn default_is_the_disabled_log() {
        let log = EventLog::default();
        log.push(SimTime::ZERO, EngineEventKind::Marker("dropped"));
        assert!(log.is_empty());
    }
}

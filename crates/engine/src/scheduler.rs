//! The engine: DAG scheduling, task execution, shuffle I/O and fault
//! recovery, driven entirely by simulation events.
//!
//! This is the component SplitServe modifies in Spark — the
//! `DAGScheduler`/`CoarseGrainedSchedulerBackend` pair. It:
//!
//! - splits a job into stages and submits them as parents complete;
//! - assigns tasks to registered executors (VM- or Lambda-backed alike);
//! - runs each task's *real* computation, charging virtual time for CPU
//!   (scaled by core speed and GC pressure) and for shuffle I/O through
//!   the block store;
//! - recovers from executor loss: failed tasks are re-queued, and when the
//!   shuffle store does not survive executor death (local disk), lost map
//!   outputs trigger the rollback cascade of parent-stage resubmission;
//! - supports *graceful draining* — the mechanism SplitServe's segueing
//!   facility relies on: a draining executor takes no new tasks, finishes
//!   its current one, and decommissions when idle.
//!
//! Every change of the scheduler's state is a transition: a method of
//! `Inner` on `&mut self` that changes state, reports to telemetry, and
//! appends each call that leaves the engine to `Inner::effects` as an
//! [`Effect`]. The runner ([`Shared::run`]) is the only code that borrows
//! the state mutably; it makes those calls with no borrow held.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::{Rc, Weak as RcWeak};
use std::sync::{Arc, Weak};

use splitserve_des::{EventHandler, Sim, SimDuration, SimTime};
use splitserve_obs::SpanId;
use splitserve_rt::{Bytes, FastMap, FastSet, Slab, TaskHandle, WorkerPool};
use splitserve_storage::{BlockId, BlockStore, ClientLoc, StoreClient, StoreError};

use crate::config::{EngineConfig, WorkModel};
use crate::context::{Runs, TaskContext};
use crate::events::{EngineEventKind, EngineEventKind as E, EventLog, FailureKind, JobId};
use crate::events::{ShufflePhase, TaskRef};
use crate::executor::{ExecutorDesc, ExecutorId, ExecutorKind};
use crate::metrics::{JobMetrics, JobOutput};
use crate::node::{PartitionData, PlanNode, ShuffleBucket, ShuffleDep, ShuffleId};
use crate::stage::{build_stages, Stage, StageGraph, StageId, StageKind};
use crate::telemetry::{StoreOp, Telemetry};
use crate::tracker::MapOutputTracker;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct AttemptId(u64);

struct ExecMeta {
    desc: ExecutorDesc,
    alive: bool,
    draining: bool,
    running: Option<AttemptId>,
    registered_at: SimTime,
    idle_since: SimTime,
    tasks_done: u64,
    /// Whom to notify, with which token, when a draining executor leaves
    /// the cluster.
    drained_to: Option<(RcWeak<dyn EventHandler>, u64)>,
    /// Multiplier on the executor's core speed (1.0 = nominal). The chaos
    /// plane lowers it to turn an executor into a straggler.
    speed_factor: f64,
}

impl ExecMeta {
    /// Whether dispatch may hand this executor a task right now.
    fn takes_tasks(&self) -> bool {
        self.alive && !self.draining && self.running.is_none()
    }

    fn info(&self) -> ExecutorInfo {
        ExecutorInfo {
            id: self.desc.id,
            kind: self.desc.kind,
            registered_at: self.registered_at,
            alive: self.alive,
            draining: self.draining,
            busy: self.running.is_some(),
            idle_since: self.idle_since,
            tasks_done: self.tasks_done,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct AttemptInfo {
    task: TaskRef,
    /// The slot of `task.exec` in the executor table.
    slot: usize,
    /// The task's executor-lane span (no-op id when obs is disabled).
    span: SpanId,
    /// When the attempt was dispatched (the span's open instant) — the
    /// anchor for wall-clock run time and the straggler watch.
    started_at: SimTime,
    /// Already flagged by the straggler watch; flag-once per attempt.
    straggler_flagged: bool,
}

/// Everything the scheduler holds for one task attempt: who and where it
/// is, plus the transfer window of its shuffle fetch or write while one
/// is open. The store requests of that window name the attempt by id
/// ([`BlockRequest`]) and look the window up here — so an attempt that
/// dies (its entry removed) takes its fetch plan and unwritten buckets
/// with it, and a request that lands afterwards finds nothing and stops.
struct Attempt {
    info: AttemptInfo,
    /// The blocks the task must fetch before it computes, as
    /// `(shuffle, map index, writer, size)` in input-shuffle then map
    /// order; fixed at dispatch.
    plan: Vec<(ShuffleId, usize, ExecutorId, u64)>,
    /// `None` between phases (waiting for its launch, computing,
    /// finishing).
    io: Option<Transfer>,
}

/// Maximum concurrent block requests per task, for shuffle reads and
/// writes alike (Spark's `spark.reducer.maxReqsInFlight` spiritual cousin).
const MAX_FETCH_CONCURRENCY: usize = 8;

/// Serialized driver work per task launch (closure serialization + RPC on
/// the single-threaded scheduler loop). This is what bends the profiling
/// curve back up at high degrees of parallelism (Fig. 4).
const DRIVER_DISPATCH: SimDuration = SimDuration::from_millis(4);

/// The straggler watch (detection only, see [`Inner::straggler_watch`])
/// flags a still-running attempt whose elapsed virtual time exceeds this
/// quantile of its stage's completed run times …
const STRAGGLER_QUANTILE: f64 = 0.95;
/// … times this multiple.
const STRAGGLER_MULTIPLE: f64 = 2.0;
/// Completed tasks a stage needs before the watch arms — too few samples
/// make the quantile meaningless.
const STRAGGLER_MIN_SAMPLES: u64 = 4;

/// A shuffle phase in flight — a reduce-side fetch or a map-side write,
/// which are the same operation: at most [`MAX_FETCH_CONCURRENCY`] block
/// requests outstanding, issued in order (gets in plan order, puts of the
/// non-empty buckets in reduce order).
struct Transfer {
    /// Next plan entry or bucket to consider (empty buckets are skipped,
    /// never written).
    next: usize,
    /// Requests not yet handed to the store.
    unsent: usize,
    outstanding: usize,
    /// The phase's byte total, for its finish event.
    bytes: u64,
    client: ClientLoc,
    span: SpanId,
    started: SimTime,
    dir: Direction,
}

/// What a [`Transfer`] moves, and what it hands on when it finishes.
enum Direction {
    /// Fetched blocks, parallel to the plan: the task's block list itself,
    /// empty until each lands (an empty `Bytes` allocates nothing).
    /// Completions arrive in whatever order the store finishes them (fault
    /// injection and latency windows reshuffle that order); filing each
    /// under its plan position hands compute its inputs in map order
    /// regardless — task inputs, and therefore outputs, stay bit-identical
    /// across fault schedules.
    Fetch(Vec<Bytes>),
    /// A map task's buckets (whose sizes the tracker copies once they are
    /// written) and the CPU seconds its body charged.
    Write {
        shuffle: ShuffleId,
        buckets: Vec<ShuffleBucket>,
        cpu: f64,
    },
}

/// A block get or put the store holds for an attempt, parked under the
/// token the store answers with: whose it is, which plan entry (a get) or
/// bucket (a put) it moves, and the span of its shuffle phase, which a
/// dead attempt's landing still closes.
struct BlockRequest {
    attempt: AttemptId,
    at: usize,
    span: SpanId,
    /// When the request went to the store, and the bytes a put carries (0
    /// for a get): what the landing records in the `store_*` series.
    issued: SimTime,
    len: u64,
}

/// A block request as the store gets it: the client, the block, the bytes
/// of a put (`None` for a get) and the token the answer comes back under.
type Request = (ClientLoc, BlockId, Option<Bytes>, u64);

/// A task body between its launch and its completion event, named by
/// slot in the two events of its life. Deliberately *not* part of the
/// [`Attempt`] record: the join runs the body and schedules the completion
/// even when the attempt died mid-flight (the completion then finds no
/// attempt and stops), so the run's event structure never depends on fault
/// timing.
enum Compute {
    /// Until the join event.
    Launched {
        attempt: AttemptId,
        launched_at: SimTime,
        /// Effective core speed and memory of the executor, as of launch.
        speed: f64,
        mem_bytes: u64,
        body: Body,
    },
    /// From the join event to the completion event: what the body made and
    /// the CPU seconds it charged.
    Joined(AttemptId, ComputePayload, f64),
}

/// A launched body: already running on a worker thread, or — inline mode —
/// what it needs to run on the simulation thread when the join fires.
enum Body {
    Pooled(TaskHandle<BodyResult>),
    Inline {
        terminal: Arc<dyn PlanNode>,
        kind: StageKind,
        part: usize,
        ctx: TaskContext,
    },
}

/// Token bit of a task's join and completion events, which carry a
/// [`Compute`] slot (what is parked there tells the two apart); clear on
/// its launch event, which carries the attempt id.
const COMPUTE: u64 = 1 << 63;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StageState {
    Waiting,
    Running,
    Done,
}

/// A set of small indices — partitions of a stage, positions in the
/// executor table — one bit each. The first 64 live inline, so the common
/// narrow stage allocates nothing; wider ones spill into `rest` on first
/// use.
#[derive(Default)]
struct BitSet {
    first: u64,
    /// Indices 64 and up, 64 per word.
    rest: Vec<u64>,
    len: usize,
}

impl BitSet {
    #[inline]
    fn word_mut(&mut self, part: usize) -> Option<&mut u64> {
        match part >> 6 {
            0 => Some(&mut self.first),
            w => self.rest.get_mut(w - 1),
        }
    }

    fn insert(&mut self, part: usize) {
        if part >> 6 > self.rest.len() {
            self.rest.resize(part >> 6, 0);
        }
        let bit = 1u64 << (part & 63);
        let word = self.word_mut(part).expect("grown to fit");
        if *word & bit == 0 {
            *word |= bit;
            self.len += 1;
        }
    }

    /// Removes `part`, reporting whether it was present.
    fn remove(&mut self, part: usize) -> bool {
        let bit = 1u64 << (part & 63);
        match self.word_mut(part) {
            Some(word) if *word & bit != 0 => {
                *word &= !bit;
                self.len -= 1;
                true
            }
            _ => false,
        }
    }

    fn contains(&self, part: usize) -> bool {
        let word = match part >> 6 {
            0 => self.first,
            w => self.rest.get(w - 1).copied().unwrap_or(0),
        };
        word & (1 << (part & 63)) != 0
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The smallest member.
    fn first(&self) -> Option<usize> {
        if self.first != 0 {
            return Some(self.first.trailing_zeros() as usize);
        }
        let w = self.rest.iter().position(|word| *word != 0)?;
        Some((w + 1) * 64 + self.rest[w].trailing_zeros() as usize)
    }

    fn clear(&mut self) {
        self.first = 0;
        self.rest.fill(0);
        self.len = 0;
    }
}

#[derive(Default)]
struct StageStatus {
    state: Option<StageState>, // None until initialized
    queued: BitSet,
    running: BitSet,
}

/// Driver-side completion callback of a job.
type JobDoneCallback = Box<dyn FnOnce(&mut Sim, JobOutput)>;

/// The scheduling state of a job that can still run a task.
struct LiveJob {
    /// The result stage is complete and the job's output handed on; a
    /// stale attempt or queued task can still hold it (see
    /// [`Inner::retire_if_over`]).
    done: bool,
    graph: StageGraph,
    status: Vec<StageStatus>,
    /// The result stage's partitions, filled as its tasks finish; emptied
    /// when the job completes and hands them on.
    result_parts: Vec<Option<PartitionData>>,
    /// How many of `result_parts` are filled.
    result_filled: usize,
    on_done: Option<JobDoneCallback>,
    /// How many entries of `Inner::attempts` belong to this job.
    attempts: usize,
}

/// The job of a live attempt, which the attempt keeps live (a job leaves
/// the table only once it has no attempt left).
fn pinned(jobs: &mut FastMap<JobId, LiveJob>, job: JobId) -> &mut LiveJob {
    jobs.get_mut(&job).expect("an attempt pins its job")
}

/// Sentinel in the symbol→slot side table for "no executor with this
/// symbol registered here".
const NO_SLOT: u32 = u32::MAX;

/// A call a transition leaves to the runner, which makes it with no
/// borrow of the scheduler's state held — or, for the last three kinds, a
/// transition that must run only after the calls queued before it.
enum Effect {
    /// A launch, join or completion event of this engine (`notify_at`).
    Timer(SimTime, u64),
    /// The attempt's next block request (`put_to` / `get_to`, answered by
    /// token), built by [`Inner::issue_next`] when its turn comes: the
    /// request before it may have failed the attempt synchronously.
    Issue(AttemptId),
    /// `BlockStore::register_executor`.
    Register(ExecutorId, ClientLoc),
    /// `BlockStore::forget_shuffle`.
    Forget(ShuffleId),
    /// `BlockStore::on_executor_lost`; when the executor's blocks went
    /// with it, [`Inner::lose_outputs`] follows.
    ExecutorLost(ExecutorId),
    /// The caller's `on_done`.
    JobDone(JobDoneCallback, JobOutput),
    /// A drained executor's notification ([`Engine::drain_executor`]).
    Drained(RcWeak<dyn EventHandler>, u64),
    /// [`Inner::dispatch`].
    Dispatch,
    /// [`Inner::progress`].
    Progress(JobId),
    /// [`Inner::progress_all`].
    ProgressAll,
}

/// What a transition reads besides the scheduler's state: the instant it
/// runs at, the views it reports to and the pool its bodies start on.
struct Cx<'a> {
    now: SimTime,
    tele: &'a Telemetry,
    pool: Option<&'a WorkerPool>,
}

impl Cx<'_> {
    fn emit(&self, event: EngineEventKind) {
        self.tele.emit(self.now, event);
    }

    fn emit_span(&self, span: SpanId, event: EngineEventKind) -> SpanId {
        self.tele.emit_span(self.now, span, event)
    }
}

struct Inner {
    cfg: EngineConfig,
    /// Dense executor table; slots are assigned at registration and never
    /// reused (dead executors stay, `alive = false`, exactly like the old
    /// map entries did).
    execs: Vec<ExecMeta>,
    /// Slot indices sorted by executor *name*. The dispatch scan and the
    /// `executors()` snapshot iterate this, preserving the old
    /// `BTreeMap<ExecutorId, _>` lexicographic order — VM executors can
    /// register after lambdas but sort before them, and dispatch order is
    /// output-visible (core speeds differ by kind).
    execs_by_name: Vec<u32>,
    /// Interner-symbol → slot side table (`NO_SLOT` = absent). Symbols
    /// are dense process-wide, so this stays small and O(1) to index.
    exec_slots: Vec<u32>,
    /// Slot → position in `execs_by_name`.
    name_pos: Vec<u32>,
    /// The positions in `execs_by_name` whose executor takes tasks right
    /// now, so dispatch finds the first one without walking past every
    /// busy, draining and long-dead executor. Kept current by
    /// [`Inner::update_exec`], the only way executor state changes.
    idle: BitSet,
    /// The jobs that can still run a task. A job leaves when it is over
    /// ([`Inner::retire_if_over`]), so an id below `next_job` that is not
    /// here is a completed job. (A job's metrics are a view of its events
    /// and live with the other views, in [`Telemetry`].)
    jobs: FastMap<JobId, LiveJob>,
    /// The id the next submitted job gets (ids are sequential from 0).
    next_job: u64,
    /// The jobs that have not completed, ascending — what executor churn
    /// and rollback walk instead of the whole table.
    active: Vec<JobId>,
    attempts: FastMap<AttemptId, Attempt>,
    /// Launched task bodies waiting for their join or completion event.
    computes: Slab<Compute>,
    /// Block requests handed to the store and not yet answered.
    requests: Slab<BlockRequest>,
    pending: VecDeque<(JobId, StageId, usize)>,
    next_attempt: u64,
    tracker: MapOutputTracker,
    driver_free_at: SimTime,
    /// Live completion-time digests per (job, stage), feeding the
    /// straggler watch. Only populated while observability is enabled;
    /// entries are dropped with their job's live state.
    stage_runtimes: FastMap<(JobId, StageId), splitserve_obs::QuantileDigest>,
    /// The shuffles of retired jobs whose dependency was still reachable
    /// when the job went (the caller holds the `Dataset`), re-examined at
    /// every retirement. Shuffles of running jobs are not in here.
    held_shuffles: FastMap<ShuffleId, Weak<ShuffleDep>>,
    /// The runner's stack of effects not yet made, the next on top; one
    /// buffer for every nested run, so making them allocates nothing.
    effects: Vec<Effect>,
}

impl Inner {
    fn new(cfg: EngineConfig) -> Self {
        Inner {
            cfg,
            execs: Vec::new(),
            execs_by_name: Vec::new(),
            exec_slots: Vec::new(),
            name_pos: Vec::new(),
            idle: BitSet::default(),
            jobs: FastMap::default(),
            next_job: 0,
            active: Vec::new(),
            attempts: FastMap::default(),
            computes: Slab::default(),
            requests: Slab::default(),
            pending: VecDeque::new(),
            next_attempt: 0,
            tracker: MapOutputTracker::new(),
            driver_free_at: SimTime::ZERO,
            stage_runtimes: FastMap::default(),
            held_shuffles: FastMap::default(),
            effects: Vec::new(),
        }
    }

    /// Slot of a registered executor, dead or alive.
    #[inline]
    fn exec_slot(&self, id: ExecutorId) -> Option<usize> {
        match self.exec_slots.get(id.sym() as usize) {
            Some(&s) if s != NO_SLOT => Some(s as usize),
            _ => None,
        }
    }

    #[inline]
    fn exec(&self, id: ExecutorId) -> Option<&ExecMeta> {
        self.exec_slot(id).map(|s| &self.execs[s])
    }

    /// Changes an executor's state through `f`, then brings `idle` back
    /// in line with it.
    #[inline]
    fn update_exec<R>(&mut self, slot: usize, f: impl FnOnce(&mut ExecMeta) -> R) -> R {
        let meta = &mut self.execs[slot];
        let out = f(meta);
        let pos = self.name_pos[slot] as usize;
        if meta.takes_tasks() {
            self.idle.insert(pos);
        } else {
            self.idle.remove(pos);
        }
        out
    }

    /// Registers a new executor slot, keeping `execs_by_name` sorted.
    /// Returns `false` if the id is already present.
    fn add_exec(&mut self, meta: ExecMeta) -> bool {
        let id = meta.desc.id;
        let sym = id.sym() as usize;
        if sym >= self.exec_slots.len() {
            self.exec_slots.resize(sym + 1, NO_SLOT);
        }
        if self.exec_slots[sym] != NO_SLOT {
            return false;
        }
        let slot = u32::try_from(self.execs.len()).expect("executor slot overflow");
        self.execs.push(meta);
        self.exec_slots[sym] = slot;
        let pos = self
            .execs_by_name
            .partition_point(|&s| self.execs[s as usize].desc.id < id);
        self.execs_by_name.insert(pos, slot);
        // Positions from `pos` on moved up by one: renumber them and
        // re-derive their `idle` bits. Positions before `pos` keep theirs,
        // so a deploy-built Lambda (`lambda-{n:04}`, which sorts last)
        // touches one position.
        self.name_pos.resize(self.execs.len(), 0);
        for (pos, &slot) in self.execs_by_name.iter().enumerate().skip(pos) {
            self.name_pos[slot as usize] = pos as u32;
            if self.execs[slot as usize].takes_tasks() {
                self.idle.insert(pos);
            } else {
                self.idle.remove(pos);
            }
        }
        true
    }

    /// Removes an attempt: its job holds one attempt fewer, and its part
    /// no longer runs.
    fn take_attempt(&mut self, id: AttemptId) -> Option<AttemptInfo> {
        let Attempt { info, .. } = self.attempts.remove(&id)?;
        let job = pinned(&mut self.jobs, info.task.job);
        job.attempts -= 1;
        job.status[info.task.stage.0 as usize]
            .running
            .remove(info.task.part);
        Some(info)
    }

    /// Retires `job_id` — takes it out of `jobs` — if it is over: done,
    /// with no attempt left in `attempts` and no task queued. From then on
    /// the job is known by its absence. (Done alone is not enough — a re-run
    /// map task of a rolled-back stage can still be queued or in flight
    /// when the result stage finishes, and it indexes the graph when it
    /// lands.) Retiring drops the stage graph with its plan nodes, the
    /// per-stage status and straggler digests, and forgets every shuffle
    /// whose dependency nobody can reach any more — in the tracker and in
    /// the store, whose blocks of it go too. A `Dataset` the caller still
    /// holds keeps its `ShuffleDep` alive, so resubmitting it finds its
    /// map outputs registered and its blocks stored and skips the map
    /// stage, exactly as while the first job's state was around; its
    /// tracker entry and blocks go at the first retirement after the
    /// caller lets go.
    fn retire_if_over(&mut self, job_id: JobId) {
        let over = |job: &LiveJob| {
            job.done && job.attempts == 0 && job.status.iter().all(|st| st.queued.is_empty())
        };
        if !self.jobs.get(&job_id).is_some_and(over) {
            return;
        }
        let Some(job) = self.jobs.remove(&job_id) else {
            return;
        };
        for stage in &job.graph.stages {
            if !self.stage_runtimes.is_empty() {
                self.stage_runtimes.remove(&(job_id, stage.id));
            }
            if let StageKind::ShuffleMap(dep) = &stage.kind {
                self.held_shuffles.insert(dep.id, Arc::downgrade(dep));
            }
        }
        drop(job);
        let (tracker, effects) = (&mut self.tracker, &mut self.effects);
        self.held_shuffles.retain(|id, dep| {
            let reachable = dep.strong_count() > 0;
            if !reachable {
                tracker.forget_shuffle(*id);
                effects.push(Effect::Forget(*id));
            }
            reachable
        });
    }

    // ----- executors ---------------------------------------------------

    /// Registers an executor and offers it pending work.
    fn register(&mut self, cx: &Cx, desc: ExecutorDesc) {
        self.effects
            .push(Effect::Register(desc.id, desc.client_loc()));
        let (id, kind) = (desc.id, desc.kind);
        let fresh = self.add_exec(ExecMeta {
            desc,
            alive: true,
            draining: false,
            running: None,
            registered_at: cx.now,
            idle_since: cx.now,
            tasks_done: 0,
            drained_to: None,
            speed_factor: 1.0,
        });
        assert!(fresh, "duplicate executor {id}");
        cx.emit(E::ExecutorRegistered { exec: id, kind });
        self.dispatch(cx);
    }

    /// Puts a live executor into graceful-drain mode; an idle one leaves
    /// at once.
    fn drain(&mut self, cx: &Cx, id: ExecutorId, to: RcWeak<dyn EventHandler>, token: u64) {
        let Some(slot) = self.exec_slot(id) else {
            return;
        };
        if !self.execs[slot].alive || self.execs[slot].draining {
            return;
        }
        let idle = self.update_exec(slot, |meta| {
            meta.draining = true;
            meta.drained_to = Some((to, token));
            meta.running.is_none()
        });
        cx.emit(E::ExecutorDraining { exec: id });
        if idle {
            self.decommission(cx, slot);
        }
    }

    /// An executor dies: its running task fails and is re-queued, and the
    /// store hears of the loss.
    fn kill(&mut self, cx: &Cx, id: ExecutorId) {
        let Some(slot) = self.exec_slot(id) else {
            return;
        };
        if !self.execs[slot].alive {
            return;
        }
        let running = self.update_exec(slot, |meta| {
            meta.alive = false;
            meta.running.take()
        });
        cx.emit(E::ExecutorLost { exec: id });
        if let Some(info) = running.and_then(|a| self.take_attempt(a)) {
            let reason = "executor lost".into();
            self.attempt_failed(cx, &info, FailureKind::ExecutorLost, reason);
        }
        self.effects.push(Effect::ExecutorLost(id));
        self.effects.push(Effect::ProgressAll);
    }

    /// A live, draining, idle executor leaves the cluster.
    fn decommission(&mut self, cx: &Cx, slot: usize) {
        let (id, to) = self.update_exec(slot, |meta| {
            meta.alive = false;
            (meta.desc.id, meta.drained_to.take())
        });
        cx.emit(E::ExecutorDecommissioned { exec: id });
        // A decommissioned executor's node is gone; local blocks with it.
        self.effects.push(Effect::ExecutorLost(id));
        if let Some((to, token)) = to {
            self.effects.push(Effect::Drained(to, token));
        }
        self.effects.push(Effect::ProgressAll);
    }

    /// `id`'s blocks died with it: its map outputs are unregistered and the
    /// stages that need them roll back.
    fn lose_outputs(&mut self, cx: &Cx, id: ExecutorId) {
        if !self.tracker.unregister_executor(&id).is_empty() {
            self.rollback(cx);
        }
    }

    /// Marks stages whose map outputs vanished as needing resubmission and
    /// pulls now-unrunnable queued tasks back out of the dispatch queue.
    fn rollback(&mut self, cx: &Cx) {
        let mut dequeue: FastSet<(JobId, StageId)> = FastSet::default();
        for &job_id in &self.active {
            let job = self.jobs.get_mut(&job_id).expect("active job is live");
            for stage in &job.graph.stages {
                let st = &mut job.status[stage.id.0 as usize];
                if let StageKind::ShuffleMap(dep) = &stage.kind {
                    if st.state == Some(StageState::Done) && !self.tracker.is_complete(dep.id) {
                        let missing = stage.num_tasks - self.tracker.registered(dep.id);
                        st.state = Some(StageState::Waiting);
                        let (job, stage) = (job_id, stage.id);
                        cx.emit(E::StageRolledBack {
                            job,
                            stage,
                            missing,
                        });
                    }
                }
                // Any stage whose inputs are no longer complete must not
                // keep tasks in the dispatch queue.
                let inputs_ok = stage
                    .input_shuffles
                    .iter()
                    .all(|d| self.tracker.is_complete(d.id));
                if !inputs_ok && !st.queued.is_empty() {
                    st.queued.clear();
                    if st.running.is_empty() {
                        st.state = Some(StageState::Waiting);
                    }
                    dequeue.insert((job_id, stage.id));
                }
            }
        }
        if !dequeue.is_empty() {
            // Set lookup per entry: the old `Vec::contains` scan was
            // O(pending × rolled-back stages).
            self.pending
                .retain(|(j, s, _)| !dequeue.contains(&(*j, *s)));
        }
    }

    // ----- jobs ---------------------------------------------------------

    fn submit(
        &mut self,
        cx: &Cx,
        final_node: Arc<dyn PlanNode>,
        on_done: JobDoneCallback,
    ) -> JobId {
        let id = JobId(self.next_job);
        self.next_job += 1;
        let graph = build_stages(final_node);
        // Register every shuffle in the tracker.
        for stage in &graph.stages {
            if let StageKind::ShuffleMap(dep) = &stage.kind {
                let (maps, reduces) = (dep.parent.num_partitions(), dep.num_partitions);
                self.tracker.register_shuffle(dep.id, maps, reduces);
            }
        }
        let n_stages = graph.len();
        cx.emit(E::JobSubmitted {
            job: id,
            stages: n_stages,
        });
        let result_width = graph.stage(graph.result).num_tasks;
        let job = LiveJob {
            done: false,
            graph,
            status: (0..n_stages).map(|_| StageStatus::default()).collect(),
            result_parts: vec![None; result_width],
            result_filled: 0,
            on_done: Some(on_done),
            attempts: 0,
        };
        self.jobs.insert(id, job);
        self.active.push(id);
        self.progress(cx, id);
        id
    }

    /// Advances stage states for one job: marks completed stages, queues
    /// newly-runnable tasks, finishes the job when the result stage is
    /// done. Then dispatches — after the job's `on_done`, so a job it
    /// submits reports before the next task starts.
    fn progress(&mut self, cx: &Cx, job_id: JobId) {
        // Absent: retired already.
        let Some(job) = self.jobs.get_mut(&job_id) else {
            return;
        };
        if job.done {
            // A stale attempt of a finished job just ended; it may
            // have been the last thing holding the job's state.
            return self.retire_if_over(job_id);
        }
        // Iterate stages in topological (id) order.
        for stage in &job.graph.stages {
            let sidx = stage.id.0 as usize;
            let parents_done = stage
                .input_shuffles
                .iter()
                .all(|d| self.tracker.is_complete(d.id));

            // Completion checks: counts, not scans.
            let (done, shared) = match &stage.kind {
                StageKind::ShuffleMap(dep) => (
                    self.tracker.registered(dep.id),
                    self.tracker.is_shared(dep.id),
                ),
                StageKind::Result => (job.result_filled, false),
            };
            let st = &mut job.status[sidx];
            if done == stage.num_tasks {
                if st.state != Some(StageState::Done) {
                    st.state = Some(StageState::Done);
                    cx.emit(E::StageCompleted {
                        job: job_id,
                        stage: stage.id,
                    });
                }
                continue;
            }
            if !parents_done {
                continue;
            }
            // Runnable: queue whatever is missing and not in flight.
            let tracker = &self.tracker;
            let result_parts = &job.result_parts;
            let each_missing = |f: &mut dyn FnMut(usize)| match &stage.kind {
                StageKind::ShuffleMap(dep) => tracker.missing(dep.id).for_each(f),
                StageKind::Result => (0..result_parts.len())
                    .filter(|&part| result_parts[part].is_none())
                    .for_each(f),
            };
            // A part is done, queued or running, never two at once —
            // unless another job's tasks register outputs of a shared
            // shuffle. So when the three counts cover the stage,
            // nothing is left to queue, and the scan is skipped.
            let mut queued_now = 0;
            if !shared && done + st.queued.len + st.running.len == stage.num_tasks {
                if cfg!(debug_assertions) {
                    each_missing(&mut |part| {
                        let in_flight = st.queued.contains(part) || st.running.contains(part);
                        assert!(in_flight, "counts cover the stage, but part {part} is idle");
                    });
                }
            } else {
                each_missing(&mut |part| {
                    if !st.queued.contains(part) && !st.running.contains(part) {
                        st.queued.insert(part);
                        self.pending.push_back((job_id, stage.id, part));
                        queued_now += 1;
                    }
                });
            }
            if queued_now > 0 {
                let (job, stage, tasks) = (job_id, stage.id, queued_now);
                cx.emit(E::StageSubmitted { job, stage, tasks });
            }
            st.state = Some(StageState::Running);
        }

        // Job completion.
        if job.result_filled == job.result_parts.len() {
            job.done = true;
            cx.emit(E::JobCompleted { job: job_id });
            // Hand the job's only references over: `collect_partitions`
            // can then move the rows out instead of cloning them (the
            // done flag above keeps this arm from running twice). An
            // `Option<Arc<_>>` is laid out as its `Arc`, so the collect
            // reuses the slots' allocation in place.
            let partitions: Vec<PartitionData> = std::mem::take(&mut job.result_parts)
                .into_iter()
                .map(|p| p.expect("every slot is filled"))
                .collect();
            let output = JobOutput {
                partitions,
                // From here on the metrics block is frozen; share it.
                metrics: cx.tele.job_metrics(job_id).expect("submitted above"),
            };
            let on_done = job.on_done.take();
            let at = self
                .active
                .binary_search(&job_id)
                .expect("a running job is active");
            self.active.remove(at);
            self.retire_if_over(job_id);
            if let Some(on_done) = on_done {
                self.effects.push(Effect::JobDone(on_done, output));
                return self.effects.push(Effect::Dispatch);
            }
        }
        self.dispatch(cx);
    }

    /// Queues a [`Inner::progress`] of every job not completed yet, as they
    /// stand now: progressing one job can finish it, and its callback can
    /// submit more (those progress themselves on submission).
    fn progress_all(&mut self) {
        let Inner {
            active, effects, ..
        } = self;
        effects.extend(active.iter().map(|&job| Effect::Progress(job)));
    }

    // ----- dispatch and the task state machine ---------------------------

    /// Pairs pending tasks with idle executors.
    fn dispatch(&mut self, cx: &Cx) {
        // The common call finds nothing queued; look there before
        // scanning the executor table.
        while !self.pending.is_empty() {
            // The first idle, live, non-draining executor in name order
            // (see `execs_by_name`).
            let Some(pos) = self.idle.first() else { break };
            let slot = self.execs_by_name[pos] as usize;
            debug_assert_eq!(
                self.execs_by_name
                    .iter()
                    .position(|&s| self.execs[s as usize].takes_tasks()),
                Some(pos),
                "idle set out of step with the executor table"
            );
            // Pop the next dispatchable task.
            let Some((job_id, stage_id, part)) = self.pending.pop_front() else {
                break;
            };
            // An entry can outlive its job (queued twice, then the
            // job ran to the end and was retired).
            let Some(job) = self.jobs.get_mut(&job_id) else {
                continue;
            };
            let st = &mut job.status[stage_id.0 as usize];
            if !st.queued.remove(part) {
                continue; // stale entry (rolled back or duplicate)
            }
            let stage = job.graph.stage(stage_id);
            // Inputs must still be complete (rollback may have struck
            // between queueing and dispatch).
            if !stage
                .input_shuffles
                .iter()
                .all(|d| self.tracker.is_complete(d.id))
            {
                // Dropped, not re-queued: if that was a finished job's
                // last queued task, nothing holds the job any more.
                self.retire_if_over(job_id);
                continue;
            }
            let (exec, kind) = (self.execs[slot].desc.id, self.execs[slot].desc.kind);
            st.running.insert(part);
            job.attempts += 1;
            let attempt = AttemptId(self.next_attempt);
            self.next_attempt += 1;
            let task = TaskRef {
                job: job_id,
                stage: stage_id,
                part,
                exec,
            };
            let span = cx.emit_span(SpanId::NONE, E::TaskStarted { task, kind });
            // Build the fetch plan: (shuffle, map index, writer, size).
            // Blocks are identified lazily at fetch time — the plan
            // carries only `Copy` handles, no per-block strings.
            let mut plan = Vec::new();
            for dep in &stage.input_shuffles {
                self.tracker.inputs_for_reduce_into(dep.id, part, &mut plan);
            }
            self.update_exec(slot, |meta| meta.running = Some(attempt));
            let info = AttemptInfo {
                task,
                slot,
                span,
                started_at: cx.now,
                straggler_flagged: false,
            };
            let io = None;
            self.attempts.insert(attempt, Attempt { info, plan, io });
            // The driver is a single-threaded dispatcher: task
            // launches serialize through it.
            let start_at = self.driver_free_at.max(cx.now) + DRIVER_DISPATCH;
            self.driver_free_at = start_at;
            self.effects.push(Effect::Timer(start_at, attempt.0));
        }
    }

    /// The launch event: starts a task's shuffle fetch, or — with nothing
    /// to fetch — its computation.
    fn begin_fetch(&mut self, cx: &Cx, attempt: AttemptId) {
        let Some(a) = self.attempts.get(&attempt) else {
            return;
        };
        let (bytes, blocks) = (a.plan.iter().map(|p| p.3).sum(), a.plan.len());
        if blocks == 0 {
            return self.compute(cx, attempt, Vec::new());
        }
        let dir = Direction::Fetch(vec![Bytes::new(); blocks]);
        self.open_transfer(cx, attempt, bytes, blocks, dir);
    }

    /// Opens the attempt's shuffle phase: reports it started, then queues
    /// the first [`MAX_FETCH_CONCURRENCY`] of its `unsent` requests.
    fn open_transfer(
        &mut self,
        cx: &Cx,
        attempt: AttemptId,
        bytes: u64,
        unsent: usize,
        dir: Direction,
    ) {
        let Some(a) = self.attempts.get_mut(&attempt) else {
            return;
        };
        let meta = &self.execs[a.info.slot];
        let phase = match dir {
            Direction::Fetch(_) => ShufflePhase::Fetch,
            Direction::Write { .. } => ShufflePhase::Write,
        };
        let started = E::ShufflePhaseStarted {
            task: a.info.task,
            kind: meta.desc.kind,
            phase,
            bytes,
        };
        a.io = Some(Transfer {
            next: 0,
            unsent,
            outstanding: 0,
            bytes,
            client: meta.desc.client_loc(),
            span: cx.emit_span(SpanId::NONE, started),
            started: cx.now,
            dir,
        });
        let issues = MAX_FETCH_CONCURRENCY.min(unsent);
        self.effects
            .extend((0..issues).map(|_| Effect::Issue(attempt)));
    }

    /// Parks the attempt's next request, if any is left, and returns it
    /// with its token: a get of the next plan entry, or a put (with its
    /// bytes) of the next non-empty bucket. `None` for a dead attempt: a
    /// request can fail synchronously and take the attempt down while its
    /// window is still being opened.
    fn issue_next(&mut self, cx: &Cx, attempt: AttemptId) -> Option<Request> {
        let a = self.attempts.get_mut(&attempt)?;
        let t = a.io.as_mut().filter(|t| t.unsent > 0)?;
        let TaskRef { exec, part, .. } = a.info.task;
        let (block, put) = match &t.dir {
            Direction::Fetch(_) => {
                let (shuffle, map, writer, _) = a.plan[t.next];
                (
                    BlockId::shuffle(writer, shuffle.0, map as u64, part as u64),
                    None,
                )
            }
            Direction::Write {
                shuffle, buckets, ..
            } => {
                while buckets[t.next].bytes.is_empty() {
                    t.next += 1;
                }
                let block = BlockId::shuffle(exec, shuffle.0, part as u64, t.next as u64);
                (block, Some(buckets[t.next].bytes.clone()))
            }
        };
        let at = t.next;
        t.next += 1;
        t.unsent -= 1;
        t.outstanding += 1;
        let request = BlockRequest {
            attempt,
            at,
            span: t.span,
            issued: cx.now,
            len: put.as_ref().map_or(0, |bytes| bytes.len() as u64),
        };
        let token = u64::from(self.requests.insert(request));
        Some((t.client, block, put, token))
    }

    /// The store answered the request parked under `token`: a get with
    /// `Some` block, a put with `None`. A live attempt's window issues its
    /// next request, or hands on what it moved once the last one is in, or
    /// fails its attempt; a dead attempt's landing closes the phase's span.
    fn landed(
        &mut self,
        cx: &Cx,
        token: u64,
        op: StoreOp,
        result: Result<Option<Bytes>, StoreError>,
    ) {
        let taken = u32::try_from(token)
            .ok()
            .and_then(|slot| self.requests.take(slot));
        let BlockRequest {
            attempt,
            at,
            span,
            issued,
            len,
        } = taken.expect("the store answers a parked request once");
        let moved = result
            .as_ref()
            .ok()
            .map(|b| b.as_ref().map_or(len, |b| b.len() as u64));
        cx.tele
            .record_store_op(op, cx.now.saturating_since(issued), moved);
        let phase = match op {
            StoreOp::Get => ShufflePhase::Fetch,
            StoreOp::Put => ShufflePhase::Write,
        };
        let Some(a) = self.attempts.get_mut(&attempt) else {
            cx.emit_span(span, E::ShufflePhaseAborted { phase });
            return;
        };
        let t =
            a.io.as_mut()
                .expect("a request lands in its attempt's open window");
        let block = match result {
            Ok(block) => block,
            Err(err) => {
                cx.emit_span(span, E::ShufflePhaseAborted { phase });
                return match t.dir {
                    Direction::Fetch(_) => {
                        let (shuffle, map, ..) = a.plan[at];
                        self.fetch_failed(cx, attempt, shuffle, map, err)
                    }
                    Direction::Write { .. } => self.write_failed(cx, attempt, err),
                };
            }
        };
        t.outstanding -= 1;
        if let (Direction::Fetch(blocks), Some(block)) = (&mut t.dir, block) {
            blocks[at] = block;
        }
        let Some(t) = a.io.take_if(|t| t.unsent == 0 && t.outstanding == 0) else {
            return self.effects.push(Effect::Issue(attempt));
        };
        let (task, bytes) = (a.info.task, t.bytes);
        let secs = cx.now.saturating_since(t.started).as_secs_f64();
        let finished = E::ShufflePhaseFinished {
            task,
            phase,
            bytes,
            secs,
        };
        cx.emit_span(span, finished);
        match t.dir {
            Direction::Fetch(blocks) => self.compute(cx, attempt, blocks),
            Direction::Write {
                shuffle,
                buckets,
                cpu,
            } => self.map_outputs_done(cx, attempt, shuffle, &buckets, cpu),
        }
    }

    /// Launches the task's real computation over the blocks its fetch
    /// filled, and queues the *join* event where the simulation picks the
    /// result back up.
    ///
    /// With `workers >= 2` the body (map compute, shuffle combine+encode,
    /// reduce decode+merge) is submitted to the worker pool here and the
    /// join blocks (wall-clock only) until it finishes; with `workers <= 1`
    /// the body runs inline on the simulation thread when the join event
    /// fires. Both modes schedule the join at the same virtual instant —
    /// `now + task_overhead + deser_bound/speed` — so the simulation
    /// allocates identical event sequence numbers, and therefore an
    /// identical event order, at every worker count.
    ///
    /// `deser_bound` is the deserialization charge [`TaskContext::fetched`]
    /// levies for the fetched blocks, which is all a fresh context has
    /// charged: a lower bound on the body's total CPU charge, which
    /// guarantees the completion instant derived at the join
    /// (`launch + task_overhead + cpu/speed*gc`) never precedes the join
    /// itself.
    fn compute(&mut self, cx: &Cx, attempt: AttemptId, blocks: Vec<Bytes>) {
        let Some(a) = self.attempts.get_mut(&attempt) else {
            return;
        };
        let (task, plan) = (a.info.task, std::mem::take(&mut a.plan));
        let meta = &self.execs[a.info.slot];
        let (speed, mem_bytes) = (
            meta.desc.core_speed * meta.speed_factor,
            meta.desc.memory_bytes(),
        );
        let stage = pinned(&mut self.jobs, task.job).graph.stage(task.stage);
        let ctx = task_context(&self.cfg.work, stage, &plan, blocks);
        let (terminal, kind, part) = (Arc::clone(&stage.terminal), stage.kind.clone(), task.part);
        let deser_secs = ctx.cpu_secs();
        let join_at =
            cx.now + self.cfg.work.task_overhead + SimDuration::from_secs_f64(deser_secs / speed);
        // One event either way: a pooled body is already running on a
        // worker thread and is collected at the join; an inline body is
        // parked as its ingredients and runs when the join fires.
        let body = match cx.pool {
            Some(pool) => Body::Pooled(pool.submit(move || run_body(&*terminal, &kind, part, ctx))),
            None => Body::Inline {
                terminal,
                kind,
                part,
                ctx,
            },
        };
        let slot = self.computes.insert(Compute::Launched {
            attempt,
            launched_at: cx.now,
            speed,
            mem_bytes,
            body,
        });
        let token = COMPUTE | u64::from(slot);
        self.effects.push(Effect::Timer(join_at, token));
    }

    /// The join event, once the body ran: queues the completion at the
    /// instant the duration model dictates. Runs even when the attempt
    /// died mid-flight (`after_compute` discards dead attempts) so the
    /// event structure never depends on fault timing.
    fn join_compute(
        &mut self,
        attempt: AttemptId,
        launched_at: SimTime,
        speed: f64,
        mem_bytes: u64,
        (payload, ctx): BodyResult,
    ) {
        let (cpu, working_set) = (ctx.cpu_secs(), ctx.working_set_bytes());
        let work = &self.cfg.work;
        let pressure = working_set as f64 / mem_bytes as f64;
        let gc = work.gc_factor(pressure);
        let dur = work.task_overhead + SimDuration::from_secs_f64(cpu / speed * gc);
        let slot = self.computes.insert(Compute::Joined(attempt, payload, cpu));
        // `cpu >= deser_bound` (charged at context construction) and
        // `gc >= 1`, so `launched_at + dur >= now`: never in the past.
        let token = COMPUTE | u64::from(slot);
        self.effects.push(Effect::Timer(launched_at + dur, token));
    }

    /// The task's modeled CPU time has elapsed: a result task files its
    /// partition and completes; a map task writes its non-empty buckets —
    /// or, with every bucket empty, registers its output at once.
    fn after_compute(&mut self, cx: &Cx, attempt: AttemptId, payload: ComputePayload, cpu: f64) {
        let Some(a) = self.attempts.get(&attempt) else {
            return; // executor died while "computing"
        };
        let task = a.info.task;
        cx.emit(E::TaskComputed {
            task,
            cpu_secs: cpu,
        });
        match payload {
            ComputePayload::ResultOut(data) => {
                let job = pinned(&mut self.jobs, task.job);
                // A finished job has handed its slots on: a late
                // attempt's result has nowhere to go.
                if let Some(slot) = job.result_parts.get_mut(task.part) {
                    job.result_filled += usize::from(slot.replace(data).is_none());
                }
                self.task_done(cx, attempt, cpu);
            }
            ComputePayload::MapOut(shuffle, buckets) => {
                match buckets.iter().filter(|b| !b.bytes.is_empty()).count() {
                    0 => self.map_outputs_done(cx, attempt, shuffle, &buckets, cpu),
                    unsent => {
                        let bytes = buckets.iter().map(|b| b.bytes.len() as u64).sum();
                        let dir = Direction::Write {
                            shuffle,
                            buckets,
                            cpu,
                        };
                        self.open_transfer(cx, attempt, bytes, unsent, dir);
                    }
                }
            }
        }
    }

    /// Registers a map task's written buckets with the tracker, then
    /// completes the task.
    fn map_outputs_done(
        &mut self,
        cx: &Cx,
        attempt: AttemptId,
        sid: ShuffleId,
        buckets: &[ShuffleBucket],
        cpu: f64,
    ) {
        let Some(a) = self.attempts.get(&attempt) else {
            return;
        };
        let TaskRef { part, exec, .. } = a.info.task;
        let sizes = buckets.iter().map(|b| b.bytes.len() as u64);
        self.tracker.register_output(sid, part, exec, sizes);
        self.task_done(cx, attempt, cpu);
    }

    /// Common completion path: free the executor, update metrics, progress.
    fn task_done(&mut self, cx: &Cx, attempt: AttemptId, cpu: f64) {
        let Some(info) = self.take_attempt(attempt) else {
            return;
        };
        let (kind, drain) = self.update_exec(info.slot, |meta| {
            meta.running = None;
            meta.idle_since = cx.now;
            meta.tasks_done += 1;
            (meta.desc.kind, meta.draining && meta.alive)
        });
        let run_secs = cx.now.saturating_since(info.started_at).as_secs_f64();
        let (task, cpu_secs) = (info.task, cpu);
        let finished = E::TaskFinished {
            task,
            kind,
            cpu_secs,
            run_secs,
        };
        cx.emit_span(info.span, finished);
        if cx.tele.obs().is_enabled() {
            self.straggler_watch(cx, &info, run_secs);
        }
        if drain {
            self.decommission(cx, info.slot);
            // After the executor's loss and drain notification.
            self.effects.push(Effect::Progress(task.job));
        } else {
            self.progress(cx, task.job);
        }
    }

    /// The straggler watch: fold the just-completed attempt's run time
    /// into its stage's live completion digest, then compare every
    /// still-running attempt of the same stage against
    /// [`STRAGGLER_MULTIPLE`] × the digest's [`STRAGGLER_QUANTILE`].
    /// Detection only — a suspect is reported as one
    /// `StragglerSuspected` event, never re-launched speculatively. Runs only while observability is enabled, so the
    /// disabled path stays one branch.
    fn straggler_watch(&mut self, cx: &Cx, done: &AttemptInfo, run_secs: f64) {
        let threshold = {
            let digest = self
                .stage_runtimes
                .entry((done.task.job, done.task.stage))
                .or_default();
            digest.record(run_secs);
            if digest.count() < STRAGGLER_MIN_SAMPLES {
                return;
            }
            match digest.quantile(STRAGGLER_QUANTILE) {
                Some(q) if q * STRAGGLER_MULTIPLE > 0.0 => q * STRAGGLER_MULTIPLE,
                _ => return,
            }
        };
        for Attempt { info, .. } in self.attempts.values_mut() {
            let same_stage = (info.task.job, info.task.stage) == (done.task.job, done.task.stage);
            if !same_stage || info.straggler_flagged {
                continue;
            }
            let elapsed = cx.now.saturating_since(info.started_at).as_secs_f64();
            if elapsed > threshold {
                info.straggler_flagged = true;
                let suspected = E::StragglerSuspected {
                    task: info.task,
                    elapsed_secs: elapsed,
                    threshold_secs: threshold,
                };
                cx.emit_span(info.span, suspected);
            }
        }
    }

    /// An attempt (already out of the table) ended without its output:
    /// free its executor (a no-op on a dead one), report the failure and
    /// put the task back at the head of the queue.
    fn attempt_failed(&mut self, cx: &Cx, info: &AttemptInfo, why: FailureKind, reason: String) {
        let task = info.task;
        self.update_exec(info.slot, |meta| meta.running = None);
        cx.emit_span(info.span, E::TaskFailed { task, why, reason });
        pinned(&mut self.jobs, task.job).status[task.stage.0 as usize]
            .queued
            .insert(task.part);
        self.pending.push_front((task.job, task.stage, task.part));
    }

    /// A shuffle fetch failed: requeue the task, invalidate the lost map
    /// output so its stage is resubmitted.
    fn fetch_failed(
        &mut self,
        cx: &Cx,
        attempt: AttemptId,
        shuffle: ShuffleId,
        map: usize,
        err: StoreError,
    ) {
        let Some(info) = self.take_attempt(attempt) else {
            return;
        };
        cx.emit(E::FetchFailed {
            task: info.task,
            shuffle,
        });
        self.tracker.unregister_output(shuffle, map);
        self.attempt_failed(cx, &info, FailureKind::FetchFailed, err.to_string());
        self.rollback(cx);
        self.effects.push(Effect::ProgressAll);
    }

    /// A map-output write failed (e.g. store capacity): requeue the task.
    fn write_failed(&mut self, cx: &Cx, attempt: AttemptId, err: StoreError) {
        let Some(info) = self.take_attempt(attempt) else {
            return;
        };
        self.attempt_failed(cx, &info, FailureKind::WriteFailed, err.to_string());
        self.dispatch(cx);
    }
}

/// A snapshot of one executor's state, for policy layers (SplitServe's
/// launching and segueing facilities live above this API).
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutorInfo {
    /// The executor.
    pub id: ExecutorId,
    /// VM- or Lambda-backed.
    pub kind: ExecutorKind,
    /// When it registered.
    pub registered_at: SimTime,
    /// Still accepting/running work.
    pub alive: bool,
    /// In graceful-drain mode.
    pub draining: bool,
    /// Currently executing a task.
    pub busy: bool,
    /// When the executor last became idle (its registration time if it
    /// has never run a task). Meaningful only when `busy` is false.
    pub idle_since: SimTime,
    /// Tasks completed so far.
    pub tasks_done: u64,
}

/// How much per-work state the scheduler holds right now — all zeros on
/// an idle engine, however many jobs it has run. A debugging and testing
/// aid: it is what "state lives as long as the work it belongs to" means
/// in numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LiveState {
    /// Jobs whose stage graph and status are held: running jobs, plus
    /// finished ones with a stale attempt still in flight.
    pub jobs: usize,
    /// Shuffles the map-output tracker knows.
    pub shuffles: usize,
    /// Task attempts in flight.
    pub attempts: usize,
    /// Task bodies launched whose completion event has not fired — live
    /// attempts' and dead ones' alike.
    pub parked_computes: usize,
    /// Block gets and puts handed to the store and not yet answered —
    /// live attempts' and dead ones' alike.
    pub store_ops: usize,
}

/// What every [`Engine`] handle shares.
struct Shared {
    inner: RefCell<Inner>,
    store: Rc<dyn BlockStore>,
    /// Every view of what happens in here: the scheduler reports each
    /// occurrence with one `emit` and touches no view itself.
    tele: Telemetry,
    /// Worker threads for task bodies; `None` runs bodies inline on the
    /// simulation thread (`workers <= 1`). The pool joins its threads
    /// when the last engine handle drops.
    pool: Option<WorkerPool>,
}

impl Shared {
    fn cx(&self, now: SimTime) -> Cx<'_> {
        Cx {
            now,
            tele: &self.tele,
            pool: self.pool.as_ref(),
        }
    }

    /// The runner: applies the transition `step` to the scheduler's state,
    /// then makes the calls it queued, first queued first, each with no
    /// borrow held. A call that re-enters the engine — a store refusing a
    /// request synchronously, an `on_done` that submits a job — runs its
    /// own transitions and their calls to the end before the next queued
    /// call is made: depth first, the order of nested calls.
    fn run<R>(self: &Rc<Self>, sim: &mut Sim, step: impl FnOnce(&mut Inner, &Cx) -> R) -> R {
        let mut base = 0;
        let out = self.transition(|inner| {
            base = inner.effects.len();
            step(inner, &self.cx(sim.now()))
        });
        while let Some(effect) = self.next_effect(base) {
            self.apply(sim, effect);
        }
        out
    }

    /// Runs one transition with the state borrowed, and stacks what it
    /// queued so that the first is made first.
    fn transition<R>(&self, step: impl FnOnce(&mut Inner) -> R) -> R {
        let mut inner = self.inner.borrow_mut();
        let from = inner.effects.len();
        let out = step(&mut inner);
        inner.effects[from..].reverse();
        out
    }

    /// The next effect of the run whose stack started at `base`.
    fn next_effect(&self, base: usize) -> Option<Effect> {
        let mut inner = self.inner.borrow_mut();
        if inner.effects.len() > base {
            inner.effects.pop()
        } else {
            None
        }
    }

    fn apply(self: &Rc<Self>, sim: &mut Sim, effect: Effect) {
        let cx = &self.cx(sim.now());
        match effect {
            Effect::Timer(at, token) => {
                sim.notify_at(at, self.clone(), token);
            }
            Effect::Issue(attempt) => {
                let request = self.transition(|inner| inner.issue_next(cx, attempt));
                match request {
                    Some((client, block, Some(bytes), token)) => {
                        self.store
                            .put_to(sim, client, block, bytes, self.clone(), token)
                    }
                    Some((client, block, None, token)) => {
                        self.store.get_to(sim, client, block, self.clone(), token)
                    }
                    None => {}
                }
            }
            Effect::Register(id, loc) => self.store.register_executor(id.as_str(), loc),
            Effect::Forget(shuffle) => self.store.forget_shuffle(shuffle.0),
            Effect::ExecutorLost(id) => {
                self.tele.record_store_executor_loss();
                self.store.on_executor_lost(sim, id.as_str());
                if !self.store.survives_executor_loss() {
                    self.transition(|inner| inner.lose_outputs(cx, id));
                }
            }
            Effect::JobDone(on_done, output) => on_done(sim, output),
            Effect::Drained(to, token) => {
                if let Some(to) = to.upgrade() {
                    to.on_event(sim, token);
                }
            }
            Effect::Dispatch => self.transition(|inner| inner.dispatch(cx)),
            Effect::Progress(job) => self.transition(|inner| inner.progress(cx, job)),
            Effect::ProgressAll => self.transition(Inner::progress_all),
        }
    }
}

/// The Spark-like engine. A handle is one `Rc`, so the clones that ride
/// in every scheduled event cost one increment; all state is shared.
///
/// # Examples
///
/// ```
/// use splitserve_des::{Fabric, Sim};
/// use splitserve_engine::{collect_partitions, Dataset, Engine, EngineConfig, ExecutorDesc};
/// use splitserve_storage::LocalDiskStore;
/// use std::rc::Rc;
///
/// let mut sim = Sim::new(0);
/// let fabric = Fabric::new();
/// let store = Rc::new(LocalDiskStore::new(fabric.clone()));
/// let engine = Engine::new(EngineConfig::default(), store);
///
/// let nic = fabric.add_link(1e9, "nic");
/// let disk = fabric.add_link(1e9, "disk");
/// engine.register_executor(&mut sim, ExecutorDesc::vm("exec-0", nic, disk, 8192));
///
/// let sums = Dataset::parallelize((0..1000u64).map(|i| (i % 4, i)).collect(), 4)
///     .reduce_by_key(2, |a, b| a + b);
/// let out = Rc::new(std::cell::Cell::new(None));
/// let o = Rc::clone(&out);
/// engine.submit_job(&mut sim, sums.node(), move |_sim, output| {
///     o.set(Some(collect_partitions::<(u64, u64)>(output.partitions)));
/// });
/// sim.run();
/// let mut rows = out.take().expect("job finished");
/// rows.sort();
/// assert_eq!(rows.len(), 4);
/// ```
#[derive(Clone)]
pub struct Engine {
    shared: Rc<Shared>,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.shared.inner.borrow();
        f.debug_struct("Engine")
            .field("executors", &inner.execs.len())
            .field("jobs", &inner.next_job)
            .field("pending_tasks", &inner.pending.len())
            .field("store", &self.shared.store.kind())
            .finish()
    }
}

enum ComputePayload {
    MapOut(ShuffleId, Vec<ShuffleBucket>),
    ResultOut(PartitionData),
}

/// What a task body hands back to the simulation: its output, and the
/// context it ran in — total CPU charge and working-set size (the inputs
/// of the duration model) plus what it measured for the registry.
type BodyResult = (ComputePayload, TaskContext);

/// A task's real computation (a map stage's stream into its shuffle's
/// combine+encode, a result stage's stream collected, reduce
/// decode+merge), on whichever thread runs it.
fn run_body(
    terminal: &dyn PlanNode,
    kind: &StageKind,
    part: usize,
    mut ctx: TaskContext,
) -> BodyResult {
    let payload = match kind {
        StageKind::ShuffleMap(dep) => ComputePayload::MapOut(dep.id, dep.map_task(&mut ctx, part)),
        StageKind::Result => ComputePayload::ResultOut(terminal.compute(&mut ctx, part)),
    };
    (payload, ctx)
}

impl EventHandler for Shared {
    fn on_event(self: Rc<Self>, sim: &mut Sim, token: u64) {
        if token & COMPUTE == 0 {
            return self.run(sim, |inner, cx| inner.begin_fetch(cx, AttemptId(token)));
        }
        // Out of the table before anything runs: the body's inputs and
        // outputs are held exactly as long as the events need them.
        let slot = u32::try_from(token & !COMPUTE).ok();
        let parked = self.transition(|inner| slot.and_then(|slot| inner.computes.take(slot)));
        match parked.expect("a compute event names a parked body") {
            Compute::Launched {
                attempt,
                launched_at,
                speed,
                mem_bytes,
                body,
            } => {
                // The body runs with the scheduler's state released.
                let done = match body {
                    Body::Pooled(running) => running.join(),
                    Body::Inline {
                        terminal,
                        kind,
                        part,
                        ctx,
                    } => run_body(&*terminal, &kind, part, ctx),
                };
                // Every body that ran reports here, whether or not its
                // attempt is still alive, in join order: the order of
                // `workers = 1`.
                self.tele.record_body(&done.1);
                self.run(sim, |inner, _| {
                    inner.join_compute(attempt, launched_at, speed, mem_bytes, done)
                });
            }
            Compute::Joined(attempt, payload, cpu) => self.run(sim, |inner, cx| {
                inner.after_compute(cx, attempt, payload, cpu)
            }),
        }
    }
}

/// Every store request lands in [`Inner::landed`], above any decorator
/// the store wears: injected errors and latency are recorded like organic
/// ones.
impl StoreClient for Shared {
    fn put_landed(self: Rc<Self>, sim: &mut Sim, token: u64, result: Result<(), StoreError>) {
        let result = result.map(|()| None);
        self.run(sim, |inner, cx| {
            inner.landed(cx, token, StoreOp::Put, result)
        });
    }

    fn get_landed(self: Rc<Self>, sim: &mut Sim, token: u64, result: Result<Bytes, StoreError>) {
        let result = result.map(Some);
        self.run(sim, |inner, cx| {
            inner.landed(cx, token, StoreOp::Get, result)
        });
    }
}

/// The context a task computes in, over the block list its fetch filled:
/// the list is handed over whole, with the plan's run of blocks for every
/// input shuffle of `stage` (a run of none where this reduce partition
/// received no bytes from it), in map order — the plan's order.
fn task_context(
    work: &WorkModel,
    stage: &Stage,
    plan: &[(ShuffleId, usize, ExecutorId, u64)],
    blocks: Vec<Bytes>,
) -> TaskContext {
    debug_assert!(
        plan.is_sorted_by_key(|(s, ..)| *s),
        "plan follows input-shuffle order"
    );
    let runs = match &stage.input_shuffles[..] {
        [only] => Runs::Whole(only.id),
        deps => Runs::Split(
            deps.iter()
                .map(|dep| (dep.id, plan.iter().filter(|(s, ..)| *s == dep.id).count()))
                .collect(),
        ),
    };
    TaskContext::fetched(work.clone(), blocks, runs)
}

impl Engine {
    /// Creates an engine over the given shuffle store.
    pub fn new(cfg: EngineConfig, store: Rc<dyn BlockStore>) -> Self {
        let tele = Telemetry::new(cfg.obs.clone(), EventLog::new(cfg.event_log), store.kind());
        let pool = (cfg.workers >= 2).then(|| WorkerPool::new(cfg.workers));
        Engine {
            shared: Rc::new(Shared {
                pool,
                inner: RefCell::new(Inner::new(cfg)),
                store,
                tele,
            }),
        }
    }

    /// The engine's event log.
    pub fn event_log(&self) -> &EventLog {
        self.shared.tele.log()
    }

    /// Reports an occurrence the engine cannot see itself — the segue
    /// marker, an injected fault — to the same views as its own events.
    pub fn emit(&self, at: SimTime, event: EngineEventKind) {
        self.shared.tele.emit(at, event);
    }

    /// The observability handle the engine records into (the one passed
    /// via [`EngineConfig::obs`]; disabled by default).
    pub fn obs(&self) -> &splitserve_obs::Obs {
        self.shared.tele.obs()
    }

    /// The shuffle store in use.
    pub fn store(&self) -> &Rc<dyn BlockStore> {
        &self.shared.store
    }

    /// How much per-work state is held right now (see [`LiveState`]).
    ///
    /// Test aid: only tests call this.
    pub fn live_state(&self) -> LiveState {
        let inner = self.shared.inner.borrow();
        LiveState {
            jobs: inner.jobs.len(),
            shuffles: inner.tracker.shuffle_count(),
            attempts: inner.attempts.len(),
            parked_computes: inner.computes.len(),
            store_ops: inner.requests.len(),
        }
    }

    // ----- executors ---------------------------------------------------

    /// Registers an executor and immediately offers it pending work.
    ///
    /// # Panics
    ///
    /// Panics if the id is already registered.
    pub fn register_executor(&self, sim: &mut Sim, desc: ExecutorDesc) {
        self.shared.run(sim, |inner, cx| inner.register(cx, desc));
    }

    /// Snapshot of all executors (in id order).
    pub fn executors(&self) -> Vec<ExecutorInfo> {
        let mut out = Vec::new();
        self.executors_into(&mut out);
        out
    }

    /// [`Engine::executors`] into `out`, replacing what it held: a control
    /// loop that keeps its list from one tick to the next snapshots
    /// without allocating.
    pub fn executors_into(&self, out: &mut Vec<ExecutorInfo>) {
        let inner = self.shared.inner.borrow();
        out.clear();
        out.extend(
            inner
                .execs_by_name
                .iter()
                .map(|&slot| inner.execs[slot as usize].info()),
        );
    }

    /// Snapshot of one executor.
    pub fn executor_info(&self, id: &ExecutorId) -> Option<ExecutorInfo> {
        self.shared.inner.borrow().exec(*id).map(ExecMeta::info)
    }

    /// Number of tasks waiting in the dispatch queue (the backlog a
    /// dynamic-allocation controller reacts to).
    pub fn pending_tasks(&self) -> usize {
        self.shared.inner.borrow().pending.len()
    }

    /// Whether any submitted job has not completed yet.
    ///
    /// Test aid: only tests call this.
    pub fn has_active_jobs(&self) -> bool {
        !self.shared.inner.borrow().active.is_empty()
    }

    /// Number of live, non-draining executors.
    pub fn active_executors(&self) -> usize {
        let inner = self.shared.inner.borrow();
        inner
            .execs
            .iter()
            .filter(|m| m.alive && !m.draining)
            .count()
    }

    /// Puts an executor into graceful-drain mode: it takes no new tasks,
    /// finishes any current one, and when it leaves the cluster the engine
    /// calls `to.on_event(sim, token)`. The engine holds `to` by `Weak`,
    /// as the cloud holds its listener: its owner keeps it alive. This is
    /// the decommission path that does **not** roll back execution —
    /// provided the shuffle store survives executor loss.
    pub fn drain_executor(
        &self,
        sim: &mut Sim,
        id: &ExecutorId,
        to: Rc<dyn EventHandler>,
        token: u64,
    ) {
        let to = Rc::downgrade(&to);
        self.shared
            .run(sim, |inner, cx| inner.drain(cx, *id, to, token));
    }

    /// Abruptly kills an executor (Lambda lifetime expiry, VM crash). Its
    /// running task fails and is re-queued; if the shuffle store is
    /// executor-local, its map outputs are invalidated and the affected
    /// stages roll back.
    pub fn kill_executor(&self, sim: &mut Sim, id: &ExecutorId) {
        self.shared.run(sim, |inner, cx| inner.kill(cx, *id));
    }

    /// Whether killing `id` *right now* would roll a stage back: true iff
    /// the shuffle store dies with its executors and `id` holds registered
    /// map outputs of a `Done` shuffle-map stage in a live job. This is
    /// the query the chaos plane's differential oracle uses to predict
    /// `StageRolledBack` events before performing a kill.
    pub fn would_rollback_on_loss(&self, id: &ExecutorId) -> bool {
        if self.shared.store.survives_executor_loss() {
            return false;
        }
        let inner = self.shared.inner.borrow();
        inner.active.iter().any(|job_id| {
            let job = inner.jobs.get(job_id).expect("active job is live");
            job.graph.stages.iter().any(|stage| {
                let StageKind::ShuffleMap(dep) = &stage.kind else {
                    return false;
                };
                job.status[stage.id.0 as usize].state == Some(StageState::Done)
                    && inner.tracker.has_outputs_from(dep.id, id)
            })
        })
    }

    /// Scales an executor's effective core speed by `factor` (1.0 =
    /// nominal; 0.25 runs tasks four times slower). The chaos plane uses
    /// this to inject stragglers; the change applies to computations
    /// started after the call.
    ///
    /// # Panics
    ///
    /// Panics unless `factor` is finite and positive.
    pub fn set_executor_speed_factor(&self, id: &ExecutorId, factor: f64) {
        assert!(
            factor.is_finite() && factor > 0.0,
            "invalid speed factor {factor}"
        );
        self.shared.transition(|inner| {
            if let Some(slot) = inner.exec_slot(*id) {
                inner.update_exec(slot, |meta| meta.speed_factor = factor);
            }
        });
    }

    // ----- jobs ---------------------------------------------------------

    /// Submits a job computing `final_node`'s partitions; `on_done` fires
    /// with the results and metrics when the result stage completes.
    pub fn submit_job(
        &self,
        sim: &mut Sim,
        final_node: Arc<dyn PlanNode>,
        on_done: impl FnOnce(&mut Sim, JobOutput) + 'static,
    ) -> JobId {
        let on_done = Box::new(on_done);
        self.shared
            .run(sim, |inner, cx| inner.submit(cx, final_node, on_done))
    }

    /// Metrics of every job that has completed so far, in submission
    /// order. The returned `Arc`s share the scheduler's own metrics
    /// blocks — no per-job deep copy.
    pub fn completed_job_metrics(&self) -> Vec<Arc<JobMetrics>> {
        let inner = self.shared.inner.borrow();
        let done = (0..inner.next_job).map(JobId);
        done.filter(|id| inner.jobs.get(id).is_none_or(|job| job.done))
            .filter_map(|id| self.job_metrics(id))
            .collect()
    }

    /// A completed job's metrics (available after `on_done` fired),
    /// shared rather than cloned.
    pub fn job_metrics(&self, job: JobId) -> Option<Arc<JobMetrics>> {
        self.shared.tele.job_metrics(job)
    }
}

#[cfg(test)]
mod tests {
    use std::rc::Rc;

    use splitserve_des::{Fabric, Sim, SimTime};
    use splitserve_rt::Bytes;
    use splitserve_storage::LocalDiskStore;

    use super::{BitSet, Cx, Engine, Inner, JobId, LiveState, StageId, StageState};
    use crate::events::EventLog;
    use crate::node::ShuffleBucket;
    use crate::stage::StageKind;
    use crate::telemetry::Telemetry;
    use crate::{Dataset, EngineConfig, ExecutorDesc};

    /// Submits one small aggregation to `engine`.
    fn submit(engine: &Engine, sim: &mut Sim) -> JobId {
        engine.submit_job(sim, aggregation().node(), |_, out| {
            assert_eq!(out.partitions.len(), 2)
        })
    }

    /// Two map tasks into a two-way shuffle, and two reduce tasks.
    fn aggregation() -> Dataset<(u64, u64)> {
        Dataset::parallelize((0..40u64).map(|i| (i % 5, i)).collect(), 2)
            .reduce_by_key(2, |a, b| a + b)
    }

    /// The scheduler's state on its own, and the views its transitions
    /// report to: no `Sim`, no store, and nothing queued is ever made.
    fn bare() -> (Inner, Telemetry) {
        let cfg = EngineConfig::default();
        let tele = Telemetry::new(cfg.obs.clone(), EventLog::new(cfg.event_log), "none");
        (Inner::new(cfg), tele)
    }

    /// A retired job is absent from the job table. A stale dispatch entry
    /// or a late attempt landing for it does nothing, and its metrics stay
    /// where they were, in submission order.
    #[test]
    fn stale_entries_of_a_retired_job_are_no_ops() {
        let fabric = Fabric::new();
        let store = Rc::new(LocalDiskStore::new(fabric.clone()));
        let engine = Engine::new(EngineConfig::default(), store);
        let mut sim = Sim::new(7);
        for i in 0..2 {
            let nic = fabric.add_link(1e9, format!("nic-{i}"));
            let disk = fabric.add_link(1e9, format!("disk-{i}"));
            let desc = ExecutorDesc::vm(format!("e-vm-{i}"), nic, disk, 8192);
            engine.register_executor(&mut sim, desc);
        }
        for _ in 0..3 {
            submit(&engine, &mut sim);
            sim.run();
        }
        {
            let inner = engine.shared.inner.borrow();
            assert!(inner.jobs.is_empty() && inner.active.is_empty());
            assert_eq!(inner.next_job, 3);
        }
        let events = engine.event_log().len();
        let idle = LiveState {
            jobs: 0,
            shuffles: 0,
            attempts: 0,
            parked_computes: 0,
            store_ops: 0,
        };

        // A dispatch entry that outlived its job is dropped unrun.
        engine
            .shared
            .inner
            .borrow_mut()
            .pending
            .push_back((JobId(1), StageId(0), 0));
        engine.shared.run(&mut sim, |inner, cx| inner.dispatch(cx));
        // What a stale attempt's landing does: progress its job.
        engine
            .shared
            .run(&mut sim, |inner, cx| inner.progress(cx, JobId(1)));
        sim.run();
        assert_eq!(engine.pending_tasks(), 0);
        assert_eq!(engine.live_state(), idle);
        assert_eq!(
            engine.event_log().len(),
            events,
            "no task ran, no stage moved"
        );

        // A running job is not among the completed ones, and ids count on
        // past the retired jobs.
        assert_eq!(submit(&engine, &mut sim), JobId(3));
        let done = |engine: &Engine| -> Vec<JobId> {
            engine
                .completed_job_metrics()
                .iter()
                .map(|m| m.job)
                .collect()
        };
        assert_eq!(done(&engine), [JobId(0), JobId(1), JobId(2)]);
        sim.run();
        assert_eq!(done(&engine), [JobId(0), JobId(1), JobId(2), JobId(3)]);
        assert_eq!(engine.job_metrics(JobId(0)).map(|m| m.job), Some(JobId(0)));
        assert_eq!(engine.live_state(), idle);
    }

    /// Placement is name order, and VM executors (`e-vm-…`) sort before
    /// Lambda ones (`lambda-…`): the VM takes the task even when the
    /// Lambda registered first.
    #[test]
    fn dispatch_picks_the_vm_before_the_lambda_whichever_registered_first() {
        let fabric = Fabric::new();
        let (nic, disk) = (fabric.add_link(1e9, "nic"), fabric.add_link(1e9, "disk"));
        let vm = || ExecutorDesc::vm("e-vm-0000", nic, disk, 8192);
        let lambda = || ExecutorDesc::lambda("lambda-0000", nic, 1536);
        for order in [[lambda(), vm()], [vm(), lambda()]] {
            let (mut inner, tele) = bare();
            let cx = Cx {
                now: SimTime::ZERO,
                tele: &tele,
                pool: None,
            };
            for desc in order {
                inner.register(&cx, desc);
            }
            let one_task = Dataset::parallelize(vec![1u64], 1);
            inner.submit(&cx, one_task.node(), Box::new(|_, _| {}));
            inner.dispatch(&cx);
            let placed: Vec<_> = inner.attempts.values().map(|a| a.info.task.exec).collect();
            assert_eq!(placed, ["e-vm-0000".into()]);
        }
    }

    /// Losing the map outputs a queued reduce stage reads rolls the map
    /// stage back and takes the reduce tasks out of the dispatch queue.
    #[test]
    fn rollback_dequeues_a_stage_whose_input_shuffle_is_incomplete() {
        let fabric = Fabric::new();
        let (nic, disk) = (fabric.add_link(1e9, "nic"), fabric.add_link(1e9, "disk"));
        let (mut inner, tele) = bare();
        let cx = Cx {
            now: SimTime::ZERO,
            tele: &tele,
            pool: None,
        };
        inner.register(&cx, ExecutorDesc::vm("e-vm-0000", nic, disk, 8192));
        let plan = aggregation();
        let job = inner.submit(&cx, plan.node(), Box::new(|_, _| {}));
        let (map_stage, shuffle) = match &inner.jobs[&job].graph.stages[0].kind {
            StageKind::ShuffleMap(dep) => (StageId(0), dep.id),
            StageKind::Result => unreachable!("stage 0 of a shuffle job maps"),
        };
        // The two map tasks run one after the other on the one executor,
        // each writing a bucket per reduce partition. The second one's
        // completion queues both reduce tasks and places the first on the
        // executor it freed; the other waits in the queue.
        for _ in 0..2 {
            let attempt = *inner.attempts.keys().next().expect("a map task runs");
            let buckets = vec![
                ShuffleBucket {
                    bytes: Bytes::new(),
                };
                2
            ];
            inner.map_outputs_done(&cx, attempt, shuffle, &buckets, 0.0);
        }
        let status = |inner: &Inner, stage: usize| {
            let st = &inner.jobs[&job].status[stage];
            (st.state, st.queued.len, st.running.len)
        };
        assert_eq!(inner.pending, [(job, StageId(1), 1)]);
        assert_eq!(status(&inner, 0), (Some(StageState::Done), 0, 0));
        assert_eq!(status(&inner, 1), (Some(StageState::Running), 1, 1));

        inner.lose_outputs(&cx, "e-vm-0000".into());
        assert!(inner.pending.is_empty(), "{:?}", inner.pending);
        assert_eq!(status(&inner, 0), (Some(StageState::Waiting), 0, 0));
        // The placed reduce task keeps running (its fetch will fail), so
        // its stage stays running with nothing queued.
        assert_eq!(status(&inner, 1), (Some(StageState::Running), 0, 1));
        let rolled_back = tele.log().snapshot().iter().any(|e| {
            matches!(e.kind, crate::EngineEventKind::StageRolledBack { stage, missing: 2, .. } if stage == map_stage)
        });
        assert!(rolled_back, "the map stage reports its rollback");
    }

    #[test]
    fn bit_set_spans_the_inline_word_and_the_spill() {
        let mut set = BitSet::default();
        assert!(set.is_empty() && !set.contains(0) && !set.remove(200));
        assert_eq!(set.first(), None);
        for part in [0, 63, 64, 127, 128, 1_000] {
            set.insert(part);
            set.insert(part); // idempotent
            assert!(set.contains(part));
        }
        assert_eq!(set.len, 6);
        assert!(!set.contains(1) && !set.contains(65) && !set.contains(5_000));
        assert_eq!(set.first(), Some(0));
        assert!(set.remove(64) && !set.remove(64) && !set.contains(64));
        assert!(set.remove(0) && set.contains(63));
        assert_eq!(set.len, 4);
        assert_eq!(set.first(), Some(63));
        assert!(set.remove(63) && set.remove(127));
        assert_eq!(set.first(), Some(128));
        set.insert(63);
        set.clear();
        assert!(set.is_empty() && !set.contains(63) && !set.contains(1_000));
        set.insert(1_000);
        assert_eq!(set.len, 1);
    }
}

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

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;
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

/// Callback invoked when a draining executor finally leaves the cluster.
type DrainCallback = Box<dyn FnOnce(&mut Sim, ExecutorId)>;

struct ExecMeta {
    desc: ExecutorDesc,
    alive: bool,
    draining: bool,
    running: Option<AttemptId>,
    registered_at: SimTime,
    idle_since: SimTime,
    tasks_done: u64,
    on_drained: Option<DrainCallback>,
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

/// The straggler watch (detection only, see [`Engine::straggler_watch`])
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

/// Sentinel in the symbol→slot side table for "no executor with this
/// symbol registered here".
const NO_SLOT: u32 = u32::MAX;

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
}

impl Inner {
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

    /// The job of a live attempt, which the attempt keeps live.
    fn pinned_job(&self, job: JobId) -> &LiveJob {
        self.jobs.get(&job).expect("an attempt pins its job")
    }

    /// [`Inner::pinned_job`], mutable.
    fn pinned_job_mut(&mut self, job: JobId) -> &mut LiveJob {
        self.jobs.get_mut(&job).expect("an attempt pins its job")
    }

    /// Removes an attempt, releasing its hold on its job.
    fn take_attempt(&mut self, id: AttemptId) -> Option<Attempt> {
        let attempt = self.attempts.remove(&id)?;
        self.pinned_job_mut(attempt.info.task.job).attempts -= 1;
        Some(attempt)
    }

    /// Puts a failed attempt's task back at the head of the dispatch
    /// queue.
    fn requeue(&mut self, info: &AttemptInfo) {
        let job = self.jobs.get_mut(&info.task.job).expect("a requeued task keeps its job live");
        let st = &mut job.status[info.task.stage.0 as usize];
        st.running.remove(info.task.part);
        st.queued.insert(info.task.part);
        self.pending.push_front((info.task.job, info.task.stage, info.task.part));
    }

    /// Retires `job_id` — takes it out of `jobs` — if it is over: done,
    /// with no attempt left in `attempts` and no task queued. From then on
    /// the job is known by its absence. (Done alone is not enough — a re-run
    /// map task of a rolled-back stage can still be queued or in flight
    /// when the result stage finishes, and it indexes the graph when it
    /// lands.) Retiring drops the stage graph with its plan nodes, the
    /// per-stage status and straggler digests, and forgets every shuffle
    /// whose dependency nobody can reach any more — in the tracker and in
    /// `store`, whose blocks of it go too. A `Dataset` the caller still
    /// holds keeps its `ShuffleDep` alive, so resubmitting it finds its
    /// map outputs registered and its blocks stored and skips the map
    /// stage, exactly as while the first job's state was around; its
    /// tracker entry and blocks go at the first retirement after the
    /// caller lets go.
    fn retire_if_over(&mut self, job_id: JobId, store: &dyn BlockStore) {
        let over = |job: &LiveJob| {
            job.done && job.attempts == 0 && job.status.iter().all(|st| st.queued.is_empty())
        };
        if !self.jobs.get(&job_id).is_some_and(over) {
            return;
        }
        let Some(job) = self.jobs.remove(&job_id) else { return };
        for stage in &job.graph.stages {
            if !self.stage_runtimes.is_empty() {
                self.stage_runtimes.remove(&(job_id, stage.id));
            }
            if let StageKind::ShuffleMap(dep) = &stage.kind {
                self.held_shuffles.insert(dep.id, Arc::downgrade(dep));
            }
        }
        drop(job);
        let tracker = &mut self.tracker;
        self.held_shuffles.retain(|id, dep| {
            let reachable = dep.strong_count() > 0;
            if !reachable {
                tracker.forget_shuffle(*id);
                store.forget_shuffle(id.0);
            }
            reachable
        });
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
/// let out = std::rc::Rc::new(std::cell::RefCell::new(None));
/// let o = Rc::clone(&out);
/// engine.submit_job(&mut sim, sums.node(), move |_sim, output| {
///     *o.borrow_mut() = Some(collect_partitions::<(u64, u64)>(output.partitions));
/// });
/// sim.run();
/// let mut rows = out.borrow_mut().take().expect("job finished");
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
    MapOut(Vec<ShuffleBucket>),
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
        StageKind::ShuffleMap(dep) => ComputePayload::MapOut(dep.map_task(&mut ctx, part)),
        StageKind::Result => ComputePayload::ResultOut(terminal.compute(&mut ctx, part)),
    };
    (payload, ctx)
}

impl EventHandler for Shared {
    fn on_event(self: Rc<Self>, sim: &mut Sim, token: u64) {
        let engine = Engine { shared: self };
        if token & COMPUTE == 0 {
            return engine.begin_fetch(sim, AttemptId(token));
        }
        let slot = u32::try_from(token & !COMPUTE).expect("a compute token carries a slot");
        // Out of the table before anything runs: the body's inputs and
        // outputs are held exactly as long as the events need them.
        let parked = engine.shared.inner.borrow_mut().computes.take(slot);
        match parked.expect("a compute event names a parked body") {
            Compute::Launched { attempt, launched_at, speed, mem_bytes, body } => {
                engine.join_compute(sim, attempt, launched_at, speed, mem_bytes, body)
            }
            Compute::Joined(attempt, payload, cpu) => {
                engine.after_compute(sim, attempt, payload, cpu)
            }
        }
    }
}

/// Every store request lands in [`Engine::landed`], above any decorator
/// the store wears: injected errors and latency are recorded like organic
/// ones.
impl StoreClient for Shared {
    fn put_landed(self: Rc<Self>, sim: &mut Sim, token: u64, result: Result<(), StoreError>) {
        Engine { shared: self }.landed(sim, token, StoreOp::Put, result.map(|()| None));
    }

    fn get_landed(self: Rc<Self>, sim: &mut Sim, token: u64, result: Result<Bytes, StoreError>) {
        Engine { shared: self }.landed(sim, token, StoreOp::Get, result.map(Some));
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
    debug_assert!(plan.is_sorted_by_key(|(s, ..)| *s), "plan follows input-shuffle order");
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
                inner: RefCell::new(Inner {
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
                }),
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
        let sh = &*self.shared;
        sh.store
            .register_executor(desc.id.as_str(), desc.client_loc());
        {
            let mut inner = sh.inner.borrow_mut();
            let id = desc.id;
            let kind = desc.kind;
            let fresh = inner.add_exec(ExecMeta {
                desc,
                alive: true,
                draining: false,
                running: None,
                registered_at: sim.now(),
                idle_since: sim.now(),
                tasks_done: 0,
                on_drained: None,
                speed_factor: 1.0,
            });
            assert!(fresh, "duplicate executor {id}");
            sh.tele.emit(sim.now(), E::ExecutorRegistered { exec: id, kind });
        }
        self.dispatch(sim);
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
    /// finishes any current one, and `on_drained` fires when it leaves the
    /// cluster. This is the decommission path that does **not** roll back
    /// execution — provided the shuffle store survives executor loss.
    pub fn drain_executor(
        &self,
        sim: &mut Sim,
        id: &ExecutorId,
        on_drained: impl FnOnce(&mut Sim, ExecutorId) + 'static,
    ) {
        let finish_now = {
            let mut inner = self.shared.inner.borrow_mut();
            let Some(slot) = inner.exec_slot(*id) else {
                return;
            };
            if !inner.execs[slot].alive || inner.execs[slot].draining {
                return;
            }
            let idle = inner.update_exec(slot, |meta| {
                meta.draining = true;
                meta.on_drained = Some(Box::new(on_drained));
                meta.running.is_none()
            });
            self.shared.tele.emit(sim.now(), E::ExecutorDraining { exec: *id });
            idle
        };
        if finish_now {
            self.decommission(sim, *id);
        }
    }

    /// Abruptly kills an executor (Lambda lifetime expiry, VM crash). Its
    /// running task fails and is re-queued; if the shuffle store is
    /// executor-local, its map outputs are invalidated and the affected
    /// stages roll back.
    pub fn kill_executor(&self, sim: &mut Sim, id: &ExecutorId) {
        let sh = &*self.shared;
        {
            let mut inner = sh.inner.borrow_mut();
            let inner = &mut *inner;
            let Some(slot) = inner.exec_slot(*id) else {
                return;
            };
            if !inner.execs[slot].alive {
                return;
            }
            let running = inner.update_exec(slot, |meta| {
                meta.alive = false;
                meta.running.take()
            });
            sh.tele.emit(sim.now(), E::ExecutorLost { exec: *id });
            if let Some(Attempt { info, .. }) = running.and_then(|a| inner.take_attempt(a)) {
                let reason = "executor lost".into();
                self.attempt_failed(sim.now(), inner, &info, FailureKind::ExecutorLost, reason);
            }
        }
        self.lose_executor_blocks(sim, id);
        self.progress_all_jobs(sim);
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
        let mut inner = self.shared.inner.borrow_mut();
        if let Some(slot) = inner.exec_slot(*id) {
            inner.update_exec(slot, |meta| meta.speed_factor = factor);
        }
    }

    fn decommission(&self, sim: &mut Sim, id: ExecutorId) {
        let sh = &*self.shared;
        let cb = {
            let mut inner = sh.inner.borrow_mut();
            let Some(slot) = inner.exec_slot(id) else {
                return;
            };
            if !inner.execs[slot].alive {
                return;
            }
            let cb = inner.update_exec(slot, |meta| {
                meta.alive = false;
                meta.on_drained.take()
            });
            sh.tele.emit(sim.now(), E::ExecutorDecommissioned { exec: id });
            cb
        };
        // A decommissioned executor's node is gone; local blocks with it.
        self.lose_executor_blocks(sim, &id);
        if let Some(cb) = cb {
            cb(sim, id);
        }
        self.progress_all_jobs(sim);
    }

    /// Tells the store `id` is gone. If its blocks go with it, its map
    /// outputs are unregistered and the stages that need them roll back.
    fn lose_executor_blocks(&self, sim: &mut Sim, id: &ExecutorId) {
        let sh = &*self.shared;
        sh.tele.record_store_executor_loss();
        sh.store.on_executor_lost(sim, id.as_str());
        if !sh.store.survives_executor_loss() {
            let affected = sh.inner.borrow_mut().tracker.unregister_executor(id);
            if !affected.is_empty() {
                self.rollback_incomplete_stages(sim);
            }
        }
    }

    /// Marks stages whose map outputs vanished as needing resubmission and
    /// pulls now-unrunnable queued tasks back out of the dispatch queue.
    fn rollback_incomplete_stages(&self, sim: &mut Sim) {
        let sh = &*self.shared;
        let mut inner = sh.inner.borrow_mut();
        let inner = &mut *inner;
        let mut dequeue: FastSet<(JobId, StageId)> = FastSet::default();
        for &job_id in &inner.active {
            let job = inner.jobs.get_mut(&job_id).expect("active job is live");
            for stage in &job.graph.stages {
                let st = &mut job.status[stage.id.0 as usize];
                if let StageKind::ShuffleMap(dep) = &stage.kind {
                    if st.state == Some(StageState::Done) && !inner.tracker.is_complete(dep.id) {
                        let missing = stage.num_tasks - inner.tracker.registered(dep.id);
                        st.state = Some(StageState::Waiting);
                        let (job, stage) = (job_id, stage.id);
                        sh.tele.emit(sim.now(), E::StageRolledBack { job, stage, missing });
                    }
                }
                // Any stage whose inputs are no longer complete must not
                // keep tasks in the dispatch queue.
                let inputs_ok = stage
                    .input_shuffles
                    .iter()
                    .all(|d| inner.tracker.is_complete(d.id));
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
            inner
                .pending
                .retain(|(j, s, _)| !dequeue.contains(&(*j, *s)));
        }
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
        let job_id = {
            let mut inner = self.shared.inner.borrow_mut();
            let id = JobId(inner.next_job);
            inner.next_job += 1;
            let graph = build_stages(final_node);
            // Register every shuffle in the tracker.
            for stage in &graph.stages {
                if let StageKind::ShuffleMap(dep) = &stage.kind {
                    let (maps, reduces) = (dep.parent.num_partitions(), dep.num_partitions);
                    inner.tracker.register_shuffle(dep.id, maps, reduces);
                }
            }
            let n_stages = graph.len();
            let submitted = E::JobSubmitted { job: id, stages: n_stages };
            self.shared.tele.emit(sim.now(), submitted);
            let result_width = graph.stage(graph.result).num_tasks;
            let job = LiveJob {
                done: false,
                graph,
                status: (0..n_stages).map(|_| StageStatus::default()).collect(),
                result_parts: vec![None; result_width],
                result_filled: 0,
                on_done: Some(Box::new(on_done)),
                attempts: 0,
            };
            inner.jobs.insert(id, job);
            inner.active.push(id);
            id
        };
        self.progress_job(sim, job_id);
        job_id
    }

    /// Advances stage states for one job: marks completed stages, queues
    /// newly-runnable tasks, finishes the job when the result stage is
    /// done. Then dispatches.
    fn progress_job(&self, sim: &mut Sim, job_id: JobId) {
        let sh = &*self.shared;
        let mut finished: Option<(JobDoneCallback, JobOutput)> = None;
        {
            let mut inner = sh.inner.borrow_mut();
            let inner = &mut *inner;
            // Absent: retired already.
            let Some(job) = inner.jobs.get_mut(&job_id) else {
                return;
            };
            if job.done {
                // A stale attempt of a finished job just ended; it may
                // have been the last thing holding the job's state.
                inner.retire_if_over(job_id, &*sh.store);
                return;
            }
            // Iterate stages in topological (id) order.
            for stage in &job.graph.stages {
                let sidx = stage.id.0 as usize;
                let parents_done = stage
                    .input_shuffles
                    .iter()
                    .all(|d| inner.tracker.is_complete(d.id));

                // Completion checks: counts, not scans.
                let (done, shared) = match &stage.kind {
                    StageKind::ShuffleMap(dep) => {
                        (inner.tracker.registered(dep.id), inner.tracker.is_shared(dep.id))
                    }
                    StageKind::Result => (job.result_filled, false),
                };
                let st = &mut job.status[sidx];
                if done == stage.num_tasks {
                    if st.state != Some(StageState::Done) {
                        st.state = Some(StageState::Done);
                        let completed = E::StageCompleted { job: job_id, stage: stage.id };
                        sh.tele.emit(sim.now(), completed);
                    }
                    continue;
                }
                if !parents_done {
                    continue;
                }
                // Runnable: queue whatever is missing and not in flight.
                let tracker = &inner.tracker;
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
                            inner.pending.push_back((job_id, stage.id, part));
                            queued_now += 1;
                        }
                    });
                }
                if queued_now > 0 {
                    let (job, stage, tasks) = (job_id, stage.id, queued_now);
                    sh.tele.emit(sim.now(), E::StageSubmitted { job, stage, tasks });
                }
                st.state = Some(StageState::Running);
            }

            // Job completion.
            if job.result_filled == job.result_parts.len() {
                job.done = true;
                sh.tele.emit(sim.now(), E::JobCompleted { job: job_id });
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
                    metrics: sh.tele.job_metrics(job_id).expect("submitted above"),
                };
                if let Some(cb) = job.on_done.take() {
                    finished = Some((cb, output));
                }
                let at = inner
                    .active
                    .binary_search(&job_id)
                    .expect("a running job is active");
                inner.active.remove(at);
                inner.retire_if_over(job_id, &*sh.store);
            }
        }
        if let Some((cb, output)) = finished {
            cb(sim, output);
        }
        self.dispatch(sim);
    }

    fn progress_all_jobs(&self, sim: &mut Sim) {
        // A snapshot: progressing one job can finish it, and its callback
        // can submit more (those progress themselves on submission).
        let ids = self.shared.inner.borrow().active.clone();
        for id in ids {
            self.progress_job(sim, id);
        }
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

    // ----- dispatch and the task state machine ---------------------------

    /// Pairs pending tasks with idle executors.
    fn dispatch(&self, sim: &mut Sim) {
        let sh = &*self.shared;
        loop {
            let (attempt, start_at) = {
                let mut inner = sh.inner.borrow_mut();
                let inner = &mut *inner;
                // The common call finds nothing queued; look there before
                // scanning the executor table.
                if inner.pending.is_empty() {
                    break;
                }
                // The first idle, live, non-draining executor in name order
                // (see `execs_by_name`).
                let Some(pos) = inner.idle.first() else { break };
                let slot = inner.execs_by_name[pos] as usize;
                debug_assert_eq!(
                    inner
                        .execs_by_name
                        .iter()
                        .position(|&s| inner.execs[s as usize].takes_tasks()),
                    Some(pos),
                    "idle set out of step with the executor table"
                );
                let exec_id = inner.execs[slot].desc.id;
                // Pop the next dispatchable task.
                let Some((job_id, stage_id, part)) = inner.pending.pop_front() else {
                    break;
                };
                // An entry can outlive its job (queued twice, then the
                // job ran to the end and was retired).
                let Some(job) = inner.jobs.get_mut(&job_id) else {
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
                    .all(|d| inner.tracker.is_complete(d.id))
                {
                    // Dropped, not re-queued: if that was a finished job's
                    // last queued task, nothing holds the job any more.
                    inner.retire_if_over(job_id, &*sh.store);
                    continue;
                }
                // Re-validate the executor chosen at the top of this
                // iteration before binding the task to it. Nothing can
                // intervene today (selection and binding share one borrow
                // of the scheduler state), but a kill arriving in between
                // must requeue the task, not panic the driver — this was
                // an `.expect("dispatch picked a live executor")`.
                if !inner.execs[slot].takes_tasks() {
                    st.queued.insert(part);
                    inner.pending.push_front((job_id, stage_id, part));
                    continue;
                }
                let kind = inner.execs[slot].desc.kind;
                st.running.insert(part);
                job.attempts += 1;
                let attempt = AttemptId(inner.next_attempt);
                inner.next_attempt += 1;
                let task = TaskRef {
                    job: job_id,
                    stage: stage_id,
                    part,
                    exec: exec_id,
                };
                let span = sh
                    .tele
                    .emit_span(sim.now(), SpanId::NONE, E::TaskStarted { task, kind });
                // Build the fetch plan: (shuffle, map index, writer, size).
                // Blocks are identified lazily at fetch time — the plan
                // carries only `Copy` handles, no per-block strings.
                let mut plan = Vec::new();
                for dep in &stage.input_shuffles {
                    inner
                        .tracker
                        .inputs_for_reduce_into(dep.id, part, &mut plan);
                }
                inner.update_exec(slot, |meta| meta.running = Some(attempt));
                inner.attempts.insert(
                    attempt,
                    Attempt {
                        info: AttemptInfo {
                            task,
                            span,
                            started_at: sim.now(),
                            straggler_flagged: false,
                        },
                        plan,
                        io: None,
                    },
                );
                // The driver is a single-threaded dispatcher: task
                // launches serialize through it.
                let start_at = inner.driver_free_at.max(sim.now()) + DRIVER_DISPATCH;
                inner.driver_free_at = start_at;
                (attempt, start_at)
            };
            sim.notify_at(start_at, self.shared.clone(), attempt.0);
        }
    }

    /// Starts a task's shuffle fetch, or — with nothing to fetch — its
    /// computation.
    fn begin_fetch(&self, sim: &mut Sim, attempt: AttemptId) {
        let fetch = {
            let inner = self.shared.inner.borrow();
            let Some(a) = inner.attempts.get(&attempt) else {
                return;
            };
            if a.plan.is_empty() {
                let stage = inner.pinned_job(a.info.task.job).graph.stage(a.info.task.stage);
                Err(task_context(&inner.cfg.work, stage, &[], Vec::new()))
            } else {
                Ok((a.plan.iter().map(|(_, _, _, size)| size).sum(), a.plan.len()))
            }
        };
        match fetch {
            Ok((bytes, blocks)) => {
                let dir = Direction::Fetch(vec![Bytes::new(); blocks]);
                self.open_transfer(sim, attempt, bytes, blocks, dir);
            }
            Err(no_inputs) => self.run_compute(sim, attempt, no_inputs),
        }
    }

    /// Opens the attempt's shuffle phase: reports it started, then issues
    /// the first [`MAX_FETCH_CONCURRENCY`] of its `unsent` requests.
    fn open_transfer(
        &self,
        sim: &mut Sim,
        attempt: AttemptId,
        bytes: u64,
        unsent: usize,
        dir: Direction,
    ) {
        let sh = &*self.shared;
        {
            let mut inner = sh.inner.borrow_mut();
            let inner = &mut *inner;
            let Some(task) = inner.attempts.get(&attempt).map(|a| a.info.task) else {
                return;
            };
            let meta = inner.exec(task.exec).expect("executor of live attempt");
            let phase = match dir {
                Direction::Fetch(_) => ShufflePhase::Fetch,
                Direction::Write { .. } => ShufflePhase::Write,
            };
            let started = E::ShufflePhaseStarted { task, kind: meta.desc.kind, phase, bytes };
            let span = sh.tele.emit_span(sim.now(), SpanId::NONE, started);
            let client = meta.desc.client_loc();
            let transfer = Transfer {
                next: 0,
                unsent,
                outstanding: 0,
                bytes,
                client,
                span,
                started: sim.now(),
                dir,
            };
            if let Some(a) = inner.attempts.get_mut(&attempt) {
                a.io = Some(transfer);
            }
        }
        (0..MAX_FETCH_CONCURRENCY.min(unsent)).for_each(|_| self.issue_next(sim, attempt));
    }

    /// Hands the store the attempt's next request, if any is left: a get of
    /// the next plan entry, or a put of the next non-empty bucket. A no-op
    /// for a dead attempt: a request can fail synchronously and take the
    /// attempt down while its window is still being opened.
    fn issue_next(&self, sim: &mut Sim, attempt: AttemptId) {
        let sh = &*self.shared;
        let (client, block, put, token) = {
            let mut inner = sh.inner.borrow_mut();
            let inner = &mut *inner;
            let Some(a) = inner.attempts.get_mut(&attempt) else {
                return;
            };
            let Some(t) = a.io.as_mut().filter(|t| t.unsent > 0) else {
                return;
            };
            let TaskRef { exec, part, .. } = a.info.task;
            let (block, put) = match &t.dir {
                Direction::Fetch(_) => {
                    let (shuffle, map, writer, _) = a.plan[t.next];
                    (BlockId::shuffle(writer, shuffle.0, map as u64, part as u64), None)
                }
                Direction::Write { shuffle, buckets, .. } => {
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
            let len = put.as_ref().map_or(0, |bytes| bytes.len() as u64);
            let request = BlockRequest { attempt, at, span: t.span, issued: sim.now(), len };
            (t.client, block, put, u64::from(inner.requests.insert(request)))
        };
        let to = self.shared.clone();
        match put {
            Some(bytes) => sh.store.put_to(sim, client, block, bytes, to, token),
            None => sh.store.get_to(sim, client, block, to, token),
        }
    }

    /// The store answered the request parked under `token`: a get with
    /// `Some` block, a put with `None`. A live attempt's window issues its
    /// next request, or hands on what it moved once the last one is in, or
    /// fails its attempt; a dead attempt's landing closes the phase's span.
    fn landed(
        &self,
        sim: &mut Sim,
        token: u64,
        op: StoreOp,
        result: Result<Option<Bytes>, StoreError>,
    ) {
        enum Next {
            Issue,
            Compute(TaskContext),
            Register(ShuffleId, Vec<ShuffleBucket>, f64),
            FetchFailed(ShuffleId, usize, StoreError),
            WriteFailed(StoreError),
        }
        let sh = &*self.shared;
        let now = sim.now();
        let slot = u32::try_from(token).expect("a store token is a request slot");
        let taken = sh.inner.borrow_mut().requests.take(slot);
        let BlockRequest { attempt, at, span, issued, len } =
            taken.expect("the store answers a parked request once");
        let moved = result.as_ref().ok().map(|b| b.as_ref().map_or(len, |b| b.len() as u64));
        sh.tele.record_store_op(op, now.saturating_since(issued), moved);
        let phase = match op {
            StoreOp::Get => ShufflePhase::Fetch,
            StoreOp::Put => ShufflePhase::Write,
        };
        let next = {
            let mut inner = sh.inner.borrow_mut();
            let inner = &mut *inner;
            let Some(a) = inner.attempts.get_mut(&attempt) else {
                sh.tele.emit_span(now, span, E::ShufflePhaseAborted { phase });
                return;
            };
            let t = a.io.as_mut().expect("a request lands in its attempt's open window");
            match result {
                Err(err) => {
                    sh.tele.emit_span(now, span, E::ShufflePhaseAborted { phase });
                    match t.dir {
                        Direction::Fetch(_) => {
                            let (shuffle, map, ..) = a.plan[at];
                            Next::FetchFailed(shuffle, map, err)
                        }
                        Direction::Write { .. } => Next::WriteFailed(err),
                    }
                }
                Ok(block) => {
                    t.outstanding -= 1;
                    if let (Direction::Fetch(blocks), Some(block)) = (&mut t.dir, block) {
                        blocks[at] = block;
                    }
                    match a.io.take_if(|t| t.unsent == 0 && t.outstanding == 0) {
                        None => Next::Issue,
                        Some(t) => {
                            let (task, bytes) = (a.info.task, t.bytes);
                            let secs = now.saturating_since(t.started).as_secs_f64();
                            let finished = E::ShufflePhaseFinished { task, phase, bytes, secs };
                            sh.tele.emit_span(now, span, finished);
                            match t.dir {
                                Direction::Fetch(blocks) => {
                                    let plan = std::mem::take(&mut a.plan);
                                    let stage = inner.pinned_job(task.job).graph.stage(task.stage);
                                    let work = &inner.cfg.work;
                                    Next::Compute(task_context(work, stage, &plan, blocks))
                                }
                                Direction::Write { shuffle, buckets, cpu } => {
                                    Next::Register(shuffle, buckets, cpu)
                                }
                            }
                        }
                    }
                }
            }
        };
        match next {
            Next::Issue => self.issue_next(sim, attempt),
            Next::Compute(ctx) => self.run_compute(sim, attempt, ctx),
            Next::Register(shuffle, buckets, cpu) => {
                self.map_outputs_done(sim, attempt, shuffle, &buckets, cpu)
            }
            Next::FetchFailed(shuffle, map, err) => {
                self.fetch_failed(sim, attempt, shuffle, map, err)
            }
            Next::WriteFailed(err) => self.task_write_failed(sim, attempt, err),
        }
    }

    /// Launches the task's real computation and schedules the *join*
    /// event where the simulation picks the result back up.
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
    fn run_compute(&self, sim: &mut Sim, attempt: AttemptId, ctx: TaskContext) {
        let sh = &*self.shared;
        let mut inner = sh.inner.borrow_mut();
        let inner = &mut *inner;
        let Some(a) = inner.attempts.get(&attempt) else {
            return;
        };
        let task = a.info.task;
        let meta = inner.exec(task.exec).expect("executor of live attempt");
        let (speed, mem_bytes) = (meta.desc.core_speed * meta.speed_factor, meta.desc.memory_bytes());
        let stage = inner.pinned_job(task.job).graph.stage(task.stage);
        let (terminal, kind, part) = (Arc::clone(&stage.terminal), stage.kind.clone(), task.part);
        let deser_secs = ctx.cpu_secs();
        let launched_at = sim.now();
        let join_at = launched_at
            + inner.cfg.work.task_overhead
            + SimDuration::from_secs_f64(deser_secs / speed);
        // One event either way: a pooled body is already running on a
        // worker thread and is collected at the join; an inline body is
        // parked as its ingredients and runs when the join fires.
        let body = match &sh.pool {
            Some(pool) => Body::Pooled(pool.submit(move || run_body(&*terminal, &kind, part, ctx))),
            None => Body::Inline { terminal, kind, part, ctx },
        };
        let slot = inner.computes.insert(Compute::Launched {
            attempt,
            launched_at,
            speed,
            mem_bytes,
            body,
        });
        sim.notify_at(join_at, self.shared.clone(), COMPUTE | u64::from(slot));
    }

    /// The join event: collects the task body's result — running it now,
    /// if it was parked inline — and schedules the completion at the
    /// instant the duration model dictates. Runs even when the attempt
    /// died mid-flight (`after_compute` discards dead attempts) so the
    /// event structure never depends on fault timing.
    fn join_compute(
        &self,
        sim: &mut Sim,
        attempt: AttemptId,
        launched_at: SimTime,
        speed: f64,
        mem_bytes: u64,
        body: Body,
    ) {
        let sh = &*self.shared;
        // The body runs with the scheduler's state released.
        let (payload, ctx) = match body {
            Body::Pooled(running) => running.join(),
            Body::Inline { terminal, kind, part, ctx } => run_body(&*terminal, &kind, part, ctx),
        };
        // Every body that ran reports here, whether or not its attempt
        // is still alive, in join order: the order of `workers = 1`.
        sh.tele.record_body(&ctx);
        let (cpu, working_set) = (ctx.cpu_secs(), ctx.working_set_bytes());
        let mut inner = sh.inner.borrow_mut();
        let work = &inner.cfg.work;
        let pressure = working_set as f64 / mem_bytes as f64;
        let gc = work.gc_factor(pressure);
        let dur = work.task_overhead + SimDuration::from_secs_f64(cpu / speed * gc);
        let slot = inner.computes.insert(Compute::Joined(attempt, payload, cpu));
        // `cpu >= deser_bound` (charged at context construction) and
        // `gc >= 1`, so `launched_at + dur >= now`: never in the past.
        sim.notify_at(launched_at + dur, self.shared.clone(), COMPUTE | u64::from(slot));
    }

    /// The task's modeled CPU time has elapsed; persist outputs.
    fn after_compute(&self, sim: &mut Sim, attempt: AttemptId, payload: ComputePayload, cpu: f64) {
        match payload {
            ComputePayload::ResultOut(data) => {
                {
                    let mut inner = self.shared.inner.borrow_mut();
                    let Some(a) = inner.attempts.get(&attempt) else {
                        return; // executor died while "computing"
                    };
                    let info = a.info;
                    let job = inner.pinned_job_mut(info.task.job);
                    // A finished job has handed its slots on: a late
                    // attempt's result has nowhere to go.
                    if let Some(slot) = job.result_parts.get_mut(info.task.part) {
                        job.result_filled += usize::from(slot.replace(data).is_none());
                    }
                    let (task, cpu_secs) = (info.task, cpu);
                    self.shared.tele.emit(sim.now(), E::TaskComputed { task, cpu_secs });
                }
                self.task_done(sim, attempt, cpu);
            }
            ComputePayload::MapOut(buckets) => self.write_map_outputs(sim, attempt, buckets, cpu),
        }
    }

    /// Reports a map task computed, then writes its non-empty buckets —
    /// or, with every bucket empty, registers its output at once.
    fn write_map_outputs(
        &self,
        sim: &mut Sim,
        attempt: AttemptId,
        buckets: Vec<ShuffleBucket>,
        cpu: f64,
    ) {
        let sh = &*self.shared;
        let shuffle = {
            let inner = sh.inner.borrow();
            let Some(a) = inner.attempts.get(&attempt) else {
                return; // executor died while "computing"
            };
            let task = a.info.task;
            let stage = inner.pinned_job(task.job).graph.stage(task.stage);
            let StageKind::ShuffleMap(dep) = &stage.kind else {
                unreachable!("map payload implies map stage");
            };
            sh.tele.emit(sim.now(), E::TaskComputed { task, cpu_secs: cpu });
            dep.id
        };
        match buckets.iter().filter(|b| !b.bytes.is_empty()).count() {
            0 => self.map_outputs_done(sim, attempt, shuffle, &buckets, cpu),
            unsent => {
                let bytes = buckets.iter().map(|b| b.bytes.len() as u64).sum();
                let dir = Direction::Write { shuffle, buckets, cpu };
                self.open_transfer(sim, attempt, bytes, unsent, dir);
            }
        }
    }

    /// Registers a map task's written buckets with the tracker, then
    /// completes the task.
    fn map_outputs_done(
        &self,
        sim: &mut Sim,
        attempt: AttemptId,
        sid: ShuffleId,
        buckets: &[ShuffleBucket],
        cpu: f64,
    ) {
        {
            let mut inner = self.shared.inner.borrow_mut();
            let Some(a) = inner.attempts.get(&attempt) else {
                return;
            };
            let TaskRef { part, exec, .. } = a.info.task;
            let sizes = buckets.iter().map(|b| b.bytes.len() as u64);
            inner.tracker.register_output(sid, part, exec, sizes);
        }
        self.task_done(sim, attempt, cpu);
    }

    /// Common completion path: free the executor, update metrics, progress.
    fn task_done(&self, sim: &mut Sim, attempt: AttemptId, cpu: f64) {
        let sh = &*self.shared;
        let (job_id, decommission_target) = {
            let mut inner = sh.inner.borrow_mut();
            let inner = &mut *inner;
            let Some(Attempt { info, .. }) = inner.take_attempt(attempt) else {
                return;
            };
            let slot = inner
                .exec_slot(info.task.exec)
                .expect("executor of live attempt");
            let (kind, drain) = inner.update_exec(slot, |meta| {
                meta.running = None;
                meta.idle_since = sim.now();
                meta.tasks_done += 1;
                (meta.desc.kind, meta.draining && meta.alive)
            });
            let run_secs = sim.now().saturating_since(info.started_at).as_secs_f64();
            let (task, cpu_secs) = (info.task, cpu);
            let finished = E::TaskFinished { task, kind, cpu_secs, run_secs };
            sh.tele.emit_span(sim.now(), info.span, finished);
            inner
                .pinned_job_mut(info.task.job)
                .status[info.task.stage.0 as usize]
                .running
                .remove(info.task.part);
            if sh.tele.obs().is_enabled() {
                self.straggler_watch(sim.now(), inner, &info, run_secs);
            }
            (info.task.job, drain.then_some(info.task.exec))
        };
        if let Some(exec) = decommission_target {
            self.decommission(sim, exec);
        }
        self.progress_job(sim, job_id);
    }

    /// The straggler watch: fold the just-completed attempt's run time
    /// into its stage's live completion digest, then compare every
    /// still-running attempt of the same stage against
    /// [`STRAGGLER_MULTIPLE`] × the digest's [`STRAGGLER_QUANTILE`].
    /// Detection only — a suspect is reported as one
    /// `StragglerSuspected` event, never re-launched speculatively. Runs only while observability is enabled, so the
    /// disabled path stays one branch.
    fn straggler_watch(&self, now: SimTime, inner: &mut Inner, done: &AttemptInfo, run_secs: f64) {
        let threshold = {
            let digest = inner
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
        for Attempt { info, .. } in inner.attempts.values_mut() {
            let same_stage = (info.task.job, info.task.stage) == (done.task.job, done.task.stage);
            if !same_stage || info.straggler_flagged {
                continue;
            }
            let elapsed = now.saturating_since(info.started_at).as_secs_f64();
            if elapsed > threshold {
                info.straggler_flagged = true;
                let suspected = E::StragglerSuspected {
                    task: info.task,
                    elapsed_secs: elapsed,
                    threshold_secs: threshold,
                };
                self.shared.tele.emit_span(now, info.span, suspected);
            }
        }
    }

    /// An attempt (already out of the table) ended without its output:
    /// free its executor (a no-op on a dead one), report the failure and
    /// put the task back at the head of the queue.
    fn attempt_failed(
        &self,
        now: SimTime,
        inner: &mut Inner,
        info: &AttemptInfo,
        why: FailureKind,
        reason: String,
    ) {
        let task = info.task;
        if let Some(slot) = inner.exec_slot(task.exec) {
            inner.update_exec(slot, |meta| meta.running = None);
        }
        self.shared
            .tele
            .emit_span(now, info.span, E::TaskFailed { task, why, reason });
        inner.requeue(info);
    }

    /// A shuffle fetch failed: requeue the task, invalidate the lost map
    /// output so its stage is resubmitted.
    fn fetch_failed(
        &self,
        sim: &mut Sim,
        attempt: AttemptId,
        shuffle: ShuffleId,
        map: usize,
        err: StoreError,
    ) {
        let sh = &*self.shared;
        {
            let mut inner = sh.inner.borrow_mut();
            let inner = &mut *inner;
            let Some(Attempt { info, .. }) = inner.take_attempt(attempt) else {
                return;
            };
            let task = info.task;
            sh.tele.emit(sim.now(), E::FetchFailed { task, shuffle });
            inner.tracker.unregister_output(shuffle, map);
            self.attempt_failed(sim.now(), inner, &info, FailureKind::FetchFailed, err.to_string());
        }
        self.rollback_incomplete_stages(sim);
        self.progress_all_jobs(sim);
    }

    /// A map-output write failed (e.g. store capacity): requeue the task.
    fn task_write_failed(&self, sim: &mut Sim, attempt: AttemptId, err: StoreError) {
        {
            let mut inner = self.shared.inner.borrow_mut();
            let inner = &mut *inner;
            let Some(Attempt { info, .. }) = inner.take_attempt(attempt) else {
                return;
            };
            self.attempt_failed(sim.now(), inner, &info, FailureKind::WriteFailed, err.to_string());
        }
        self.dispatch(sim);
    }
}

#[cfg(test)]
mod tests {
    use std::rc::Rc;

    use splitserve_des::{Fabric, Sim};
    use splitserve_storage::LocalDiskStore;

    use super::{BitSet, Engine, JobId, LiveState, StageId};
    use crate::{Dataset, EngineConfig, ExecutorDesc};

    /// Submits one small aggregation to `engine`.
    fn submit(engine: &Engine, sim: &mut Sim) -> JobId {
        let plan = Dataset::parallelize((0..40u64).map(|i| (i % 5, i)).collect(), 2)
            .reduce_by_key(2, |a, b| a + b);
        engine.submit_job(sim, plan.node(), |_, out| assert_eq!(out.partitions.len(), 2))
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
        engine.shared.inner.borrow_mut().pending.push_back((JobId(1), StageId(0), 0));
        engine.dispatch(&mut sim);
        // What a stale attempt's landing does: progress its job.
        engine.progress_job(&mut sim, JobId(1));
        sim.run();
        assert_eq!(engine.pending_tasks(), 0);
        assert_eq!(engine.live_state(), idle);
        assert_eq!(engine.event_log().len(), events, "no task ran, no stage moved");

        // A running job is not among the completed ones, and ids count on
        // past the retired jobs.
        assert_eq!(submit(&engine, &mut sim), JobId(3));
        let done = |engine: &Engine| -> Vec<JobId> {
            engine.completed_job_metrics().iter().map(|m| m.job).collect()
        };
        assert_eq!(done(&engine), [JobId(0), JobId(1), JobId(2)]);
        sim.run();
        assert_eq!(done(&engine), [JobId(0), JobId(1), JobId(2), JobId(3)]);
        assert_eq!(engine.job_metrics(JobId(0)).map(|m| m.job), Some(JobId(0)));
        assert_eq!(engine.live_state(), idle);
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

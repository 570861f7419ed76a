//! One emit per occurrence: [`Telemetry::emit`] is the only place an
//! engine event turns into telemetry. It matches on the event once and
//! derives every view in a fixed order — the per-job [`JobMetrics`] fold
//! (always on: the ledger's exact counts come from it), the registry
//! series, the executor-lane spans of the Chrome trace, the rollups, and
//! finally the event log — so the views agree by construction.
//!
//! Two recorder calls feed the registry beside it without a logged event:
//! [`Telemetry::record_body`] for what a task body measured, and
//! [`Telemetry::record_store_op`] for each store request as it lands — so
//! the `store_*` series count every request the engine makes, under
//! whatever decorators the store wears.
//!
//! Registry and rollup series are resolved once at construction into
//! handles; span names and annotations are only formatted while the span
//! recorder is on, and are moved into it. A run without observability
//! pays one branch per view.

use std::cell::RefCell;
use std::sync::Arc;

use splitserve_des::{SimDuration, SimTime};
use splitserve_obs::{CounterHandle, HistogramHandle, Obs, QuantileHandle, RollupHandle, SpanId};

use crate::context::TaskContext;
use crate::events::{EngineEventKind, EventLog, FailureKind, JobId, ShufflePhase};
use crate::executor::ExecutorKind;
use crate::metrics::JobMetrics;

/// Histogram bounds for `shuffle_combine_seconds` (virtual CPU seconds
/// of one map task's combine phase — much finer than request latencies).
const COMBINE_BUCKETS: &[f64] = &[1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0];

/// Buckets for whole-job execution times (seconds).
const JOB_EXECUTION_BUCKETS: &[f64] = &[1.0, 5.0, 15.0, 30.0, 60.0, 120.0, 300.0, 600.0, 1800.0];

const KINDS: [ExecutorKind; 2] = [ExecutorKind::Vm, ExecutorKind::Lambda];
const FAILURES: [FailureKind; 3] = [
    FailureKind::ExecutorLost,
    FailureKind::FetchFailed,
    FailureKind::WriteFailed,
];
const PHASES: [ShufflePhase; 2] = [ShufflePhase::Fetch, ShufflePhase::Write];

/// A store request, as the `op` label of the `store_*` series names it.
#[derive(Debug, Clone, Copy)]
pub(crate) enum StoreOp {
    Put,
    Get,
}

const STORE_OPS: [&str; 2] = ["put", "get"];

/// Every registry and rollup series the scheduler's steady-state events
/// feed, resolved once. Arrays are indexed by the discriminant of
/// [`ExecutorKind`], [`FailureKind`], [`ShufflePhase`] or [`StoreOp`]
/// (`as usize`).
#[derive(Debug, Default)]
struct Handles {
    executors_registered: [CounterHandle; 2],
    tasks_completed: [CounterHandle; 2],
    task_cpu_seconds: [HistogramHandle; 2],
    task_run_seconds: [QuantileHandle; 2],
    tasks_failed: [CounterHandle; 3],
    stragglers_suspected: CounterHandle,
    shuffle_bytes_read: CounterHandle,
    shuffle_bytes_written: CounterHandle,
    shuffle_phase_seconds_hist: [HistogramHandle; 2],
    shuffle_phase_seconds_quant: [QuantileHandle; 2],
    stages_completed: CounterHandle,
    stage_rollbacks: CounterHandle,
    stage_rollback_missing: CounterHandle,
    jobs_completed: CounterHandle,
    job_execution_seconds_hist: HistogramHandle,
    job_execution_seconds_quant: QuantileHandle,
    shuffle_encode_bytes: CounterHandle,
    shuffle_combine_seconds_hist: HistogramHandle,
    shuffle_combine_seconds_quant: QuantileHandle,
    task_run_rollup: [RollupHandle; 2],
    job_execution_rollup: RollupHandle,
    store_op_seconds_hist: [HistogramHandle; 2],
    store_op_seconds_quant: [QuantileHandle; 2],
    /// `[op][ok, err]`.
    store_ops: [[CounterHandle; 2]; 2],
    /// Bytes written by puts, read by gets.
    store_bytes: [CounterHandle; 2],
    store_executor_losses: CounterHandle,
}

impl Handles {
    /// `store` labels the `store_*` series: the engine's store's kind.
    fn resolve(obs: &Obs, store: &str) -> Self {
        let m = &obs.metrics;
        let per_kind = |name: &str| KINDS.map(|k| m.counter_handle(name, &[("kind", k.label())]));
        let per_op = |op| [("store", store), ("op", op)];
        Handles {
            executors_registered: per_kind("executors_registered_total"),
            tasks_completed: per_kind("tasks_completed_total"),
            task_cpu_seconds: KINDS
                .map(|k| m.histogram_handle("task_cpu_seconds", &[("kind", k.label())])),
            task_run_seconds: KINDS
                .map(|k| m.quantile_handle("task_run_seconds", &[("kind", k.label())])),
            tasks_failed: FAILURES
                .map(|why| m.counter_handle("tasks_failed_total", &[("reason", why.label())])),
            stragglers_suspected: m.counter_handle("stragglers_suspected_total", &[]),
            shuffle_bytes_read: m.counter_handle("shuffle_bytes_read_total", &[]),
            shuffle_bytes_written: m.counter_handle("shuffle_bytes_written_total", &[]),
            shuffle_phase_seconds_hist: PHASES
                .map(|p| m.histogram_handle("shuffle_phase_seconds", &[("phase", p.label())])),
            shuffle_phase_seconds_quant: PHASES
                .map(|p| m.quantile_handle("shuffle_phase_seconds", &[("phase", p.label())])),
            stages_completed: m.counter_handle("stages_completed_total", &[]),
            stage_rollbacks: m.counter_handle("stage_rollbacks_total", &[]),
            stage_rollback_missing: m.counter_handle("stage_rollback_missing_partitions_total", &[]),
            jobs_completed: m.counter_handle("jobs_completed_total", &[]),
            job_execution_seconds_hist: m.histogram_handle_with(
                "job_execution_seconds",
                &[],
                JOB_EXECUTION_BUCKETS,
            ),
            job_execution_seconds_quant: m.quantile_handle("job_execution_seconds", &[]),
            shuffle_encode_bytes: m.counter_handle("shuffle_encode_bytes_total", &[]),
            shuffle_combine_seconds_hist: m.histogram_handle_with(
                "shuffle_combine_seconds",
                &[],
                COMBINE_BUCKETS,
            ),
            shuffle_combine_seconds_quant: m.quantile_handle("shuffle_combine_seconds", &[]),
            task_run_rollup: KINDS
                .map(|k| obs.rollups.handle("task_run_seconds", &[("kind", k.label())])),
            job_execution_rollup: obs.rollups.handle("job_execution_seconds", &[]),
            store_op_seconds_hist: STORE_OPS
                .map(|op| m.histogram_handle("store_op_seconds", &per_op(op))),
            store_op_seconds_quant: STORE_OPS
                .map(|op| m.quantile_handle("store_op_seconds", &per_op(op))),
            store_ops: STORE_OPS.map(|op| {
                ["ok", "err"].map(|outcome| {
                    let labels = [("store", store), ("op", op), ("outcome", outcome)];
                    m.counter_handle("store_ops_total", &labels)
                })
            }),
            store_bytes: ["store_bytes_written_total", "store_bytes_read_total"]
                .map(|name| m.counter_handle(name, &[("store", store)])),
            store_executor_losses: m
                .counter_handle("store_executor_losses_total", &[("store", store)]),
        }
    }
}

/// The views of the engine's event stream.
#[derive(Debug)]
pub(crate) struct Telemetry {
    obs: Obs,
    h: Handles,
    log: EventLog,
    /// One block per submitted job, indexed by `JobId.0`. Uniquely owned
    /// while nobody asked for it; once a caller holds a block it keeps the
    /// snapshot it was given and the table's copy moves on.
    jobs: RefCell<Vec<Arc<JobMetrics>>>,
}

impl Telemetry {
    pub(crate) fn new(obs: Obs, log: EventLog, store: &str) -> Self {
        Telemetry {
            h: Handles::resolve(&obs, store),
            obs,
            log,
            jobs: RefCell::default(),
        }
    }

    pub(crate) fn obs(&self) -> &Obs {
        &self.obs
    }

    pub(crate) fn log(&self) -> &EventLog {
        &self.log
    }

    /// A job's metrics block, shared rather than cloned.
    pub(crate) fn job_metrics(&self, job: JobId) -> Option<Arc<JobMetrics>> {
        self.jobs.borrow().get(job.0 as usize).cloned()
    }

    fn fold(&self, job: JobId, f: impl FnOnce(&mut JobMetrics)) {
        f(Arc::make_mut(&mut self.jobs.borrow_mut()[job.0 as usize]))
    }

    /// Records what a finished task body measured — its encoded shuffle
    /// bytes and the CPU seconds of its map-side combine — read off the
    /// body's context at the join, on the simulation thread, so the series
    /// fill in join order at every worker count. A recorder call, not a
    /// logged event: it feeds the registry only.
    pub(crate) fn record_body(&self, body: &TaskContext) {
        if body.bytes_out() > 0 {
            self.h.shuffle_encode_bytes.add(body.bytes_out());
        }
        if let Some(secs) = body.combine_secs() {
            self.h.shuffle_combine_seconds_hist.observe(secs);
            self.h.shuffle_combine_seconds_quant.record(secs);
        }
    }

    /// Records a store request as it lands: its latency from request to
    /// answer, and its outcome — `Some(bytes moved)` for an `Ok`, `None`
    /// for any `Err`, which moves no bytes. A recorder call like
    /// [`Telemetry::record_body`].
    pub(crate) fn record_store_op(&self, op: StoreOp, latency: SimDuration, moved: Option<u64>) {
        let (h, i) = (&self.h, op as usize);
        let secs = latency.as_secs_f64();
        h.store_op_seconds_hist[i].observe(secs);
        h.store_op_seconds_quant[i].record(secs);
        match moved {
            Some(bytes) => {
                h.store_ops[i][0].inc();
                h.store_bytes[i].add(bytes);
            }
            None => h.store_ops[i][1].inc(),
        }
    }

    /// Records that the store was told an executor is gone.
    pub(crate) fn record_store_executor_loss(&self) {
        self.h.store_executor_losses.inc();
    }

    /// Reports an occurrence that neither continues nor opens a span.
    pub(crate) fn emit(&self, at: SimTime, event: EngineEventKind) {
        self.emit_span(at, SpanId::NONE, event);
    }

    /// Reports one occurrence to every view. `span` is the correlation
    /// token of the span the event annotates or closes (the attempt keeps
    /// it, so a block landing after its attempt died still finds its
    /// span); the return value is the token of the span the event opens.
    /// Both are [`SpanId::NONE`] for events without one.
    pub(crate) fn emit_span(&self, at: SimTime, span: SpanId, event: EngineEventKind) -> SpanId {
        use EngineEventKind as E;
        let (h, spans) = (&self.h, &self.obs.spans);
        let mut opened = SpanId::NONE;
        match &event {
            E::ExecutorRegistered { exec, kind } => {
                h.executors_registered[*kind as usize].inc();
                spans.instant(at, kind.label(), exec.as_str(), "registered");
            }
            E::ExecutorDraining { .. }
            | E::ExecutorDecommissioned { .. }
            | E::ExecutorLost { .. }
            | E::StageSubmitted { .. }
            | E::FetchFailed { .. } => {}
            E::JobSubmitted { job, .. } => {
                let mut jobs = self.jobs.borrow_mut();
                debug_assert_eq!(job.0 as usize, jobs.len(), "job ids are dense");
                jobs.push(Arc::new(JobMetrics::start(*job, at)));
            }
            E::JobCompleted { job } => {
                let mut secs = 0.0;
                self.fold(*job, |m| {
                    m.completed_at = at;
                    secs = m.execution_time().as_secs_f64();
                });
                h.jobs_completed.inc();
                h.job_execution_seconds_hist.observe(secs);
                h.job_execution_seconds_quant.record(secs);
                if spans.is_enabled() {
                    spans.instant(at, "driver", "driver", format!("{job} completed"));
                }
                h.job_execution_rollup.record(at, secs);
            }
            E::StageCompleted { job, .. } => {
                self.fold(*job, |m| m.stages_run += 1);
                h.stages_completed.inc();
            }
            E::StageRolledBack { stage, missing, .. } => {
                h.stage_rollbacks.inc();
                h.stage_rollback_missing.add(*missing as u64);
                if spans.is_enabled() {
                    spans.instant(at, "driver", "driver", format!("rollback s{}", stage.0));
                }
            }
            E::TaskStarted { task, kind } => {
                if spans.is_enabled() {
                    let name = format!("task s{}.{}", task.stage.0, task.part);
                    opened = spans.open(at, kind.label(), task.exec.as_str(), name);
                    spans.annotate(opened, "stage", task.stage.0.to_string());
                }
            }
            E::TaskComputed { task, cpu_secs } => {
                self.fold(task.job, |m| m.cpu_secs_total += cpu_secs);
            }
            E::TaskFinished { task, kind, cpu_secs, run_secs } => {
                self.fold(task.job, |m| m.count_task(*kind));
                let k = *kind as usize;
                h.tasks_completed[k].inc();
                h.task_cpu_seconds[k].observe(*cpu_secs);
                h.task_run_seconds[k].record(*run_secs);
                if spans.is_enabled() {
                    spans.annotate(span, "cpu_secs", format!("{cpu_secs:.6}"));
                    spans.close(span, at);
                }
                h.task_run_rollup[k].record(at, *run_secs);
            }
            E::TaskFailed { task, why, .. } => {
                self.fold(task.job, |m| m.tasks_recomputed += 1);
                h.tasks_failed[*why as usize].inc();
                spans.annotate(span, "failed", why.label());
                spans.close(span, at);
            }
            // A map task's bytes count once it sets out to write them, a
            // reduce task's once its fetch completes.
            E::ShufflePhaseStarted { task, kind, phase, bytes } => {
                if *phase == ShufflePhase::Write {
                    self.fold(task.job, |m| m.shuffle_bytes_written += bytes);
                    h.shuffle_bytes_written.add(*bytes);
                }
                let name = ["shuffle fetch", "shuffle write"][*phase as usize];
                opened = spans.open(at, kind.label(), task.exec.as_str(), name);
            }
            E::ShufflePhaseFinished { task, phase, bytes, secs } => {
                if *phase == ShufflePhase::Fetch {
                    self.fold(task.job, |m| m.shuffle_bytes_read += bytes);
                    h.shuffle_bytes_read.add(*bytes);
                }
                // Successful phases only: an aborted one observes nothing.
                h.shuffle_phase_seconds_hist[*phase as usize].observe(*secs);
                h.shuffle_phase_seconds_quant[*phase as usize].record(*secs);
                spans.close(span, at);
            }
            E::ShufflePhaseAborted { .. } => {
                spans.annotate(span, "aborted", "true");
                spans.close(span, at);
            }
            E::StragglerSuspected { elapsed_secs, threshold_secs, .. } => {
                h.stragglers_suspected.inc();
                if spans.is_enabled() {
                    let note =
                        format!("elapsed {elapsed_secs:.6}s > threshold {threshold_secs:.6}s");
                    spans.annotate(span, "straggler", note);
                }
            }
            // The two higher-layer events are rare: their series are
            // resolved on the spot.
            E::FaultInjected { kind } => self
                .obs
                .metrics
                .counter_handle("faults_injected_total", &[("kind", *kind)])
                .inc(),
            &E::Marker(name) => {
                self.obs
                    .metrics
                    .counter_handle("obs_marks_total", &[("name", name)])
                    .inc();
                // A marker's track on the driver lane is its subject, the
                // first word: "segue commences" lands on driver/segue.
                let track = name.split_once(' ').map_or(name, |(subject, _)| subject);
                spans.instant(at, "driver", track, name);
            }
        }
        self.log.push(at, event);
        opened
    }
}

//! Direct exercises of the engine's failure paths, driven by the
//! deterministic fault-injecting store decorator: an injected fetch
//! failure must travel the `FetchFailed` route (unregister the map
//! output, roll the producing stage back, requeue), an injected write
//! failure must requeue the task *without* any rollback, and each path
//! must label its `tasks_failed_total` telemetry with the right reason.

use std::cell::{Cell, OnceCell, RefCell};
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use splitserve_des::{Fabric, Sim, SimDuration, SimTime};
use splitserve_engine::{
    collect_partitions, Dataset, Engine, EngineConfig, EngineEventKind, ExecutorDesc, FailureKind,
    JobOutput, LiveState,
};
use splitserve_obs::Obs;
use splitserve_rt::Bytes;
use splitserve_storage::{
    BlockId, BlockStore, ClientLoc, FaultStore, GetCallback, HdfsSpec, HdfsStore, PutCallback,
    SharedStore, StoreClient, StoreError, StoreFaults, StoreStats,
};

struct Rig {
    sim: Sim,
    engine: Engine,
    obs: Obs,
}

/// An HDFS-backed engine with observability on and the fault decorator
/// interposed; shared shuffle keeps the focus on *injected* failures
/// (nothing is lost organically when an executor dies).
fn faulty_hdfs_rig(executors: usize, faults: StoreFaults) -> Rig {
    faulty_hdfs_rig_with_workers(executors, faults, 1)
}

fn faulty_hdfs_rig_with_workers(executors: usize, faults: StoreFaults, workers: usize) -> Rig {
    hdfs_rig(executors, workers, |store| FaultStore::wrap(store, faults))
}

/// An HDFS-backed engine with observability on, whose store is `wrap`
/// applied to the HDFS store.
fn hdfs_rig(
    executors: usize,
    workers: usize,
    wrap: impl FnOnce(SharedStore) -> SharedStore,
) -> Rig {
    let fabric = Fabric::new();
    let hdfs = HdfsStore::new(HdfsSpec::default(), fabric.clone());
    let nn_nic = fabric.add_link(1e9, "hdfs-nic");
    let nn_disk = fabric.add_link(1e9, "hdfs-disk");
    hdfs.add_datanode(nn_nic, nn_disk);
    let store: SharedStore = Rc::new(hdfs);
    let obs = Obs::enabled();
    let cfg = EngineConfig {
        obs: obs.clone(),
        workers,
        ..EngineConfig::default()
    };
    let engine = Engine::new(cfg, wrap(store));
    let mut sim = Sim::new(7);
    for i in 0..executors {
        let nic = fabric.add_link(1e9, format!("nic-{i}"));
        let disk = fabric.add_link(1e9, format!("disk-{i}"));
        engine.register_executor(
            &mut sim,
            ExecutorDesc::vm(format!("e-vm-{i}"), nic, disk, 8192),
        );
    }
    Rig { sim, engine, obs }
}

fn two_stage_job() -> Dataset<(u64, u64)> {
    Dataset::parallelize((0..3_000u64).map(|i| (i % 30, 1u64)).collect(), 6)
        .reduce_by_key(3, |a, b| a + b)
}

fn run_to_completion(rig: &mut Rig, ds: &Dataset<(u64, u64)>) -> JobOutput {
    let slot: Rc<RefCell<Option<JobOutput>>> = Rc::new(RefCell::new(None));
    let s = Rc::clone(&slot);
    rig.engine
        .submit_job(&mut rig.sim, ds.node(), move |_, out| {
            *s.borrow_mut() = Some(out);
        });
    rig.sim.run();
    let out = slot
        .borrow_mut()
        .take()
        .expect("job must survive the fault");
    let mut rows = collect_partitions::<(u64, u64)>(out.partitions.clone());
    rows.sort();
    assert_eq!(rows.len(), 30);
    assert!(rows.iter().all(|(_, c)| *c == 100), "results stay exact");
    out
}

#[test]
fn injected_fetch_failure_drives_the_fetch_failed_path() {
    let faults = StoreFaults::new();
    // The first 6 puts are the map outputs; the first get belongs to a
    // reduce task and is the one struck.
    faults.fail_nth_get(1);
    let mut rig = faulty_hdfs_rig(3, faults.clone());
    let out = run_to_completion(&mut rig, &two_stage_job());

    assert_eq!(faults.gets_failed(), 1, "exactly one fetch was struck");
    let events = rig.engine.event_log().snapshot();
    assert!(
        events
            .iter()
            .any(|e| matches!(e.kind, EngineEventKind::FetchFailed { .. })),
        "the scheduler must see the fetch failure"
    );
    assert!(
        events.iter().any(|e| matches!(
            &e.kind,
            EngineEventKind::TaskFailed { why: FailureKind::FetchFailed, reason, .. }
                if reason.contains("injected")
        )),
        "the failed task carries the typed kind and the injected-fault reason"
    );
    // A fetch failure pinpoints a lost map output, so even shared-store
    // shuffle must re-run that producer: rollback machinery fires.
    assert!(
        events
            .iter()
            .any(|e| matches!(e.kind, EngineEventKind::StageRolledBack { .. })),
        "the producing stage rolls back to regenerate the block"
    );
    assert!(out.metrics.tasks_recomputed >= 1);
    assert_eq!(
        rig.obs
            .metrics
            .counter_value("tasks_failed_total", &[("reason", "fetch-failed")]),
        1
    );
    assert_eq!(
        rig.obs
            .metrics
            .counter_value("tasks_failed_total", &[("reason", "write-failed")]),
        0
    );
}

#[test]
fn injected_write_failure_requeues_without_rollback() {
    let faults = StoreFaults::new();
    faults.fail_nth_put(2);
    let mut rig = faulty_hdfs_rig(3, faults.clone());
    let out = run_to_completion(&mut rig, &two_stage_job());

    assert_eq!(faults.puts_failed(), 1);
    let events = rig.engine.event_log().snapshot();
    assert!(
        events.iter().any(|e| matches!(
            &e.kind,
            EngineEventKind::TaskFailed { why: FailureKind::WriteFailed, reason, .. }
                if reason.contains("injected")
        )),
        "the failed writer is logged with its typed kind"
    );
    assert!(
        !events
            .iter()
            .any(|e| matches!(e.kind, EngineEventKind::StageRolledBack { .. })),
        "a write failure never invalidates completed outputs"
    );
    assert!(out.metrics.tasks_recomputed >= 1, "the writer re-ran");
    assert_eq!(
        rig.obs
            .metrics
            .counter_value("tasks_failed_total", &[("reason", "write-failed")]),
        1
    );
    assert_eq!(
        rig.obs
            .metrics
            .counter_value("tasks_failed_total", &[("reason", "fetch-failed")]),
        0
    );
}

#[test]
fn executor_loss_failure_is_labelled_executor_lost() {
    let mut rig = faulty_hdfs_rig(3, StoreFaults::new());
    let slot: Rc<RefCell<Option<JobOutput>>> = Rc::new(RefCell::new(None));
    let s = Rc::clone(&slot);
    rig.engine
        .submit_job(&mut rig.sim, two_stage_job().node(), move |_, out| {
            *s.borrow_mut() = Some(out);
        });
    let engine = rig.engine.clone();
    rig.sim.schedule_at(SimTime::from_millis(15), move |sim| {
        engine.kill_executor(sim, &"e-vm-1".into());
    });
    rig.sim.run();
    slot.borrow_mut().take().expect("job survives the kill");
    assert!(
        rig.engine.event_log().snapshot().iter().any(|e| matches!(
            e.kind,
            EngineEventKind::TaskFailed {
                why: FailureKind::ExecutorLost,
                ..
            }
        )),
        "the event carries the typed kind"
    );
    assert!(
        rig.obs
            .metrics
            .counter_value("tasks_failed_total", &[("reason", "executor-lost")])
            >= 1,
        "the in-flight task's failure is labelled executor-lost"
    );
    assert_eq!(
        rig.obs
            .metrics
            .counter_value("tasks_failed_total", &[("reason", "fetch-failed")])
            + rig
                .obs
                .metrics
                .counter_value("tasks_failed_total", &[("reason", "write-failed")]),
        0,
        "no storage fault was injected, so no storage-failure labels"
    );
}

#[test]
fn repeated_injected_fetch_failures_still_converge() {
    let faults = StoreFaults::new();
    faults.fail_nth_get(1);
    faults.fail_nth_get(3);
    let mut rig = faulty_hdfs_rig(3, faults.clone());
    run_to_completion(&mut rig, &two_stage_job());
    assert_eq!(faults.gets_failed(), 2, "both scheduled faults fired");
    // Both faults fired, but a fault can strike an attempt that a prior
    // fault already aborted — then it never reaches the scheduler. At
    // least one must, and recovery still converges to the exact result.
    let seen = rig
        .obs
        .metrics
        .counter_value("tasks_failed_total", &[("reason", "fetch-failed")]);
    assert!((1..=2).contains(&seen), "got {seen} fetch-failed tasks");
}

/// The compute events of an attempt that died mid-flight belong to the
/// run's event structure, not to the attempt: a kill between a task's
/// launch (8 ms) and its join (20 ms) still runs the body, still fires the
/// join and the completion, and leaves nothing parked — inline and pooled.
#[test]
fn a_kill_between_launch_and_join_still_runs_the_body_and_fires_both_compute_events() {
    /// `Sim::executed_events` of this run, recorded on the commit before
    /// the compute events moved off closures.
    const EXECUTED: u64 = 103;
    for workers in [1, 2] {
        let mut rig = faulty_hdfs_rig_with_workers(3, StoreFaults::new(), workers);
        let mapped = Arc::new(AtomicUsize::new(0));
        let m = Arc::clone(&mapped);
        let ds = Dataset::parallelize((0..3_000u64).collect(), 6)
            .map(move |i| {
                m.fetch_add(1, Ordering::Relaxed);
                (i % 30, 1u64)
            })
            .reduce_by_key(3, |a, b| a + b);
        let engine = rig.engine.clone();
        rig.sim.schedule_at(SimTime::from_millis(15), move |sim| {
            assert!(
                engine
                    .executor_info(&"e-vm-1".into())
                    .expect("registered")
                    .busy,
                "the kill must strike a launched task"
            );
            engine.kill_executor(sim, &"e-vm-1".into());
        });
        run_to_completion(&mut rig, &ds);
        assert_eq!(
            mapped.load(Ordering::Relaxed),
            3_000 + 500,
            "workers={workers}: the dead attempt's body ran, and its partition ran again"
        );
        assert_eq!(rig.sim.executed_events(), EXECUTED, "workers={workers}");
        assert_eq!(
            rig.engine.live_state(),
            LiveState {
                jobs: 0,
                // `ds` is still reachable, so its map outputs stay known.
                shuffles: 1,
                attempts: 0,
                parked_computes: 0,
                store_ops: 0
            },
            "workers={workers}"
        );
    }
}

/// A kill that strikes while the dead attempt's block requests are still
/// out (a latency window holds every op back 500 ms) leaves none of them
/// parked: the store answers each one, the landing finds no attempt and
/// closes its span, and the engine ends holding no request.
#[test]
fn a_kill_with_store_requests_in_flight_leaves_none_parked() {
    let faults = StoreFaults::new();
    faults.add_latency_window(
        SimTime::ZERO,
        SimTime::from_secs(10),
        SimDuration::from_millis(500),
    );
    let mut rig = faulty_hdfs_rig(3, faults);
    let out_at_kill = Rc::new(Cell::new(0));
    let (engine, seen) = (rig.engine.clone(), Rc::clone(&out_at_kill));
    rig.sim.schedule_at(SimTime::from_millis(300), move |sim| {
        let busy = engine
            .executor_info(&"e-vm-1".into())
            .expect("registered")
            .busy;
        assert!(busy, "the kill must strike a running attempt");
        seen.set(engine.live_state().store_ops);
        engine.kill_executor(sim, &"e-vm-1".into());
    });
    let ds = two_stage_job();
    run_to_completion(&mut rig, &ds);
    assert!(out_at_kill.get() > 0, "the kill struck with requests out");
    assert!(
        rig.obs
            .metrics
            .counter_value("tasks_failed_total", &[("reason", "executor-lost")])
            >= 1
    );
    assert_eq!(
        rig.engine.live_state(),
        LiveState {
            jobs: 0,
            shuffles: 1,
            attempts: 0,
            parked_computes: 0,
            store_ops: 0
        }
    );
}

/// Answers its `fail_put`-th put and its `fail_get`-th get (1-based) at
/// once with [`StoreError::Rejected`], scheduling nothing — what
/// `RedisStore` does over capacity and every store does for a missing
/// block — and hands every other request to `inner`.
struct RejectNth {
    inner: SharedStore,
    fail_put: u64,
    fail_get: u64,
    puts: Cell<u64>,
    gets: Cell<u64>,
}

impl RejectNth {
    fn wrap(inner: SharedStore, fail_put: u64, fail_get: u64) -> SharedStore {
        let (puts, gets) = (Cell::new(0), Cell::new(0));
        Rc::new(RejectNth {
            inner,
            fail_put,
            fail_get,
            puts,
            gets,
        })
    }
}

/// Bumps `count` and reports whether this request is the `nth`.
fn is_nth(count: &Cell<u64>, nth: u64) -> bool {
    count.set(count.get() + 1);
    count.get() == nth
}

impl BlockStore for RejectNth {
    fn kind(&self) -> &'static str {
        self.inner.kind()
    }

    fn survives_executor_loss(&self) -> bool {
        self.inner.survives_executor_loss()
    }

    fn put(&self, sim: &mut Sim, client: ClientLoc, block: BlockId, data: Bytes, cb: PutCallback) {
        if is_nth(&self.puts, self.fail_put) {
            return cb(sim, Err(StoreError::Rejected(format!("put {block}"))));
        }
        self.inner.put(sim, client, block, data, cb);
    }

    fn get(&self, sim: &mut Sim, client: ClientLoc, block: BlockId, cb: GetCallback) {
        if is_nth(&self.gets, self.fail_get) {
            return cb(sim, Err(StoreError::Rejected(format!("get {block}"))));
        }
        self.inner.get(sim, client, block, cb);
    }

    fn on_executor_lost(&self, sim: &mut Sim, executor: &str) {
        self.inner.on_executor_lost(sim, executor);
    }

    fn register_executor(&self, executor: &str, loc: ClientLoc) {
        self.inner.register_executor(executor, loc);
    }

    fn forget_shuffle(&self, shuffle: u64) {
        self.inner.forget_shuffle(shuffle);
    }

    fn contains(&self, block: &BlockId) -> bool {
        self.inner.contains(block)
    }

    fn stats(&self) -> StoreStats {
        self.inner.stats()
    }
}

/// A request the store refuses synchronously takes its attempt down while
/// the attempt's window is still opening — the window's later requests
/// must then not go out, and its earlier ones, answered after the attempt
/// died, must still close the phase. Six map tasks write five non-empty
/// buckets each, and five reduce tasks fetch six blocks each, so every
/// window opens with at least four requests; the second put and the
/// second get of the run are each the second request of the first window
/// of their direction.
#[test]
fn a_request_refused_while_its_window_opens_fails_its_attempt_cleanly() {
    let job = || {
        Dataset::parallelize((0..3_000u64).map(|i| (i % 30, 1u64)).collect(), 6)
            .reduce_by_key(5, |a, b| a + b)
    };
    let rows = |wrap: fn(SharedStore) -> SharedStore| {
        let mut rig = hdfs_rig(3, 1, wrap);
        let ds = job();
        let out = run_to_completion(&mut rig, &ds);
        let mut rows = collect_partitions::<(u64, u64)>(out.partitions);
        rows.sort();
        (rig, rows)
    };
    let (_, clean) = rows(|store| RejectNth::wrap(store, 0, 0));
    let (rig, struck) = rows(|store| RejectNth::wrap(store, 2, 2));
    assert_eq!(clean, struck, "the refusals change no row");

    let failed = |reason| {
        rig.obs
            .metrics
            .counter_value("tasks_failed_total", &[("reason", reason)])
    };
    assert_eq!((failed("write-failed"), failed("fetch-failed")), (1, 1));
    let events = rig.engine.event_log().snapshot();
    let count = |f: &dyn Fn(&EngineEventKind) -> bool| events.iter().filter(|e| f(&e.kind)).count();
    let finished = count(&|k| matches!(k, EngineEventKind::TaskFinished { .. }));
    let failed = count(&|k| matches!(k, EngineEventKind::TaskFailed { .. }));
    let spans = rig.obs.spans.finished_spans();
    let task_spans = spans.iter().filter(|s| s.name.starts_with("task ")).count();
    assert_eq!(task_spans, finished + failed);
    // Per direction, one abort for the refused request and one for the
    // request issued before it, which lands after its attempt died; the
    // window's later requests never went out.
    let aborts = count(&|k| matches!(k, EngineEventKind::ShufflePhaseAborted { .. }));
    assert_eq!(aborts, 4);
    assert_eq!(rig.obs.spans.open_spans(), 0, "every phase span closed");
    assert_eq!(
        rig.engine.live_state(),
        LiveState {
            jobs: 0,
            // The job retired while `ds` was reachable.
            shuffles: 1,
            attempts: 0,
            parked_computes: 0,
            store_ops: 0
        }
    );
}

/// Asks the engine for its live state from every store call the engine
/// makes — which panics if the call comes while the scheduler's state is
/// mutably borrowed — and counts the calls, and the forgets among them.
#[derive(Default)]
struct BorrowAudit {
    inner: OnceCell<SharedStore>,
    engine: RefCell<Option<Engine>>,
    calls: Cell<u64>,
    forgets: Cell<u64>,
}

impl BorrowAudit {
    fn store(&self) -> &SharedStore {
        self.inner.get().expect("wrapped at construction")
    }

    fn check(&self) {
        if let Some(engine) = &*self.engine.borrow() {
            engine.live_state();
            self.calls.set(self.calls.get() + 1);
        }
    }
}

impl BlockStore for BorrowAudit {
    fn kind(&self) -> &'static str {
        self.check();
        self.store().kind()
    }

    fn survives_executor_loss(&self) -> bool {
        self.check();
        self.store().survives_executor_loss()
    }

    fn put(&self, sim: &mut Sim, client: ClientLoc, block: BlockId, data: Bytes, cb: PutCallback) {
        self.check();
        self.store().put(sim, client, block, data, cb);
    }

    fn get(&self, sim: &mut Sim, client: ClientLoc, block: BlockId, cb: GetCallback) {
        self.check();
        self.store().get(sim, client, block, cb);
    }

    fn put_to(
        &self,
        sim: &mut Sim,
        client: ClientLoc,
        block: BlockId,
        data: Bytes,
        to: Rc<dyn StoreClient>,
        token: u64,
    ) {
        self.check();
        self.store().put_to(sim, client, block, data, to, token);
    }

    fn get_to(
        &self,
        sim: &mut Sim,
        client: ClientLoc,
        block: BlockId,
        to: Rc<dyn StoreClient>,
        token: u64,
    ) {
        self.check();
        self.store().get_to(sim, client, block, to, token);
    }

    fn on_executor_lost(&self, sim: &mut Sim, executor: &str) {
        self.check();
        self.store().on_executor_lost(sim, executor);
    }

    fn register_executor(&self, executor: &str, loc: ClientLoc) {
        self.check();
        self.store().register_executor(executor, loc);
    }

    fn forget_shuffle(&self, shuffle: u64) {
        self.check();
        self.forgets.set(self.forgets.get() + 1);
        self.store().forget_shuffle(shuffle);
    }

    fn contains(&self, block: &BlockId) -> bool {
        self.check();
        self.store().contains(block)
    }

    fn stats(&self) -> StoreStats {
        self.check();
        self.store().stats()
    }
}

/// No call into the store, and no `on_done`, comes while the scheduler
/// holds its state borrowed: a job whose shuffle is forgotten when it
/// retires, and a job that loses an executor mid-flight, both run to the
/// end with every store call able to read the engine.
#[test]
fn no_store_call_or_callback_runs_with_the_scheduler_state_borrowed() {
    let audit = Rc::new(BorrowAudit::default());
    let a = Rc::clone(&audit);
    let mut rig = hdfs_rig(3, 1, move |store| {
        let _ = a.inner.set(store);
        a
    });
    *audit.engine.borrow_mut() = Some(rig.engine.clone());
    let outputs = Rc::new(Cell::new(0));
    let submit = |rig: &mut Rig| {
        let (engine, outputs) = (rig.engine.clone(), Rc::clone(&outputs));
        // The dataset is dropped here: its shuffle is forgotten as the
        // job retires.
        let node = two_stage_job().node();
        rig.engine.submit_job(&mut rig.sim, node, move |_, out| {
            engine.live_state();
            assert_eq!(out.partitions.len(), 3);
            outputs.set(outputs.get() + 1);
        });
    };

    submit(&mut rig);
    rig.sim.run();
    assert_eq!((outputs.get(), audit.forgets.get()), (1, 1));

    submit(&mut rig);
    let engine = rig.engine.clone();
    let at = rig.sim.now() + SimDuration::from_millis(15);
    rig.sim.schedule_at(at, move |sim| {
        engine.kill_executor(sim, &"e-vm-1".into());
    });
    rig.sim.run();
    assert_eq!((outputs.get(), audit.forgets.get()), (2, 2));
    let lost = rig.engine.event_log().snapshot().iter().any(|e| {
        matches!(
            e.kind,
            EngineEventKind::TaskFailed {
                why: FailureKind::ExecutorLost,
                ..
            }
        )
    });
    assert!(lost, "the kill struck a running task");
    assert!(audit.calls.get() > 0);
    audit.engine.borrow_mut().take();
}

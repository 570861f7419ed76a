//! Direct exercises of the engine's failure paths, driven by the
//! deterministic fault-injecting store decorator: an injected fetch
//! failure must travel the `FetchFailed` route (unregister the map
//! output, roll the producing stage back, requeue), an injected write
//! failure must requeue the task *without* any rollback, and each path
//! must label its `tasks_failed_total` telemetry with the right reason.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use splitserve_des::{Fabric, Sim, SimDuration, SimTime};
use splitserve_engine::{
    collect_partitions, Dataset, Engine, EngineConfig, EngineEventKind, ExecutorDesc, FailureKind,
    JobOutput, LiveState,
};
use splitserve_obs::Obs;
use splitserve_storage::{FaultStore, HdfsSpec, HdfsStore, SharedStore, StoreFaults};

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
    let engine = Engine::new(cfg, FaultStore::wrap(store, faults));
    let mut sim = Sim::new(7);
    for i in 0..executors {
        let nic = fabric.add_link(1e9, format!("nic-{i}"));
        let disk = fabric.add_link(1e9, format!("disk-{i}"));
        engine.register_executor(&mut sim, ExecutorDesc::vm(format!("e-vm-{i}"), nic, disk, 8192));
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
    rig.engine.submit_job(&mut rig.sim, ds.node(), move |_, out| {
        *s.borrow_mut() = Some(out);
    });
    rig.sim.run();
    let out = slot.borrow_mut().take().expect("job must survive the fault");
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
            EngineEventKind::TaskFailed { why: FailureKind::ExecutorLost, .. }
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
                engine.executor_info(&"e-vm-1".into()).expect("registered").busy,
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
        let busy = engine.executor_info(&"e-vm-1".into()).expect("registered").busy;
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

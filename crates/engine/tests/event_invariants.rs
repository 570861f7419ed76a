//! Ordering and pairing invariants of the engine's observability output:
//! the event log must tell a time-ordered story, every started task must
//! end exactly once, and the span recorder's open/close pairs must nest.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use splitserve_des::{Fabric, Sim, SimTime};
use splitserve_engine::{
    collect_partitions, Dataset, Engine, EngineConfig, EngineEvent, EngineEventKind, ExecutorDesc,
    JobId, JobOutput, ShufflePhase, TaskRef,
};
use splitserve_obs::Obs;
use splitserve_storage::LocalDiskStore;

struct Rig {
    sim: Sim,
    engine: Engine,
}

fn observed_rig(executors: usize) -> Rig {
    observed_rig_on(executors, 1e9)
}

/// `executors` VM executors whose NIC and disk links carry `link_bps`.
fn observed_rig_on(executors: usize, link_bps: f64) -> Rig {
    let fabric = Fabric::new();
    let store = Rc::new(LocalDiskStore::new(fabric.clone()));
    let cfg = EngineConfig {
        obs: Obs::enabled(),
        ..EngineConfig::default()
    };
    let engine = Engine::new(cfg, store);
    let mut sim = Sim::new(11);
    for i in 0..executors {
        let nic = fabric.add_link(link_bps, format!("nic-{i}"));
        let disk = fabric.add_link(link_bps, format!("disk-{i}"));
        engine.register_executor(&mut sim, ExecutorDesc::vm(format!("e-vm-{i}"), nic, disk, 8192));
    }
    Rig { sim, engine }
}

fn run_shuffle_job(rig: &mut Rig) -> JobOutput {
    let ds = Dataset::parallelize((0..2_000u64).map(|i| (i % 20, 1u64)).collect(), 6)
        .reduce_by_key(3, |a, b| a + b);
    let slot: Rc<RefCell<Option<JobOutput>>> = Rc::new(RefCell::new(None));
    let s = Rc::clone(&slot);
    rig.engine.submit_job(&mut rig.sim, ds.node(), move |_, out| {
        *s.borrow_mut() = Some(out);
    });
    rig.sim.run();
    let out = slot.borrow_mut().take().expect("job completes");
    let rows = collect_partitions::<(u64, u64)>(out.partitions.clone());
    assert_eq!(rows.len(), 20, "invariant tests must still compute truth");
    out
}

/// Timestamps never go backwards in the snapshot (push order).
fn assert_monotone(events: &[EngineEvent]) {
    for w in events.windows(2) {
        assert!(
            w[0].at <= w[1].at,
            "event log went back in time: {:?} then {:?}",
            w[0],
            w[1]
        );
    }
}

/// Every TaskStarted is closed by exactly one TaskFinished or TaskFailed
/// with the same (stage, part, exec).
fn assert_tasks_paired(events: &[EngineEvent]) {
    let mut open: HashMap<(u64, usize, splitserve_engine::ExecutorId), u64> = HashMap::new();
    for e in events {
        match &e.kind {
            EngineEventKind::TaskStarted { task: TaskRef { stage, part, exec, .. }, .. } => {
                let slot = open.entry((stage.0, *part, *exec)).or_insert(0);
                assert_eq!(
                    *slot, 0,
                    "task s{}.{} started twice on {} without ending",
                    stage.0, part, exec
                );
                *slot = 1;
            }
            EngineEventKind::TaskFinished { task: TaskRef { stage, part, exec, .. }, .. }
            | EngineEventKind::TaskFailed { task: TaskRef { stage, part, exec, .. }, .. } => {
                let slot = open.entry((stage.0, *part, *exec)).or_insert(0);
                assert_eq!(
                    *slot, 1,
                    "task s{}.{} ended on {} without a matching start",
                    stage.0, part, exec
                );
                *slot = 0;
            }
            _ => {}
        }
    }
    assert!(
        open.values().all(|v| *v == 0),
        "tasks left open at end of run: {open:?}"
    );
}

#[test]
fn happy_path_run_upholds_all_invariants() {
    let mut rig = observed_rig(3);
    let out = run_shuffle_job(&mut rig);

    let events = rig.engine.event_log().snapshot();
    assert!(!events.is_empty());
    assert_monotone(&events);
    assert_tasks_paired(&events);

    // Span accounting agrees with the event log: one closed task span per
    // TaskFinished, and no span is malformed or badly nested.
    let obs = rig.engine.obs().clone();
    assert_eq!(
        obs.spans.nesting_violation(),
        None,
        "spans on one executor track must be disjoint or contained"
    );
    let finished = obs.spans.finished_spans();
    assert!(finished.iter().all(|s| s.end.unwrap() >= s.start));
    let task_spans = finished.iter().filter(|s| s.name.starts_with("task ")).count();
    let finishes = events
        .iter()
        .filter(|e| matches!(e.kind, EngineEventKind::TaskFinished { .. }))
        .count();
    assert_eq!(task_spans, finishes);
    assert_eq!(task_spans, out.metrics.tasks_total() as usize);
    assert_eq!(
        obs.spans.open_spans(),
        0,
        "a clean run leaves no dangling spans"
    );

    // The registry saw the same completions the per-job metrics did.
    assert_eq!(
        obs.metrics.counter_total("tasks_completed_total"),
        out.metrics.tasks_total()
    );
    assert_eq!(obs.metrics.counter_total("jobs_completed_total"), 1);
}

/// Runs the 6×3 shuffle job on 100 kB/s links, killing `e-vm-1` at
/// `kill_at` when given; returns the rig and the job's completion instant.
fn run_with_kill(kill_at: Option<SimTime>) -> (Rig, SimTime) {
    let mut rig = observed_rig_on(3, 1e5);
    let ds = Dataset::parallelize((0..3_000u64).map(|i| (i % 30, 1u64)).collect(), 6)
        .reduce_by_key(3, |a, b| a + b);
    let slot: Rc<RefCell<Option<JobOutput>>> = Rc::new(RefCell::new(None));
    let s = Rc::clone(&slot);
    rig.engine.submit_job(&mut rig.sim, ds.node(), move |_, out| {
        *s.borrow_mut() = Some(out);
    });
    if let Some(at) = kill_at {
        let engine = rig.engine.clone();
        rig.sim.schedule_at(at, move |sim| {
            engine.kill_executor(sim, &"e-vm-1".into());
        });
    }
    rig.sim.run();
    let out = slot.borrow_mut().take().expect("job survives the kill");
    (rig, out.metrics.completed_at)
}

/// Every store request the engine made landed back in it and was
/// recorded once: on a run with no injected store fault, the `store_*`
/// series equal the store's own counters.
fn assert_store_series_match_the_store(rig: &Rig, what: &str) {
    let (m, stats) = (&rig.engine.obs().metrics, rig.engine.store().stats());
    let ops = |op, outcome| {
        let labels = [("store", "local-disk"), ("op", op), ("outcome", outcome)];
        m.counter_value("store_ops_total", &labels)
    };
    let bytes = |name| m.counter_value(name, &[("store", "local-disk")]);
    assert_eq!(
        [
            ops("put", "ok"),
            ops("get", "ok"),
            ops("get", "err"),
            bytes("store_bytes_written_total"),
            bytes("store_bytes_read_total"),
        ],
        [stats.puts, stats.gets, stats.failed_gets, stats.bytes_in, stats.bytes_out],
        "{what}"
    );
}

#[test]
fn invariants_survive_executor_kill_and_rollback() {
    // A kill every 3 ms across the job: on links this slow the instants
    // land in fetch, compute and write phases alike. Whatever a kill
    // hits, every view of the run must tell the same story.
    let (rig, done_at) = run_with_kill(None);
    assert_store_series_match_the_store(&rig, "no kill");
    let instants: Vec<u64> = (1..)
        .map(|i| i * 3)
        .take_while(|ms| *ms * 1_000 < done_at.as_micros())
        .collect();
    assert!(instants.len() >= 20, "the sweep must cover the job: {instants:?}");
    let (mut recomputes, mut rollbacks, mut aborts) = (0, 0, 0);
    for ms in instants {
        let (rig, _) = run_with_kill(Some(SimTime::from_millis(ms)));
        let events = rig.engine.event_log().snapshot();
        assert_monotone(&events);
        assert_tasks_paired(&events);
        let obs = rig.engine.obs();
        assert_eq!(obs.spans.nesting_violation(), None, "kill at {ms} ms");
        assert_eq!(obs.spans.open_spans(), 0, "kill at {ms} ms leaves a span open");

        // Log-derived counts == registry counters == JobMetrics. (The
        // table's block, not the one handed to `on_done`: an attempt of a
        // rolled-back stage may outlive the job.)
        use EngineEventKind as E;
        let count =
            |f: &dyn Fn(&E) -> u64| -> u64 { events.iter().map(|e| f(&e.kind)).sum() };
        let m = rig.engine.job_metrics(JobId(0)).expect("submitted");
        let finished = count(&|k| matches!(k, E::TaskFinished { .. }) as u64);
        let failed = count(&|k| matches!(k, E::TaskFailed { .. }) as u64);
        let stages = count(&|k| matches!(k, E::StageCompleted { .. }) as u64);
        let rolled = count(&|k| matches!(k, E::StageRolledBack { .. }) as u64);
        let read = count(&|k| match k {
            E::ShufflePhaseFinished { phase: ShufflePhase::Fetch, bytes, .. } => *bytes,
            _ => 0,
        });
        let written = count(&|k| match k {
            E::ShufflePhaseStarted { phase: ShufflePhase::Write, bytes, .. } => *bytes,
            _ => 0,
        });
        let counter = |name| obs.metrics.counter_total(name);
        assert_eq!((finished, counter("tasks_completed_total")), (m.tasks_total(), finished));
        assert_eq!((failed, counter("tasks_failed_total")), (m.tasks_recomputed, failed));
        assert_eq!((stages, counter("stages_completed_total")), (m.stages_run as u64, stages));
        assert_eq!(rolled, counter("stage_rollbacks_total"));
        assert_eq!((read, counter("shuffle_bytes_read_total")), (m.shuffle_bytes_read, read));
        assert_eq!(
            (written, counter("shuffle_bytes_written_total")),
            (m.shuffle_bytes_written, written)
        );
        assert_store_series_match_the_store(&rig, &format!("kill at {ms} ms"));
        // Failed attempts close their spans too.
        let spans = obs.spans.finished_spans();
        let task_spans = spans.iter().filter(|s| s.name.starts_with("task ")).count();
        assert_eq!(task_spans as u64, finished + failed);

        recomputes += failed;
        rollbacks += rolled;
        aborts += count(&|k| matches!(k, E::ShufflePhaseAborted { .. }) as u64);
    }
    assert!(recomputes > 0 && rollbacks > 0, "the kills must bite");
    assert!(aborts > 0, "some kill must land inside a shuffle phase");
}

#[test]
fn a_marker_feeds_the_log_the_counter_and_the_driver_lane() {
    let rig = observed_rig(1);
    rig.engine
        .emit(SimTime::from_secs(1), EngineEventKind::Marker("segue commences"));
    assert_eq!(
        rig.engine.event_log().snapshot().last().map(|e| &e.kind),
        Some(&EngineEventKind::Marker("segue commences"))
    );
    let obs = rig.engine.obs();
    assert_eq!(
        obs.metrics
            .counter_value("obs_marks_total", &[("name", "segue commences")]),
        1
    );
    let trace = obs.spans.to_chrome_trace();
    assert!(trace.contains("\"name\":\"segue commences\""), "{trace}");
    assert!(trace.contains("{\"name\":\"segue\"}"), "on the driver lane's segue track");
}

#[test]
fn disabled_obs_records_nothing() {
    let mut rig = {
        let fabric = Fabric::new();
        let store = Rc::new(LocalDiskStore::new(fabric.clone()));
        let engine = Engine::new(EngineConfig::default(), store);
        let mut sim = Sim::new(11);
        for i in 0..2 {
            let nic = fabric.add_link(1e9, format!("nic-{i}"));
            let disk = fabric.add_link(1e9, format!("disk-{i}"));
            engine
                .register_executor(&mut sim, ExecutorDesc::vm(format!("e-vm-{i}"), nic, disk, 8192));
        }
        Rig { sim, engine }
    };
    let out = run_shuffle_job(&mut rig);
    assert!(out.metrics.tasks_total() > 0, "JobMetrics still aggregates");
    let obs = rig.engine.obs();
    assert!(!obs.is_enabled());
    assert!(obs.spans.finished_spans().is_empty());
    assert_eq!(obs.metrics.counter_total("tasks_completed_total"), 0);
    assert_eq!(obs.metrics.render_prometheus(), "");
}

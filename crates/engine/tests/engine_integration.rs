//! End-to-end engine tests: real jobs over simulated clusters, exercising
//! scheduling, shuffles, executor churn and fault recovery.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use splitserve_des::{Fabric, Sim, SimDuration, SimTime};
use splitserve_engine::{
    collect_partitions, Dataset, Engine, EngineConfig, EngineEventKind, ExecutorDesc, JobId,
    JobOutput, LiveState,
};
use splitserve_rt::Bytes;
use splitserve_storage::{
    BlockId, BlockStore, ClientLoc, FaultStore, GetCallback, HdfsSpec, HdfsStore, LocalDiskStore,
    PutCallback, StoreFaults, StoreStats,
};

struct Rig {
    sim: Sim,
    engine: Engine,
    /// The bare store under the engine, when it is HDFS.
    hdfs: Option<Rc<HdfsStore>>,
}

/// `executors` VM executors on `fabric`, registered with a fresh engine
/// over `store`.
fn rig_over(fabric: &Fabric, store: Rc<dyn BlockStore>, executors: usize) -> (Sim, Engine) {
    let engine = Engine::new(EngineConfig::default(), store);
    let mut sim = Sim::new(7);
    for i in 0..executors {
        let nic = fabric.add_link(1e9, format!("nic-{i}"));
        let disk = fabric.add_link(1e9, format!("disk-{i}"));
        engine.register_executor(&mut sim, ExecutorDesc::vm(format!("e-vm-{i}"), nic, disk, 8192));
    }
    (sim, engine)
}

fn local_rig(executors: usize) -> Rig {
    let fabric = Fabric::new();
    let store = Rc::new(LocalDiskStore::new(fabric.clone()));
    let (sim, engine) = rig_over(&fabric, store, executors);
    Rig { sim, engine, hdfs: None }
}

fn hdfs_store(fabric: &Fabric) -> Rc<HdfsStore> {
    let hdfs = HdfsStore::new(HdfsSpec::default(), fabric.clone());
    let nn_nic = fabric.add_link(1e9, "hdfs-nic");
    let nn_disk = fabric.add_link(1e9, "hdfs-disk");
    hdfs.add_datanode(nn_nic, nn_disk);
    Rc::new(hdfs)
}

fn hdfs_rig(executors: usize) -> Rig {
    let fabric = Fabric::new();
    let hdfs = hdfs_store(&fabric);
    let (sim, engine) = rig_over(&fabric, hdfs.clone(), executors);
    Rig { sim, engine, hdfs: Some(hdfs) }
}

fn run_job<T: Clone + Send + Sync + 'static>(
    rig: &mut Rig,
    ds: &Dataset<T>,
) -> (Vec<T>, std::sync::Arc<splitserve_engine::JobMetrics>) {
    let slot: Rc<RefCell<Option<JobOutput>>> = Rc::new(RefCell::new(None));
    let s = Rc::clone(&slot);
    rig.engine.submit_job(&mut rig.sim, ds.node(), move |_, out| {
        *s.borrow_mut() = Some(out);
    });
    rig.sim.run();
    let out = slot.borrow_mut().take().expect("job must complete");
    (collect_partitions::<T>(out.partitions), out.metrics)
}

#[test]
fn word_count_style_job_is_correct() {
    let mut rig = local_rig(4);
    let words: Vec<(String, u64)> = (0..5_000)
        .map(|i| (format!("w{}", i % 50), 1u64))
        .collect();
    let counts = Dataset::parallelize(words, 8).reduce_by_key(4, |a, b| a + b);
    let (mut rows, metrics) = run_job(&mut rig, &counts);
    rows.sort();
    assert_eq!(rows.len(), 50);
    assert!(rows.iter().all(|(_, c)| *c == 100));
    assert_eq!(metrics.tasks_total(), 8 + 4);
    assert!(metrics.shuffle_bytes_written > 0);
    assert!(metrics.execution_time() > SimDuration::ZERO);
}

#[test]
fn three_stage_pipeline_chains_shuffles() {
    let mut rig = local_rig(2);
    let ds = Dataset::parallelize((0..1_000u64).map(|i| (i % 100, 1u64)).collect(), 4)
        .reduce_by_key(4, |a, b| a + b) // 100 keys → count 10 each
        .map(|(k, v)| (k % 10, *v))
        .reduce_by_key(2, |a, b| a + b); // 10 keys → 100 each
    let (mut rows, metrics) = run_job(&mut rig, &ds);
    rows.sort();
    assert_eq!(rows.len(), 10);
    assert!(rows.iter().all(|(_, v)| *v == 100));
    assert_eq!(metrics.stages_run, 3);
}

#[test]
fn join_across_stores_is_correct() {
    let mut rig = hdfs_rig(3);
    let users = Dataset::parallelize(
        (0..100u64).map(|i| (i, format!("user-{i}"))).collect(),
        4,
    );
    let orders = Dataset::parallelize(
        (0..300u64).map(|i| (i % 100, i)).collect::<Vec<_>>(),
        6,
    );
    let joined = users.join(&orders, 4);
    let (rows, _) = run_job(&mut rig, &joined);
    assert_eq!(rows.len(), 300, "every order matches exactly one user");
    assert!(rows
        .iter()
        .all(|(k, (name, order))| *name == format!("user-{k}") && order % 100 == *k));
}

/// `flat_map` moves its rows out of a parent partition only it holds; a
/// `cache()`d parent is shared with the cache, so each of two jobs reading
/// it clones the rows instead, and must see exactly what the owned path
/// yields and be charged exactly what it is charged.
#[test]
fn flat_map_over_a_cached_parent_matches_the_owned_path() {
    let pages = |p: usize| -> Vec<(u64, Vec<u64>)> {
        (0..500u64).map(|i| (i, (0..i % 5).map(|d| d * 7 + p as u64).collect())).collect()
    };
    let contribs = |(page, dsts): (u64, Vec<u64>)| dsts.into_iter().map(move |d| (d, page));
    let owned = Dataset::generate(4, pages).flat_map(contribs);
    let cached = Dataset::generate(4, pages).cache().flat_map(contribs);

    let mut rig = local_rig(2);
    let (want, owned_metrics) = run_job(&mut rig, &owned);
    assert_eq!(want.len(), 4 * 500 * 2, "every page yields `page % 5` rows");
    for job in 0..2 {
        let (got, metrics) = run_job(&mut rig, &cached);
        assert_eq!(got, want, "job {job}: rows");
        assert_eq!(
            metrics.cpu_secs_total.to_bits(),
            owned_metrics.cpu_secs_total.to_bits(),
            "job {job}: charges"
        );
    }
}

#[test]
fn more_executors_is_faster() {
    let time_with = |n: usize| {
        let mut rig = local_rig(n);
        let ds = Dataset::<u64>::generate(16, |p| {
            (0..200_000u64).map(|i| i + p as u64).collect()
        })
        .map(|x| x * 2)
        .map(|x| (x % 7, *x))
        .reduce_by_key(8, |a, b| a + b);
        let (_, metrics) = run_job(&mut rig, &ds);
        metrics.execution_time().as_secs_f64()
    };
    let t1 = time_with(1);
    let t4 = time_with(4);
    let t16 = time_with(16);
    assert!(t4 < t1 * 0.4, "4 executors ≥2.5x faster: {t1} → {t4}");
    assert!(t16 <= t4, "16 executors no slower than 4: {t4} → {t16}");
}

#[test]
fn executor_kill_with_local_store_rolls_back_and_recovers() {
    let mut rig = local_rig(3);
    let ds = Dataset::parallelize((0..3_000u64).map(|i| (i % 30, 1u64)).collect(), 6)
        .reduce_by_key(3, |a, b| a + b);
    let slot: Rc<RefCell<Option<JobOutput>>> = Rc::new(RefCell::new(None));
    let s = Rc::clone(&slot);
    rig.engine.submit_job(&mut rig.sim, ds.node(), move |_, out| {
        *s.borrow_mut() = Some(out);
    });
    // Kill one executor shortly after the map stage begins.
    let engine = rig.engine.clone();
    rig.sim.schedule_at(SimTime::from_millis(15), move |sim| {
        engine.kill_executor(sim, &"e-vm-1".into());
    });
    rig.sim.run();
    let out = slot.borrow_mut().take().expect("job survives the kill");
    let mut rows = collect_partitions::<(u64, u64)>(out.partitions);
    rows.sort();
    assert_eq!(rows.len(), 30);
    assert!(rows.iter().all(|(_, c)| *c == 100), "results still exact");
    // The rollback machinery must actually have fired.
    let events = rig.engine.event_log().snapshot();
    let lost = events
        .iter()
        .any(|e| matches!(e.kind, EngineEventKind::ExecutorLost { .. }));
    assert!(lost);
    assert!(out.metrics.tasks_recomputed > 0, "some work was redone");
}

#[test]
fn executor_kill_with_hdfs_store_causes_no_rollback() {
    // Same scenario as above, but shuffle data survives on HDFS: the dead
    // executor's finished map outputs stay valid.
    let mut rig = hdfs_rig(3);
    let ds = Dataset::parallelize((0..3_000u64).map(|i| (i % 30, 1u64)).collect(), 6)
        .reduce_by_key(3, |a, b| a + b);
    let slot: Rc<RefCell<Option<JobOutput>>> = Rc::new(RefCell::new(None));
    let s = Rc::clone(&slot);
    rig.engine.submit_job(&mut rig.sim, ds.node(), move |_, out| {
        *s.borrow_mut() = Some(out);
    });
    let engine = rig.engine.clone();
    rig.sim.schedule_at(SimTime::from_millis(15), move |sim| {
        engine.kill_executor(sim, &"e-vm-1".into());
    });
    rig.sim.run();
    let out = slot.borrow_mut().take().expect("job survives");
    let rows = collect_partitions::<(u64, u64)>(out.partitions);
    assert_eq!(rows.len(), 30);
    let events = rig.engine.event_log().snapshot();
    let rolled_back = events
        .iter()
        .any(|e| matches!(e.kind, EngineEventKind::StageRolledBack { .. }));
    assert!(!rolled_back, "HDFS shuffle must not roll back stages");
    // At most the one in-flight task is recomputed; completed map outputs
    // are reused.
    assert!(out.metrics.tasks_recomputed <= 1);
}

#[test]
fn graceful_drain_finishes_task_then_decommissions() {
    let mut rig = hdfs_rig(2);
    let ds = Dataset::parallelize((0..2_000u64).map(|i| (i % 20, 1u64)).collect(), 8)
        .reduce_by_key(2, |a, b| a + b);
    let slot: Rc<RefCell<Option<JobOutput>>> = Rc::new(RefCell::new(None));
    let s = Rc::clone(&slot);
    rig.engine.submit_job(&mut rig.sim, ds.node(), move |_, out| {
        *s.borrow_mut() = Some(out);
    });
    let drained: Rc<RefCell<Option<f64>>> = Rc::new(RefCell::new(None));
    let d = Rc::clone(&drained);
    let engine = rig.engine.clone();
    rig.sim.schedule_at(SimTime::from_millis(30), move |sim| {
        engine.drain_executor(sim, &"e-vm-0".into(), move |sim, _| {
            *d.borrow_mut() = Some(sim.now().as_secs_f64());
        });
    });
    rig.sim.run();
    let out = slot.borrow_mut().take().expect("job completes on survivor");
    let rows = collect_partitions::<(u64, u64)>(out.partitions);
    assert_eq!(rows.len(), 20);
    assert!(drained.borrow().is_some(), "drain callback fired");
    assert_eq!(
        out.metrics.tasks_recomputed, 0,
        "graceful drain must not redo work"
    );
    let events = rig.engine.event_log().snapshot();
    assert!(events
        .iter()
        .any(|e| matches!(e.kind, EngineEventKind::ExecutorDraining { .. })));
    assert!(events
        .iter()
        .any(|e| matches!(e.kind, EngineEventKind::ExecutorDecommissioned { .. })));
}

#[test]
fn lambda_memory_pressure_slows_tasks() {
    // Same work on a 1.5 GB Lambda vs an 8 GB VM executor: the big scan
    // working set pushes the Lambda into the GC regime.
    let run_on = |desc_for: &dyn Fn(&Fabric) -> ExecutorDesc| {
        let fabric = Fabric::new();
        let store = Rc::new(LocalDiskStore::new(fabric.clone()));
        let engine = Engine::new(EngineConfig::default(), store);
        let mut sim = Sim::new(3);
        engine.register_executor(&mut sim, desc_for(&fabric));
        // ~1.6 GB working set in one partition (100M records ≈ 8B each... use generate with large bytes).
        let ds = Dataset::<u64>::generate(1, |_| (0..1_000_000u64).collect())
            .map_with_cost(|x| x + 1, Some(1e-6));
        let mut rig = Rig { sim, engine, hdfs: None };
        let (_, m) = run_job(&mut rig, &ds);
        m.execution_time().as_secs_f64()
    };
    let vm_time = run_on(&|f| {
        let nic = f.add_link(1e9, "n");
        let disk = f.add_link(1e9, "d");
        ExecutorDesc::vm("e-vm-0", nic, disk, 64 * 1024)
    });
    let lambda_time = run_on(&|f| {
        let nic = f.add_link(1e9, "n");
        // Tiny lambda: 256 MB → deep GC territory for an 8 MB+ working set?
        // Memory pressure is working-set/memory; make memory small enough.
        ExecutorDesc::lambda("lambda-0", nic, 100)
    });
    assert!(
        lambda_time > vm_time * 1.2,
        "lambda {lambda_time} vs vm {vm_time}: memory pressure + slower core must show"
    );
}

#[test]
fn event_log_tells_a_consistent_story() {
    let mut rig = local_rig(2);
    let ds = Dataset::parallelize((0..100u64).map(|i| (i % 4, i)).collect(), 4)
        .reduce_by_key(2, |a, b| a + b);
    let (_, _) = run_job(&mut rig, &ds);
    let events = rig.engine.event_log().snapshot();
    let starts = events
        .iter()
        .filter(|e| matches!(e.kind, EngineEventKind::TaskStarted { .. }))
        .count();
    let finishes = events
        .iter()
        .filter(|e| matches!(e.kind, EngineEventKind::TaskFinished { .. }))
        .count();
    assert_eq!(starts, finishes, "every started task finishes");
    assert_eq!(starts, 6, "4 map + 2 reduce tasks");
    // Timestamps are monotone.
    for w in events.windows(2) {
        assert!(w[0].at <= w[1].at);
    }
    // Job completion is the last lifecycle event.
    assert!(events
        .iter()
        .any(|e| matches!(e.kind, EngineEventKind::JobCompleted { .. })));
}

#[test]
fn sequential_jobs_reuse_engine_and_executors() {
    let mut rig = local_rig(2);
    for round in 1..4u64 {
        let ds = Dataset::parallelize((0..100u64).map(|i| (i % 5, round)).collect(), 4)
            .reduce_by_key(2, |a, b| a + b);
        let (mut rows, _) = run_job(&mut rig, &ds);
        rows.sort();
        assert_eq!(rows.len(), 5);
        assert!(rows.iter().all(|(_, v)| *v == 20 * round));
    }
}

#[test]
fn determinism_same_seed_same_timeline() {
    let run = || {
        let mut rig = local_rig(3);
        let ds = Dataset::parallelize((0..2_000u64).map(|i| (i % 16, i)).collect(), 8)
            .reduce_by_key(4, |a, b| a + b);
        let (_, m) = run_job(&mut rig, &ds);
        (m.execution_time().as_secs_f64(), rig.engine.event_log().len())
    };
    let a = run();
    let b = run();
    assert_eq!(a, b);
}

#[test]
fn late_registered_executor_picks_up_work() {
    let fabric = Fabric::new();
    let store = Rc::new(LocalDiskStore::new(fabric.clone()));
    let engine = Engine::new(EngineConfig::default(), store);
    let mut sim = Sim::new(9);
    // Start with one executor; add a second mid-job.
    let nic0 = fabric.add_link(1e9, "n0");
    let disk0 = fabric.add_link(1e9, "d0");
    engine.register_executor(&mut sim, ExecutorDesc::vm("e-vm-0", nic0, disk0, 8192));
    let ds = Dataset::<u64>::generate(8, |p| (0..100_000).map(|i| i + p as u64).collect())
        .map(|x| (x % 3, *x))
        .reduce_by_key(2, |a, b| a + b);
    let slot: Rc<RefCell<Option<JobOutput>>> = Rc::new(RefCell::new(None));
    let s = Rc::clone(&slot);
    engine.submit_job(&mut sim, ds.node(), move |_, out| {
        *s.borrow_mut() = Some(out);
    });
    let engine2 = engine.clone();
    let fabric2 = fabric.clone();
    sim.schedule_at(SimTime::from_millis(50), move |sim| {
        let nic = fabric2.add_link(1e9, "n1");
        let disk = fabric2.add_link(1e9, "d1");
        engine2.register_executor(sim, ExecutorDesc::vm("e-vm-1", nic, disk, 8192));
    });
    sim.run();
    let out = slot.borrow_mut().take().expect("completes");
    let by_exec: Vec<_> = engine.executors();
    assert_eq!(by_exec.len(), 2);
    assert!(
        by_exec.iter().all(|e| e.tasks_done > 0),
        "late executor contributed: {by_exec:?}"
    );
    assert_eq!(out.metrics.tasks_total(), 10);
}

#[test]
fn executor_info_is_the_matching_snapshot_entry() {
    let mut rig = local_rig(3);
    let ds = Dataset::parallelize((0..300u64).map(|i| (i % 7, i)).collect(), 5)
        .reduce_by_key(2, |a, b| a + b);
    run_job(&mut rig, &ds);
    rig.engine.kill_executor(&mut rig.sim, &"e-vm-1".into());
    let all = rig.engine.executors();
    assert_eq!(all.len(), 3);
    for e in &all {
        assert_eq!(rig.engine.executor_info(&e.id).as_ref(), Some(e));
    }
    assert!(all.iter().any(|e| !e.alive) && all.iter().any(|e| e.tasks_done > 0));
    assert_eq!(rig.engine.executor_info(&"e-vm-9".into()), None);
}

// ----- state lifetime: what the scheduler holds follows the live work -----

#[test]
fn finished_jobs_leave_no_scheduler_state_behind() {
    let mut rig = hdfs_rig(2);
    for round in 0..500u64 {
        // Like a driver program, the caller keeps no handle on the plan
        // once it is submitted.
        let ds = Dataset::parallelize((0..40u64).map(|i| (i % 5, round)).collect(), 2)
            .reduce_by_key(2, |a, b| a + b);
        let rows = Rc::new(RefCell::new(0));
        let r = Rc::clone(&rows);
        rig.engine.submit_job(&mut rig.sim, ds.node(), move |_, out| {
            *r.borrow_mut() = collect_partitions::<(u64, u64)>(out.partitions).len();
        });
        drop(ds);
        rig.sim.run();
        assert_eq!(*rows.borrow(), 5);
    }
    assert_eq!(rig.engine.live_state(), IDLE);
    assert!(!rig.engine.has_active_jobs());
    let hdfs = rig.hdfs.as_ref().expect("an HDFS rig");
    let held = (hdfs.block_count(), hdfs.used_bytes());
    assert_eq!(held, (0, 0), "blocks leave with their shuffle");
    assert_eq!(hdfs.stats().puts, 500 * 4, "every block was written");
    // What is kept per finished job is its metrics, queryable as before.
    let done = rig.engine.completed_job_metrics();
    assert_eq!(done.len(), 500);
    assert!(done.iter().all(|m| m.tasks_total() == 4));
    assert_eq!(rig.engine.job_metrics(JobId(499)).expect("known job").job, JobId(499));
}

#[test]
fn resubmitted_dataset_skips_its_map_stage_while_it_is_held() {
    let mut rig = hdfs_rig(2);
    let ds = Dataset::parallelize((0..400u64).map(|i| (i % 10, 1u64)).collect(), 8)
        .reduce_by_key(4, |a, b| a + b);
    let (mut first, m1) = run_job(&mut rig, &ds);
    assert_eq!(m1.tasks_total(), 8 + 4);
    // The first job is retired, but `ds` still reaches its shuffle, so the
    // map outputs stay registered and their blocks stored …
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
    let hdfs = rig.hdfs.clone().expect("an HDFS rig");
    let (blocks, bytes) = (hdfs.block_count(), hdfs.used_bytes());
    assert!(blocks > 0, "the held shuffle's blocks stay");
    assert_eq!(bytes, m1.shuffle_bytes_written);
    // … and the second submission runs the result stage only, reading
    // those very blocks.
    let (mut second, m2) = run_job(&mut rig, &ds);
    assert_eq!(m2.tasks_total(), 4, "map stage must be skipped");
    assert_eq!(m2.shuffle_bytes_written, 0);
    assert_eq!(m2.shuffle_bytes_read, m1.shuffle_bytes_read);
    assert_eq!((hdfs.block_count(), hdfs.used_bytes()), (blocks, bytes));
    assert_eq!(hdfs.stats().failed_gets, 0);
    first.sort();
    second.sort();
    assert_eq!(first, second);
    // Once the caller lets go, the next retirement forgets the shuffle,
    // in the tracker and in the store.
    drop(ds);
    let other = Dataset::parallelize(vec![1u64, 2, 3], 1);
    run_job(&mut rig, &other);
    assert_eq!(rig.engine.live_state(), IDLE);
    assert_eq!((hdfs.block_count(), hdfs.used_bytes()), (0, 0));
}

/// Two live jobs over one `Dataset` share its shuffle: each queues the
/// map tasks it finds missing, and either job's map task can register an
/// output the other still has queued or running. Here the first job's
/// four 1 s map tasks run two at a time, then the second job's; the kill
/// at 3.5 s takes a running map task of the second job and the outputs
/// written on its executor, one of which the second job had already
/// run. Its stage is then missing that part while another part it runs
/// is done — so its done, queued and running counts add up to its width
/// with a part left idle. Both jobs must still queue what they miss and
/// finish with the same rows.
#[test]
fn two_live_jobs_over_one_dataset_share_its_shuffle() {
    let mut rig = local_rig(2);
    let ds = Dataset::<u64>::generate(4, |p| (0..200u64).map(|i| i * 4 + p as u64).collect())
        .map_with_cost(|x| (*x % 10, 1u64), Some(5e-3))
        .reduce_by_key(3, |a, b| a + b);
    let outputs = Rc::new(RefCell::new(Vec::new()));
    for _ in 0..2 {
        let o = Rc::clone(&outputs);
        rig.engine.submit_job(&mut rig.sim, ds.node(), move |_, out| {
            let mut rows = collect_partitions::<(u64, u64)>(out.partitions);
            rows.sort();
            o.borrow_mut().push(rows);
        });
    }
    let engine = rig.engine.clone();
    rig.sim.schedule_at(SimTime::from_millis(3_500), move |sim| {
        engine.kill_executor(sim, &"e-vm-0".into());
    });
    rig.sim.run();
    let expect: Vec<(u64, u64)> = (0..10).map(|k| (k, 80)).collect();
    assert_eq!(*outputs.borrow(), [expect.clone(), expect]);
    // The second job ran its part 2 when the kill struck and had run its
    // part 0 on the killed executor: it runs both again.
    let starts = |part: usize| {
        let events = rig.engine.event_log().snapshot();
        events
            .iter()
            .filter(|e| {
                matches!(e.kind, EngineEventKind::TaskStarted { task, .. }
                    if (task.job, task.stage.0, task.part) == (JobId(1), 0, part))
            })
            .count()
    };
    assert_eq!([starts(0), starts(1), starts(2), starts(3)], [2, 1, 2, 1]);
    assert!(!rig.engine.has_active_jobs());
}

/// Forwards every call to the store under test and notes, as each put
/// lands, the most blocks the bare store has held.
struct PeakBlocks {
    inner: Rc<dyn BlockStore>,
    bare: Rc<HdfsStore>,
    peak: Rc<Cell<usize>>,
}

impl BlockStore for PeakBlocks {
    fn kind(&self) -> &'static str {
        self.inner.kind()
    }
    fn survives_executor_loss(&self) -> bool {
        self.inner.survives_executor_loss()
    }
    fn put(&self, sim: &mut Sim, client: ClientLoc, block: BlockId, data: Bytes, cb: PutCallback) {
        let (bare, peak) = (Rc::clone(&self.bare), Rc::clone(&self.peak));
        let noted: PutCallback = Box::new(move |sim, r| {
            peak.set(peak.get().max(bare.block_count()));
            cb(sim, r)
        });
        self.inner.put(sim, client, block, data, noted);
    }
    fn get(&self, sim: &mut Sim, client: ClientLoc, block: BlockId, cb: GetCallback) {
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

/// A soak of `jobs` small aggregations arriving every 150 ms on two
/// executors over HDFS, each plan dropped once submitted, behind a
/// `FaultStore` that, with `write_faults`, fails every 13th put and, with
/// `slow_windows`, holds back by [`SLOW_BY`] every op started in a
/// [`SLOW_FOR`] window [`SLOW_FROM`] into each arrival period. Returns the
/// most blocks the store held at once and the bare store.
fn soak(jobs: u64, write_faults: bool, slow_windows: bool) -> (usize, Rc<HdfsStore>) {
    let fabric = Fabric::new();
    let hdfs = hdfs_store(&fabric);
    let faults = StoreFaults::new();
    if write_faults {
        (1..=jobs * 4 / 13).for_each(|n| faults.fail_nth_put(13 * n));
    }
    if slow_windows {
        for job in 0..jobs {
            let from = SimTime::from_millis(150 * job) + SLOW_FROM;
            faults.add_latency_window(from, from + SLOW_FOR, SLOW_BY);
        }
    }
    let peak = Rc::new(Cell::new(0));
    let store = Rc::new(PeakBlocks {
        inner: FaultStore::wrap(hdfs.clone(), faults.clone()),
        bare: hdfs.clone(),
        peak: Rc::clone(&peak),
    });
    let (mut sim, engine) = rig_over(&fabric, store, 2);
    let done = Rc::new(Cell::new(0));
    for job in 0..jobs {
        let (engine, done) = (engine.clone(), Rc::clone(&done));
        sim.schedule_at(SimTime::from_millis(150 * job), move |sim| {
            let ds = Dataset::parallelize((0..40u64).map(|i| (i % 5, job)).collect(), 2)
                .reduce_by_key(2, |a, b| a + b);
            engine.submit_job(sim, ds.node(), move |_, out| {
                let rows = collect_partitions::<(u64, u64)>(out.partitions);
                let exact = rows.iter().all(|&(_, sum)| sum == 8 * job);
                assert!(exact, "job {job}: {rows:?}");
                done.set(done.get() + 1);
            });
        });
    }
    sim.run();
    assert_eq!(done.get(), jobs, "every job completes");
    let struck = if write_faults { jobs * 4 / 13 } else { 0 };
    assert_eq!(faults.puts_failed(), struck);
    assert_eq!(faults.ops_delayed() > 0, slow_windows);
    assert_eq!(engine.live_state(), IDLE);
    (peak.get(), hdfs)
}

/// The latency windows of a soak: long enough after each arrival to catch
/// a failed writer's sibling put, short enough that its retry is not
/// held back.
const SLOW_FROM: SimDuration = SimDuration::from_millis(10);
const SLOW_FOR: SimDuration = SimDuration::from_millis(10);
const SLOW_BY: SimDuration = SimDuration::from_millis(100);

/// What an idle engine holds, however many jobs it ran.
const IDLE: LiveState = LiveState {
    jobs: 0,
    shuffles: 0,
    attempts: 0,
    parked_computes: 0,
    store_ops: 0,
};

/// The store's memory follows the live jobs: a run of N jobs and one of
/// 4N end holding no block, and the larger one never held more at once —
/// without faults, with write faults failing map tasks mid-write, and with
/// those and latency windows on top, which hold a failed writer's other
/// puts back until after its job is over.
#[test]
fn store_blocks_follow_live_jobs_not_finished_ones() {
    for plan @ (write_faults, slow_windows) in [(false, false), (true, false), (true, true)] {
        let (peak_n, end_n) = soak(25, write_faults, slow_windows);
        let (peak_4n, end_4n) = soak(100, write_faults, slow_windows);
        for end in [&end_n, &end_4n] {
            let held = (end.block_count(), end.used_bytes());
            assert_eq!(held, (0, 0), "faults: {plan:?}");
        }
        assert!(peak_n > 0, "faults: {plan:?}");
        assert_eq!(peak_4n, peak_n, "faults: {plan:?}");
    }
}

/// A job can finish while one of its own tasks is still running: kill an
/// executor holding local map output *after* the reduce tasks fetched it,
/// and the rolled-back map task is re-run although nobody will read its
/// output. The job's state must outlive its completion until that stale
/// attempt lands — and not a moment longer.
#[test]
fn stale_attempt_of_a_finished_job_lands_safely() {
    let mut rig = local_rig(4);
    // Three 5 s map tasks (e-vm-0..2), then two ~9 s reduce tasks (e-vm-0
    // and e-vm-1); e-vm-3 stays idle until the rollback needs it.
    let ds = Dataset::<u64>::generate(3, |p| (0..1_000u64).map(|i| i * 3 + p as u64).collect())
        .map_with_cost(|x| (*x, 1u64), Some(5e-3))
        .reduce_by_key(2, |a, b| a + b)
        .map_with_cost(|kv| *kv, Some(6e-3));
    let finished_at: Rc<RefCell<Option<(SimTime, LiveState)>>> = Rc::new(RefCell::new(None));
    let f = Rc::clone(&finished_at);
    let engine = rig.engine.clone();
    rig.engine.submit_job(&mut rig.sim, ds.node(), move |sim, out| {
        assert_eq!(collect_partitions::<(u64, u64)>(out.partitions).len(), 3_000);
        *f.borrow_mut() = Some((sim.now(), engine.live_state()));
    });
    drop(ds);
    let engine = rig.engine.clone();
    rig.sim.schedule_at(SimTime::from_secs(11), move |sim| {
        // The reducers hold their fetched inputs and are computing.
        assert_eq!(engine.live_state().attempts, 2);
        engine.kill_executor(sim, &"e-vm-2".into());
    });
    rig.sim.run();

    let (job_done, at_completion) = finished_at.borrow_mut().take().expect("job completes");
    assert_eq!(
        at_completion,
        LiveState {
            jobs: 1,
            shuffles: 1,
            attempts: 1,
            parked_computes: 1,
            store_ops: 0
        },
        "the finished job is held while its re-run map task is in flight"
    );
    let events = rig.engine.event_log().snapshot();
    assert!(events
        .iter()
        .any(|e| matches!(e.kind, EngineEventKind::StageRolledBack { missing: 1, .. })));
    let rerun_done = events
        .iter()
        .rev()
        .find_map(|e| match e.kind {
            EngineEventKind::TaskFinished { task, .. } if task.exec.as_str() == "e-vm-3" => Some(e.at),
            _ => None,
        })
        .expect("the re-run map task ran to the end on the spare executor");
    assert!(rerun_done > job_done, "{rerun_done} vs {job_done}");
    let spare = rig.engine.executor_info(&"e-vm-3".into()).expect("registered");
    assert!(spare.alive && !spare.busy && spare.tasks_done == 1);
    assert_eq!(rig.engine.live_state(), IDLE);
}

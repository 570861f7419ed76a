//! Failure-injection tests across the whole stack: Lambda lifetime kills,
//! the rollback cascade with local shuffle, and its absence with the
//! shared HDFS layer — the architectural heart of the paper.
//!
//! The churn schedules are named, replayable [`FaultPlan`]s armed through
//! the chaos injector rather than hand-rolled `schedule_at` loops; a
//! failing scenario can be reprinted (`plan.to_json()`) and replayed
//! bit-for-bit from the JSON alone.

use std::cell::RefCell;
use std::rc::Rc;

use splitserve::{Deployment, DriverProgram, ShuffleStoreKind};
use splitserve_chaos::{inject, FaultPlan};
use splitserve_cloud::{CloudSpec, M4_XLARGE};
use splitserve_des::{Dist, Sim, SimDuration};
use splitserve_engine::{collect_partitions, Dataset, EngineEventKind};
use splitserve_workloads::PageRank;

fn short_lifetime_cloud(lifetime_secs: u64) -> CloudSpec {
    CloudSpec {
        lambda_lifetime: SimDuration::from_secs(lifetime_secs),
        lambda_warm_start: Dist::constant(0.1),
        lambda_net_jitter: Dist::constant(1.0),
        ..CloudSpec::default()
    }
}

/// A job that outlives a short Lambda lifetime.
fn long_job() -> Dataset<(u64, u64)> {
    Dataset::<u64>::generate(32, |p| (0..5_000u64).map(|i| i + p as u64).collect())
        .map_with_cost(|x| (*x % 8, 1u64), Some(8e-4))
        .reduce_by_key(8, |a, b| a + b)
}

/// The named replacement-wave schedule of the original hand-rolled test:
/// overlapping fresh capacity every 5 s while 20 s-lifetime containers
/// age out underneath it.
fn lifetime_churn_plan(waves: u32) -> FaultPlan {
    FaultPlan::replacement_waves(waves, 5, 2)
}

#[test]
fn lambda_lifetime_kill_mid_job_recovers_with_hdfs() {
    // 4 Lambdas with a 20 s lifetime on a ~80 s job: every container is
    // killed and replaced by fresh requests from the replacement-wave
    // plan; shuffle data survives on HDFS so only in-flight tasks are
    // redone.
    let mut sim = Sim::new(9);
    let d = Deployment::new(
        &mut sim,
        short_lifetime_cloud(20),
        ShuffleStoreKind::Hdfs,
        M4_XLARGE,
    );
    d.add_lambda_executors(&mut sim, 4);
    let plan = lifetime_churn_plan(29);
    assert_eq!(
        FaultPlan::from_json(&plan.to_json()).unwrap(),
        plan,
        "the scenario is replayable from its printed form"
    );
    let report = inject::arm(&mut sim, &d, &plan);
    let out = Rc::new(RefCell::new(None));
    let o = Rc::clone(&out);
    d.engine().submit_job(&mut sim, long_job().node(), move |_, r| {
        *o.borrow_mut() = Some((
            collect_partitions::<(u64, u64)>(r.partitions),
            r.metrics.clone(),
        ));
    });
    sim.run();
    let (mut rows, metrics) = out.borrow_mut().take().expect("job survives the churn");
    rows.sort();
    assert_eq!(rows.len(), 8);
    assert!(rows.iter().all(|(_, c)| *c == 20_000));
    assert_eq!(report.capacity_adds(), 29, "every wave fired");
    // Kills definitely happened (the platform's, not the injector's)…
    let events = d.engine().event_log().snapshot();
    let kills = events
        .iter()
        .filter(|e| matches!(e.kind, EngineEventKind::ExecutorLost { .. }))
        .count();
    assert!(kills >= 2, "expected lifetime kills, saw {kills}");
    // …but no stage ever rolled back: HDFS kept the map outputs.
    assert!(
        !events
            .iter()
            .any(|e| matches!(e.kind, EngineEventKind::StageRolledBack { .. })),
        "HDFS shuffle must prevent rollback"
    );
    // Only in-flight tasks were redone (bounded by the number of kills).
    assert!(metrics.tasks_recomputed <= kills as u64);
}

#[test]
fn same_churn_with_local_shuffle_triggers_rollback_but_still_finishes() {
    let mut sim = Sim::new(9);
    let d = Deployment::new(
        &mut sim,
        short_lifetime_cloud(20),
        ShuffleStoreKind::Local,
        M4_XLARGE,
    );
    d.add_lambda_executors(&mut sim, 4);
    // With executor-local shuffle, perpetual churn livelocks: map outputs
    // die before reducers can drain them (exactly why pure-Lambda vanilla
    // Spark is untenable). Stable VM capacity arriving at t=60 s ends the
    // rollback storm.
    let plan = lifetime_churn_plan(11).with_vm_rescue(60, 8);
    inject::arm(&mut sim, &d, &plan);
    let out = Rc::new(RefCell::new(None));
    let o = Rc::clone(&out);
    d.engine().submit_job(&mut sim, long_job().node(), move |_, r| {
        *o.borrow_mut() = Some((
            collect_partitions::<(u64, u64)>(r.partitions),
            r.metrics.clone(),
        ));
    });
    sim.run();
    let (mut rows, metrics) = out.borrow_mut().take().expect("recovers eventually");
    rows.sort();
    assert_eq!(rows.len(), 8);
    assert!(rows.iter().all(|(_, c)| *c == 20_000), "results still exact");
    let events = d.engine().event_log().snapshot();
    // Recovery is visible as re-executed map tasks: the map stage is 32
    // partitions wide, but dead executors' finished outputs had to be
    // recomputed, so more than 32 map tasks ran to completion.
    let map_stage_finishes = events
        .iter()
        .filter(|e| {
            matches!(&e.kind, EngineEventKind::TaskFinished { task, .. } if task.stage.0 == 0)
        })
        .count();
    assert!(
        map_stage_finishes > 32,
        "lost local shuffle outputs must be recomputed: {map_stage_finishes} map finishes"
    );
    assert!(
        metrics.tasks_recomputed > 0,
        "rollback means recomputation: {metrics:?}"
    );
}

#[test]
fn rollback_makes_local_store_slower_than_hdfs_under_churn() {
    // The quantitative version of the two tests above: identical churn,
    // identical job — the store choice decides how much work is redone.
    let plan = lifetime_churn_plan(11).with_vm_rescue(60, 8);
    let run = |store: ShuffleStoreKind| {
        let mut sim = Sim::new(13);
        let d = Deployment::new(&mut sim, short_lifetime_cloud(20), store, M4_XLARGE);
        d.add_lambda_executors(&mut sim, 4);
        inject::arm(&mut sim, &d, &plan);
        let done = Rc::new(RefCell::new(None));
        let dn = Rc::clone(&done);
        d.engine().submit_job(&mut sim, long_job().node(), move |sim, r| {
            *dn.borrow_mut() = Some((sim.now().as_secs_f64(), r.metrics.tasks_recomputed));
        });
        sim.run();
        let out = done.borrow_mut().take().expect("completed");
        out
    };
    let (t_hdfs, redo_hdfs) = run(ShuffleStoreKind::Hdfs);
    let (t_local, redo_local) = run(ShuffleStoreKind::Local);
    assert!(
        redo_local > redo_hdfs,
        "local store must redo more work: {redo_local} vs {redo_hdfs}"
    );
    assert!(
        t_local > t_hdfs,
        "rollback must cost time: local {t_local:.1}s vs hdfs {t_hdfs:.1}s"
    );
}

#[test]
fn segue_under_pagerank_never_recomputes() {
    use splitserve::{arm_segue, SegueConfig};
    let mut sim = Sim::new(17);
    let d = Deployment::new(
        &mut sim,
        CloudSpec::default(),
        ShuffleStoreKind::Hdfs,
        M4_XLARGE,
    );
    d.add_vm_workers(&mut sim, splitserve_cloud::M4_4XLARGE, 3);
    d.add_lambda_executors(&mut sim, 13);
    arm_segue(
        &mut sim,
        &d,
        SegueConfig::existing_cores(13, SimDuration::from_secs(15))
            .with_lambda_timeout(SimDuration::from_secs(10)),
    );
    let w = PageRank::new(30_000, 3, 16, 17).with_contrib_cost(2e-4);
    let done = Rc::new(RefCell::new(false));
    let dn = Rc::clone(&done);
    w.submit(
        &mut sim,
        d.engine(),
        Box::new(move |_| *dn.borrow_mut() = true),
    );
    sim.run();
    assert!(*done.borrow());
    let m = &d.engine().completed_job_metrics()[0];
    assert_eq!(m.tasks_recomputed, 0);
    assert!(m.tasks_on_lambda > 0 && m.tasks_on_vm > 0);
}

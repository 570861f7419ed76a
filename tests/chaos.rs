//! The chaos sweep: seeded fault plans × workloads × shuffle stores,
//! judged by the differential oracle; a failing plan is shrunk to a
//! minimal reproduction and printed as a `CHAOS_SEED=… CHAOS_PLAN=…`
//! line that [`replay_from_env`] replays verbatim:
//!
//! ```text
//! CHAOS_SEED=7 CHAOS_PLAN='{"seed":7,…}' cargo test --test chaos replay_from_env
//! ```

use std::cell::RefCell;
use std::collections::HashSet;
use std::rc::Rc;

use splitserve::{arm_segue, Deployment, SegueConfig, ShuffleStoreKind};
use splitserve_chaos::workloads::{
    ChaosCloudSort, ChaosKMeans, ChaosPageRank, ChaosSparkPi, ChaosWorkload,
};
use splitserve_chaos::{
    check_or_shrink, run_case, shrink_events, ChaosTopology, FaultEvent, FaultPlan, Oracle,
};
use splitserve_cloud::{CloudSpec, M4_4XLARGE, M4_XLARGE};
use splitserve_des::{Sim, SimDuration};
use splitserve_engine::{EngineEventKind, TaskRef};
use splitserve_workloads::PageRank;

/// Sweeps 64 generated plans for one workload. Each workload uses its own
/// seed base so the three sweeps exercise disjoint plans; failures are
/// shrunk and printed as replayable repro lines before panicking.
fn sweep(workload: &dyn ChaosWorkload, seed_base: u64, seeds: u64) {
    let oracle = Oracle::new(workload, ChaosTopology::default());
    let mut checked = 0u64;
    for seed in seed_base..seed_base + seeds {
        let plan = FaultPlan::generate(seed);
        if let Err(failure) = check_or_shrink(&oracle, &plan) {
            panic!("seed {seed}: {failure}");
        }
        checked += 1;
    }
    assert_eq!(checked, seeds);
}

#[test]
fn sweep_pagerank_64_seeds() {
    sweep(&ChaosPageRank::small(), 0, 64);
}

#[test]
fn sweep_cloudsort_64_seeds() {
    sweep(&ChaosCloudSort::small(), 1_000, 64);
}

#[test]
fn sweep_sparkpi_64_seeds() {
    sweep(&ChaosSparkPi::small(), 2_000, 64);
}

#[test]
fn sweep_kmeans_16_seeds() {
    // The iterative driver is the most expensive workload; a smaller
    // sweep still covers faults landing *between* its jobs.
    sweep(&ChaosKMeans::small(), 3_000, 16);
}

/// A sanity anchor for the sweeps above: at least some generated plans
/// must actually provoke rollbacks under executor-local shuffle on this
/// topology, otherwise the oracle is vacuously green.
#[test]
fn generated_plans_reach_the_rollback_path() {
    let w = ChaosPageRank::small();
    let topo = ChaosTopology::default();
    let mut provoked = 0;
    for seed in 0..64 {
        let plan = FaultPlan::generate(seed);
        let r = run_case(&w, ShuffleStoreKind::Local, Some(&plan), &topo);
        if r.rollbacks > 0 {
            provoked += 1;
        }
    }
    assert!(
        provoked >= 4,
        "only {provoked}/64 plans provoked a rollback — the sweep lost its teeth"
    );
}

/// Replays a repro line printed by a failed sweep:
/// `CHAOS_PLAN='<json>' cargo test --test chaos replay_from_env`.
/// (`CHAOS_SEED` alone regenerates the unshrunk plan.) A no-op when
/// neither variable is set.
#[test]
fn replay_from_env() {
    let plan = match std::env::var("CHAOS_PLAN") {
        Ok(json) => FaultPlan::from_json(&json).expect("CHAOS_PLAN must be valid plan JSON"),
        Err(_) => match std::env::var("CHAOS_SEED") {
            Ok(seed) => FaultPlan::generate(seed.parse().expect("CHAOS_SEED must be a u64")),
            Err(_) => return,
        },
    };
    let workloads: [&dyn ChaosWorkload; 4] = [
        &ChaosPageRank::small(),
        &ChaosCloudSort::small(),
        &ChaosSparkPi::small(),
        &ChaosKMeans::small(),
    ];
    for w in workloads {
        let oracle = Oracle::new(w, ChaosTopology::default());
        oracle
            .check(&plan)
            .unwrap_or_else(|failure| panic!("{failure}"));
        eprintln!("replayed plan against {}: ok", w.name());
    }
}

/// The acceptance bar for shrinking: a plan whose failure is caused by a
/// single event, buried under padding events, must shrink to ≤3 events —
/// and the shrunk plan must still reproduce.
#[test]
fn a_buried_guilty_event_shrinks_to_a_tiny_repro() {
    let w = ChaosPageRank::small();
    let topo = ChaosTopology::default();
    // The burst kill at 10 s destroys live shuffle blocks mid-job under
    // executor-local storage (verified by `expected_rollback` below); the
    // other five events are noise that must shrink away.
    let guilty = FaultEvent::BurstKill {
        at_us: 10_000_000,
        min_age_us: 0,
    };
    let plan = FaultPlan {
        seed: 4242,
        events: vec![
            FaultEvent::Latency {
                from_us: 2_000_000,
                until_us: 4_000_000,
                extra_us: 50_000,
            },
            FaultEvent::AddLambdas {
                at_us: 3_000_000,
                count: 2,
            },
            guilty.clone(),
            FaultEvent::Straggle {
                at_us: 12_000_000,
                lambda: 1,
                slowdown_pct: 300,
                for_us: 5_000_000,
            },
            FaultEvent::AddLambdas {
                at_us: 20_000_000,
                count: 1,
            },
            FaultEvent::WriteFail { nth: 40 },
        ],
    };
    // "Failing" here = the plan provokes a rollback cascade under local
    // shuffle; the padding events cannot do that on their own.
    let fails = |p: &FaultPlan| {
        let r = run_case(&w, ShuffleStoreKind::Local, Some(p), &topo);
        r.rollbacks > 0
    };
    let full = run_case(&w, ShuffleStoreKind::Local, Some(&plan), &topo);
    assert!(
        full.expected_rollback && full.rollbacks > 0,
        "the guilty event must matter: {full:?}"
    );
    let shrunk = shrink_events(&plan, fails);
    assert!(
        shrunk.events.len() <= 3,
        "repro must be tiny, got {} events: {}",
        shrunk.events.len(),
        shrunk.to_json()
    );
    assert!(shrunk.events.contains(&guilty), "the culprit survives");
    assert!(fails(&shrunk), "the shrunk plan still reproduces");
    // The repro line round-trips and replays to the same verdict.
    let replayed = FaultPlan::from_json(&shrunk.to_json()).unwrap();
    assert_eq!(replayed, shrunk);
    assert!(fails(&replayed));
}

/// The segue regression the paper's §4.3 motivates: a graceful drain
/// (including drains forced by `with_lambda_timeout`) under an active job
/// must never roll a stage back, and a draining executor must never
/// receive another task.
#[test]
fn segue_drain_never_rolls_back_and_never_reschedules_onto_drained_executors() {
    let mut sim = Sim::new(17);
    let d = Deployment::new(
        &mut sim,
        CloudSpec::default(),
        ShuffleStoreKind::Hdfs,
        M4_XLARGE,
    );
    d.add_vm_workers(&mut sim, M4_4XLARGE, 3);
    d.add_lambda_executors(&mut sim, 13);
    arm_segue(
        &mut sim,
        &d,
        SegueConfig::existing_cores(13, SimDuration::from_secs(15))
            .with_lambda_timeout(SimDuration::from_secs(10)),
    );
    let w = PageRank::new(20_000, 3, 16, 17).with_contrib_cost(2e-4);
    let done = Rc::new(RefCell::new(false));
    let dn = Rc::clone(&done);
    use splitserve::DriverProgram;
    w.submit(
        &mut sim,
        d.engine(),
        Box::new(move |_| *dn.borrow_mut() = true),
    );
    sim.run();
    assert!(*done.borrow(), "job completes through the drain");

    let events = d.engine().event_log().snapshot();
    let drains = events
        .iter()
        .filter(|e| matches!(e.kind, EngineEventKind::ExecutorDraining { .. }))
        .count();
    assert!(drains > 0, "the lambda timeout must have forced drains");
    assert!(
        !events
            .iter()
            .any(|e| matches!(e.kind, EngineEventKind::StageRolledBack { .. })),
        "a graceful drain never rolls back"
    );
    // Replay the log: once an executor starts draining, no task may start
    // on it — that is what distinguishes segue from a kill.
    let mut draining: HashSet<String> = HashSet::new();
    for e in &events {
        match &e.kind {
            EngineEventKind::ExecutorDraining { exec } => {
                draining.insert(exec.to_string());
            }
            EngineEventKind::TaskStarted { task: TaskRef { exec, stage, part, .. }, .. } => {
                assert!(
                    !draining.contains(&exec.to_string()),
                    "task {stage:?}/{part} started on draining executor {exec} at {:?}",
                    e.at
                );
            }
            _ => {}
        }
    }
    assert_eq!(d.engine().completed_job_metrics()[0].tasks_recomputed, 0);
}

/// An injected drain (the plan's `drain` event) is segue's fault-plane
/// twin, driven through [`inject::arm`] instead of the segue controller.
/// It shows drains alone don't deliver the paper's guarantee — the
/// *store* does: under shared shuffle a drain never rolls back, while
/// under executor-local shuffle the drained executor's blocks vanish at
/// decommission and completed stages re-run. Output is exact either way.
#[test]
fn injected_drains_are_graceful_only_with_shared_shuffle() {
    let topo = ChaosTopology::default();
    let plan = FaultPlan {
        seed: 99,
        events: vec![
            FaultEvent::Drain {
                at_us: 4_000_000,
                lambda: 0,
            },
            FaultEvent::Drain {
                at_us: 6_000_000,
                lambda: 1,
            },
        ],
    };
    let w = ChaosPageRank::small();
    let faultless = run_case(&w, ShuffleStoreKind::Hdfs, None, &topo);
    for kind in [ShuffleStoreKind::Hdfs, ShuffleStoreKind::Local] {
        let r = run_case(&w, kind, Some(&plan), &topo);
        assert_eq!(r.drains, 2, "both drains performed under {kind}");
        assert_eq!(
            r.fingerprint, faultless.fingerprint,
            "drains must not change the output under {kind}"
        );
        match kind {
            ShuffleStoreKind::Hdfs => {
                assert_eq!(r.rollbacks, 0, "shared shuffle makes drains rollback-free");
            }
            _ => {
                assert!(
                    r.rollbacks > 0,
                    "decommissioning a block-holding executor under local shuffle \
                     must re-run its completed stages"
                );
            }
        }
    }
}

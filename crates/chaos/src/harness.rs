//! The differential chaos harness.
//!
//! [`run_case`] executes one workload under one shuffle store with an
//! optional fault plan on a fixed churn-capable topology and reduces the
//! run to a [`CaseResult`]: output fingerprint, rollback/loss counts and
//! injected-fault tallies. [`Oracle`] turns pairs of such runs into the
//! paper's differential claim:
//!
//! - **Shared (HDFS) shuffle**: output is bit-identical to the fault-free
//!   reference, and stages roll back *only* when an injected fetch
//!   failure fired (executor loss alone never cascades — §4.3).
//! - **Executor-local shuffle**: output is still bit-identical (lineage
//!   recovers data), but a kill that destroyed live shuffle blocks *must*
//!   roll back completed stages, and rollbacks never appear without such
//!   a kill, an injected fetch failure, or a drain-decommission.

use std::cell::RefCell;
use std::rc::Rc;

use splitserve::{Deployment, ShuffleStoreKind};
use splitserve_cloud::{CloudSpec, M4_4XLARGE, M4_XLARGE};
use splitserve_des::{Dist, Sim, SimTime};
use splitserve_engine::{flight_dump, EngineConfig, EngineEvent, EngineEventKind};
use splitserve_obs::Obs;
use splitserve_storage::{FaultStore, StoreFaults};

use crate::inject::{self, InjectionReport};
use crate::plan::FaultPlan;
use crate::workloads::ChaosWorkload;

/// What a caller may vary about a chaos case's cluster. The shape itself
/// is fixed (the constants of [`run_case`]): a couple of VM cores, an
/// initial Lambda fleet, periodic replacement waves, and a late VM rescue
/// so every plan the generator can produce still completes — shrinking
/// must never deadlock on a case that starved itself of executors.
#[derive(Debug, Clone)]
pub struct ChaosTopology {
    /// Worker threads for the engine's task data plane (1 = inline).
    /// Virtual-time results are byte-identical at any setting, which the
    /// differential harness exploits to cross-check the parallel path.
    pub workers: usize,
}

impl Default for ChaosTopology {
    fn default() -> Self {
        ChaosTopology { workers: 1 }
    }
}

/// Simulation seed (independent of the plan seed).
const SIM_SEED: u64 = 11;
/// VM executor cores registered up front.
const VM_CORES: u32 = 2;
/// Lambda executors launched at t=0.
const INITIAL_LAMBDAS: u32 = 4;
/// Replacement waves: this many waves …
const WAVE_COUNT: u32 = 10;
/// … one every this many seconds (first at that instant) …
const WAVE_EVERY_S: u64 = 5;
/// … of this many Lambdas each.
const WAVE_SIZE: u32 = 2;
/// When the VM rescue arrives, seconds …
const RESCUE_AT_S: u64 = 60;
/// … and its VM cores.
const RESCUE_CORES: u32 = 8;

/// The cloud spec: constant start/jitter distributions so a case's
/// timeline depends only on (plan, store kind). The Lambda lifetime is
/// the spec default, long enough to never fire in a chaos case.
fn cloud_spec() -> CloudSpec {
    CloudSpec {
        vm_boot: Dist::constant(110.0),
        lambda_warm_start: Dist::constant(0.1),
        lambda_cold_start: Dist::constant(3.0),
        lambda_net_jitter: Dist::constant(1.0),
        // The 64-case chaos digest is pinned against the legacy
        // infinite warm pool.
        coldstart: splitserve_cloud::ColdStartSpec::forever(),
        ..CloudSpec::default()
    }
}

/// Everything one chaos case produced.
#[derive(Debug, Clone)]
pub struct CaseResult {
    /// The shuffle store the case ran under.
    pub store: ShuffleStoreKind,
    /// Output fingerprint; `None` when the run never completed.
    pub fingerprint: Option<u64>,
    /// Virtual completion instant of the last job, if it completed.
    pub completed_at: Option<SimTime>,
    /// `StageRolledBack` events observed.
    pub rollbacks: usize,
    /// `ExecutorLost` events observed (injected + organic).
    pub executor_losses: usize,
    /// Tasks re-run across all completed jobs.
    pub recomputed: u64,
    /// Injected shuffle-fetch failures that actually fired.
    pub fetch_faults: u64,
    /// Injected shuffle-write failures that actually fired.
    pub write_faults: u64,
    /// Store ops delayed by injected latency windows.
    pub delays: u64,
    /// Executors the injector killed.
    pub kills: u64,
    /// Executors the injector drained.
    pub drains: u64,
    /// Whether any injected kill destroyed live shuffle blocks (always
    /// `false` under stores that survive executor loss).
    pub expected_rollback: bool,
    /// The case's observability handle, for asserting on
    /// `faults_injected_total` and friends.
    pub obs: Obs,
    /// The run's engine events, injected faults inline.
    pub events: Vec<EngineEvent>,
}

impl CaseResult {
    /// The post-mortem dump of this run (see [`flight_dump`]): the tail
    /// of its event stream with `reason` and the `repro` line embedded.
    pub fn flight_dump(&self, reason: &str, repro: &str) -> String {
        flight_dump(&self.events, reason, Some(repro))
    }
}

/// Runs `workload` under `kind` with the given plan (None = fault-free)
/// on `topo`. Fully deterministic: same inputs, same [`CaseResult`].
pub fn run_case(
    workload: &dyn ChaosWorkload,
    kind: ShuffleStoreKind,
    plan: Option<&FaultPlan>,
    topo: &ChaosTopology,
) -> CaseResult {
    let mut sim = Sim::new(SIM_SEED);
    let obs = Obs::enabled();
    let faults = StoreFaults::new().with_metrics(obs.metrics.clone());
    if let Some(p) = plan {
        p.arm_store_faults(&faults);
    }
    let cfg = EngineConfig {
        obs: obs.clone(),
        workers: topo.workers,
        ..EngineConfig::default()
    };
    let wrapped = faults.clone();
    let d = Deployment::with_wrapped_store(
        &mut sim,
        cloud_spec(),
        kind,
        M4_XLARGE,
        cfg,
        move |store| FaultStore::wrap(store, wrapped),
    );
    d.add_vm_cores(&mut sim, &M4_4XLARGE, VM_CORES);
    d.add_lambda_executors(&mut sim, INITIAL_LAMBDAS);
    let capacity = FaultPlan::replacement_waves(WAVE_COUNT, WAVE_EVERY_S, WAVE_SIZE)
        .with_vm_rescue(RESCUE_AT_S, RESCUE_CORES);
    inject::arm(&mut sim, &d, &capacity);
    let report = match plan {
        Some(p) => inject::arm(&mut sim, &d, p),
        None => InjectionReport::default(),
    };
    let done: Rc<RefCell<Option<(u64, SimTime)>>> = Rc::new(RefCell::new(None));
    let sink = Rc::clone(&done);
    workload.submit(
        &mut sim,
        d.engine(),
        Box::new(move |sim, fp| {
            *sink.borrow_mut() = Some((fp, sim.now()));
        }),
    );
    sim.run();
    let events = d.engine().event_log().snapshot();
    let rollbacks = events
        .iter()
        .filter(|e| matches!(e.kind, EngineEventKind::StageRolledBack { .. }))
        .count();
    let executor_losses = events
        .iter()
        .filter(|e| matches!(e.kind, EngineEventKind::ExecutorLost { .. }))
        .count();
    let recomputed = d
        .engine()
        .completed_job_metrics()
        .iter()
        .map(|m| m.tasks_recomputed)
        .sum();
    let (fingerprint, completed_at) = match done.borrow_mut().take() {
        Some((fp, at)) => (Some(fp), Some(at)),
        None => (None, None),
    };
    CaseResult {
        store: kind,
        fingerprint,
        completed_at,
        rollbacks,
        executor_losses,
        recomputed,
        fetch_faults: faults.gets_failed(),
        write_faults: faults.puts_failed(),
        delays: faults.ops_delayed(),
        kills: report.kills(),
        drains: report.drains(),
        expected_rollback: report.expected_rollback(),
        obs,
        events,
    }
}

/// An oracle violation: which store broke which invariant under which
/// plan. `ChaosFailure::repro_line` prints the one-line deterministic
/// reproduction.
#[derive(Debug, Clone)]
pub struct ChaosFailure {
    /// The workload that was running.
    pub workload: String,
    /// The store kind whose run violated the oracle.
    pub store: ShuffleStoreKind,
    /// What went wrong.
    pub reason: String,
    /// The plan that provoked it (possibly shrunk).
    pub plan: FaultPlan,
    /// The violating run's post-mortem dump — a replayable JSON snapshot
    /// of its most recent engine events (task transitions, executor
    /// churn, rollbacks, injected faults), with
    /// `ChaosFailure::repro_line` embedded. `None` only for failures
    /// constructed without a run (e.g. in tests).
    pub flight_dump: Option<String>,
}

impl ChaosFailure {
    /// The copy-pasteable replay line.
    pub(crate) fn repro_line(&self) -> String {
        format!("CHAOS_SEED={} CHAOS_PLAN={}", self.plan.seed, self.plan.to_json())
    }
}

impl std::fmt::Display for ChaosFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "chaos oracle violated [{} / {} shuffle]: {}\n  replay: {}",
            self.workload,
            self.store,
            self.reason,
            self.repro_line()
        )
    }
}

impl std::error::Error for ChaosFailure {}

/// Both halves of a differential run that passed the oracle.
#[derive(Debug, Clone)]
pub struct PlanOutcome {
    /// The shared-store (HDFS) half.
    pub hdfs: CaseResult,
    /// The executor-local half.
    pub local: CaseResult,
}

/// The differential oracle for one workload on one topology. Construction
/// runs the fault-free references under both store kinds and pins their
/// (identical) fingerprint; [`Oracle::check`] then judges fault plans
/// against it.
pub struct Oracle<'a> {
    workload: &'a dyn ChaosWorkload,
    topo: ChaosTopology,
    reference: u64,
}

impl<'a> Oracle<'a> {
    /// Runs the two fault-free references and pins the fingerprint.
    ///
    /// # Panics
    ///
    /// Panics if a fault-free run fails to complete, rolls back, or the
    /// two store kinds disagree — the harness itself is broken then, and
    /// no plan verdict would be meaningful.
    pub fn new(workload: &'a dyn ChaosWorkload, topo: ChaosTopology) -> Self {
        let hdfs = run_case(workload, ShuffleStoreKind::Hdfs, None, &topo);
        let local = run_case(workload, ShuffleStoreKind::Local, None, &topo);
        let name = workload.name();
        let fp_hdfs = hdfs
            .fingerprint
            .unwrap_or_else(|| panic!("{name}: fault-free HDFS reference did not complete"));
        let fp_local = local
            .fingerprint
            .unwrap_or_else(|| panic!("{name}: fault-free local reference did not complete"));
        assert_eq!(
            fp_hdfs, fp_local,
            "{name}: fault-free output differs across store kinds"
        );
        assert_eq!(hdfs.rollbacks, 0, "{name}: fault-free HDFS run rolled back");
        assert_eq!(local.rollbacks, 0, "{name}: fault-free local run rolled back");
        Oracle {
            workload,
            topo,
            reference: fp_hdfs,
        }
    }

    /// Runs `plan` under both store kinds and checks every invariant.
    pub fn check(&self, plan: &FaultPlan) -> Result<PlanOutcome, Box<ChaosFailure>> {
        let hdfs = run_case(self.workload, ShuffleStoreKind::Hdfs, Some(plan), &self.topo);
        self.check_store(&hdfs, plan)?;
        let local = run_case(self.workload, ShuffleStoreKind::Local, Some(plan), &self.topo);
        self.check_store(&local, plan)?;
        Ok(PlanOutcome { hdfs, local })
    }

    fn fail(&self, r: &CaseResult, reason: String, plan: &FaultPlan) -> Box<ChaosFailure> {
        let mut failure = ChaosFailure {
            workload: self.workload.name().to_string(),
            store: r.store,
            reason,
            plan: plan.clone(),
            flight_dump: None,
        };
        // Dump the tail of the violating run's events with the repro
        // line embedded: the dump is both post-mortem evidence and, via
        // the line, a deterministic test vector.
        failure.flight_dump = Some(r.flight_dump(&failure.reason, &failure.repro_line()));
        Box::new(failure)
    }

    fn check_store(&self, r: &CaseResult, plan: &FaultPlan) -> Result<(), Box<ChaosFailure>> {
        let Some(fp) = r.fingerprint else {
            return Err(self.fail(r, "run did not complete".into(), plan));
        };
        if fp != self.reference {
            return Err(self.fail(
                r,
                format!(
                    "output fingerprint {fp:#018x} diverged from fault-free reference {:#018x}",
                    self.reference
                ),
                plan,
            ));
        }
        // A kill can strike an executor mid-fetch and abort the attempt
        // before its failed fetch reaches the scheduler, so the forward
        // implication (fault fired → rollback) is only asserted on plans
        // with no executor churn at all.
        let churn_free = !plan.has_kills() && !plan.has_drains();
        match r.store {
            ShuffleStoreKind::Hdfs => {
                if r.rollbacks > 0 && r.fetch_faults == 0 {
                    return Err(self.fail(
                        r,
                        format!(
                            "{} stage(s) rolled back under shared shuffle with no injected \
                             fetch failure ({} executor losses) — executor loss must not \
                             cascade when blocks survive",
                            r.rollbacks, r.executor_losses
                        ),
                        plan,
                    ));
                }
                if churn_free && r.fetch_faults > 0 && r.rollbacks == 0 {
                    return Err(self.fail(
                        r,
                        format!(
                            "{} injected fetch failure(s) fired but no stage rolled back",
                            r.fetch_faults
                        ),
                        plan,
                    ));
                }
            }
            ShuffleStoreKind::Local => {
                let explained =
                    r.expected_rollback || r.fetch_faults > 0 || plan.has_drains();
                if r.rollbacks > 0 && !explained {
                    return Err(self.fail(
                        r,
                        format!(
                            "{} stage(s) rolled back though no kill destroyed live shuffle \
                             blocks and no fetch failure was injected",
                            r.rollbacks
                        ),
                        plan,
                    ));
                }
                if r.expected_rollback && r.rollbacks == 0 {
                    return Err(self.fail(
                        r,
                        "a kill destroyed live shuffle blocks of a completed stage but no \
                         rollback was recorded"
                            .into(),
                        plan,
                    ));
                }
            }
            _ => {}
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::ChaosSparkPi;

    #[test]
    fn oracle_accepts_the_empty_plan() {
        let w = ChaosSparkPi::small();
        let oracle = Oracle::new(&w, ChaosTopology::default());
        let outcome = oracle.check(&FaultPlan::empty()).expect("empty plan passes");
        assert_eq!(outcome.hdfs.fingerprint, outcome.local.fingerprint);
        assert_eq!(outcome.hdfs.rollbacks + outcome.local.rollbacks, 0);
        assert_eq!(outcome.hdfs.kills + outcome.local.kills, 0);
    }

    #[test]
    fn failure_prints_a_parseable_repro_line() {
        let f = ChaosFailure {
            workload: "pagerank".into(),
            store: ShuffleStoreKind::Local,
            reason: "test".into(),
            plan: FaultPlan::generate(7),
            flight_dump: None,
        };
        let line = f.repro_line();
        let json = line.split_once("CHAOS_PLAN=").unwrap().1;
        assert_eq!(FaultPlan::from_json(json).unwrap(), FaultPlan::generate(7));
        assert!(line.starts_with("CHAOS_SEED=7 "));
        assert!(f.to_string().contains("replay: CHAOS_SEED=7"));
    }
}

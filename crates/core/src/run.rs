//! The single-job driver: one workload meets one cluster shape over one
//! shuffle store.
//!
//! Every single-job number in the evaluation — the eight [`Scenario`]s,
//! the Figure 4 profiling sweeps, the store ablations — is [`run_job`]
//! with a different `(store, setup)` pair: `store` picks the shuffle
//! substrate, `setup` provisions executors and arms whatever control
//! action the arm needs (autoscale request, segue, allocation controller).
//! Table 1's rivals are such pairs too: Qubole is `(S3, R Lambdas)`, Flint
//! `(Sqs, R Lambdas)`, Locus `(Redis, R Lambdas)`. Streams of jobs go
//! through [`crate::tenancy::run_tenant_fleet`], where admission owns
//! dispatch.
//!
//! [`Scenario`]: crate::Scenario

use std::cell::Cell;
use std::rc::Rc;
use std::sync::Arc;

use splitserve_des::Sim;
use splitserve_engine::{EngineEvent, JobMetrics};
use splitserve_storage::StoreStats;

use crate::deploy::{Deployment, ShuffleStoreKind};
use crate::scenario::{DriverProgram, ScenarioSpec};

/// What one [`run_job`] produced.
#[derive(Debug)]
pub struct JobRun {
    /// Workload name.
    pub workload: String,
    /// Submission-to-completion time in (virtual) seconds.
    pub execution_secs: f64,
    /// Total marginal cost in USD (VMs + Lambdas + storage requests),
    /// final: everything was shut down at completion.
    pub cost_usd: f64,
    /// Per-job metrics, submission order (shared with the engine's table).
    pub jobs: Vec<Arc<JobMetrics>>,
    /// Task completions on VM executors.
    pub tasks_on_vm: u64,
    /// Task completions on Lambda executors.
    pub tasks_on_lambda: u64,
    /// Tasks re-run due to failures or rollback.
    pub tasks_recomputed: u64,
    /// Store traffic counters.
    pub store_stats: StoreStats,
    /// The full engine event log (timelines).
    pub events: Vec<EngineEvent>,
    /// The shut-down deployment, for the one-off reads a caller needs
    /// (`cloud().cost_for(..)`, executor tables). Holding it keeps the
    /// run's shuffle blocks alive; drop the `JobRun` when done.
    pub deployment: Deployment,
}

/// Runs `program` once: builds the `Sim` and [`Deployment`] from `spec`
/// over `store`, lets `setup` provision executors and arm control actions,
/// submits at t = 0, shuts everything down the instant the program signals
/// completion (so the bill is final), runs the event loop dry and harvests
/// the outcome.
///
/// # Panics
///
/// Panics if the program never signals completion — a deadlocked setup
/// (no executors, or all of them lost for good).
pub fn run_job(
    spec: &ScenarioSpec,
    store: ShuffleStoreKind,
    setup: impl FnOnce(&mut Sim, &Deployment),
    program: &dyn DriverProgram,
) -> JobRun {
    let mut sim = Sim::new(spec.seed);
    let d = Deployment::with_wrapped_store(
        &mut sim,
        spec.cloud.clone(),
        store,
        spec.master_type.clone(),
        spec.engine.clone(),
        |s| s,
    );
    d.set_lambda_memory_mb(spec.lambda_memory_mb);
    setup(&mut sim, &d);

    let finished = Rc::new(Cell::new(None));
    let (f, d2) = (Rc::clone(&finished), d.clone());
    let start = sim.now();
    program.submit(
        &mut sim,
        d.engine(),
        Box::new(move |sim| {
            f.set(Some(sim.now().saturating_since(start).as_secs_f64()));
            d2.shutdown(sim);
        }),
    );
    sim.run();

    let jobs = d.engine().completed_job_metrics();
    JobRun {
        workload: program.name(),
        execution_secs: finished
            .get()
            .expect("workload must complete — deadlocked setup?"),
        cost_usd: d.cloud().total_cost(),
        tasks_on_vm: jobs.iter().map(|j| j.tasks_on_vm).sum(),
        tasks_on_lambda: jobs.iter().map(|j| j.tasks_on_lambda).sum(),
        tasks_recomputed: jobs.iter().map(|j| j.tasks_recomputed).sum(),
        jobs,
        store_stats: d.engine().store().stats(),
        events: d.engine().event_log().snapshot(),
        deployment: d,
    }
}

//! # splitserve — efficiently splitting Spark-like jobs across FaaS and IaaS
//!
//! A reproduction of **SplitServe** (Jain et al., ACM Middleware 2020): an
//! enhancement of a Spark-like engine that lets a *single* job's tasks run
//! simultaneously on VM-based executors and cloud-function (Lambda-based)
//! executors, bridging VM shortfalls with the ~100 ms agility of warm
//! Lambdas and segueing work back to VMs when they become available.
//!
//! The three facilities of the paper's §4 map to:
//!
//! - **Launching facility** — [`Deployment`]: tracks the system-wide
//!   VM/Lambda state and launches executors on either substrate
//!   ([`Deployment::add_vm_workers`], [`Deployment::add_lambda_executors`]).
//! - **Segueing facility** — [`arm_segue`] with a [`SegueConfig`]: launches
//!   replacement VMs in the background and *gracefully drains* Lambda
//!   executors past `spark.lambda.executor.timeout`, avoiding Spark's
//!   execution rollback.
//! - **State-transfer facility** — [`ShuffleStoreKind::Hdfs`]: a shared
//!   HDFS layer colocated with the master that both VM- and Lambda-based
//!   executors read and write, keyed by their unique executor ids.
//!
//! The evaluation machinery is here too, on two drivers: [`run_job`] runs
//! one job against one `(store, cluster setup)` pair — the eight
//! [`Scenario`]s of §5 and the offline [`profiler`](profile_sweep) of
//! Figure 4 are tables of such pairs — and
//! [`run_tenant_fleet`] runs a stream of jobs through admission control.
//! The inter-job demand [`forecast`](DayModel) of Figure 2 sits beside them.
//!
//! # Examples
//!
//! A job arrives needing 5 cores but finds only 2 free (the paper's §4.2
//! walkthrough):
//!
//! ```
//! use splitserve::{Deployment, ShuffleStoreKind};
//! use splitserve_cloud::{CloudSpec, M4_XLARGE};
//! use splitserve_des::{Sim, SimTime};
//!
//! let mut sim = Sim::new(0);
//! let d = Deployment::new(&mut sim, CloudSpec::default(), ShuffleStoreKind::Hdfs, M4_XLARGE);
//! d.add_vm_workers(&mut sim, M4_XLARGE, 2);   // the free cores
//! d.add_lambda_executors(&mut sim, 3);        // bridge the shortfall
//! sim.run_until(SimTime::from_secs(5));       // warm starts land in ~100 ms
//! assert_eq!(d.engine().active_executors(), 5);
//! ```

#![warn(missing_docs)]

mod allocator;
mod deploy;
mod forecast;
mod planner;
mod profiler;
mod run;
mod scenario;
mod segue;
pub mod tenancy;

pub use allocator::{start_allocator, AllocatorConfig, AllocatorHandle};
pub use deploy::{Deployment, ShuffleStoreKind};
pub use forecast::{evaluate_policy, DayModel, DemandPoint, PolicyOutcome, ProvisionPolicy};
pub use planner::{
    cheapest_meeting_slo, fig1_crossover_default, plan_split, record_split_plan, SplitPlan,
};
pub use profiler::{profile_sweep, ProfileMode, ProfilePoint};
pub use run::{run_job, JobRun};
pub use scenario::{run_scenario, DriverProgram, Scenario, ScenarioResult, ScenarioSpec};
pub use segue::{arm_segue, ReplacementSource, SegueConfig};
pub use tenancy::{
    run_tenant_fleet, run_tenant_fleet_with, AdmissionController, FleetJob, FleetOutcome,
    FleetPolicy, SloClass, TenantFleetConfig, TenantJobOutcome, TenantSpec,
};

// A run's summary may leave the thread that ran it: independent runs side
// by side hand back only these, and share nothing else.
const _: () = {
    const fn send<T: Send>() {}
    send::<FleetOutcome>();
    send::<ScenarioResult>();
};

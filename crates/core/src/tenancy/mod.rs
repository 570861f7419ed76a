//! The multi-tenant control plane (ROADMAP: "multi-tenant job server at
//! trace scale"): trace-style arrival generation, an admission queue
//! with strict-priority classes + weighted fair share + per-tenant
//! concurrency caps, and a job server binding admission to a live
//! deployment with per-tenant SLO/bill accounting.
//!
//! Layering, bottom up:
//!
//! - [`arrivals`] — pure seeded generators (Poisson / bursty / diurnal
//!   inter-arrival, log-normal durations) producing integer-microsecond
//!   [`JobTemplate`]s.
//! - [`admission`] — the engine-free [`AdmissionController`] and its
//!   replayable event log ([`verify_log`] checks caps, strict priority,
//!   FIFO-per-tenant and slot conservation at every step).
//! - `server` — [`run_tenant_fleet`]: schedules arrivals on the sim,
//!   dispatches through the controller onto a shared [`Deployment`],
//!   records outcomes into the tenant-keyed ledgers and the
//!   `admission_wait_seconds{tenant_class}` / `hol_blocking_seconds`
//!   series.
//! - [`fleet`] — population builders and the deterministic JSON
//!   artifact for `examples/tenant_fleet.rs`.
//! - `policy_sweep` — the cold-start policy sweep: the same fleet
//!   under each [`ColdStartSpec`] arm plus an engine-free recurrent
//!   microtrace, rendered for `examples/coldstart_sweep.rs`.
//!
//! [`ColdStartSpec`]: splitserve_cloud::ColdStartSpec
//!
//! [`JobTemplate`]: arrivals::JobTemplate
//! [`AdmissionController`]: admission::AdmissionController
//! [`verify_log`]: admission::verify_log
//! [`run_tenant_fleet`]: server::run_tenant_fleet
//! [`Deployment`]: crate::Deployment

pub mod admission;
pub mod arrivals;
pub mod fleet;
pub(crate) mod policy_sweep;
pub(crate) mod server;

pub use admission::{
    verify_log, AdmissionController, AdmissionEvent, AdmissionEventKind, AdmissionRequest,
    Dispatch, SloClass, TenantSpec,
};
pub use arrivals::{
    bursty_arrivals, generate_jobs, schedule_bytes, schedule_digest, tenant_seed, ArrivalProcess,
    ArrivalSpec, BurstSpec, DurationModel, JobTemplate,
};
pub use fleet::{default_fleet_jobs, default_tenant_specs, policy_json, render_fleet_json};
pub use policy_sweep::{
    coldstart_arms, recurrent_fleet_jobs, recurrent_microtrace, render_coldstart_sweep_json,
    run_coldstart_arm, run_coldstart_sweep, ColdstartArm,
};
pub use server::{
    combined_fingerprint, fleet_workload, run_tenant_fleet, run_tenant_fleet_with, tenant_slice,
    FleetJob, FleetOutcome, FleetPolicy, TenantFleetConfig, TenantJobOutcome, WorkloadFn,
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tenancy::admission::verify_log;
    use crate::ScenarioSpec;

    /// End-to-end smoke: a 3-tenant fleet runs through admission onto a
    /// real deployment, every job completes, and the admission log
    /// replays clean.
    #[test]
    fn small_fleet_end_to_end() {
        let tenants = default_tenant_specs(3);
        let jobs = default_fleet_jobs(&tenants, 5, 18, 60.0);
        assert!(!jobs.is_empty());
        let cfg = TenantFleetConfig::for_policy(FleetPolicy::SplitServe, tenants.clone(), 8);
        let (wl, sink) = fleet_workload(8);
        let r = run_tenant_fleet(&cfg, &jobs, wl);
        assert_eq!(r.outcomes.len(), jobs.len());
        assert_eq!(sink.borrow().len(), jobs.len());
        verify_log(cfg.slots, &tenants, &r.admission).unwrap();
        // Dispatch must never precede arrival, completion never precede
        // dispatch.
        for o in &r.outcomes {
            assert!(o.dispatched_us >= o.arrived_us);
            assert!(o.finished_us > o.dispatched_us);
        }
        assert!(r.cost_usd > 0.0);
        // Accrual + settlement must land the ledger exactly on the bill.
        let billed: f64 = r
            .bill
            .tenants()
            .iter()
            .map(|t| r.bill.total(t))
            .sum();
        assert!((billed - r.cost_usd).abs() < 1e-9);
    }

    /// A single-tenant stream (paper §4.1) of 16-task jobs whose map tasks
    /// take one second each, from `(arrive_at_secs, slo_secs)` pairs.
    fn run_stream(policy: FleetPolicy, pool_cores: u32, arrivals: &[(f64, f64)]) -> FleetOutcome {
        let spec = ScenarioSpec {
            // The fleet's quiet cloud: constant boot and start latencies.
            cloud: TenantFleetConfig::for_policy(policy, Vec::new(), pool_cores).cloud,
            ..ScenarioSpec::default()
        };
        let jobs: Vec<FleetJob> = arrivals
            .iter()
            .enumerate()
            .map(|(i, (at, slo))| FleetJob {
                duration_us: 1_000_000,
                ..FleetJob::in_stream(i as u64, *at, 16, *slo)
            })
            .collect();
        let cfg = TenantFleetConfig::single_tenant(policy, &spec, pool_cores);
        run_tenant_fleet(&cfg, &jobs, fleet_workload(8).0)
    }

    #[test]
    fn splitserve_policy_lifts_slo_attainment_on_bursts() {
        // 3 overlapping jobs of 16 tasks each against a 8-core pool.
        let burst = [(1.0, 8.0), (1.5, 8.0), (2.0, 8.0)];
        let vm_only = run_stream(FleetPolicy::VmOnly, 8, &burst);
        let ss = run_stream(FleetPolicy::SplitServe, 8, &burst);
        assert_eq!(vm_only.lambdas_launched, 0);
        assert!(ss.lambdas_launched > 0, "bridging must have happened");
        assert!(
            ss.mean_latency_secs() < vm_only.mean_latency_secs(),
            "SplitServe {:.1}s vs VM-only {:.1}s",
            ss.mean_latency_secs(),
            vm_only.mean_latency_secs()
        );
        assert!(ss.slo.fleet_attainment() >= vm_only.slo.fleet_attainment());
        // Unlimited slots: nothing ever waits in admission.
        assert!(ss.outcomes.iter().all(|o| o.dispatched_us == o.arrived_us));
    }

    #[test]
    fn quiet_stream_needs_no_lambdas() {
        // Jobs spaced far apart fit the pool; the controller stays idle.
        let ss = run_stream(FleetPolicy::SplitServe, 16, &[(0.0, 60.0), (100.0, 60.0)]);
        assert_eq!(ss.slo.fleet_attainment(), 1.0);
        // With 16 cores for a 16-task job the backlog never exceeds the
        // live capacity enough to trigger scale-out.
        assert!(
            ss.lambdas_launched <= 8,
            "quiet stream should barely bridge: {}",
            ss.lambdas_launched
        );
    }
}

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
//! - [`server`] — [`run_tenant_fleet`]: schedules arrivals on the sim,
//!   dispatches through the controller onto a shared [`Deployment`],
//!   records outcomes into the tenant-keyed ledgers and the
//!   `admission_wait_seconds{tenant_class}` / `hol_blocking_seconds`
//!   series.
//! - [`fleet`] — population builders and the deterministic JSON
//!   artifact for `examples/tenant_fleet.rs`.
//! - [`policy_sweep`] — the cold-start policy sweep: the same fleet
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
pub mod policy_sweep;
pub mod server;

pub use admission::{
    verify_log, AdmissionController, AdmissionEvent, AdmissionEventKind, AdmissionRequest,
    Dispatch, SloClass, TenantSpec,
};
pub use arrivals::{
    generate_jobs, schedule_bytes, schedule_digest, tenant_seed, ArrivalProcess, ArrivalSpec,
    BurstSpec, DurationModel, JobTemplate,
};
pub use fleet::{
    class_arrival_spec, default_fleet_jobs, default_tenant_specs, policy_json, render_fleet_json,
};
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
}

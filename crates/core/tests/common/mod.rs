//! The reduced fleet artifact and its pin, shared by the test binaries
//! that build it (`hot_loop_pins.rs`, `intern_order.rs`).

use splitserve::tenancy::{
    combined_fingerprint, default_fleet_jobs, default_tenant_specs, fleet_workload,
    render_fleet_json, run_tenant_fleet, FleetPolicy, TenantFleetConfig,
};

/// xxhash64 of [`fleet_json`]; `tenant_isolation.rs` holds the same
/// bytes at 1, 2 and 8 engine worker threads.
pub const FLEET_PIN: u64 = 0x15ce_aee7_5e06_1437;

/// The reduced fleet: 5 tenants, 45 jobs, 120 s horizon, all three
/// policies — the same machinery as `examples/tenant_fleet.rs`, small
/// enough for debug-mode CI. Its `"workers"` label is rendered as 0.
pub fn fleet_json() -> String {
    let tenants = default_tenant_specs(5);
    let jobs = default_fleet_jobs(&tenants, 11, 45, 120.0);
    let mut results = Vec::new();
    for policy in FleetPolicy::all() {
        let cfg = TenantFleetConfig::for_policy(policy, tenants.clone(), 8);
        let (wl, sink) = fleet_workload(8);
        let r = run_tenant_fleet(&cfg, &jobs, wl);
        let fp = combined_fingerprint(&sink.borrow());
        results.push((r, fp));
    }
    render_fleet_json(0, &tenants, jobs.len(), &results)
}

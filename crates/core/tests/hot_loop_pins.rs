//! Byte-identity pins for the hot-loop fast path. The interned-id /
//! pre-resolved-handle / dense-table optimizations claim to change *no
//! output byte*: these tests pin the reduced-scale fleet artifact and
//! the Prometheus exposition (at both 1 and 4 engine worker threads) to
//! hard xxhash64 constants. Any drift — a reordered map, a changed
//! float path, a renamed label — fails here first, seconds before
//! `tests/artifact_pins.rs` re-derives the full-scale pins.
//!
//! Updating a pin is a deliberate act: rerun with the new value printed
//! in the assertion message and justify the byte change in review.

mod common;

use common::{fleet_json, FLEET_PIN};
use splitserve::tenancy::{
    default_fleet_jobs, default_tenant_specs, fleet_workload, run_tenant_fleet, FleetPolicy,
    TenantFleetConfig,
};
use splitserve_rt::hash::assert_pinned;

#[test]
fn fleet_artifact_digest_is_pinned() {
    assert_pinned("reduced fleet artifact", fleet_json().as_bytes(), FLEET_PIN);
}

/// One obs-enabled reduced fleet run; returns the full Prometheus
/// exposition. Every metric value is sim-derived (admission waits,
/// HOL blocking, task spans, store ops), so the bytes are a pure
/// function of the config — including across worker-thread counts.
fn prometheus_render(workers: usize) -> String {
    let tenants = default_tenant_specs(4);
    let jobs = default_fleet_jobs(&tenants, 11, 30, 120.0);
    let mut cfg =
        TenantFleetConfig::for_policy(FleetPolicy::SplitServe, tenants.clone(), 8);
    cfg.engine.workers = workers;
    let obs = splitserve_obs::Obs::enabled();
    cfg.engine.obs = obs.clone();
    let (wl, _sink) = fleet_workload(8);
    let r = run_tenant_fleet(&cfg, &jobs, wl);
    assert_eq!(r.outcomes.len(), jobs.len());
    obs.metrics.render_prometheus()
}

#[test]
fn prometheus_exposition_is_pinned_at_w1_and_w4() {
    // Re-pinned when the cold-start policy plane landed: `Deployment::
    // shutdown` now emits `lambda_cold_start_fraction`,
    // `lambda_wasted_memory_seconds_total`, `lambda_pool_evictions_total`
    // and the `lambda_start_seconds{policy}` quantile digest, all
    // sim-derived and worker-count-invariant like the rest.
    const PIN: u64 = 0x7829_df41_24ce_7f6d;
    let w1 = prometheus_render(1);
    // (`hol_blocking_seconds` is legitimately absent at this scale: the
    // reduced fleet never blocks a queue head, and an unobserved handle
    // stays unmaterialized — the lazy-handle contract.)
    assert!(
        w1.contains("admission_wait_seconds"),
        "fleet run must populate the pre-resolved admission histograms:\n{w1}"
    );
    assert_pinned("prometheus exposition at workers=1", w1.as_bytes(), PIN);
    assert_pinned(
        "prometheus exposition at workers=4",
        prometheus_render(4).as_bytes(),
        PIN,
    );
}

//! Byte-identity pins for the cold-start policy sweep artifact. The
//! policy plane claims scheduler-neutrality: it schedules no events and
//! draws no RNG, so the sweep artifact is a pure function of the config.
//! Pinned to a hard xxhash64 constant, like `hot_loop_pins.rs`.
//!
//! Updating the pin is a deliberate act: rerun with the new value
//! printed in the assertion message and justify the byte change in
//! review.

use splitserve::tenancy::{
    default_tenant_specs, recurrent_fleet_jobs, render_coldstart_sweep_json, run_coldstart_sweep,
};
use splitserve_rt::hash::assert_pinned;

/// The reduced sweep: 4 tenants, 3 bursts of 10 every 40 s, 4-core
/// pool — small enough for debug-mode CI, big enough that every arm
/// launches Lambdas.
fn sweep_json() -> String {
    let tenants = default_tenant_specs(4);
    let jobs = recurrent_fleet_jobs(&tenants, 3, 10, 40);
    let arms = run_coldstart_sweep(&tenants, &jobs, 4);
    assert!(
        arms.iter().all(|a| a.outcome.lambdas_launched > 0),
        "every arm must exercise the warm pool"
    );
    render_coldstart_sweep_json(0, &tenants, jobs.len(), 30, 45, &arms)
}

#[test]
fn coldstart_sweep_digest_is_pinned() {
    const PIN: u64 = 0x8dfa_c80f_1512_b3a8;
    assert_pinned("reduced coldstart sweep", sweep_json().as_bytes(), PIN);
}

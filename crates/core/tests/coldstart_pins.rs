//! Byte-identity pins for the cold-start policy sweep artifact. The
//! policy plane claims scheduler-neutrality: it schedules no events and
//! draws no RNG, so the sweep artifact is a pure function of the config
//! — including across engine worker-thread counts. Pinned to a hard
//! xxhash64 constant at both 1 and 4 workers, like `hot_loop_pins.rs`.
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
/// launches Lambdas. `workers` is rendered as a fixed label so both
/// counts must produce the same bytes.
fn sweep_json(workers: usize) -> String {
    let tenants = default_tenant_specs(4);
    let jobs = recurrent_fleet_jobs(&tenants, 3, 10, 40);
    let arms = run_coldstart_sweep(workers, &tenants, &jobs, 4);
    assert!(
        arms.iter().all(|a| a.outcome.lambdas_launched > 0),
        "every arm must exercise the warm pool"
    );
    render_coldstart_sweep_json(0, &tenants, jobs.len(), 30, 45, &arms)
}

#[test]
fn coldstart_sweep_digest_is_pinned_at_w1_and_w4() {
    const PIN: u64 = 0x8dfa_c80f_1512_b3a8;
    assert_pinned("reduced coldstart sweep at workers=1", sweep_json(1).as_bytes(), PIN);
    assert_pinned("reduced coldstart sweep at workers=4", sweep_json(4).as_bytes(), PIN);
}

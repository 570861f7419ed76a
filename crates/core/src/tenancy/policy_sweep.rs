//! The cold-start policy sweep: the same tenant fleet run under each
//! [`ColdStartSpec`] arm, plus a pure recurrent microtrace driven
//! straight through [`WarmPool`] (no engine) whose cold-fraction
//! ordering is guaranteed by the property suites in
//! `crates/cloud/tests/policy_properties.rs`.
//!
//! `examples/coldstart_sweep.rs` renders both into one deterministic
//! JSON artifact (`target/coldstart_sweep.json`); `tests/artifact_pins.rs`
//! pins it across runs and worker counts and asserts the hybrid arm's
//! microtrace cold fraction never exceeds the fixed arm's.

use std::fmt::Write as _;

use splitserve_cloud::{ColdStartSpec, HybridHistogramSpec, PoolStats, WarmPool};

use crate::tenancy::admission::TenantSpec;
use crate::tenancy::server::{
    combined_fingerprint, fleet_workload, run_tenant_fleet, FleetJob, FleetOutcome, FleetPolicy,
    TenantFleetConfig,
};

/// The canonical sweep arms: the legacy infinite pool, a short fixed
/// window the recurrent gap defeats, an LRU memory cap, and the hybrid
/// histogram with the same short window as its fallback.
pub fn coldstart_arms() -> Vec<ColdStartSpec> {
    vec![
        ColdStartSpec::forever(),
        ColdStartSpec::fixed_secs(15),
        ColdStartSpec::UnloadOnPressure { cap_mb: 6_144 },
        ColdStartSpec::HybridHistogram(HybridHistogramSpec {
            min_samples: 4,
            fallback_keepalive_us: 15_000_000,
            ..HybridHistogramSpec::default()
        }),
    ]
}

/// The recurrent microtrace: `rounds` cycles of invoke → 1 s hold →
/// release → `gap_secs` idle, one function, 1536 MB containers. The gap
/// sits far beyond the fixed arm's window and well inside the hybrid
/// histogram's range, so the histogram converges.
pub fn recurrent_microtrace(spec: &ColdStartSpec, rounds: usize, gap_secs: u64) -> PoolStats {
    let mut pool = WarmPool::new(spec.build(), 0, 1_536);
    let mut t = 0u64;
    for _ in 0..rounds {
        pool.invoke(t, 0, 1_536);
        t += 1_000_000;
        pool.release(t, 0, 1_536);
        t += gap_secs * 1_000_000;
    }
    pool.finalize(t);
    pool.stats()
}

/// One fleet arm's outcome: the selector that configured it plus the
/// full fleet result and its metric-stream fingerprint.
pub struct ColdstartArm {
    /// Round-trippable selector (`forever`, `fixed:15`, …).
    pub selector: String,
    /// The fleet run.
    pub outcome: FleetOutcome,
    /// Fingerprint of the engine metric stream.
    pub fingerprint: u64,
}

/// Recurrent-burst fleet jobs: every `period_secs` a burst of
/// `burst_jobs` single-core jobs (staggered 50 ms apart, tenants
/// round-robin) lands on the fleet. The splitserve policy bridges each
/// burst's overflow with Lambdas, the allocator drains them in the lull,
/// and the next burst replays the cold-vs-warm question — the fleet-
/// scale version of the microtrace. For Lambdas to actually launch the
/// burst must out-run the allocator's saturation point: size
/// `burst_jobs` well past twice the resident pool.
pub fn recurrent_fleet_jobs(
    tenants: &[TenantSpec],
    bursts: usize,
    burst_jobs: usize,
    period_secs: u64,
) -> Vec<FleetJob> {
    let mut jobs = Vec::with_capacity(bursts * burst_jobs);
    for b in 0..bursts {
        for j in 0..burst_jobs {
            let id = (b * burst_jobs + j) as u64;
            jobs.push(FleetJob {
                job: id,
                tenant_idx: (id as usize) % tenants.len(),
                arrive_at_us: b as u64 * period_secs * 1_000_000 + j as u64 * 50_000,
                duration_us: 4_000_000,
                cores: 1,
                slo_us: 120_000_000,
            });
        }
    }
    jobs
}

/// Runs one sweep arm: the splitserve-policy fleet with
/// `cloud.coldstart` set to `spec` and nothing else changed.
pub fn run_coldstart_arm(
    tenants: &[TenantSpec],
    jobs: &[FleetJob],
    pool_cores: u32,
    spec: &ColdStartSpec,
) -> ColdstartArm {
    let mut cfg =
        TenantFleetConfig::for_policy(FleetPolicy::SplitServe, tenants.to_vec(), pool_cores);
    cfg.cloud.coldstart = spec.clone();
    // No seeded warm pool: every warm start must be earned by the
    // policy under test.
    cfg.cloud.prewarmed_lambdas = 0;
    let (wl, sink) = fleet_workload(8);
    let outcome = run_tenant_fleet(&cfg, jobs, wl);
    let fingerprint = combined_fingerprint(&sink.borrow());
    ColdstartArm {
        selector: spec.selector(),
        outcome,
        fingerprint,
    }
}

/// Runs the full sweep: one splitserve-policy fleet per cold-start arm,
/// identical tenants/jobs/seed, only `cloud.coldstart` varying.
pub fn run_coldstart_sweep(
    tenants: &[TenantSpec],
    jobs: &[FleetJob],
    pool_cores: u32,
) -> Vec<ColdstartArm> {
    coldstart_arms()
        .iter()
        .map(|spec| run_coldstart_arm(tenants, jobs, pool_cores, spec))
        .collect()
}

fn pool_block(out: &mut String, selector: &str, policy: &'static str, stats: &PoolStats) {
    let _ = write!(
        out,
        "{{\"coldstart\":\"{selector}\",\"policy\":\"{policy}\",\
         \"warm_starts\":{},\"cold_starts\":{},\"prewarm_starts\":{},\
         \"cold_fraction\":{:.6},\"wasted_gb_seconds\":{:.6},\
         \"evicted_expired\":{},\"evicted_pressure\":{},\"evicted_shutdown\":{}",
        stats.warm_starts,
        stats.cold_starts,
        stats.prewarm_starts,
        stats.cold_fraction(),
        stats.wasted_gb_seconds(),
        stats.evicted_expired,
        stats.evicted_pressure,
        stats.evicted_shutdown,
    );
}

/// Renders the sweep artifact with `workers` as its `"workers"` field,
/// a label only: the artifact renders 1, the pin tests render 0.
pub fn render_coldstart_sweep_json(
    workers: usize,
    tenants: &[TenantSpec],
    jobs_n: usize,
    micro_rounds: usize,
    micro_gap_secs: u64,
    arms: &[ColdstartArm],
) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"workers\":{workers},\"tenants\":{},\"jobs\":{jobs_n},",
        tenants.len()
    );
    let _ = write!(
        out,
        "\"microtrace\":{{\"rounds\":{micro_rounds},\"gap_secs\":{micro_gap_secs},\"policies\":["
    );
    for (i, spec) in coldstart_arms().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let stats = recurrent_microtrace(spec, micro_rounds, micro_gap_secs);
        pool_block(&mut out, &spec.selector(), spec.name(), &stats);
        out.push('}');
    }
    out.push_str("]},\"arms\":[");
    for (i, arm) in arms.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        pool_block(
            &mut out,
            &arm.selector,
            arm.outcome.coldstart_policy,
            &arm.outcome.pool,
        );
        let _ = write!(
            out,
            ",\"fleet_slo_attainment\":{:.6},\"cost_usd\":{:.6},\
             \"lambdas_launched\":{},\"fingerprint\":\"{:016x}\"}}",
            arm.outcome.slo.fleet_attainment(),
            arm.outcome.cost_usd,
            arm.outcome.lambdas_launched,
            arm.fingerprint,
        );
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tenancy::fleet::default_tenant_specs;

    /// A reduced sweep is deterministic and arm outcomes actually
    /// diverge (the policy knob reaches the warm pool).
    #[test]
    fn reduced_sweep_is_deterministic_and_policy_sensitive() {
        let tenants = default_tenant_specs(4);
        let jobs = recurrent_fleet_jobs(&tenants, 3, 10, 40);
        let run = || {
            let arms = run_coldstart_sweep(&tenants, &jobs, 4);
            render_coldstart_sweep_json(0, &tenants, jobs.len(), 30, 45, &arms)
        };
        let a = run();
        assert_eq!(a, run(), "sweep artifact must be byte-deterministic");
        let arms = run_coldstart_sweep(&tenants, &jobs, 4);
        assert!(
            arms.iter().all(|a| a.outcome.lambdas_launched > 0),
            "bursts must overflow onto Lambdas or the sweep tests nothing"
        );
        for arm in &arms {
            assert_eq!(
                arm.outcome.outcomes.len(),
                jobs.len(),
                "{}: every job completes",
                arm.selector
            );
        }
        let forever = arms.iter().find(|a| a.selector == "forever").unwrap();
        let fixed = arms.iter().find(|a| a.selector == "fixed:15").unwrap();
        assert!(
            fixed.outcome.pool.cold_starts >= forever.outcome.pool.cold_starts,
            "a finite window cannot beat the infinite pool: {} < {}",
            fixed.outcome.pool.cold_starts,
            forever.outcome.pool.cold_starts
        );
    }
}

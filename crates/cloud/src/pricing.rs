//! Pricing rules for every cloud service the paper touches, plus the cost
//! curves behind Figure 1.

use splitserve_des::SimDuration;

use crate::instance::InstanceType;

/// AWS Lambda price per GB-second of allocated memory (us-east-1, 2020).
pub(crate) const LAMBDA_USD_PER_GB_SEC: f64 = 0.000_016_67;
/// AWS Lambda price per invocation ($0.20 per million requests).
pub(crate) const LAMBDA_USD_PER_INVOCATION: f64 = 0.000_000_2;
/// Lambda billing granularity: run time is rounded up to 100 ms.
pub(crate) const LAMBDA_BILLING_QUANTUM: SimDuration = SimDuration::from_millis(100);
/// Largest memory allocation a Lambda may request (the paper's 3 GB cap).
pub(crate) const LAMBDA_MAX_MEMORY_MB: u64 = 3_008;
/// Memory per vCPU on Fig. 1's price curve: a 1 536 MB Lambda is priced as
/// one full vCPU. The executors' CPU model disagrees: [`lambda_core_share`]
/// runs a Lambda at `memory_mb / 1769` of a core, so that vCPU is 0.868 core.
pub(crate) const LAMBDA_MB_PER_VCPU: u64 = 1_536;

/// The share of a VM core a Lambda executor of `memory_mb` computes at:
/// one core per 1 769 MB (AWS's later-documented rate), capped at one.
/// Fig. 1 prices a vCPU at `LAMBDA_MB_PER_VCPU` (1 536 MB) instead: a known
/// deviation (EXPERIMENTS.md, deviation 5).
pub fn lambda_core_share(memory_mb: u64) -> f64 {
    (memory_mb as f64 / 1769.0).min(1.0)
}

/// Hard lifetime limit after which AWS kills a Lambda: 15 minutes.
pub(crate) const LAMBDA_LIFETIME: SimDuration = SimDuration::from_secs(900);

/// VM billing granularity: 1 second increments…
pub(crate) const VM_BILLING_QUANTUM: SimDuration = SimDuration::from_secs(1);
/// …after a 60-second minimum charge per instance launch.
pub(crate) const VM_MINIMUM_BILLED: SimDuration = SimDuration::from_secs(60);

/// S3 PUT/COPY/POST/LIST price per request.
pub const S3_USD_PER_PUT: f64 = 0.005 / 1_000.0;
/// S3 GET/SELECT price per request.
pub const S3_USD_PER_GET: f64 = 0.0004 / 1_000.0;
/// SQS price per request (send or receive), standard queue.
pub const SQS_USD_PER_REQUEST: f64 = 0.40 / 1_000_000.0;

/// Billed cost of running a VM of `itype` for `runtime`: per-second
/// rounding with a 60 s minimum — the staircase of Figure 1.
///
/// # Examples
///
/// ```
/// use splitserve_cloud::{vm_cost, M4_LARGE};
/// use splitserve_des::SimDuration;
///
/// // 10 s of m4.large still bills the 60 s minimum.
/// let short = vm_cost(&M4_LARGE, SimDuration::from_secs(10));
/// let minute = vm_cost(&M4_LARGE, SimDuration::from_secs(60));
/// assert_eq!(short, minute);
/// ```
pub fn vm_cost(itype: &InstanceType, runtime: SimDuration) -> f64 {
    let billed = if runtime < VM_MINIMUM_BILLED {
        VM_MINIMUM_BILLED
    } else {
        runtime.round_up_to(VM_BILLING_QUANTUM)
    };
    itype.hourly_usd / 3_600.0 * billed.as_secs_f64()
}

/// Billed compute cost of one Lambda invocation of `memory_mb` running for
/// `runtime` (excluding the per-invocation fee): 100 ms granularity.
pub fn lambda_compute_cost(memory_mb: u64, runtime: SimDuration) -> f64 {
    let billed = runtime.round_up_to(LAMBDA_BILLING_QUANTUM);
    let gb = memory_mb as f64 / 1_024.0;
    LAMBDA_USD_PER_GB_SEC * gb * billed.as_secs_f64()
}

/// Total billed cost of one Lambda invocation including the request fee.
pub fn lambda_cost(memory_mb: u64, runtime: SimDuration) -> f64 {
    lambda_compute_cost(memory_mb, runtime) + LAMBDA_USD_PER_INVOCATION
}

/// One point of Figure 1: cost of one vCPU procured for `t`, via a
/// m4.large VM (price halved: the instance has two vCPUs) vs. a 1 536 MB
/// Lambda.
pub fn fig1_vcpu_cost_at(itype: &InstanceType, t: SimDuration) -> (f64, f64) {
    let vm = vm_cost(itype, t) / itype.vcpus as f64;
    let la = lambda_cost(LAMBDA_MB_PER_VCPU, t);
    (vm, la)
}

/// The time-in-use after which the Lambda becomes more expensive than the
/// VM vCPU (the crossover visible in Figure 1), found by scanning at 100 ms
/// resolution up to `horizon`.
///
/// Returns `None` if no crossover occurs within `horizon`.
pub fn fig1_crossover(itype: &InstanceType, horizon: SimDuration) -> Option<SimDuration> {
    let step = LAMBDA_BILLING_QUANTUM;
    let mut t = step;
    while t <= horizon {
        let (vm, la) = fig1_vcpu_cost_at(itype, t);
        if la > vm {
            return Some(t);
        }
        t += step;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::{M4_LARGE, M4_XLARGE};

    /// The vCPU share a Lambda of `memory_mb` receives relative to a full VM
    /// core (AWS allocates CPU proportionally to memory, one vCPU per 1 536 MB).
    fn lambda_cpu_share(memory_mb: u64) -> f64 {
        (memory_mb as f64 / LAMBDA_MB_PER_VCPU as f64).min(2.0)
    }

    #[test]
    fn lambda_core_share_is_memory_over_1769_mb_capped_at_one_core() {
        assert!((lambda_core_share(1769) - 1.0).abs() < 1e-12);
        assert!((lambda_core_share(1536) - 1536.0 / 1769.0).abs() < 1e-12);
        assert_eq!(lambda_core_share(3008), 1.0, "capped at one core");
    }

    #[test]
    fn vm_minimum_charge_is_flat_for_first_minute() {
        let c10 = vm_cost(&M4_LARGE, SimDuration::from_secs(10));
        let c59 = vm_cost(&M4_LARGE, SimDuration::from_secs(59));
        let c60 = vm_cost(&M4_LARGE, SimDuration::from_secs(60));
        assert_eq!(c10, c59);
        assert_eq!(c59, c60);
        // Exactly one minute of $0.10/h.
        assert!((c60 - 0.10 / 60.0).abs() < 1e-12);
    }

    #[test]
    fn vm_cost_steps_per_second_after_minimum() {
        let c60 = vm_cost(&M4_LARGE, SimDuration::from_secs(60));
        let c61 = vm_cost(&M4_LARGE, SimDuration::from_secs(61));
        let c61_5 = vm_cost(&M4_LARGE, SimDuration::from_millis(60_500));
        assert!(c61 > c60);
        assert_eq!(c61_5, c61, "sub-second rounds up to 61 s");
        let per_sec = 0.10 / 3_600.0;
        assert!((c61 - c60 - per_sec).abs() < 1e-12);
    }

    #[test]
    fn lambda_cost_steps_per_100ms() {
        let c1 = lambda_compute_cost(1_536, SimDuration::from_millis(100));
        let c2 = lambda_compute_cost(1_536, SimDuration::from_millis(101));
        let c3 = lambda_compute_cost(1_536, SimDuration::from_millis(200));
        assert!(c2 > c1);
        assert_eq!(c2, c3);
        // 1.5 GB for 0.1 s.
        assert!((c1 - LAMBDA_USD_PER_GB_SEC * 1.5 * 0.1).abs() < 1e-12);
    }

    #[test]
    fn fig1_lambda_starts_cheaper_then_crosses() {
        // At 1 s, Lambda ≪ VM minimum charge.
        let (vm, la) = fig1_vcpu_cost_at(&M4_LARGE, SimDuration::from_secs(1));
        assert!(la < vm, "lambda {la} vs vm {vm} at 1s");
        // A crossover exists within 2 hours…
        let x = fig1_crossover(&M4_LARGE, SimDuration::from_secs(7_200))
            .expect("crossover must exist");
        // …and falls after the VM's 60 s minimum flat region.
        assert!(x > SimDuration::from_secs(10), "crossover {x} too early");
        // After the crossover the Lambda stays more expensive.
        let (vm, la) = fig1_vcpu_cost_at(&M4_LARGE, x + SimDuration::from_secs(600));
        assert!(la > vm);
    }

    #[test]
    fn lambda_cpu_share_scales_with_memory() {
        assert!((lambda_cpu_share(1_536) - 1.0).abs() < 1e-12);
        assert!((lambda_cpu_share(768) - 0.5).abs() < 1e-12);
        assert!(lambda_cpu_share(3_008) > 1.9);
    }

    #[test]
    fn bigger_vm_has_cheaper_vcpu_only_sometimes() {
        // Sanity: per-vCPU price of m4.large and m4.xlarge is identical in
        // the m4 family ($0.05/vCPU/h).
        let a = M4_LARGE.hourly_usd / M4_LARGE.vcpus as f64;
        let b = M4_XLARGE.hourly_usd / M4_XLARGE.vcpus as f64;
        assert!((a - b).abs() < 1e-12);
    }
}

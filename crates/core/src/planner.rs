//! Knob selection (paper §6 "SplitServe dynamic parameter selection" and
//! the §5.1 profiling discussion): given offline profiling curves, an SLO
//! and pricing, pick the degree of parallelism, the VM/Lambda split, and
//! whether segueing is worthwhile.
//!
//! The paper walks exactly this decision: *"in case of a 'large' PageRank
//! job, if the execution time needs to be less than 70 s, then two
//! executors would be the lowest-cost choice; however, if the execution
//! time needs to be less than 60 s, then the only choice is 4 executors."*

use splitserve_des::SimDuration;

use crate::profiler::ProfilePoint;

/// The Figure 1 crossover for the default comparison (m4.large vCPU vs a
/// 1 536 MB Lambda), in seconds — the time-in-use after which keeping a
/// Lambda costs more than the VM.
pub fn fig1_crossover_default() -> f64 {
    splitserve_cloud::fig1_crossover(
        &splitserve_cloud::M4_LARGE,
        SimDuration::from_secs(7_200),
    )
    .expect("crossover exists for default pricing")
    .as_secs_f64()
}

/// The cheapest profiled configuration whose execution time meets
/// `slo_secs`, or `None` if no configuration does.
///
/// # Examples
///
/// ```
/// use splitserve::{cheapest_meeting_slo, ProfilePoint};
///
/// let profile = vec![
///     ProfilePoint { parallelism: 2, execution_secs: 65.0, cost_usd: 0.010 },
///     ProfilePoint { parallelism: 4, execution_secs: 55.0, cost_usd: 0.014 },
/// ];
/// // "< 70 s → two executors are the lowest-cost choice"
/// assert_eq!(cheapest_meeting_slo(&profile, 70.0).unwrap().parallelism, 2);
/// // "< 60 s → the only choice is 4 executors"
/// assert_eq!(cheapest_meeting_slo(&profile, 60.0).unwrap().parallelism, 4);
/// ```
pub fn cheapest_meeting_slo(profile: &[ProfilePoint], slo_secs: f64) -> Option<&ProfilePoint> {
    profile
        .iter()
        .filter(|p| p.execution_secs <= slo_secs)
        .min_by(|a, b| a.cost_usd.partial_cmp(&b.cost_usd).expect("no NaN costs"))
}

/// An intra-job resource plan for one arriving job.
#[derive(Debug, Clone, PartialEq)]
pub struct SplitPlan {
    /// Cores to take from the free VM pool.
    pub vm_cores: u32,
    /// Lambdas to launch immediately (the shortfall Δ).
    pub lambdas: u32,
    /// Whether to launch replacement VMs in the background and segue.
    pub launch_replacement_vms: bool,
    /// Recommended `spark.lambda.executor.timeout`.
    pub lambda_timeout: SimDuration,
}

/// SplitServe's launch-time decision (paper §4.2): take every free VM
/// core, bridge the shortfall with Lambdas, and start replacement VMs in
/// the background *only if* the job's expected duration exceeds the
/// nominal VM start-up delay ("for jobs with SLO smaller than the VM start
/// up delay, starting new VMs would be futile").
///
/// The recommended Lambda timeout is the earlier of the Figure 1 cost
/// crossover and the moment replacements can be ready — after that,
/// keeping the Lambdas either costs more than VMs or is unnecessary.
pub fn plan_split(
    required_cores: u32,
    free_vm_cores: u32,
    expected_secs: f64,
    vm_boot_secs: f64,
    crossover_secs: f64,
) -> SplitPlan {
    let vm_cores = free_vm_cores.min(required_cores);
    let lambdas = required_cores - vm_cores;
    let launch_replacement_vms = lambdas > 0 && expected_secs > vm_boot_secs;
    let timeout = if launch_replacement_vms {
        vm_boot_secs.min(crossover_secs)
    } else {
        // No replacements coming: lambdas run to completion; the timeout
        // is advisory only and set past the job.
        expected_secs
    };
    SplitPlan {
        vm_cores,
        lambdas,
        launch_replacement_vms,
        lambda_timeout: SimDuration::from_secs_f64(timeout.max(1.0)),
    }
}

/// Records a chosen [`SplitPlan`] on the observability layer: an instant
/// on the driver's planner track whose annotations carry the decision —
/// the Figure-7 timelines then show *why* the executor mix looks the way
/// it does. A no-op when `obs` is disabled.
pub fn record_split_plan(obs: &splitserve_obs::Obs, at: splitserve_des::SimTime, plan: &SplitPlan) {
    if !obs.is_enabled() {
        return;
    }
    let span = obs.spans.open(at, "driver", "planner", "plan split");
    obs.spans.annotate(span, "vm_cores", plan.vm_cores.to_string());
    obs.spans.annotate(span, "lambdas", plan.lambdas.to_string());
    obs.spans.annotate(
        span,
        "launch_replacement_vms",
        plan.launch_replacement_vms.to_string(),
    );
    obs.spans.annotate(
        span,
        "lambda_timeout_secs",
        format!("{:.3}", plan.lambda_timeout.as_secs_f64()),
    );
    obs.spans.close(span, at);
    obs.metrics
        .gauge_set("planner_vm_cores", &[], f64::from(plan.vm_cores));
    obs.metrics
        .gauge_set("planner_lambdas", &[], f64::from(plan.lambdas));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The fastest profiled configuration whose cost fits `budget_usd`.
    fn fastest_within_budget(profile: &[ProfilePoint], budget_usd: f64) -> Option<&ProfilePoint> {
        profile
            .iter()
            .filter(|p| p.cost_usd <= budget_usd)
            .min_by(|a, b| {
                a.execution_secs
                    .partial_cmp(&b.execution_secs)
                    .expect("no NaN times")
            })
    }

    fn profile() -> Vec<ProfilePoint> {
        vec![
            ProfilePoint { parallelism: 1, execution_secs: 120.0, cost_usd: 0.008 },
            ProfilePoint { parallelism: 2, execution_secs: 65.0, cost_usd: 0.010 },
            ProfilePoint { parallelism: 4, execution_secs: 55.0, cost_usd: 0.014 },
            ProfilePoint { parallelism: 8, execution_secs: 50.0, cost_usd: 0.024 },
            ProfilePoint { parallelism: 16, execution_secs: 58.0, cost_usd: 0.046 },
        ]
    }

    #[test]
    fn paper_walkthrough_slo_70_then_60() {
        let p = profile();
        assert_eq!(cheapest_meeting_slo(&p, 70.0).expect("fits").parallelism, 2);
        assert_eq!(cheapest_meeting_slo(&p, 60.0).expect("fits").parallelism, 4);
        assert!(cheapest_meeting_slo(&p, 10.0).is_none(), "impossible SLO");
    }

    #[test]
    fn budget_constrained_choice() {
        let p = profile();
        assert_eq!(
            fastest_within_budget(&p, 0.015).expect("fits").parallelism,
            4
        );
        assert_eq!(
            fastest_within_budget(&p, 1.0).expect("fits").parallelism,
            8,
            "unlimited budget takes the global minimum time"
        );
        assert!(fastest_within_budget(&p, 0.001).is_none());
    }

    #[test]
    fn split_bridges_shortfall_with_lambdas() {
        let plan = plan_split(16, 3, 200.0, 110.0, 300.0);
        assert_eq!(plan.vm_cores, 3);
        assert_eq!(plan.lambdas, 13);
        assert!(plan.launch_replacement_vms, "200 s job > 110 s boot");
        assert_eq!(plan.lambda_timeout, SimDuration::from_secs_f64(110.0));
    }

    #[test]
    fn short_jobs_skip_replacement_vms() {
        // "for jobs with SLO smaller than the VM start up delay, starting
        // new VMs would be futile."
        let plan = plan_split(32, 8, 60.0, 110.0, 300.0);
        assert_eq!(plan.lambdas, 24);
        assert!(!plan.launch_replacement_vms);
    }

    #[test]
    fn fully_provisioned_jobs_use_no_lambdas() {
        let plan = plan_split(8, 12, 500.0, 110.0, 300.0);
        assert_eq!(plan.vm_cores, 8);
        assert_eq!(plan.lambdas, 0);
        assert!(!plan.launch_replacement_vms);
    }

    #[test]
    fn crossover_caps_the_timeout() {
        // If lambdas become uneconomical before the VM boots, drain at the
        // crossover.
        let plan = plan_split(16, 0, 500.0, 110.0, 45.0);
        assert_eq!(plan.lambda_timeout, SimDuration::from_secs_f64(45.0));
    }
}

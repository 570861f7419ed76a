//! Offline workload profiling (paper §5.1, Figure 4): execution time and
//! cost versus degree of parallelism, for all-Lambda and all-VM
//! executions. The classic U-shaped curve emerges from the tension between
//! per-task parallelism gains and growing communication/coordination
//! overheads.

use splitserve_cloud::fewest_instances_for_cores;

use crate::deploy::ShuffleStoreKind;
use crate::run::run_job;
use crate::scenario::{DriverProgram, ScenarioSpec};

/// One profiling measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProfilePoint {
    /// Degree of parallelism (executors, one core each).
    pub parallelism: u32,
    /// Execution time in seconds.
    pub execution_secs: f64,
    /// Marginal cost in USD.
    pub cost_usd: f64,
}

/// Executor substrate being profiled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProfileMode {
    /// All executors on Lambdas (shuffle over HDFS at the master).
    LambdaOnly,
    /// All executors on VMs packed onto the fewest instances
    /// (vanilla-Spark-style local shuffle).
    VmOnly,
}

/// Profiles a workload at one degree of parallelism.
///
/// The `workload` factory receives the parallelism so it can size its
/// reduce side accordingly (as the paper's profiling does).
pub(crate) fn profile_once(
    mode: ProfileMode,
    parallelism: u32,
    spec: &ScenarioSpec,
    workload: &dyn Fn(u32) -> Box<dyn DriverProgram>,
) -> ProfilePoint {
    let store = match mode {
        ProfileMode::LambdaOnly => ShuffleStoreKind::Hdfs,
        ProfileMode::VmOnly => ShuffleStoreKind::Local,
    };
    let run = run_job(
        spec,
        store,
        |sim, d| match mode {
            ProfileMode::LambdaOnly => {
                d.add_lambda_executors(sim, parallelism);
            }
            ProfileMode::VmOnly => {
                // "For each degree of parallelism, we use the fewest number of
                // instances that provide the required number of cores" — across
                // the whole m4 family, so the fleet may mix instance types.
                let mut remaining = parallelism;
                for itype in fewest_instances_for_cores(parallelism) {
                    let batch = remaining.min(itype.vcpus);
                    d.add_vm_workers(sim, itype, batch);
                    remaining -= batch;
                }
            }
        },
        workload(parallelism).as_ref(),
    );
    ProfilePoint {
        parallelism,
        execution_secs: run.execution_secs,
        cost_usd: run.cost_usd,
    }
}

/// Profiles a workload across a ladder of parallelism degrees
/// (the paper sweeps 1, 2, 4, …, 128).
pub fn profile_sweep(
    mode: ProfileMode,
    parallelisms: &[u32],
    spec: &ScenarioSpec,
    workload: &dyn Fn(u32) -> Box<dyn DriverProgram>,
) -> Vec<ProfilePoint> {
    parallelisms
        .iter()
        .map(|p| profile_once(mode, *p, spec, workload))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::DriverProgram;
    use splitserve_cloud::CloudSpec;
    use splitserve_des::{Dist, Sim};
    use splitserve_engine::{Dataset, Engine};

    /// The parallelism with the lowest execution time in a sweep — the
    /// "performance-optimal degree of parallelism" the profiling identifies.
    fn optimal_parallelism(points: &[ProfilePoint]) -> Option<u32> {
        points
            .iter()
            .min_by(|a, b| {
                a.execution_secs
                    .partial_cmp(&b.execution_secs)
                    .expect("no NaN times")
            })
            .map(|p| p.parallelism)
    }

    /// A parallel workload with a serial aggregation component and
    /// per-task shuffle overhead — enough structure for a U-curve.
    struct SweepLoad {
        parallelism: u32,
    }

    impl DriverProgram for SweepLoad {
        fn name(&self) -> String {
            "sweep-load".into()
        }
        fn parallelism(&self) -> usize {
            self.parallelism as usize
        }
        fn submit(&self, sim: &mut Sim, engine: &Engine, done: Box<dyn FnOnce(&mut Sim)>) {
            let p = self.parallelism as usize;
            // Fixed total work split across p partitions; every map task
            // sends a record to every reducer (all-to-all shuffle).
            let total: u64 = 200_000;
            let per = total / p as u64;
            let ds = Dataset::<u64>::generate(p, move |i| {
                (0..per).map(|x| x + i as u64).collect()
            })
            .map_with_cost(|x| (*x % 64, 1u64), Some(5e-5))
            .reduce_by_key(p, |a, b| a + b);
            engine.submit_job(sim, ds.node(), move |sim, _| done(sim));
        }
    }

    fn quiet_spec() -> ScenarioSpec {
        ScenarioSpec {
            cloud: CloudSpec {
                vm_boot: Dist::constant(110.0),
                lambda_warm_start: Dist::constant(0.12),
                lambda_cold_start: Dist::constant(3.0),
                lambda_net_jitter: Dist::constant(1.0),
                ..CloudSpec::default()
            },
            ..ScenarioSpec::default()
        }
    }

    fn factory() -> Box<dyn Fn(u32) -> Box<dyn DriverProgram>> {
        Box::new(|p| Box::new(SweepLoad { parallelism: p }))
    }

    #[test]
    fn lambda_sweep_produces_finite_points() {
        let pts = profile_sweep(
            ProfileMode::LambdaOnly,
            &[1, 2, 4, 8],
            &quiet_spec(),
            &factory(),
        );
        assert_eq!(pts.len(), 4);
        for p in &pts {
            assert!(p.execution_secs > 0.0 && p.execution_secs.is_finite());
            assert!(p.cost_usd > 0.0);
        }
        // Parallelism helps at the start of the ladder.
        assert!(pts[1].execution_secs < pts[0].execution_secs);
    }

    #[test]
    fn vm_only_is_faster_than_lambda_only_at_same_parallelism() {
        let spec = quiet_spec();
        let la = profile_once(ProfileMode::LambdaOnly, 8, &spec, &factory());
        let vm = profile_once(ProfileMode::VmOnly, 8, &spec, &factory());
        assert!(
            vm.execution_secs <= la.execution_secs,
            "vm {} vs lambda {}",
            vm.execution_secs,
            la.execution_secs
        );
    }

    #[test]
    fn optimal_parallelism_picks_the_minimum() {
        let pts = vec![
            ProfilePoint { parallelism: 1, execution_secs: 10.0, cost_usd: 1.0 },
            ProfilePoint { parallelism: 2, execution_secs: 6.0, cost_usd: 1.1 },
            ProfilePoint { parallelism: 4, execution_secs: 7.5, cost_usd: 1.4 },
        ];
        assert_eq!(optimal_parallelism(&pts), Some(2));
        assert_eq!(optimal_parallelism(&[]), None);
    }
}

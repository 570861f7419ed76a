//! The paper's evaluation scenarios (§5.1 "Metrics and Scenarios"): eight
//! ways a latency-critical job can meet the cluster, from vanilla Spark on
//! too-few VMs to SplitServe's hybrid-with-segue.

use splitserve_cloud::{CloudSpec, InstanceType, M4_4XLARGE, M4_XLARGE};
use splitserve_des::{Sim, SimDuration};
use splitserve_engine::{Engine, EngineConfig, EngineEvent, JobMetrics};
use splitserve_storage::StoreStats;

use crate::deploy::{Deployment, ShuffleStoreKind, Timer};
use crate::run::run_job;
use crate::segue::{arm_segue, ReplacementSource, SegueConfig};

/// A workload's driver program: submits one or more jobs to the engine and
/// signals completion. Implementations live in `splitserve-workloads`.
pub trait DriverProgram {
    /// Workload name for tables ("PageRank", "K-means", "TPC-DS Q95", …).
    fn name(&self) -> String;

    /// The job's natural degree of parallelism (number of reduce/result
    /// partitions it was configured for).
    fn parallelism(&self) -> usize;

    /// Submits the workload; must call `done` exactly once when every job
    /// has finished.
    fn submit(&self, sim: &mut Sim, engine: &Engine, done: Box<dyn FnOnce(&mut Sim)>);
}

/// The eight evaluation scenarios.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scenario {
    /// `Spark r VM`: vanilla Spark stuck on the `r < R` cores it found.
    SparkSmallVm,
    /// `Spark R VM`: vanilla Spark with all `R` cores already provisioned
    /// — the no-autoscaling best case.
    SparkRVm,
    /// `Spark r/R autoscale`: start on `r` cores, request the missing VMs
    /// after a detection delay, absorb them when they boot.
    SparkAutoscale,
    /// `Qubole R La`: everything on Lambdas, shuffling through S3.
    QuboleLambda,
    /// `SS R VM`: SplitServe with all cores on VMs (measures SplitServe's
    /// own overhead vs `Spark R VM` — the HDFS shuffle detour).
    SsRVm,
    /// `SS R La`: SplitServe all-Lambda, shuffling through HDFS.
    SsRLambda,
    /// `SS r VM / Δ La`: the hybrid — `r` VM cores plus `Δ = R - r`
    /// Lambdas, no segue.
    SsHybrid,
    /// `SS r VM / Δ La Segue`: the hybrid plus segue to VM cores that
    /// become available mid-job.
    SsHybridSegue,
}

impl Scenario {
    /// All scenarios in the paper's presentation order.
    pub fn all() -> [Scenario; 8] {
        [
            Scenario::SparkSmallVm,
            Scenario::SparkRVm,
            Scenario::SparkAutoscale,
            Scenario::QuboleLambda,
            Scenario::SsRVm,
            Scenario::SsRLambda,
            Scenario::SsHybrid,
            Scenario::SsHybridSegue,
        ]
    }

    /// The paper's label for this scenario given `R` and `r` (`r` clamped
    /// to `R`, as [`Scenario::setup`] provisions it).
    pub fn label(&self, required: u32, available: u32) -> String {
        let available = available.min(required);
        let delta = required - available;
        match self {
            Scenario::SparkSmallVm => format!("Spark {available} VM"),
            Scenario::SparkRVm => format!("Spark {required} VM"),
            Scenario::SparkAutoscale => format!("Spark {available}/{required} autoscale"),
            Scenario::QuboleLambda => format!("Qubole {required} La"),
            Scenario::SsRVm => format!("SS {required} VM"),
            Scenario::SsRLambda => format!("SS {required} La"),
            Scenario::SsHybrid => format!("SS {available} VM / {delta} La"),
            Scenario::SsHybridSegue => format!("SS {available} VM / {delta} La Segue"),
        }
    }

    /// The shuffle substrate this scenario uses.
    pub fn store_kind(&self) -> ShuffleStoreKind {
        match self {
            Scenario::SparkSmallVm | Scenario::SparkRVm | Scenario::SparkAutoscale => {
                ShuffleStoreKind::Local
            }
            Scenario::QuboleLambda => ShuffleStoreKind::S3,
            Scenario::SsRVm
            | Scenario::SsRLambda
            | Scenario::SsHybrid
            | Scenario::SsHybridSegue => ShuffleStoreKind::Hdfs,
        }
    }

    /// The cluster the job meets under this scenario, as a [`run_job`]
    /// setup: the initial executors, then the control action (autoscale
    /// request, segue) the scenario arms. Independent of the store, so an
    /// ablation pairs it with any [`ShuffleStoreKind`].
    pub fn setup(self, spec: &ScenarioSpec) -> impl FnOnce(&mut Sim, &Deployment) + '_ {
        let big_r = spec.required_cores;
        let small_r = spec.available_cores.min(big_r);
        let delta = big_r - small_r;
        let itype = &spec.worker_type;
        move |sim, d| match self {
            Scenario::SparkRVm | Scenario::SsRVm => d.add_vm_cores(sim, itype, big_r),
            Scenario::SparkSmallVm => d.add_vm_cores(sim, itype, small_r),
            Scenario::SparkAutoscale => {
                d.add_vm_cores(sim, itype, small_r);
                // After the detection delay, request VMs for the missing cores.
                let at = sim.now() + spec.autoscale_detect_delay;
                let itype = itype.clone();
                d.arm_timer(sim, at, Timer::Autoscale { itype, cores: delta });
            }
            Scenario::QuboleLambda | Scenario::SsRLambda => {
                d.add_lambda_executors(sim, big_r);
            }
            Scenario::SsHybrid | Scenario::SsHybridSegue => {
                d.add_vm_cores(sim, itype, small_r);
                d.add_lambda_executors(sim, delta);
                if self == Scenario::SsHybridSegue {
                    let replacement = match spec.segue_existing_cores_at {
                        Some(at) => ReplacementSource::ExistingVmCores {
                            cores: delta,
                            available_in: at,
                        },
                        None => ReplacementSource::NewVms {
                            itype: itype.clone(),
                            cores: delta,
                        },
                    };
                    let cfg = SegueConfig {
                        lambda_timeout: spec.lambda_timeout,
                        replacement,
                    };
                    arm_segue(sim, d, cfg);
                }
            }
        }
    }
}

/// Cluster and policy parameters shared by a scenario sweep.
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// `R`: the cores the job needs to meet its SLO.
    pub required_cores: u32,
    /// `r`: the cores free on VMs when the job arrives.
    pub available_cores: u32,
    /// Instance type hosting VM executors.
    pub worker_type: InstanceType,
    /// Instance type hosting the master (and HDFS, when used).
    pub master_type: InstanceType,
    /// Memory per Lambda executor.
    pub lambda_memory_mb: u64,
    /// `spark.lambda.executor.timeout` for the segue scenario.
    pub lambda_timeout: SimDuration,
    /// How long the autoscaler takes to decide it needs more VMs.
    pub autoscale_detect_delay: SimDuration,
    /// For the segue scenario: when cores free up on an existing VM; if
    /// `None`, a fresh VM is requested in the background at job start.
    pub segue_existing_cores_at: Option<SimDuration>,
    /// Cloud model parameters.
    pub cloud: CloudSpec,
    /// Engine parameters.
    pub engine: EngineConfig,
    /// Simulation seed (vary for error bars).
    pub seed: u64,
}

impl ScenarioSpec {
    /// Switches the observability layer on for runs of this spec and
    /// returns the shared handle: the engine, deployment and storage
    /// layers all record into it, and the caller reads/exports afterwards
    /// (Chrome trace, Prometheus text). Off by default — the layer costs
    /// nothing unless this is called.
    pub fn enable_observability(&mut self) -> splitserve_obs::Obs {
        let obs = splitserve_obs::Obs::enabled();
        self.engine.obs = obs.clone();
        obs
    }
}

impl Default for ScenarioSpec {
    fn default() -> Self {
        ScenarioSpec {
            required_cores: 16,
            available_cores: 4,
            worker_type: M4_4XLARGE,
            master_type: M4_XLARGE,
            lambda_memory_mb: 1_536,
            lambda_timeout: SimDuration::from_secs(60),
            autoscale_detect_delay: SimDuration::from_secs(5),
            segue_existing_cores_at: Some(SimDuration::from_secs(45)),
            cloud: CloudSpec::default(),
            engine: EngineConfig::default(),
            seed: 42,
        }
    }
}

/// What one scenario run produced.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// Which scenario ran.
    pub scenario: Scenario,
    /// The paper-style label.
    pub label: String,
    /// Workload name.
    pub workload: String,
    /// Job(s) wall-clock execution time in (virtual) seconds.
    pub execution_secs: f64,
    /// Total marginal cost in USD (VMs + Lambdas + storage requests).
    pub cost_usd: f64,
    /// Per-job metrics, submission order — shared with the engine's job
    /// table ([`Engine::completed_job_metrics`] no longer deep-copies).
    pub jobs: Vec<std::sync::Arc<JobMetrics>>,
    /// Task completions on VM executors.
    pub tasks_on_vm: u64,
    /// Task completions on Lambda executors.
    pub tasks_on_lambda: u64,
    /// Tasks re-run due to failures or rollback.
    pub tasks_recomputed: u64,
    /// Store traffic counters.
    pub store_stats: StoreStats,
    /// The full engine event log (timelines).
    pub events: Vec<EngineEvent>,
}

/// Runs `scenario` with the given spec and workload: [`run_job`] over the
/// scenario's own store and [`Scenario::setup`].
///
/// The workload is built fresh per run (datasets are per-run), the driver
/// program is submitted at t=0, and on completion all resources are shut
/// down so the bill is final.
pub fn run_scenario(
    scenario: Scenario,
    spec: &ScenarioSpec,
    workload: &dyn Fn() -> Box<dyn DriverProgram>,
) -> ScenarioResult {
    let run = run_job(
        spec,
        scenario.store_kind(),
        scenario.setup(spec),
        workload().as_ref(),
    );
    ScenarioResult {
        scenario,
        label: scenario.label(spec.required_cores, spec.available_cores),
        workload: run.workload,
        execution_secs: run.execution_secs,
        cost_usd: run.cost_usd,
        jobs: run.jobs,
        tasks_on_vm: run.tasks_on_vm,
        tasks_on_lambda: run.tasks_on_lambda,
        tasks_recomputed: run.tasks_recomputed,
        store_stats: run.store_stats,
        events: run.events,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splitserve_des::Dist;
    use splitserve_engine::{collect_partitions, Dataset};

    /// A small shuffle-light test workload.
    struct TestLoad {
        parallelism: usize,
        work_per_record: f64,
    }

    impl DriverProgram for TestLoad {
        fn name(&self) -> String {
            "test-load".into()
        }
        fn parallelism(&self) -> usize {
            self.parallelism
        }
        fn submit(&self, sim: &mut Sim, engine: &Engine, done: Box<dyn FnOnce(&mut Sim)>) {
            let parts = self.parallelism;
            let ds = Dataset::<u64>::generate(parts * 4, |p| {
                (0..5_000u64).map(|i| i + p as u64).collect()
            })
            .map_with_cost(|x| (*x % 32, 1u64), Some(self.work_per_record))
            .reduce_by_key(parts, |a, b| a + b);
            engine.submit_job(sim, ds.node(), move |sim, out| {
                let rows = collect_partitions::<(u64, u64)>(out.partitions);
                assert_eq!(rows.len(), 32, "workload result must be correct");
                done(sim);
            });
        }
    }

    fn quiet_spec() -> ScenarioSpec {
        ScenarioSpec {
            required_cores: 8,
            available_cores: 2,
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

    fn load() -> Box<dyn Fn() -> Box<dyn DriverProgram>> {
        Box::new(|| {
            Box::new(TestLoad {
                parallelism: 8,
                work_per_record: 2e-4,
            })
        })
    }

    #[test]
    fn all_eight_scenarios_complete() {
        let spec = quiet_spec();
        for scenario in Scenario::all() {
            let r = run_scenario(scenario, &spec, &load());
            assert!(r.execution_secs > 0.0, "{}: no time elapsed", r.label);
            assert!(r.cost_usd > 0.0, "{}: no cost", r.label);
        }
    }

    #[test]
    fn labels_match_paper_convention() {
        assert_eq!(Scenario::SparkSmallVm.label(32, 8), "Spark 8 VM");
        assert_eq!(Scenario::SparkRVm.label(32, 8), "Spark 32 VM");
        assert_eq!(Scenario::QuboleLambda.label(32, 8), "Qubole 32 La");
        assert_eq!(Scenario::SsHybrid.label(32, 8), "SS 8 VM / 24 La");
        assert_eq!(
            Scenario::SsHybridSegue.label(16, 3),
            "SS 3 VM / 13 La Segue"
        );
        // More free cores than the job needs: r clamps to R, nothing underflows.
        assert_eq!(Scenario::SsHybrid.label(8, 32), "SS 8 VM / 0 La");
        assert_eq!(Scenario::SparkSmallVm.label(8, 32), "Spark 8 VM");
    }

    #[test]
    fn under_provisioned_is_slower_than_full() {
        let spec = quiet_spec();
        let full = run_scenario(Scenario::SparkRVm, &spec, &load());
        let small = run_scenario(Scenario::SparkSmallVm, &spec, &load());
        assert!(
            small.execution_secs > full.execution_secs * 2.0,
            "8 vs 2 cores: {} vs {}",
            small.execution_secs,
            full.execution_secs
        );
    }

    #[test]
    fn hybrid_beats_vm_autoscale_for_latency_critical_jobs() {
        let spec = quiet_spec();
        let auto = run_scenario(Scenario::SparkAutoscale, &spec, &load());
        let hybrid = run_scenario(Scenario::SsHybrid, &spec, &load());
        assert!(
            hybrid.execution_secs < auto.execution_secs,
            "hybrid {} vs autoscale {}",
            hybrid.execution_secs,
            auto.execution_secs
        );
        assert!(hybrid.tasks_on_lambda > 0 && hybrid.tasks_on_vm > 0);
    }

    #[test]
    fn ss_r_vm_is_close_to_spark_r_vm() {
        let spec = quiet_spec();
        let spark = run_scenario(Scenario::SparkRVm, &spec, &load());
        let ss = run_scenario(Scenario::SsRVm, &spec, &load());
        let ratio = ss.execution_secs / spark.execution_secs;
        assert!(
            ratio < 1.8,
            "SS overhead should be modest (paper: ≤1.6x worst case): {ratio}"
        );
    }

    #[test]
    fn scenario_runs_are_deterministic() {
        let spec = quiet_spec();
        let a = run_scenario(Scenario::SsHybrid, &spec, &load());
        let b = run_scenario(Scenario::SsHybrid, &spec, &load());
        assert_eq!(a.execution_secs, b.execution_secs);
        assert_eq!(a.cost_usd, b.cost_usd);
        assert_eq!(a.events.len(), b.events.len());
    }

    #[test]
    fn observability_captures_the_hybrid_segue_run() {
        let mut spec = quiet_spec();
        // Make the segue land mid-job: replacements at 1 s, lambdas aged
        // out 2 s after registration.
        spec.segue_existing_cores_at = Some(SimDuration::from_secs(1));
        spec.lambda_timeout = SimDuration::from_secs(2);
        let obs = spec.enable_observability();
        let r = run_scenario(Scenario::SsHybridSegue, &spec, &load());
        assert!(r.tasks_on_vm > 0 && r.tasks_on_lambda > 0);

        let spans = obs.spans.finished_spans();
        assert!(
            spans.iter().any(|s| s.lane == "vm" && s.name.starts_with("task ")),
            "VM executor lane has task spans"
        );
        assert!(
            spans
                .iter()
                .any(|s| s.lane == "lambda" && s.name.starts_with("task ")),
            "Lambda executor lane has task spans"
        );
        assert!(
            spans.iter().any(|s| s.name == "warm start" || s.name == "cold start"),
            "lambda start spans recorded"
        );
        assert!(
            spans.iter().any(|s| s.name.starts_with("segue drain")),
            "segue drain span recorded"
        );
        assert_eq!(obs.spans.nesting_violation(), None);
        // The storage decorator saw the HDFS traffic.
        assert!(obs.metrics.counter_total("store_ops_total") > 0);
        assert!(
            obs.metrics
                .histogram("segue_drain_seconds", &[])
                .is_some_and(|h| h.count > 0),
            "drain latency observed"
        );
        // And the whole thing exports.
        let trace = obs.spans.to_chrome_trace();
        assert!(trace.contains("\"traceEvents\""));
        assert!(obs.metrics.render_prometheus().contains("# TYPE"));
    }

    #[test]
    fn scenario_obs_is_off_by_default() {
        let spec = quiet_spec();
        assert!(!spec.engine.obs.is_enabled());
        let r = run_scenario(Scenario::SsHybrid, &spec, &load());
        assert!(r.execution_secs > 0.0);
    }

    #[test]
    fn qubole_uses_s3_and_pays_request_costs() {
        let spec = quiet_spec();
        let q = run_scenario(Scenario::QuboleLambda, &spec, &load());
        assert_eq!(q.tasks_on_vm, 0, "Qubole runs everything on Lambdas");
        assert!(q.store_stats.puts > 0);
    }
}

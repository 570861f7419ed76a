//! Umbrella crate: hosts the workspace-level integration tests and
//! examples, and the builders of the five artifacts they share. Each
//! builder runs its experiment single-threaded and returns the typed
//! outcome; the examples print and write what it renders,
//! `tests/artifact_pins.rs` pins the same bytes and asserts the
//! paper-shape claims on the same typed values.

use std::fmt::Write as _;

use std::rc::Rc;

use splitserve::tenancy::{
    bursty_arrivals, combined_fingerprint, default_fleet_jobs, default_tenant_specs,
    fleet_workload, recurrent_fleet_jobs, render_coldstart_sweep_json, render_fleet_json,
    run_coldstart_arm, run_coldstart_sweep, run_tenant_fleet, verify_log, ColdstartArm, FleetJob,
    FleetOutcome, FleetPolicy, TenantFleetConfig, TenantSpec,
};
use splitserve::{
    plan_split, record_split_plan, run_scenario, DriverProgram, Scenario, ScenarioResult,
    ScenarioSpec, ShuffleStoreKind,
};
use splitserve_chaos::workloads::{ChaosCloudSort, ChaosPageRank, ChaosWorkload};
use splitserve_chaos::{run_case, ChaosTopology, FaultPlan};
use splitserve_cloud::{CloudSpec, ColdStartSpec};
use splitserve_des::{Dist, Sim, SimDuration, SimTime};
use splitserve_engine::{Dataset, Engine};
use splitserve_obs::{Obs, SloLedger, TenantId};
use splitserve_rt::hash::xxh64;
use splitserve_workloads::CloudSort;

/// Writes `bytes` to `path` (creating its directory) and returns the
/// `wrote <path> (<n> bytes) digest=<xxh64>` tail of an example's final
/// stdout line.
pub fn write_artifact(path: &str, bytes: &str) -> std::io::Result<String> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, bytes)?;
    Ok(format!(
        "wrote {path} ({} bytes) digest={:016x}",
        bytes.len(),
        xxh64(0, bytes.as_bytes())
    ))
}

/// The tenant fleet: 100 tenants, ~10.5k jobs over 1200 s on a 40-core
/// pool, one run per [`FleetPolicy`] with its data fingerprint.
pub struct TenantFleet {
    /// The tenant population.
    pub tenants: Vec<TenantSpec>,
    /// Jobs submitted to every policy.
    pub jobs: usize,
    /// Per policy, in [`FleetPolicy::all`] order: outcome and fingerprint.
    pub results: Vec<(FleetOutcome, u64)>,
}

impl TenantFleet {
    /// The JSON artifact.
    pub fn json(&self) -> String {
        render_fleet_json(1, &self.tenants, self.jobs, &self.results)
    }
}

/// Runs the tenant fleet, replaying every admission log through
/// [`verify_log`]. Progress goes to stderr.
pub fn tenant_fleet() -> TenantFleet {
    let horizon_secs = 1_200.0;
    let pool_cores = 40;
    let tenants = default_tenant_specs(100);
    let jobs = default_fleet_jobs(&tenants, 11, 10_500, horizon_secs);
    eprintln!(
        "tenant-fleet: {} tenants, {} jobs over {horizon_secs}s, pool {pool_cores} cores",
        tenants.len(),
        jobs.len()
    );
    let results = FleetPolicy::all()
        .into_iter()
        .map(|policy| {
            let cfg = TenantFleetConfig::for_policy(policy, tenants.clone(), pool_cores);
            let (wl, sink) = fleet_workload(8);
            let r = run_tenant_fleet(&cfg, &jobs, wl);
            verify_log(cfg.slots, &tenants, &r.admission).expect("admission invariants");
            let fp = combined_fingerprint(&sink.borrow());
            eprintln!(
                "  {policy:>12}: attainment {:.3}, cost ${:.2}, {} lambdas, \
                 mean wait {:.2}s, hol {:.1}s",
                r.slo.fleet_attainment(),
                r.cost_usd,
                r.lambdas_launched,
                r.mean_admission_wait_secs(),
                r.hol_blocking_secs()
            );
            (r, fp)
        })
        .collect();
    TenantFleet {
        tenants,
        jobs: jobs.len(),
        results,
    }
}

/// Rounds and idle gap of the sweep's engine-free recurrent microtrace.
pub const MICRO_ROUNDS: usize = 30;
/// See [`MICRO_ROUNDS`].
pub const MICRO_GAP_SECS: u64 = 45;

/// The cold-start policy sweep: 6 tenants, 6 bursts of 20 jobs every
/// 45 s on an 8-core pool, one splitserve-policy fleet per warm-pool arm.
pub struct ColdstartSweep {
    /// The tenant population.
    pub tenants: Vec<TenantSpec>,
    /// Jobs submitted to every arm.
    pub jobs: usize,
    /// The canonical arms, then the extra one if asked for.
    pub arms: Vec<ColdstartArm>,
}

impl ColdstartSweep {
    /// The JSON artifact (microtrace + arms).
    pub fn json(&self) -> String {
        render_coldstart_sweep_json(
            1,
            &self.tenants,
            self.jobs,
            MICRO_ROUNDS,
            MICRO_GAP_SECS,
            &self.arms,
        )
    }
}

/// Runs the sweep, appending `extra` as one more arm, and replays every
/// arm's admission log through [`verify_log`]. Progress goes to stderr.
pub fn coldstart_sweep(extra: Option<&ColdStartSpec>) -> ColdstartSweep {
    let pool_cores = 8;
    let tenants = default_tenant_specs(6);
    let jobs = recurrent_fleet_jobs(&tenants, 6, 20, 45);
    eprintln!(
        "coldstart-sweep: {} tenants, {} jobs in 6 bursts of 20 every 45s, pool {pool_cores} cores",
        tenants.len(),
        jobs.len()
    );
    let mut arms = run_coldstart_sweep(&tenants, &jobs, pool_cores);
    if let Some(spec) = extra {
        eprintln!("coldstart-sweep: extra arm {}", spec.selector());
        arms.push(run_coldstart_arm(&tenants, &jobs, pool_cores, spec));
    }
    let slots =
        TenantFleetConfig::for_policy(FleetPolicy::SplitServe, tenants.clone(), pool_cores).slots;
    for arm in &arms {
        verify_log(slots, &tenants, &arm.outcome.admission).expect("admission invariants");
        let p = &arm.outcome.pool;
        eprintln!(
            "  {:>13} ({}): {} warm / {} cold / {} prewarm, cold frac {:.3}, \
             wasted {:.2} GB·s, evicted {}/{}/{}, attainment {:.3}, ${:.2}",
            arm.selector,
            arm.outcome.coldstart_policy,
            p.warm_starts,
            p.cold_starts,
            p.prewarm_starts,
            p.cold_fraction(),
            p.wasted_gb_seconds(),
            p.evicted_expired,
            p.evicted_pressure,
            p.evicted_shutdown,
            arm.outcome.slo.fleet_attainment(),
            arm.outcome.cost_usd,
        );
    }
    ColdstartSweep {
        tenants,
        jobs: jobs.len(),
        arms,
    }
}

/// The stream workload of the SLO dashboard: a shuffle (reduceByKey)
/// job sized to the cores the inter-job manager prescribes.
struct BurstLoad {
    cores: u32,
}

impl DriverProgram for BurstLoad {
    fn name(&self) -> String {
        "burst".into()
    }
    fn parallelism(&self) -> usize {
        self.cores as usize
    }
    fn submit(&self, sim: &mut Sim, engine: &Engine, done: Box<dyn FnOnce(&mut Sim)>) {
        let width = self.cores as usize * 2;
        let ds = Dataset::<u64>::generate(width, |p| (0..1_000u64).map(|i| i + p as u64).collect())
            .map_with_cost(|x| (*x % 4, 1u64), Some(1e-3))
            .reduce_by_key(4, |a, b| a + b);
        engine.submit_job(sim, ds.node(), move |sim, _| done(sim));
    }
}

/// The latency quantiles the dashboard shows, by label.
pub const DASHBOARD_QUANTILES: [(&str, f64); 4] =
    [("p50", 0.5), ("p90", 0.9), ("p95", 0.95), ("p99", 0.99)];

/// The SLO dashboard: the paper's bursty job stream under the fixed VM
/// pool and under SplitServe's launching facility, telemetry on.
pub struct SloDashboard {
    /// Jobs in the stream.
    pub jobs: usize,
    /// Per policy (vm-only, splitserve): the single-tenant fleet outcome
    /// and that run's own telemetry.
    pub policies: Vec<(FleetOutcome, Obs)>,
}

/// The dashboard's name for a policy: its fixed pool is "vm-pool-only",
/// as the pinned artifact has always spelled it.
pub fn dashboard_policy_label(policy: FleetPolicy) -> &'static str {
    match policy {
        FleetPolicy::VmOnly => "vm-pool-only",
        other => other.as_str(),
    }
}

fn quantile_block(out: &mut String, slo: &SloLedger) {
    let tenant = TenantId::default();
    out.push_str("\"latency_quantiles\":{");
    for (i, (label, q)) in DASHBOARD_QUANTILES.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        match slo.latency_quantile(&tenant, *q) {
            Some(v) => {
                let _ = write!(out, "\"{label}\":{v:.6}");
            }
            None => {
                let _ = write!(out, "\"{label}\":null");
            }
        }
    }
    out.push('}');
}

fn policy_block(out: &mut String, r: &FleetOutcome, obs: &Obs) {
    let tenant = TenantId::default();
    let _ = write!(
        out,
        "{{\"policy\":\"{}\",\"jobs\":{},\"slo_attainment\":{:.6},\"cost_usd\":{:.6},\
         \"lambdas_launched\":{},",
        dashboard_policy_label(r.policy),
        r.outcomes.len(),
        r.slo.fleet_attainment(),
        r.cost_usd,
        r.lambdas_launched
    );
    // The attainment curve: one point per job completion.
    out.push_str("\"attainment_curve\":[");
    for (i, p) in r.slo.curve(&tenant).iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"t_us\":{},\"latency_secs\":{:.6},\"slo_secs\":{:.6},\"met\":{},\
             \"attainment\":{:.6}}}",
            p.at.as_micros(),
            p.latency_secs,
            p.slo_secs,
            p.met,
            p.attainment
        );
    }
    out.push_str("],");
    // The cumulative-bill curve.
    out.push_str("\"bill_curve\":[");
    for (i, p) in r.bill.curve(&tenant).iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"t_us\":{},\"kind\":\"{}\",\"amount_usd\":{:.6},\"cumulative_usd\":{:.6}}}",
            p.at.as_micros(),
            p.kind,
            p.amount_usd,
            p.cumulative_usd
        );
    }
    out.push_str("],");
    quantile_block(out, &r.slo);
    out.push(',');
    let _ = write!(
        out,
        "\"stragglers_suspected\":{},",
        obs.metrics.counter_total("stragglers_suspected_total")
    );
    let _ = write!(out, "\"rollups\":{}", obs.rollups.to_json());
    out.push('}');
}

impl SloDashboard {
    /// The JSON artifact: per policy the SLO-attainment curve, the
    /// cumulative-bill curve, streaming-digest latency quantiles and the
    /// windowed task-run rollups.
    pub fn json(&self) -> String {
        let mut json = String::new();
        let _ = write!(json, "{{\"workers\":1,\"jobs\":{},", self.jobs);
        json.push_str("\"policies\":[");
        for (i, (r, obs)) in self.policies.iter().enumerate() {
            if i > 0 {
                json.push(',');
            }
            policy_block(&mut json, r, obs);
        }
        json.push_str("]}");
        json
    }
}

/// Runs the dashboard's two policies.
pub fn slo_dashboard() -> SloDashboard {
    // Bursty arrivals with an SLO tight enough that the fixed pool
    // misses some bursts and the launching facility's bridging shows up
    // in the attainment curve.
    let jobs = bursty_arrivals(9, 3, 60.0, 4.0);
    let policies = [FleetPolicy::VmOnly, FleetPolicy::SplitServe]
        .into_iter()
        .map(|policy| {
            // Fresh telemetry per policy so curves and rollups don't mix.
            let mut spec = ScenarioSpec {
                cloud: CloudSpec {
                    vm_boot: Dist::constant(110.0),
                    lambda_warm_start: Dist::constant(0.12),
                    lambda_cold_start: Dist::constant(3.0),
                    lambda_net_jitter: Dist::constant(1.0),
                    ..CloudSpec::default()
                },
                ..ScenarioSpec::default()
            };
            let obs = spec.enable_observability();
            let r = run_tenant_fleet(
                &TenantFleetConfig::single_tenant(policy, &spec, 8),
                &jobs,
                Rc::new(|fj: &FleetJob| -> Box<dyn DriverProgram> {
                    Box::new(BurstLoad { cores: fj.cores })
                }),
            );
            (r, obs)
        })
        .collect();
    SloDashboard {
        jobs: jobs.len(),
        policies,
    }
}

/// The chaos determinism matrix: 16 fixed fault-plan seeds × two
/// workloads × both shuffle stores.
pub struct ChaosSmoke {
    /// One line per case, in run order.
    pub lines: Vec<String>,
    /// Cases that finished with an output fingerprint.
    pub completed: usize,
}

impl ChaosSmoke {
    /// The bytes the digest certifies: every case line, unseparated.
    pub fn digest_input(&self) -> String {
        self.lines.concat()
    }

    /// The example's stdout: the case lines, then the summary line whose
    /// digest alone certifies the whole matrix.
    pub fn text(&self) -> String {
        let mut out = String::new();
        for line in &self.lines {
            out.push_str(line);
            out.push('\n');
        }
        let _ = writeln!(
            out,
            "chaos-smoke: {}/{} cases completed, digest={:016x}",
            self.completed,
            self.lines.len(),
            xxh64(0, self.digest_input().as_bytes())
        );
        out
    }
}

/// Runs the chaos matrix.
pub fn chaos_smoke() -> ChaosSmoke {
    const SEEDS: u64 = 16;
    let topo = ChaosTopology::default();
    let workloads: [&dyn ChaosWorkload; 2] = [&ChaosPageRank::small(), &ChaosCloudSort::small()];
    let mut smoke = ChaosSmoke {
        lines: Vec::new(),
        completed: 0,
    };
    for w in workloads {
        for seed in 0..SEEDS {
            let plan = FaultPlan::generate(seed);
            for kind in [ShuffleStoreKind::Hdfs, ShuffleStoreKind::Local] {
                let r = run_case(w, kind, Some(&plan), &topo);
                smoke.lines.push(format!(
                    "{:<9} seed={seed:<2} store={kind:<5} fp={} rollbacks={} losses={} \
                     recomputed={} kills={} faults={}/{}/{} done_us={}",
                    w.name(),
                    r.fingerprint
                        .map_or_else(|| "-".to_string(), |fp| format!("{fp:016x}")),
                    r.rollbacks,
                    r.executor_losses,
                    r.recomputed,
                    r.kills,
                    r.fetch_faults,
                    r.write_faults,
                    r.delays,
                    r.completed_at
                        .map_or_else(|| "-".to_string(), |t| t.as_micros().to_string()),
                ));
                smoke.completed += usize::from(r.fingerprint.is_some());
            }
        }
    }
    smoke
}

/// The traced CloudSort: the paper's `SS VM / La Segue` scenario with the
/// observability layer on.
pub struct TraceTimeline {
    /// The driver program's name.
    pub workload: String,
    /// The scenario outcome.
    pub result: ScenarioResult,
    /// The run's telemetry: `obs.spans` exports the Chrome trace,
    /// `obs.metrics` the Prometheus snapshot.
    pub obs: Obs,
}

impl TraceTimeline {
    /// Writes `<out_dir>/trace_timeline.json` (the Chrome trace) and
    /// `<out_dir>/trace_timeline.prom` (the Prometheus snapshot) through
    /// [`write_artifact`]; returns their two `wrote …` lines.
    pub fn write(&self, out_dir: &str) -> std::io::Result<[String; 2]> {
        let json = self.obs.spans.to_chrome_trace();
        let prom = self.obs.metrics.render_prometheus();
        Ok([
            write_artifact(&format!("{out_dir}/trace_timeline.json"), &json)?,
            write_artifact(&format!("{out_dir}/trace_timeline.prom"), &prom)?,
        ])
    }
}

/// Runs the traced CloudSort.
pub fn trace_timeline() -> TraceTimeline {
    // The §4.2 walkthrough shape: the sort needs 16 cores, finds 3 free,
    // bridges with 13 Lambdas. The sort is short (~1 s virtual), so the
    // segue is scaled to land mid-job: replacement VM cores free up at
    // 500 ms and Lambdas drain once they are 500 ms old.
    let mut spec = ScenarioSpec {
        required_cores: 16,
        available_cores: 3,
        segue_existing_cores_at: Some(SimDuration::from_millis(500)),
        lambda_timeout: SimDuration::from_millis(500),
        seed: 7,
        ..ScenarioSpec::default()
    };
    let obs = spec.enable_observability();

    // The launching facility's decision, recorded on the driver lane so
    // the trace explains the executor mix it shows.
    let plan = plan_split(
        spec.required_cores,
        spec.available_cores,
        60.0,
        110.0,
        splitserve::fig1_crossover_default(),
    );
    record_split_plan(&obs, SimTime::from_secs(0), &plan);

    let sort = CloudSort::new(300_000, 16, 7);
    let workload = sort.name();
    let factory = move || -> Box<dyn DriverProgram> { Box::new(sort.clone()) };
    let result = run_scenario(Scenario::SsHybridSegue, &spec, &factory);
    TraceTimeline {
        workload,
        result,
        obs,
    }
}

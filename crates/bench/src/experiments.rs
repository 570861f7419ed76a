//! One function per paper figure: each builds the workload, runs the
//! scenarios, and returns result tables. [`EXPERIMENTS`] lists them in
//! print order; `reproduce_all` and the integration tests walk that table.

use std::rc::Rc;

use splitserve::tenancy::{run_tenant_fleet, FleetJob, FleetPolicy, TenantFleetConfig};
use splitserve::{
    evaluate_policy, profile_sweep, run_job, run_scenario, start_allocator, AllocatorConfig,
    DayModel, DriverProgram, ProfileMode, ProvisionPolicy, Scenario, ScenarioResult, ScenarioSpec,
    ShuffleStoreKind,
};
use splitserve_cloud::{
    fig1_crossover, fig1_vcpu_cost_at, Category, M4_10XLARGE, M4_16XLARGE, M4_4XLARGE, M4_LARGE,
    M4_XLARGE,
};
use splitserve_des::SimDuration;
use splitserve_engine::{EngineEvent, EngineEventKind, TaskRef};
use splitserve_workloads::{CloudSort, KMeans, PageRank, SparkPi, TpcdsLoad, TpcdsQuery};

use crate::report::{mean_sd, secs, usd, Table};

/// Experiment fidelity: `paper` runs the full published configuration;
/// `quick` shrinks inputs and trial counts for CI.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fidelity {
    /// Full paper-scale configuration.
    Paper,
    /// Reduced configuration (~seconds of host time).
    Quick,
}

/// One experiment: its tables, in print order, at a fidelity and seed.
pub(crate) type Experiment = fn(Fidelity, u64) -> Vec<Table>;

/// Every experiment by `--only` key, in `reproduce_all` order. The full
/// output is the concatenation of the slices.
pub const EXPERIMENTS: &[(&str, Experiment)] = &[
    ("fig1", |_, _| vec![fig1()]),
    ("fig2", |_, seed| {
        let (series, policies) = fig2(seed);
        vec![series, policies]
    }),
    ("fig4", |f, seed| {
        vec![
            fig4(ProfileMode::LambdaOnly, f, seed),
            fig4(ProfileMode::VmOnly, f, seed),
        ]
    }),
    ("fig5", |f, seed| vec![fig5(f, seed)]),
    ("fig6", |f, seed| vec![fig6(f, seed)]),
    ("fig7", |f, seed| {
        fig7(f, seed).iter().map(timeline_table).collect()
    }),
    ("fig8", |f, seed| vec![fig8(f, seed)]),
    ("fig9", |f, seed| vec![fig9(f, seed)]),
    ("ablations", |f, seed| {
        vec![
            ablation_stores(f, seed),
            ablation_segue_threshold(f, seed),
            ablation_lambda_memory(f, seed),
            ablation_cloudsort(f, seed),
            ablation_controller(f, seed),
            ablation_job_stream(f, seed),
        ]
    }),
];

// ---------------------------------------------------------------- Fig 1

/// Figure 1: cost of one vCPU via a m4.large VM vs a 1 536 MB Lambda, as a
/// function of time-in-use, with the crossover as the table's note.
pub(crate) fn fig1() -> Table {
    let mut t = Table::new(
        "Figure 1: cost of one vCPU (m4.large vs 1536 MB Lambda)",
        &["time_s", "vm_usd", "lambda_usd"],
    );
    let mut ts: Vec<f64> = Vec::new();
    let mut x = 0.1;
    while x <= 300.0 {
        ts.push(x);
        x += if x < 5.0 { 0.1 } else { 5.0 };
    }
    for s in ts {
        let (vm, la) = fig1_vcpu_cost_at(&M4_LARGE, SimDuration::from_secs_f64(s));
        t.push(vec![format!("{s:.1}"), format!("{vm:.7}"), format!("{la:.7}")]);
    }
    t.notes
        .push(format!("crossover: {:.1}s", fig1_crossover_secs()));
    t
}

/// The Figure 1 crossover point (seconds after which the Lambda costs
/// more than the VM vCPU).
pub fn fig1_crossover_secs() -> f64 {
    fig1_crossover(&M4_LARGE, SimDuration::from_secs(7_200))
        .expect("crossover exists")
        .as_secs_f64()
}

// ---------------------------------------------------------------- Fig 2

/// Figure 2: predicted demand bands and a realized path over a workday,
/// plus the provisioning-policy comparison the figure motivates.
pub(crate) fn fig2(seed: u64) -> (Table, Table) {
    let model = DayModel::default();
    let series = model.series(288, seed); // 5-minute samples
    let mut t = Table::new(
        "Figure 2: workday executor demand (m ± 2σ bands, realized w)",
        &["t_hours", "mean", "lo", "hi", "realized"],
    );
    for p in &series {
        t.push(vec![
            format!("{:.2}", p.t_hours),
            format!("{:.1}", p.mean),
            format!("{:.1}", p.lo),
            format!("{:.1}", p.hi),
            format!("{:.1}", p.realized),
        ]);
    }
    let mut pol = Table::new(
        "Figure 2 (policies): conservative m+2σ vs lean m",
        &[
            "policy",
            "shortfall_frac",
            "shortfall_core_h",
            "provisioned_core_h",
            "idle_core_h",
        ],
    );
    for (name, policy) in [
        ("m(t)+2σ(t)", ProvisionPolicy::MeanPlusSigma(2.0)),
        ("m(t)", ProvisionPolicy::Mean),
    ] {
        let o = evaluate_policy(&series, policy);
        pol.push(vec![
            name.into(),
            format!("{:.3}", o.shortfall_frac),
            format!("{:.1}", o.shortfall_core_hours),
            format!("{:.1}", o.provisioned_core_hours),
            format!("{:.1}", o.idle_core_hours),
        ]);
    }
    (t, pol)
}

// ---------------------------------------------------------------- Fig 4

/// Figure 4 input sizes: (label, pages).
pub fn fig4_sizes(f: Fidelity) -> Vec<(&'static str, u64)> {
    match f {
        Fidelity::Paper => vec![("small", 25_000), ("medium", 50_000), ("large", 100_000)],
        Fidelity::Quick => vec![("small", 4_000), ("large", 12_000)],
    }
}

/// Figure 4 parallelism ladder.
pub fn fig4_ladder(f: Fidelity) -> Vec<u32> {
    match f {
        Fidelity::Paper => vec![1, 2, 4, 8, 16, 32, 64, 128],
        Fidelity::Quick => vec![1, 2, 4, 8],
    }
}

/// Figure 4: PageRank profiling — execution time and cost vs degree of
/// parallelism, all-Lambda (a) or all-VM (b).
pub(crate) fn fig4(mode: ProfileMode, f: Fidelity, seed: u64) -> Table {
    let which = match mode {
        ProfileMode::LambdaOnly => "(a) Lambda-based executors",
        ProfileMode::VmOnly => "(b) VM-based executors",
    };
    let mut t = Table::new(
        format!("Figure 4{which}: PageRank profiling"),
        &["size", "pages", "parallelism", "exec_s", "cost_usd"],
    );
    let spec = ScenarioSpec {
        master_type: M4_XLARGE,
        seed,
        ..ScenarioSpec::default()
    };
    for (label, pages) in fig4_sizes(f) {
        let factory = move |p: u32| -> Box<dyn DriverProgram> {
            Box::new(PageRank::new(pages, 3, p as usize, seed).with_contrib_cost(1.0e-4))
        };
        let points = profile_sweep(mode, &fig4_ladder(f), &spec, &factory);
        for pt in points {
            t.push(vec![
                label.into(),
                pages.to_string(),
                pt.parallelism.to_string(),
                secs(pt.execution_secs),
                usd(pt.cost_usd),
            ]);
        }
    }
    t
}

// ---------------------------------------------------------------- Fig 5

/// The seven scenarios of Figures 5 and 8: all but the segue (the TPC-DS
/// queries finish in about a minute, so "no tasks needed segueing"; the
/// paper presents K-means as the case where all-Lambda beats the hybrid).
pub fn no_segue_scenarios() -> Vec<Scenario> {
    Scenario::all()
        .into_iter()
        .filter(|s| *s != Scenario::SsHybridSegue)
        .collect()
}

/// The cluster spec of the TPC-DS experiment: R = 32, r = 8, workers and
/// master/HDFS on m4.10xlarge ("to get similar dedicated EBS bandwidth").
pub(crate) fn fig5_spec(seed: u64) -> ScenarioSpec {
    ScenarioSpec {
        required_cores: 32,
        available_cores: 8,
        worker_type: M4_10XLARGE,
        master_type: M4_10XLARGE,
        seed,
        ..ScenarioSpec::default()
    }
}

/// Figure 5: the four TPC-DS queries across the scenarios. Each row also
/// reports the slowdown normalized to `Spark 32 VM`.
pub(crate) fn fig5(f: Fidelity, seed: u64) -> Table {
    let mut t = Table::new(
        "Figure 5: TPC-DS Q5/Q16/Q94/Q95 (SF 8, R=32, r=8)",
        &["query", "scenario", "exec_s", "vs_Spark_R_VM", "cost_usd", "tasks_vm", "tasks_la"],
    );
    let spec = fig5_spec(seed);
    for query in [TpcdsQuery::Q5, TpcdsQuery::Q16, TpcdsQuery::Q94, TpcdsQuery::Q95] {
        let factory = move || -> Box<dyn DriverProgram> {
            Box::new(match f {
                Fidelity::Paper => TpcdsLoad::paper_config(query, seed),
                Fidelity::Quick => TpcdsLoad {
                    shuffle_partitions: 32,
                    ..TpcdsLoad::tiny(query, seed)
                },
            })
        };
        push_scenario_rows(&mut t, &query.to_string(), &no_segue_scenarios(), &spec, &factory);
    }
    t
}

/// Runs `scenarios` in order and appends one row each; rows from
/// `Spark R VM` on carry their slowdown relative to it.
fn push_scenario_rows(
    t: &mut Table,
    workload: &str,
    scenarios: &[Scenario],
    spec: &ScenarioSpec,
    factory: &dyn Fn() -> Box<dyn DriverProgram>,
) {
    let mut baseline = None;
    for scenario in scenarios {
        let r = run_scenario(*scenario, spec, factory);
        if *scenario == Scenario::SparkRVm {
            baseline = Some(r.execution_secs);
        }
        let rel = baseline
            .map(|b| format!("{:.2}x", r.execution_secs / b))
            .unwrap_or_else(|| "-".into());
        t.push(vec![
            workload.to_string(),
            r.label,
            secs(r.execution_secs),
            rel,
            usd(r.cost_usd),
            r.tasks_on_vm.to_string(),
            r.tasks_on_lambda.to_string(),
        ]);
    }
}

// ---------------------------------------------------------------- Fig 6

/// The PageRank cluster: R = 16, r = 3, workers on m4.4xlarge, master +
/// single HDFS node colocated on an m4.xlarge (750 Mbps EBS — the
/// bottleneck the paper discusses).
pub(crate) fn fig6_spec(seed: u64) -> ScenarioSpec {
    ScenarioSpec {
        required_cores: 16,
        available_cores: 3,
        worker_type: M4_4XLARGE,
        master_type: M4_XLARGE,
        segue_existing_cores_at: Some(SimDuration::from_secs(45)),
        lambda_timeout: SimDuration::from_secs(30),
        seed,
        ..ScenarioSpec::default()
    }
}

/// The Figure 6 PageRank workload (850 000 pages; scaled down in quick
/// mode).
pub(crate) fn fig6_workload(f: Fidelity, seed: u64) -> PageRank {
    match f {
        // Contribution cost calibrated so the 16-core vanilla baseline
        // lands near the paper's ~100 s job duration.
        Fidelity::Paper => PageRank::new(850_000, 3, 16, seed).with_contrib_cost(2.0e-4),
        Fidelity::Quick => PageRank::new(40_000, 3, 16, seed).with_contrib_cost(2.0e-4),
    }
}

/// Figure 6: PageRank across all eight scenarios.
pub(crate) fn fig6(f: Fidelity, seed: u64) -> Table {
    let mut t = Table::new(
        "Figure 6: PageRank (850k pages, R=16, r=3)",
        &["workload", "scenario", "exec_s", "vs_Spark_R_VM", "cost_usd", "tasks_vm", "tasks_la"],
    );
    let factory = move || -> Box<dyn DriverProgram> { Box::new(fig6_workload(f, seed)) };
    push_scenario_rows(&mut t, "PageRank", &Scenario::all(), &fig6_spec(seed), &factory);
    t
}

// ---------------------------------------------------------------- Fig 7

/// One executor's lane in a timeline.
#[derive(Debug, Clone)]
pub(crate) struct TimelineLane {
    /// Executor id.
    executor: String,
    /// `vm` or `lambda`.
    kind: String,
    /// First task start (seconds).
    first_start: f64,
    /// Last task end (seconds).
    last_end: f64,
    /// Tasks completed on this executor.
    tasks: u64,
}

/// A rendered execution timeline for one scenario run.
#[derive(Debug, Clone)]
pub(crate) struct Timeline {
    /// The scenario label.
    label: String,
    /// Job completion time.
    finished_at: f64,
    /// When the segue marker fired, if it did.
    segue_at: Option<f64>,
    /// Stage completion instants.
    stage_completions: Vec<f64>,
    /// Per-executor lanes.
    lanes: Vec<TimelineLane>,
}

/// Extracts a [`Timeline`] from a scenario's event log.
pub(crate) fn timeline_of(r: &ScenarioResult) -> Timeline {
    use std::collections::BTreeMap;
    let mut lanes: BTreeMap<String, TimelineLane> = BTreeMap::new();
    let mut kinds: BTreeMap<String, String> = BTreeMap::new();
    let mut segue_at = None;
    let mut stage_completions = Vec::new();
    let events: &[EngineEvent] = &r.events;
    for e in events {
        let at = e.at.as_secs_f64();
        match &e.kind {
            EngineEventKind::ExecutorRegistered { exec, kind } => {
                kinds.insert(exec.as_str().to_string(), kind.to_string());
            }
            EngineEventKind::TaskStarted { task: TaskRef { exec, .. }, .. } => {
                let lane = lanes.entry(exec.as_str().to_string()).or_insert_with(|| TimelineLane {
                    executor: exec.as_str().to_string(),
                    kind: kinds.get(exec.as_str()).cloned().unwrap_or_default(),
                    first_start: at,
                    last_end: at,
                    tasks: 0,
                });
                lane.first_start = lane.first_start.min(at);
            }
            EngineEventKind::TaskFinished { task: TaskRef { exec, .. }, .. } => {
                if let Some(lane) = lanes.get_mut(exec.as_str()) {
                    lane.last_end = lane.last_end.max(at);
                    lane.tasks += 1;
                }
            }
            EngineEventKind::StageCompleted { .. } => stage_completions.push(at),
            EngineEventKind::Marker("segue commences") => segue_at = Some(at),
            _ => {}
        }
    }
    Timeline {
        label: r.label.clone(),
        finished_at: r.execution_secs,
        segue_at,
        stage_completions,
        lanes: lanes.into_values().collect(),
    }
}

/// Figure 7: the three PageRank timelines — 16 VM cores, 3 VM + 13 La, and
/// 3 VM + 13 La with segue at 45 s.
pub(crate) fn fig7(f: Fidelity, seed: u64) -> Vec<Timeline> {
    let spec = fig6_spec(seed);
    let factory = move || -> Box<dyn DriverProgram> { Box::new(fig6_workload(f, seed)) };
    [
        Scenario::SparkRVm,
        Scenario::SsHybrid,
        Scenario::SsHybridSegue,
    ]
    .iter()
    .map(|s| timeline_of(&run_scenario(*s, &spec, &factory)))
    .collect()
}

/// Renders a timeline as a table.
pub(crate) fn timeline_table(tl: &Timeline) -> Table {
    let mut t = Table::new(
        format!(
            "Figure 7 timeline: {} (finished {}s, segue {}, {} stages)",
            tl.label,
            secs(tl.finished_at),
            tl.segue_at.map(|s| format!("{}s", secs(s))).unwrap_or_else(|| "n/a".into()),
            tl.stage_completions.len(),
        ),
        &["executor", "kind", "first_task_s", "last_task_s", "tasks"],
    );
    for lane in &tl.lanes {
        t.push(vec![
            lane.executor.clone(),
            lane.kind.clone(),
            secs(lane.first_start),
            secs(lane.last_end),
            lane.tasks.to_string(),
        ]);
    }
    t
}

// ---------------------------------------------------------------- Fig 8

/// The K-means cluster spec: R = 16, r = 4.
pub(crate) fn fig8_spec(seed: u64) -> ScenarioSpec {
    ScenarioSpec {
        required_cores: 16,
        available_cores: 4,
        worker_type: M4_4XLARGE,
        master_type: M4_XLARGE,
        seed,
        ..ScenarioSpec::default()
    }
}

/// The Figure 8 K-means workload (3 M × 20-d points; scaled down in quick
/// mode).
pub(crate) fn fig8_workload(f: Fidelity, seed: u64) -> KMeans {
    match f {
        Fidelity::Paper => KMeans::paper_config(16, seed),
        Fidelity::Quick => KMeans {
            parallelism: 16,
            ..KMeans::small(20_000, 16, seed)
        },
    }
}

/// Figure 8: K-means performance *and* cost with error bars from
/// independent trials (the paper: 15 trials, ±1 sample sd).
pub(crate) fn fig8(f: Fidelity, base_seed: u64) -> Table {
    let trials = match f {
        Fidelity::Paper => 15,
        Fidelity::Quick => 3,
    };
    let mut t = Table::new(
        "Figure 8: K-means (R=16, r=4), mean ± sd over trials",
        &["scenario", "exec_s_mean", "exec_s_sd", "cost_usd_mean", "cost_usd_sd"],
    );
    for scenario in no_segue_scenarios() {
        let mut times = Vec::new();
        let mut costs = Vec::new();
        for trial in 0..trials {
            let seed = base_seed + trial as u64;
            let spec = fig8_spec(seed);
            let factory = move || -> Box<dyn DriverProgram> { Box::new(fig8_workload(f, seed)) };
            let r = run_scenario(scenario, &spec, &factory);
            times.push(r.execution_secs);
            costs.push(r.cost_usd);
        }
        let (tm, ts_) = mean_sd(&times);
        let (cm, cs) = mean_sd(&costs);
        t.push(vec![
            scenario.label(16, 4),
            secs(tm),
            format!("{ts_:.2}"),
            usd(cm),
            format!("{cs:.5}"),
        ]);
    }
    t
}

// ---------------------------------------------------------------- Fig 9

/// The SparkPi cluster spec: R = 64 on an m4.16xlarge, r = 4.
pub(crate) fn fig9_spec(seed: u64) -> ScenarioSpec {
    ScenarioSpec {
        required_cores: 64,
        available_cores: 4,
        worker_type: M4_16XLARGE,
        master_type: M4_XLARGE,
        seed,
        ..ScenarioSpec::default()
    }
}

/// Figure 9 scenario set ("we did not assess the Lambdas-segue-to-VMs
/// setup … because the job finished under 1 minute").
pub fn fig9_scenarios() -> Vec<Scenario> {
    no_segue_scenarios()
        .into_iter()
        .filter(|s| *s != Scenario::SparkAutoscale)
        .collect()
}

/// Figure 9: SparkPi (10¹⁰ darts, 64 executors) across scenarios.
pub(crate) fn fig9(f: Fidelity, seed: u64) -> Table {
    let mut t = Table::new(
        "Figure 9: SparkPi (1e10 darts, R=64, r=4)",
        &["workload", "scenario", "exec_s", "vs_Spark_R_VM", "cost_usd", "tasks_vm", "tasks_la"],
    );
    let factory = move || -> Box<dyn DriverProgram> {
        Box::new(match f {
            Fidelity::Paper => SparkPi::paper_config(64, seed),
            Fidelity::Quick => SparkPi {
                parallelism: 64,
                tasks: 128,
                darts: 200_000_000,
                real_darts_cap_per_task: 50_000,
                ..SparkPi::paper_config(64, seed)
            },
        })
    };
    push_scenario_rows(&mut t, "SparkPi", &fig9_scenarios(), &fig9_spec(seed), &factory);
    t
}

/// Ablation: the same hybrid PageRank run over each shuffle substrate —
/// the design-choice comparison behind the paper's §4.3 store discussion.
pub(crate) fn ablation_stores(f: Fidelity, seed: u64) -> Table {
    let mut t = Table::new(
        "Ablation: shuffle substrate under the hybrid (r VM + Δ La)",
        &["store", "exec_s", "cost_usd", "throttle_wait_s"],
    );
    let spec = fig6_spec(seed);
    for store in [
        ShuffleStoreKind::Hdfs,
        ShuffleStoreKind::S3,
        ShuffleStoreKind::Sqs,
        ShuffleStoreKind::Redis,
    ] {
        let setup = Scenario::SsHybrid.setup(&spec);
        let run = run_job(&spec, store, setup, &fig6_workload(f, seed));
        t.push(vec![
            store.to_string(),
            secs(run.execution_secs),
            usd(run.cost_usd),
            format!("{:.1}", run.store_stats.throttle_wait_secs),
        ]);
    }
    t
}

/// Ablation: segue threshold (`spark.lambda.executor.timeout`) sweep.
pub(crate) fn ablation_segue_threshold(f: Fidelity, seed: u64) -> Table {
    let mut t = Table::new(
        "Ablation: spark.lambda.executor.timeout sweep (hybrid + segue)",
        &["timeout_s", "exec_s", "cost_usd", "tasks_la"],
    );
    for timeout in [10u64, 30, 60, 120, 300] {
        let spec = ScenarioSpec {
            lambda_timeout: SimDuration::from_secs(timeout),
            ..fig6_spec(seed)
        };
        let factory = move || -> Box<dyn DriverProgram> { Box::new(fig6_workload(f, seed)) };
        let r = run_scenario(Scenario::SsHybridSegue, &spec, &factory);
        t.push(vec![
            timeout.to_string(),
            secs(r.execution_secs),
            usd(r.cost_usd),
            r.tasks_on_lambda.to_string(),
        ]);
    }
    t
}

/// Ablation: Lambda memory-size sweep on the all-Lambda scenario.
pub(crate) fn ablation_lambda_memory(f: Fidelity, seed: u64) -> Table {
    let mut t = Table::new(
        "Ablation: Lambda memory size (all-Lambda K-means)",
        &["memory_mb", "exec_s", "cost_usd"],
    );
    for mem in [768u64, 1024, 1536, 2048, 3008] {
        let spec = ScenarioSpec {
            lambda_memory_mb: mem,
            ..fig8_spec(seed)
        };
        let factory = move || -> Box<dyn DriverProgram> { Box::new(fig8_workload(f, seed)) };
        let r = run_scenario(Scenario::SsRLambda, &spec, &factory);
        t.push(vec![mem.to_string(), secs(r.execution_secs), usd(r.cost_usd)]);
    }
    t
}

/// Ablation: a CloudSort-style job over each shared shuffle substrate —
/// the paper's §2 point that per-request S3 pricing explodes for
/// shuffle-write-heavy jobs while HDFS (tenant-owned) adds none.
pub(crate) fn ablation_cloudsort(f: Fidelity, seed: u64) -> Table {
    let records = match f {
        Fidelity::Paper => 400_000u64,
        Fidelity::Quick => 40_000u64,
    };
    let mut t = Table::new(
        "Ablation: CloudSort shuffle-cost by substrate",
        &["store", "exec_s", "total_usd", "request_usd", "requests"],
    );
    let spec = ScenarioSpec {
        seed,
        ..ScenarioSpec::default()
    };
    for store in [ShuffleStoreKind::Hdfs, ShuffleStoreKind::S3, ShuffleStoreKind::Sqs] {
        let run = run_job(
            &spec,
            store,
            |sim, d| {
                d.add_lambda_executors(sim, 16);
            },
            &CloudSort::new(records, 64, seed),
        );
        let cloud = run.deployment.cloud();
        let request_usd = cloud.cost_for(Category::S3Put)
            + cloud.cost_for(Category::S3Get)
            + cloud.cost_for(Category::SqsRequest);
        t.push(vec![
            store.to_string(),
            secs(run.execution_secs),
            usd(run.cost_usd),
            format!("{request_usd:.5}"),
            (run.store_stats.puts + run.store_stats.gets).to_string(),
        ]);
    }
    t
}

/// Ablation: the scripted hybrid (launch Δ Lambdas up front) vs the
/// closed-loop dynamic-allocation controller that discovers the backlog
/// by itself — the autonomous version of the launching facility.
pub(crate) fn ablation_controller(f: Fidelity, seed: u64) -> Table {
    let mut t = Table::new(
        "Ablation: scripted hybrid vs dynamic-allocation controller",
        &["mode", "exec_s", "cost_usd", "lambdas_used"],
    );
    let spec = fig6_spec(seed);
    let delta = spec.required_cores - spec.available_cores;

    // Scripted: the Fig. 6 hybrid scenario.
    let factory = move || -> Box<dyn DriverProgram> { Box::new(fig6_workload(f, seed)) };
    let scripted = run_scenario(Scenario::SsHybrid, &spec, &factory);
    t.push(vec![
        "scripted (r VM + Δ La)".into(),
        secs(scripted.execution_secs),
        usd(scripted.cost_usd),
        delta.to_string(),
    ]);

    // Controller: start with just the r VM cores; the allocator bridges
    // (and ends with the deployment when the job completes).
    let mut allocator = None;
    let run = run_job(
        &spec,
        ShuffleStoreKind::Hdfs,
        |sim, d| {
            d.add_vm_cores(sim, &spec.worker_type, spec.available_cores);
            let cfg = AllocatorConfig {
                max_lambdas: delta,
                ..AllocatorConfig::default()
            };
            allocator = Some(start_allocator(sim, d, cfg));
        },
        &fig6_workload(f, seed),
    );
    t.push(vec![
        "controller (auto La)".into(),
        secs(run.execution_secs),
        usd(run.cost_usd),
        allocator.expect("setup ran").lambdas_launched().to_string(),
    ]);
    t
}

/// Ablation: a bursty job stream against a fixed VM pool, with and
/// without SplitServe's Lambda bridging — the inter-job composition of
/// paper §4.1 (Fig. 2's lean-provisioning story, measured end to end).
pub(crate) fn ablation_job_stream(f: Fidelity, seed: u64) -> Table {
    let mut t = Table::new(
        "Ablation: bursty job stream — fixed VM pool vs SplitServe bridging",
        &["policy", "slo_attainment", "mean_latency_s", "cost_usd", "lambdas"],
    );
    let (pages, slo) = match f {
        Fidelity::Paper => (120_000u64, 60.0),
        Fidelity::Quick => (15_000u64, 12.0),
    };
    // Three bursts of three overlapping 8-core jobs.
    let jobs: Vec<FleetJob> = (0..9)
        .map(|i| {
            let at = (i / 3) as f64 * 240.0 + (i % 3) as f64 * 3.0;
            FleetJob::in_stream(i, at, 8, slo)
        })
        .collect();
    let spec = ScenarioSpec {
        seed,
        ..ScenarioSpec::default()
    };
    for (label, policy) in [
        ("vm-pool-only", FleetPolicy::VmOnly),
        ("splitserve", FleetPolicy::SplitServe),
    ] {
        let out = run_tenant_fleet(
            &TenantFleetConfig::single_tenant(policy, &spec, 8),
            &jobs,
            Rc::new(move |fj: &FleetJob| -> Box<dyn DriverProgram> {
                let parts = fj.cores as usize * 2;
                Box::new(PageRank::new(pages, 3, parts, seed).with_contrib_cost(2.0e-4))
            }),
        );
        t.push(vec![
            label.into(),
            format!("{:.2}", out.slo.fleet_attainment()),
            secs(out.mean_latency_secs()),
            usd(out.cost_usd),
            out.lambdas_launched.to_string(),
        ]);
    }
    t
}

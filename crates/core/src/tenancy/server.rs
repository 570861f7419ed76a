//! The multi-tenant job server: binds the [`AdmissionController`] to a
//! live [`Deployment`], runs a fleet of tenant jobs through it, and
//! accounts outcomes into the per-tenant [`SloLedger`]/[`BillLedger`]
//! plus the obs plane (`admission_wait_seconds{tenant_class}` and
//! `hol_blocking_seconds` histograms).
//!
//! The server owns the *when* (admission order, slots); the engine owns
//! the *how fast* (task scheduling on VM/Lambda executors). Admission
//! slots are a provisioning-policy knob, deliberately distinct from live
//! executor cores: a lean pool with a Lambda allocator can honestly back
//! more slots than its resident VMs (the SplitServe bet), while a
//! vm-only policy's slots mirror its fixed pool.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::hash::Hasher;
use std::rc::Rc;

use splitserve_cloud::{CloudSpec, ColdStartSpec, InstanceType, PoolStats, M4_4XLARGE, M4_XLARGE};
use splitserve_des::{Dist, EventHandler, Sim, SimDuration, SimTime};
use splitserve_engine::{collect_partitions, Dataset, Engine, EngineConfig};
use splitserve_obs::{BillLedger, SloLedger, TenantId};
use splitserve_rt::hash::XxHash64;
use splitserve_storage::SharedStore;

use crate::allocator::{start_allocator, AllocatorConfig, AllocatorHandle};
use crate::deploy::{Deployment, ShuffleStoreKind};
use crate::scenario::{DriverProgram, ScenarioSpec};
use crate::tenancy::admission::{
    AdmissionController, AdmissionEvent, AdmissionRequest, Dispatch, SloClass, TenantSpec,
};

/// How the shared fleet is provisioned underneath the admission plane —
/// the Figure 2/3 axis at fleet scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FleetPolicy {
    /// A fixed VM pool sized to the full slot count; no Lambdas.
    VmOnly,
    /// A lean VM pool plus the launching facility bridging backlog with
    /// Lambdas.
    SplitServe,
    /// A minimal VM pool; almost everything runs on Lambdas.
    LambdaHeavy,
}

impl FleetPolicy {
    /// All policies, in sweep order.
    pub fn all() -> [FleetPolicy; 3] {
        [
            FleetPolicy::VmOnly,
            FleetPolicy::SplitServe,
            FleetPolicy::LambdaHeavy,
        ]
    }

    /// Stable label for artifacts.
    pub fn as_str(&self) -> &'static str {
        match self {
            FleetPolicy::VmOnly => "vm-only",
            FleetPolicy::SplitServe => "splitserve",
            FleetPolicy::LambdaHeavy => "lambda-heavy",
        }
    }
}

impl std::fmt::Display for FleetPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One job of a fleet run, fully resolved (tenant, shape, SLO).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetJob {
    /// Dense global id: `jobs[i].job == i`.
    pub job: u64,
    /// Index into the config's tenant list.
    pub(crate) tenant_idx: usize,
    /// Arrival on the virtual clock, microseconds.
    pub arrive_at_us: u64,
    /// Intrinsic compute duration, microseconds (also the fair-share
    /// service estimate).
    pub duration_us: u64,
    /// Degree of parallelism / slots occupied.
    pub cores: u32,
    /// Latency SLO, microseconds.
    pub slo_us: u64,
}

impl FleetJob {
    /// Job `job` of a [`TenantFleetConfig::single_tenant`] stream, from
    /// seconds. The SLO doubles as the service estimate: with unlimited
    /// slots the estimate never orders anything.
    pub fn in_stream(job: u64, arrive_at_secs: f64, cores: u32, slo_secs: f64) -> Self {
        let slo_us = SimTime::from_secs_f64(slo_secs).as_micros();
        FleetJob {
            job,
            tenant_idx: 0,
            arrive_at_us: SimTime::from_secs_f64(arrive_at_secs).as_micros(),
            duration_us: slo_us,
            cores,
            slo_us,
        }
    }
}

/// Configuration of one fleet run.
#[derive(Clone)]
pub struct TenantFleetConfig {
    /// Simulation seed.
    pub seed: u64,
    /// Provisioning-policy label carried into the outcome.
    pub policy: FleetPolicy,
    /// The tenants (admission contracts; `FleetJob::tenant_idx` indexes
    /// this list).
    pub tenants: Vec<TenantSpec>,
    /// Admission slots over the shared fleet.
    pub slots: u32,
    /// Resident VM pool size in cores.
    pub pool_cores: u32,
    /// Instance type backing pool VMs.
    pub worker_type: InstanceType,
    /// Instance type backing the master.
    pub master_type: InstanceType,
    /// Shuffle substrate.
    pub store: ShuffleStoreKind,
    /// Cloud model.
    pub cloud: CloudSpec,
    /// Engine parameters (worker threads, obs handle, …).
    pub engine: EngineConfig,
    /// Memory per Lambda executor.
    pub lambda_memory_mb: u64,
    /// The launching facility, if this policy bridges with Lambdas.
    pub allocator: Option<AllocatorConfig>,
    /// Tenant charged the final settlement (idle-resource tail the
    /// per-completion accrual can't attribute to anyone).
    pub settle_tenant: TenantId,
}

impl TenantFleetConfig {
    /// A quiet-cloud config for `policy` over `pool_cores` of notional
    /// capacity: vm-only admits exactly what the resident pool can run;
    /// splitserve trims the resident pool to ¾ and oversubscribes
    /// admission 3×, bridging overflow with Lambdas (the paper's
    /// launching facility); lambda-heavy keeps a token pool and leans
    /// almost entirely on elastic executors.
    ///
    /// The 3× oversubscription is what lights the bridge: the allocation
    /// controller launches one Lambda per pending task *beyond* the live
    /// executor count, so its saturation fixed point is `slots / 2` live
    /// executors — admission has to let through more than twice the
    /// resident pool before any Lambda launches.
    pub fn for_policy(policy: FleetPolicy, tenants: Vec<TenantSpec>, pool_cores: u32) -> Self {
        let (resident, slots, allocator) = match policy {
            FleetPolicy::VmOnly => (pool_cores, pool_cores, None),
            FleetPolicy::SplitServe => (
                pool_cores - pool_cores / 4,
                pool_cores * 3,
                Some(AllocatorConfig {
                    max_lambdas: pool_cores * 2,
                    idle_timeout: SimDuration::from_secs(5),
                    tasks_per_executor: 1,
                    ..AllocatorConfig::default()
                }),
            ),
            FleetPolicy::LambdaHeavy => (
                (pool_cores / 8).max(2),
                pool_cores * 2,
                Some(AllocatorConfig {
                    max_lambdas: pool_cores * 4,
                    idle_timeout: SimDuration::from_secs(10),
                    tasks_per_executor: 1,
                    ..AllocatorConfig::default()
                }),
            ),
        };
        TenantFleetConfig {
            seed: 11,
            policy,
            tenants,
            slots,
            pool_cores: resident,
            worker_type: M4_4XLARGE,
            master_type: M4_XLARGE,
            store: ShuffleStoreKind::Hdfs,
            cloud: CloudSpec {
                vm_boot: Dist::constant(110.0),
                lambda_warm_start: Dist::constant(0.12),
                lambda_cold_start: Dist::constant(3.0),
                lambda_net_jitter: Dist::constant(1.0),
                // The fleet digests are pinned byte-for-byte against the
                // legacy infinite warm pool; policy sweeps override this.
                coldstart: ColdStartSpec::forever(),
                ..CloudSpec::default()
            },
            // The deployment is dropped before a fleet run returns, so an
            // engine event log (~15 events per job) would only be built to
            // be thrown away.
            engine: EngineConfig {
                event_log: false,
                ..EngineConfig::default()
            },
            lambda_memory_mb: 1_536,
            allocator,
            settle_tenant: TenantId::new("fleet"),
        }
    }

    /// The inter-job view of paper §4.1 — a stream of latency-critical
    /// jobs meeting a fixed `pool_cores` VM pool — as a fleet: the default
    /// tenant alone, unlimited slots and no concurrency cap, so every job
    /// dispatches the instant it arrives. Cluster, cloud, engine and seed
    /// come from `spec`; any policy but `VmOnly` bridges backlog with up
    /// to 128 Lambdas, retired after 5 s idle.
    pub fn single_tenant(policy: FleetPolicy, spec: &ScenarioSpec, pool_cores: u32) -> Self {
        let tenant = TenantId::default();
        TenantFleetConfig {
            seed: spec.seed,
            policy,
            tenants: vec![TenantSpec {
                id: tenant.clone(),
                class: SloClass::Standard,
                weight: 1,
                max_concurrent: u32::MAX,
            }],
            slots: u32::MAX,
            pool_cores,
            worker_type: spec.worker_type.clone(),
            master_type: spec.master_type.clone(),
            store: ShuffleStoreKind::Hdfs,
            cloud: spec.cloud.clone(),
            engine: spec.engine.clone(),
            lambda_memory_mb: spec.lambda_memory_mb,
            allocator: (policy != FleetPolicy::VmOnly).then(|| AllocatorConfig {
                max_lambdas: 128,
                idle_timeout: SimDuration::from_secs(5),
                ..AllocatorConfig::default()
            }),
            settle_tenant: tenant,
        }
    }
}

/// One job's outcome, integer-timestamped for canonical serialization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantJobOutcome {
    /// Global job id.
    pub job: u64,
    /// Owning tenant.
    pub tenant: TenantId,
    /// Its class.
    pub class: SloClass,
    /// Width in cores.
    pub cores: u32,
    /// Arrival, microseconds.
    pub(crate) arrived_us: u64,
    /// Admission grant, microseconds.
    pub(crate) dispatched_us: u64,
    /// Completion, microseconds.
    pub finished_us: u64,
    /// SLO, microseconds.
    pub slo_us: u64,
}

impl TenantJobOutcome {
    /// Response time (arrival to completion), seconds.
    pub fn latency_secs(&self) -> f64 {
        (self.finished_us - self.arrived_us) as f64 / 1e6
    }

    /// Time spent queued in admission, seconds.
    pub(crate) fn queue_wait_secs(&self) -> f64 {
        (self.dispatched_us - self.arrived_us) as f64 / 1e6
    }

    /// Whether the SLO was met.
    pub(crate) fn met_slo(&self) -> bool {
        self.finished_us - self.arrived_us <= self.slo_us
    }
}

/// What one fleet run produced.
pub struct FleetOutcome {
    /// The policy that ran.
    pub policy: FleetPolicy,
    /// Per-job outcomes, global job-id order.
    pub outcomes: Vec<TenantJobOutcome>,
    /// Per-tenant SLO ledger.
    pub slo: SloLedger,
    /// Per-tenant bill ledger (settlement under the config's
    /// `settle_tenant`).
    pub bill: BillLedger,
    /// The full admission event log.
    pub admission: Vec<AdmissionEvent>,
    /// Total cloud bill.
    pub cost_usd: f64,
    /// Lambdas the launching facility started (0 without an allocator).
    pub lambdas_launched: u32,
    /// The cold-start policy the warm pool ran under.
    pub coldstart_policy: &'static str,
    /// Warm-pool outcome: warm/cold/prewarm starts, evictions by reason,
    /// wasted warm memory.
    pub pool: PoolStats,
}

impl FleetOutcome {
    /// Total head-of-line blocked seconds across all dispatches.
    pub fn hol_blocking_secs(&self) -> f64 {
        self.admission
            .iter()
            .filter_map(|e| match e.kind {
                crate::tenancy::admission::AdmissionEventKind::Dispatched { hol_us, .. } => {
                    Some(hol_us as f64 / 1e6)
                }
                _ => None,
            })
            .sum()
    }

    fn mean_over_jobs(&self, secs: fn(&TenantJobOutcome) -> f64) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        self.outcomes.iter().map(secs).sum::<f64>() / self.outcomes.len() as f64
    }

    /// Mean response time (arrival to completion) in seconds across all
    /// jobs.
    pub fn mean_latency_secs(&self) -> f64 {
        self.mean_over_jobs(TenantJobOutcome::latency_secs)
    }

    /// Mean admission wait in seconds across all jobs.
    pub fn mean_admission_wait_secs(&self) -> f64 {
        self.mean_over_jobs(TenantJobOutcome::queue_wait_secs)
    }

    /// A tenant's outcome rows in canonical per-tenant form: jobs
    /// renumbered by the tenant's own arrival sequence, so the bytes are
    /// comparable between a shared fleet and a dedicated run where
    /// global ids differ. The tenant-isolation differential diffs this.
    ///
    /// Test aid: only tests call this.
    pub fn tenant_rows(&self, tenant: &TenantId) -> String {
        let mut rows: Vec<&TenantJobOutcome> = self
            .outcomes
            .iter()
            .filter(|o| &o.tenant == tenant)
            .collect();
        rows.sort_by_key(|o| (o.arrived_us, o.job));
        let mut out = String::new();
        for (k, o) in rows.iter().enumerate() {
            use std::fmt::Write as _;
            let _ = write!(
                out,
                "k={k} a={} d={} f={} c={} s={} met={};",
                o.arrived_us,
                o.dispatched_us,
                o.finished_us,
                o.cores,
                o.slo_us,
                o.met_slo()
            );
        }
        out
    }
}

/// A fleet workload factory: builds one job's driver program from its
/// admitted shape. Must be `'static` — programs are built at dispatch
/// time, inside sim events.
pub type WorkloadFn = Rc<dyn Fn(&FleetJob) -> Box<dyn DriverProgram>>;

/// The standard fleet workload factory plus its fingerprint sink. Each
/// job runs a `cores`-wide map (virtual cost calibrated so one map task
/// ≈ the job's drawn duration) into a 2-partition `reduce_by_key`; the
/// reduced rows are hashed (sorted, seeded by the job id) into the
/// returned map — the data fingerprint the chaos differential compares
/// across store kinds.
pub fn fleet_workload(
    records_per_task: usize,
) -> (WorkloadFn, Rc<RefCell<BTreeMap<u64, u64>>>) {
    let sink: Rc<RefCell<BTreeMap<u64, u64>>> = Rc::new(RefCell::new(BTreeMap::new()));
    let sink2 = Rc::clone(&sink);
    let factory = move |fj: &FleetJob| {
        Box::new(FleetLoad {
            job: fj.job,
            cores: fj.cores,
            duration_us: fj.duration_us,
            records: records_per_task,
            sink: Rc::clone(&sink2),
        }) as Box<dyn DriverProgram>
    };
    (Rc::new(factory), sink)
}

/// Folds a fingerprint sink into one digest (job-id order).
pub fn combined_fingerprint(map: &BTreeMap<u64, u64>) -> u64 {
    let mut h = XxHash64::with_seed(0);
    for (job, fp) in map {
        h.write_u64(*job);
        h.write_u64(*fp);
    }
    h.finish()
}

struct FleetLoad {
    job: u64,
    cores: u32,
    duration_us: u64,
    records: usize,
    sink: Rc<RefCell<BTreeMap<u64, u64>>>,
}

impl DriverProgram for FleetLoad {
    fn name(&self) -> String {
        format!("fleet-job-{}", self.job)
    }
    fn parallelism(&self) -> usize {
        self.cores as usize
    }
    fn submit(&self, sim: &mut Sim, engine: &Engine, done: Box<dyn FnOnce(&mut Sim)>) {
        let width = self.cores as usize;
        let records = self.records as u64;
        let base = self.job.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let cost = (self.duration_us as f64 / 1e6) / self.records as f64;
        let ds = Dataset::<u64>::generate(width, move |p| {
            (0..records)
                .map(|i| base ^ i.wrapping_mul(31).wrapping_add(p as u64))
                .collect()
        })
        .map_with_cost(|x| (*x % 7, *x), Some(cost))
        .reduce_by_key(2, |a, b| a.wrapping_add(*b));
        let job = self.job;
        let sink = Rc::clone(&self.sink);
        engine.submit_job(sim, ds.node(), move |sim, out| {
            let mut rows = collect_partitions::<(u64, u64)>(out.partitions);
            rows.sort_unstable();
            let mut h = XxHash64::with_seed(job);
            for (k, v) in &rows {
                h.write_u64(*k);
                h.write_u64(*v);
            }
            sink.borrow_mut().insert(job, h.finish());
            done(sim);
        });
    }
}

struct Ctx {
    d: Deployment,
    ctrl: RefCell<AdmissionController>,
    jobs: Vec<FleetJob>,
    specs: Vec<TenantSpec>,
    workload: WorkloadFn,
    outcomes: RefCell<Vec<Option<TenantJobOutcome>>>,
    remaining: Cell<usize>,
    billed: Cell<f64>,
    slo: RefCell<SloLedger>,
    bill: RefCell<BillLedger>,
    /// `admission_wait_seconds{tenant_class}` handles, one per tenant
    /// spec (specs sharing a class share the underlying series) — the
    /// dispatch loop records per job and must not rebuild metric keys.
    admission_wait: Vec<splitserve_obs::HistogramHandle>,
    /// `hol_blocking_seconds` handle, same reasoning.
    hol_blocking: splitserve_obs::HistogramHandle,
    handle: Option<AllocatorHandle>,
}

/// A job's arrival, queued for every job up front: the token is its id.
impl EventHandler for Ctx {
    fn on_event(self: Rc<Self>, sim: &mut Sim, job: u64) {
        let j = &self.jobs[job as usize];
        let req = AdmissionRequest {
            job,
            tenant: self.specs[j.tenant_idx].id.clone(),
            cores: j.cores,
            service_estimate_us: j.duration_us,
        };
        let ds = self.ctrl.borrow_mut().on_arrival(sim.now().as_micros(), req);
        dispatch_all(sim, &self, ds);
    }
}

fn dispatch_all(sim: &mut Sim, ctx: &Rc<Ctx>, dispatches: Vec<Dispatch>) {
    for dsp in dispatches {
        let fj = ctx.jobs[dsp.job as usize];
        let spec = ctx.specs[fj.tenant_idx].clone();
        ctx.admission_wait[fj.tenant_idx].observe(dsp.waited_us as f64 / 1e6);
        if dsp.hol_us > 0 {
            ctx.hol_blocking.observe(dsp.hol_us as f64 / 1e6);
        }
        let dispatched_us = sim.now().as_micros();
        let program = (ctx.workload)(&fj);
        let ctx2 = Rc::clone(ctx);
        program.submit(
            sim,
            ctx.d.engine(),
            Box::new(move |sim| {
                let finished = sim.now();
                let outcome = TenantJobOutcome {
                    job: fj.job,
                    tenant: spec.id.clone(),
                    class: spec.class,
                    cores: fj.cores,
                    arrived_us: fj.arrive_at_us,
                    dispatched_us,
                    finished_us: finished.as_micros(),
                    slo_us: fj.slo_us,
                };
                let latency = (outcome.finished_us - outcome.arrived_us) as f64 / 1e6;
                ctx2.slo
                    .borrow_mut()
                    .record_job(&spec.id, finished, latency, fj.slo_us as f64 / 1e6);
                let accrued = ctx2.d.cloud().accrued_cost(finished);
                let delta = accrued - ctx2.billed.get();
                if delta > 0.0 {
                    ctx2.bill
                        .borrow_mut()
                        .charge(&spec.id, finished, delta, "accrued");
                    ctx2.billed.set(accrued);
                }
                ctx2.outcomes.borrow_mut()[fj.job as usize] = Some(outcome);
                ctx2.remaining.set(ctx2.remaining.get() - 1);
                let more = ctx2
                    .ctrl
                    .borrow_mut()
                    .on_complete(finished.as_micros(), fj.job);
                dispatch_all(sim, &ctx2, more);
                if ctx2.remaining.get() == 0 {
                    ctx2.d.shutdown(sim);
                }
            }),
        );
    }
}

/// Runs a tenant fleet: every job is scheduled at its arrival, flows
/// through the admission controller, and executes on the shared
/// deployment once granted slots. Returns when the last job completes.
///
/// `jobs` must be dense (`jobs[i].job == i`); arrival times need not be
/// sorted (the event queue orders them).
pub fn run_tenant_fleet(
    cfg: &TenantFleetConfig,
    jobs: &[FleetJob],
    workload: WorkloadFn,
) -> FleetOutcome {
    run_tenant_fleet_with(cfg, jobs, workload, |s| s, |_, _| {})
}

/// [`run_tenant_fleet`] with the chaos seams exposed: `wrap` interposes
/// on the freshly built shuffle store (the `FaultStore` hook) and `arm`
/// runs against the live deployment before any job arrives (the
/// `inject::arm` hook).
pub fn run_tenant_fleet_with(
    cfg: &TenantFleetConfig,
    jobs: &[FleetJob],
    workload: WorkloadFn,
    wrap: impl FnOnce(SharedStore) -> SharedStore,
    arm: impl FnOnce(&mut Sim, &Deployment),
) -> FleetOutcome {
    for (i, j) in jobs.iter().enumerate() {
        assert_eq!(j.job, i as u64, "fleet jobs must be dense in job id");
        assert!(j.tenant_idx < cfg.tenants.len(), "tenant_idx out of range");
    }
    let mut sim = Sim::new(cfg.seed);
    let d = Deployment::with_wrapped_store(
        &mut sim,
        cfg.cloud.clone(),
        cfg.store,
        cfg.master_type.clone(),
        cfg.engine.clone(),
        wrap,
    );
    d.set_lambda_memory_mb(cfg.lambda_memory_mb);
    d.add_vm_cores(&mut sim, &cfg.worker_type, cfg.pool_cores);
    let handle = cfg
        .allocator
        .clone()
        .map(|alloc| start_allocator(&mut sim, &d, alloc));
    arm(&mut sim, &d);

    let obs = cfg.engine.obs.clone();
    let admission_wait = cfg
        .tenants
        .iter()
        .map(|spec| {
            obs.metrics
                .histogram_handle("admission_wait_seconds", &[("tenant_class", spec.class.as_str())])
        })
        .collect();
    let hol_blocking = obs.metrics.histogram_handle("hol_blocking_seconds", &[]);
    let ctx = Rc::new(Ctx {
        d,
        ctrl: RefCell::new(AdmissionController::new(cfg.slots, &cfg.tenants)),
        jobs: jobs.to_vec(),
        specs: cfg.tenants.clone(),
        workload,
        outcomes: RefCell::new(vec![None; jobs.len()]),
        remaining: Cell::new(jobs.len()),
        billed: Cell::new(0.0),
        slo: RefCell::default(),
        bill: RefCell::default(),
        admission_wait,
        hol_blocking,
        handle,
    });
    for j in jobs {
        sim.notify_at(SimTime::from_micros(j.arrive_at_us), ctx.clone(), j.job);
    }
    sim.run();

    let outcomes: Vec<TenantJobOutcome> = ctx
        .outcomes
        .borrow()
        .iter()
        .enumerate()
        .map(|(i, o)| {
            o.clone()
                .unwrap_or_else(|| panic!("fleet job {i} never completed (stranded queue?)"))
        })
        .collect();
    assert!(
        ctx.ctrl.borrow().is_idle(),
        "admission controller left work behind"
    );
    let cost_usd = ctx.d.cloud().total_cost();
    let settle = cost_usd - ctx.billed.get();
    if settle > 0.0 {
        let at = outcomes.iter().map(|o| o.finished_us).max().unwrap_or(0);
        ctx.bill
            .borrow_mut()
            .charge(&cfg.settle_tenant, SimTime::from_micros(at), settle, "final");
    }
    let lambdas_launched = ctx.handle.as_ref().map_or(0, |h| h.lambdas_launched());
    let coldstart_policy = ctx.d.cloud().policy_name();
    let pool = ctx.d.cloud().pool_stats();
    let ctx = Rc::try_unwrap(ctx)
        .unwrap_or_else(|_| panic!("fleet context still referenced after run"));
    FleetOutcome {
        policy: cfg.policy,
        outcomes,
        slo: ctx.slo.into_inner(),
        bill: ctx.bill.into_inner(),
        admission: ctx.ctrl.into_inner().into_log(),
        cost_usd,
        lambdas_launched,
        coldstart_policy,
        pool,
    }
}

/// Projects `jobs` down to one tenant for a dedicated (partitioned) run:
/// the tenant's jobs keep their arrival times and shapes but are
/// renumbered densely with `tenant_idx` 0. Pair with a single-tenant
/// [`TenantFleetConfig`] to run a tenant "alone" on its own resources.
pub fn tenant_slice(jobs: &[FleetJob], tenant_idx: usize) -> Vec<FleetJob> {
    jobs.iter()
        .filter(|j| j.tenant_idx == tenant_idx)
        .enumerate()
        .map(|(i, j)| FleetJob {
            job: i as u64,
            tenant_idx: 0,
            ..*j
        })
        .collect()
}

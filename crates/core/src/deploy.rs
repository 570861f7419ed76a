//! The deployment layer: SplitServe's **launching facility** and
//! **VM/Lambda system state** (paper §4.2–4.3).
//!
//! A [`Deployment`] glues the simulated cloud, a shuffle store and the
//! engine together, and tracks where every executor runs — the state the
//! paper adds to `StandAloneSchedulerBackend` so it "may launch executors
//! on both VMs and Lambdas and divide a single job's tasks across them".

use std::cell::RefCell;
use std::rc::Rc;

use splitserve_cloud::{Cloud, CloudEvent, CloudListener, CloudSpec, InstanceType, LambdaId, VmId};
use splitserve_des::{EventHandler, Fabric, Sim, SimDuration, SimTime};
use splitserve_engine::{Engine, EngineConfig, ExecutorDesc, ExecutorId};
use splitserve_obs::SpanId;
use splitserve_rt::{FastMap, Slab};
use splitserve_storage::{
    HdfsSpec, HdfsStore, LocalDiskStore, RedisSpec, RedisStore, S3Spec, S3Store, SharedStore,
    SqsSpec, SqsStore,
};

use crate::segue::commence_drain;

/// Which substrate holds intermediate shuffle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShuffleStoreKind {
    /// Executor-local disk (vanilla Spark dynamic allocation).
    Local,
    /// SplitServe's shared HDFS layer, colocated with the master.
    Hdfs,
    /// S3 (Qubole Spark-on-Lambda).
    S3,
    /// SQS queues (Flint).
    Sqs,
    /// A VM-backed Redis (Locus).
    Redis,
}

impl std::fmt::Display for ShuffleStoreKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ShuffleStoreKind::Local => "local",
            ShuffleStoreKind::Hdfs => "hdfs",
            ShuffleStoreKind::S3 => "s3",
            ShuffleStoreKind::Sqs => "sqs",
            ShuffleStoreKind::Redis => "redis",
        };
        f.write_str(s)
    }
}

/// A control timer of the segue and autoscale paths, parked until its
/// event fires — or, for a drain in progress, until the engine reports the
/// executor gone.
pub(crate) enum Timer {
    /// `cores` free up on an existing VM; a segue with Lambda timeout
    /// `timeout` drains once they register.
    SegueCores { cores: u32, timeout: SimDuration },
    /// A segue's drain of one Lambda executor falls due.
    Drain(ExecutorId),
    /// The autoscaler has seen the shortfall: request VMs for `cores`.
    Autoscale { itype: InstanceType, cores: u32 },
    /// A Lambda executor is draining since `drain_started`, under the
    /// drain span `span`: once it leaves, the Lambda is released.
    Drained {
        lambda: LambdaId,
        span: SpanId,
        drain_started: SimTime,
    },
}

#[derive(Default)]
struct Inner {
    /// Every Lambda launched: its executor, and until it comes up, its
    /// start span and invoke instant.
    lambdas: FastMap<LambdaId, (ExecutorId, Option<(SpanId, SimTime)>)>,
    /// A requested VM's cores, and the Lambda timeout of the segue that
    /// drains once they register, if one does.
    booting: FastMap<VmId, (u32, Option<SimDuration>)>,
    /// Armed timers, by the slot their event names.
    timers: Slab<Timer>,
    worker_vms: Vec<VmId>,
    next_vm_exec: u64,
    lambda_memory_mb: u64,
    shut_down: bool,
}

/// What every handle to a deployment shares: the cloud's listener and the
/// handler of the deployment's own timers. The cloud holds it only by
/// `Weak`.
struct Shared {
    cloud: Cloud,
    engine: Engine,
    store_kind: ShuffleStoreKind,
    master_vm: VmId,
    inner: RefCell<Inner>,
}

/// Splits `cores` over as few `itype` instances as possible: full
/// instances first, the remainder on the last. The one place that packing
/// rule lives; [`Deployment::add_vm_cores`] and the background requests of
/// the autoscale and segue paths all iterate it.
pub(crate) fn vm_batches(itype: &InstanceType, cores: u32) -> impl Iterator<Item = u32> {
    let per_vm = itype.vcpus;
    (0..cores.div_ceil(per_vm)).map(move |i| per_vm.min(cores - i * per_vm))
}

/// A running SplitServe deployment: cloud + store + engine + the
/// executor-location state.
///
/// # Examples
///
/// ```
/// use splitserve::{Deployment, ShuffleStoreKind};
/// use splitserve_cloud::{CloudSpec, M4_XLARGE};
/// use splitserve_des::Sim;
///
/// let mut sim = Sim::new(1);
/// let d = Deployment::new(&mut sim, CloudSpec::default(), ShuffleStoreKind::Hdfs, M4_XLARGE);
/// assert_eq!(d.engine().active_executors(), 0);
/// ```
#[derive(Clone)]
pub struct Deployment {
    shared: Rc<Shared>,
}

impl std::fmt::Debug for Deployment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Deployment")
            .field("store", &self.shared.store_kind)
            .field("executors", &self.shared.engine.active_executors())
            .finish()
    }
}

/// The cloud's reports: a requested VM's cores register (and a segue
/// waiting on them drains), a Lambda registers as an executor, a killed
/// Lambda's executor is lost.
impl CloudListener for Shared {
    fn on_cloud_event(self: Rc<Self>, sim: &mut Sim, event: CloudEvent) {
        let d = Deployment { shared: self };
        match event {
            CloudEvent::VmReady(vm) => {
                let Some((cores, segue)) = d.shared.inner.borrow_mut().booting.remove(&vm) else {
                    return;
                };
                d.shared.inner.borrow_mut().worker_vms.push(vm);
                d.add_executors_on_vm(sim, vm, cores);
                if let Some(timeout) = segue {
                    commence_drain(sim, &d, timeout);
                }
            }
            CloudEvent::LambdaReady(lambda) => {
                let mut inner = d.shared.inner.borrow_mut();
                let launched = inner.lambdas.get_mut(&lambda).map(|(e, s)| (*e, s.take()));
                drop(inner);
                let Some((exec, Some((span, invoked_at)))) = launched else {
                    return;
                };
                let (cloud, obs) = (d.cloud(), d.engine().obs());
                obs.spans.close(span, sim.now());
                obs.metrics
                    .quantile_handle("lambda_start_seconds", &[("policy", cloud.policy_name())])
                    .record(sim.now().saturating_since(invoked_at).as_secs_f64());
                let (nic, mb) = (cloud.lambda_nic(lambda), cloud.lambda_memory_mb(lambda));
                let desc = ExecutorDesc::lambda(exec.as_str(), nic, mb);
                d.engine().register_executor(sim, desc);
            }
            CloudEvent::LambdaKilled(lambda) => {
                let launched = d.shared.inner.borrow().lambdas.get(&lambda).map(|l| l.0);
                if let Some(exec) = launched {
                    d.engine().kill_executor(sim, &exec);
                }
            }
        }
    }
}

/// A [`Timer`] fell due; the token is its slot.
impl EventHandler for Shared {
    fn on_event(self: Rc<Self>, sim: &mut Sim, token: u64) {
        let Some(timer) = self.inner.borrow_mut().timers.take(token as u32) else {
            return;
        };
        let d = Deployment { shared: self };
        match timer {
            Timer::SegueCores { cores, timeout } => {
                // They free up on the first worker VM, or else the master's.
                let first = d.shared.inner.borrow().worker_vms.first().copied();
                d.add_executors_on_vm(sim, first.unwrap_or(d.shared.master_vm), cores);
                commence_drain(sim, &d, timeout);
            }
            Timer::Drain(exec) => d.drain_lambda_executor(sim, &exec),
            Timer::Autoscale { itype, cores } => d.request_vm_workers(sim, &itype, cores, None),
            Timer::Drained {
                lambda,
                span,
                drain_started,
            } => {
                let obs = d.engine().obs();
                obs.spans.close(span, sim.now());
                obs.metrics
                    .histogram_handle("segue_drain_seconds", &[])
                    .observe(sim.now().saturating_since(drain_started).as_secs_f64());
                d.cloud().release_lambda(sim, lambda);
            }
        }
    }
}

impl Deployment {
    /// Creates a deployment: provisions the master VM (long-running, per
    /// the paper's footnote: "the Spark master must itself be on a VM"),
    /// builds the chosen shuffle store (HDFS is colocated with the master,
    /// sharing its NIC and EBS bandwidth — the paper's setup), and starts
    /// an engine over it.
    pub fn new(
        sim: &mut Sim,
        cloud_spec: CloudSpec,
        store_kind: ShuffleStoreKind,
        master_type: InstanceType,
    ) -> Self {
        Self::with_wrapped_store(
            sim,
            cloud_spec,
            store_kind,
            master_type,
            EngineConfig::default(),
            |s| s,
        )
    }

    /// Like [`Deployment::new`] with a custom engine configuration, threading
    /// the freshly built store through `wrap` before the engine takes it.
    /// This is the seam the chaos plane uses to interpose its
    /// fault-injecting decorator. The engine records the `store_*` series
    /// where each request lands, above whatever `wrap` added, so injected
    /// latency and errors show in `store_op_seconds` / `store_ops_total`
    /// like any organic slowness or failure would.
    pub fn with_wrapped_store(
        sim: &mut Sim,
        cloud_spec: CloudSpec,
        store_kind: ShuffleStoreKind,
        master_type: InstanceType,
        engine_cfg: EngineConfig,
        wrap: impl FnOnce(SharedStore) -> SharedStore,
    ) -> Self {
        let fabric = Fabric::new();
        let cloud = Cloud::new(cloud_spec, fabric.clone());
        let master_vm = cloud.provision_vm_ready(sim, master_type);
        let store: SharedStore = match store_kind {
            ShuffleStoreKind::Local => Rc::new(LocalDiskStore::new(fabric.clone())),
            ShuffleStoreKind::Hdfs => {
                let hdfs = HdfsStore::new(HdfsSpec::default(), fabric.clone());
                hdfs.add_datanode(cloud.vm_nic(master_vm), cloud.vm_ebs(master_vm));
                Rc::new(hdfs)
            }
            ShuffleStoreKind::S3 => Rc::new(S3Store::new(
                S3Spec::default(),
                fabric.clone(),
                cloud.clone(),
            )),
            ShuffleStoreKind::Sqs => Rc::new(SqsStore::new(
                SqsSpec::default(),
                fabric.clone(),
                cloud.clone(),
            )),
            ShuffleStoreKind::Redis => {
                // Locus-style: a dedicated large VM hosts the store and is
                // billed for the whole run.
                let redis_vm = cloud.provision_vm_ready(sim, splitserve_cloud::M4_4XLARGE);
                Rc::new(RedisStore::new(
                    RedisSpec::default(),
                    fabric.clone(),
                    cloud.vm_nic(redis_vm),
                ))
            }
        };
        let engine = Engine::new(engine_cfg, wrap(store));
        let inner = RefCell::new(Inner {
            lambda_memory_mb: 1_536,
            ..Inner::default()
        });
        let shared = Rc::new(Shared {
            cloud,
            engine,
            store_kind,
            master_vm,
            inner,
        });
        shared.cloud.set_listener(&shared);
        Deployment { shared }
    }

    /// The simulated cloud (billing lives here).
    pub fn cloud(&self) -> &Cloud {
        &self.shared.cloud
    }

    /// The engine.
    pub fn engine(&self) -> &Engine {
        &self.shared.engine
    }

    /// Arms `timer` to fire at `at`.
    pub(crate) fn arm_timer(&self, sim: &mut Sim, at: SimTime, timer: Timer) {
        let slot = self.shared.inner.borrow_mut().timers.insert(timer);
        sim.notify_at(at, self.shared.clone(), u64::from(slot));
    }

    /// Sets the memory size used for subsequently launched Lambda
    /// executors (default 1 536 MB = one vCPU).
    pub fn set_lambda_memory_mb(&self, mb: u64) {
        self.shared.inner.borrow_mut().lambda_memory_mb = mb;
    }

    /// Provisions a ready VM of `itype` and registers `cores` executors on
    /// it (one core each). Returns the VM id and the executor ids.
    ///
    /// # Panics
    ///
    /// Panics if `cores` exceeds the instance's vCPUs.
    pub fn add_vm_workers(
        &self,
        sim: &mut Sim,
        itype: InstanceType,
        cores: u32,
    ) -> (VmId, Vec<ExecutorId>) {
        assert!(
            cores <= itype.vcpus,
            "{} cores requested on {} ({} vCPUs)",
            cores,
            itype.name,
            itype.vcpus
        );
        let vm = self.cloud().provision_vm_ready(sim, itype);
        self.shared.inner.borrow_mut().worker_vms.push(vm);
        let execs = self.add_executors_on_vm(sim, vm, cores);
        (vm, execs)
    }

    /// Provisions `cores` ready VM executor cores on as few `itype`
    /// instances as possible (any core count; [`Deployment::add_vm_workers`]
    /// is the one-instance step).
    pub fn add_vm_cores(&self, sim: &mut Sim, itype: &InstanceType, cores: u32) {
        for batch in vm_batches(itype, cores) {
            self.add_vm_workers(sim, itype.clone(), batch);
        }
    }

    /// Registers `cores` additional executors on an existing, running VM —
    /// the "executor on an existing VM becomes available" segue target.
    pub(crate) fn add_executors_on_vm(
        &self,
        sim: &mut Sim,
        vm: VmId,
        cores: u32,
    ) -> Vec<ExecutorId> {
        let itype = self.cloud().vm_type(vm);
        let nic = self.cloud().vm_nic(vm);
        let ebs = self.cloud().vm_ebs(vm);
        let mem_per_core = itype.memory_mb / u64::from(itype.vcpus);
        let mut ids = Vec::new();
        for _ in 0..cores {
            let n = {
                let mut inner = self.shared.inner.borrow_mut();
                let n = inner.next_vm_exec;
                inner.next_vm_exec += 1;
                n
            };
            let desc = ExecutorDesc::vm(format!("e-vm-{n:04}"), nic, ebs, mem_per_core);
            ids.push(desc.id);
            self.engine().register_executor(sim, desc);
        }
        ids
    }

    /// Requests *new* VMs (with their minutes-long boot) for `cores`
    /// executor cores on as few `itype` instances as possible, each VM's
    /// executors registering when it becomes ready — VM-based autoscaling.
    /// With `segue`, a segue with that Lambda timeout drains as each VM's
    /// cores register.
    pub(crate) fn request_vm_workers(
        &self,
        sim: &mut Sim,
        itype: &InstanceType,
        cores: u32,
        segue: Option<SimDuration>,
    ) {
        for batch in vm_batches(itype, cores) {
            let vm = self.cloud().request_vm(sim, itype.clone());
            self.shared
                .inner
                .borrow_mut()
                .booting
                .insert(vm, (batch, segue));
        }
    }

    /// The launching facility's core move: bridge a shortfall of `count`
    /// cores with Lambda-based executors *right now* (paper §4.2). Each
    /// Lambda registers as an executor when its container is ready; if the
    /// platform later kills it (the 15-minute *lifetime* limit on a
    /// running invocation), the engine sees an abrupt executor loss.
    ///
    /// Whether a start is ~100 ms warm or multi-second cold is decided by
    /// the cloud's [`splitserve_cloud::ColdStartPolicy`]: by default
    /// released containers stay warm for a fixed 15-minute *idle* window
    /// (matching observed AWS keepalive), with
    /// [`splitserve_cloud::ColdStartSpec::forever`] as the escape hatch
    /// the digest-pinned suites use to keep the legacy never-expiring
    /// pool. Start outcomes land in `lambda_starts_total{start}` and the
    /// per-policy `lambda_start_seconds` quantile digest.
    pub fn add_lambda_executors(&self, sim: &mut Sim, count: u32) -> Vec<ExecutorId> {
        let memory_mb = self.shared.inner.borrow().lambda_memory_mb;
        let cloud = self.cloud();
        let obs = self.engine().obs();
        let mut ids = Vec::new();
        for _ in 0..count {
            let n = self.shared.inner.borrow().lambdas.len();
            let exec = ExecutorId::new(format!("lambda-{n:04}"));
            ids.push(exec);
            // The start span covers invoke → executor ready. Whether this
            // invoke is warm or cold is decided synchronously inside
            // `invoke_lambda`, so the span (whose name we only know then)
            // is opened just after — still at `invoked_at` on the virtual
            // clock, before the start can fire.
            let invoked_at = sim.now();
            let warm_before = cloud.pool_stats().warm_starts;
            let lambda = cloud.invoke_lambda(sim, 0, memory_mb);
            let warm_after = cloud.pool_stats().warm_starts;
            let start = if warm_after > warm_before {
                "warm start"
            } else {
                "cold start"
            };
            let start_span = obs.spans.open(invoked_at, "lambda", exec.as_str(), start);
            obs.metrics
                .counter_handle("lambda_starts_total", &[("start", start)])
                .inc();
            let start = Some((start_span, invoked_at));
            self.shared
                .inner
                .borrow_mut()
                .lambdas
                .insert(lambda, (exec, start));
        }
        ids
    }

    /// Executor ids of all Lambdas launched so far, sorted by name
    /// (`lambda-0000`, `lambda-0001`, …). The names are zero-padded to four
    /// digits, so this is launch order up to `lambda-9999` and plain
    /// lexicographic order past it.
    pub fn lambda_executors(&self) -> Vec<ExecutorId> {
        let inner = self.shared.inner.borrow();
        let mut v: Vec<ExecutorId> = inner.lambdas.values().map(|l| l.0).collect();
        v.sort();
        v
    }

    /// Gracefully drains one Lambda executor: the engine stops offering it
    /// tasks, it finishes its current one, and the underlying Lambda is
    /// released (billing stops, container re-warms) — the segue that
    /// avoids Spark's execution rollback.
    pub fn drain_lambda_executor(&self, sim: &mut Sim, exec: &ExecutorId) {
        let inner = self.shared.inner.borrow();
        let Some((&lambda, _)) = inner.lambdas.iter().find(|(_, l)| l.0 == *exec) else {
            return;
        };
        drop(inner);
        // Only a live, not-yet-draining executor actually drains; bail like
        // the engine would so no span is left dangling on a no-op call.
        match self.engine().executor_info(exec) {
            Some(info) if info.alive && !info.draining => {}
            _ => return,
        }
        // The drain span gets a per-executor track on the segue lane: it
        // overlaps the executor's in-flight task span, and concurrent
        // drains overlap each other, so it can share a track with neither.
        let drain_started = sim.now();
        let span = self.engine().obs().spans.open(
            drain_started,
            "segue",
            exec.as_str(),
            format!("segue drain {exec}"),
        );
        let drained = Timer::Drained {
            lambda,
            span,
            drain_started,
        };
        let slot = self.shared.inner.borrow_mut().timers.insert(drained);
        let to = self.shared.clone();
        self.engine().drain_executor(sim, exec, to, u64::from(slot));
    }

    /// Whether [`Deployment::shutdown`] has run.
    pub(crate) fn is_shut_down(&self) -> bool {
        self.shared.inner.borrow().shut_down
    }

    /// Ends the run: terminates all VMs, releases all Lambdas, and
    /// finalizes the warm pool so the bill *and* the cold-start outcome
    /// metrics are final — `lambda_cold_start_fraction` (gauge),
    /// `lambda_wasted_memory_seconds_total` (GB·s of idle warm memory,
    /// gauge) and `lambda_pool_evictions_total{reason}` land on the obs
    /// registry here, labelled with the active policy. Control loops
    /// watching the deployment ([`crate::start_allocator`]) end with it.
    pub fn shutdown(&self, sim: &mut Sim) {
        self.shared.inner.borrow_mut().shut_down = true;
        self.cloud().shutdown_all(sim);
        let stats = self.cloud().pool_stats();
        let policy = self.cloud().policy_name();
        let m = &self.engine().obs().metrics;
        let labels = &[("policy", policy)];
        m.gauge_set("lambda_cold_start_fraction", labels, stats.cold_fraction());
        m.gauge_set(
            "lambda_wasted_memory_seconds_total",
            labels,
            stats.wasted_gb_seconds(),
        );
        for (reason, n) in [
            ("expired", stats.evicted_expired),
            ("pressure", stats.evicted_pressure),
            ("shutdown", stats.evicted_shutdown),
        ] {
            if n > 0 {
                m.counter_handle("lambda_pool_evictions_total", &[("reason", reason)])
                    .add(n);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splitserve_cloud::M4_XLARGE;
    use splitserve_des::{Dist, SimDuration, SimTime};
    use splitserve_engine::{collect_partitions, Dataset, ExecutorKind};
    use std::cell::RefCell;

    impl Deployment {
        /// Drains every Lambda executor (the end state of a full segue).
        fn drain_all_lambdas(&self, sim: &mut Sim) {
            for exec in self.lambda_executors() {
                self.drain_lambda_executor(sim, &exec);
            }
        }
    }

    fn quiet_cloud() -> CloudSpec {
        CloudSpec {
            vm_boot: Dist::constant(110.0),
            lambda_warm_start: Dist::constant(0.1),
            lambda_cold_start: Dist::constant(3.0),
            lambda_net_jitter: Dist::constant(1.0),
            ..CloudSpec::default()
        }
    }

    fn run_sum_job(sim: &mut Sim, d: &Deployment) -> Vec<(u64, u64)> {
        let ds = Dataset::parallelize((0..1_000u64).map(|i| (i % 8, 1u64)).collect(), 8)
            .reduce_by_key(4, |a, b| a + b);
        let out = Rc::new(RefCell::new(None));
        let o = Rc::clone(&out);
        d.engine().submit_job(sim, ds.node(), move |_, r| {
            *o.borrow_mut() = Some(collect_partitions::<(u64, u64)>(r.partitions));
        });
        sim.run();
        let mut rows = out.borrow_mut().take().expect("job done");
        rows.sort();
        rows
    }

    #[test]
    fn vm_only_deployment_runs_jobs() {
        let mut sim = Sim::new(0);
        let d = Deployment::new(&mut sim, quiet_cloud(), ShuffleStoreKind::Hdfs, M4_XLARGE);
        d.add_vm_workers(&mut sim, M4_XLARGE, 4);
        let rows = run_sum_job(&mut sim, &d);
        assert_eq!(rows.len(), 8);
        assert!(rows.iter().all(|(_, c)| *c == 125));
    }

    #[test]
    fn lambda_only_deployment_runs_jobs() {
        let mut sim = Sim::new(0);
        let d = Deployment::new(&mut sim, quiet_cloud(), ShuffleStoreKind::Hdfs, M4_XLARGE);
        d.add_lambda_executors(&mut sim, 4);
        let rows = run_sum_job(&mut sim, &d);
        assert_eq!(rows.len(), 8);
        // Lambdas actually did the work.
        let execs = d.engine().executors();
        assert!(execs.iter().all(|e| e.kind == ExecutorKind::Lambda));
        assert!(execs.iter().any(|e| e.tasks_done > 0));
    }

    #[test]
    fn hybrid_splits_one_job_across_vms_and_lambdas() {
        let mut sim = Sim::new(0);
        let d = Deployment::new(&mut sim, quiet_cloud(), ShuffleStoreKind::Hdfs, M4_XLARGE);
        d.add_vm_workers(&mut sim, M4_XLARGE, 2);
        d.add_lambda_executors(&mut sim, 2);
        // A wider, slower job so every executor gets work.
        let ds = Dataset::<u64>::generate(16, |p| (0..50_000u64).map(|i| i + p as u64).collect())
            .map(|x| (x % 5, *x))
            .reduce_by_key(4, |a, b| a + b);
        let out = Rc::new(RefCell::new(None));
        let o = Rc::clone(&out);
        d.engine().submit_job(&mut sim, ds.node(), move |_, r| {
            *o.borrow_mut() = Some(r.metrics);
        });
        sim.run();
        let metrics = out.borrow_mut().take().expect("job done");
        assert!(metrics.tasks_on_vm > 0, "VMs must run tasks");
        assert!(metrics.tasks_on_lambda > 0, "Lambdas must run tasks");
    }

    #[test]
    fn drained_lambda_is_released_and_rewarmed() {
        let mut sim = Sim::new(0);
        let d = Deployment::new(&mut sim, quiet_cloud(), ShuffleStoreKind::Hdfs, M4_XLARGE);
        d.add_lambda_executors(&mut sim, 2);
        sim.run_until(SimTime::from_secs(1));
        let warm_before = d.cloud().pool_stats().warm_starts;
        d.drain_all_lambdas(&mut sim);
        sim.run_until(SimTime::from_secs(2));
        assert_eq!(d.engine().active_executors(), 0);
        // Released Lambdas returned to the warm pool: invoking again is warm.
        d.add_lambda_executors(&mut sim, 1);
        sim.run_until(SimTime::from_secs(3));
        let stats = d.cloud().pool_stats();
        let (warm_after, cold) = (stats.warm_starts, stats.cold_starts);
        assert_eq!(warm_after, warm_before + 1);
        assert_eq!(cold, 0);
    }

    #[test]
    fn lambda_lifetime_kill_reaches_engine() {
        let mut sim = Sim::new(0);
        let spec = CloudSpec {
            lambda_lifetime: SimDuration::from_secs(5),
            ..quiet_cloud()
        };
        let d = Deployment::new(&mut sim, spec, ShuffleStoreKind::Hdfs, M4_XLARGE);
        d.add_lambda_executors(&mut sim, 1);
        sim.run_until(SimTime::from_secs(60));
        let execs = d.engine().executors();
        assert_eq!(execs.len(), 1);
        assert!(!execs[0].alive, "lifetime kill must mark executor dead");
    }

    #[test]
    fn request_vm_workers_arrive_after_boot() {
        let mut sim = Sim::new(0);
        let d = Deployment::new(&mut sim, quiet_cloud(), ShuffleStoreKind::Hdfs, M4_XLARGE);
        d.request_vm_workers(&mut sim, &M4_XLARGE, 4, None);
        sim.run();
        let execs = d.engine().executors();
        let at: Vec<f64> = execs
            .iter()
            .map(|e| e.registered_at.as_secs_f64())
            .collect();
        assert_eq!(at, [110.0; 4]);
        assert_eq!(
            d.shared.inner.borrow().worker_vms.len(),
            1,
            "the VM is a worker VM"
        );
        assert_eq!(d.engine().active_executors(), 4);
    }

    /// The cloud holds its deployment only by `Weak`, and the deployment's
    /// timers are events that fire or go: once the run is over and the
    /// caller drops its handle, nothing keeps the deployment — its engine,
    /// store and blocks — allocated, whatever state its Lambdas and VMs
    /// ended in.
    #[test]
    fn a_finished_run_frees_its_deployment() {
        let mut sim = Sim::new(0);
        let spec = CloudSpec {
            lambda_lifetime: SimDuration::from_secs(20),
            ..quiet_cloud()
        };
        let d = Deployment::new(&mut sim, spec, ShuffleStoreKind::Hdfs, M4_XLARGE);
        let shared = Rc::downgrade(&d.shared);
        let (drained, killed) = match d.add_lambda_executors(&mut sim, 2)[..] {
            [a, b] => (a, b),
            _ => unreachable!("two lambdas launched"),
        };
        sim.run_until(SimTime::from_secs(1));
        d.drain_lambda_executor(&mut sim, &drained);
        // A segue drain that falls due after shutdown, and a VM requested
        // for a segue that is still booting then.
        d.arm_timer(&mut sim, SimTime::from_secs(400), Timer::Drain(killed));
        d.request_vm_workers(&mut sim, &M4_XLARGE, 4, Some(SimDuration::from_secs(1)));
        sim.run_until(SimTime::from_secs(30));
        // Still starting at shutdown.
        let starting = d.add_lambda_executors(&mut sim, 1)[0];
        d.shutdown(&mut sim);
        sim.run();

        let info = |e| d.engine().executor_info(e);
        let drained_info = info(&drained).expect("registered");
        assert!(
            !drained_info.alive && drained_info.draining,
            "released by its drain"
        );
        let killed_info = info(&killed).expect("registered");
        assert!(
            !killed_info.alive && !killed_info.draining,
            "killed at the lifetime"
        );
        assert!(info(&starting).is_none(), "never came up");
        assert_eq!(
            d.engine().executors().len(),
            2,
            "the booting VM registered nothing"
        );
        drop(d);
        assert!(
            shared.upgrade().is_none(),
            "the deployment outlived its run"
        );
    }

    #[test]
    fn redis_deployment_provisions_backing_vm() {
        let mut sim = Sim::new(0);
        let d = Deployment::new(&mut sim, quiet_cloud(), ShuffleStoreKind::Redis, M4_XLARGE);
        d.add_vm_workers(&mut sim, M4_XLARGE, 2);
        let rows = run_sum_job(&mut sim, &d);
        assert_eq!(rows.len(), 8);
        // Master + Redis VM + worker accrue cost.
        d.shutdown(&mut sim);
        let vm_cost = d.cloud().cost_for(splitserve_cloud::Category::VmCompute);
        assert!(vm_cost > 0.0);
    }
}

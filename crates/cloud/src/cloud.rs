//! The cloud component: VM and Lambda lifecycles wired to the fabric and
//! the billing ledger.

use std::cell::RefCell;
use std::rc::Rc;

use splitserve_des::{Dist, Fabric, LinkId, Sim, SimDuration, SimTime};

use crate::billing::{Category, Ledger};
use crate::coldstart::{ColdStartPolicy, ColdStartSpec, PoolDecision, PoolEvent, PoolStats, WarmPool};
use crate::instance::InstanceType;
use crate::pricing;

/// Memory size assumed for the containers pre-warmed at simulation start
/// (the paper's experiments run 1 536 MB executors).
pub(crate) const PREWARMED_LAMBDA_MB: u64 = 1_536;

/// Identifies a VM within a [`Cloud`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VmId(u64);

/// Identifies a Lambda container within a [`Cloud`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LambdaId(u64);

impl std::fmt::Display for VmId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "vm-{}", self.0)
    }
}

impl std::fmt::Display for LambdaId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "lambda-{}", self.0)
    }
}

/// VM lifecycle states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum VmState {
    /// Requested, still booting.
    Booting,
    /// Ready to run executors; billing accrues.
    Running,
    /// Terminated; billing finalized.
    Terminated,
}

/// Lambda lifecycle states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LambdaState {
    /// Invoked, container starting.
    Starting,
    /// Running user code; billing accrues; lifetime clock ticking.
    Running,
    /// Returned gracefully; container parked in the warm pool.
    Released,
    /// Hit the platform's hard lifetime limit and was destroyed.
    Killed,
}

/// Tunable knobs of the simulated cloud. Defaults reflect the measurements
/// the paper relies on: ~2 minute VM boots, ~100 ms warm Lambda starts, the
/// 15-minute Lambda lifetime, and Lambda network bandwidth proportional to
/// memory with noticeable jitter.
#[derive(Debug, Clone)]
pub struct CloudSpec {
    /// VM boot delay in seconds.
    pub vm_boot: Dist,
    /// Warm-start delay for Lambdas in seconds.
    pub lambda_warm_start: Dist,
    /// Cold-start delay for Lambdas in seconds.
    pub lambda_cold_start: Dist,
    /// Hard kill timer per Lambda invocation.
    pub lambda_lifetime: SimDuration,
    /// Network bandwidth (bytes/s) of a Lambda at the maximum memory size;
    /// scales linearly down with smaller allocations.
    pub lambda_net_bytes_per_sec_at_max: f64,
    /// Per-container multiplicative jitter on Lambda bandwidth
    /// ("unreliable and proportional to memory", §5.2).
    pub lambda_net_jitter: Dist,
    /// Containers pre-warmed at simulation start (the paper's premise is
    /// warm-start autoscaling).
    pub prewarmed_lambdas: usize,
    /// Cold-start/keepalive policy governing the warm pool. The default is
    /// [`ColdStartSpec::fixed_secs`]`(900)` — a 15-minute idle window
    /// matching observed AWS behaviour; digest-pinned suites opt into the
    /// legacy infinite pool with [`ColdStartSpec::forever`].
    pub coldstart: ColdStartSpec,
}

impl Default for CloudSpec {
    fn default() -> Self {
        CloudSpec {
            vm_boot: Dist::normal(110.0, 15.0).clamped(60.0, 300.0),
            lambda_warm_start: Dist::normal(0.15, 0.05).clamped(0.05, 0.6),
            lambda_cold_start: Dist::log_normal_mean_sd(2.5, 1.0).clamped(0.8, 12.0),
            lambda_lifetime: pricing::LAMBDA_LIFETIME,
            // ~600 Mbps at 3 008 MB per the "Peeking Behind the Curtains"
            // measurements the paper cites.
            lambda_net_bytes_per_sec_at_max: 600.0e6 / 8.0,
            lambda_net_jitter: Dist::log_normal_mean_sd(1.0, 0.25).clamped(0.3, 2.0),
            prewarmed_lambdas: 1_024,
            coldstart: ColdStartSpec::fixed_secs(900),
        }
    }
}

#[derive(Debug)]
struct Vm {
    itype: InstanceType,
    state: VmState,
    nic: LinkId,
    ebs: LinkId,
    started_at: Option<SimTime>,
}

/// Callback fired when the platform's lifetime limit kills a Lambda.
type KillCallback = Box<dyn FnOnce(&mut Sim, LambdaId)>;

struct Lambda {
    memory_mb: u64,
    func: u32,
    state: LambdaState,
    nic: LinkId,
    started_at: Option<SimTime>,
    kill_event: Option<splitserve_des::EventId>,
    on_killed: Option<KillCallback>,
}

struct Inner {
    spec: CloudSpec,
    vms: Vec<Vm>,
    lambdas: Vec<Lambda>,
    pool: WarmPool,
    ledger: Ledger,
}

/// Cloneable handle to the simulated cloud.
///
/// # Examples
///
/// ```
/// use splitserve_cloud::{Cloud, CloudSpec, M4_LARGE};
/// use splitserve_des::{Fabric, Sim};
///
/// let mut sim = Sim::new(0);
/// let cloud = Cloud::new(CloudSpec::default(), Fabric::new());
/// let vm = cloud.provision_vm_ready(&mut sim, M4_LARGE);
/// assert_eq!(cloud.vm_cores(vm), 2);
/// ```
#[derive(Clone)]
pub struct Cloud {
    inner: Rc<RefCell<Inner>>,
    fabric: Fabric,
}

impl std::fmt::Debug for Cloud {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("Cloud")
            .field("vms", &inner.vms.len())
            .field("lambdas", &inner.lambdas.len())
            .field("warm_pool", &inner.pool.warm_len())
            .field("policy", &inner.pool.policy_name())
            .field("total_cost", &inner.ledger.total())
            .finish()
    }
}

impl Cloud {
    /// Creates a cloud over an existing fabric, building the cold-start
    /// policy from `spec.coldstart`.
    pub fn new(spec: CloudSpec, fabric: Fabric) -> Self {
        let policy = spec.coldstart.build();
        Self::with_policy(spec, fabric, policy)
    }

    /// Creates a cloud running a caller-supplied [`ColdStartPolicy`] —
    /// the plug-in point for policies beyond the built-in
    /// [`ColdStartSpec`] variants.
    pub(crate) fn with_policy(
        spec: CloudSpec,
        fabric: Fabric,
        policy: Box<dyn ColdStartPolicy>,
    ) -> Self {
        let pool = WarmPool::new(policy, spec.prewarmed_lambdas, PREWARMED_LAMBDA_MB);
        Cloud {
            inner: Rc::new(RefCell::new(Inner {
                spec,
                vms: Vec::new(),
                lambdas: Vec::new(),
                pool,
                ledger: Ledger::new(),
            })),
            fabric,
        }
    }

    /// The fabric this cloud places links on.
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    // ----- VMs -------------------------------------------------------

    /// Requests a new VM. `on_ready` fires after the sampled boot delay.
    /// Billing accrues from readiness until [`Cloud::terminate_vm`].
    pub fn request_vm(
        &self,
        sim: &mut Sim,
        itype: InstanceType,
        on_ready: impl FnOnce(&mut Sim, VmId) + 'static,
    ) -> VmId {
        let boot_secs = {
            let inner = self.inner.borrow();
            inner.spec.vm_boot.clone()
        }
        .sample(sim.rng());
        let id = self.add_vm(itype, VmState::Booting);
        let cloud = self.clone();
        sim.schedule_in(SimDuration::from_secs_f64(boot_secs), move |sim| {
            let still_wanted = {
                let mut inner = cloud.inner.borrow_mut();
                let vm = &mut inner.vms[id.0 as usize];
                if vm.state == VmState::Booting {
                    vm.state = VmState::Running;
                    vm.started_at = Some(sim.now());
                    true
                } else {
                    false // terminated while booting
                }
            };
            if still_wanted {
                on_ready(sim, id);
            }
        });
        id
    }

    /// Provisions a VM that is *already running* at the current instant —
    /// used for the cores a job finds free on arrival. Billing accrues from
    /// now.
    pub fn provision_vm_ready(&self, sim: &mut Sim, itype: InstanceType) -> VmId {
        let id = self.add_vm(itype, VmState::Running);
        self.inner.borrow_mut().vms[id.0 as usize].started_at = Some(sim.now());
        id
    }

    fn add_vm(&self, itype: InstanceType, state: VmState) -> VmId {
        let nic = self.fabric.add_link(
            itype.net_bytes_per_sec,
            format!("{}-nic", itype.name),
        );
        let ebs = self.fabric.add_link(
            itype.ebs_bytes_per_sec,
            format!("{}-ebs", itype.name),
        );
        let mut inner = self.inner.borrow_mut();
        let id = VmId(inner.vms.len() as u64);
        inner.vms.push(Vm {
            itype,
            state,
            nic,
            ebs,
            started_at: None,
        });
        id
    }

    /// Terminates a VM and finalizes its bill (per-second, 60 s minimum).
    /// Terminating a still-booting VM cancels it free of charge.
    ///
    /// # Panics
    ///
    /// Panics if the VM was already terminated.
    pub fn terminate_vm(&self, sim: &mut Sim, id: VmId) {
        let mut inner = self.inner.borrow_mut();
        let now = sim.now();
        let vm = &mut inner.vms[id.0 as usize];
        assert_ne!(vm.state, VmState::Terminated, "double terminate of {id}");
        let charge = match (vm.state, vm.started_at) {
            (VmState::Running, Some(start)) => {
                Some(pricing::vm_cost(&vm.itype, now.saturating_since(start)))
            }
            _ => None,
        };
        vm.state = VmState::Terminated;
        if let Some(usd) = charge {
            inner.ledger.charge(Category::VmCompute, usd);
        }
    }

    /// The VM's instance type.
    pub fn vm_type(&self, id: VmId) -> InstanceType {
        self.inner.borrow().vms[id.0 as usize].itype.clone()
    }

    /// Number of vCPUs (executor cores) on the VM.
    pub fn vm_cores(&self, id: VmId) -> u32 {
        self.inner.borrow().vms[id.0 as usize].itype.vcpus
    }

    /// The VM's network link.
    pub fn vm_nic(&self, id: VmId) -> LinkId {
        self.inner.borrow().vms[id.0 as usize].nic
    }

    /// The VM's dedicated EBS (disk) link.
    pub fn vm_ebs(&self, id: VmId) -> LinkId {
        self.inner.borrow().vms[id.0 as usize].ebs
    }

    // ----- Lambdas ---------------------------------------------------

    /// Invokes a Lambda with `memory_mb` of memory.
    ///
    /// `on_ready` fires after a warm or cold start depending on pool state;
    /// `on_killed` fires if the container hits the platform lifetime limit
    /// before [`Cloud::release_lambda`] is called. The invocation fee is
    /// charged immediately; compute is billed on release/kill at 100 ms
    /// granularity.
    ///
    /// # Panics
    ///
    /// Panics if `memory_mb` exceeds the platform maximum (3 008 MB).
    pub fn invoke_lambda(
        &self,
        sim: &mut Sim,
        memory_mb: u64,
        on_ready: impl FnOnce(&mut Sim, LambdaId) + 'static,
        on_killed: impl FnOnce(&mut Sim, LambdaId) + 'static,
    ) -> LambdaId {
        self.invoke_lambda_for(sim, 0, memory_mb, on_ready, on_killed)
    }

    /// [`Cloud::invoke_lambda`] with an explicit function identity. The
    /// warm pool is shared across functions (any parked container serves
    /// any function, matching container-fungible platforms), but per-func
    /// policies — notably the hybrid histogram — key their idle-time
    /// statistics and prewarm windows on `func`.
    pub fn invoke_lambda_for(
        &self,
        sim: &mut Sim,
        func: u32,
        memory_mb: u64,
        on_ready: impl FnOnce(&mut Sim, LambdaId) + 'static,
        on_killed: impl FnOnce(&mut Sim, LambdaId) + 'static,
    ) -> LambdaId {
        assert!(
            memory_mb <= pricing::LAMBDA_MAX_MEMORY_MB,
            "lambda memory {memory_mb} MB exceeds platform max"
        );
        let (start_dist, lifetime) = {
            let mut inner = self.inner.borrow_mut();
            let now = sim.now();
            inner
                .ledger
                .charge(Category::LambdaInvocation, pricing::LAMBDA_USD_PER_INVOCATION);
            // The pool decision is pure virtual-time bookkeeping: exactly
            // one start sample and one jitter sample are drawn per invoke
            // regardless of the warm/cold outcome, so policy choice never
            // shifts the RNG stream or the event queue.
            let warm = inner.pool.invoke(now.as_micros(), func, memory_mb);
            let d = if warm {
                inner.spec.lambda_warm_start.clone()
            } else {
                inner.spec.lambda_cold_start.clone()
            };
            (d, inner.spec.lambda_lifetime)
        };
        let start_secs = start_dist.sample(sim.rng());

        // Bandwidth ∝ memory, with per-container jitter.
        let (bw, jitter) = {
            let inner = self.inner.borrow();
            let base = inner.spec.lambda_net_bytes_per_sec_at_max * memory_mb as f64
                / pricing::LAMBDA_MAX_MEMORY_MB as f64;
            (base, inner.spec.lambda_net_jitter.clone())
        };
        let bw = (bw * jitter.sample(sim.rng())).max(1.0);
        let nic = self.fabric.add_link(bw, format!("lambda-{memory_mb}mb-nic"));

        let id = {
            let mut inner = self.inner.borrow_mut();
            let id = LambdaId(inner.lambdas.len() as u64);
            inner.lambdas.push(Lambda {
                memory_mb,
                func,
                state: LambdaState::Starting,
                nic,
                started_at: None,
                kill_event: None,
                on_killed: Some(Box::new(on_killed)),
            });
            id
        };

        let cloud = self.clone();
        sim.schedule_in(SimDuration::from_secs_f64(start_secs), move |sim| {
            {
                let mut inner = cloud.inner.borrow_mut();
                let lam = &mut inner.lambdas[id.0 as usize];
                if lam.state != LambdaState::Starting {
                    return; // released/aborted before the container came up
                }
                lam.state = LambdaState::Running;
                lam.started_at = Some(sim.now());
            }
            // Arm the platform's hard lifetime kill.
            let cloud2 = cloud.clone();
            let kill = sim.schedule_in(lifetime, move |sim| cloud2.kill_lambda(sim, id));
            cloud.inner.borrow_mut().lambdas[id.0 as usize].kill_event = Some(kill);
            on_ready(sim, id);
        });
        id
    }

    fn kill_lambda(&self, sim: &mut Sim, id: LambdaId) {
        let cb = {
            let mut inner = self.inner.borrow_mut();
            let now = sim.now();
            let lam = &mut inner.lambdas[id.0 as usize];
            if lam.state != LambdaState::Running {
                return;
            }
            lam.state = LambdaState::Killed;
            let runtime = now.saturating_since(lam.started_at.expect("running lambda started"));
            let usd = pricing::lambda_compute_cost(lam.memory_mb, runtime);
            let cb = lam.on_killed.take();
            inner.ledger.charge(Category::LambdaCompute, usd);
            cb
        };
        if let Some(cb) = cb {
            cb(sim, id);
        }
    }

    /// Gracefully releases a Lambda: finalizes its bill and parks the
    /// container in the warm pool. Releasing an already-killed container is
    /// a no-op (the kill callback already ran).
    pub fn release_lambda(&self, sim: &mut Sim, id: LambdaId) {
        // The kill can no longer happen, so its callback goes too (dropped
        // once the borrow below ends): it typically holds the deployment
        // that holds this cloud — a cycle that kept whole runs alive.
        let (kill_event, _unfired) = {
            let mut inner = self.inner.borrow_mut();
            let now = sim.now();
            let lam = &mut inner.lambdas[id.0 as usize];
            let unfired = lam.on_killed.take();
            let kill_event = match lam.state {
                LambdaState::Running => {
                    lam.state = LambdaState::Released;
                    let runtime =
                        now.saturating_since(lam.started_at.expect("running lambda started"));
                    let usd = pricing::lambda_compute_cost(lam.memory_mb, runtime);
                    let ev = lam.kill_event.take();
                    let mem = lam.memory_mb;
                    let func = lam.func;
                    inner.ledger.charge(Category::LambdaCompute, usd);
                    inner.pool.release(now.as_micros(), func, mem);
                    ev
                }
                LambdaState::Starting => {
                    // Released before it even started: bill one quantum.
                    lam.state = LambdaState::Released;
                    let usd = pricing::lambda_compute_cost(
                        lam.memory_mb,
                        pricing::LAMBDA_BILLING_QUANTUM,
                    );
                    let mem = lam.memory_mb;
                    let func = lam.func;
                    inner.ledger.charge(Category::LambdaCompute, usd);
                    inner.pool.release(now.as_micros(), func, mem);
                    None
                }
                LambdaState::Released | LambdaState::Killed => None,
            };
            (kill_event, unfired)
        };
        if let Some(ev) = kill_event {
            sim.cancel(ev);
        }
    }

    /// The Lambda's network link.
    pub fn lambda_nic(&self, id: LambdaId) -> LinkId {
        self.inner.borrow().lambdas[id.0 as usize].nic
    }

    /// The Lambda's memory allocation in MB.
    pub fn lambda_memory_mb(&self, id: LambdaId) -> u64 {
        self.inner.borrow().lambdas[id.0 as usize].memory_mb
    }

    /// Counts of (warm, cold) starts so far.
    pub fn start_counts(&self) -> (u64, u64) {
        let s = self.inner.borrow().pool.stats();
        (s.warm_starts, s.cold_starts)
    }

    /// Aggregate warm-pool statistics under the active cold-start policy.
    pub fn pool_stats(&self) -> PoolStats {
        self.inner.borrow().pool.stats()
    }

    /// The active cold-start policy's label.
    pub fn policy_name(&self) -> &'static str {
        self.inner.borrow().pool.policy_name()
    }

    /// The warm-pool input stream so far — what the policy oracle replays.
    ///
    /// Test aid: only tests call this.
    pub fn pool_inputs(&self) -> Vec<PoolEvent> {
        self.inner.borrow().pool.inputs().to_vec()
    }

    /// The warm-pool decision log so far — what the policy oracle must
    /// reproduce bit-for-bit.
    ///
    /// Test aid: only tests call this.
    pub fn pool_decisions(&self) -> Vec<PoolDecision> {
        self.inner.borrow().pool.decisions().to_vec()
    }

    /// Sweeps the warm pool to `now` and evicts everything still parked,
    /// charging its idle memory — called by [`Cloud::shutdown_all`]; safe
    /// to call again (idempotent).
    pub(crate) fn finalize_pool(&self, now: SimTime) {
        self.inner.borrow_mut().pool.finalize(now.as_micros());
    }

    // ----- Billing ---------------------------------------------------

    /// Records an arbitrary charge (used by the storage services).
    pub fn charge(&self, category: Category, usd: f64) {
        self.inner.borrow_mut().ledger.charge(category, usd);
    }

    /// Total *finalized* spend so far.
    pub fn total_cost(&self) -> f64 {
        self.inner.borrow().ledger.total()
    }

    /// Finalized spend in one category.
    pub fn cost_for(&self, category: Category) -> f64 {
        self.inner.borrow().ledger.total_for(category)
    }

    /// Per-category rollup of finalized spend.
    pub fn cost_by_category(&self) -> Vec<(Category, f64)> {
        self.inner.borrow().ledger.by_category()
    }

    /// Finalized spend *plus* the accrued cost of everything still running
    /// at `now` — the number an experiment reads at job completion.
    pub fn accrued_cost(&self, now: SimTime) -> f64 {
        let inner = self.inner.borrow();
        let mut total = inner.ledger.total();
        for vm in &inner.vms {
            if vm.state == VmState::Running {
                if let Some(start) = vm.started_at {
                    total += pricing::vm_cost(&vm.itype, now.saturating_since(start));
                }
            }
        }
        for lam in &inner.lambdas {
            if lam.state == LambdaState::Running {
                if let Some(start) = lam.started_at {
                    total +=
                        pricing::lambda_compute_cost(lam.memory_mb, now.saturating_since(start));
                }
            }
        }
        total
    }

    /// Terminates every running VM and releases every running Lambda,
    /// finalizing all bills — called at the end of an experiment.
    pub fn shutdown_all(&self, sim: &mut Sim) {
        let vm_ids: Vec<VmId> = {
            let inner = self.inner.borrow();
            (0..inner.vms.len() as u64)
                .map(VmId)
                .filter(|id| inner.vms[id.0 as usize].state != VmState::Terminated)
                .collect()
        };
        for id in vm_ids {
            self.terminate_vm(sim, id);
        }
        let lambda_ids: Vec<LambdaId> = {
            let inner = self.inner.borrow();
            (0..inner.lambdas.len() as u64)
                .map(LambdaId)
                .filter(|id| {
                    matches!(
                        inner.lambdas[id.0 as usize].state,
                        LambdaState::Running | LambdaState::Starting
                    )
                })
                .collect()
        };
        for id in lambda_ids {
            self.release_lambda(sim, id);
        }
        self.finalize_pool(sim.now());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::{M4_LARGE, M4_XLARGE};
    use std::cell::Cell;

    impl Cloud {
        /// Containers currently parked warm.
        fn warm_pool_len(&self) -> usize {
            self.inner.borrow().pool.warm_len()
        }

        /// The Lambda's lifecycle state.
        fn lambda_state(&self, id: LambdaId) -> LambdaState {
            self.inner.borrow().lambdas[id.0 as usize].state
        }

        /// The VM's lifecycle state.
        fn vm_state(&self, id: VmId) -> VmState {
            self.inner.borrow().vms[id.0 as usize].state
        }
    }

    fn quiet_spec() -> CloudSpec {
        CloudSpec {
            vm_boot: Dist::constant(110.0),
            lambda_warm_start: Dist::constant(0.1),
            lambda_cold_start: Dist::constant(3.0),
            lambda_net_jitter: Dist::constant(1.0),
            ..CloudSpec::default()
        }
    }

    #[test]
    fn vm_boot_delay_applies() {
        let mut sim = Sim::new(0);
        let cloud = Cloud::new(quiet_spec(), Fabric::new());
        let ready_at = Rc::new(Cell::new(-1.0));
        let r = Rc::clone(&ready_at);
        cloud.request_vm(&mut sim, M4_LARGE, move |sim, _id| {
            r.set(sim.now().as_secs_f64());
        });
        sim.run();
        assert_eq!(ready_at.get(), 110.0);
    }

    #[test]
    fn vm_billing_from_ready_to_terminate_with_minimum() {
        let mut sim = Sim::new(0);
        let cloud = Cloud::new(quiet_spec(), Fabric::new());
        let vm = cloud.provision_vm_ready(&mut sim, M4_LARGE);
        // Terminate after 30 s → 60 s minimum billed.
        let c = cloud.clone();
        sim.schedule_in(SimDuration::from_secs(30), move |sim| {
            c.terminate_vm(sim, vm);
        });
        sim.run();
        let expect = 0.10 / 60.0; // one minute of m4.large
        assert!((cloud.total_cost() - expect).abs() < 1e-12);
    }

    #[test]
    fn terminate_while_booting_is_free() {
        let mut sim = Sim::new(0);
        let cloud = Cloud::new(quiet_spec(), Fabric::new());
        let fired = Rc::new(Cell::new(false));
        let f = Rc::clone(&fired);
        let vm = cloud.request_vm(&mut sim, M4_XLARGE, move |_, _| f.set(true));
        let c = cloud.clone();
        sim.schedule_in(SimDuration::from_secs(10), move |sim| {
            c.terminate_vm(sim, vm);
        });
        sim.run();
        assert!(!fired.get(), "on_ready must not fire after cancel");
        assert_eq!(cloud.total_cost(), 0.0);
        assert_eq!(cloud.vm_state(vm), VmState::Terminated);
    }

    #[test]
    fn lambda_warm_start_then_release_bills_quantum() {
        let mut sim = Sim::new(0);
        let cloud = Cloud::new(quiet_spec(), Fabric::new());
        let ready_at = Rc::new(Cell::new(-1.0));
        let r = Rc::clone(&ready_at);
        let cloud2 = cloud.clone();
        cloud.invoke_lambda(
            &mut sim,
            1_536,
            move |sim, id| {
                r.set(sim.now().as_secs_f64());
                // run 0.25 s then release
                let c = cloud2.clone();
                sim.schedule_in(SimDuration::from_millis(250), move |sim| {
                    c.release_lambda(sim, id);
                });
            },
            |_, _| panic!("must not be killed"),
        );
        sim.run();
        assert!((ready_at.get() - 0.1).abs() < 1e-9);
        // 0.25 s rounds to 0.3 s of 1.5 GB + invocation fee.
        let expect = pricing::LAMBDA_USD_PER_GB_SEC * 1.5 * 0.3 + pricing::LAMBDA_USD_PER_INVOCATION;
        assert!(
            (cloud.total_cost() - expect).abs() < 1e-12,
            "got {} expect {expect}",
            cloud.total_cost()
        );
    }

    #[test]
    fn lambda_lifetime_kill_fires_callback() {
        let mut sim = Sim::new(0);
        let cloud = Cloud::new(quiet_spec(), Fabric::new());
        let killed_at = Rc::new(Cell::new(-1.0));
        let k = Rc::clone(&killed_at);
        cloud.invoke_lambda(
            &mut sim,
            1_536,
            |_, _| {}, // never released
            move |sim, _| k.set(sim.now().as_secs_f64()),
        );
        sim.run();
        // ready at 0.1 s + 900 s lifetime
        assert!((killed_at.get() - 900.1).abs() < 1e-6);
    }

    #[test]
    fn release_cancels_lifetime_kill() {
        let mut sim = Sim::new(0);
        let cloud = Cloud::new(quiet_spec(), Fabric::new());
        let cloud2 = cloud.clone();
        cloud.invoke_lambda(
            &mut sim,
            1_536,
            move |sim, id| {
                let c = cloud2.clone();
                sim.schedule_in(SimDuration::from_secs(10), move |sim| {
                    c.release_lambda(sim, id);
                });
            },
            |_, _| panic!("kill must be cancelled by release"),
        );
        sim.run();
        assert!(sim.now().as_secs_f64() < 900.0);
    }

    #[test]
    fn warm_pool_exhaustion_causes_cold_starts() {
        let mut sim = Sim::new(0);
        let spec = CloudSpec {
            prewarmed_lambdas: 2,
            ..quiet_spec()
        };
        let cloud = Cloud::new(spec, Fabric::new());
        let mut ready = Vec::new();
        for _ in 0..3 {
            let r = Rc::new(Cell::new(-1.0));
            ready.push(Rc::clone(&r));
            cloud.invoke_lambda(
                &mut sim,
                1_536,
                move |sim, _| r.set(sim.now().as_secs_f64()),
                |_, _| {},
            );
        }
        sim.run_until(SimTime::from_secs(30));
        assert!((ready[0].get() - 0.1).abs() < 1e-9);
        assert!((ready[1].get() - 0.1).abs() < 1e-9);
        assert!((ready[2].get() - 3.0).abs() < 1e-9, "third start is cold");
        assert_eq!(cloud.start_counts(), (2, 1));
    }

    #[test]
    fn released_lambda_rewarms_pool() {
        let mut sim = Sim::new(0);
        let spec = CloudSpec {
            prewarmed_lambdas: 1,
            ..quiet_spec()
        };
        let cloud = Cloud::new(spec, Fabric::new());
        let cloud2 = cloud.clone();
        cloud.invoke_lambda(
            &mut sim,
            1_536,
            move |sim, id| {
                let c = cloud2.clone();
                sim.schedule_in(SimDuration::from_secs(1), move |sim| {
                    c.release_lambda(sim, id);
                    // Re-invoke: should be warm again.
                    let c2 = c.clone();
                    c.invoke_lambda(sim, 1_536, move |sim2, id2| {
                        c2.release_lambda(sim2, id2);
                    }, |_, _| {});
                });
            },
            |_, _| {},
        );
        sim.run();
        assert_eq!(cloud.start_counts(), (2, 0));
    }

    #[test]
    fn lambda_bandwidth_scales_with_memory() {
        let mut sim = Sim::new(0);
        let cloud = Cloud::new(quiet_spec(), Fabric::new());
        let big = cloud.invoke_lambda(&mut sim, 3_008, |_, _| {}, |_, _| {});
        let small = cloud.invoke_lambda(&mut sim, 752, |_, _| {}, |_, _| {});
        let f = cloud.fabric();
        let bw_big = f.link_capacity(cloud.lambda_nic(big));
        let bw_small = f.link_capacity(cloud.lambda_nic(small));
        assert!((bw_big / bw_small - 4.0).abs() < 1e-6);
    }

    #[test]
    fn accrued_cost_counts_running_resources() {
        let mut sim = Sim::new(0);
        let cloud = Cloud::new(quiet_spec(), Fabric::new());
        cloud.provision_vm_ready(&mut sim, M4_LARGE);
        sim.run_until(SimTime::from_secs(120));
        assert_eq!(cloud.total_cost(), 0.0, "nothing finalized yet");
        let accrued = cloud.accrued_cost(sim.now());
        let expect = 0.10 / 3600.0 * 120.0;
        assert!((accrued - expect).abs() < 1e-12);
    }

    #[test]
    fn shutdown_all_finalizes_everything() {
        let mut sim = Sim::new(0);
        let cloud = Cloud::new(quiet_spec(), Fabric::new());
        cloud.provision_vm_ready(&mut sim, M4_LARGE);
        cloud.invoke_lambda(&mut sim, 1_536, |_, _| {}, |_, _| {});
        sim.run_until(SimTime::from_secs(10));
        cloud.shutdown_all(&mut sim);
        sim.run();
        assert!(cloud.total_cost() > 0.0);
        let accrued = cloud.accrued_cost(sim.now());
        assert!((accrued - cloud.total_cost()).abs() < 1e-12, "nothing left accruing");
    }

    /// `on_killed` usually captures the deployment that owns the cloud;
    /// once a Lambda can no longer be killed the cloud must let go of it.
    #[test]
    fn released_lambdas_drop_their_kill_callbacks() {
        let mut sim = Sim::new(0);
        let cloud = Cloud::new(quiet_spec(), Fabric::new());
        let sentinel = Rc::new(());
        let held = |s: &Rc<()>| {
            let s = Rc::clone(s);
            move |_: &mut Sim, _: LambdaId| drop(s)
        };
        let running = cloud.invoke_lambda(&mut sim, 1_536, |_, _| {}, held(&sentinel));
        sim.run_until(SimTime::from_secs(1));
        // Still starting when released.
        let starting = cloud.invoke_lambda(&mut sim, 1_536, |_, _| {}, held(&sentinel));
        assert_eq!(Rc::strong_count(&sentinel), 3);
        cloud.release_lambda(&mut sim, running);
        assert_eq!(cloud.lambda_state(running), LambdaState::Released);
        assert_eq!(Rc::strong_count(&sentinel), 2);
        cloud.release_lambda(&mut sim, starting);
        assert_eq!(Rc::strong_count(&sentinel), 1);

        // `shutdown_all` releases whatever is left, in either state.
        cloud.invoke_lambda(&mut sim, 1_536, |_, _| {}, held(&sentinel));
        sim.run_until(SimTime::from_secs(2));
        cloud.invoke_lambda(&mut sim, 1_536, |_, _| {}, held(&sentinel));
        assert_eq!(Rc::strong_count(&sentinel), 3);
        cloud.shutdown_all(&mut sim);
        assert_eq!(Rc::strong_count(&sentinel), 1);
        sim.run();
        assert_eq!(Rc::strong_count(&sentinel), 1);
    }

    #[test]
    #[should_panic(expected = "exceeds platform max")]
    fn oversized_lambda_rejected() {
        let mut sim = Sim::new(0);
        let cloud = Cloud::new(quiet_spec(), Fabric::new());
        cloud.invoke_lambda(&mut sim, 4_096, |_, _| {}, |_, _| {});
    }

    fn all_policy_specs() -> Vec<ColdStartSpec> {
        vec![
            ColdStartSpec::forever(),
            ColdStartSpec::fixed_secs(60),
            ColdStartSpec::UnloadOnPressure { cap_mb: 8_192 },
            ColdStartSpec::HybridHistogram(crate::coldstart::HybridHistogramSpec::default()),
        ]
    }

    /// A platform-killed container is destroyed, not parked: under every
    /// policy the next invoke after a lifetime kill must be cold, and the
    /// kill must leave no trace in the warm pool.
    #[test]
    fn killed_container_never_reenters_warm_pool() {
        for coldstart in all_policy_specs() {
            let name = coldstart.name();
            let mut sim = Sim::new(0);
            let spec = CloudSpec {
                prewarmed_lambdas: 0,
                lambda_lifetime: SimDuration::from_secs(5),
                coldstart,
                ..quiet_spec()
            };
            let cloud = Cloud::new(spec, Fabric::new());
            let killed = Rc::new(Cell::new(false));
            let k = Rc::clone(&killed);
            cloud.invoke_lambda(
                &mut sim,
                1_536,
                |_, _| {}, // never released → lifetime kill at ~8 s
                move |_, _| k.set(true),
            );
            sim.run_until(SimTime::from_secs(20));
            assert!(killed.get(), "[{name}] lifetime kill must fire");
            assert_eq!(
                cloud.warm_pool_len(),
                0,
                "[{name}] killed container re-entered the warm pool"
            );
            cloud.invoke_lambda(&mut sim, 1_536, |_, _| {}, |_, _| {});
            sim.run_until(SimTime::from_secs(40));
            assert_eq!(
                cloud.start_counts(),
                (0, 2),
                "[{name}] start after a kill must be cold"
            );
        }
    }

    /// An invocation aborted while Starting parks its container; if that
    /// parked container then *expires* before the start event fires, the
    /// pending `on_ready` must be dropped (the Lambda is Released, not
    /// resurrected) and the original invoke must stay counted exactly
    /// once — no double-counted start, no span from beyond the grave.
    #[test]
    fn eviction_mid_on_ready_does_not_double_count_starts() {
        let mut sim = Sim::new(0);
        let spec = CloudSpec {
            prewarmed_lambdas: 0,
            coldstart: ColdStartSpec::Fixed {
                keepalive_us: 1_000_000,
            },
            ..quiet_spec()
        };
        let cloud = Cloud::new(spec, Fabric::new());
        let ready_fired = Rc::new(Cell::new(0u32));
        let r = Rc::clone(&ready_fired);
        // Cold start takes 3 s; abort at 0.5 s re-parks the container with
        // a 1 s keepalive, so it expires at 1.5 s — before the start event
        // at 3 s.
        let c = cloud.clone();
        let id = cloud.invoke_lambda(
            &mut sim,
            1_536,
            move |_, _| r.set(r.get() + 1),
            |_, _| panic!("never killed"),
        );
        sim.schedule_in(SimDuration::from_millis(500), move |sim| {
            c.release_lambda(sim, id);
        });
        sim.run_until(SimTime::from_secs(2));
        assert_eq!(cloud.warm_pool_len(), 1, "aborted container parked");
        // Next invoke at 2 s: the parked container expired at 1.5 s.
        let r2 = Rc::clone(&ready_fired);
        let c2 = cloud.clone();
        cloud.invoke_lambda(
            &mut sim,
            1_536,
            move |sim, id2| {
                r2.set(r2.get() + 1);
                c2.release_lambda(sim, id2);
            },
            |_, _| panic!("never killed"),
        );
        sim.run();
        assert_eq!(ready_fired.get(), 1, "only the live invoke's on_ready fires");
        assert_eq!(
            cloud.start_counts(),
            (0, 2),
            "aborted + evicted invoke still counts exactly once, as cold"
        );
        let stats = cloud.pool_stats();
        assert_eq!(stats.evicted_expired, 1);
        assert_eq!(cloud.lambda_state(id), LambdaState::Released);
    }

    /// The abort path (release while Starting) parks a container that a
    /// back-to-back invoke can reuse warm — and reuse must not re-fire
    /// the aborted invocation's `on_ready`.
    #[test]
    fn abort_then_immediate_reinvoke_is_warm_without_resurrection() {
        let mut sim = Sim::new(0);
        let spec = CloudSpec {
            prewarmed_lambdas: 0,
            ..quiet_spec()
        };
        let cloud = Cloud::new(spec, Fabric::new());
        let first_ready = Rc::new(Cell::new(false));
        let fr = Rc::clone(&first_ready);
        let c = cloud.clone();
        let id = cloud.invoke_lambda(
            &mut sim,
            1_536,
            move |_, _| fr.set(true),
            |_, _| {},
        );
        sim.schedule_in(SimDuration::from_millis(100), move |sim| {
            c.release_lambda(sim, id);
            // Warm re-invoke 100 ms after the abort parked the container.
            c.invoke_lambda(sim, 1_536, |_, _| {}, |_, _| {});
        });
        sim.run_until(SimTime::from_secs(10));
        assert!(!first_ready.get(), "aborted invoke must not come up");
        assert_eq!(cloud.start_counts(), (1, 1), "abort re-warms the pool");
    }
}

//! The cloud component: VM and Lambda lifecycles wired to the fabric and
//! the billing ledger. Its timers are its own typed events, and it reports
//! to its owner through a [`CloudListener`] held by `Weak`: the cloud keeps
//! no caller closure, so no cycle can run through it.

use std::cell::RefCell;
use std::rc::{Rc, Weak};

use splitserve_des::{Dist, EventHandler, Fabric, LinkId, Sim, SimDuration, SimTime};

use crate::billing::{Category, Ledger};
use crate::coldstart::{ColdStartSpec, PoolDecision, PoolEvent, PoolStats, WarmPool};
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

struct Lambda {
    memory_mb: u64,
    func: u32,
    state: LambdaState,
    nic: LinkId,
    started_at: Option<SimTime>,
    kill_event: Option<splitserve_des::EventId>,
}

/// What the cloud reports to its [`CloudListener`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CloudEvent {
    /// A VM from [`Cloud::request_vm`] booted (unless terminated first).
    VmReady(VmId),
    /// A Lambda's container came up (unless released first); its lifetime
    /// clock started.
    LambdaReady(LambdaId),
    /// The platform's lifetime limit killed a running Lambda.
    LambdaKilled(LambdaId),
}

/// The owner of a [`Cloud`], registered with [`Cloud::set_listener`].
pub trait CloudListener {
    /// `event` happened at `sim.now()`.
    fn on_cloud_event(self: Rc<Self>, sim: &mut Sim, event: CloudEvent);
}

/// Token kinds of the cloud's timers, under the index into `vms` or
/// `lambdas`.
const VM_BOOT: u64 = 0;
const LAMBDA_START: u64 = 1;
const LAMBDA_KILL: u64 = 2;
const KIND_BITS: u32 = 2;

struct Inner {
    spec: CloudSpec,
    vms: Vec<Vm>,
    lambdas: Vec<Lambda>,
    pool: WarmPool,
    ledger: Ledger,
    listener: Option<Weak<dyn CloudListener>>,
}

/// What every handle to a cloud, and every one of its timers, shares.
struct Core {
    inner: RefCell<Inner>,
}

/// A VM boot, a Lambda start or a lifetime kill fell due.
impl EventHandler for Core {
    fn on_event(self: Rc<Self>, sim: &mut Sim, token: u64) {
        let (now, i) = (sim.now(), (token >> KIND_BITS) as usize);
        let mut inner = self.inner.borrow_mut();
        let event = match token & ((1 << KIND_BITS) - 1) {
            VM_BOOT if inner.vms[i].state == VmState::Booting => {
                let vm = &mut inner.vms[i];
                vm.state = VmState::Running;
                vm.started_at = Some(now);
                CloudEvent::VmReady(VmId(i as u64))
            }
            LAMBDA_START if inner.lambdas[i].state == LambdaState::Starting => {
                // Arm the platform's hard lifetime kill.
                let kill = (i as u64) << KIND_BITS | LAMBDA_KILL;
                let kill = sim.notify_in(inner.spec.lambda_lifetime, self.clone(), kill);
                let lam = &mut inner.lambdas[i];
                lam.state = LambdaState::Running;
                lam.started_at = Some(now);
                lam.kill_event = Some(kill);
                CloudEvent::LambdaReady(LambdaId(i as u64))
            }
            LAMBDA_KILL if inner.lambdas[i].state == LambdaState::Running => {
                let lam = &mut inner.lambdas[i];
                lam.state = LambdaState::Killed;
                let runtime = now.saturating_since(lam.started_at.expect("running lambda started"));
                let usd = pricing::lambda_compute_cost(lam.memory_mb, runtime);
                inner.ledger.charge(Category::LambdaCompute, usd);
                CloudEvent::LambdaKilled(LambdaId(i as u64))
            }
            // Terminated while booting, released before it came up or
            // before its kill.
            _ => return,
        };
        let listener = inner.listener.as_ref().and_then(Weak::upgrade);
        drop(inner);
        if let Some(listener) = listener {
            listener.on_cloud_event(sim, event);
        }
    }
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
    core: Rc<Core>,
    fabric: Fabric,
}

impl std::fmt::Debug for Cloud {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.core.inner.borrow();
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
        let pool = WarmPool::new(policy, spec.prewarmed_lambdas, PREWARMED_LAMBDA_MB);
        let inner = Inner {
            spec,
            vms: Vec::new(),
            lambdas: Vec::new(),
            pool,
            ledger: Ledger::new(),
            listener: None,
        };
        Cloud {
            core: Rc::new(Core {
                inner: RefCell::new(inner),
            }),
            fabric,
        }
    }

    /// Makes `listener` hear this cloud's [`CloudEvent`]s. The cloud keeps
    /// only a `Weak` to it: events that fire once it is gone go unheard.
    pub fn set_listener<L: CloudListener + 'static>(&self, listener: &Rc<L>) {
        let listener: Weak<L> = Rc::downgrade(listener);
        self.core.inner.borrow_mut().listener = Some(listener);
    }

    // ----- VMs -------------------------------------------------------

    /// Requests a new VM; [`CloudEvent::VmReady`] reports it after the
    /// sampled boot delay. Billing accrues from readiness until
    /// [`Cloud::terminate_vm`].
    pub fn request_vm(&self, sim: &mut Sim, itype: InstanceType) -> VmId {
        let boot_secs = {
            let inner = self.core.inner.borrow();
            inner.spec.vm_boot.clone()
        }
        .sample(sim.rng());
        let id = self.add_vm(itype, VmState::Booting);
        let boot = SimDuration::from_secs_f64(boot_secs);
        sim.notify_in(boot, self.core.clone(), id.0 << KIND_BITS | VM_BOOT);
        id
    }

    /// Provisions a VM that is *already running* at the current instant —
    /// used for the cores a job finds free on arrival. Billing accrues from
    /// now.
    pub fn provision_vm_ready(&self, sim: &mut Sim, itype: InstanceType) -> VmId {
        let id = self.add_vm(itype, VmState::Running);
        self.core.inner.borrow_mut().vms[id.0 as usize].started_at = Some(sim.now());
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
        let mut inner = self.core.inner.borrow_mut();
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
        let mut inner = self.core.inner.borrow_mut();
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
        self.core.inner.borrow().vms[id.0 as usize].itype.clone()
    }

    /// Number of vCPUs (executor cores) on the VM.
    pub fn vm_cores(&self, id: VmId) -> u32 {
        self.core.inner.borrow().vms[id.0 as usize].itype.vcpus
    }

    /// The VM's network link.
    pub fn vm_nic(&self, id: VmId) -> LinkId {
        self.core.inner.borrow().vms[id.0 as usize].nic
    }

    /// The VM's dedicated EBS (disk) link.
    pub fn vm_ebs(&self, id: VmId) -> LinkId {
        self.core.inner.borrow().vms[id.0 as usize].ebs
    }

    // ----- Lambdas ---------------------------------------------------

    /// Invokes a Lambda of function `func` with `memory_mb` of memory.
    ///
    /// [`CloudEvent::LambdaReady`] reports it after a warm or cold start
    /// depending on pool state, [`CloudEvent::LambdaKilled`] if it hits the
    /// platform lifetime limit before [`Cloud::release_lambda`]. The
    /// invocation fee is charged immediately; compute is billed on
    /// release/kill at 100 ms granularity. The warm pool is shared across
    /// functions (any parked container serves any function, matching
    /// container-fungible platforms), but per-func policies — notably the
    /// hybrid histogram — key their idle-time statistics and prewarm
    /// windows on `func`.
    ///
    /// # Panics
    ///
    /// Panics if `memory_mb` exceeds the platform maximum (3 008 MB).
    pub fn invoke_lambda(&self, sim: &mut Sim, func: u32, memory_mb: u64) -> LambdaId {
        assert!(
            memory_mb <= pricing::LAMBDA_MAX_MEMORY_MB,
            "lambda memory {memory_mb} MB exceeds platform max"
        );
        let start_dist = {
            let mut inner = self.core.inner.borrow_mut();
            let now = sim.now();
            inner
                .ledger
                .charge(Category::LambdaInvocation, pricing::LAMBDA_USD_PER_INVOCATION);
            // The pool decision is pure virtual-time bookkeeping: exactly
            // one start sample and one jitter sample are drawn per invoke
            // regardless of the warm/cold outcome, so policy choice never
            // shifts the RNG stream or the event queue.
            let warm = inner.pool.invoke(now.as_micros(), func, memory_mb);
            if warm {
                inner.spec.lambda_warm_start.clone()
            } else {
                inner.spec.lambda_cold_start.clone()
            }
        };
        let start_secs = start_dist.sample(sim.rng());

        // Bandwidth ∝ memory, with per-container jitter.
        let (bw, jitter) = {
            let inner = self.core.inner.borrow();
            let base = inner.spec.lambda_net_bytes_per_sec_at_max * memory_mb as f64
                / pricing::LAMBDA_MAX_MEMORY_MB as f64;
            (base, inner.spec.lambda_net_jitter.clone())
        };
        let bw = (bw * jitter.sample(sim.rng())).max(1.0);
        let nic = self.fabric.add_link(bw, format!("lambda-{memory_mb}mb-nic"));

        let id = {
            let mut inner = self.core.inner.borrow_mut();
            let id = LambdaId(inner.lambdas.len() as u64);
            inner.lambdas.push(Lambda {
                memory_mb,
                func,
                state: LambdaState::Starting,
                nic,
                started_at: None,
                kill_event: None,
            });
            id
        };
        let start = SimDuration::from_secs_f64(start_secs);
        sim.notify_in(start, self.core.clone(), id.0 << KIND_BITS | LAMBDA_START);
        id
    }

    /// Gracefully releases a Lambda: finalizes its bill, parks the
    /// container in the warm pool and cancels its lifetime kill. Releasing
    /// an already-killed container is a no-op.
    pub fn release_lambda(&self, sim: &mut Sim, id: LambdaId) {
        let kill_event = {
            let mut inner = self.core.inner.borrow_mut();
            let now = sim.now();
            let lam = &mut inner.lambdas[id.0 as usize];
            let billed = match lam.state {
                LambdaState::Running => {
                    now.saturating_since(lam.started_at.expect("running lambda started"))
                }
                // Released before it even started: bill one quantum.
                LambdaState::Starting => pricing::LAMBDA_BILLING_QUANTUM,
                LambdaState::Released | LambdaState::Killed => return,
            };
            lam.state = LambdaState::Released;
            let usd = pricing::lambda_compute_cost(lam.memory_mb, billed);
            let (func, mem, ev) = (lam.func, lam.memory_mb, lam.kill_event.take());
            inner.ledger.charge(Category::LambdaCompute, usd);
            inner.pool.release(now.as_micros(), func, mem);
            ev
        };
        if let Some(ev) = kill_event {
            sim.cancel(ev);
        }
    }

    /// The Lambda's network link.
    pub fn lambda_nic(&self, id: LambdaId) -> LinkId {
        self.core.inner.borrow().lambdas[id.0 as usize].nic
    }

    /// The Lambda's memory allocation in MB.
    pub fn lambda_memory_mb(&self, id: LambdaId) -> u64 {
        self.core.inner.borrow().lambdas[id.0 as usize].memory_mb
    }

    /// Aggregate warm-pool statistics under the active cold-start policy.
    pub fn pool_stats(&self) -> PoolStats {
        self.core.inner.borrow().pool.stats()
    }

    /// The active cold-start policy's label.
    pub fn policy_name(&self) -> &'static str {
        self.core.inner.borrow().pool.policy_name()
    }

    /// The warm-pool input stream so far — what the policy oracle replays.
    ///
    /// Test aid: only tests call this.
    pub fn pool_inputs(&self) -> Vec<PoolEvent> {
        self.core.inner.borrow().pool.inputs().to_vec()
    }

    /// The warm-pool decision log so far — what the policy oracle must
    /// reproduce bit-for-bit.
    ///
    /// Test aid: only tests call this.
    pub fn pool_decisions(&self) -> Vec<PoolDecision> {
        self.core.inner.borrow().pool.decisions().to_vec()
    }

    // ----- Billing ---------------------------------------------------

    /// Records an arbitrary charge (used by the storage services).
    pub fn charge(&self, category: Category, usd: f64) {
        self.core.inner.borrow_mut().ledger.charge(category, usd);
    }

    /// Total *finalized* spend so far.
    pub fn total_cost(&self) -> f64 {
        self.core.inner.borrow().ledger.total()
    }

    /// Finalized spend in one category.
    pub fn cost_for(&self, category: Category) -> f64 {
        self.core.inner.borrow().ledger.total_for(category)
    }

    /// Per-category rollup of finalized spend.
    pub fn cost_by_category(&self) -> Vec<(Category, f64)> {
        self.core.inner.borrow().ledger.by_category()
    }

    /// Finalized spend *plus* the accrued cost of everything still running
    /// at `now` — the number an experiment reads at job completion.
    pub fn accrued_cost(&self, now: SimTime) -> f64 {
        let inner = self.core.inner.borrow();
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
        let (vms, lambdas) = {
            let inner = self.core.inner.borrow();
            (inner.vms.len() as u64, inner.lambdas.len() as u64)
        };
        for id in (0..vms).map(VmId) {
            if self.core.inner.borrow().vms[id.0 as usize].state != VmState::Terminated {
                self.terminate_vm(sim, id);
            }
        }
        // Releasing a released or killed Lambda is a no-op.
        for id in (0..lambdas).map(LambdaId) {
            self.release_lambda(sim, id);
        }
        // Sweep the warm pool to now and evict everything still parked,
        // charging its idle memory (idempotent).
        self.core.inner.borrow_mut().pool.finalize(sim.now().as_micros());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::{M4_LARGE, M4_XLARGE};

    impl Cloud {
        /// Counts of (warm, cold) starts so far.
        fn start_counts(&self) -> (u64, u64) {
            let s = self.pool_stats();
            (s.warm_starts, s.cold_starts)
        }

        /// Containers currently parked warm.
        fn warm_pool_len(&self) -> usize {
            self.core.inner.borrow().pool.warm_len()
        }

        /// The Lambda's lifecycle state.
        fn lambda_state(&self, id: LambdaId) -> LambdaState {
            self.core.inner.borrow().lambdas[id.0 as usize].state
        }

        /// The VM's lifecycle state.
        fn vm_state(&self, id: VmId) -> VmState {
            self.core.inner.borrow().vms[id.0 as usize].state
        }
    }

    /// Records what the cloud reports, with the second it heard each
    /// event, and releases a Lambda the test asked for `hold` after it
    /// comes up (at once for a zero hold).
    struct Recorder {
        cloud: Cloud,
        heard: RefCell<Vec<(f64, CloudEvent)>>,
        holds: RefCell<Vec<(LambdaId, SimDuration)>>,
    }

    impl Recorder {
        fn on(cloud: &Cloud) -> Rc<Recorder> {
            let recorder = Rc::new(Recorder {
                cloud: cloud.clone(),
                heard: RefCell::default(),
                holds: RefCell::default(),
            });
            cloud.set_listener(&recorder);
            recorder
        }

        fn release_after(&self, id: LambdaId, hold: SimDuration) {
            self.holds.borrow_mut().push((id, hold));
        }

        fn heard(&self) -> Vec<(f64, CloudEvent)> {
            self.heard.borrow().clone()
        }

        /// When `id` came up, if it did.
        fn ready_at(&self, id: LambdaId) -> Option<f64> {
            let heard = self.heard.borrow();
            let mut ready = heard.iter().filter(|(_, e)| *e == CloudEvent::LambdaReady(id));
            ready.next().map(|(at, _)| *at)
        }
    }

    impl CloudListener for Recorder {
        fn on_cloud_event(self: Rc<Self>, sim: &mut Sim, event: CloudEvent) {
            self.heard.borrow_mut().push((sim.now().as_secs_f64(), event));
            let CloudEvent::LambdaReady(id) = event else {
                return;
            };
            let hold = self.holds.borrow().iter().find(|(l, _)| *l == id).map(|(_, h)| *h);
            match hold {
                Some(hold) if hold.is_zero() => self.cloud.release_lambda(sim, id),
                Some(hold) => {
                    let cloud = self.cloud.clone();
                    sim.schedule_in(hold, move |sim| cloud.release_lambda(sim, id));
                }
                None => {}
            }
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
        let recorder = Recorder::on(&cloud);
        let vm = cloud.request_vm(&mut sim, M4_LARGE);
        sim.run();
        assert_eq!(recorder.heard(), [(110.0, CloudEvent::VmReady(vm))]);
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
        let recorder = Recorder::on(&cloud);
        let vm = cloud.request_vm(&mut sim, M4_XLARGE);
        let c = cloud.clone();
        sim.schedule_in(SimDuration::from_secs(10), move |sim| {
            c.terminate_vm(sim, vm);
        });
        sim.run();
        assert!(recorder.heard().is_empty(), "VmReady must not fire after cancel");
        assert_eq!(cloud.total_cost(), 0.0);
        assert_eq!(cloud.vm_state(vm), VmState::Terminated);
    }

    #[test]
    fn lambda_warm_start_then_release_bills_quantum() {
        let mut sim = Sim::new(0);
        let cloud = Cloud::new(quiet_spec(), Fabric::new());
        let recorder = Recorder::on(&cloud);
        let id = cloud.invoke_lambda(&mut sim, 0, 1_536);
        // run 0.25 s then release
        recorder.release_after(id, SimDuration::from_millis(250));
        sim.run();
        assert_eq!(recorder.heard().len(), 1, "released, never killed");
        assert!((recorder.ready_at(id).expect("came up") - 0.1).abs() < 1e-9);
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
        let recorder = Recorder::on(&cloud);
        let id = cloud.invoke_lambda(&mut sim, 0, 1_536); // never released
        sim.run();
        // ready at 0.1 s + 900 s lifetime
        let (killed_at, killed) = recorder.heard()[1];
        assert_eq!(killed, CloudEvent::LambdaKilled(id));
        assert!((killed_at - 900.1).abs() < 1e-6);
    }

    #[test]
    fn release_cancels_lifetime_kill() {
        let mut sim = Sim::new(0);
        let cloud = Cloud::new(quiet_spec(), Fabric::new());
        let recorder = Recorder::on(&cloud);
        let id = cloud.invoke_lambda(&mut sim, 0, 1_536);
        recorder.release_after(id, SimDuration::from_secs(10));
        sim.run();
        assert_eq!(
            recorder.heard(),
            [(0.1, CloudEvent::LambdaReady(id))],
            "kill must be cancelled by release"
        );
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
        let recorder = Recorder::on(&cloud);
        let ids: Vec<LambdaId> = (0..3).map(|_| cloud.invoke_lambda(&mut sim, 0, 1_536)).collect();
        sim.run_until(SimTime::from_secs(30));
        let ready: Vec<f64> = ids.iter().map(|id| recorder.ready_at(*id).unwrap_or(-1.0)).collect();
        assert!((ready[0] - 0.1).abs() < 1e-9);
        assert!((ready[1] - 0.1).abs() < 1e-9);
        assert!((ready[2] - 3.0).abs() < 1e-9, "third start is cold");
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
        let recorder = Recorder::on(&cloud);
        let first = cloud.invoke_lambda(&mut sim, 0, 1_536);
        recorder.release_after(first, SimDuration::from_secs(1));
        sim.run_until(SimTime::from_millis(1_100));
        assert_eq!(cloud.lambda_state(first), LambdaState::Released);
        // Re-invoke: should be warm again.
        let second = cloud.invoke_lambda(&mut sim, 0, 1_536);
        recorder.release_after(second, SimDuration::ZERO);
        sim.run();
        assert_eq!(cloud.start_counts(), (2, 0));
    }

    #[test]
    fn lambda_bandwidth_scales_with_memory() {
        let mut sim = Sim::new(0);
        let f = Fabric::new();
        let cloud = Cloud::new(quiet_spec(), f.clone());
        let big = cloud.invoke_lambda(&mut sim, 0, 3_008);
        let small = cloud.invoke_lambda(&mut sim, 0, 752);
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
        cloud.invoke_lambda(&mut sim, 0, 1_536);
        sim.run_until(SimTime::from_secs(10));
        cloud.shutdown_all(&mut sim);
        sim.run();
        assert!(cloud.total_cost() > 0.0);
        let accrued = cloud.accrued_cost(sim.now());
        assert!((accrued - cloud.total_cost()).abs() < 1e-12, "nothing left accruing");
    }

    #[test]
    #[should_panic(expected = "exceeds platform max")]
    fn oversized_lambda_rejected() {
        let mut sim = Sim::new(0);
        let cloud = Cloud::new(quiet_spec(), Fabric::new());
        cloud.invoke_lambda(&mut sim, 0, 4_096);
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
            let recorder = Recorder::on(&cloud);
            // Never released → lifetime kill at ~8 s.
            let id = cloud.invoke_lambda(&mut sim, 0, 1_536);
            sim.run_until(SimTime::from_secs(20));
            assert!(
                recorder.heard().iter().any(|(_, e)| *e == CloudEvent::LambdaKilled(id)),
                "[{name}] lifetime kill must fire"
            );
            assert_eq!(
                cloud.warm_pool_len(),
                0,
                "[{name}] killed container re-entered the warm pool"
            );
            cloud.invoke_lambda(&mut sim, 0, 1_536);
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
    /// pending start must report nothing (the Lambda is Released, not
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
        let recorder = Recorder::on(&cloud);
        // Cold start takes 3 s; abort at 0.5 s re-parks the container with
        // a 1 s keepalive, so it expires at 1.5 s — before the start event
        // at 3 s.
        let c = cloud.clone();
        let id = cloud.invoke_lambda(&mut sim, 0, 1_536);
        sim.schedule_in(SimDuration::from_millis(500), move |sim| {
            c.release_lambda(sim, id);
        });
        sim.run_until(SimTime::from_secs(2));
        assert_eq!(cloud.warm_pool_len(), 1, "aborted container parked");
        // Next invoke at 2 s: the parked container expired at 1.5 s.
        let live = cloud.invoke_lambda(&mut sim, 0, 1_536);
        recorder.release_after(live, SimDuration::ZERO);
        sim.run();
        assert_eq!(
            recorder.heard(),
            [(5.0, CloudEvent::LambdaReady(live))],
            "only the live invoke comes up, and nothing is killed"
        );
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
    /// back-to-back invoke can reuse warm — and reuse must not bring the
    /// aborted invocation up.
    #[test]
    fn abort_then_immediate_reinvoke_is_warm_without_resurrection() {
        let mut sim = Sim::new(0);
        let spec = CloudSpec {
            prewarmed_lambdas: 0,
            ..quiet_spec()
        };
        let cloud = Cloud::new(spec, Fabric::new());
        let recorder = Recorder::on(&cloud);
        let c = cloud.clone();
        let id = cloud.invoke_lambda(&mut sim, 0, 1_536);
        sim.schedule_in(SimDuration::from_millis(100), move |sim| {
            c.release_lambda(sim, id);
            // Warm re-invoke 100 ms after the abort parked the container.
            c.invoke_lambda(sim, 0, 1_536);
        });
        sim.run_until(SimTime::from_secs(10));
        assert_eq!(recorder.ready_at(id), None, "aborted invoke must not come up");
        assert_eq!(cloud.start_counts(), (1, 1), "abort re-warms the pool");
    }

    /// The cloud holds its listener weakly: one dropped by its owner hears
    /// nothing, and the cloud keeps nothing of it alive.
    #[test]
    fn a_dropped_listener_is_not_kept_alive() {
        let mut sim = Sim::new(0);
        let cloud = Cloud::new(quiet_spec(), Fabric::new());
        let recorder = Recorder::on(&cloud);
        let gone = Rc::downgrade(&recorder);
        cloud.invoke_lambda(&mut sim, 0, 1_536);
        cloud.request_vm(&mut sim, M4_LARGE);
        drop(recorder);
        assert!(gone.upgrade().is_none());
        sim.run();
        assert_eq!(cloud.start_counts(), (1, 0));
    }
}

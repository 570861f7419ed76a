//! The admission queue and scheduler of the multi-tenant control plane:
//! strict priority across SLO classes, weighted fair share within a
//! class, per-tenant concurrency caps, and a slots model of the shared
//! executor fleet.
//!
//! The controller is deliberately engine-free: it sees arrivals and
//! completions as `(time, job)` pairs and answers with dispatch
//! decisions, so its invariants (no starvation, fairness bounds, strict
//! priority, caps) are testable against a toy executor without building
//! a deployment. Every decision is appended to an [`AdmissionEvent`]
//! log; [`verify_log`] replays that log and checks the invariants at
//! every step, which is what the property suites and the chaos sweep
//! share.
//!
//! Head-of-line blocking is a deliberate feature of the model: there is
//! no backfill. If the next job in priority-and-fairness order does not
//! fit the free slots, dispatching stops and the blocked time is
//! measured (`hol_us` on the eventual dispatch) — this is the
//! `hol_blocking_seconds` series the obs plane exports.

use std::collections::{BTreeMap, VecDeque};

use splitserve_obs::TenantId;

/// SLO class, in strict-priority order: an `Interactive` job never waits
/// behind a `Standard` or `Batch` job for the same slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SloClass {
    /// Latency-critical, tightest SLOs — dispatched first.
    Interactive,
    /// The default class.
    Standard,
    /// Throughput-oriented, loosest SLOs — dispatched last.
    Batch,
}

impl SloClass {
    /// All classes, highest priority first.
    pub fn all() -> [SloClass; 3] {
        [SloClass::Interactive, SloClass::Standard, SloClass::Batch]
    }

    /// Stable lowercase label (metric label values, JSON artifacts).
    pub fn as_str(&self) -> &'static str {
        match self {
            SloClass::Interactive => "interactive",
            SloClass::Standard => "standard",
            SloClass::Batch => "batch",
        }
    }

    /// Priority rank: lower dispatches first.
    pub fn rank(&self) -> u8 {
        match self {
            SloClass::Interactive => 0,
            SloClass::Standard => 1,
            SloClass::Batch => 2,
        }
    }
}

impl std::fmt::Display for SloClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A tenant's contract with the control plane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantSpec {
    /// The tenant key (ledgers are keyed by the same id).
    pub id: TenantId,
    /// Its SLO class.
    pub class: SloClass,
    /// Fair-share weight within the class (`>= 1`).
    pub weight: u32,
    /// Cap on concurrently dispatched jobs (`>= 1`).
    pub max_concurrent: u32,
}

/// An admission request: one job asking for slots.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdmissionRequest {
    /// Globally unique job id.
    pub job: u64,
    /// The owning tenant (must be registered).
    pub tenant: TenantId,
    /// Slots (cores) the job occupies while running.
    pub cores: u32,
    /// Expected service time in microseconds — the fair-share accounting
    /// unit is `cores × service_estimate_us`.
    pub service_estimate_us: u64,
}

/// A dispatch decision returned by the controller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dispatch {
    /// The dispatched job.
    pub job: u64,
    /// Its tenant.
    pub tenant: TenantId,
    /// Slots it now occupies.
    pub cores: u32,
    /// Queue wait: dispatch time minus arrival time.
    pub waited_us: u64,
    /// Of that wait, how long the job sat at the head of the eligible
    /// order blocked only on free slots (head-of-line blocking).
    pub hol_us: u64,
}

/// What happened at one admission step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmissionEventKind {
    /// The job joined its tenant's queue.
    Arrived,
    /// The job was granted slots.
    Dispatched {
        /// Queue wait in microseconds.
        waited_us: u64,
        /// Head-of-line blocked time in microseconds.
        hol_us: u64,
    },
    /// The job finished and returned its slots.
    Completed,
}

/// One entry of the admission event log, with post-state snapshots so a
/// replay can cross-check the controller's own bookkeeping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdmissionEvent {
    /// Virtual time of the step, microseconds.
    pub at_us: u64,
    /// The job.
    pub job: u64,
    /// Its tenant.
    pub tenant: TenantId,
    /// The tenant's class.
    pub class: SloClass,
    /// The job's width in slots.
    pub cores: u32,
    /// What happened.
    pub kind: AdmissionEventKind,
    /// The tenant's running-job count just after this step.
    pub tenant_running_after: u32,
    /// Free slots just after this step.
    pub slots_free_after: u32,
}

#[derive(Debug)]
struct Queued {
    req: AdmissionRequest,
    arrived_us: u64,
    blocked_since: Option<u64>,
}

#[derive(Debug)]
struct TenantState {
    spec: TenantSpec,
    queue: VecDeque<Queued>,
    running: u32,
    /// Accumulated dispatched service (`Σ cores × estimate`), the
    /// fair-share currency. Compared weight-normalized across tenants.
    service: u128,
}

/// Outcome of one selection step, naming tenants by their dense index.
enum Pick {
    Dispatch(usize),
    Blocked(usize),
    Idle,
}

/// The admission controller: queues per tenant, one shared slots pool.
///
/// Tenant state lives in a dense `Vec` indexed by registration order;
/// the id→index map is consulted only on arrivals. The dispatch loop —
/// the control plane's hottest edge — walks the dense table and never
/// rebuilds keys or clones id strings.
#[derive(Debug)]
pub struct AdmissionController {
    slots_total: u32,
    slots_free: u32,
    tenants: Vec<TenantState>,
    index: BTreeMap<TenantId, u32>,
    /// job → (tenant index, cores held).
    running_jobs: BTreeMap<u64, (u32, u32)>,
    log: Vec<AdmissionEvent>,
    queued: usize,
}

impl AdmissionController {
    /// A controller over `slots_total` shared slots for the given
    /// tenants. Panics on duplicate tenant ids, zero weights or caps.
    pub fn new(slots_total: u32, specs: &[TenantSpec]) -> AdmissionController {
        let mut tenants = Vec::with_capacity(specs.len());
        let mut index = BTreeMap::new();
        for spec in specs {
            assert!(spec.weight >= 1, "tenant {} weight must be >= 1", spec.id);
            assert!(
                spec.max_concurrent >= 1,
                "tenant {} cap must be >= 1",
                spec.id
            );
            let prev = index.insert(spec.id.clone(), tenants.len() as u32);
            assert!(prev.is_none(), "duplicate tenant id {}", spec.id);
            tenants.push(TenantState {
                spec: spec.clone(),
                queue: VecDeque::new(),
                running: 0,
                service: 0,
            });
        }
        AdmissionController {
            slots_total,
            slots_free: slots_total,
            tenants,
            index,
            running_jobs: BTreeMap::new(),
            log: Vec::new(),
            queued: 0,
        }
    }

    /// Currently free slots.
    pub fn slots_free(&self) -> u32 {
        self.slots_free
    }

    /// Whether nothing is queued or running.
    pub fn is_idle(&self) -> bool {
        self.queued == 0 && self.running_jobs.is_empty()
    }

    /// The event log so far.
    pub fn log(&self) -> &[AdmissionEvent] {
        &self.log
    }

    /// Consumes the controller, returning the full event log.
    pub fn into_log(self) -> Vec<AdmissionEvent> {
        self.log
    }

    /// A job arrives at `now_us`. Returns every dispatch the arrival
    /// unlocked (possibly including the new job itself).
    pub fn on_arrival(&mut self, now_us: u64, req: AdmissionRequest) -> Vec<Dispatch> {
        assert!(
            req.cores >= 1 && req.cores <= self.slots_total,
            "job {} wants {} cores against a {}-slot pool",
            req.job,
            req.cores,
            self.slots_total
        );
        let idx = *self
            .index
            .get(&req.tenant)
            .unwrap_or_else(|| panic!("unregistered tenant {}", req.tenant));
        let state = &mut self.tenants[idx as usize];
        let (tenant, class, cores) = (req.tenant.clone(), state.spec.class, req.cores);
        let (job, running) = (req.job, state.running);
        state.queue.push_back(Queued {
            req,
            arrived_us: now_us,
            blocked_since: None,
        });
        self.queued += 1;
        self.push_event(now_us, job, tenant, class, cores, AdmissionEventKind::Arrived, running);
        self.drain(now_us)
    }

    /// A dispatched job completes at `now_us`, returning its slots.
    /// Returns the dispatches the freed slots unlocked.
    pub fn on_complete(&mut self, now_us: u64, job: u64) -> Vec<Dispatch> {
        let (idx, cores) = self
            .running_jobs
            .remove(&job)
            .unwrap_or_else(|| panic!("completion for unknown job {job}"));
        self.slots_free += cores;
        let state = &mut self.tenants[idx as usize];
        state.running -= 1;
        let (tenant, class, running) = (state.spec.id.clone(), state.spec.class, state.running);
        self.push_event(
            now_us,
            job,
            tenant,
            class,
            cores,
            AdmissionEventKind::Completed,
            running,
        );
        self.drain(now_us)
    }

    #[allow(clippy::too_many_arguments)]
    fn push_event(
        &mut self,
        at_us: u64,
        job: u64,
        tenant: TenantId,
        class: SloClass,
        cores: u32,
        kind: AdmissionEventKind,
        tenant_running_after: u32,
    ) {
        self.log.push(AdmissionEvent {
            at_us,
            job,
            tenant,
            class,
            cores,
            kind,
            tenant_running_after,
            slots_free_after: self.slots_free,
        });
    }

    /// Selection policy, one step: walk classes in strict-priority
    /// order; within the first class with an eligible tenant (non-empty
    /// queue, under its cap), walk tenants in weighted-fair order
    /// (minimum `service / weight`, ties by id) and take the first whose
    /// head job fits the free slots. If the class has eligible tenants
    /// but no head fits, the pool is head-of-line blocked: lower classes
    /// must NOT overtake (that would break strict priority), so
    /// dispatching stops there.
    /// Weighted fair order: `a.service/a.weight < b.service/b.weight`,
    /// compared exactly by cross-multiplication, ties by id. A total
    /// order (ids are unique), so a single min-scan picks the same
    /// tenant a full sort would put first.
    fn fair_before(a: &TenantState, b: &TenantState) -> bool {
        (a.service * u128::from(b.spec.weight))
            .cmp(&(b.service * u128::from(a.spec.weight)))
            .then_with(|| a.spec.id.cmp(&b.spec.id))
            .is_lt()
    }

    fn pick(&self) -> Pick {
        // One pass over the dense table, no allocation: per class, track
        // the fair-order minimum of all eligible tenants (the blocked head
        // if nothing fits) and of those whose head job fits the free slots
        // (the dispatch winner).
        let mut first: [Option<usize>; 3] = [None; 3];
        let mut first_fit: [Option<usize>; 3] = [None; 3];
        for (i, t) in self.tenants.iter().enumerate() {
            if t.running >= t.spec.max_concurrent {
                continue;
            }
            let Some(head) = t.queue.front() else {
                continue;
            };
            let class = usize::from(t.spec.class.rank());
            if first[class].is_none_or(|b| Self::fair_before(t, &self.tenants[b])) {
                first[class] = Some(i);
            }
            if head.req.cores <= self.slots_free
                && first_fit[class].is_none_or(|b| Self::fair_before(t, &self.tenants[b]))
            {
                first_fit[class] = Some(i);
            }
        }
        // Strict priority: the first class with an eligible tenant decides.
        for class in 0..3 {
            if let Some(i) = first_fit[class] {
                return Pick::Dispatch(i);
            }
            if let Some(i) = first[class] {
                return Pick::Blocked(i);
            }
        }
        Pick::Idle
    }

    fn drain(&mut self, now_us: u64) -> Vec<Dispatch> {
        let mut out = Vec::new();
        // Nothing queued: no tenant is eligible, whatever the slots.
        while self.queued > 0 {
            match self.pick() {
                Pick::Dispatch(idx) => {
                    let state = &mut self.tenants[idx];
                    let q = state.queue.pop_front().expect("picked tenant has a head");
                    let waited_us = now_us - q.arrived_us;
                    let hol_us = q.blocked_since.map_or(0, |since| now_us - since);
                    state.running += 1;
                    state.service +=
                        u128::from(q.req.cores) * u128::from(q.req.service_estimate_us);
                    let running = state.running;
                    let (tenant, class) = (state.spec.id.clone(), state.spec.class);
                    self.slots_free -= q.req.cores;
                    self.queued -= 1;
                    self.running_jobs
                        .insert(q.req.job, (idx as u32, q.req.cores));
                    self.push_event(
                        now_us,
                        q.req.job,
                        tenant.clone(),
                        class,
                        q.req.cores,
                        AdmissionEventKind::Dispatched { waited_us, hol_us },
                        running,
                    );
                    out.push(Dispatch {
                        job: q.req.job,
                        tenant,
                        cores: q.req.cores,
                        waited_us,
                        hol_us,
                    });
                }
                Pick::Blocked(idx) => {
                    let head = self.tenants[idx]
                        .queue
                        .front_mut()
                        .expect("blocked tenant has a head");
                    head.blocked_since.get_or_insert(now_us);
                    break;
                }
                Pick::Idle => break,
            }
        }
        out
    }
}

/// Replays an admission event log against the declared tenant set and
/// slots pool, re-deriving queues/running/slots at every step and
/// checking the control-plane invariants:
///
/// 1. timestamps are monotone non-decreasing;
/// 2. every job's lifecycle is `Arrived → Dispatched → Completed`, each
///    at most once, dispatch from the head of its tenant's FIFO queue;
/// 3. caps: a dispatch never lifts a tenant above `max_concurrent`;
/// 4. slots: free slots never go negative and every snapshot matches the
///    replayed state;
/// 5. strict priority: when a class-`C` job dispatches, every
///    strictly-higher-class tenant with a non-empty queue is at its cap
///    (a higher class never waits behind a lower one for the same slot);
/// 6. `waited_us` equals dispatch time minus arrival time.
///
/// Returns a description of the first violation, if any.
pub fn verify_log(
    slots_total: u32,
    specs: &[TenantSpec],
    events: &[AdmissionEvent],
) -> Result<(), String> {
    // Tenants are resolved to their dense index once per event; the
    // replayed per-tenant state lives in plain tables behind it.
    let index_of: BTreeMap<&TenantId, usize> =
        specs.iter().enumerate().map(|(t, s)| (&s.id, t)).collect();
    // Tenant indices in id order — the order violations are reported in.
    let by_id: Vec<usize> = index_of.values().copied().collect();
    let mut queues: Vec<VecDeque<u64>> = vec![VecDeque::new(); specs.len()];
    let mut running: Vec<u32> = vec![0; specs.len()];
    enum Phase {
        Queued,
        Running,
        Completed,
    }
    // job → (arrival time, cores at arrival, lifecycle phase)
    let mut jobs: BTreeMap<u64, (u64, u32, Phase)> = BTreeMap::new();
    let mut slots_free = slots_total;
    let mut prev_us = 0u64;

    for (i, ev) in events.iter().enumerate() {
        let fail = |msg: String| Err(format!("event {i} ({:?} job {}): {msg}", ev.kind, ev.job));
        if ev.at_us < prev_us {
            return fail(format!("time went backwards: {} < {prev_us}", ev.at_us));
        }
        prev_us = ev.at_us;
        let Some(&t) = index_of.get(&ev.tenant) else {
            return fail(format!("unknown tenant {}", ev.tenant));
        };
        let spec = &specs[t];
        if spec.class != ev.class {
            return fail(format!("class mismatch: log {}, spec {}", ev.class, spec.class));
        }
        match &ev.kind {
            AdmissionEventKind::Arrived => {
                if jobs.insert(ev.job, (ev.at_us, ev.cores, Phase::Queued)).is_some() {
                    return fail("job arrived twice".into());
                }
                queues[t].push_back(ev.job);
            }
            AdmissionEventKind::Dispatched { waited_us, hol_us } => {
                let q = &mut queues[t];
                match q.front() {
                    Some(&head) if head == ev.job => {
                        q.pop_front();
                    }
                    other => {
                        return fail(format!(
                            "dispatch not from queue head (head {other:?})"
                        ));
                    }
                }
                let (arr, cores) = match jobs.get_mut(&ev.job) {
                    Some((arr, cores, phase @ Phase::Queued)) => {
                        *phase = Phase::Running;
                        (*arr, *cores)
                    }
                    Some(_) => return fail("job dispatched twice".into()),
                    None => return fail("dispatched before arrival".into()),
                };
                if arr + waited_us != ev.at_us {
                    return fail(format!(
                        "waited_us {waited_us} inconsistent with arrival {arr}"
                    ));
                }
                if hol_us > waited_us {
                    return fail(format!("hol_us {hol_us} exceeds waited_us {waited_us}"));
                }
                if cores != ev.cores {
                    return fail("cores changed between arrival and dispatch".into());
                }
                let r = &mut running[t];
                *r += 1;
                if *r > spec.max_concurrent {
                    return fail(format!(
                        "cap violated: {} running > max_concurrent {}",
                        r, spec.max_concurrent
                    ));
                }
                if ev.tenant_running_after != *r {
                    return fail(format!(
                        "running snapshot {} != replayed {}",
                        ev.tenant_running_after, r
                    ));
                }
                if ev.cores > slots_free {
                    return fail(format!(
                        "dispatch of {} cores with only {slots_free} free",
                        ev.cores
                    ));
                }
                slots_free -= ev.cores;
                // Strict priority: every strictly-higher-class tenant
                // with queued work must be at its cap right now.
                for &o in &by_id {
                    let other = &specs[o];
                    if !queues[o].is_empty()
                        && other.class.rank() < ev.class.rank()
                        && running[o] < other.max_concurrent
                    {
                        return fail(format!(
                            "priority inversion: {} ({}) queued and under cap while {} dispatched",
                            other.id, other.class, ev.class
                        ));
                    }
                }
            }
            AdmissionEventKind::Completed => {
                match jobs.get_mut(&ev.job) {
                    Some((_, _, phase @ Phase::Running)) => *phase = Phase::Completed,
                    Some((_, _, Phase::Completed)) => return fail("job completed twice".into()),
                    Some((_, _, Phase::Queued)) | None => {
                        return fail("completed before dispatch".into())
                    }
                }
                let r = &mut running[t];
                if *r == 0 {
                    return fail("completion with no running jobs".into());
                }
                *r -= 1;
                if ev.tenant_running_after != *r {
                    return fail(format!(
                        "running snapshot {} != replayed {}",
                        ev.tenant_running_after, r
                    ));
                }
                slots_free += ev.cores;
                if slots_free > slots_total {
                    return fail("more slots freed than the pool holds".into());
                }
            }
        }
        if ev.slots_free_after != slots_free {
            return Err(format!(
                "event {i}: slots snapshot {} != replayed {slots_free}",
                ev.slots_free_after
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    impl AdmissionController {
        /// Jobs queued across all tenants.
        fn queued_jobs(&self) -> usize {
            self.queued
        }
    }

    fn spec(id: &str, class: SloClass, weight: u32, cap: u32) -> TenantSpec {
        TenantSpec {
            id: TenantId::new(id),
            class,
            weight,
            max_concurrent: cap,
        }
    }

    fn req(job: u64, tenant: &str, cores: u32) -> AdmissionRequest {
        AdmissionRequest {
            job,
            tenant: TenantId::new(tenant),
            cores,
            service_estimate_us: 1_000_000,
        }
    }

    #[test]
    fn immediate_dispatch_when_slots_free() {
        let specs = [spec("a", SloClass::Standard, 1, 4)];
        let mut c = AdmissionController::new(8, &specs);
        let d = c.on_arrival(10, req(0, "a", 4));
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].waited_us, 0);
        assert_eq!(c.slots_free(), 4);
        let d = c.on_complete(50, 0);
        assert!(d.is_empty());
        assert!(c.is_idle());
        verify_log(8, &specs, c.log()).unwrap();
    }

    #[test]
    fn strict_priority_dispatches_interactive_first() {
        let specs = [
            spec("batch", SloClass::Batch, 1, 8),
            spec("int", SloClass::Interactive, 1, 8),
        ];
        let mut c = AdmissionController::new(2, &specs);
        assert_eq!(c.on_arrival(0, req(0, "batch", 2)).len(), 1);
        // Pool full; both queue up.
        assert!(c.on_arrival(1, req(1, "batch", 2)).is_empty());
        assert!(c.on_arrival(2, req(2, "int", 2)).is_empty());
        // On release, the interactive job overtakes the earlier batch one.
        let d = c.on_complete(10, 0);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].job, 2);
        let d = c.on_complete(20, 2);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].job, 1);
        c.on_complete(30, 1);
        verify_log(2, &specs, c.log()).unwrap();
    }

    #[test]
    fn caps_hold_even_with_free_slots() {
        let specs = [spec("a", SloClass::Standard, 1, 2)];
        let mut c = AdmissionController::new(100, &specs);
        let mut dispatched = 0;
        for j in 0..5 {
            dispatched += c.on_arrival(j, req(j, "a", 1)).len();
        }
        assert_eq!(dispatched, 2, "cap of 2 must bind");
        assert_eq!(c.queued_jobs(), 3);
        let d = c.on_complete(100, 0);
        assert_eq!(d.len(), 1);
        verify_log(100, &specs, c.log()).unwrap();
    }

    #[test]
    fn hol_blocking_is_attributed() {
        let specs = [spec("a", SloClass::Standard, 1, 8)];
        let mut c = AdmissionController::new(4, &specs);
        assert_eq!(c.on_arrival(0, req(0, "a", 3)).len(), 1);
        // 4-core job can't fit next to the 3-core one: HOL-blocked.
        assert!(c.on_arrival(5, req(1, "a", 4)).is_empty());
        let d = c.on_complete(25, 0);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].waited_us, 20);
        assert_eq!(d[0].hol_us, 20, "blocked from arrival on");
        c.on_complete(30, 1);
        verify_log(4, &specs, c.log()).unwrap();
    }

    #[test]
    fn fair_share_alternates_equal_weights() {
        let specs = [
            spec("a", SloClass::Standard, 1, 9),
            spec("b", SloClass::Standard, 1, 9),
        ];
        let mut c = AdmissionController::new(1, &specs);
        for j in 0..4 {
            c.on_arrival(0, req(j, if j % 2 == 0 { "a" } else { "b" }, 1));
        }
        // One slot: dispatches must alternate a, b, a, b by service.
        let order: Vec<String> = {
            let mut out = Vec::new();
            let mut next = vec![0u64];
            let mut t = 1;
            while let Some(j) = next.pop() {
                for d in c.on_complete(t, j) {
                    out.push(d.tenant.to_string());
                    next.push(d.job);
                }
                t += 1;
            }
            out
        };
        assert_eq!(order, vec!["b", "a", "b"]);
        verify_log(1, &specs, c.log()).unwrap();
    }

    #[test]
    fn verify_log_catches_forged_snapshots() {
        let specs = [spec("a", SloClass::Standard, 1, 4)];
        let mut c = AdmissionController::new(8, &specs);
        c.on_arrival(0, req(0, "a", 2));
        let mut log = c.log().to_vec();
        log[1].slots_free_after = 99;
        assert!(verify_log(8, &specs, &log).is_err());
    }
}

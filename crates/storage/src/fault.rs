//! Fault-injection middleware over any [`BlockStore`].
//!
//! [`FaultStore`] is the storage arm of the chaos plane (the `splitserve-chaos`
//! crate): a decorator that forwards every call to the wrapped store, but can
//!
//! - fail the Nth `get` / Nth `put` with [`StoreError::Injected`] — the
//!   deterministic stand-in for a flaky fetch or a rejected shuffle write;
//! - inflate operation latency inside configured virtual-time windows —
//!   an HDFS node under pressure, an S3 throttling episode. A delayed put
//!   waits here, not in the wrapped store; if its shuffle is forgotten
//!   meanwhile, it still reaches the store, is counted and calls back, but
//!   its block is not kept.
//!
//! All decisions are made from the shared [`StoreFaults`] schedule, so a
//! run is bit-reproducible: the Nth operation of a seeded simulation is
//! always the same operation. Faults injected are counted on the schedule
//! (and, when a registry is attached, as `faults_injected_total{kind}`).
//!
//! [`FaultStore::wrap`] is the identity when the schedule is empty: an
//! unarmed chaos run adds no virtual-dispatch hop to the data path. A
//! request passes through, or is held, in the form it came in (a boxed
//! callback, or `put_to` / `get_to`'s client and token).

use std::cell::RefCell;
use std::rc::Rc;

use splitserve_des::{EventHandler, Sim, SimDuration, SimTime};
use splitserve_obs::{CounterHandle, MetricsRegistry};
use splitserve_rt::{Bytes, Slab};

use crate::api::{
    BlockId, BlockStore, ClientLoc, GetCallback, PutCallback, StoreClient, StoreError, StoreStats,
};
use crate::store::Reply;
use crate::SharedStore;

/// Index of a `get`'s and of a `put`'s entry in the per-kind arrays.
const GET: usize = 0;
const PUT: usize = 1;

#[derive(Debug, Default)]
struct FaultState {
    /// 1-based ordinals of the `get`s and `put`s to fail.
    fail: [Vec<u64>; 2],
    /// `[from, until)` windows adding latency to every operation started
    /// inside them.
    latency: Vec<(SimTime, SimTime, SimDuration)>,
    /// `get`s and `put`s seen, and failed.
    seen: [u64; 2],
    failed: [u64; 2],
    ops_delayed: u64,
    /// `faults_injected_total{kind}` for fetch-fail, write-fail, latency.
    injected: [CounterHandle; 3],
}

/// A shared, deterministic schedule of storage faults.
///
/// Cloneable handle; the injector arms it, the wrapping [`FaultStore`]
/// consumes it, and tests read the injection counters back.
#[derive(Debug, Clone, Default)]
pub struct StoreFaults {
    inner: Rc<RefCell<FaultState>>,
}

impl StoreFaults {
    /// An empty schedule (nothing armed).
    pub fn new() -> Self {
        StoreFaults::default()
    }

    /// Attaches a metrics registry so injections are also counted as
    /// `faults_injected_total{kind}`.
    pub fn with_metrics(self, metrics: MetricsRegistry) -> Self {
        self.inner.borrow_mut().injected = ["fetch-fail", "write-fail", "latency"]
            .map(|kind| metrics.counter_handle("faults_injected_total", &[("kind", kind)]));
        self
    }

    /// Fails the `n`th `get` (1-based) with [`StoreError::Injected`].
    pub fn fail_nth_get(&self, n: u64) {
        assert!(n >= 1, "ordinals are 1-based");
        self.inner.borrow_mut().fail[GET].push(n);
    }

    /// Fails the `n`th `put` (1-based) with [`StoreError::Injected`].
    pub fn fail_nth_put(&self, n: u64) {
        assert!(n >= 1, "ordinals are 1-based");
        self.inner.borrow_mut().fail[PUT].push(n);
    }

    /// Adds `extra` latency to every operation started in `[from, until)`.
    pub fn add_latency_window(&self, from: SimTime, until: SimTime, extra: SimDuration) {
        self.inner.borrow_mut().latency.push((from, until, extra));
    }

    /// Whether any fault is scheduled. An unarmed schedule makes
    /// [`FaultStore::wrap`] the identity.
    pub fn is_armed(&self) -> bool {
        let s = self.inner.borrow();
        s.fail.iter().any(|f| !f.is_empty()) || !s.latency.is_empty()
    }

    /// Injected `get` failures so far.
    pub fn gets_failed(&self) -> u64 {
        self.inner.borrow().failed[GET]
    }

    /// Injected `put` failures so far.
    pub fn puts_failed(&self) -> u64 {
        self.inner.borrow().failed[PUT]
    }

    /// Operations delayed by a latency window so far.
    pub fn ops_delayed(&self) -> u64 {
        self.inner.borrow().ops_delayed
    }

    /// Decides the fate of the next `get` or `put` (`op`): `Err` with its
    /// ordinal if it must fail, otherwise the extra latency to apply
    /// (possibly zero).
    fn next(&self, op: usize, now: SimTime) -> Result<SimDuration, u64> {
        let mut s = self.inner.borrow_mut();
        s.seen[op] += 1;
        let n = s.seen[op];
        if s.fail[op].contains(&n) {
            s.failed[op] += 1;
            s.injected[op].inc();
            return Err(n);
        }
        Ok(Self::extra_latency(&mut s, now))
    }

    fn extra_latency(s: &mut FaultState, now: SimTime) -> SimDuration {
        let extra = s
            .latency
            .iter()
            .filter(|(from, until, _)| *from <= now && now < *until)
            .map(|(_, _, d)| *d)
            .fold(SimDuration::ZERO, |a, b| a + b);
        if extra > SimDuration::ZERO {
            s.ops_delayed += 1;
            s.injected[2].inc();
        }
        extra
    }
}

/// A request, with whom it answers: a put or get to pass on, or one
/// refused as the `n`th of its kind.
enum Req {
    /// A put, and its block's shuffle once that is forgotten while the put
    /// is held: it still reaches the store, but lands unkept.
    Put(ClientLoc, BlockId, Bytes, Reply<PutCallback>, Option<u64>),
    Get(ClientLoc, BlockId, Reply<GetCallback>),
    RefusedPut(Reply<PutCallback>, u64),
    RefusedGet(Reply<GetCallback>, u64),
}

/// What the decorator and its events share.
struct Core {
    inner: SharedStore,
    /// Held requests, by the slot their event names.
    held: RefCell<Slab<Req>>,
}

impl Core {
    /// Passes a put or get on to the wrapped store, in the form it came in
    /// (then forgets a shuffle forgotten while the put was held), or fails
    /// a refused one.
    fn answer(&self, sim: &mut Sim, req: Req) {
        let inner = &self.inner;
        let injected = |op, ordinal| StoreError::Injected { op, ordinal };
        match req {
            Req::Put(client, block, data, reply, forgotten) => {
                match reply {
                    Reply::Call(cb) => inner.put(sim, client, block, data, cb),
                    Reply::To(to, token) => inner.put_to(sim, client, block, data, to, token),
                }
                if let Some(shuffle) = forgotten {
                    inner.forget_shuffle(shuffle);
                }
            }
            Req::Get(client, block, Reply::Call(cb)) => inner.get(sim, client, block, cb),
            Req::Get(client, block, Reply::To(to, t)) => inner.get_to(sim, client, block, to, t),
            Req::RefusedPut(reply, n) => reply.answer(sim, Err(injected("put", n))),
            Req::RefusedGet(reply, n) => reply.answer(sim, Err(injected("get", n))),
        }
    }
}

impl EventHandler for Core {
    fn on_event(self: Rc<Self>, sim: &mut Sim, token: u64) {
        let held = self.held.borrow_mut().take(token as u32);
        if let Some(req) = held {
            self.answer(sim, req);
        }
    }
}

/// A [`BlockStore`] decorator that injects the faults scheduled on a
/// [`StoreFaults`] handle.
pub struct FaultStore {
    core: Rc<Core>,
    faults: StoreFaults,
    kind: &'static str,
}

impl FaultStore {
    /// Wraps `inner` so the faults scheduled on `faults` strike its
    /// traffic. Returns `inner` unchanged when nothing is armed.
    pub fn wrap(inner: SharedStore, faults: StoreFaults) -> SharedStore {
        if !faults.is_armed() {
            return inner;
        }
        let kind = inner.kind();
        let held = RefCell::default();
        Rc::new(FaultStore {
            core: Rc::new(Core { inner, held }),
            faults,
            kind,
        })
    }

    /// Refuses (asynchronously, like a store round-trip would), holds
    /// back or passes on a put or get, as the schedule says.
    fn request(&self, sim: &mut Sim, req: Req) {
        let op = if let Req::Put(..) = req { PUT } else { GET };
        let (delay, req) = match (self.faults.next(op, sim.now()), req) {
            (Err(n), Req::Put(.., reply, _)) => (SimDuration::ZERO, Req::RefusedPut(reply, n)),
            (Err(n), Req::Get(.., reply)) => (SimDuration::ZERO, Req::RefusedGet(reply, n)),
            (Ok(extra), req) if extra > SimDuration::ZERO => (extra, req),
            (_, req) => return self.core.answer(sim, req),
        };
        let slot = self.core.held.borrow_mut().insert(req);
        sim.notify_in(delay, self.core.clone(), u64::from(slot));
    }
}

impl BlockStore for FaultStore {
    fn kind(&self) -> &'static str {
        self.kind
    }

    fn survives_executor_loss(&self) -> bool {
        self.core.inner.survives_executor_loss()
    }

    fn put(&self, sim: &mut Sim, client: ClientLoc, block: BlockId, data: Bytes, cb: PutCallback) {
        self.request(sim, Req::Put(client, block, data, Reply::Call(cb), None));
    }

    fn get(&self, sim: &mut Sim, client: ClientLoc, block: BlockId, cb: GetCallback) {
        self.request(sim, Req::Get(client, block, Reply::Call(cb)));
    }

    fn put_to(
        &self,
        sim: &mut Sim,
        client: ClientLoc,
        block: BlockId,
        data: Bytes,
        to: Rc<dyn StoreClient>,
        token: u64,
    ) {
        let reply = Reply::To(to, token);
        self.request(sim, Req::Put(client, block, data, reply, None));
    }

    fn get_to(
        &self,
        sim: &mut Sim,
        client: ClientLoc,
        block: BlockId,
        to: Rc<dyn StoreClient>,
        token: u64,
    ) {
        self.request(sim, Req::Get(client, block, Reply::To(to, token)));
    }

    fn on_executor_lost(&self, sim: &mut Sim, executor: &str) {
        self.core.inner.on_executor_lost(sim, executor)
    }

    fn register_executor(&self, executor: &str, loc: ClientLoc) {
        self.core.inner.register_executor(executor, loc)
    }

    fn forget_shuffle(&self, shuffle: u64) {
        for req in self.core.held.borrow_mut().values_mut() {
            if let Req::Put(_, block, _, _, forgotten) = req {
                if block.in_shuffle(shuffle) {
                    *forgotten = Some(shuffle);
                }
            }
        }
        self.core.inner.forget_shuffle(shuffle)
    }

    fn contains(&self, block: &BlockId) -> bool {
        self.core.inner.contains(block)
    }

    fn stats(&self) -> StoreStats {
        self.core.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LocalDiskStore;
    use splitserve_des::Fabric;

    impl StoreFaults {
        /// Total faults injected so far (failures + delays).
        fn total_injected(&self) -> u64 {
            let s = self.inner.borrow();
            s.failed[GET] + s.failed[PUT] + s.ops_delayed
        }
    }

    fn rig(faults: StoreFaults) -> (Sim, SharedStore, ClientLoc) {
        let fabric = Fabric::new();
        let store: SharedStore = Rc::new(LocalDiskStore::new(fabric.clone()));
        let wrapped = FaultStore::wrap(store, faults);
        let nic = fabric.add_link(1e9, "nic");
        let disk = fabric.add_link(1e9, "disk");
        wrapped.register_executor("e-0", ClientLoc::vm(nic, disk));
        (Sim::new(1), wrapped, ClientLoc::vm(nic, disk))
    }

    #[test]
    fn wrap_is_identity_when_unarmed() {
        let fabric = Fabric::new();
        let store: SharedStore = Rc::new(LocalDiskStore::new(fabric));
        let wrapped = FaultStore::wrap(Rc::clone(&store), StoreFaults::new());
        assert!(Rc::ptr_eq(&store, &wrapped), "unarmed wrap adds no layer");
    }

    #[test]
    fn nth_put_and_get_fail_with_injected_error() {
        let faults = StoreFaults::new();
        faults.fail_nth_put(2);
        faults.fail_nth_get(1);
        let (mut sim, store, client) = rig(faults.clone());
        let a = BlockId::named("e-0", "a");
        let b = BlockId::named("e-0", "b");
        store.put(
            &mut sim,
            client,
            a,
            Bytes::from(vec![1u8; 64]),
            Box::new(|_, r| r.expect("put #1 passes through")),
        );
        sim.run();
        store.put(
            &mut sim,
            client,
            b,
            Bytes::from(vec![2u8; 64]),
            Box::new(|_, r| {
                assert_eq!(
                    r.expect_err("put #2 injected"),
                    StoreError::Injected { op: "put", ordinal: 2 }
                );
            }),
        );
        sim.run();
        store.get(
            &mut sim,
            client,
            a,
            Box::new(|_, r| {
                assert_eq!(
                    r.expect_err("get #1 injected"),
                    StoreError::Injected { op: "get", ordinal: 1 }
                );
            }),
        );
        sim.run();
        assert_eq!(faults.puts_failed(), 1);
        assert_eq!(faults.gets_failed(), 1);
        assert_eq!(faults.total_injected(), 2);
    }

    #[test]
    fn latency_window_delays_ops_inside_it_only() {
        let faults = StoreFaults::new();
        faults.add_latency_window(
            SimTime::ZERO,
            SimTime::from_secs(10),
            SimDuration::from_secs(5),
        );
        let (mut sim, store, client) = rig(faults.clone());
        let blk = BlockId::named("e-0", "slow");
        let done_at = Rc::new(RefCell::new(SimTime::ZERO));
        let d = Rc::clone(&done_at);
        store.put(
            &mut sim,
            client,
            blk,
            Bytes::from(vec![0u8; 32]),
            Box::new(move |sim, r| {
                r.expect("delayed, not failed");
                *d.borrow_mut() = sim.now();
            }),
        );
        sim.run();
        assert!(
            *done_at.borrow() >= SimTime::from_secs(5),
            "write inside the window carries the extra latency"
        );
        assert_eq!(faults.ops_delayed(), 1);
        // Past the window: undisturbed.
        let mut sim2 = Sim::new(2);
        sim2.schedule_at(SimTime::from_secs(11), {
            let store = Rc::clone(&store);
            move |sim| {
                store.get(
                    sim,
                    client,
                    blk,
                    Box::new(|_, r| {
                        r.expect("outside the window");
                    }),
                );
            }
        });
        sim2.run();
        assert_eq!(faults.ops_delayed(), 1, "no extra delay outside the window");
    }

    /// A put still waiting out a latency window when its shuffle is
    /// forgotten reaches the store after the window, is counted and calls
    /// back, but leaves no block behind.
    #[test]
    fn a_delayed_put_whose_shuffle_is_forgotten_lands_unkept() {
        let faults = StoreFaults::new();
        faults.add_latency_window(
            SimTime::ZERO,
            SimTime::from_secs(1),
            SimDuration::from_secs(5),
        );
        let fabric = Fabric::new();
        let bare = Rc::new(LocalDiskStore::new(fabric.clone()));
        let store = FaultStore::wrap(bare.clone(), faults.clone());
        let client = ClientLoc::vm(fabric.add_link(1e9, "nic"), fabric.add_link(1e9, "disk"));
        store.register_executor("e-0", client);
        let mut sim = Sim::new(1);
        let block = BlockId::shuffle("e-0", 3, 0, 0);
        let heard = Rc::new(RefCell::new(None));
        let h = Rc::clone(&heard);
        store.put(
            &mut sim,
            client,
            block,
            Bytes::from(vec![0u8; 32]),
            Box::new(move |sim, r| *h.borrow_mut() = Some((sim.now(), r))),
        );
        store.forget_shuffle(3);
        sim.run();
        let (at, result) = heard.borrow_mut().take().expect("the caller hears");
        assert_eq!(result, Ok(()));
        assert!(at >= SimTime::from_secs(5), "the put waited out the window");
        assert_eq!(faults.ops_delayed(), 1);
        assert!(!store.contains(&block));
        assert_eq!((bare.used_bytes(), bare.block_count()), (0, 0));
        assert_eq!((store.stats().puts, store.stats().bytes_in), (1, 32));
    }

    /// Records each answer a token request gets: `(token, second, ok)`.
    #[derive(Default)]
    struct Heard(RefCell<Vec<(u64, f64, bool)>>);

    impl crate::StoreClient for Heard {
        fn put_landed(self: Rc<Self>, sim: &mut Sim, token: u64, r: Result<(), StoreError>) {
            self.0.borrow_mut().push((token, sim.now().as_secs_f64(), r.is_ok()));
        }

        fn get_landed(self: Rc<Self>, sim: &mut Sim, token: u64, r: Result<Bytes, StoreError>) {
            self.0.borrow_mut().push((token, sim.now().as_secs_f64(), r.is_ok()));
        }
    }

    /// `put_to` / `get_to` take the decorator's own path: a refusal and a
    /// delay answer the client under its token, at the instant the boxed
    /// form would call back.
    #[test]
    fn token_requests_are_refused_and_delayed_like_boxed_ones() {
        let faults = StoreFaults::new();
        faults.fail_nth_put(2);
        faults.add_latency_window(SimTime::ZERO, SimTime::from_secs(1), SimDuration::from_secs(5));
        let (mut sim, store, client) = rig(faults.clone());
        let heard = Rc::new(Heard::default());
        let block = |name| BlockId::named("e-0", name);
        let data = Bytes::from(vec![1u8; 8]);
        store.put_to(&mut sim, client, block("a"), data.clone(), heard.clone(), 1);
        store.put_to(&mut sim, client, block("b"), data, heard.clone(), 2);
        sim.run();
        store.get_to(&mut sim, client, block("a"), heard.clone(), 3);
        sim.run();
        // Put #1 waits out the window; put #2 is refused at once; the get,
        // issued after the window, passes straight through.
        let answers = heard.0.borrow().clone();
        assert_eq!(answers[0], (2, 0.0, false));
        assert_eq!((answers[1].0, answers[1].2), (1, true));
        assert!(answers[1].1 >= 5.0, "the held put waited out the window");
        assert_eq!((answers[2].0, answers[2].2), (3, true));
        assert_eq!((faults.puts_failed(), faults.ops_delayed()), (1, 1));
    }

    #[test]
    fn metrics_count_injections_by_kind() {
        let metrics = MetricsRegistry::enabled();
        let faults = StoreFaults::new().with_metrics(metrics.clone());
        faults.fail_nth_get(1);
        faults.add_latency_window(
            SimTime::ZERO,
            SimTime::from_secs(1),
            SimDuration::from_millis(50),
        );
        let (mut sim, store, client) = rig(faults);
        store.put(
            &mut sim,
            client,
            BlockId::named("e-0", "x"),
            Bytes::from(vec![0u8; 16]),
            Box::new(|_, r| r.expect("delayed put")),
        );
        sim.run();
        store.get(
            &mut sim,
            client,
            BlockId::named("e-0", "x"),
            Box::new(|_, r| assert!(r.is_err())),
        );
        sim.run();
        assert_eq!(
            metrics.counter_value("faults_injected_total", &[("kind", "latency")]),
            1
        );
        assert_eq!(
            metrics.counter_value("faults_injected_total", &[("kind", "fetch-fail")]),
            1
        );
    }
}

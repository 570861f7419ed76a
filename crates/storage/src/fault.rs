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
//! unarmed chaos run adds no virtual-dispatch hop to the data path.

use std::cell::RefCell;
use std::rc::Rc;

use splitserve_des::{Sim, SimDuration, SimTime};
use splitserve_obs::{CounterHandle, MetricsRegistry};
use splitserve_rt::{Bytes, Slab};

use crate::api::{BlockId, BlockStore, ClientLoc, GetCallback, PutCallback, StoreError, StoreStats};
use crate::SharedStore;

#[derive(Debug, Default)]
struct FaultState {
    /// 1-based ordinals of `get`s to fail.
    fail_gets: Vec<u64>,
    /// 1-based ordinals of `put`s to fail.
    fail_puts: Vec<u64>,
    /// `[from, until)` windows adding latency to every operation started
    /// inside them.
    latency: Vec<(SimTime, SimTime, SimDuration)>,
    gets_seen: u64,
    puts_seen: u64,
    gets_failed: u64,
    puts_failed: u64,
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
        self.inner.borrow_mut().fail_gets.push(n);
    }

    /// Fails the `n`th `put` (1-based) with [`StoreError::Injected`].
    pub fn fail_nth_put(&self, n: u64) {
        assert!(n >= 1, "ordinals are 1-based");
        self.inner.borrow_mut().fail_puts.push(n);
    }

    /// Adds `extra` latency to every operation started in `[from, until)`.
    pub fn add_latency_window(&self, from: SimTime, until: SimTime, extra: SimDuration) {
        self.inner.borrow_mut().latency.push((from, until, extra));
    }

    /// Whether any fault is scheduled. An unarmed schedule makes
    /// [`FaultStore::wrap`] the identity.
    pub fn is_armed(&self) -> bool {
        let s = self.inner.borrow();
        !(s.fail_gets.is_empty() && s.fail_puts.is_empty() && s.latency.is_empty())
    }

    /// Injected `get` failures so far.
    pub fn gets_failed(&self) -> u64 {
        self.inner.borrow().gets_failed
    }

    /// Injected `put` failures so far.
    pub fn puts_failed(&self) -> u64 {
        self.inner.borrow().puts_failed
    }

    /// Operations delayed by a latency window so far.
    pub fn ops_delayed(&self) -> u64 {
        self.inner.borrow().ops_delayed
    }

    /// Decides the fate of the next `get`: `Err` with its ordinal if it
    /// must fail, otherwise the extra latency to apply (possibly zero).
    fn next_get(&self, now: SimTime) -> Result<SimDuration, u64> {
        let mut s = self.inner.borrow_mut();
        s.gets_seen += 1;
        let n = s.gets_seen;
        if s.fail_gets.contains(&n) {
            s.gets_failed += 1;
            s.injected[0].inc();
            return Err(n);
        }
        Ok(Self::extra_latency(&mut s, now))
    }

    fn next_put(&self, now: SimTime) -> Result<SimDuration, u64> {
        let mut s = self.inner.borrow_mut();
        s.puts_seen += 1;
        let n = s.puts_seen;
        if s.fail_puts.contains(&n) {
            s.puts_failed += 1;
            s.injected[1].inc();
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

/// A put a latency window holds back until its delay is over.
struct Delayed {
    client: ClientLoc,
    block: BlockId,
    data: Bytes,
    cb: PutCallback,
    /// The block's shuffle, once it is forgotten during the delay: the put
    /// still reaches the store, but lands unkept.
    forgotten: Option<u64>,
}

/// A [`BlockStore`] decorator that injects the faults scheduled on a
/// [`StoreFaults`] handle.
pub struct FaultStore {
    inner: SharedStore,
    faults: StoreFaults,
    kind: &'static str,
    /// Puts waiting out an injected delay, by the slot their event names.
    delayed: Rc<RefCell<Slab<Delayed>>>,
}

impl FaultStore {
    /// Wraps `inner` so the faults scheduled on `faults` strike its
    /// traffic. Returns `inner` unchanged when nothing is armed.
    pub fn wrap(inner: SharedStore, faults: StoreFaults) -> SharedStore {
        if !faults.is_armed() {
            return inner;
        }
        let kind = inner.kind();
        Rc::new(FaultStore {
            inner,
            faults,
            kind,
            delayed: Rc::default(),
        })
    }
}

impl BlockStore for FaultStore {
    fn kind(&self) -> &'static str {
        self.kind
    }

    fn survives_executor_loss(&self) -> bool {
        self.inner.survives_executor_loss()
    }

    fn put(&self, sim: &mut Sim, client: ClientLoc, block: BlockId, data: Bytes, cb: PutCallback) {
        match self.faults.next_put(sim.now()) {
            Err(ordinal) => {
                // Fail asynchronously, like a store round-trip would.
                sim.schedule_now(move |sim| {
                    cb(sim, Err(StoreError::Injected { op: "put", ordinal }))
                });
            }
            Ok(extra) if extra > SimDuration::ZERO => {
                let put = Delayed {
                    client,
                    block,
                    data,
                    cb,
                    forgotten: None,
                };
                let slot = self.delayed.borrow_mut().insert(put);
                let (inner, delayed) = (Rc::clone(&self.inner), Rc::clone(&self.delayed));
                sim.schedule_in(extra, move |sim| {
                    let put = delayed.borrow_mut().take(slot);
                    let put = put.expect("a delayed put waits out its delay once");
                    inner.put(sim, put.client, put.block, put.data, put.cb);
                    if let Some(shuffle) = put.forgotten {
                        inner.forget_shuffle(shuffle);
                    }
                });
            }
            Ok(_) => self.inner.put(sim, client, block, data, cb),
        }
    }

    fn get(&self, sim: &mut Sim, client: ClientLoc, block: BlockId, cb: GetCallback) {
        match self.faults.next_get(sim.now()) {
            Err(ordinal) => {
                sim.schedule_now(move |sim| {
                    cb(sim, Err(StoreError::Injected { op: "get", ordinal }))
                });
            }
            Ok(extra) if extra > SimDuration::ZERO => {
                let inner = Rc::clone(&self.inner);
                sim.schedule_in(extra, move |sim| inner.get(sim, client, block, cb));
            }
            Ok(_) => self.inner.get(sim, client, block, cb),
        }
    }

    fn on_executor_lost(&self, sim: &mut Sim, executor: &str) {
        self.inner.on_executor_lost(sim, executor)
    }

    fn register_executor(&self, executor: &str, loc: ClientLoc) {
        self.inner.register_executor(executor, loc)
    }

    fn forget_shuffle(&self, shuffle: u64) {
        for put in self.delayed.borrow_mut().values_mut() {
            if put.block.in_shuffle(shuffle) {
                put.forgotten = Some(shuffle);
            }
        }
        self.inner.forget_shuffle(shuffle)
    }

    fn contains(&self, block: &BlockId) -> bool {
        self.inner.contains(block)
    }

    fn stats(&self) -> StoreStats {
        self.inner.stats()
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
            s.gets_failed + s.puts_failed + s.ops_delayed
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

//! The one store op path: a block table, its counters and the put / get
//! skeleton, generic over a [`Substrate`] cost model.
//!
//! Every substrate runs a request the same way — admit it, wait out the
//! throttle and the request latency, move the bytes across the fabric,
//! land — and the substrates differ only in what [`Substrate::admit_put`] /
//! [`Substrate::admit_get`] do (book the fee on the cloud's ledger and the
//! throttle wait on the request) and answer (delay, route, placement), and
//! in the loss rule. An admit call does its side effects (fee, token
//! reservation, RNG draw, connection pick) in one fixed order per
//! substrate: event sequence numbers, and so every digest, depend on it.
//!
//! An admitted request waits in a slab inside the store ([`Parked`]) and
//! both events of its life name it by slot: the latency event, scheduled in
//! `put` / `get` themselves, and the fabric's completion notice. Neither
//! allocates. A request answers whoever asked ([`Reply`]): a boxed
//! callback through `put` / `get`, or a [`StoreClient`] and its token
//! through `put_to` / `get_to`, which is the engine's path and allocates
//! nothing.

use std::cell::{RefCell, RefMut};
use std::fmt;
use std::rc::Rc;

use splitserve_des::{Dist, EventHandler, Fabric, LinkPath, Sim, SimDuration};
use splitserve_rt::{Bytes, FastMap, Interned, Slab};

use crate::api::{
    BlockId, BlockStore, ClientLoc, GetCallback, PutCallback, StoreClient, StoreError, StoreStats,
};

/// One request as a substrate sees it.
pub struct Request<'a> {
    /// The simulator: its clock and RNG.
    pub sim: &'a mut Sim,
    /// Where the requester runs.
    pub client: ClientLoc,
    /// The block written or read.
    pub block: BlockId,
    /// Bytes resident in the table as the request arrives.
    pub resident: u64,
    /// Where a throttling substrate books the time the request queued.
    pub throttle_wait_secs: &'a mut f64,
}

impl Request<'_> {
    /// Draws a latency in seconds from `dist` on the simulator's RNG.
    pub(crate) fn draw(&mut self, dist: &Dist) -> SimDuration {
        SimDuration::from_secs_f64(dist.sample(self.sim.rng()))
    }
}

/// An admitted request: the delay before its bytes move, the links they
/// then cross, and the substrate's placement of the block.
pub(crate) type Admitted<P> = Result<(SimDuration, LinkPath, P), StoreError>;

/// A storage substrate as a cost model: where bytes live and what one
/// request to them costs. Sealed — the module is private, so only this
/// crate's five models implement it.
pub trait Substrate: 'static {
    /// What the substrate decides about a block at write time and needs
    /// back to route a read (HDFS: the datanode).
    type Placement: Copy + 'static;
    /// Short name for logs and experiment tables.
    const KIND: &'static str;
    /// Whether blocks outlive the executor that wrote them.
    const SURVIVES_EXECUTOR_LOSS: bool;

    /// Admits a write of `len` bytes. An `Err` refuses it: nothing is
    /// scheduled and nothing is counted.
    fn admit_put(&mut self, req: &mut Request<'_>, len: u64) -> Admitted<Self::Placement>;

    /// Admits a read; `hit` is the block's length and placement if the
    /// table holds it. A miss must come back `Err` (after whatever the
    /// substrate charges for a miss).
    fn admit_get(
        &mut self,
        req: &mut Request<'_>,
        hit: Option<(u64, Self::Placement)>,
    ) -> Admitted<()>;

    /// Learns where `executor` runs. Shared substrates don't care.
    fn register_executor(&mut self, _executor: &str, _loc: ClientLoc) {}

    /// The loss rule: `executor` died; returns it if its blocks died too.
    fn executor_lost(&mut self, _executor: &str) -> Option<Interned> {
        None
    }

    /// The loss rule for a write still in flight when its writer died:
    /// whether a block `writer` wrote can be held now.
    fn holds_blocks_of(&self, _writer: Interned) -> bool {
        true
    }
}

/// An admitted request between its admission and its landing.
struct Parked<P> {
    block: BlockId,
    route: LinkPath,
    data: Bytes,
    op: Op<P>,
}

/// What landing does with the bytes, and whom it tells.
enum Op<P> {
    /// `keep` turns false when the block's shuffle is forgotten in flight.
    Put {
        at: P,
        keep: bool,
        reply: Reply<PutCallback>,
    },
    Get(Reply<GetCallback>),
}

/// Whom a request answers: the caller's boxed callback `C`, or a client
/// and the caller's token.
pub(crate) enum Reply<C> {
    Call(C),
    To(Rc<dyn StoreClient>, u64),
}

impl Reply<PutCallback> {
    pub(crate) fn answer(self, sim: &mut Sim, result: Result<(), StoreError>) {
        match self {
            Reply::Call(cb) => cb(sim, result),
            Reply::To(client, token) => client.put_landed(sim, token, result),
        }
    }
}

impl Reply<GetCallback> {
    pub(crate) fn answer(self, sim: &mut Sim, result: Result<Bytes, StoreError>) {
        match self {
            Reply::Call(cb) => cb(sim, result),
            Reply::To(client, token) => client.get_landed(sim, token, result),
        }
    }
}

/// Token bit of a parked request's second event: the flow's completion
/// (set) rather than the end of the request latency (clear). The slot is
/// the rest of the token.
const FLOW_DONE: u64 = 1;

struct Inner<S: Substrate> {
    model: S,
    blocks: FastMap<BlockId, (Bytes, S::Placement)>,
    /// Sum of the lengths in `blocks`.
    resident_bytes: u64,
    stats: StoreStats,
    /// Requests in flight, by the slot their events carry.
    parked: Slab<Parked<S::Placement>>,
}

impl<S: Substrate> Inner<S> {
    /// The model, and the context of a request to `block` from `client`.
    fn request<'a>(
        &'a mut self,
        sim: &'a mut Sim,
        client: ClientLoc,
        block: BlockId,
    ) -> (&'a mut S, Request<'a>) {
        let req = Request {
            sim,
            client,
            block,
            resident: self.resident_bytes,
            throttle_wait_secs: &mut self.stats.throttle_wait_secs,
        };
        (&mut self.model, req)
    }

    /// Drops the blocks `gone` picks, and their bytes from the total.
    fn drop_blocks(&mut self, gone: impl Fn(&BlockId) -> bool) {
        let resident = &mut self.resident_bytes;
        self.blocks.retain(|block, (data, _)| {
            let keep = !gone(block);
            if !keep {
                *resident -= data.len() as u64;
            }
            keep
        });
    }
}

/// What every handle to a store, and every event of its requests, shares.
struct Core<S: Substrate> {
    inner: RefCell<Inner<S>>,
    fabric: Fabric,
}

/// A block store: one block table and one request path over the cost
/// model `S`. The five public stores are aliases of this type.
pub struct Store<S: Substrate> {
    core: Rc<Core<S>>,
}

impl<S: Substrate> fmt::Debug for Store<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.core.inner.borrow();
        f.debug_struct("Store")
            .field("kind", &S::KIND)
            .field("blocks", &inner.blocks.len())
            .field("used_bytes", &inner.resident_bytes)
            .field("stats", &inner.stats)
            .finish()
    }
}

impl<S: Substrate> Store<S> {
    /// An empty store over `fabric` whose requests `model` prices.
    pub(crate) fn over(model: S, fabric: Fabric) -> Self {
        let inner = Inner {
            model,
            blocks: FastMap::default(),
            resident_bytes: 0,
            stats: StoreStats::default(),
            parked: Slab::default(),
        };
        Store {
            core: Rc::new(Core {
                inner: RefCell::new(inner),
                fabric,
            }),
        }
    }

    pub(crate) fn model(&self) -> RefMut<'_, S> {
        RefMut::map(self.core.inner.borrow_mut(), |inner| &mut inner.model)
    }

    /// Bytes currently resident: an overwrite replaces the block it
    /// overwrites, a lost executor's or a forgotten shuffle's dropped
    /// blocks no longer count.
    pub fn used_bytes(&self) -> u64 {
        self.core.inner.borrow().resident_bytes
    }

    /// Blocks currently held.
    ///
    /// Test aid: only tests call this.
    pub fn block_count(&self) -> usize {
        self.core.inner.borrow().blocks.len()
    }

    /// Parks an admitted request and starts its clock: the latency event
    /// is scheduled here, at the caller's point in the program, and a
    /// request with no latency starts its transfer at once.
    fn launch(&self, sim: &mut Sim, delay: SimDuration, request: Parked<S::Placement>) {
        let slot = self.core.inner.borrow_mut().parked.insert(request);
        if delay.is_zero() {
            self.core.transfer(sim, slot);
        } else {
            sim.notify_in(delay, self.core.clone(), u64::from(slot) << 1);
        }
    }

    /// Admits a write and launches it; a refusal answers `reply` at once.
    fn put_with(
        &self,
        sim: &mut Sim,
        client: ClientLoc,
        block: BlockId,
        data: Bytes,
        reply: Reply<PutCallback>,
    ) {
        let admitted = {
            let mut inner = self.core.inner.borrow_mut();
            let (model, mut req) = inner.request(sim, client, block);
            model.admit_put(&mut req, data.len() as u64)
        };
        match admitted {
            Ok((delay, route, at)) => {
                let op = Op::Put {
                    at,
                    keep: true,
                    reply,
                };
                self.launch(
                    sim,
                    delay,
                    Parked {
                        block,
                        route,
                        data,
                        op,
                    },
                );
            }
            Err(e) => reply.answer(sim, Err(e)),
        }
    }

    /// Admits a read and launches it; a miss or a refusal answers `reply`
    /// at once.
    fn get_with(
        &self,
        sim: &mut Sim,
        client: ClientLoc,
        block: BlockId,
        reply: Reply<GetCallback>,
    ) {
        let admitted = {
            let mut inner = self.core.inner.borrow_mut();
            let found = inner.blocks.get(&block).cloned();
            let hit = found.as_ref().map(|(data, at)| (data.len() as u64, *at));
            let (model, mut req) = inner.request(sim, client, block);
            match (model.admit_get(&mut req, hit), found) {
                (Ok((delay, route, ())), Some((data, _))) => Ok((delay, route, data)),
                (Ok(_), None) => unreachable!("a substrate admitted a read of a missing block"),
                (Err(e), _) => {
                    inner.stats.failed_gets += 1;
                    Err(e)
                }
            }
        };
        match admitted {
            Ok((delay, route, data)) => {
                let op = Op::Get(reply);
                self.launch(
                    sim,
                    delay,
                    Parked {
                        block,
                        route,
                        data,
                        op,
                    },
                );
            }
            Err(e) => reply.answer(sim, Err(e)),
        }
    }
}

impl<S: Substrate> Core<S> {
    /// The request's latency is over: its bytes start across the fabric,
    /// whose completion notice is the request's second event. (With no
    /// route, or no bytes, that notice is an event at the current instant.)
    fn transfer(self: &Rc<Self>, sim: &mut Sim, slot: u32) {
        let (route, len) = {
            let inner = self.inner.borrow();
            let request = inner
                .parked
                .get(slot)
                .expect("a parked request waits for its latency");
            (request.route, request.data.len() as u64)
        };
        let done = u64::from(slot) << 1 | FLOW_DONE;
        self.fabric
            .start_flow_notify(sim, route.as_slice(), len, self.clone(), done);
    }

    /// The request's bytes have arrived: it leaves the slab, is counted
    /// and — a put — enters the block table, and its caller hears. It is
    /// out of the slab before the caller hears, so the slab holds bytes
    /// no longer than the request is in flight.
    fn land(&self, sim: &mut Sim, slot: u32) {
        let mut guard = self.inner.borrow_mut();
        let inner = &mut *guard;
        let landed = inner.parked.take(slot);
        let Parked {
            block, data, op, ..
        } = landed.expect("a parked request waits for its bytes");
        let len = data.len() as u64;
        match op {
            Op::Put { at, keep, reply } => {
                inner.stats.puts += 1;
                inner.stats.bytes_in += len;
                // The write happened either way; the bytes stay only if
                // someone can still read them and the substrate can still
                // hold them.
                if keep && inner.model.holds_blocks_of(block.executor) {
                    inner.resident_bytes += len;
                    if let Some((old, _)) = inner.blocks.insert(block, (data, at)) {
                        inner.resident_bytes -= old.len() as u64;
                    }
                }
                drop(guard);
                reply.answer(sim, Ok(()));
            }
            Op::Get(reply) => {
                inner.stats.gets += 1;
                inner.stats.bytes_out += len;
                drop(guard);
                reply.answer(sim, Ok(data));
            }
        }
    }
}

impl<S: Substrate> EventHandler for Core<S> {
    fn on_event(self: Rc<Self>, sim: &mut Sim, token: u64) {
        let slot = u32::try_from(token >> 1).expect("a store token is a slot and a phase bit");
        if token & FLOW_DONE == 0 {
            self.transfer(sim, slot);
        } else {
            self.land(sim, slot);
        }
    }
}

impl<S: Substrate> BlockStore for Store<S> {
    fn kind(&self) -> &'static str {
        S::KIND
    }

    fn survives_executor_loss(&self) -> bool {
        S::SURVIVES_EXECUTOR_LOSS
    }

    fn put(&self, sim: &mut Sim, client: ClientLoc, block: BlockId, data: Bytes, cb: PutCallback) {
        self.put_with(sim, client, block, data, Reply::Call(cb));
    }

    fn get(&self, sim: &mut Sim, client: ClientLoc, block: BlockId, cb: GetCallback) {
        self.get_with(sim, client, block, Reply::Call(cb));
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
        self.put_with(sim, client, block, data, Reply::To(to, token));
    }

    fn get_to(
        &self,
        sim: &mut Sim,
        client: ClientLoc,
        block: BlockId,
        to: Rc<dyn StoreClient>,
        token: u64,
    ) {
        self.get_with(sim, client, block, Reply::To(to, token));
    }

    fn on_executor_lost(&self, _sim: &mut Sim, executor: &str) {
        let inner = &mut *self.core.inner.borrow_mut();
        if let Some(dead) = inner.model.executor_lost(executor) {
            inner.drop_blocks(|block| block.executor == dead);
        }
    }

    fn register_executor(&self, executor: &str, loc: ClientLoc) {
        self.model().register_executor(executor, loc);
    }

    fn forget_shuffle(&self, shuffle: u64) {
        let inner = &mut *self.core.inner.borrow_mut();
        inner.drop_blocks(|block| block.in_shuffle(shuffle));
        for parked in inner.parked.values_mut() {
            if let Op::Put { keep, .. } = &mut parked.op {
                *keep &= !parked.block.in_shuffle(shuffle);
            }
        }
    }

    fn contains(&self, block: &BlockId) -> bool {
        self.core.inner.borrow().blocks.contains_key(block)
    }

    fn stats(&self) -> StoreStats {
        self.core.inner.borrow().stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HdfsSpec, HdfsStore, RedisSpec, RedisStore};

    impl<S: Substrate> Store<S> {
        /// Requests admitted and not yet landed.
        pub(crate) fn parked_ops(&self) -> usize {
            self.core.inner.borrow().parked.len()
        }
    }

    fn put_ok<S: Substrate>(store: &Store<S>, sim: &mut Sim, block: BlockId, len: usize) {
        let data = Bytes::from(vec![0u8; len]);
        store.put(
            sim,
            ClientLoc::default(),
            block,
            data,
            Box::new(|_, r| r.expect("put")),
        );
        sim.run();
    }

    #[test]
    fn resident_bytes_count_an_overwritten_block_once() {
        let mut sim = Sim::new(0);
        let fabric = Fabric::new();
        let block = BlockId::shuffle("e", 0, 0, 0);

        let hdfs = HdfsStore::new(HdfsSpec::default(), fabric.clone());
        hdfs.add_datanode(fabric.add_link(1e9, "nic"), fabric.add_link(1e9, "ebs"));
        put_ok(&hdfs, &mut sim, block, 100);
        put_ok(&hdfs, &mut sim, block, 40);
        assert_eq!(hdfs.used_bytes(), 40);

        let spec = RedisSpec {
            capacity_bytes: 150,
            ..RedisSpec::default()
        };
        let redis = RedisStore::new(spec, fabric.clone(), fabric.add_link(1e9, "redis-nic"));
        put_ok(&redis, &mut sim, block, 100);
        put_ok(&redis, &mut sim, block, 40);
        assert_eq!(redis.used_bytes(), 40);
        // The capacity check reads the same total: 40 + 100 fits in 150.
        put_ok(&redis, &mut sim, BlockId::shuffle("e", 0, 1, 0), 100);
        assert_eq!(redis.used_bytes(), 140);
    }

    /// Admits everything after a fixed latency over a fixed route.
    struct Fixed(SimDuration, LinkPath);

    impl Substrate for Fixed {
        type Placement = ();
        const KIND: &'static str = "fixed";
        const SURVIVES_EXECUTOR_LOSS: bool = true;

        fn admit_put(&mut self, _req: &mut Request<'_>, _len: u64) -> Admitted<()> {
            Ok((self.0, self.1, ()))
        }

        fn admit_get(&mut self, req: &mut Request<'_>, hit: Option<(u64, ())>) -> Admitted<()> {
            hit.map(|_| (self.0, self.1, ()))
                .ok_or(StoreError::NotFound(req.block))
        }
    }

    /// When `op` on a fresh store of `latency` over `route` calls back;
    /// a put of 300 bytes, or that put and then a get of it.
    fn landing_secs(latency: u64, route: LinkPath, fabric: Fabric, get: bool) -> f64 {
        let mut sim = Sim::new(0);
        let store = Store::over(Fixed(SimDuration::from_secs(latency), route), fabric);
        let block = BlockId::shuffle("e", 0, 0, 0);
        let done = Rc::new(std::cell::Cell::new(f64::NAN));
        let d = Rc::clone(&done);
        let data = Bytes::from(vec![0u8; 300]);
        store.put(
            &mut sim,
            ClientLoc::default(),
            block,
            data,
            Box::new(move |sim, r| {
                r.expect("put");
                d.set(sim.now().as_secs_f64());
            }),
        );
        assert_eq!(store.parked_ops(), 1, "admitted, not yet landed");
        sim.run();
        if get {
            let (d, start) = (Rc::clone(&done), sim.now().as_secs_f64());
            store.get(
                &mut sim,
                ClientLoc::default(),
                block,
                Box::new(move |sim, r| {
                    assert_eq!(r.expect("get").len(), 300);
                    d.set(sim.now().as_secs_f64() - start);
                }),
            );
            sim.run();
        }
        assert_eq!(store.parked_ops(), 0, "a run-dry store holds no request");
        done.get()
    }

    #[test]
    fn delay_then_flow_sequences_latency_and_transfer() {
        let fabric = Fabric::new();
        let l = fabric.add_link(100.0, "l");
        let route = LinkPath::new(&[l]);
        // 2 s latency + 3 s for 300 bytes at 100 B/s, writes and reads alike.
        assert_eq!(landing_secs(2, route, fabric.clone(), false), 5.0);
        assert_eq!(landing_secs(2, route, fabric.clone(), true), 5.0);
        // No latency: the transfer starts inside `put` itself.
        assert_eq!(landing_secs(0, route, fabric.clone(), false), 3.0);
        // No route: the landing is an event at the instant the latency ends.
        assert_eq!(
            landing_secs(2, LinkPath::new(&[]), fabric.clone(), true),
            2.0
        );
        assert_eq!(landing_secs(0, LinkPath::new(&[]), fabric, false), 0.0);
    }

    #[test]
    fn a_put_in_flight_when_its_shuffle_is_forgotten_lands_unkept() {
        let mut sim = Sim::new(0);
        let store = Store::over(
            Fixed(SimDuration::from_secs(1), LinkPath::new(&[])),
            Fabric::new(),
        );
        let (doomed, other) = (
            BlockId::shuffle("e", 3, 0, 0),
            BlockId::shuffle("e", 4, 0, 0),
        );
        let landed = Rc::new(std::cell::Cell::new(0));
        for block in [doomed, other] {
            let l = Rc::clone(&landed);
            let cb = Box::new(move |_: &mut Sim, r: Result<(), StoreError>| {
                r.expect("put");
                l.set(l.get() + 1);
            });
            store.put(
                &mut sim,
                ClientLoc::default(),
                block,
                Bytes::from(vec![0u8; 10]),
                cb,
            );
        }
        store.forget_shuffle(3);
        assert_eq!(store.parked_ops(), 2, "forgetting cancels nothing");
        sim.run();
        assert_eq!(landed.get(), 2, "both callers hear");
        assert!(!store.contains(&doomed) && store.contains(&other));
        assert_eq!((store.used_bytes(), store.block_count()), (10, 1));
        assert_eq!((store.stats().puts, store.stats().bytes_in), (2, 20));
        // Nothing remembers the id: a later write of that shuffle is kept.
        put_ok(&store, &mut sim, doomed, 5);
        assert!(store.contains(&doomed));
    }
}

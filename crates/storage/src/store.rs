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

use std::cell::{RefCell, RefMut};
use std::fmt;
use std::rc::Rc;

use splitserve_des::{Dist, Fabric, LinkPath, Sim, SimDuration};
use splitserve_rt::{Bytes, FastMap, Interned};

use crate::api::{
    BlockId, BlockStore, ClientLoc, GetCallback, PutCallback, StoreError, StoreStats,
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
    pub fn draw(&mut self, dist: &Dist) -> SimDuration {
        SimDuration::from_secs_f64(dist.sample(self.sim.rng()))
    }
}

/// An admitted request: the delay before its bytes move, the links they
/// then cross, and the substrate's placement of the block.
pub type Admitted<P> = Result<(SimDuration, LinkPath, P), StoreError>;

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

struct Inner<S: Substrate> {
    model: S,
    blocks: FastMap<BlockId, (Bytes, S::Placement)>,
    /// Sum of the lengths in `blocks`.
    resident_bytes: u64,
    stats: StoreStats,
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
}

/// A block store: one block table and one request path over the cost
/// model `S`. The five public stores are aliases of this type.
pub struct Store<S: Substrate> {
    inner: Rc<RefCell<Inner<S>>>,
    fabric: Fabric,
}

impl<S: Substrate> fmt::Debug for Store<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.borrow();
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
        };
        Store {
            inner: Rc::new(RefCell::new(inner)),
            fabric,
        }
    }

    pub(crate) fn model(&self) -> RefMut<'_, S> {
        RefMut::map(self.inner.borrow_mut(), |inner| &mut inner.model)
    }

    /// Bytes currently resident: an overwrite replaces the block it
    /// overwrites, a lost executor's dropped blocks no longer count.
    pub fn used_bytes(&self) -> u64 {
        self.inner.borrow().resident_bytes
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
        let len = data.len() as u64;
        let admitted = {
            let mut inner = self.inner.borrow_mut();
            let (model, mut req) = inner.request(sim, client, block);
            model.admit_put(&mut req, len)
        };
        let (delay, route, placement) = match admitted {
            Ok(admitted) => admitted,
            Err(e) => return cb(sim, Err(e)),
        };
        let inner = Rc::clone(&self.inner);
        delay_then_flow(sim, &self.fabric, delay, route, len, move |sim| {
            {
                let inner = &mut *inner.borrow_mut();
                inner.stats.puts += 1;
                inner.stats.bytes_in += len;
                // The write happened either way; the bytes stay only if
                // the substrate can still hold them.
                if inner.model.holds_blocks_of(block.executor) {
                    inner.resident_bytes += len;
                    if let Some((old, _)) = inner.blocks.insert(block, (data, placement)) {
                        inner.resident_bytes -= old.len() as u64;
                    }
                }
            }
            cb(sim, Ok(()));
        });
    }

    fn get(&self, sim: &mut Sim, client: ClientLoc, block: BlockId, cb: GetCallback) {
        let admitted = {
            let mut inner = self.inner.borrow_mut();
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
        let (delay, route, data) = match admitted {
            Ok(admitted) => admitted,
            Err(e) => return cb(sim, Err(e)),
        };
        let len = data.len() as u64;
        let inner = Rc::clone(&self.inner);
        delay_then_flow(sim, &self.fabric, delay, route, len, move |sim| {
            {
                let mut inner = inner.borrow_mut();
                inner.stats.gets += 1;
                inner.stats.bytes_out += len;
            }
            cb(sim, Ok(data));
        });
    }

    fn on_executor_lost(&self, _sim: &mut Sim, executor: &str) {
        let inner = &mut *self.inner.borrow_mut();
        if let Some(dead) = inner.model.executor_lost(executor) {
            let resident = &mut inner.resident_bytes;
            inner.blocks.retain(|block, (data, _)| {
                let keep = block.executor != dead;
                if !keep {
                    *resident -= data.len() as u64;
                }
                keep
            });
        }
    }

    fn register_executor(&self, executor: &str, loc: ClientLoc) {
        self.model().register_executor(executor, loc);
    }

    fn contains(&self, block: &BlockId) -> bool {
        self.inner.borrow().blocks.contains_key(block)
    }

    fn stats(&self) -> StoreStats {
        self.inner.borrow().stats
    }
}

/// Waits `delay`, then moves `bytes` across `links`, then runs `then`.
/// The shape of every storage operation: request latency followed by a
/// bandwidth-constrained transfer.
fn delay_then_flow(
    sim: &mut Sim,
    fabric: &Fabric,
    delay: SimDuration,
    links: LinkPath,
    bytes: u64,
    then: impl FnOnce(&mut Sim) + 'static,
) {
    if delay.is_zero() {
        fabric.start_flow(sim, links.as_slice(), bytes, then);
    } else {
        let fabric = fabric.clone();
        sim.schedule_in(delay, move |sim| {
            fabric.start_flow(sim, links.as_slice(), bytes, then);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HdfsSpec, HdfsStore, RedisSpec, RedisStore};

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

    #[test]
    fn delay_then_flow_sequences_latency_and_transfer() {
        let mut sim = Sim::new(0);
        let fabric = Fabric::new();
        let l = fabric.add_link(100.0, "l");
        let done = std::rc::Rc::new(std::cell::Cell::new(0.0));
        let d = std::rc::Rc::clone(&done);
        delay_then_flow(
            &mut sim,
            &fabric,
            SimDuration::from_secs(2),
            LinkPath::new(&[l]),
            300,
            move |sim| d.set(sim.now().as_secs_f64()),
        );
        sim.run();
        assert_eq!(done.get(), 5.0); // 2 s latency + 3 s transfer
    }
}

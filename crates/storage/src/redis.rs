//! A Redis-like in-memory store on a tenant-provisioned VM — the Locus
//! approach (§2): fast shuffle I/O, "but quite expensive as it requires the
//! use of large VMs". The expense shows up automatically because the
//! backing VM accrues normal EC2 charges for the whole job.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use splitserve_rt::Bytes;
use splitserve_des::{Dist, Fabric, LinkId, LinkPath, Sim, SimDuration};

use crate::api::{BlockId, BlockStore, ClientLoc, GetCallback, PutCallback, StoreError, StoreStats};
use crate::util::delay_then_flow;

/// Behaviour knobs for [`RedisStore`].
#[derive(Debug, Clone)]
pub struct RedisSpec {
    /// Per-operation latency in seconds (in-memory: sub-millisecond).
    pub latency: Dist,
    /// Memory capacity of the backing VM in bytes; writes beyond it are
    /// rejected, as a real Redis with `maxmemory noeviction` would.
    pub capacity_bytes: u64,
}

impl Default for RedisSpec {
    fn default() -> Self {
        RedisSpec {
            latency: Dist::log_normal_mean_sd(0.0008, 0.0004).clamped(0.0002, 0.01),
            capacity_bytes: 48 * 1024 * 1024 * 1024, // a cache.r-class VM
        }
    }
}

struct Inner {
    spec: RedisSpec,
    objects: HashMap<BlockId, Bytes>,
    used: u64,
    stats: StoreStats,
}

/// Simulated Redis cluster node reachable over the backing VM's NIC.
#[derive(Clone)]
pub struct RedisStore {
    inner: Rc<RefCell<Inner>>,
    fabric: Fabric,
    server_nic: LinkId,
}

impl std::fmt::Debug for RedisStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("RedisStore")
            .field("objects", &inner.objects.len())
            .field("used", &inner.used)
            .finish()
    }
}

impl RedisStore {
    /// Creates a Redis store served from a VM whose NIC is `server_nic`.
    /// The caller is responsible for having provisioned (and paying for)
    /// that VM.
    pub fn new(spec: RedisSpec, fabric: Fabric, server_nic: LinkId) -> Self {
        RedisStore {
            inner: Rc::new(RefCell::new(Inner {
                spec,
                objects: HashMap::new(),
                used: 0,
                stats: StoreStats::default(),
            })),
            fabric,
            server_nic,
        }
    }

    /// Bytes currently resident.
    pub fn used_bytes(&self) -> u64 {
        self.inner.borrow().used
    }

    fn latency(&self, sim: &mut Sim) -> SimDuration {
        let d = self.inner.borrow().spec.latency.clone();
        SimDuration::from_secs_f64(d.sample(sim.rng()))
    }
}

impl BlockStore for RedisStore {
    fn kind(&self) -> &'static str {
        "redis"
    }

    fn survives_executor_loss(&self) -> bool {
        true
    }

    fn put(&self, sim: &mut Sim, client: ClientLoc, block: BlockId, data: Bytes, cb: PutCallback) {
        let len = data.len() as u64;
        {
            let inner = self.inner.borrow();
            if inner.used + len > inner.spec.capacity_bytes {
                drop(inner);
                cb(
                    sim,
                    Err(StoreError::Rejected(format!(
                        "redis out of memory storing {block} ({len} bytes)"
                    ))),
                );
                return;
            }
        }
        let delay = self.latency(sim);
        let links = LinkPath::dedup(&[client.nic, Some(self.server_nic)]);
        let this = self.clone();
        delay_then_flow(sim, &self.fabric, delay, links, len, move |sim| {
            {
                let mut inner = this.inner.borrow_mut();
                inner.used += len;
                inner.objects.insert(block, data);
                inner.stats.puts += 1;
                inner.stats.bytes_in += len;
            }
            cb(sim, Ok(()));
        });
    }

    fn get(&self, sim: &mut Sim, client: ClientLoc, block: BlockId, cb: GetCallback) {
        let data = self.inner.borrow().objects.get(&block).cloned();
        match data {
            Some(data) => {
                let delay = self.latency(sim);
                let links = LinkPath::dedup(&[Some(self.server_nic), client.nic]);
                let len = data.len() as u64;
                let this = self.clone();
                delay_then_flow(sim, &self.fabric, delay, links, len, move |sim| {
                    {
                        let mut inner = this.inner.borrow_mut();
                        inner.stats.gets += 1;
                        inner.stats.bytes_out += len;
                    }
                    cb(sim, Ok(data));
                });
            }
            None => {
                self.inner.borrow_mut().stats.failed_gets += 1;
                cb(sim, Err(StoreError::NotFound(block)));
            }
        }
    }

    fn on_executor_lost(&self, _sim: &mut Sim, _executor: &str) {}

    fn contains(&self, block: &BlockId) -> bool {
        self.inner.borrow().objects.contains_key(block)
    }

    fn stats(&self) -> StoreStats {
        self.inner.borrow().stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    fn rig(capacity: u64) -> (Sim, Fabric, RedisStore) {
        let sim = Sim::new(0);
        let fabric = Fabric::new();
        let nic = fabric.add_link(1000.0, "redis-nic");
        let store = RedisStore::new(
            RedisSpec {
                latency: Dist::constant(0.001),
                capacity_bytes: capacity,
            },
            fabric.clone(),
            nic,
        );
        (sim, fabric, store)
    }

    #[test]
    fn roundtrip_is_fast() {
        let (mut sim, fabric, store) = rig(1 << 20);
        let nic = fabric.add_link(1e9, "client");
        let block = BlockId::shuffle("e", 0, 0, 0);
        store.put(
            &mut sim,
            ClientLoc::net(nic),
            block,
            Bytes::from(vec![0u8; 100]),
            Box::new(|_, r| r.expect("put")),
        );
        sim.run();
        // 1 ms latency + 100 B over 1000 B/s server NIC = 0.101 s
        assert!((sim.now().as_secs_f64() - 0.101).abs() < 1e-6);
        assert_eq!(store.used_bytes(), 100);
        let done = Rc::new(Cell::new(false));
        let d = Rc::clone(&done);
        store.get(
            &mut sim,
            ClientLoc::net(nic),
            block,
            Box::new(move |_, r| {
                assert_eq!(r.expect("get").len(), 100);
                d.set(true);
            }),
        );
        sim.run();
        assert!(done.get());
    }

    #[test]
    fn capacity_limit_rejects_writes() {
        let (mut sim, fabric, store) = rig(150);
        let nic = fabric.add_link(1e9, "client");
        store.put(
            &mut sim,
            ClientLoc::net(nic),
            BlockId::shuffle("e", 0, 0, 0),
            Bytes::from(vec![0u8; 100]),
            Box::new(|_, r| r.expect("first write fits")),
        );
        sim.run();
        let rejected = Rc::new(Cell::new(false));
        let rj = Rc::clone(&rejected);
        store.put(
            &mut sim,
            ClientLoc::net(nic),
            BlockId::shuffle("e", 0, 1, 0),
            Bytes::from(vec![0u8; 100]),
            Box::new(move |_, r| {
                assert!(matches!(r, Err(StoreError::Rejected(_))));
                rj.set(true);
            }),
        );
        sim.run();
        assert!(rejected.get());
    }

    #[test]
    fn server_nic_is_shared_bottleneck() {
        let (mut sim, fabric, store) = rig(1 << 20);
        // Two clients writing 500 B each through the 1000 B/s server NIC.
        for i in 0..2u64 {
            let nic = fabric.add_link(1e9, format!("client-{i}"));
            store.put(
                &mut sim,
                ClientLoc::net(nic),
                BlockId::shuffle("e", 0, i, 0),
                Bytes::from(vec![0u8; 500]),
                Box::new(|_, r| r.expect("put")),
            );
        }
        sim.run();
        assert!((sim.now().as_secs_f64() - 1.001).abs() < 1e-3);
    }

    #[test]
    fn survives_executor_loss() {
        let (mut sim, fabric, store) = rig(1 << 20);
        let nic = fabric.add_link(1e9, "client");
        let block = BlockId::shuffle("lambda-1", 0, 0, 0);
        store.put(
            &mut sim,
            ClientLoc::net(nic),
            block,
            Bytes::from_static(b"x"),
            Box::new(|_, r| r.expect("put")),
        );
        sim.run();
        store.on_executor_lost(&mut sim, "lambda-1");
        assert!(store.contains(&block));
    }
}

//! A Redis-like in-memory store on a tenant-provisioned VM — the Locus
//! approach (§2): fast shuffle I/O, "but quite expensive as it requires the
//! use of large VMs". The expense shows up automatically because the
//! backing VM accrues normal EC2 charges for the whole job.

use splitserve_des::{Dist, Fabric, LinkId, LinkPath};

use crate::api::StoreError;
use crate::store::{Admitted, Request, Store, Substrate};

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

/// An in-memory server behind one NIC: the cost model behind
/// [`RedisStore`].
pub struct Redis {
    spec: RedisSpec,
    server_nic: LinkId,
}

/// Simulated Redis cluster node reachable over the backing VM's NIC.
pub type RedisStore = Store<Redis>;

impl Store<Redis> {
    /// Creates a Redis store served from a VM whose NIC is `server_nic`.
    /// The caller is responsible for having provisioned (and paying for)
    /// that VM.
    pub fn new(spec: RedisSpec, fabric: Fabric, server_nic: LinkId) -> Self {
        Store::over(Redis { spec, server_nic }, fabric)
    }
}

impl Substrate for Redis {
    type Placement = ();
    const KIND: &'static str = "redis";
    const SURVIVES_EXECUTOR_LOSS: bool = true;

    fn admit_put(&mut self, req: &mut Request<'_>, len: u64) -> Admitted<()> {
        if req.resident + len > self.spec.capacity_bytes {
            let block = req.block;
            return Err(StoreError::Rejected(format!(
                "redis out of memory storing {block} ({len} bytes)"
            )));
        }
        let route = LinkPath::dedup(&[req.client.nic, Some(self.server_nic)]);
        Ok((req.draw(&self.spec.latency), route, ()))
    }

    fn admit_get(&mut self, req: &mut Request<'_>, hit: Option<(u64, ())>) -> Admitted<()> {
        hit.ok_or(StoreError::NotFound(req.block))?;
        let route = LinkPath::dedup(&[Some(self.server_nic), req.client.nic]);
        Ok((req.draw(&self.spec.latency), route, ()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BlockId, BlockStore, ClientLoc};
    use splitserve_des::Sim;
    use splitserve_rt::Bytes;
    use std::cell::Cell;
    use std::rc::Rc;

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

//! Executor-local disk storage — vanilla Spark's shuffle layout under
//! dynamic allocation.
//!
//! Blocks live on the disk of the executor that wrote them; other executors
//! fetch them over the network with the *owner* serving the bytes. When an
//! executor dies its blocks die with it ([`StoreError::ExecutorLost`]) and
//! the engine must recompute from lineage — the rollback cascade SplitServe
//! is designed to avoid.

use splitserve_des::{Fabric, LinkPath, SimDuration};
use splitserve_rt::{FastMap, Interned};

use crate::api::{ClientLoc, StoreError};
use crate::store::{Admitted, Request, Store, Substrate};

/// Executor-local disks: the cost model behind [`LocalDiskStore`].
#[derive(Default)]
pub struct LocalDisk {
    /// Each registered executor's links and whether it is still alive.
    executors: FastMap<Interned, (ClientLoc, bool)>,
}

/// Per-executor local-disk block store.
///
/// # Examples
///
/// ```
/// use splitserve_rt::Bytes;
/// use splitserve_des::{Fabric, Sim};
/// use splitserve_storage::{BlockId, BlockStore, ClientLoc, LocalDiskStore};
///
/// let mut sim = Sim::new(0);
/// let fabric = Fabric::new();
/// let store = LocalDiskStore::new(fabric.clone());
/// let disk = fabric.add_link(1e9, "disk");
/// let loc = ClientLoc { nic: None, disk: Some(disk) };
/// store.register_executor("exec-1", loc);
/// store.put(
///     &mut sim,
///     loc,
///     BlockId::shuffle("exec-1", 0, 0, 0),
///     Bytes::from_static(b"data"),
///     Box::new(|_, r| r.expect("write succeeds")),
/// );
/// sim.run();
/// ```
pub type LocalDiskStore = Store<LocalDisk>;

impl Store<LocalDisk> {
    /// Creates an empty store over `fabric`. An executor must be
    /// registered ([`BlockStore::register_executor`](crate::BlockStore))
    /// before its blocks can be served.
    pub fn new(fabric: Fabric) -> Self {
        Store::over(LocalDisk::default(), fabric)
    }
}

impl Substrate for LocalDisk {
    type Placement = ();
    const KIND: &'static str = "local-disk";
    const SURVIVES_EXECUTOR_LOSS: bool = false;

    fn admit_put(&mut self, req: &mut Request<'_>, _len: u64) -> Admitted<()> {
        // Writes land on the *writer's* disk.
        Ok((SimDuration::ZERO, LinkPath::dedup(&[req.client.disk]), ()))
    }

    fn admit_get(&mut self, req: &mut Request<'_>, hit: Option<(u64, ())>) -> Admitted<()> {
        let (client, block) = (req.client, req.block);
        match (self.executors.get(&block.executor), hit) {
            (Some(&(owner, true)), Some(_)) => {
                // Serve from the owner's disk; traverse both NICs when
                // remote, the disk alone when the client *is* the owner.
                let route = if client.nic == owner.nic && client.disk == owner.disk {
                    LinkPath::dedup(&[owner.disk])
                } else {
                    LinkPath::dedup(&[owner.disk, owner.nic, client.nic])
                };
                Ok((SimDuration::ZERO, route, ()))
            }
            (Some((_, false)), _) => Err(StoreError::ExecutorLost {
                executor: block.executor.to_string(),
                block,
            }),
            _ => Err(StoreError::NotFound(block)),
        }
    }

    fn register_executor(&mut self, executor: &str, loc: ClientLoc) {
        self.executors.insert(Interned::new(executor), (loc, true));
    }

    fn executor_lost(&mut self, executor: &str) -> Option<Interned> {
        let executor = Interned::new(executor);
        // The bytes go; the entry stays so reads report ExecutorLost.
        if let Some((_, alive)) = self.executors.get_mut(&executor) {
            *alive = false;
        }
        Some(executor)
    }

    fn holds_blocks_of(&self, writer: Interned) -> bool {
        self.executors.get(&writer).is_none_or(|&(_, alive)| alive)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BlockId, BlockStore};
    use splitserve_des::Sim;
    use splitserve_rt::Bytes;
    use std::cell::Cell;
    use std::rc::Rc;

    struct Rig {
        sim: Sim,
        fabric: Fabric,
        store: LocalDiskStore,
    }

    fn rig() -> Rig {
        let fabric = Fabric::new();
        let store = LocalDiskStore::new(fabric.clone());
        Rig {
            sim: Sim::new(0),
            fabric,
            store,
        }
    }

    fn put_ok(rig: &mut Rig, client: ClientLoc, block: BlockId, n: usize) {
        rig.store.put(
            &mut rig.sim,
            client,
            block,
            Bytes::from(vec![7u8; n]),
            Box::new(|_, r| r.expect("put")),
        );
    }

    #[test]
    fn local_write_charges_disk_bandwidth() {
        let mut rig = rig();
        let disk = rig.fabric.add_link(100.0, "disk");
        let client = ClientLoc {
            nic: None,
            disk: Some(disk),
        };
        rig.store.register_executor("e1", client);
        put_ok(&mut rig, client, BlockId::shuffle("e1", 0, 0, 0), 500);
        rig.sim.run();
        assert_eq!(rig.sim.now().as_secs_f64(), 5.0);
        assert_eq!(rig.store.stats().puts, 1);
        assert_eq!(rig.store.stats().bytes_in, 500);
    }

    #[test]
    fn remote_fetch_traverses_both_nics() {
        let mut rig = rig();
        let d1 = rig.fabric.add_link(1e9, "d1");
        let n1 = rig.fabric.add_link(100.0, "n1");
        let d2 = rig.fabric.add_link(1e9, "d2");
        let n2 = rig.fabric.add_link(1e9, "n2");
        rig.store.register_executor("e1", ClientLoc::vm(n1, d1));
        rig.store.register_executor("e2", ClientLoc::vm(n2, d2));
        let owner = ClientLoc::vm(n1, d1);
        put_ok(&mut rig, owner, BlockId::shuffle("e1", 0, 0, 0), 1000);
        rig.sim.run();

        // e2 fetches: bottleneck is e1's 100 B/s NIC.
        let got = Rc::new(Cell::new(0.0));
        let g = Rc::clone(&got);
        rig.store.get(
            &mut rig.sim,
            ClientLoc::vm(n2, d2),
            BlockId::shuffle("e1", 0, 0, 0),
            Box::new(move |sim, r| {
                assert_eq!(r.expect("get").len(), 1000);
                g.set(sim.now().as_secs_f64());
            }),
        );
        let before = rig.sim.now().as_secs_f64();
        rig.sim.run();
        assert!((got.get() - before - 10.0).abs() < 1e-6);
        assert_eq!(rig.store.stats().bytes_out, 1000);
    }

    #[test]
    fn owner_local_read_skips_network() {
        let mut rig = rig();
        let d1 = rig.fabric.add_link(1e9, "d1");
        let n1 = rig.fabric.add_link(1.0, "n1"); // 1 B/s: would take forever
        rig.store.register_executor("e1", ClientLoc::vm(n1, d1));
        let loc = ClientLoc::vm(n1, d1);
        put_ok(&mut rig, loc, BlockId::shuffle("e1", 0, 0, 0), 100);
        rig.sim.run();
        let done = Rc::new(Cell::new(false));
        let d = Rc::clone(&done);
        rig.store.get(
            &mut rig.sim,
            loc,
            BlockId::shuffle("e1", 0, 0, 0),
            Box::new(move |_, r| {
                r.expect("local read");
                d.set(true);
            }),
        );
        rig.sim.run();
        assert!(done.get());
        assert!(rig.sim.now().as_secs_f64() < 1.0, "network was charged");
    }

    #[test]
    fn executor_loss_loses_blocks() {
        let mut rig = rig();
        let d1 = rig.fabric.add_link(1e9, "d1");
        let loc = ClientLoc {
            nic: None,
            disk: Some(d1),
        };
        rig.store.register_executor("e1", loc);
        put_ok(&mut rig, loc, BlockId::shuffle("e1", 1, 2, 3), 10);
        rig.sim.run();
        assert!(rig.store.contains(&BlockId::shuffle("e1", 1, 2, 3)));

        rig.store.on_executor_lost(&mut rig.sim, "e1");
        assert!(!rig.store.contains(&BlockId::shuffle("e1", 1, 2, 3)));
        let errored = Rc::new(Cell::new(false));
        let e = Rc::clone(&errored);
        rig.store.get(
            &mut rig.sim,
            loc,
            BlockId::shuffle("e1", 1, 2, 3),
            Box::new(move |_, r| {
                assert!(matches!(r, Err(StoreError::ExecutorLost { .. })));
                e.set(true);
            }),
        );
        rig.sim.run();
        assert!(errored.get());
        assert_eq!(rig.store.stats().failed_gets, 1);
        assert!(!rig.store.survives_executor_loss());
    }

    #[test]
    fn put_landing_after_its_writer_died_is_not_retained() {
        let mut rig = rig();
        let disk = rig.fabric.add_link(100.0, "slow-disk");
        let loc = ClientLoc {
            nic: None,
            disk: Some(disk),
        };
        rig.store.register_executor("e1", loc);
        let block = BlockId::shuffle("e1", 0, 0, 0);
        put_ok(&mut rig, loc, block, 500); // lands at t = 5 s
        rig.store.on_executor_lost(&mut rig.sim, "e1");
        // The request is parked in the store, not in its writer: it
        // still lands.
        assert_eq!(rig.store.parked_ops(), 1);
        rig.sim.run();
        assert_eq!(rig.store.parked_ops(), 0);
        // The write is still counted (the ledger's `bytes_in` is exact) and
        // its callback saw Ok, but the dead executor's disk holds nothing.
        assert_eq!(rig.store.stats().puts, 1);
        assert_eq!(rig.store.stats().bytes_in, 500);
        assert!(!rig.store.contains(&block));
        assert_eq!(rig.store.used_bytes(), 0);
    }

    #[test]
    fn missing_block_reports_not_found() {
        let mut rig = rig();
        let errored = Rc::new(Cell::new(false));
        let e = Rc::clone(&errored);
        rig.store.get(
            &mut rig.sim,
            ClientLoc::default(),
            BlockId::shuffle("ghost", 0, 0, 0),
            Box::new(move |_, r| {
                assert!(matches!(r, Err(StoreError::NotFound(_))));
                e.set(true);
            }),
        );
        rig.sim.run();
        assert!(errored.get());
    }
}

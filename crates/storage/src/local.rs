//! Executor-local disk storage — vanilla Spark's shuffle layout under
//! dynamic allocation.
//!
//! Blocks live on the disk of the executor that wrote them; other executors
//! fetch them over the network with the *owner* serving the bytes. When an
//! executor dies its blocks die with it ([`StoreError::ExecutorLost`]) and
//! the engine must recompute from lineage — the rollback cascade SplitServe
//! is designed to avoid.

use std::cell::RefCell;
use std::rc::Rc;

use splitserve_rt::{Bytes, FastMap, Interned};
use splitserve_des::{Fabric, LinkId, LinkPath, Sim};

use crate::api::{BlockId, BlockStore, ClientLoc, GetCallback, PutCallback, StoreError, StoreStats};
use crate::util::delay_then_flow;

#[derive(Debug, Clone, Copy)]
struct ExecutorLoc {
    nic: Option<LinkId>,
    disk: Option<LinkId>,
    alive: bool,
}

#[derive(Default)]
struct Inner {
    executors: FastMap<Interned, ExecutorLoc>,
    blocks: FastMap<BlockId, Bytes>,
    stats: StoreStats,
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
/// store.register_executor("exec-1", None, Some(disk));
/// store.put(
///     &mut sim,
///     ClientLoc { nic: None, disk: Some(disk) },
///     BlockId::shuffle("exec-1", 0, 0, 0),
///     Bytes::from_static(b"data"),
///     Box::new(|_, r| r.expect("write succeeds")),
/// );
/// sim.run();
/// ```
#[derive(Clone)]
pub struct LocalDiskStore {
    inner: Rc<RefCell<Inner>>,
    fabric: Fabric,
}

impl std::fmt::Debug for LocalDiskStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("LocalDiskStore")
            .field("executors", &inner.executors.len())
            .field("blocks", &inner.blocks.len())
            .finish()
    }
}

impl LocalDiskStore {
    /// Creates an empty store over `fabric`.
    pub fn new(fabric: Fabric) -> Self {
        LocalDiskStore {
            inner: Rc::new(RefCell::new(Inner::default())),
            fabric,
        }
    }

    /// Registers an executor's links so its blocks can be located. Must be
    /// called before the executor writes or serves blocks.
    pub fn register_executor(
        &self,
        executor: impl Into<Interned>,
        nic: Option<LinkId>,
        disk: Option<LinkId>,
    ) {
        self.inner.borrow_mut().executors.insert(
            executor.into(),
            ExecutorLoc {
                nic,
                disk,
                alive: true,
            },
        );
    }

    fn executor_loc(&self, executor: Interned) -> Option<ExecutorLoc> {
        self.inner.borrow().executors.get(&executor).copied()
    }
}

impl BlockStore for LocalDiskStore {
    fn kind(&self) -> &'static str {
        "local-disk"
    }

    fn survives_executor_loss(&self) -> bool {
        false
    }

    fn put(&self, sim: &mut Sim, client: ClientLoc, block: BlockId, data: Bytes, cb: PutCallback) {
        let len = data.len() as u64;
        // Writes land on the *writer's* disk.
        let links = LinkPath::dedup(&[client.disk]);
        let this = self.clone();
        delay_then_flow(
            sim,
            &self.fabric,
            splitserve_des::SimDuration::ZERO,
            links,
            len,
            move |sim| {
                {
                    let mut inner = this.inner.borrow_mut();
                    inner.blocks.insert(block, data);
                    inner.stats.puts += 1;
                    inner.stats.bytes_in += len;
                }
                cb(sim, Ok(()));
            },
        );
    }

    fn get(&self, sim: &mut Sim, client: ClientLoc, block: BlockId, cb: GetCallback) {
        let owner = self.executor_loc(block.executor);
        let (data, owner) = {
            let inner = self.inner.borrow();
            (inner.blocks.get(&block).cloned(), owner)
        };
        match (owner, data) {
            (Some(loc), Some(data)) if loc.alive => {
                // Serve from the owner's disk; traverse NICs when remote.
                // If the client *is* the owner, `LinkPath::dedup` drops the
                // shared links so no network hop is charged.
                let links = LinkPath::dedup(&[loc.disk, loc.nic, client.nic]);
                let links = if client.nic == loc.nic && client.disk == loc.disk {
                    LinkPath::dedup(&[loc.disk])
                } else {
                    links
                };
                let len = data.len() as u64;
                let this = self.clone();
                delay_then_flow(
                    sim,
                    &self.fabric,
                    splitserve_des::SimDuration::ZERO,
                    links,
                    len,
                    move |sim| {
                        {
                            let mut inner = this.inner.borrow_mut();
                            inner.stats.gets += 1;
                            inner.stats.bytes_out += len;
                        }
                        cb(sim, Ok(data));
                    },
                );
            }
            (Some(loc), _) if !loc.alive => {
                self.inner.borrow_mut().stats.failed_gets += 1;
                let executor = block.executor.to_string();
                cb(sim, Err(StoreError::ExecutorLost { executor, block }));
            }
            _ => {
                self.inner.borrow_mut().stats.failed_gets += 1;
                cb(sim, Err(StoreError::NotFound(block)));
            }
        }
    }

    fn register_executor(&self, executor: &str, loc: ClientLoc) {
        LocalDiskStore::register_executor(self, executor, loc.nic, loc.disk);
    }

    fn on_executor_lost(&self, _sim: &mut Sim, executor: &str) {
        let executor = Interned::new(executor);
        let mut inner = self.inner.borrow_mut();
        if let Some(loc) = inner.executors.get_mut(&executor) {
            loc.alive = false;
        }
        // Drop the bytes; metadata stays so reads report ExecutorLost.
        inner.blocks.retain(|b, _| b.executor != executor);
    }

    fn contains(&self, block: &BlockId) -> bool {
        self.inner.borrow().blocks.contains_key(block)
    }

    fn stats(&self) -> StoreStats {
        self.inner.borrow().stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

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
        rig.store.register_executor("e1", None, Some(disk));
        let client = ClientLoc {
            nic: None,
            disk: Some(disk),
        };
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
        rig.store.register_executor("e1", Some(n1), Some(d1));
        rig.store.register_executor("e2", Some(n2), Some(d2));
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
        rig.store.register_executor("e1", Some(n1), Some(d1));
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
        rig.store.register_executor("e1", None, Some(d1));
        let loc = ClientLoc {
            nic: None,
            disk: Some(d1),
        };
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

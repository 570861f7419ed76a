//! A miniature HDFS: one namenode's metadata plus datanodes whose disk and
//! network links live on tenant VMs.
//!
//! This is SplitServe's state-transfer substrate (paper §4.3): a *shared*
//! high-throughput layer both VM- and Lambda-based executors can reach, so
//! shuffle output survives executor decommission. In the paper's
//! experiments a single datanode is colocated with the Spark master (e.g.
//! on an m4.xlarge with 750 Mbps dedicated EBS bandwidth), making that pipe
//! the shuffle bottleneck they analyze — reproduced here by registering one
//! datanode whose links are that VM's NIC and EBS links.

use std::cell::RefCell;

use std::rc::Rc;

use splitserve_rt::{Bytes, FastMap};
use splitserve_des::{Dist, Fabric, LinkId, LinkPath, Sim, SimDuration};

use crate::api::{BlockId, BlockStore, ClientLoc, GetCallback, PutCallback, StoreError, StoreStats};
use crate::util::delay_then_flow;

/// Placement and behaviour knobs for [`HdfsStore`].
#[derive(Debug, Clone)]
pub struct HdfsSpec {
    /// Replication factor (the paper's single-node setup implies 1).
    pub replication: usize,
    /// Namenode metadata round-trip latency in seconds.
    pub namenode_latency: Dist,
}

impl Default for HdfsSpec {
    fn default() -> Self {
        HdfsSpec {
            replication: 1,
            namenode_latency: Dist::log_normal_mean_sd(0.002, 0.001).clamped(0.0005, 0.05),
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct DataNode {
    nic: LinkId,
    disk: LinkId,
}

/// A block's replica set. Placement is round-robin, so the set is always
/// `count` consecutive datanodes (modulo the datanode count at write
/// time) starting at `first` — two integers instead of a list per block.
#[derive(Debug, Clone, Copy)]
struct Replicas {
    first: usize,
    count: usize,
}

/// Where a put's completion callback waits for its replica flows.
enum Landing {
    /// The only replica's flow owns the callback outright.
    Sole(PutCallback),
    /// Several flows share a countdown; the last to land fires it.
    Shared(Rc<RefCell<(usize, Option<PutCallback>)>>),
}

impl Landing {
    /// One replica flow finished.
    fn landed(self, sim: &mut Sim) {
        let cb = match self {
            Landing::Sole(cb) => cb,
            Landing::Shared(state) => {
                let mut state = state.borrow_mut();
                state.0 -= 1;
                if state.0 > 0 {
                    return;
                }
                state.1.take().expect("callback present at last replica")
            }
        };
        cb(sim, Ok(()));
    }
}

struct Inner {
    spec: HdfsSpec,
    datanodes: Vec<DataNode>,
    /// block → the datanodes holding its replicas, plus the bytes.
    blocks: FastMap<BlockId, (Replicas, Bytes)>,
    next_dn: usize,
    used_bytes: u64,
    stats: StoreStats,
}

/// Shared HDFS-like block store.
///
/// # Examples
///
/// ```
/// use splitserve_des::{Fabric, Sim};
/// use splitserve_storage::{HdfsSpec, HdfsStore};
///
/// let fabric = Fabric::new();
/// let nic = fabric.add_link(93.75e6, "master-nic");  // 750 Mbps
/// let ebs = fabric.add_link(93.75e6, "master-ebs");
/// let hdfs = HdfsStore::new(HdfsSpec::default(), fabric);
/// hdfs.add_datanode(nic, ebs);
/// assert_eq!(hdfs.datanode_count(), 1);
/// ```
#[derive(Clone)]
pub struct HdfsStore {
    inner: Rc<RefCell<Inner>>,
    fabric: Fabric,
}

impl std::fmt::Debug for HdfsStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("HdfsStore")
            .field("datanodes", &inner.datanodes.len())
            .field("blocks", &inner.blocks.len())
            .field("used_bytes", &inner.used_bytes)
            .finish()
    }
}

impl HdfsStore {
    /// Creates an HDFS with no datanodes yet.
    pub fn new(spec: HdfsSpec, fabric: Fabric) -> Self {
        HdfsStore {
            inner: Rc::new(RefCell::new(Inner {
                spec,
                datanodes: Vec::new(),
                blocks: FastMap::default(),
                next_dn: 0,
                used_bytes: 0,
                stats: StoreStats::default(),
            })),
            fabric,
        }
    }

    /// Adds a datanode reachable over `nic` whose disk writes go through
    /// `disk` (typically a VM's dedicated EBS link).
    pub fn add_datanode(&self, nic: LinkId, disk: LinkId) -> usize {
        let mut inner = self.inner.borrow_mut();
        inner.datanodes.push(DataNode { nic, disk });
        inner.datanodes.len() - 1
    }

    /// Number of datanodes registered.
    pub fn datanode_count(&self) -> usize {
        self.inner.borrow().datanodes.len()
    }

    /// Total bytes currently stored (across replicas).
    pub fn used_bytes(&self) -> u64 {
        self.inner.borrow().used_bytes
    }

    fn sample_nn_latency(&self, sim: &mut Sim) -> SimDuration {
        let inner = self.inner.borrow();
        SimDuration::from_secs_f64(inner.spec.namenode_latency.sample(sim.rng()))
    }

    /// Chooses replica targets round-robin (deterministic).
    fn pick_targets(&self) -> Replicas {
        let mut inner = self.inner.borrow_mut();
        let n = inner.datanodes.len();
        assert!(n > 0, "HDFS has no datanodes");
        let count = inner.spec.replication.min(n).max(1);
        let first = inner.next_dn;
        inner.next_dn = (inner.next_dn + 1) % n;
        Replicas { first, count }
    }
}

impl BlockStore for HdfsStore {
    fn kind(&self) -> &'static str {
        "hdfs"
    }

    fn survives_executor_loss(&self) -> bool {
        true
    }

    fn put(&self, sim: &mut Sim, client: ClientLoc, block: BlockId, data: Bytes, cb: PutCallback) {
        let targets = self.pick_targets();
        let len = data.len() as u64;
        let latency = self.sample_nn_latency(sim);

        // One flow per replica, all in parallel; completion when all
        // land. The first replica's flow records the block.
        let mut cb = Some(cb);
        let shared = (targets.count > 1)
            .then(|| Rc::new(RefCell::new((targets.count, cb.take()))));
        for i in 0..targets.count {
            let dn = {
                let inner = self.inner.borrow();
                inner.datanodes[(targets.first + i) % inner.datanodes.len()]
            };
            let links = LinkPath::dedup(&[client.nic, Some(dn.nic), Some(dn.disk)]);
            let landing = match &shared {
                Some(state) => Landing::Shared(Rc::clone(state)),
                None => Landing::Sole(cb.take().expect("a sole replica lands once")),
            };
            let record = (i == 0).then(|| (self.clone(), data.clone()));
            delay_then_flow(sim, &self.fabric, latency, links, len, move |sim| {
                if let Some((this, data)) = record {
                    let mut inner = this.inner.borrow_mut();
                    inner.used_bytes += len * targets.count as u64;
                    inner.blocks.insert(block, (targets, data));
                    inner.stats.puts += 1;
                    inner.stats.bytes_in += len;
                }
                landing.landed(sim);
            });
        }
    }

    fn get(&self, sim: &mut Sim, client: ClientLoc, block: BlockId, cb: GetCallback) {
        let found = {
            let inner = self.inner.borrow();
            inner.blocks.get(&block).map(|(replicas, data)| {
                // Read from the first replica (deterministic).
                (inner.datanodes[replicas.first], data.clone())
            })
        };
        match found {
            Some((dn, data)) => {
                let latency = self.sample_nn_latency(sim);
                let links = LinkPath::dedup(&[Some(dn.disk), Some(dn.nic), client.nic]);
                let len = data.len() as u64;
                let this = self.clone();
                delay_then_flow(sim, &self.fabric, latency, links, len, move |sim| {
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

    fn on_executor_lost(&self, _sim: &mut Sim, _executor: &str) {
        // Shared store: executor death loses nothing.
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

    fn fixed_spec() -> HdfsSpec {
        HdfsSpec {
            replication: 1,
            namenode_latency: Dist::constant(0.0),
        }
    }

    #[test]
    fn put_then_get_roundtrips_bytes() {
        let mut sim = Sim::new(0);
        let fabric = Fabric::new();
        let nic = fabric.add_link(1e9, "nic");
        let ebs = fabric.add_link(1e9, "ebs");
        let hdfs = HdfsStore::new(fixed_spec(), fabric.clone());
        hdfs.add_datanode(nic, ebs);
        let client_nic = fabric.add_link(1e9, "client");
        let client = ClientLoc::net(client_nic);
        let block = BlockId::shuffle("lambda-3", 0, 1, 2);

        hdfs.put(
            &mut sim,
            client,
            block,
            Bytes::from_static(b"shuffle-bytes"),
            Box::new(|_, r| r.expect("put")),
        );
        sim.run();
        assert!(hdfs.contains(&block));
        assert_eq!(hdfs.used_bytes(), 13);

        let got = Rc::new(Cell::new(false));
        let g = Rc::clone(&got);
        hdfs.get(
            &mut sim,
            client,
            block,
            Box::new(move |_, r| {
                assert_eq!(&r.expect("get")[..], b"shuffle-bytes");
                g.set(true);
            }),
        );
        sim.run();
        assert!(got.get());
    }

    #[test]
    fn writes_bottleneck_on_datanode_ebs() {
        let mut sim = Sim::new(0);
        let fabric = Fabric::new();
        let nic = fabric.add_link(1e9, "nic");
        let ebs = fabric.add_link(100.0, "ebs"); // 100 B/s
        let hdfs = HdfsStore::new(fixed_spec(), fabric.clone());
        hdfs.add_datanode(nic, ebs);
        let c1 = fabric.add_link(1e9, "c1");
        let c2 = fabric.add_link(1e9, "c2");
        // Two writers of 500 B each share 100 B/s → both land at t=10.
        for (i, c) in [c1, c2].iter().enumerate() {
            hdfs.put(
                &mut sim,
                ClientLoc::net(*c),
                BlockId::shuffle(format!("e{i}"), 0, i as u64, 0),
                Bytes::from(vec![0u8; 500]),
                Box::new(|_, r| r.expect("put")),
            );
        }
        sim.run();
        assert!((sim.now().as_secs_f64() - 10.0).abs() < 1e-3);
    }

    #[test]
    fn survives_executor_loss() {
        let mut sim = Sim::new(0);
        let fabric = Fabric::new();
        let nic = fabric.add_link(1e9, "nic");
        let ebs = fabric.add_link(1e9, "ebs");
        let hdfs = HdfsStore::new(fixed_spec(), fabric.clone());
        hdfs.add_datanode(nic, ebs);
        let block = BlockId::shuffle("lambda-1", 0, 0, 0);
        hdfs.put(
            &mut sim,
            ClientLoc::default(),
            block,
            Bytes::from_static(b"x"),
            Box::new(|_, r| r.expect("put")),
        );
        sim.run();
        hdfs.on_executor_lost(&mut sim, "lambda-1");
        assert!(hdfs.contains(&block), "HDFS keeps dead executors' blocks");
        assert!(hdfs.survives_executor_loss());
    }

    #[test]
    fn replication_multiplies_usage_and_flows() {
        let mut sim = Sim::new(0);
        let fabric = Fabric::new();
        let hdfs = HdfsStore::new(
            HdfsSpec {
                replication: 2,
                namenode_latency: Dist::constant(0.0),
            },
            fabric.clone(),
        );
        for i in 0..2 {
            let nic = fabric.add_link(1e9, format!("nic{i}"));
            let ebs = fabric.add_link(1e9, format!("ebs{i}"));
            hdfs.add_datanode(nic, ebs);
        }
        hdfs.put(
            &mut sim,
            ClientLoc::default(),
            BlockId::shuffle("e", 0, 0, 0),
            Bytes::from(vec![1u8; 100]),
            Box::new(|_, r| r.expect("put")),
        );
        sim.run();
        assert_eq!(hdfs.used_bytes(), 200);
    }

    #[test]
    fn round_robin_spreads_blocks() {
        let mut sim = Sim::new(0);
        let fabric = Fabric::new();
        let hdfs = HdfsStore::new(fixed_spec(), fabric.clone());
        let mut ebs_links = Vec::new();
        for i in 0..2 {
            let nic = fabric.add_link(1e9, format!("nic{i}"));
            let ebs = fabric.add_link(50.0, format!("ebs{i}"));
            ebs_links.push(ebs);
            hdfs.add_datanode(nic, ebs);
        }
        // Two writes of 500 B round-robin across two 50 B/s datanodes →
        // no contention, both done at t=10 (vs t=20 on one node).
        for i in 0..2u64 {
            hdfs.put(
                &mut sim,
                ClientLoc::default(),
                BlockId::shuffle("e", 0, i, 0),
                Bytes::from(vec![0u8; 500]),
                Box::new(|_, r| r.expect("put")),
            );
        }
        sim.run();
        assert!((sim.now().as_secs_f64() - 10.0).abs() < 1e-3);
    }

    #[test]
    fn missing_block_not_found() {
        let mut sim = Sim::new(0);
        let fabric = Fabric::new();
        let hdfs = HdfsStore::new(fixed_spec(), fabric.clone());
        let nic = fabric.add_link(1e9, "nic");
        let ebs = fabric.add_link(1e9, "ebs");
        hdfs.add_datanode(nic, ebs);
        let errored = Rc::new(Cell::new(false));
        let e = Rc::clone(&errored);
        hdfs.get(
            &mut sim,
            ClientLoc::default(),
            BlockId::shuffle("nobody", 9, 9, 9),
            Box::new(move |_, r| {
                assert!(matches!(r, Err(StoreError::NotFound(_))));
                e.set(true);
            }),
        );
        sim.run();
        assert!(errored.get());
        assert_eq!(hdfs.stats().failed_gets, 1);
    }
}

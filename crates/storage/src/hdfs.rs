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

use splitserve_des::{Dist, Fabric, LinkId, LinkPath};

use crate::api::StoreError;
use crate::store::{Admitted, Request, Store, Substrate};

/// Behaviour knobs for [`HdfsStore`].
#[derive(Debug, Clone)]
pub struct HdfsSpec {
    /// Namenode metadata round-trip latency in seconds.
    pub(crate) namenode_latency: Dist,
}

impl Default for HdfsSpec {
    fn default() -> Self {
        HdfsSpec {
            namenode_latency: Dist::log_normal_mean_sd(0.002, 0.001).clamped(0.0005, 0.05),
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct DataNode {
    nic: LinkId,
    disk: LinkId,
}

/// A namenode and its datanodes: the cost model behind [`HdfsStore`]. A
/// block lives on one datanode (the paper's single-node set-up implies
/// replication 1), chosen round-robin at write time.
pub struct Hdfs {
    spec: HdfsSpec,
    datanodes: Vec<DataNode>,
    next_dn: usize,
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
/// assert_eq!(hdfs.add_datanode(nic, ebs), 0); // the first datanode
/// ```
pub type HdfsStore = Store<Hdfs>;

impl Store<Hdfs> {
    /// Creates an HDFS with no datanodes yet.
    pub fn new(spec: HdfsSpec, fabric: Fabric) -> Self {
        let model = Hdfs {
            spec,
            datanodes: Vec::new(),
            next_dn: 0,
        };
        Store::over(model, fabric)
    }

    /// Adds a datanode reachable over `nic` whose disk writes go through
    /// `disk` (typically a VM's dedicated EBS link).
    pub fn add_datanode(&self, nic: LinkId, disk: LinkId) -> usize {
        let mut model = self.model();
        model.datanodes.push(DataNode { nic, disk });
        model.datanodes.len() - 1
    }
}

impl Substrate for Hdfs {
    /// Index of the datanode holding the block.
    type Placement = usize;
    const KIND: &'static str = "hdfs";
    const SURVIVES_EXECUTOR_LOSS: bool = true;

    fn admit_put(&mut self, req: &mut Request<'_>, _len: u64) -> Admitted<usize> {
        // Round-robin placement (deterministic), then the namenode trip.
        assert!(!self.datanodes.is_empty(), "HDFS has no datanodes");
        let at = self.next_dn;
        self.next_dn = (at + 1) % self.datanodes.len();
        let dn = self.datanodes[at];
        let route = LinkPath::dedup(&[req.client.nic, Some(dn.nic), Some(dn.disk)]);
        Ok((req.draw(&self.spec.namenode_latency), route, at))
    }

    fn admit_get(&mut self, req: &mut Request<'_>, hit: Option<(u64, usize)>) -> Admitted<()> {
        let (_, at) = hit.ok_or(StoreError::NotFound(req.block))?;
        let dn = self.datanodes[at];
        let route = LinkPath::dedup(&[Some(dn.disk), Some(dn.nic), req.client.nic]);
        Ok((req.draw(&self.spec.namenode_latency), route, ()))
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

    fn fixed_spec() -> HdfsSpec {
        HdfsSpec {
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

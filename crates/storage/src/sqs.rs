//! An SQS-like queue used as a shuffle substrate (the Flint approach, §2):
//! better request throughput than S3 for many small writes, but a 256 KB
//! message limit forces chunking, and the per-request price is steeper.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use splitserve_rt::Bytes;
use splitserve_cloud::{Category, Cloud};
use splitserve_des::{Dist, Fabric, LinkId, LinkPath, Sim, SimDuration, TokenBucket};

use crate::api::{BlockId, BlockStore, ClientLoc, GetCallback, PutCallback, StoreError, StoreStats};
use crate::util::delay_then_flow;

/// SQS message size limit: 256 KB.
pub const SQS_MESSAGE_BYTES: u64 = 256 * 1024;

/// Behaviour knobs for [`SqsStore`].
#[derive(Debug, Clone)]
pub struct SqsSpec {
    /// Messages per second the queue admits before pacing.
    pub message_rate: f64,
    /// Burst capacity in messages.
    pub burst: f64,
    /// Per-batch request latency in seconds.
    pub latency: Dist,
    /// Per-connection bandwidth in bytes/second.
    pub connection_bytes_per_sec: f64,
    /// Number of modeled parallel connections.
    pub connections: usize,
}

impl Default for SqsSpec {
    fn default() -> Self {
        SqsSpec {
            message_rate: 30_000.0,
            burst: 3_000.0,
            latency: Dist::log_normal_mean_sd(0.015, 0.008).clamped(0.004, 0.2),
            connection_bytes_per_sec: 60.0e6,
            connections: 64,
        }
    }
}

struct Inner {
    spec: SqsSpec,
    objects: HashMap<BlockId, Bytes>,
    bucket: TokenBucket,
    conn_links: Vec<LinkId>,
    next_conn: usize,
    stats: StoreStats,
}

/// Simulated SQS-backed block store: a block of `n` bytes becomes
/// `ceil(n / 256 KB)` messages, each a billable request on write *and* on
/// read.
#[derive(Clone)]
pub struct SqsStore {
    inner: Rc<RefCell<Inner>>,
    fabric: Fabric,
    cloud: Cloud,
}

impl std::fmt::Debug for SqsStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("SqsStore")
            .field("objects", &inner.objects.len())
            .field("stats", &inner.stats)
            .finish()
    }
}

impl SqsStore {
    /// Creates a queue-backed store; request fees go to `cloud`'s ledger.
    pub fn new(spec: SqsSpec, fabric: Fabric, cloud: Cloud) -> Self {
        let conn_links = (0..spec.connections)
            .map(|i| fabric.add_link(spec.connection_bytes_per_sec, format!("sqs-conn-{i}")))
            .collect();
        let bucket = TokenBucket::new(spec.message_rate, spec.burst);
        SqsStore {
            inner: Rc::new(RefCell::new(Inner {
                spec,
                objects: HashMap::new(),
                bucket,
                conn_links,
                next_conn: 0,
                stats: StoreStats::default(),
            })),
            fabric,
            cloud,
        }
    }

    /// Number of SQS messages a block of `len` bytes occupies.
    pub fn messages_for(len: u64) -> u64 {
        len.div_ceil(SQS_MESSAGE_BYTES).max(1)
    }

    fn admit(&self, sim: &mut Sim, messages: u64) -> SimDuration {
        let now = sim.now();
        let mut inner = self.inner.borrow_mut();
        let throttle = inner.bucket.reserve(now, messages as f64);
        inner.stats.throttle_wait_secs += throttle.as_secs_f64();
        let lat = inner.spec.latency.clone();
        drop(inner);
        throttle + SimDuration::from_secs_f64(lat.sample(sim.rng()))
    }

    fn next_conn(&self) -> LinkId {
        let mut inner = self.inner.borrow_mut();
        let l = inner.conn_links[inner.next_conn % inner.conn_links.len()];
        inner.next_conn += 1;
        l
    }

    fn bill(&self, sim: &Sim, messages: u64, what: &str) {
        self.cloud.charge(
            sim.now(),
            Category::SqsRequest,
            messages as f64 * splitserve_cloud::SQS_USD_PER_REQUEST,
            format!("{what} x{messages}"),
        );
    }
}

impl BlockStore for SqsStore {
    fn kind(&self) -> &'static str {
        "sqs"
    }

    fn survives_executor_loss(&self) -> bool {
        true
    }

    fn put(&self, sim: &mut Sim, client: ClientLoc, block: BlockId, data: Bytes, cb: PutCallback) {
        let len = data.len() as u64;
        let messages = Self::messages_for(len);
        self.bill(sim, messages, "send");
        let delay = self.admit(sim, messages);
        let conn = self.next_conn();
        let links = LinkPath::dedup(&[client.nic, Some(conn)]);
        let this = self.clone();
        delay_then_flow(sim, &self.fabric, delay, links, len, move |sim| {
            {
                let mut inner = this.inner.borrow_mut();
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
                let len = data.len() as u64;
                let messages = Self::messages_for(len);
                self.bill(sim, messages, "receive");
                let delay = self.admit(sim, messages);
                let conn = self.next_conn();
                let links = LinkPath::dedup(&[Some(conn), client.nic]);
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
    use splitserve_cloud::CloudSpec;
    use std::cell::Cell;

    fn rig() -> (Sim, Fabric, Cloud, SqsStore) {
        let sim = Sim::new(0);
        let fabric = Fabric::new();
        let cloud = Cloud::new(CloudSpec::default(), fabric.clone());
        let spec = SqsSpec {
            latency: Dist::constant(0.01),
            ..SqsSpec::default()
        };
        let sqs = SqsStore::new(spec, fabric.clone(), cloud.clone());
        (sim, fabric, cloud, sqs)
    }

    #[test]
    fn chunking_math() {
        assert_eq!(SqsStore::messages_for(0), 1);
        assert_eq!(SqsStore::messages_for(1), 1);
        assert_eq!(SqsStore::messages_for(SQS_MESSAGE_BYTES), 1);
        assert_eq!(SqsStore::messages_for(SQS_MESSAGE_BYTES + 1), 2);
        assert_eq!(SqsStore::messages_for(10 * SQS_MESSAGE_BYTES), 10);
    }

    #[test]
    fn roundtrip_and_billing_counts_chunks() {
        let (mut sim, fabric, cloud, sqs) = rig();
        let nic = fabric.add_link(1e9, "client");
        let big = Bytes::from(vec![0u8; (SQS_MESSAGE_BYTES * 3) as usize]);
        let block = BlockId::shuffle("e", 0, 0, 0);
        sqs.put(
            &mut sim,
            ClientLoc::net(nic),
            block,
            big,
            Box::new(|_, r| r.expect("put")),
        );
        sim.run();
        let sent = cloud.cost_for(Category::SqsRequest);
        assert!((sent - 3.0 * splitserve_cloud::SQS_USD_PER_REQUEST).abs() < 1e-15);

        let done = Rc::new(Cell::new(false));
        let d = Rc::clone(&done);
        sqs.get(
            &mut sim,
            ClientLoc::net(nic),
            block,
            Box::new(move |_, r| {
                assert_eq!(r.expect("get").len(), (SQS_MESSAGE_BYTES * 3) as usize);
                d.set(true);
            }),
        );
        sim.run();
        assert!(done.get());
        let total = cloud.cost_for(Category::SqsRequest);
        assert!((total - 6.0 * splitserve_cloud::SQS_USD_PER_REQUEST).abs() < 1e-15);
    }

    #[test]
    fn sqs_is_pricier_per_byte_than_s3_for_small_writes() {
        // 1 KB block: S3 = one PUT; SQS = one send + one receive.
        let s3 = splitserve_cloud::S3_USD_PER_PUT + splitserve_cloud::S3_USD_PER_GET;
        let sqs = 2.0 * splitserve_cloud::SQS_USD_PER_REQUEST;
        // …but S3's PUT price dominates: SQS is cheaper per request yet the
        // paper calls it "costlier" at scale because shuffle blocks span
        // many messages. Check the chunk blow-up crosses over by 2 MB.
        let sqs_2mb = 2.0 * 8.0 * splitserve_cloud::SQS_USD_PER_REQUEST;
        assert!(sqs < s3);
        assert!(sqs_2mb > s3);
    }

    #[test]
    fn survives_executor_loss() {
        let (mut sim, fabric, _cloud, sqs) = rig();
        let nic = fabric.add_link(1e9, "client");
        let block = BlockId::shuffle("lambda-1", 0, 0, 0);
        sqs.put(
            &mut sim,
            ClientLoc::net(nic),
            block,
            Bytes::from_static(b"x"),
            Box::new(|_, r| r.expect("put")),
        );
        sim.run();
        sqs.on_executor_lost(&mut sim, "lambda-1");
        assert!(sqs.contains(&block));
        assert!(sqs.survives_executor_loss());
    }
}

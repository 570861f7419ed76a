//! An S3-like object store: durable and shared, but throttled per bucket,
//! high-latency per request, and billed per request.
//!
//! This is Qubole-Spark-on-Lambda's shuffle substrate. The paper (§2)
//! attributes its slowness to the per-bucket request-rate caps ("the
//! service usually tends to throttle when the aggregate throughput reaches
//! a few thousands of requests per second") and notes that jobs like
//! CloudSort with ~10¹⁰ shuffle writes incur enormous request costs.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use splitserve_rt::Bytes;
use splitserve_cloud::{Category, Cloud};
use splitserve_des::{Dist, Fabric, LinkId, LinkPath, Sim, SimDuration, TokenBucket};

use crate::api::{BlockId, BlockStore, ClientLoc, GetCallback, PutCallback, StoreError, StoreStats};
use crate::util::delay_then_flow;

/// Behaviour knobs for [`S3Store`].
#[derive(Debug, Clone)]
pub struct S3Spec {
    /// Sustained PUT/POST/LIST requests per second per bucket prefix
    /// (AWS documents 3 500).
    pub put_rate: f64,
    /// Sustained GET requests per second per bucket prefix (AWS: 5 500).
    pub get_rate: f64,
    /// Burst above the sustained rate absorbed before throttling.
    pub burst: f64,
    /// First-byte latency per PUT, seconds.
    pub put_latency: Dist,
    /// First-byte latency per GET, seconds.
    pub get_latency: Dist,
    /// Per-connection bandwidth cap in bytes/second.
    pub connection_bytes_per_sec: f64,
    /// Number of modeled parallel service connections.
    pub connections: usize,
    /// Multiplier applied to throttle queueing delay: real clients hit
    /// 503 SlowDown and back off exponentially, achieving well below the
    /// nominal request-rate cap during shuffle storms.
    pub backoff_multiplier: f64,
}

impl Default for S3Spec {
    fn default() -> Self {
        S3Spec {
            put_rate: 3_500.0,
            get_rate: 5_500.0,
            burst: 500.0,
            // 2019-era S3 through the JVM's S3A path, per shuffle block
            // (connection setup + TLS + first byte): ~120 ms PUT, ~80 ms GET.
            put_latency: Dist::log_normal_mean_sd(0.12, 0.06).clamped(0.03, 1.0),
            get_latency: Dist::log_normal_mean_sd(0.08, 0.04).clamped(0.02, 0.8),
            connection_bytes_per_sec: 40.0e6, // ~40 MB/s per stream
            connections: 64,
            backoff_multiplier: 4.0,
        }
    }
}

struct Inner {
    spec: S3Spec,
    objects: HashMap<BlockId, Bytes>,
    put_bucket: TokenBucket,
    get_bucket: TokenBucket,
    conn_links: Vec<LinkId>,
    next_conn: usize,
    stats: StoreStats,
}

/// Simulated S3 bucket.
///
/// # Examples
///
/// ```
/// use splitserve_cloud::{Cloud, CloudSpec};
/// use splitserve_des::{Fabric, Sim};
/// use splitserve_storage::{S3Spec, S3Store};
///
/// let fabric = Fabric::new();
/// let cloud = Cloud::new(CloudSpec::default(), fabric.clone());
/// let s3 = S3Store::new(S3Spec::default(), fabric, cloud);
/// assert_eq!(s3.kind(), "s3");
/// # use splitserve_storage::BlockStore;
/// ```
#[derive(Clone)]
pub struct S3Store {
    inner: Rc<RefCell<Inner>>,
    fabric: Fabric,
    cloud: Cloud,
}

impl std::fmt::Debug for S3Store {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("S3Store")
            .field("objects", &inner.objects.len())
            .field("stats", &inner.stats)
            .finish()
    }
}

impl S3Store {
    /// Creates a bucket; request fees are charged to `cloud`'s ledger.
    pub fn new(spec: S3Spec, fabric: Fabric, cloud: Cloud) -> Self {
        let conn_links = (0..spec.connections)
            .map(|i| fabric.add_link(spec.connection_bytes_per_sec, format!("s3-conn-{i}")))
            .collect();
        let put_bucket = TokenBucket::new(spec.put_rate, spec.burst);
        let get_bucket = TokenBucket::new(spec.get_rate, spec.burst);
        S3Store {
            inner: Rc::new(RefCell::new(Inner {
                spec,
                objects: HashMap::new(),
                put_bucket,
                get_bucket,
                conn_links,
                next_conn: 0,
                stats: StoreStats::default(),
            })),
            fabric,
            cloud,
        }
    }

    fn next_conn(&self) -> LinkId {
        let mut inner = self.inner.borrow_mut();
        let l = inner.conn_links[inner.next_conn % inner.conn_links.len()];
        inner.next_conn += 1;
        l
    }
}

impl BlockStore for S3Store {
    fn kind(&self) -> &'static str {
        "s3"
    }

    fn survives_executor_loss(&self) -> bool {
        true
    }

    fn put(&self, sim: &mut Sim, client: ClientLoc, block: BlockId, data: Bytes, cb: PutCallback) {
        let now = sim.now();
        self.cloud.charge(
            now,
            Category::S3Put,
            splitserve_cloud::S3_USD_PER_PUT,
            format!("put {block}"),
        );
        let (throttle, latency) = {
            let mut inner = self.inner.borrow_mut();
            let raw = inner.put_bucket.reserve(now, 1.0);
            let throttle = SimDuration::from_secs_f64(
                raw.as_secs_f64() * inner.spec.backoff_multiplier,
            );
            inner.stats.throttle_wait_secs += throttle.as_secs_f64();
            let lat = inner.spec.put_latency.clone();
            (throttle, lat)
        };
        let latency = SimDuration::from_secs_f64(latency.sample(sim.rng()));
        let conn = self.next_conn();
        let links = LinkPath::dedup(&[client.nic, Some(conn)]);
        let len = data.len() as u64;
        let this = self.clone();
        delay_then_flow(sim, &self.fabric, throttle + latency, links, len, move |sim| {
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
        let now = sim.now();
        self.cloud.charge(
            now,
            Category::S3Get,
            splitserve_cloud::S3_USD_PER_GET,
            format!("get {block}"),
        );
        let data = self.inner.borrow().objects.get(&block).cloned();
        match data {
            Some(data) => {
                let (throttle, latency) = {
                    let mut inner = self.inner.borrow_mut();
                    let raw = inner.get_bucket.reserve(now, 1.0);
                    let throttle = SimDuration::from_secs_f64(
                        raw.as_secs_f64() * inner.spec.backoff_multiplier,
                    );
                    inner.stats.throttle_wait_secs += throttle.as_secs_f64();
                    (throttle, inner.spec.get_latency.clone())
                };
                let latency = SimDuration::from_secs_f64(latency.sample(sim.rng()));
                let conn = self.next_conn();
                let links = LinkPath::dedup(&[Some(conn), client.nic]);
                let len = data.len() as u64;
                let this = self.clone();
                delay_then_flow(
                    sim,
                    &self.fabric,
                    throttle + latency,
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

    fn fixed_spec() -> S3Spec {
        S3Spec {
            put_rate: 10.0,
            get_rate: 10.0,
            burst: 1.0,
            put_latency: Dist::constant(0.05),
            get_latency: Dist::constant(0.03),
            connection_bytes_per_sec: 100.0,
            connections: 4,
            backoff_multiplier: 1.0,
        }
    }

    fn rig() -> (Sim, Fabric, Cloud, S3Store) {
        let sim = Sim::new(0);
        let fabric = Fabric::new();
        let cloud = Cloud::new(CloudSpec::default(), fabric.clone());
        let s3 = S3Store::new(fixed_spec(), fabric.clone(), cloud.clone());
        (sim, fabric, cloud, s3)
    }

    #[test]
    fn put_get_roundtrip_with_latency_and_bandwidth() {
        let (mut sim, fabric, _cloud, s3) = rig();
        let nic = fabric.add_link(1e9, "client");
        let block = BlockId::shuffle("e", 0, 0, 0);
        s3.put(
            &mut sim,
            ClientLoc::net(nic),
            block,
            Bytes::from(vec![0u8; 100]),
            Box::new(|_, r| r.expect("put")),
        );
        sim.run();
        // 0.05 s latency + 100 B / 100 B/s = 1.05 s.
        assert!((sim.now().as_secs_f64() - 1.05).abs() < 1e-6);

        let done = Rc::new(Cell::new(0.0));
        let d = Rc::clone(&done);
        let t0 = sim.now().as_secs_f64();
        s3.get(
            &mut sim,
            ClientLoc::net(nic),
            block,
            Box::new(move |sim, r| {
                assert_eq!(r.expect("get").len(), 100);
                d.set(sim.now().as_secs_f64());
            }),
        );
        sim.run();
        assert!((done.get() - t0 - 1.03).abs() < 1e-6);
    }

    #[test]
    fn requests_are_billed() {
        let (mut sim, fabric, cloud, s3) = rig();
        let nic = fabric.add_link(1e9, "client");
        for i in 0..5u64 {
            s3.put(
                &mut sim,
                ClientLoc::net(nic),
                BlockId::shuffle("e", 0, i, 0),
                Bytes::from_static(b"x"),
                Box::new(|_, r| r.expect("put")),
            );
        }
        sim.run();
        let expect = 5.0 * splitserve_cloud::S3_USD_PER_PUT;
        assert!((cloud.cost_for(Category::S3Put) - expect).abs() < 1e-15);
    }

    #[test]
    fn request_storm_gets_throttled() {
        let (mut sim, fabric, _cloud, s3) = rig();
        let nic = fabric.add_link(1e12, "client");
        // 50 puts at 10 req/s with burst 1: the last is admitted ~4.9 s in.
        for i in 0..50u64 {
            s3.put(
                &mut sim,
                ClientLoc::net(nic),
                BlockId::shuffle("e", 1, i, 0),
                Bytes::from_static(b"tiny"),
                Box::new(|_, r| r.expect("put")),
            );
        }
        sim.run();
        assert!(
            sim.now().as_secs_f64() > 4.5,
            "storm finished too fast: {}",
            sim.now()
        );
        assert!(s3.stats().throttle_wait_secs > 100.0, "cumulative waits");
    }

    #[test]
    fn survives_executor_loss() {
        let (mut sim, fabric, _cloud, s3) = rig();
        let nic = fabric.add_link(1e9, "client");
        let block = BlockId::shuffle("lambda-9", 0, 0, 0);
        s3.put(
            &mut sim,
            ClientLoc::net(nic),
            block,
            Bytes::from_static(b"x"),
            Box::new(|_, r| r.expect("put")),
        );
        sim.run();
        s3.on_executor_lost(&mut sim, "lambda-9");
        assert!(s3.contains(&block));
    }

    #[test]
    fn get_missing_is_not_found_but_still_billed() {
        let (mut sim, fabric, cloud, s3) = rig();
        let nic = fabric.add_link(1e9, "client");
        let errored = Rc::new(Cell::new(false));
        let e = Rc::clone(&errored);
        s3.get(
            &mut sim,
            ClientLoc::net(nic),
            BlockId::shuffle("ghost", 0, 0, 0),
            Box::new(move |_, r| {
                assert!(matches!(r, Err(StoreError::NotFound(_))));
                e.set(true);
            }),
        );
        sim.run();
        assert!(errored.get());
        assert!(cloud.cost_for(Category::S3Get) > 0.0);
    }
}

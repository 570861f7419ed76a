//! An S3-like object store: durable and shared, but throttled per bucket,
//! high-latency per request, and billed per request.
//!
//! This is Qubole-Spark-on-Lambda's shuffle substrate. The paper (§2)
//! attributes its slowness to the per-bucket request-rate caps ("the
//! service usually tends to throttle when the aggregate throughput reaches
//! a few thousands of requests per second") and notes that jobs like
//! CloudSort with ~10¹⁰ shuffle writes incur enormous request costs.

use splitserve_cloud::{Category, Cloud, S3_USD_PER_GET, S3_USD_PER_PUT};
use splitserve_des::{Dist, Fabric, LinkId, LinkPath, SimDuration, TokenBucket};

use crate::api::StoreError;
use crate::store::{Admitted, Request, Store, Substrate};

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

/// The modeled parallel service connections of a request-billed
/// service, handed out round-robin.
pub(crate) struct Connections {
    links: Vec<LinkId>,
    next: usize,
}

impl Connections {
    /// `n` links of `bytes_per_sec` each, labelled `<service>-conn-<i>`.
    pub(crate) fn new(fabric: &Fabric, service: &str, n: usize, bytes_per_sec: f64) -> Self {
        let links = (0..n)
            .map(|i| fabric.add_link(bytes_per_sec, format!("{service}-conn-{i}")))
            .collect();
        Connections { links, next: 0 }
    }

    pub(crate) fn next(&mut self) -> LinkId {
        let link = self.links[self.next % self.links.len()];
        self.next += 1;
        link
    }
}

/// A throttled, request-billed bucket: the cost model behind [`S3Store`].
pub struct S3 {
    spec: S3Spec,
    put_bucket: TokenBucket,
    get_bucket: TokenBucket,
    connections: Connections,
    cloud: Cloud,
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
pub type S3Store = Store<S3>;

impl Store<S3> {
    /// Creates a bucket; request fees are charged to `cloud`'s ledger.
    pub fn new(spec: S3Spec, fabric: Fabric, cloud: Cloud) -> Self {
        let model = S3 {
            put_bucket: TokenBucket::new(spec.put_rate, spec.burst),
            get_bucket: TokenBucket::new(spec.get_rate, spec.burst),
            connections: Connections::new(
                &fabric,
                "s3",
                spec.connections,
                spec.connection_bytes_per_sec,
            ),
            spec,
            cloud,
        };
        Store::over(model, fabric)
    }
}

impl S3 {
    /// Takes one token from `bucket`; the client's back-off stretches the
    /// wait, which is booked on the request and returned.
    fn throttle(bucket: &mut TokenBucket, req: &mut Request<'_>, backoff: f64) -> SimDuration {
        let raw = bucket.reserve(req.sim.now(), 1.0);
        let wait = SimDuration::from_secs_f64(raw.as_secs_f64() * backoff);
        *req.throttle_wait_secs += wait.as_secs_f64();
        wait
    }
}

impl Substrate for S3 {
    type Placement = ();
    const KIND: &'static str = "s3";
    const SURVIVES_EXECUTOR_LOSS: bool = true;

    // Order: fee, token, latency draw, connection.
    fn admit_put(&mut self, req: &mut Request<'_>, _len: u64) -> Admitted<()> {
        self.cloud.charge(Category::S3Put, S3_USD_PER_PUT);
        let wait = S3::throttle(&mut self.put_bucket, req, self.spec.backoff_multiplier);
        let latency = req.draw(&self.spec.put_latency);
        let route = LinkPath::dedup(&[req.client.nic, Some(self.connections.next())]);
        Ok((wait + latency, route, ()))
    }

    // A GET is billed whether or not the key exists — S3 charges the
    // request, not the object — but only a hit takes a token.
    fn admit_get(&mut self, req: &mut Request<'_>, hit: Option<(u64, ())>) -> Admitted<()> {
        self.cloud.charge(Category::S3Get, S3_USD_PER_GET);
        hit.ok_or(StoreError::NotFound(req.block))?;
        let wait = S3::throttle(&mut self.get_bucket, req, self.spec.backoff_multiplier);
        let latency = req.draw(&self.spec.get_latency);
        let route = LinkPath::dedup(&[Some(self.connections.next()), req.client.nic]);
        Ok((wait + latency, route, ()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BlockId, BlockStore, ClientLoc};
    use splitserve_cloud::CloudSpec;
    use splitserve_des::Sim;
    use splitserve_rt::Bytes;
    use std::cell::Cell;
    use std::rc::Rc;

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

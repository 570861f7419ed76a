//! An SQS-like queue used as a shuffle substrate (the Flint approach, §2):
//! better request throughput than S3 for many small writes, but a 256 KB
//! message limit forces chunking, and the per-request price is steeper.

use splitserve_cloud::{Category, Cloud, SQS_USD_PER_REQUEST};
use splitserve_des::{Dist, Fabric, LinkPath, SimDuration, TokenBucket};

use crate::api::StoreError;
use crate::s3::Connections;
use crate::store::{Admitted, Request, Store, Substrate};

/// SQS message size limit: 256 KB.
pub(crate) const SQS_MESSAGE_BYTES: u64 = 256 * 1024;

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

/// A paced, per-message-billed queue: the cost model behind [`SqsStore`].
pub struct Sqs {
    spec: SqsSpec,
    bucket: TokenBucket,
    connections: Connections,
    cloud: Cloud,
}

/// Simulated SQS-backed block store: a block of `n` bytes becomes
/// `ceil(n / 256 KB)` messages, each a billable request on write *and* on
/// read.
pub type SqsStore = Store<Sqs>;

impl Store<Sqs> {
    /// Creates a queue-backed store; request fees go to `cloud`'s ledger.
    pub fn new(spec: SqsSpec, fabric: Fabric, cloud: Cloud) -> Self {
        let model = Sqs {
            bucket: TokenBucket::new(spec.message_rate, spec.burst),
            connections: Connections::new(
                &fabric,
                "sqs",
                spec.connections,
                spec.connection_bytes_per_sec,
            ),
            spec,
            cloud,
        };
        Store::over(model, fabric)
    }

    /// Number of SQS messages a block of `len` bytes occupies.
    pub(crate) fn messages_for(len: u64) -> u64 {
        len.div_ceil(SQS_MESSAGE_BYTES).max(1)
    }
}

impl Sqs {
    /// One request of `len` bytes: its delay. Order: message count, fee,
    /// tokens, latency draw.
    fn admit(&mut self, req: &mut Request<'_>, len: u64) -> SimDuration {
        let messages = SqsStore::messages_for(len);
        let fee = messages as f64 * SQS_USD_PER_REQUEST;
        self.cloud.charge(Category::SqsRequest, fee);
        let wait = self.bucket.reserve(req.sim.now(), messages as f64);
        *req.throttle_wait_secs += wait.as_secs_f64();
        wait + req.draw(&self.spec.latency)
    }
}

impl Substrate for Sqs {
    type Placement = ();
    const KIND: &'static str = "sqs";
    const SURVIVES_EXECUTOR_LOSS: bool = true;

    fn admit_put(&mut self, req: &mut Request<'_>, len: u64) -> Admitted<()> {
        let delay = self.admit(req, len);
        let route = LinkPath::dedup(&[req.client.nic, Some(self.connections.next())]);
        Ok((delay, route, ()))
    }

    // Unlike an S3 GET, receiving from a queue that holds no such block
    // sends no billable request: a miss is free.
    fn admit_get(&mut self, req: &mut Request<'_>, hit: Option<(u64, ())>) -> Admitted<()> {
        let (len, ()) = hit.ok_or(StoreError::NotFound(req.block))?;
        let delay = self.admit(req, len);
        let route = LinkPath::dedup(&[Some(self.connections.next()), req.client.nic]);
        Ok((delay, route, ()))
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

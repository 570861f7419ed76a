//! The typed request path allocates nothing per request: once a store, its
//! fabric and the simulator have grown to a run's high-water mark, a put /
//! get round trip asked for with `put_to` / `get_to` makes no heap
//! allocation — N round trips and 2N cost the same.
//!
//! Heap allocations are counted per thread by the workspace's shared
//! counting allocator (`tests/support/counting_alloc.rs`), so a count is a
//! pure function of the code under it.

use std::rc::Rc;

use splitserve_cloud::{Cloud, CloudSpec};
use splitserve_des::{Fabric, Sim, SimDuration, SimTime};
use splitserve_rt::Bytes;
use splitserve_storage::{
    BlockId, BlockStore, ClientLoc, FaultStore, HdfsSpec, HdfsStore, LocalDiskStore, RedisSpec,
    RedisStore, S3Spec, S3Store, SqsSpec, SqsStore, StoreClient, StoreError, StoreFaults,
};

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocs;

/// A client that checks every answer and keeps nothing.
struct Ignore;

impl StoreClient for Ignore {
    fn put_landed(self: Rc<Self>, _sim: &mut Sim, _token: u64, r: Result<(), StoreError>) {
        r.expect("put");
    }

    fn get_landed(self: Rc<Self>, _sim: &mut Sim, _token: u64, r: Result<Bytes, StoreError>) {
        assert_eq!(r.expect("get").len(), 4_096);
    }
}

/// Allocations this thread makes for `n` put / get round trips of one
/// block, each run dry before the next.
fn round_trips(store: &dyn BlockStore, sim: &mut Sim, client: ClientLoc, n: usize) -> u64 {
    let block = BlockId::shuffle("exec-0", 0, 0, 0);
    let data = Bytes::from(vec![7u8; 4_096]);
    let to: Rc<dyn StoreClient> = Rc::new(Ignore);
    let before = allocs();
    for _ in 0..n {
        store.put_to(sim, client, block, data.clone(), Rc::clone(&to), 0);
        sim.run();
        store.get_to(sim, client, block, Rc::clone(&to), 1);
        sim.run();
    }
    allocs() - before
}

#[test]
fn a_token_round_trip_allocates_nothing_after_warm_up() {
    const N: usize = 200;
    let fabric = Fabric::new();
    let cloud = Cloud::new(CloudSpec::default(), fabric.clone());
    let hdfs = HdfsStore::new(HdfsSpec::default(), fabric.clone());
    hdfs.add_datanode(
        fabric.add_link(1e9, "dn-nic"),
        fabric.add_link(1e9, "dn-ebs"),
    );
    let redis_nic = fabric.add_link(1e9, "redis-nic");
    let stores: [(&str, Rc<dyn BlockStore>); 5] = [
        ("local", Rc::new(LocalDiskStore::new(fabric.clone()))),
        ("hdfs", Rc::new(hdfs)),
        (
            "s3",
            Rc::new(S3Store::new(
                S3Spec::default(),
                fabric.clone(),
                cloud.clone(),
            )),
        ),
        (
            "sqs",
            Rc::new(SqsStore::new(
                SqsSpec::default(),
                fabric.clone(),
                cloud.clone(),
            )),
        ),
        (
            "redis",
            Rc::new(RedisStore::new(
                RedisSpec::default(),
                fabric.clone(),
                redis_nic,
            )),
        ),
    ];
    let client = ClientLoc::vm(fabric.add_link(1e9, "nic"), fabric.add_link(1e9, "disk"));
    for (name, store) in stores {
        store.register_executor("exec-0", client);
        let mut sim = Sim::new(3);
        round_trips(&*store, &mut sim, client, N);
        let once = round_trips(&*store, &mut sim, client, N);
        let twice = round_trips(&*store, &mut sim, client, 2 * N);
        println!(
            "{name}: {once} allocations for {N} round trips, {twice} for {}",
            2 * N
        );
        assert_eq!(once, twice, "{name}: a token round trip allocates");
    }
}

/// The fault decorator holds a delayed request in its own slab and passes
/// it on in the form it came in: a chaos run's token traffic reaches the
/// store without a box, delay or not.
#[test]
fn a_fault_store_holds_and_passes_token_requests_without_a_box() {
    const N: usize = 200;
    let fabric = Fabric::new();
    let faults = StoreFaults::new();
    let (from, until) = (SimTime::ZERO, SimTime::from_secs(1_000_000));
    faults.add_latency_window(from, until, SimDuration::from_millis(5));
    let store = FaultStore::wrap(Rc::new(LocalDiskStore::new(fabric.clone())), faults.clone());
    let client = ClientLoc::vm(fabric.add_link(1e9, "nic"), fabric.add_link(1e9, "disk"));
    store.register_executor("exec-0", client);
    let mut sim = Sim::new(3);
    round_trips(&*store, &mut sim, client, N);
    let once = round_trips(&*store, &mut sim, client, N);
    let twice = round_trips(&*store, &mut sim, client, 2 * N);
    assert_eq!(faults.ops_delayed(), 8 * N as u64, "every request was held");
    assert_eq!((once, twice), (0, 0), "a held token request allocates");
}

//! Op-trace pins: one seeded script per substrate, through the
//! `Rc<dyn BlockStore>` the engine holds, whose observable trace is pinned.
//!
//! The digests were recorded on the five hand-written stores (commit
//! 9293b04) before they became cost models over one `Store<S>`; the file
//! uses only constructors and `..Spec::default()`, so it compiles on both
//! sides. A line is `op index, completion time in µs, Ok(len) or the
//! error's Display`, in completion order; the trace ends with the final
//! `StoreStats` and, where requests carry a fee, the cloud's total cost.
//! Only what reaches artifacts is recorded — callback results, times,
//! stats, cost — never `contains` or `used_bytes`.
//!
//! Every script runs twice, asking through `put` / `get` callbacks and
//! through `put_to` / `get_to` tokens: both must give the pinned trace.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;

use splitserve_cloud::{Cloud, CloudSpec};
use splitserve_des::{Fabric, Sim};
use splitserve_rt::hash::assert_pinned;
use splitserve_rt::Bytes;
use splitserve_storage::{
    BlockId, BlockStore, ClientLoc, HdfsSpec, HdfsStore, LocalDiskStore, RedisSpec, RedisStore,
    S3Spec, S3Store, SqsSpec, SqsStore, StoreClient, StoreError,
};

const SEED: u64 = 18;

/// The trace: one line per completion. It is also the client the typed
/// path answers, with the op index as the token.
#[derive(Default)]
struct Trace(RefCell<String>);

impl Trace {
    fn put(&self, sim: &Sim, op: u64, r: Result<(), StoreError>) {
        let at = sim.now().as_micros();
        match r {
            Ok(()) => writeln!(self.0.borrow_mut(), "{op} {at} Ok(put)"),
            Err(e) => writeln!(self.0.borrow_mut(), "{op} {at} {e}"),
        }
        .expect("write to a String");
    }

    fn get(&self, sim: &Sim, op: u64, r: Result<Bytes, StoreError>) {
        let at = sim.now().as_micros();
        match r {
            Ok(data) => {
                let first = data.first().copied().unwrap_or(0);
                writeln!(self.0.borrow_mut(), "{op} {at} Ok({} of {first})", data.len())
            }
            Err(e) => writeln!(self.0.borrow_mut(), "{op} {at} {e}"),
        }
        .expect("write to a String");
    }
}

impl StoreClient for Trace {
    fn put_landed(self: Rc<Self>, sim: &mut Sim, token: u64, r: Result<(), StoreError>) {
        self.put(sim, token, r);
    }

    fn get_landed(self: Rc<Self>, sim: &mut Sim, token: u64, r: Result<Bytes, StoreError>) {
        self.get(sim, token, r);
    }
}

/// Runs the script: issues ops against one store — by callback, or by
/// token when `typed` — and records each completion as a trace line.
struct Script {
    sim: Sim,
    store: Rc<dyn BlockStore>,
    trace: Rc<Trace>,
    typed: bool,
    next_op: u64,
}

impl Script {
    fn put(&mut self, client: ClientLoc, block: BlockId, len: usize) {
        let (op, trace) = self.next();
        // Contents depend on the op so an overwrite is distinguishable.
        let data = Bytes::from(vec![op as u8; len]);
        if self.typed {
            self.store.put_to(&mut self.sim, client, block, data, trace, op);
        } else {
            let cb = Box::new(move |sim: &mut Sim, r| trace.put(sim, op, r));
            self.store.put(&mut self.sim, client, block, data, cb);
        }
    }

    fn get(&mut self, client: ClientLoc, block: BlockId) {
        let (op, trace) = self.next();
        if self.typed {
            self.store.get_to(&mut self.sim, client, block, trace, op);
        } else {
            let cb = Box::new(move |sim: &mut Sim, r| trace.get(sim, op, r));
            self.store.get(&mut self.sim, client, block, cb);
        }
    }

    fn next(&mut self) -> (u64, Rc<Trace>) {
        self.next_op += 1;
        (self.next_op - 1, Rc::clone(&self.trace))
    }
}

/// Runs the ~40-op script against `store` and returns its trace.
fn trace_of(
    fabric: &Fabric,
    store: Rc<dyn BlockStore>,
    cloud: Option<&Cloud>,
    typed: bool,
) -> String {
    // Two VM executors with modest links (so transfers overlap and share),
    // a Lambda with a NIC only, and a writer nobody registers.
    let e1 = ClientLoc::vm(
        fabric.add_link(20.0e6, "e1-nic"),
        fabric.add_link(30.0e6, "e1-disk"),
    );
    let e2 = ClientLoc::vm(
        fabric.add_link(25.0e6, "e2-nic"),
        fabric.add_link(35.0e6, "e2-disk"),
    );
    let lam = ClientLoc::net(fabric.add_link(10.0e6, "lam-nic"));
    store.register_executor("e1", e1);
    store.register_executor("e2", e2);
    store.register_executor("lam", lam);
    let mut s = Script {
        sim: Sim::new(SEED),
        store,
        trace: Rc::default(),
        typed,
        next_op: 0,
    };
    let a0 = BlockId::shuffle("e1", 0, 0, 0);
    let a1 = BlockId::shuffle("e1", 0, 0, 1);
    let b0 = BlockId::shuffle("e2", 0, 1, 0);
    let big = BlockId::shuffle("e2", 0, 1, 1);
    let empty = BlockId::shuffle("lam", 0, 2, 0);
    let stray = BlockId::named("nobody", "stray");
    let ghost = BlockId::shuffle("ghost", 9, 9, 9);

    // Ops 0-7: concurrent puts sharing links (one over 256 KB, one empty,
    // one by an unregistered writer), a miss, and a get that races a put.
    s.put(e1, a0, 40_000);
    s.put(e1, a1, 64_000);
    s.put(e2, b0, 10_000);
    s.put(e2, big, 600_000);
    s.put(lam, empty, 0);
    s.put(lam, stray, 5_000);
    s.get(e1, ghost);
    s.get(e2, a0);
    s.sim.run();

    // Ops 8-14: owner == client read, remote reads sharing the owner's
    // links, the empty and the stray block, another miss.
    s.get(e1, a0);
    s.get(e2, a1);
    s.get(lam, big);
    s.get(e1, big);
    s.get(e2, empty);
    s.get(e1, stray);
    s.get(lam, ghost);
    s.sim.run();

    // Op 15: the one put a tiny Redis refuses — before any re-put, so how
    // an overwrite is accounted cannot move this trace. Ops 16-17: re-put
    // of a live id with fewer bytes, read back.
    s.put(e1, BlockId::shuffle("e1", 0, 9, 9), 900_000);
    s.sim.run();
    s.put(e1, a0, 20_000);
    s.sim.run();
    s.get(e2, a0);
    s.sim.run();

    // Ops 18-37: a burst of small requests at one instant, enough to run
    // a tight S3 / SQS token bucket dry.
    for i in 0..12u64 {
        let (client, owner) = if i % 2 == 0 { (e1, "e1") } else { (e2, "e2") };
        s.put(client, BlockId::shuffle(owner, 1, i, 0), 1_000);
    }
    s.sim.run();
    for i in 0..8u64 {
        let owner = if i % 2 == 0 { "e1" } else { "e2" };
        s.get(lam, BlockId::shuffle(owner, 1, i, 0));
    }
    s.sim.run();

    // Ops 38-42: e1 dies with a put still in flight; reads of its blocks,
    // of a survivor's block and of a block it never wrote.
    s.put(e1, BlockId::shuffle("e1", 2, 0, 0), 30_000);
    s.store.on_executor_lost(&mut s.sim, "e1");
    s.sim.run();
    s.get(e2, a1);
    s.get(e2, BlockId::shuffle("e1", 2, 0, 0));
    s.get(lam, b0);
    s.get(e2, BlockId::shuffle("e1", 7, 7, 7));
    s.sim.run();

    let mut trace = s.trace.0.borrow().clone();
    writeln!(trace, "{:?}", s.store.stats()).expect("write to a String");
    if let Some(cloud) = cloud {
        writeln!(trace, "cost {:?}", cloud.total_cost()).expect("write to a String");
    }
    trace
}

#[test]
fn local_disk_op_trace_is_pinned() {
    for typed in [false, true] {
        let fabric = Fabric::new();
        let store = Rc::new(LocalDiskStore::new(fabric.clone()));
        let trace = trace_of(&fabric, store, None, typed);
        assert!(trace.contains("executor e1 lost"), "{trace}");
        assert_pinned("local-disk op trace", trace.as_bytes(), LOCAL_DIGEST);
    }
}

#[test]
fn hdfs_op_trace_is_pinned() {
    for typed in [false, true] {
        let fabric = Fabric::new();
        let hdfs = HdfsStore::new(HdfsSpec::default(), fabric.clone());
        // Two unequal datanodes: round-robin placement decides every time.
        hdfs.add_datanode(
            fabric.add_link(40.0e6, "dn0-nic"),
            fabric.add_link(12.0e6, "dn0-ebs"),
        );
        hdfs.add_datanode(
            fabric.add_link(15.0e6, "dn1-nic"),
            fabric.add_link(50.0e6, "dn1-ebs"),
        );
        let trace = trace_of(&fabric, Rc::new(hdfs), None, typed);
        assert_pinned("hdfs op trace", trace.as_bytes(), HDFS_DIGEST);
    }
}

#[test]
fn s3_op_trace_is_pinned() {
    for typed in [false, true] {
        let fabric = Fabric::new();
        let cloud = Cloud::new(CloudSpec::default(), fabric.clone());
        let spec = S3Spec {
            put_rate: 20.0,
            get_rate: 30.0,
            burst: 3.0,
            connections: 3,
            ..S3Spec::default()
        };
        let store = Rc::new(S3Store::new(spec, fabric.clone(), cloud.clone()));
        let trace = trace_of(&fabric, store.clone(), Some(&cloud), typed);
        assert!(
            store.stats().throttle_wait_secs > 0.0,
            "the bucket never ran dry"
        );
        assert_pinned("s3 op trace", trace.as_bytes(), S3_DIGEST);
    }
}

#[test]
fn sqs_op_trace_is_pinned() {
    for typed in [false, true] {
        let fabric = Fabric::new();
        let cloud = Cloud::new(CloudSpec::default(), fabric.clone());
        let spec = SqsSpec {
            message_rate: 40.0,
            burst: 4.0,
            connections: 3,
            ..SqsSpec::default()
        };
        let store = Rc::new(SqsStore::new(spec, fabric.clone(), cloud.clone()));
        let trace = trace_of(&fabric, store.clone(), Some(&cloud), typed);
        assert!(
            store.stats().throttle_wait_secs > 0.0,
            "the bucket never ran dry"
        );
        assert_pinned("sqs op trace", trace.as_bytes(), SQS_DIGEST);
    }
}

#[test]
fn redis_op_trace_is_pinned() {
    for typed in [false, true] {
        let fabric = Fabric::new();
        let nic = fabric.add_link(45.0e6, "redis-nic");
        let spec = RedisSpec {
            capacity_bytes: 1_500_000,
            ..RedisSpec::default()
        };
        let store = Rc::new(RedisStore::new(spec, fabric.clone(), nic));
        let trace = trace_of(&fabric, store, None, typed);
        assert!(trace.contains("redis out of memory"), "{trace}");
        assert_pinned("redis op trace", trace.as_bytes(), REDIS_DIGEST);
    }
}

const LOCAL_DIGEST: u64 = 0xcbfc_30cf_937d_7ed0;
const HDFS_DIGEST: u64 = 0x1c34_ab3b_07c8_ab0c;
const S3_DIGEST: u64 = 0x0a22_1b46_207d_1547;
const SQS_DIGEST: u64 = 0x3c4d_e83a_4612_225a;
const REDIS_DIGEST: u64 = 0x25f9_f868_d61c_066b;

//! Conformance property tests: every store implementation must present
//! the same observable semantics — writes are durable, reads return the
//! exact (newest) bytes, the counters add up, only local stores lose data
//! with their executor — and the one deliberate asymmetry stays: an S3
//! miss is billed, an SQS miss is not. Asking by token (`put_to` /
//! `get_to`) or by callback (`put` / `get`) makes no difference a caller
//! can see, bare or under the fault decorator.

use splitserve_rt::{check, Bytes};
use std::cell::RefCell;
use std::rc::Rc;

use splitserve_cloud::{Category, Cloud, CloudSpec, S3_USD_PER_GET};
use splitserve_des::{Fabric, Sim};
use splitserve_des::{SimDuration, SimTime};
use splitserve_storage::{
    BlockId, BlockStore, ClientLoc, FaultStore, HdfsSpec, HdfsStore, LocalDiskStore, RedisSpec,
    RedisStore, S3Spec, S3Store, SqsSpec, SqsStore, StoreClient, StoreError, StoreFaults,
    StoreStats,
};

/// One store of each kind over `fabric`; request fees go to `cloud`.
fn all_stores(fabric: &Fabric, cloud: &Cloud) -> Vec<(&'static str, Rc<dyn BlockStore>)> {
    all_stores_with(fabric, cloud, RedisSpec::default())
}

/// [`all_stores`], with Redis built from `redis`.
fn all_stores_with(
    fabric: &Fabric,
    cloud: &Cloud,
    redis: RedisSpec,
) -> Vec<(&'static str, Rc<dyn BlockStore>)> {
    let local = LocalDiskStore::new(fabric.clone());
    let hdfs = HdfsStore::new(HdfsSpec::default(), fabric.clone());
    let nn = fabric.add_link(1e9, "hdfs-nic");
    let ebs = fabric.add_link(1e9, "hdfs-ebs");
    hdfs.add_datanode(nn, ebs);
    let redis_nic = fabric.add_link(1e9, "redis-nic");
    vec![
        ("local", Rc::new(local) as Rc<dyn BlockStore>),
        ("hdfs", Rc::new(hdfs)),
        (
            "s3",
            Rc::new(S3Store::new(S3Spec::default(), fabric.clone(), cloud.clone())),
        ),
        (
            "sqs",
            Rc::new(SqsStore::new(SqsSpec::default(), fabric.clone(), cloud.clone())),
        ),
        (
            "redis",
            Rc::new(RedisStore::new(redis, fabric.clone(), redis_nic)),
        ),
    ]
}

/// What a store layer is: the bare store, or a decorator over it.
type Wrap = fn(Rc<dyn BlockStore>) -> Rc<dyn BlockStore>;

/// put → get roundtrips exact bytes on every store, for arbitrary
/// block contents and ids — a zero-length block and an overwritten one
/// included — and the byte counters equal the payload sums.
#[test]
fn every_store_roundtrips_blocks() {
    check::run("every_store_roundtrips_blocks", 12, |g| {
        let mut payloads = g.vec(1, 8, |g| g.bytes(0, 4_096));
        payloads.push(Vec::new());
        let overwritten = std::mem::replace(&mut payloads[0], g.bytes(1, 4_096));
        let seed = g.u64();
        let mut sim = Sim::new(seed);
        let fabric = Fabric::new();
        let cloud = Cloud::new(CloudSpec::default(), fabric.clone());
        for (name, store) in all_stores(&fabric, &cloud) {
            let nic = fabric.add_link(1e9, format!("client-{name}"));
            let disk = fabric.add_link(1e9, format!("disk-{name}"));
            let client = ClientLoc::vm(nic, disk);
            store.register_executor("exec-0", client);
            // Write block 0's first version, then — once it has landed —
            // all blocks at once: block 0 is overwritten.
            let versions = std::iter::once((0, &overwritten)).chain(payloads.iter().enumerate());
            for (nth, (i, p)) in versions.enumerate() {
                if nth == 1 {
                    sim.run();
                }
                store.put(
                    &mut sim,
                    client,
                    BlockId::shuffle("exec-0", 0, i as u64, 0),
                    Bytes::from(p.clone()),
                    Box::new(move |_, r| {
                        r.expect("put must succeed");
                    }),
                );
            }
            sim.run();
            // Read them back and compare bytes.
            #[allow(clippy::type_complexity)]
            let results: Rc<RefCell<Vec<(usize, Vec<u8>)>>> =
                Rc::new(RefCell::new(Vec::new()));
            for (i, _) in payloads.iter().enumerate() {
                let res = Rc::clone(&results);
                store.get(
                    &mut sim,
                    client,
                    BlockId::shuffle("exec-0", 0, i as u64, 0),
                    Box::new(move |_, r| {
                        res.borrow_mut().push((i, r.expect("get must succeed").to_vec()));
                    }),
                );
            }
            sim.run();
            let mut got = results.borrow().clone();
            got.sort_by_key(|(i, _)| *i);
            assert_eq!(got.len(), payloads.len(), "store {name}");
            for (i, bytes) in got {
                assert_eq!(&bytes, &payloads[i], "store {name} block {i}");
            }
            let stats = store.stats();
            let payload_bytes = payloads.iter().map(Vec::len).sum::<usize>();
            assert_eq!(stats.puts as usize, payloads.len() + 1);
            assert_eq!(stats.gets as usize, payloads.len());
            let written = payload_bytes + overwritten.len();
            assert_eq!(stats.bytes_in as usize, written, "store {name}");
            assert_eq!(stats.bytes_out as usize, payload_bytes, "store {name}");
            assert_eq!(stats.failed_gets, 0, "store {name}");
        }
    });
}

/// Executor loss semantics: exactly the local store loses blocks.
#[test]
fn only_local_store_loses_blocks_on_executor_death() {
    check::run("only_local_store_loses_blocks_on_executor_death", 8, |g| {
        let seed = g.u64();
        let mut sim = Sim::new(seed);
        let fabric = Fabric::new();
        let cloud = Cloud::new(CloudSpec::default(), fabric.clone());
        for (name, store) in all_stores(&fabric, &cloud) {
            let nic = fabric.add_link(1e9, format!("c-{name}"));
            let disk = fabric.add_link(1e9, format!("d-{name}"));
            let client = ClientLoc::vm(nic, disk);
            store.register_executor("doomed", client);
            let block = BlockId::shuffle("doomed", 1, 0, 0);
            store.put(
                &mut sim,
                client,
                block,
                Bytes::from_static(b"payload"),
                Box::new(|_, r| {
                    r.expect("put");
                }),
            );
            sim.run();
            assert!(store.contains(&block), "store {name}");
            store.on_executor_lost(&mut sim, "doomed");
            let survives = store.contains(&block);
            assert_eq!(
                survives,
                store.survives_executor_loss(),
                "store {name} contradicts its own contract"
            );
            assert_eq!(name == "local", !survives);
        }
    });
}

/// `forget_shuffle` drops exactly that shuffle's blocks, whichever
/// executor wrote them, on every store — bare and under the fault
/// decorator, which must forward the call. Other shuffles and named blocks stay, an
/// unknown id changes nothing, and no counter moves.
#[test]
fn forget_shuffle_drops_exactly_that_shuffles_blocks() {
    let wraps: [(&str, Wrap); 2] = [
        ("bare", |s| s),
        ("fault", |s| {
            let faults = StoreFaults::new();
            faults.fail_nth_get(u64::MAX); // armed, never strikes
            FaultStore::wrap(s, faults)
        }),
    ];
    check::run("forget_shuffle_drops_exactly_that_shuffles_blocks", 6, |g| {
        let mut sim = Sim::new(g.u64());
        let fabric = Fabric::new();
        let cloud = Cloud::new(CloudSpec::default(), fabric.clone());
        let maps = g.u64_in(1, 5);
        for (layer, wrap) in wraps {
            for (name, bare) in all_stores(&fabric, &cloud) {
                let store = wrap(Rc::clone(&bare));
                assert_eq!(Rc::ptr_eq(&store, &bare), layer == "bare", "{layer} wraps");
                let execs = ["exec-0", "exec-1"];
                let clients = execs.map(|e| {
                    let nic = fabric.add_link(1e9, format!("n-{e}-{name}-{layer}"));
                    let disk = fabric.add_link(1e9, format!("d-{e}-{name}-{layer}"));
                    let client = ClientLoc::vm(nic, disk);
                    store.register_executor(e, client);
                    client
                });
                let mut blocks = Vec::new();
                for (exec, client) in execs.into_iter().zip(clients) {
                    for shuffle in [1, 2] {
                        for map in 0..maps {
                            blocks.push((client, BlockId::shuffle(exec, shuffle, map, 0)));
                        }
                    }
                    blocks.push((client, BlockId::named(exec, "broadcast_1")));
                }
                for &(client, block) in &blocks {
                    let data = Bytes::from(vec![7u8; 16]);
                    store.put(&mut sim, client, block, data, Box::new(|_, r| r.expect("put")));
                }
                sim.run();
                let held = |store: &Rc<dyn BlockStore>| {
                    blocks.iter().filter(|(_, b)| store.contains(b)).count()
                };
                assert_eq!(held(&store), blocks.len(), "{name}/{layer}");
                let stats = store.stats();
                store.forget_shuffle(99);
                assert_eq!(held(&store), blocks.len(), "{name}/{layer}: unknown id");
                store.forget_shuffle(1);
                for (_, block) in &blocks {
                    let kept = !block.in_shuffle(1);
                    assert_eq!(store.contains(block), kept, "{name}/{layer}: {block}");
                    assert_eq!(bare.contains(block), kept, "{name}/{layer}: {block}");
                }
                assert_eq!(store.stats(), stats, "{name}/{layer}: forgetting is free");
            }
        }
    });
}

/// Missing blocks consistently report NotFound (never panic, never
/// hang) on every store, and a miss bumps `failed_gets` and nothing else.
/// What a miss *costs* is the one place the substrates differ on purpose:
/// S3 bills the GET, SQS sends no request.
#[test]
fn missing_blocks_error_uniformly() {
    check::run("missing_blocks_error_uniformly", 8, |g| {
        let seed = g.u64();
        let mut sim = Sim::new(seed);
        let fabric = Fabric::new();
        let cloud = Cloud::new(CloudSpec::default(), fabric.clone());
        for (name, store) in all_stores(&fabric, &cloud) {
            let nic = fabric.add_link(1e9, format!("cl-{name}"));
            let client = ClientLoc::net(nic);
            let outcome = Rc::new(RefCell::new(None));
            let o = Rc::clone(&outcome);
            store.get(
                &mut sim,
                client,
                BlockId::shuffle("ghost", 9, 9, 9),
                Box::new(move |_, r| *o.borrow_mut() = Some(r.is_err())),
            );
            sim.run();
            assert_eq!(*outcome.borrow(), Some(true), "store {name}");
            let only_a_failed_get = StoreStats {
                failed_gets: 1,
                ..StoreStats::default()
            };
            assert_eq!(store.stats(), only_a_failed_get, "store {name}");
        }
        assert_eq!(cloud.cost_for(Category::S3Get), S3_USD_PER_GET);
        assert_eq!(cloud.cost_for(Category::SqsRequest), 0.0);
        assert_eq!(cloud.total_cost(), S3_USD_PER_GET);
    });
}

/// What a caller hears, one line per answer in arrival order: the op, the
/// instant in µs, and the outcome (a read's length and byte sum). It is
/// also the client the typed path answers, with the op as the token.
#[derive(Default)]
struct Heard(RefCell<String>);

impl Heard {
    fn note(&self, sim: &Sim, op: u64, outcome: Result<String, StoreError>) {
        let at = sim.now().as_micros();
        let line = match outcome {
            Ok(what) => format!("{op} {at} Ok({what})\n"),
            Err(e) => format!("{op} {at} {e}\n"),
        };
        self.0.borrow_mut().push_str(&line);
    }

    fn put(&self, sim: &Sim, op: u64, r: Result<(), StoreError>) {
        self.note(sim, op, r.map(|()| "put".to_string()));
    }

    fn get(&self, sim: &Sim, op: u64, r: Result<Bytes, StoreError>) {
        let sum = |b: &Bytes| b.iter().map(|&x| u64::from(x)).sum::<u64>();
        self.note(sim, op, r.map(|b| format!("{} of {}", b.len(), sum(&b))));
    }
}

impl StoreClient for Heard {
    fn put_landed(self: Rc<Self>, sim: &mut Sim, token: u64, r: Result<(), StoreError>) {
        self.put(sim, token, r);
    }

    fn get_landed(self: Rc<Self>, sim: &mut Sim, token: u64, r: Result<Bytes, StoreError>) {
        self.get(sim, token, r);
    }
}

/// The script both paths run against store `which` of a fresh world seeded
/// `seed`, under `wrap`: what the caller heard, the final counters and the
/// cloud's bill. Redis holds 4 KB, so the batch after the first refuses
/// its put at once, and every store answers a missing block's get at once.
fn heard(seed: u64, which: usize, wrap: Wrap, typed: bool) -> (String, StoreStats, f64) {
    let mut sim = Sim::new(seed);
    let fabric = Fabric::new();
    let cloud = Cloud::new(CloudSpec::default(), fabric.clone());
    let redis = RedisSpec {
        capacity_bytes: 4_096,
        ..RedisSpec::default()
    };
    let (_, bare) = all_stores_with(&fabric, &cloud, redis).swap_remove(which);
    let store = wrap(bare);
    let client = ClientLoc::vm(fabric.add_link(1e8, "nic"), fabric.add_link(2e8, "disk"));
    store.register_executor("exec-0", client);
    let heard = Rc::new(Heard::default());
    let block = |map| BlockId::shuffle("exec-0", 0, map, 0);
    let mut op = 0;
    let mut put = |sim: &mut Sim, map, len: usize| {
        let (data, to) = (Bytes::from(vec![op as u8 + 1; len]), Rc::clone(&heard));
        if typed {
            store.put_to(sim, client, block(map), data, to, op);
        } else {
            store.put(sim, client, block(map), data, Box::new(move |sim, r| to.put(sim, op, r)));
        }
        op += 1;
    };
    put(&mut sim, 0, 1_000);
    put(&mut sim, 1, 2_000);
    put(&mut sim, 2, 300);
    sim.run();
    put(&mut sim, 3, 3_000);
    put(&mut sim, 0, 10);
    sim.run();
    let mut op = 10;
    let mut get = |sim: &mut Sim, map| {
        let to = Rc::clone(&heard);
        if typed {
            store.get_to(sim, client, block(map), to, op);
        } else {
            store.get(sim, client, block(map), Box::new(move |sim, r| to.get(sim, op, r)));
        }
        op += 1;
    };
    for map in [9, 0, 1, 2, 3] {
        get(&mut sim, map);
    }
    sim.run();
    let heard = heard.0.borrow().clone();
    (heard, store.stats(), cloud.total_cost())
}

/// `put_to` / `get_to` answer exactly as `put` / `get` do — the same
/// results at the same virtual instants, in the same order, with the same
/// counters and bill — on all five stores, bare and under the fault
/// decorator (which delays the first batch and fails a put and a get), and
/// for the answers a store gives at once: a refused put, a missing block.
#[test]
fn token_requests_answer_like_callbacks() {
    let layers: [(&str, Wrap); 2] = [
        ("bare", |s| s),
        ("fault", |s| {
            let faults = StoreFaults::new();
            let (from, until) = (SimTime::ZERO, SimTime::from_micros(1));
            faults.add_latency_window(from, until, SimDuration::from_millis(30));
            faults.fail_nth_put(2);
            faults.fail_nth_get(3);
            FaultStore::wrap(s, faults)
        }),
    ];
    check::run("token_requests_answer_like_callbacks", 4, |g| {
        let seed = g.u64();
        for (layer, wrap) in layers {
            for which in 0..5 {
                let by_callback = heard(seed, which, wrap, false);
                let by_token = heard(seed, which, wrap, true);
                let name = format!("store {which} / {layer}");
                assert_eq!(by_token, by_callback, "{name}");
                let (heard, stats, _) = by_token;
                assert_eq!(heard.lines().count(), 10, "{name}: every op answered once\n{heard}");
                assert!(heard.contains("block not found"), "{name}\n{heard}");
                // Redis also misses the block it refused.
                let refused = heard.contains("redis out of memory");
                assert_eq!(refused, which == 4, "{name}\n{heard}");
                assert_eq!(stats.failed_gets, 1 + u64::from(refused), "{name}");
            }
        }
    });
}

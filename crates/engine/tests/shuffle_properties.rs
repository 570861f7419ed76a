//! Property tests for the shuffle data plane's two contracts:
//!
//! 1. **Hash grouping ≡ ordered-map reference.** The `HashGroup`-based
//!    map/reduce combine must produce the same per-key results a
//!    `BTreeMap` reference implementation does, for arbitrary inputs.
//! 2. **Byte-determinism.** Two same-seed runs — even through different
//!    plan instances — must serialize byte-identical shuffle blocks, so
//!    replays and cross-substrate reruns stay reproducible.
//! 3. **Join ≡ nested loop, row for row**, cloning a left value only
//!    ahead of its key's last match.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use splitserve_codec::{Decode, Encode};
use splitserve_rt::FastMap;

use splitserve_des::{Fabric, Sim};
use splitserve_engine::{
    bucket_of, collect_partitions, input_shuffles, Dataset, Engine, EngineConfig, ExecutorDesc,
    PartitionData, ShuffleDep, TaskContext, WorkModel,
};
use splitserve_obs::Obs;
use splitserve_storage::LocalDiskStore;
use splitserve_rt::check::{self, Gen};
use splitserve_rt::Bytes;

fn ctx() -> TaskContext {
    TaskContext::empty(WorkModel::default())
}

/// What a map body measured (encoded bytes, combine seconds) reaches the
/// registry of a job run through the engine; a disabled one stays silent.
#[test]
fn shuffle_metrics_record_only_when_enabled() {
    let run = |obs: Obs| {
        let ds = Dataset::parallelize((0..1_000u64).map(|i| (i % 16, 1u64)).collect(), 1)
            .reduce_by_key(4, |a, b| a + b);
        let fabric = Fabric::new();
        let cfg = EngineConfig {
            obs: obs.clone(),
            ..EngineConfig::default()
        };
        let engine = Engine::new(cfg, Rc::new(LocalDiskStore::new(fabric.clone())));
        let mut sim = Sim::new(7);
        let (nic, disk) = (fabric.add_link(1e9, "nic"), fabric.add_link(1e9, "disk"));
        engine.register_executor(&mut sim, ExecutorDesc::vm("e-vm-0", nic, disk, 8192));
        let done = Rc::new(Cell::new(false));
        let d = Rc::clone(&done);
        engine.submit_job(&mut sim, ds.node(), move |_, _| d.set(true));
        sim.run();
        assert!(done.get(), "job completes");
        obs
    };

    let enabled = run(Obs::enabled());
    assert!(
        enabled.metrics.counter_total("shuffle_encode_bytes_total") > 0,
        "enabled obs must count encoded shuffle bytes"
    );
    let hist = enabled
        .metrics
        .histogram("shuffle_combine_seconds", &[])
        .expect("enabled obs must record the combine histogram");
    assert_eq!(hist.count, 1, "one map task => one combine observation");

    let disabled = run(Obs::disabled());
    assert_eq!(
        disabled.metrics.counter_total("shuffle_encode_bytes_total"),
        0,
        "disabled obs must record nothing"
    );
    assert!(disabled
        .metrics
        .histogram("shuffle_combine_seconds", &[])
        .is_none());
}

/// Runs the map side of every shuffle `wide` reads and then its reduce
/// side, by hand, and returns the reduce partitions in order, plus every
/// serialized block (shuffle by shuffle, in map-task, then
/// reduce-partition order) for byte-level comparison.
fn run_wide<T: Clone + Send + Sync + 'static>(wide: &Dataset<T>) -> (Vec<PartitionData>, Vec<Bytes>) {
    let node = wide.node();
    let deps: Vec<Arc<ShuffleDep>> = input_shuffles(&node);
    let reduces = deps[0].num_partitions;
    let mut blocks_flat = Vec::new();
    let mut inputs: Vec<FastMap<_, Vec<Bytes>>> = (0..reduces).map(|_| FastMap::default()).collect();
    for dep in &deps {
        for m in 0..dep.parent.num_partitions() {
            let mut c = ctx();
            let data = dep.parent.compute(&mut c, m);
            for (r, b) in (dep.partitioner)(&mut c, data).into_iter().enumerate() {
                blocks_flat.push(b.bytes.clone());
                let fetched = inputs[r].entry(dep.id).or_default();
                if !b.bytes.is_empty() {
                    fetched.push(b.bytes);
                }
            }
        }
    }
    let parts = inputs
        .into_iter()
        .enumerate()
        .map(|(r, fetched)| node.compute(&mut TaskContext::new(WorkModel::default(), fetched), r))
        .collect();
    (parts, blocks_flat)
}

/// [`run_wide`] for a single-shuffle plan, with the reduce output collected.
fn run_shuffle<T: Clone + Send + Sync + 'static>(shuffled: &Dataset<T>) -> (Vec<T>, Vec<Bytes>) {
    assert_eq!(input_shuffles(&shuffled.node()).len(), 1);
    let (parts, blocks) = run_wide(shuffled);
    (collect_partitions(parts), blocks)
}

/// Half the time a few dozen keys repeated many times; otherwise a key
/// space wide enough that each table of a 64-wide shuffle holds several.
fn random_records(g: &mut Gen) -> Vec<(u64, u64)> {
    let (key_space, len) = if g.bool() {
        (g.u64_in(1, 50), 400)
    } else {
        (g.u64_in(50, 4_000), 1_500)
    };
    g.vec(0, len, |g| (g.u64_in(0, key_space), g.u64_in(0, 1_000)))
}

/// A shuffle width: a small one, or a power of two up to 64, for which
/// every key one reduce task holds has the same low `log2 width` hash
/// bits (all keys of a partition share `hash % width`).
fn width(g: &mut Gen) -> usize {
    if g.bool() {
        g.usize_in(1, 6)
    } else {
        1 << g.usize_in(3, 7)
    }
}

#[test]
fn reduce_by_key_matches_btreemap_reference() {
    check::run("reduce_by_key_matches_reference", 60, |g| {
        let records = random_records(g);
        let partitions = width(g);
        let maps = g.usize_in(1, 4);

        let mut reference: BTreeMap<u64, u64> = BTreeMap::new();
        for (k, v) in &records {
            *reference.entry(*k).or_insert(0) = reference.get(k).copied().unwrap_or(0) + v;
        }

        let ds = Dataset::parallelize(records, maps).reduce_by_key(partitions, |a, b| a + b);
        let (mut got, _) = run_shuffle(&ds);
        got.sort_unstable();
        let expect: Vec<(u64, u64)> = reference.into_iter().collect();
        assert_eq!(got, expect, "hash combine must equal ordered reference");
    });
}

#[test]
fn group_by_key_matches_btreemap_reference() {
    check::run("group_by_key_matches_reference", 40, |g| {
        let records = random_records(g);
        let partitions = width(g);
        let maps = g.usize_in(1, 4);

        let mut reference: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        for (k, v) in &records {
            reference.entry(*k).or_default().push(*v);
        }
        // Grouping order across map tasks is not part of the contract;
        // compare sorted value multisets.
        let expect: Vec<(u64, Vec<u64>)> = reference
            .into_iter()
            .map(|(k, mut vs)| {
                vs.sort_unstable();
                (k, vs)
            })
            .collect();

        let ds = Dataset::parallelize(records, maps).group_by_key(partitions);
        let (mut got, _) = run_shuffle(&ds);
        got.sort_unstable_by_key(|(k, _)| *k);
        for (_, vs) in &mut got {
            vs.sort_unstable();
        }
        assert_eq!(got, expect, "hash grouping must equal ordered reference");
    });
}

#[test]
fn cogroup_matches_btreemap_reference() {
    check::run("cogroup_matches_reference", 40, |g| {
        let (left, right) = (random_records(g), random_records(g));
        let partitions = width(g);
        let (left_maps, right_maps) = (g.usize_in(1, 4), g.usize_in(1, 4));

        // Within a key, values arrive map task by map task in input order,
        // which for `parallelize`'s contiguous chunks is input order.
        let mut expect: BTreeMap<u64, (Vec<u64>, Vec<u64>)> = BTreeMap::new();
        for (k, v) in &left {
            expect.entry(*k).or_default().0.push(*v);
        }
        for (k, w) in &right {
            expect.entry(*k).or_default().1.push(*w);
        }

        let ds = Dataset::parallelize(left, left_maps)
            .cogroup(&Dataset::parallelize(right, right_maps), partitions);
        let mut got = collect_partitions(run_wide(&ds).0);
        got.sort_unstable_by_key(|(k, _)| *k);
        assert_eq!(got, expect.into_iter().collect::<Vec<_>>());
    });
}

/// What `join` must produce, row for row: reduce partition by reduce
/// partition, the right records of that partition in stream order (map
/// task by map task, so input order), each against the left records of
/// its key in their arrival order.
fn nested_loop_join<V: Clone, W: Clone>(
    left: &[(u64, V)],
    right: &[(u64, W)],
    partitions: usize,
) -> Vec<(u64, (V, W))> {
    let mut rows = Vec::new();
    for part in 0..partitions {
        for (k, w) in right.iter().filter(|(k, _)| bucket_of(k, partitions) == part) {
            for (_, v) in left.iter().filter(|(lk, _)| lk == k) {
                rows.push((*k, (v.clone(), w.clone())));
            }
        }
    }
    rows
}

#[test]
fn join_matches_nested_loop_reference_in_exact_row_order() {
    check::run("join_matches_nested_loop", 60, |g| {
        // Narrow key spaces that only partly overlap: duplicate keys on
        // both sides, and keys without a partner on both sides.
        let (left_keys, right_keys) = (g.u64_in(1, 24), g.u64_in(1, 24));
        let left: Vec<(u64, String)> =
            g.vec(0, 120, |g| (g.u64_in(0, left_keys), format!("l{}", g.u64_in(0, 1_000))));
        let right: Vec<(u64, String)> =
            g.vec(0, 120, |g| (g.u64_in(6, 6 + right_keys), format!("r{}", g.u64_in(0, 1_000))));
        let partitions = width(g);
        let expect = nested_loop_join(&left, &right, partitions);

        let joined = Dataset::parallelize(left, g.usize_in(1, 4))
            .join(&Dataset::parallelize(right, g.usize_in(1, 4)), partitions);
        let got: Vec<(u64, (String, String))> = collect_partitions(run_wide(&joined).0);
        assert_eq!(got, expect, "same rows in the same order");
    });
}

/// A left value whose `clone()`s are counted. One test owns the counter.
#[derive(Debug, PartialEq)]
struct Counted(u64);
static COUNTED_CLONES: AtomicUsize = AtomicUsize::new(0);

impl Clone for Counted {
    fn clone(&self) -> Self {
        COUNTED_CLONES.fetch_add(1, Ordering::Relaxed);
        Counted(self.0)
    }
}

impl Encode for Counted {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }
}

impl Decode for Counted {
    fn decode(input: &mut &[u8]) -> splitserve_codec::Result<Self> {
        u64::decode(input).map(Counted)
    }
}

/// `join` moves a left value out on its key's last match and clones it
/// only before that: nothing on a 1:1 join, `(m − 1) · n` for a key with
/// `n` left and `m` right records — and the rows are still all there.
#[test]
fn join_clones_a_left_value_only_before_its_last_match() {
    let census = |left: Vec<(u64, Counted)>, right: Vec<(u64, u64)>| {
        let expect = nested_loop_join(&left, &right, 3);
        let joined = Dataset::parallelize(left, 2).join(&Dataset::parallelize(right, 2), 3);
        let before = COUNTED_CLONES.load(Ordering::Relaxed);
        let (parts, _) = run_wide(&joined);
        let clones = COUNTED_CLONES.load(Ordering::Relaxed) - before;
        // Each partition has one owner here, so collecting moves the rows.
        assert_eq!(collect_partitions::<(u64, (Counted, u64))>(parts), expect);
        clones
    };

    let one_to_one = census(
        (0..500).map(|k| (k, Counted(k * 3))).collect(),
        (0..600).rev().map(|k| (k, k)).collect(),
    );
    assert_eq!(one_to_one, 0, "a 1:1 join clones no left value");

    // `(key, records)` per side, the keys interleaved: key 7 is 4 × 3, key 8
    // is 2 × 1, key 9 is 1 × 5, and keys 10 and 11 have no partner.
    let side = |counts: &[(u64, u64)]| -> Vec<(u64, u64)> {
        let mut rows: Vec<(u64, u64)> =
            counts.iter().flat_map(|&(k, n)| (0..n).map(move |i| (k, i))).collect();
        rows.sort_by_key(|&(k, i)| (i, k));
        rows
    };
    let left = side(&[(7, 4), (8, 2), (9, 1), (10, 3)]);
    let n_to_m = census(
        left.into_iter().map(|(k, i)| (k, Counted(k * 100 + i))).collect(),
        side(&[(7, 3), (8, 1), (9, 5), (11, 2)]),
    );
    assert_eq!(n_to_m, 8 + 4, "(m − 1) · n: 2 · 4 for key 7, none for key 8, 4 · 1 for key 9");
}

#[test]
fn same_seed_runs_produce_byte_identical_shuffle_blocks() {
    check::run("shuffle_blocks_are_deterministic", 30, |g| {
        let seed = g.u64();
        let partitions = g.usize_in(1, 5);
        let maps = g.usize_in(1, 4);
        let n = g.usize_in(0, 300);

        // Two *independent* plan instances from the same seed: determinism
        // must come from the data and the fixed-seed hash, not from shared
        // state.
        let build = || {
            let mut rng = splitserve_rt::Rng::seed_from_u64(seed);
            let records: Vec<(u64, u64)> = (0..n)
                .map(|_| (rng.next_u64() % 64, rng.next_u64() % 1_000))
                .collect();
            Dataset::parallelize(records, maps).reduce_by_key(partitions, |a, b| a.wrapping_add(*b))
        };
        let (rows_a, blocks_a) = run_shuffle(&build());
        let (rows_b, blocks_b) = run_shuffle(&build());

        assert_eq!(rows_a, rows_b, "reduce output must be identical");
        assert_eq!(blocks_a.len(), blocks_b.len());
        for (i, (a, b)) in blocks_a.iter().zip(&blocks_b).enumerate() {
            assert_eq!(&a[..], &b[..], "block {i} must be byte-identical");
        }
    });
}

/// Rows with equal keys leave `sort_by_key` in block-arrival order: map
/// task by map task, and within a task in input order. The reduce side
/// sorts stably, and anything that replaces it must keep this — the
/// payloads tell the rows apart.
#[test]
fn sort_by_key_keeps_equal_keys_in_arrival_order() {
    // Three map tasks, keys 0..4 repeated, payload = (map task, position).
    let records: Vec<(u64, Vec<u8>)> = (0..3u8)
        .flat_map(|m| (0..40u8).map(move |i| (u64::from(i % 4), vec![m, i, 0x80 | i])))
        .collect();
    let sorted = Dataset::parallelize(records.clone(), 3).sort_by_key(vec![1, 2]);
    let (got, _) = run_shuffle(&sorted);

    // The reference: a stable sort of the input in map-task order.
    let mut expect = records;
    expect.sort_by_key(|(k, _)| *k);
    assert_eq!(got, expect);
    let key0: Vec<&Vec<u8>> = got
        .iter()
        .filter(|(k, _)| *k == 0)
        .map(|(_, v)| v)
        .collect();
    assert_eq!(key0[0], &vec![0, 0, 0x80]);
    assert_eq!(
        key0[10],
        &vec![1, 0, 0x80],
        "map task 1's rows follow map task 0's"
    );
}

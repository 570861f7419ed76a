//! Allocation budgets for the data plane's hot bodies — the reduce side's
//! join and combine, a streaming `flat_map`, a wide map side, a fleet
//! job's and a PageRank iteration's streamed map tasks — and for the stage
//! cut every job submission makes — and the live heap a finished job
//! leaves in an engine.
//!
//! Heap allocations are counted per thread by the workspace's shared
//! counting allocator (`tests/support/counting_alloc.rs`), so a count is a
//! pure function of the body and its input: it repeats exactly from run to
//! run, whatever else the test harness is doing. The budgets are what the
//! bodies cost when they were last changed; they may only go down.

use std::cell::Cell;
use std::mem::size_of;
use std::rc::Rc;
use std::sync::Arc;

use splitserve_des::{Fabric, Sim};
use splitserve_engine::{
    build_stages, input_shuffles, Dataset, Engine, EngineConfig, ExecutorDesc, JobMetrics,
    LiveState, ShuffleDep, StageId, TaskContext, WorkModel,
};
use splitserve_rt::{Bytes, FastMap};
use splitserve_storage::LocalDiskStore;

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{allocs_in, live_bytes};

const RECORDS: u64 = 50_000;
const MAPS: usize = 4;
const REDUCES: usize = 4;

/// The map side of `dep`, all map tasks: the blocks each reduce partition
/// fetches, and the allocations of the partitioner bodies alone.
fn map_side(dep: &Arc<ShuffleDep>) -> (Vec<Vec<Bytes>>, u64) {
    let mut fetched: Vec<Vec<Bytes>> = vec![Vec::new(); dep.num_partitions];
    let mut allocs = 0;
    for m in 0..dep.parent.num_partitions() {
        let mut ctx = TaskContext::empty(WorkModel::default());
        let data = dep.parent.compute(&mut ctx, m);
        let (buckets, n) = allocs_in(|| (dep.partitioner)(&mut ctx, data));
        allocs += n;
        for (r, b) in buckets.into_iter().enumerate() {
            fetched[r].push(b.bytes);
        }
    }
    (fetched, allocs)
}

/// The reduce bodies of `wide` over what its shuffles' map sides produced:
/// `(map-side allocations, reduce-side allocations)`. Contexts are built
/// and results dropped outside the counted region.
fn shuffle_allocs<T: Clone + Send + Sync + 'static>(wide: &Dataset<T>) -> (u64, u64) {
    let node = wide.node();
    let mut map_allocs = 0;
    let mut inputs: Vec<FastMap<_, Vec<Bytes>>> = (0..REDUCES).map(|_| FastMap::default()).collect();
    for dep in input_shuffles(&node) {
        let (fetched, n) = map_side(&dep);
        map_allocs += n;
        for (r, blocks) in fetched.into_iter().enumerate() {
            inputs[r].insert(dep.id, blocks);
        }
    }
    let mut reduce_allocs = 0;
    for (r, fetched) in inputs.into_iter().enumerate() {
        let mut ctx = TaskContext::new(WorkModel::default(), fetched);
        let (rows, n) = allocs_in(|| node.compute(&mut ctx, r));
        reduce_allocs += n;
        drop(rows);
    }
    (map_allocs, reduce_allocs)
}

/// PageRank's join: every page's adjacency list against its rank, 1:1.
/// The one allocation a left record needs is its decoded `Vec<u64>`; the
/// table, the arena, the matched list and the output are a handful per
/// task. (Three per left record before the arena join: the decoded list, a
/// `vec![v]` per key and a `v.clone()` per match.) The table's index comes
/// from the thread's pool, so the first pass, which fills the pool, is
/// not the one measured.
#[test]
fn one_to_one_join_reduce_allocates_once_per_left_record() {
    let links: Vec<(u64, Vec<u64>)> = (0..RECORDS)
        .map(|page| (page, (0..1 + page % 7).map(|i| (page * 31 + i) % RECORDS).collect()))
        .collect();
    let ranks: Vec<(u64, f64)> = (0..RECORDS).map(|page| (page, 1.0)).collect();
    let joined =
        Dataset::parallelize(links, MAPS).join(&Dataset::parallelize(ranks, MAPS), REDUCES);

    shuffle_allocs(&joined);
    let (_, first) = shuffle_allocs(&joined);
    let (_, again) = shuffle_allocs(&joined);
    assert_eq!(first, again, "allocation counts repeat exactly");
    println!("join reduce: {first} allocations, {:.4} per left record", first as f64 / RECORDS as f64);
    assert!(
        first <= RECORDS + JOIN_REDUCE_OVERHEAD,
        "join reduce bodies made {first} allocations for {RECORDS} left records; \
         the budget is one each plus {JOIN_REDUCE_OVERHEAD}"
    );
}

/// PageRank's combine: skewed `(page, share)` contributions summed per
/// page. Neither side allocates per record: tables and buffers are sized
/// once from the input each task holds.
#[test]
fn reduce_by_key_allocates_per_task_not_per_record() {
    let mut rng = splitserve_rt::Rng::seed_from_u64(7);
    let contribs: Vec<(u64, f64)> = (0..RECORDS)
        .map(|_| {
            let u = rng.next_f64();
            ((RECORDS as f64 * u * u * u) as u64, u)
        })
        .collect();
    let summed = Dataset::parallelize(contribs, MAPS).reduce_by_key(REDUCES, |a, b| a + b);

    // The first pass also fills this thread's buffer pool; the budget is
    // the steady state a worker thread runs in.
    shuffle_allocs(&summed);
    let (map, reduce) = shuffle_allocs(&summed);
    assert_eq!((map, reduce), shuffle_allocs(&summed), "allocation counts repeat exactly");
    println!(
        "reduce_by_key: {map} map + {reduce} reduce allocations, {:.5} per record",
        (map + reduce) as f64 / RECORDS as f64
    );
    assert!(
        map <= COMBINE_MAP_BUDGET && reduce <= COMBINE_REDUCE_BUDGET,
        "reduce_by_key over {RECORDS} records made {map} map-side and {reduce} reduce-side \
         allocations; the budgets are {COMBINE_MAP_BUDGET} and {COMBINE_REDUCE_BUDGET}"
    );
}

/// A 1→3 `flat_map` streams each record's outputs into the partition it
/// builds, which starts at one row per record read and doubles twice. A
/// task allocates its generated rows and its output (three buffer sizes
/// and the `Arc`). Six a task when the generated rows had an `Arc` too;
/// before `flat_map` took any iterable, every record added one more: the
/// `Vec` it returned.
#[test]
fn flat_map_allocates_per_task_not_per_row() {
    let per_task = RECORDS / MAPS as u64;
    let tripled = Dataset::<u64>::generate(MAPS, move |p| {
        (0..per_task).map(|i| i * MAPS as u64 + p as u64).collect()
    })
    .flat_map(|x| [x, x + 1, x + 2]);
    let node = tripled.node();
    let mut allocs = 0;
    for part in 0..MAPS {
        let mut ctx = TaskContext::empty(WorkModel::default());
        let (rows, n) = allocs_in(|| node.compute(&mut ctx, part));
        allocs += n;
        drop(rows);
    }
    println!("flat_map 1→3: {allocs} allocations for {RECORDS} records");
    assert!(
        allocs <= FLAT_MAP_BUDGET,
        "{MAPS} flat_map tasks over {RECORDS} records made {allocs} allocations; \
         the budget is {FLAT_MAP_BUDGET}"
    );
}

/// A map task over 64 buckets takes 64 scratch buffers before it gives
/// any back, and the pool keeps them all (its bound is bytes, not
/// buffers): after a warm-up pass, each task allocates a constant however
/// many buckets it fills, since they are slices of a few shared buffers.
/// Every record encodes to 14 bytes and every bucket is non-empty, so the
/// warm-up grows all 64 buffers past any bucket's need.
#[test]
fn a_wide_map_task_runs_on_pooled_scratch() {
    const BUCKETS: usize = 64;
    // Keys of 4 varint bytes, values of 10.
    let records: Vec<(u64, u64)> = (0..RECORDS).map(|i| ((1 << 21) + i, u64::MAX - i)).collect();
    let grouped = Dataset::parallelize(records, MAPS).group_by_key(BUCKETS);
    let deps = input_shuffles(&grouped.node());
    map_side(&deps[0]);
    let (fetched, allocs) = map_side(&deps[0]);
    assert_eq!(allocs, map_side(&deps[0]).1, "allocation counts repeat exactly");
    let blocks = fetched.iter().flatten().filter(|b| !b.is_empty()).count() as u64;
    assert_eq!(blocks, (MAPS * BUCKETS) as u64, "every bucket of every task holds records");
    println!("64-bucket map side: {allocs} allocations for {blocks} blocks");
    assert!(
        allocs <= WIDE_MAP_BUDGET,
        "{MAPS} map tasks of {BUCKETS} buckets made {allocs} allocations; \
         the budget is {WIDE_MAP_BUDGET}"
    );
}

/// The stage cut of a fleet job's plan — generate, map, `reduce_by_key`:
/// the stage list and the result stage's one-shuffle input list. The map
/// stage reads no shuffle, the walks keep their visited nodes inline and
/// a stage's parents are derived, not stored. Five before: also a visited
/// list per stage walk and the result stage's parent list.
#[test]
fn a_fleet_job_stage_cut_allocates_its_two_lists() {
    let plan = Dataset::<u64>::generate(4, |p| (0..8u64).map(|i| i + p as u64).collect())
        .map_with_cost(|x| (*x % 7, *x), Some(1e-6))
        .reduce_by_key(2, |a, b| a.wrapping_add(*b));
    let node = plan.node();
    let (graph, allocs) = allocs_in(|| build_stages(node));
    assert_eq!(graph.len(), 2);
    assert_eq!(graph.parents(graph.result).collect::<Vec<_>>(), [StageId(0)]);
    assert_eq!(allocs, STAGE_CUT_BUDGET, "a fleet job's stage cut");
}

/// A fleet job's map task — generate, map, `reduce_by_key`'s map side —
/// streams the generated rows through the map straight into the combine:
/// it allocates the user's generated rows, the table's entries, one frozen
/// buffer and the bucket list. Computing the map's partition first and
/// then partitioning it also allocates the map's rows and their `Arc`.
/// Before a stage streamed, the generated rows had an `Arc` as well: seven
/// a task.
#[test]
fn a_fleet_map_task_allocates_no_partition_between_its_operators() {
    let plan = Dataset::<u64>::generate(MAPS, |p| (0..8u64).map(|i| i + p as u64).collect())
        .map_with_cost(|x| (*x % 7, *x), Some(1e-6))
        .reduce_by_key(2, |a, b| a.wrapping_add(*b));
    let deps = input_shuffles(&plan.node());
    let dep = &deps[0];
    let streamed = || -> u64 {
        (0..MAPS)
            .map(|part| {
                let mut ctx = TaskContext::empty(WorkModel::default());
                allocs_in(|| dep.map_task(&mut ctx, part)).1
            })
            .sum()
    };
    let computed = || -> u64 {
        (0..MAPS)
            .map(|part| {
                let mut ctx = TaskContext::empty(WorkModel::default());
                allocs_in(|| {
                    let data = dep.parent.compute(&mut ctx, part);
                    (dep.partitioner)(&mut ctx, data)
                })
                .1
            })
            .sum()
    };
    // Warm the thread's pool: the table's index and the bucket scratch.
    streamed();
    computed();
    let (task, materialized) = (streamed(), computed());
    assert_eq!((task, materialized), (streamed(), computed()), "allocation counts repeat exactly");
    println!("fleet map task: {task} allocations streamed, {materialized} materialized");
    assert_eq!(materialized, task + 2 * MAPS as u64, "the map's rows and their `Arc`");
    assert_eq!(task, FLEET_MAP_TASK_BUDGET * MAPS as u64, "a fleet job's map task");
}

/// PageRank's contribution task — the join's reduce side, `flat_map`
/// over each page's links, `map_with_cost`, `reduce_by_key`'s map side —
/// allocates what the join's reduce body and the map side allocate on
/// their own, and nothing more: no narrow operator allocates. Before a
/// stage streamed, `flat_map` and `map_with_cost` each built an
/// edge-sized partition and its `Arc`, and the join's rows had one too.
/// Links point into the first eighth of the pages, so the combine table,
/// sized from the stream's hint (the pages a task joined), never grows.
#[test]
fn a_pagerank_contribution_task_allocates_nothing_in_its_narrow_operators() {
    let links: Vec<(u64, Vec<u64>)> = (0..RECORDS)
        .map(|page| (page, (0..1 + page % 7).map(|i| (page * 31 + i) % (RECORDS / 8)).collect()))
        .collect();
    let ranks: Vec<(u64, f64)> = (0..RECORDS).map(|page| (page, 1.0)).collect();
    let joined =
        Dataset::parallelize(links, MAPS).join(&Dataset::parallelize(ranks, MAPS), REDUCES);
    let contribs = joined
        .flat_map(|(_, (dsts, rank))| {
            let share = rank / dsts.len() as f64;
            dsts.into_iter().map(move |d| (d, share))
        })
        .map_with_cost(|kv| *kv, Some(1e-7))
        .reduce_by_key(REDUCES, |a, b| a + b);
    let deps = input_shuffles(&contribs.node());
    let dep = &deps[0];
    // The join's blocks, per reduce partition: the contribution tasks'
    // input.
    let mut inputs: Vec<FastMap<_, Vec<Bytes>>> =
        (0..REDUCES).map(|_| FastMap::default()).collect();
    for join_dep in input_shuffles(&dep.parent) {
        for (r, blocks) in map_side(&join_dep).0.into_iter().enumerate() {
            inputs[r].insert(join_dep.id, blocks);
        }
    }
    let ctx = |r: usize| TaskContext::new(WorkModel::default(), inputs[r].clone());
    let measure = || -> (u64, u64, u64) {
        let (mut task, mut join, mut side) = (0, 0, 0);
        for r in 0..REDUCES {
            task += allocs_in(|| dep.map_task(&mut ctx(r), r)).1;
            join += allocs_in(|| joined.node().compute(&mut ctx(r), r)).1;
            let mut c = ctx(r);
            let data = dep.parent.compute(&mut c, r);
            side += allocs_in(|| (dep.partitioner)(&mut c, data)).1;
        }
        (task, join, side)
    };
    measure();
    let (task, join, side) = measure();
    assert_eq!((task, join, side), measure(), "allocation counts repeat exactly");
    println!("pagerank contribution task: {task} allocations; join {join}, map side {side}");
    // The join's body less the `Arc` its computed partition has, then the
    // map side.
    assert_eq!(task, join - REDUCES as u64 + side, "a narrow operator allocated");
    assert_eq!(task, RECORDS + CONTRIBUTION_TASK_OVERHEAD, "PageRank's contribution tasks");
}

/// Allocations of one fleet map task streamed (see above); seven before a
/// stage streamed.
const FLEET_MAP_TASK_BUDGET: u64 = 4;
/// Allocations of the four PageRank contribution tasks beyond one per
/// page, the page's decoded link list (twenty a task: the join body's
/// seventeen and the map side's three).
const CONTRIBUTION_TASK_OVERHEAD: u64 = 80;
/// Allocations of one fleet job's stage cut (see above).
const STAGE_CUT_BUDGET: u64 = 2;
/// Allocations of the four 1→3 `flat_map` tasks over `RECORDS` records
/// (five a task); 24 before a stage streamed, 50 072 when every record
/// returned a `Vec`.
const FLAT_MAP_BUDGET: u64 = 20;
/// Allocations of the four 64-bucket map bodies (three a task: the bucket
/// list and two shared buffers, which hold the task's 175 KB of buckets
/// within the 128 KiB packing bound). One per block plus 8 (264 here)
/// when every block was a buffer of its own and each task allocated its
/// scratch list; 1 288 beyond one per block when the pool kept 32
/// buffers.
const WIDE_MAP_BUDGET: u64 = 12;
/// Allocations of the four join reduce bodies beyond one per left record
/// (eleven a task: arena, table entries, matched list and output, four of them
/// grown once because varint-encoded records run under their in-memory
/// size). 48 beyond when the table's index was allocated afresh, and
/// 100 124 beyond, 3.0025 per left record, before the arena join.
const JOIN_REDUCE_OVERHEAD: u64 = 44;
/// Allocations of the four combining map bodies (three a task: table
/// entries, one frozen buffer and the bucket list). 36 when each task also
/// allocated the table's index, its size and scratch lists and one block
/// per bucket; 68 when the table started at 1024 keys and doubled.
const COMBINE_MAP_BUDGET: u64 = 12;
/// Allocations of the four `reduce_by_key` reduce bodies (three a task:
/// table entries, rows and their `Arc`). 16 when each task also allocated
/// the table's index; 64 when the table started at 64.
const COMBINE_REDUCE_BUDGET: u64 = 12;

/// What a finished job may leave in an engine: its metrics view, one
/// `Arc<JobMetrics>` (the block behind its strong and weak counts) and the
/// pointer in the telemetry's `Vec`.
const RESIDUE_PER_JOB: usize =
    2 * size_of::<usize>() + size_of::<JobMetrics>() + size_of::<Arc<JobMetrics>>();

/// The live heap an engine on a four-executor local rig holds once it has
/// run `jobs` fleet-shaped jobs one after another, each plan and output
/// dropped as soon as it is done with. The event log, a capture the
/// caller asks for, is off.
fn engine_residue(jobs: u64) -> i64 {
    let before = live_bytes();
    let fabric = Fabric::new();
    let store = Rc::new(LocalDiskStore::new(fabric.clone()));
    let engine = Engine::new(EngineConfig { event_log: false, ..EngineConfig::default() }, store);
    let mut sim = Sim::new(7);
    for i in 0..4 {
        let nic = fabric.add_link(1e9, format!("nic-{i}"));
        let disk = fabric.add_link(1e9, format!("disk-{i}"));
        engine.register_executor(&mut sim, ExecutorDesc::vm(format!("e-vm-{i}"), nic, disk, 8192));
    }
    for job in 0..jobs {
        // The same rows every job: encoded block sizes, and so the
        // buffers the thread's pool keeps, stop growing after the first.
        let plan = Dataset::<u64>::generate(MAPS, |p| (0..8u64).map(|i| i + p as u64).collect())
            .map_with_cost(|x| (*x % 7, *x), Some(1e-6))
            .reduce_by_key(2, |a, b| a.wrapping_add(*b));
        let done = Rc::new(Cell::new(false));
        let d = Rc::clone(&done);
        engine.submit_job(&mut sim, plan.node(), move |_, out| {
            assert_eq!(out.partitions.len(), 2);
            d.set(true);
        });
        drop(plan);
        sim.run();
        assert!(done.get(), "job {job} completes");
    }
    let idle = LiveState { jobs: 0, shuffles: 0, attempts: 0, parked_computes: 0, store_ops: 0 };
    assert_eq!(engine.live_state(), idle);
    assert_eq!(engine.completed_job_metrics().len() as u64, jobs);
    live_bytes() - before
}

/// A long stream of jobs holds the engine's memory to its live work: over
/// 3N more finished jobs the engine's live heap grows by at most each
/// job's metrics view. N is a power of two, so the metrics `Vec` is
/// exactly full at N and at 4N jobs and its doublings cost one slot a
/// job. A first run fills the thread's buffer pool and the process-wide
/// interner, which outlive an engine.
#[test]
fn a_finished_job_leaves_only_its_metrics_in_the_engine() {
    const N: u64 = 64;
    engine_residue(N);
    let (n, four_n) = (engine_residue(N), engine_residue(4 * N));
    let per_job = (four_n - n) as f64 / (3 * N) as f64;
    println!("engine residue: {n} B after {N} jobs, {four_n} B after 4N; {per_job:.1} B a job");
    assert!(
        four_n - n <= (3 * N) as i64 * RESIDUE_PER_JOB as i64,
        "{per_job:.1} live bytes a finished job; its metrics view is {RESIDUE_PER_JOB}"
    );
}

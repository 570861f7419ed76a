//! Allocation budgets for the data plane's hot bodies — the reduce side's
//! join and combine, a streaming `flat_map`, a wide map side, a fleet
//! job's and a PageRank iteration's streamed map tasks — and for the stage
//! cut every job submission makes.
//!
//! Heap allocations are counted per thread by this binary's own global
//! allocator, so a count is a pure function of the body and its input: it
//! repeats exactly from run to run, whatever else the test harness is
//! doing. The budgets are what the bodies cost when they were last
//! changed; they may only go down.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use splitserve_engine::{
    build_stages, input_shuffles, Dataset, ShuffleDep, StageId, TaskContext, WorkModel,
};
use splitserve_rt::{Bytes, FastMap};

thread_local! {
    /// Allocation calls made by this thread (no destructor, const
    /// initializer: touching it never allocates).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter never touches the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's obligations for `alloc` are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: `ptr` and `layout` come from this allocator, which is
        // `System` underneath, so they are valid for `System.realloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` through one of the methods
        // above with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations this thread makes inside `body`.
fn allocs_in<R>(body: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = body();
    (out, ALLOCS.with(Cell::get) - before)
}

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

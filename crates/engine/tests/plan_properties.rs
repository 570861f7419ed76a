//! Property tests over randomized query plans: the engine must compute
//! exactly what a sequential evaluation computes, for arbitrary chains of
//! narrow and wide operators over arbitrary data, on arbitrary clusters.

use splitserve_rt::check::{self, Gen};
use splitserve_rt::hash::assert_pinned;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;

use splitserve_des::{Fabric, Sim};
use splitserve_engine::{
    build_stages, collect_partitions, input_shuffles, sample_sort_bounds, Dataset, Dep, Engine,
    EngineConfig, ExecutorDesc, PlanNode, ShuffleDep, ShuffleId, StageKind, TaskContext, WorkModel,
};
use splitserve_rt::{Bytes, FastMap};
use splitserve_storage::{HdfsSpec, HdfsStore, LocalDiskStore};

/// Keys stay below this through every step, so one fixed sample gives
/// `sort_by_key` its range bounds.
const KEY_RANGE: u64 = 50;

/// A randomly generated pipeline step.
#[derive(Debug, Clone)]
enum Step {
    MapAdd(u64),
    FilterMod(u64),
    RekeyMod(u64),
    ReduceSum { partitions: usize },
    GroupCount { partitions: usize },
    /// Each record and a copy with its value bumped by one.
    FlatMapTwin,
    /// A per-record xor, through the whole-partition operator.
    MapPartitionsXor(u64),
    Cache,
    /// The dataset unioned with itself: two narrow paths to one parent.
    UnionSelf,
    /// Joined against a copy re-keyed `k % m` and summed per key, so the
    /// right side has one row per key and the output never outgrows the
    /// input; each match keeps the key and adds the two values.
    JoinRekeyed { m: u64, partitions: usize },
    /// Cogrouped against a copy re-keyed `k % m`; each key keeps a fold of
    /// both value lists that tells the sides apart.
    CogroupRekeyed { m: u64, partitions: usize },
    SortByKey { partitions: usize },
    /// Replaces the dataset by the one row `(0, row count)`.
    Count,
}

fn arb_step(g: &mut Gen) -> Step {
    match g.usize_in(0, 13) {
        0 => Step::MapAdd(g.u64_in(1, 99)),
        1 => Step::FilterMod(g.u64_in(2, 4)),
        2 => Step::RekeyMod(g.u64_in(1, 39)),
        3 => Step::ReduceSum { partitions: g.usize_in(1, 5) },
        4 => Step::GroupCount { partitions: g.usize_in(1, 5) },
        5 => Step::FlatMapTwin,
        6 => Step::MapPartitionsXor(g.u64_in(1, 99)),
        7 => Step::Cache,
        8 => Step::UnionSelf,
        9 => Step::JoinRekeyed { m: g.u64_in(1, 39), partitions: g.usize_in(1, 5) },
        10 => Step::CogroupRekeyed { m: g.u64_in(1, 39), partitions: g.usize_in(1, 5) },
        11 => Step::SortByKey { partitions: g.usize_in(1, 5) },
        _ => Step::Count,
    }
}

/// The steps the engine can run. A union whose stage reads a shuffle
/// cannot run yet: every task fetches the shuffle's blocks at its *own*
/// partition index, and a union's second half computes its parent at a
/// shifted one (a known gap, ROADMAP item 7). `Dataset::union` rejects the
/// shape where the plan is built (`union_downstream_of_a_shuffle_is_rejected`),
/// so `UnionSelf` is kept only ahead of the first wide step.
fn runnable(steps: Vec<Step>) -> Vec<Step> {
    let mut shuffled = false;
    steps
        .into_iter()
        .filter(|step| match step {
            Step::UnionSelf => !shuffled,
            Step::ReduceSum { .. }
            | Step::GroupCount { .. }
            | Step::JoinRekeyed { .. }
            | Step::CogroupRekeyed { .. }
            | Step::SortByKey { .. }
            | Step::Count => {
                shuffled = true;
                true
            }
            _ => true,
        })
        .collect()
}

/// What `CogroupRekeyed` keeps of one key's two value lists.
fn fold_sides(left: &[u64], right: &[u64]) -> u64 {
    let sum = |vs: &[u64]| vs.iter().fold(vs.len() as u64, |a, v| a.wrapping_add(*v));
    sum(left).wrapping_mul(31).wrapping_add(sum(right))
}

fn arb_data(g: &mut Gen, max_rows: usize, key_range: u64, val_range: Option<u64>) -> Vec<(u64, u64)> {
    g.vec(0, max_rows, |g| {
        let k = g.u64_in(0, key_range - 1);
        let v = match val_range {
            Some(r) => g.u64_in(0, r - 1),
            None => g.u64(),
        };
        (k, v)
    })
}

/// Applies the pipeline on the engine.
fn build_plan(data: Vec<(u64, u64)>, parts: usize, steps: &[Step]) -> Dataset<(u64, u64)> {
    build_plan_over(Dataset::parallelize(data, parts), steps, false)
}

/// Applies the pipeline to `ds`; with `boundaries`, every step's output is
/// also materialized by a `map_partitions` that copies it and charges
/// nothing, as every operator's output was before narrow operators
/// streamed.
fn build_plan_over(
    mut ds: Dataset<(u64, u64)>,
    steps: &[Step],
    boundaries: bool,
) -> Dataset<(u64, u64)> {
    for step in steps {
        if boundaries {
            ds = ds.map_partitions(|_, rows| rows.to_vec());
        }
        ds = match step.clone() {
            Step::MapAdd(n) => ds.map(move |(k, v)| (*k, v.wrapping_add(n))),
            Step::FilterMod(m) => ds.filter(move |(k, _)| k % m != 0),
            Step::RekeyMod(m) => ds.map(move |(k, v)| (k % m, *v)),
            Step::ReduceSum { partitions } => {
                ds.reduce_by_key(partitions, |a, b| a.wrapping_add(*b))
            }
            Step::GroupCount { partitions } => ds
                .group_by_key(partitions)
                .map(|(k, vs)| (*k, vs.len() as u64)),
            Step::FlatMapTwin => ds.flat_map(|(k, v)| [(k, v), (k, v.wrapping_add(1))]),
            Step::MapPartitionsXor(x) => ds.map_partitions(move |ctx, rows| {
                ctx.charge_records(rows.len() as u64);
                rows.iter().map(|(k, v)| (*k, v ^ x)).collect()
            }),
            Step::Cache => ds.cache(),
            Step::UnionSelf => ds.union(&ds),
            Step::JoinRekeyed { m, partitions } => {
                let right = ds
                    .map(move |(k, v)| (k % m, *v))
                    .reduce_by_key(partitions, |a, b| a.wrapping_add(*b));
                ds.join(&right, partitions)
                    .map(|(k, (v, w))| (*k, v.wrapping_add(*w)))
            }
            Step::CogroupRekeyed { m, partitions } => ds
                .cogroup(&ds.map(move |(k, v)| (k % m, *v)), partitions)
                .map(|(k, (vs, ws))| (*k, fold_sides(vs, ws))),
            Step::SortByKey { partitions } => {
                ds.sort_by_key(sample_sort_bounds((0..KEY_RANGE).collect(), partitions))
            }
            Step::Count => ds.count().map(|n| (0, *n)),
        };
    }
    if boundaries {
        ds = ds.map_partitions(|_, rows| rows.to_vec());
    }
    ds
}

/// Applies the same pipeline sequentially.
fn reference(data: &[(u64, u64)], steps: &[Step]) -> Vec<(u64, u64)> {
    let mut rows: Vec<(u64, u64)> = data.to_vec();
    for step in steps {
        rows = match step.clone() {
            Step::MapAdd(n) => rows
                .into_iter()
                .map(|(k, v)| (k, v.wrapping_add(n)))
                .collect(),
            Step::FilterMod(m) => rows.into_iter().filter(|(k, _)| k % m != 0).collect(),
            Step::RekeyMod(m) => rows.into_iter().map(|(k, v)| (k % m, v)).collect(),
            Step::ReduceSum { .. } => {
                let mut acc: BTreeMap<u64, u64> = BTreeMap::new();
                for (k, v) in rows {
                    let e = acc.entry(k).or_insert(0);
                    *e = e.wrapping_add(v);
                }
                acc.into_iter().collect()
            }
            Step::GroupCount { .. } => {
                let mut acc: BTreeMap<u64, u64> = BTreeMap::new();
                for (k, _) in rows {
                    *acc.entry(k).or_insert(0) += 1;
                }
                acc.into_iter().collect()
            }
            Step::FlatMapTwin => rows
                .into_iter()
                .flat_map(|(k, v)| [(k, v), (k, v.wrapping_add(1))])
                .collect(),
            Step::MapPartitionsXor(x) => rows.into_iter().map(|(k, v)| (k, v ^ x)).collect(),
            Step::Cache | Step::SortByKey { .. } => rows,
            Step::UnionSelf => [rows.clone(), rows].concat(),
            Step::JoinRekeyed { m, .. } => {
                let mut right: BTreeMap<u64, u64> = BTreeMap::new();
                for (k, v) in &rows {
                    let e = right.entry(k % m).or_insert(0);
                    *e = e.wrapping_add(*v);
                }
                rows.into_iter()
                    .filter_map(|(k, v)| right.get(&k).map(|w| (k, v.wrapping_add(*w))))
                    .collect()
            }
            Step::CogroupRekeyed { m, .. } => {
                let mut sides: BTreeMap<u64, (Vec<u64>, Vec<u64>)> = BTreeMap::new();
                for (k, v) in &rows {
                    sides.entry(*k).or_default().0.push(*v);
                    sides.entry(k % m).or_default().1.push(*v);
                }
                sides
                    .into_iter()
                    .map(|(k, (vs, ws))| (k, fold_sides(&vs, &ws)))
                    .collect()
            }
            Step::Count => vec![(0, rows.len() as u64)],
        };
    }
    rows
}

fn run_on_engine(
    data: Vec<(u64, u64)>,
    parts: usize,
    steps: &[Step],
    executors: usize,
    use_hdfs: bool,
) -> Vec<(u64, u64)> {
    let fabric = Fabric::new();
    let store: Rc<dyn splitserve_storage::BlockStore> = if use_hdfs {
        let hdfs = HdfsStore::new(HdfsSpec::default(), fabric.clone());
        let nic = fabric.add_link(1e9, "hdfs-nic");
        let disk = fabric.add_link(1e9, "hdfs-disk");
        hdfs.add_datanode(nic, disk);
        Rc::new(hdfs)
    } else {
        Rc::new(LocalDiskStore::new(fabric.clone()))
    };
    let engine = Engine::new(EngineConfig::default(), store);
    let mut sim = Sim::new(11);
    for i in 0..executors {
        let nic = fabric.add_link(1e9, format!("n{i}"));
        let disk = fabric.add_link(1e9, format!("d{i}"));
        engine.register_executor(&mut sim, ExecutorDesc::vm(format!("e-{i}"), nic, disk, 8192));
    }
    let plan = build_plan(data, parts, steps);
    let out = Rc::new(RefCell::new(None));
    let o = Rc::clone(&out);
    engine.submit_job(&mut sim, plan.node(), move |_, r| {
        *o.borrow_mut() = Some(collect_partitions::<(u64, u64)>(r.partitions));
    });
    sim.run();
    let mut rows = out.borrow_mut().take().expect("plan completes");
    rows.sort();
    rows
}

#[test]
#[should_panic(expected = "union of a dataset whose stage reads a shuffle")]
fn union_downstream_of_a_shuffle_is_rejected() {
    let a = Dataset::parallelize((0..8u64).map(|i| (i % 4, i)).collect(), 2);
    a.reduce_by_key(2, |x, y| x + y).union(&a);
}

/// Distributed == sequential, for any random pipeline.
#[test]
fn random_pipelines_match_reference() {
    check::run("random_pipelines_match_reference", 24, |g| {
        let data = arb_data(g, 400, KEY_RANGE, None);
        let parts = g.usize_in(1, 7);
        let steps = runnable(g.vec(0, 5, arb_step));
        let executors = g.usize_in(1, 4);
        let use_hdfs = g.bool();
        let got = run_on_engine(data.clone(), parts, &steps, executors, use_hdfs);
        let mut expect = reference(&data, &steps);
        expect.sort();
        assert_eq!(got, expect);
    });
}

/// Executor count never changes results.
#[test]
fn executor_count_is_invisible_in_results() {
    check::run("executor_count_is_invisible_in_results", 24, |g| {
        let data = arb_data(g, 200, 20, Some(1000));
        let mut steps = runnable(g.vec(1, 4, arb_step));
        if steps.is_empty() {
            steps.push(arb_step(g));
        }
        let one = run_on_engine(data.clone(), 4, &steps, 1, false);
        let many = run_on_engine(data, 4, &steps, 4, true);
        assert_eq!(one, many);
    });
}

/// The parent commit's `input_shuffles`, kept as the reference for the
/// stage cut: an explicit stack and a std `HashSet` of visited nodes.
fn reference_input_shuffles(node: &Arc<dyn PlanNode>) -> Vec<Arc<ShuffleDep>> {
    let mut out = Vec::new();
    let mut stack = vec![Arc::clone(node)];
    let mut seen = std::collections::HashSet::new();
    while let Some(n) = stack.pop() {
        if !seen.insert(n.id()) {
            continue;
        }
        for d in n.deps() {
            match d {
                Dep::Narrow(p) => stack.push(Arc::clone(p)),
                Dep::Shuffle(s) => out.push(Arc::clone(s)),
            }
        }
    }
    // Deterministic order.
    out.sort_by_key(|s| s.id);
    out.dedup_by_key(|s| s.id);
    out
}

/// One line per stage: id, kind, width, parents and fetched shuffles.
/// Shuffle ids come from a process-wide counter that concurrent tests
/// share, so a shuffle is named by its rank among this graph's.
fn render_stages(node: Arc<dyn PlanNode>) -> String {
    let graph = build_stages(node);
    let mut ids: Vec<ShuffleId> = graph
        .stages
        .iter()
        .filter_map(|s| match &s.kind {
            StageKind::ShuffleMap(d) => Some(d.id),
            StageKind::Result => None,
        })
        .collect();
    ids.sort();
    let rank = |id: ShuffleId| ids.iter().position(|x| *x == id).expect("produced in this graph");
    let mut out = String::new();
    for s in &graph.stages {
        let kind = match &s.kind {
            StageKind::ShuffleMap(d) => format!("map(s{})", rank(d.id)),
            StageKind::Result => "result".to_string(),
        };
        let parents: Vec<u64> = graph.parents(s.id).map(|p| p.0).collect();
        let inputs: Vec<usize> = s.input_shuffles.iter().map(|d| rank(d.id)).collect();
        out.push_str(&format!(
            "{} {kind} tasks={} parents={parents:?} inputs={inputs:?}\n",
            s.id, s.num_tasks
        ));
    }
    out
}

/// The stage cut is the parent commit's: `input_shuffles` agrees with the
/// reference walk at every stage of every generated plan, and three fixed
/// plans cut into the stages pinned there.
#[test]
fn stage_cut_matches_the_reference_walk_and_its_pins() {
    check::run("stage_cut_matches_the_reference_walk", 64, |g| {
        let steps = runnable(g.vec(0, 8, arb_step));
        let plan = build_plan(arb_data(g, 8, KEY_RANGE, None), g.usize_in(1, 4), &steps);
        let graph = build_stages(plan.node());
        for stage in &graph.stages {
            let ids = |deps: &[Arc<ShuffleDep>]| deps.iter().map(|d| d.id).collect::<Vec<_>>();
            let expect = ids(&reference_input_shuffles(&stage.terminal));
            assert_eq!(ids(&input_shuffles(&stage.terminal)), expect, "{steps:?}");
            assert_eq!(ids(&stage.input_shuffles), expect, "{steps:?}");
        }
    });

    let a = Dataset::parallelize((0..10u64).map(|i| (i, i)).collect(), 3);
    let b = Dataset::parallelize((0..10u64).map(|i| (i, i * 2)).collect(), 2);
    let two_shuffle_join = a.join(&b, 4);

    // A union reaches `base` twice; it sits ahead of the shuffles it feeds
    // (the engine rejects one downstream of a shuffle).
    let base = Dataset::parallelize((0..40u64).map(|i| (i % 8, i)).collect(), 4).cache();
    let union_diamond = base
        .map(|(k, v)| (*k, v + 1))
        .union(&base.filter(|(k, _)| k % 2 == 0))
        .reduce_by_key(3, |a, b| a + b)
        .map(|(k, v)| (k % 2, *v))
        .reduce_by_key(2, |a, b| a + b);

    let points = Dataset::generate(4, |p| (0..16u64).map(|i| (i % 3, i + p as u64)).collect())
        .cache();
    let mut centroids = points.reduce_by_key(2, |a, b| a + b);
    for _ in 0..3 {
        centroids = points
            .join(&centroids, 2)
            .map(|(k, (p, c))| (*k, p + c))
            .reduce_by_key(2, |a, b| a + b);
    }

    for (name, plan, pin) in [
        ("two-shuffle join stages", two_shuffle_join.node(), 0x824f2655dcfe7ad0),
        ("union diamond stages", union_diamond.node(), 0x28e1ef9b6b3c1e72),
        ("iterative chain stages", centroids.node(), 0xf6c865574a391cb0),
    ] {
        assert_pinned(name, render_stages(plan).as_bytes(), pin);
    }
}

/// What one task left behind: its output — a map task's buckets, or a
/// result task's rows — and the bits of every charge on its context.
#[derive(Debug, PartialEq)]
struct TaskTrace {
    buckets: Vec<Vec<u8>>,
    rows: Vec<(u64, u64)>,
    cpu_secs: u64,
    bytes_in: u64,
    bytes_out: u64,
    combine_secs: Option<u64>,
}

/// Runs every task of `plan`'s stages in stage order, one context per
/// task over the blocks its parent stages wrote, as the scheduler would.
/// `streamed` runs a map task as the scheduler does
/// ([`ShuffleDep::map_task`]); otherwise as the map side of a computed
/// partition, `(dep.partitioner)(ctx, dep.parent.compute(ctx, part))`. A
/// result task is its terminal's `compute` either way.
fn trace_tasks(plan: &Dataset<(u64, u64)>, streamed: bool) -> Vec<TaskTrace> {
    let graph = build_stages(plan.node());
    // Blocks by (producing stage, map task, reduce partition).
    let mut written: BTreeMap<(u64, usize, usize), Bytes> = BTreeMap::new();
    let mut traces = Vec::new();
    for stage in &graph.stages {
        for part in 0..stage.num_tasks {
            let mut inputs = FastMap::default();
            for dep in &stage.input_shuffles {
                let producer = graph.producer_of(dep.id).expect("every input has a map stage");
                let maps = graph.stage(producer).num_tasks;
                let blocks: Vec<Bytes> = (0..maps)
                    .filter_map(|m| written.get(&(producer.0, m, part)).cloned())
                    .collect();
                inputs.insert(dep.id, blocks);
            }
            let mut ctx = TaskContext::new(WorkModel::default(), inputs);
            let (mut buckets, mut rows) = (Vec::new(), Vec::new());
            match &stage.kind {
                StageKind::ShuffleMap(dep) => {
                    let out = if streamed {
                        dep.map_task(&mut ctx, part)
                    } else {
                        let data = dep.parent.compute(&mut ctx, part);
                        (dep.partitioner)(&mut ctx, data)
                    };
                    for (r, bucket) in out.into_iter().enumerate() {
                        buckets.push(bucket.bytes.to_vec());
                        if !bucket.bytes.is_empty() {
                            written.insert((stage.id.0, part, r), bucket.bytes);
                        }
                    }
                }
                StageKind::Result => {
                    let data = stage.terminal.compute(&mut ctx, part);
                    rows = collect_partitions(vec![data]);
                }
            }
            traces.push(TaskTrace {
                buckets,
                rows,
                cpu_secs: ctx.cpu_secs().to_bits(),
                bytes_in: ctx.bytes_in(),
                bytes_out: ctx.bytes_out(),
                combine_secs: ctx.combine_secs().map(f64::to_bits),
            });
        }
    }
    traces
}

/// A stage runs as one stream from its source to its sink, and that
/// changes no byte and no charge: for every generated plan — over a lent
/// source (`parallelize`) or a made one (`generate`), through `cache`,
/// `map_partitions` and every narrow operator — the streamed map tasks
/// write the buckets a computed partition's map side writes, and every
/// task's context ends bit for bit equal, also against the same plan with
/// every step's output materialized. Each run builds its plan afresh, so
/// a `cache()` fills in the same task every time.
#[test]
fn streamed_stages_match_materialized_ones_bit_for_bit() {
    check::run("streamed_stages_match_materialized_ones", 48, |g| {
        let data = arb_data(g, 200, KEY_RANGE, None);
        let parts = g.usize_in(1, 5);
        let steps = runnable(g.vec(0, 6, arb_step));
        let generated = g.bool();
        let build = |boundaries: bool| {
            let source = if generated {
                let data = Arc::new(data.clone());
                Dataset::generate(parts, move |p| {
                    data.iter().skip(p).step_by(parts).copied().collect()
                })
            } else {
                Dataset::parallelize(data.clone(), parts)
            };
            build_plan_over(source, &steps, boundaries)
        };
        let streamed = trace_tasks(&build(false), true);
        assert_eq!(streamed, trace_tasks(&build(false), false), "{steps:?}");
        assert_eq!(streamed, trace_tasks(&build(true), false), "{steps:?}");
    });
}

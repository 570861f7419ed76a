//! Isolated layer probes: each calls one layer's public functions in a
//! loop, on inputs shaped like the workloads', and reports host nanoseconds
//! per operation. They say what a layer costs on its own; the traced
//! iterations say how often it is called. A probe moves when its layer gets
//! faster even if no end-to-end metric can resolve the change yet.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use splitserve::tenancy::{
    default_tenant_specs, AdmissionController, AdmissionRequest, TenantSpec,
};
use splitserve_cloud::{ColdStartSpec, WarmPool};
use splitserve_des::{Fabric, Sim, SimDuration};
use splitserve_engine::{input_shuffles, Dataset, ShuffleDep, TaskContext, WorkModel};
use splitserve_obs::MetricsRegistry;
use splitserve_rt::{Bytes, FastMap, Rng, WorkerPool};

use crate::stats::median;
use crate::workload::{run_on_rig, IterOut, Mode};

const REPS: usize = 5;

/// Median over `REPS` timed calls of `run` (after one untimed call), in
/// nanoseconds per operation. `prepare` rebuilds the input outside the
/// timed region each time.
fn ns_per_op<I>(ops: u64, mut prepare: impl FnMut() -> I, mut run: impl FnMut(I)) -> f64 {
    run(prepare());
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let input = prepare();
            let t0 = Instant::now();
            run(input);
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    median(&samples) / ops as f64
}

/// Every probe, as `(metric name, ns per operation)`. `queue_depth` is the
/// workload's measured `des.queue_peak`, so the event-queue probes run at
/// the depth the workload reaches.
pub fn all(queue_depth: u64) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    des(queue_depth.max(1) as usize, &mut out);
    engine(&mut out);
    codec(&mut out);
    control_plane(&mut out);
    obs(&mut out);
    out
}

fn des(depth: usize, out: &mut Vec<(&'static str, f64)>) {
    const EVENTS: u64 = 200_000;
    // A queue held at `depth`: every event that fires schedules its
    // successor at a random later instant until the budget is spent.
    fn chain(sim: &mut Sim, left: std::rc::Rc<std::cell::Cell<u64>>) {
        if left.get() == 0 {
            return;
        }
        left.set(left.get() - 1);
        let delay = SimDuration::from_micros(sim.rng().gen_range(1..1_000_000u64));
        sim.schedule_in(delay, move |sim| chain(sim, left));
    }
    out.push((
        "des.sim.sched_pop_ns",
        ns_per_op(
            EVENTS,
            || {
                let mut sim = Sim::new(1);
                let left = std::rc::Rc::new(std::cell::Cell::new(EVENTS));
                for _ in 0..depth {
                    chain(&mut sim, std::rc::Rc::clone(&left));
                }
                sim
            },
            |mut sim| sim.run(),
        ),
    ));

    // The whole life of a cancelled event at that depth: scheduled,
    // cancelled, and reaped as a tombstone when the queue drains.
    out.push((
        "des.sim.cancel_ns",
        ns_per_op(
            EVENTS,
            || {
                let mut sim = Sim::new(1);
                for i in 0..depth as u64 {
                    sim.schedule_in(SimDuration::from_micros(2_000_000 + i), |_| {});
                }
                sim
            },
            |mut sim| {
                for _ in 0..EVENTS {
                    let delay = SimDuration::from_micros(sim.rng().gen_range(1..1_000_000u64));
                    let id = sim.schedule_in(delay, |_| {});
                    black_box(sim.cancel(id));
                }
                sim.run();
            },
        ),
    ));

    // 32 concurrent flows on one link, the scenarios' shuffle-wave shape:
    // each start and each completion re-runs the water-fill.
    const FLOWS: u64 = 32;
    const WAVES: u64 = 200;
    out.push((
        "des.fabric.flow_ns",
        ns_per_op(
            FLOWS * WAVES,
            || (),
            |()| {
                let fabric = Fabric::new();
                let link = fabric.add_link(1e9, "probe");
                let mut sim = Sim::new(1);
                for _ in 0..WAVES {
                    for i in 0..FLOWS {
                        fabric.start_flow(&mut sim, &[link], 10_000 + 1_000 * i, |_| {});
                    }
                    sim.run();
                }
                black_box(fabric.bytes_completed());
            },
        ),
    ));
}

/// The map side of `plan`'s first shuffle over partition 0, input computed
/// outside the timed region.
fn map_side_ns(dep: &Arc<ShuffleDep>, records: u64) -> f64 {
    ns_per_op(
        records,
        || {
            dep.parent
                .compute(&mut TaskContext::empty(WorkModel::default()), 0)
        },
        |data| {
            let mut ctx = TaskContext::empty(WorkModel::default());
            black_box((dep.partitioner)(&mut ctx, data));
        },
    )
}

/// Every non-empty block the map side of `dep` produces, all partitions.
fn map_outputs(dep: &Arc<ShuffleDep>) -> Vec<Bytes> {
    (0..dep.parent.num_partitions())
        .flat_map(|m| {
            let mut ctx = TaskContext::empty(WorkModel::default());
            let data = dep.parent.compute(&mut ctx, m);
            (dep.partitioner)(&mut ctx, data)
        })
        .filter(|b| !b.bytes.is_empty())
        .map(|b| b.bytes)
        .collect()
}

/// The reduce side of a single-reduce-partition `plan`: decode every block
/// and merge or sort.
fn reduce_side_ns<T: Clone + Send + Sync + 'static>(plan: &Dataset<T>, records: u64) -> f64 {
    let node = plan.node();
    let dep = Arc::clone(&input_shuffles(&node)[0]);
    let blocks = map_outputs(&dep);
    ns_per_op(
        records,
        || {
            let mut inputs = FastMap::default();
            inputs.insert(dep.id, blocks.clone());
            TaskContext::new(WorkModel::default(), inputs)
        },
        |mut ctx| {
            black_box(node.compute(&mut ctx, 0));
        },
    )
}

fn engine(out: &mut Vec<(&'static str, f64)>) {
    // Scheduler cost per task with no task body: one stage of empty tasks
    // on the local rig.
    const TASKS: usize = 2_000;
    let empty = Dataset::<u64>::generate(TASKS, |_| Vec::new());
    out.push((
        "engine.dispatch_ns_per_task",
        ns_per_op(
            TASKS as u64,
            || (),
            |()| {
                let mut stats = IterOut::default();
                run_on_rig(&empty, 1, 8, &Mode::plain(), &mut stats, |rows| rows.len());
                assert!(stats.error.is_none(), "dispatch probe job failed");
            },
        ),
    ));

    // pagerank's shape: (page, share) pairs with skewed destinations, about
    // eight contributions per distinct key, eight reduce partitions.
    const KV: u64 = 200_000;
    let contribs = |parts: usize| {
        let mut rng = Rng::seed_from_u64(7);
        let rows: Vec<(u64, f64)> = (0..KV)
            .map(|_| {
                let u: f64 = rng.gen_range(0.0..1.0);
                ((200_000.0 * u.powf(3.0)) as u64, u)
            })
            .collect();
        Dataset::parallelize(rows, parts)
    };
    let combine = contribs(1).reduce_by_key(8, |a, b| a + b);
    out.push((
        "engine.combine.map_ns_per_rec",
        map_side_ns(&input_shuffles(&combine.node())[0], KV),
    ));
    out.push((
        "engine.reduce.merge_ns_per_rec",
        reduce_side_ns(&contribs(8).reduce_by_key(1, |a, b| a + b), KV),
    ));

    // cloudsort's shape: uniform keys, 90-byte payloads, no combine.
    const BLOBS: u64 = 50_000;
    let blobs = |parts: usize| {
        let mut rng = Rng::seed_from_u64(7);
        let rows: Vec<(u64, Vec<u8>)> = (0..BLOBS)
            .map(|_| {
                let mut v = vec![0u8; 90];
                rng.fill(v.as_mut_slice());
                (rng.gen_range(0..u64::MAX), v)
            })
            .collect();
        Dataset::parallelize(rows, parts)
    };
    let bounds: Vec<u64> = (1..8).map(|i| u64::MAX / 8 * i).collect();
    let ranged = blobs(1).sort_by_key(bounds);
    out.push((
        "engine.encode.nocombine_ns_per_rec",
        map_side_ns(&input_shuffles(&ranged.node())[0], BLOBS),
    ));
    out.push((
        "engine.sort.ns_per_rec",
        reduce_side_ns(&blobs(8).sort_by_key(Vec::new()), BLOBS),
    ));
}

fn codec(out: &mut Vec<(&'static str, f64)>) {
    fn pair<T: splitserve_codec::Encode + splitserve_codec::Decode>(
        rows: Vec<T>,
        encode: &'static str,
        decode: &'static str,
        out: &mut Vec<(&'static str, f64)>,
    ) {
        let n = rows.len() as u64;
        let bytes = splitserve_codec::to_bytes(&rows).expect("probe rows encode");
        out.push((
            encode,
            ns_per_op(
                n,
                || (),
                |()| {
                    black_box(
                        splitserve_codec::to_bytes(black_box(&rows)).expect("probe rows encode"),
                    );
                },
            ),
        ));
        out.push((
            decode,
            ns_per_op(
                n,
                || (),
                |()| {
                    let back: Vec<T> = splitserve_codec::from_bytes(black_box(&bytes))
                        .expect("probe bytes decode");
                    black_box(back);
                },
            ),
        ));
    }
    let mut rng = Rng::seed_from_u64(7);
    let kv: Vec<(u64, f64)> = (0..100_000u64)
        .map(|i| (i * 7, rng.gen_range(0.0..1.0)))
        .collect();
    pair(kv, "codec.encode_kv_ns", "codec.decode_kv_ns", out);
    let blobs: Vec<(u64, Vec<u8>)> = (0..20_000u64)
        .map(|i| {
            let mut v = vec![0u8; 90];
            rng.fill(v.as_mut_slice());
            (i, v)
        })
        .collect();
    pair(blobs, "codec.encode_blob_ns", "codec.decode_blob_ns", out);
}

fn control_plane(out: &mut Vec<(&'static str, f64)>) {
    // The fleet's population: 100 tenants contending for 64 slots, arrivals
    // every millisecond, completions draining the pool back to half. One
    // operation is one logged admission event.
    const JOBS: u64 = 20_000;
    let specs = default_tenant_specs(100);
    let churn = |specs: &[TenantSpec]| {
        let mut ctrl = AdmissionController::new(64, specs);
        let mut running = std::collections::VecDeque::new();
        let mut now = 0u64;
        for job in 0..JOBS {
            now += 1_000;
            let request = AdmissionRequest {
                job,
                tenant: specs[job as usize % specs.len()].id.clone(),
                cores: 1 + (job % 4) as u32,
                service_estimate_us: 500_000,
            };
            running.extend(ctrl.on_arrival(now, request).iter().map(|d| d.job));
            while ctrl.slots_free() < 32 {
                let done = running
                    .pop_front()
                    .expect("occupied slots belong to a running job");
                now += 100;
                running.extend(ctrl.on_complete(now, done).iter().map(|d| d.job));
            }
        }
        while let Some(done) = running.pop_front() {
            now += 100;
            running.extend(ctrl.on_complete(now, done).iter().map(|d| d.job));
        }
        ctrl.log().len() as u64
    };
    let events = churn(&specs);
    out.push((
        "core.admission.decide_ns",
        ns_per_op(
            events,
            || (),
            |()| {
                black_box(churn(&specs));
            },
        ),
    ));

    // Invoke/release pairs over 64 functions under the default fixed
    // keepalive; one operation is one pool decision call.
    const CALLS: u64 = 50_000;
    out.push((
        "cloud.warmpool.decide_ns",
        ns_per_op(
            2 * CALLS,
            || WarmPool::new(ColdStartSpec::fixed_secs(900).build(), 0, 1_536),
            |mut pool| {
                for i in 0..CALLS {
                    let func = (i % 64) as u32;
                    black_box(pool.invoke(i * 1_000, func, 1_536));
                    pool.release(i * 1_000 + 500, func, 1_536);
                }
                black_box(pool.stats());
            },
        ),
    ));

    // One task body handed to a worker thread and joined — the fixed cost
    // `workers >= 2` pays per task.
    const HANDOFFS: u64 = 2_000;
    let pool = WorkerPool::new(1);
    out.push((
        "rt.worker.handoff_ns",
        ns_per_op(
            HANDOFFS,
            || (),
            |()| {
                for i in 0..HANDOFFS {
                    black_box(pool.submit(move || i).join());
                }
            },
        ),
    ));
}

fn obs(out: &mut Vec<(&'static str, f64)>) {
    const CALLS: u64 = 500_000;
    // Generic, not `dyn`: the call must inline, a disabled record is one
    // branch and an indirect call would cost more than it does.
    fn record_ns(name: &'static str, record: impl Fn(u64), out: &mut Vec<(&'static str, f64)>) {
        let ns = ns_per_op(
            CALLS,
            || (),
            |()| {
                for i in 0..CALLS {
                    black_box(&record)(i);
                }
            },
        );
        out.push((name, ns));
    }
    let labels = [("kind", "vm")];
    let disabled = MetricsRegistry::disabled().counter_handle("tasks_completed_total", &labels);
    record_ns("obs.disabled_record_ns", |i| disabled.add(i & 1), out);
    let enabled = MetricsRegistry::enabled();
    let counter = enabled.counter_handle("tasks_completed_total", &labels);
    record_ns("obs.handle_counter_ns", |i| counter.add(i & 1), out);
    let histogram = enabled.histogram_handle("task_run_seconds", &labels);
    record_ns(
        "obs.handle_histogram_ns",
        |i| histogram.observe(i as f64 * 1e-6),
        out,
    );
    let quantile = enabled.quantile_handle("task_run_seconds", &labels);
    record_ns(
        "obs.handle_quantile_ns",
        |i| quantile.record(i as f64 * 1e-6),
        out,
    );
}

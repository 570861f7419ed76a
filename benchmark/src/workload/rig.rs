//! `pagerank` and `cloudsort`: one engine job each on a local rig of eight
//! VM executors over a `LocalDiskStore` — the shuffle data plane with almost
//! no control plane around it (under a thousand simulator events per run).
//!
//! `pagerank` goes through the combine path (hash-group, two-pass sized
//! encode, streamed decode-and-merge of `(u64, f64)` pairs). `cloudsort`
//! uses the same shuffle layer the other way: no combine, 100-byte records,
//! single-pass pooled encode and a range sort. PR 3 measured two-pass sizing
//! as a win for the first shape and a loss for the second, so a data-plane
//! change has to be judged on both.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use splitserve_des::{Fabric, Sim};
use splitserve_engine::{
    collect_partitions, Dataset, Engine, EngineConfig, ExecutorDesc, JobMetrics, TaskContext,
};
use splitserve_storage::{LocalDiskStore, SharedStore};
use splitserve_workloads::{reference_pagerank, CloudSort, PageRank};

use super::{Digest, IterOut, Mode, Workload};
use crate::store::TimedStore;
use crate::trace::span;

const EXECUTORS: usize = 8;

/// A fresh simulator and an engine over `executors` VM executors with
/// 1 GB/s NIC and disk links, sharing one `LocalDiskStore` — the rig of
/// `crates/bench/benches/shuffle_hot.rs`.
fn local_rig(seed: u64, executors: usize, mode: &Mode) -> (Sim, Engine) {
    let fabric = Fabric::new();
    let mut store: SharedStore = Rc::new(LocalDiskStore::new(fabric.clone()));
    if let Some(tracer) = &mode.tracer {
        store = TimedStore::wrap(store, Rc::clone(tracer));
    }
    let cfg = EngineConfig {
        workers: mode.workers,
        obs: mode.obs.clone(),
        ..EngineConfig::default()
    };
    let engine = Engine::new(cfg, store);
    let mut sim = Sim::new(seed);
    for i in 0..executors {
        let nic = fabric.add_link(1e9, format!("n{i}"));
        let disk = fabric.add_link(1e9, format!("d{i}"));
        engine.register_executor(
            &mut sim,
            ExecutorDesc::vm(format!("e-{i}"), nic, disk, 8192),
        );
    }
    (sim, engine)
}

/// Runs `plan` as one job on a fresh local rig, hands the collected rows to
/// `on_rows`, and accounts the run into `out`. Returns what `on_rows`
/// returned, or `None` if the job never completed.
pub fn run_on_rig<T, R>(
    plan: &Dataset<T>,
    seed: u64,
    executors: usize,
    mode: &Mode,
    out: &mut IterOut,
    on_rows: impl FnOnce(Vec<T>) -> R + 'static,
) -> Option<R>
where
    T: Clone + Send + Sync + 'static,
    R: 'static,
{
    let _run = span(&mode.tracer, "run");
    let t0 = Instant::now();
    let (mut sim, engine) = local_rig(seed, executors, mode);
    let done = Rc::new(RefCell::new(None));
    let slot = Rc::clone(&done);
    let submit = || {
        engine.submit_job(&mut sim, plan.node(), move |_, job| {
            let rows = collect_partitions::<T>(job.partitions);
            *slot.borrow_mut() = Some((on_rows(rows), job.metrics));
        })
    };
    match &mode.tracer {
        None => {
            submit();
            sim.run();
        }
        Some(tracer) => {
            tracer.time_leaf("engine.submit", submit);
            while sim.step() {
                out.sim_queue_peak = out.sim_queue_peak.max(sim.pending_events() as u64);
            }
            out.sim_events += sim.executed_events();
        }
    }
    out.attempted += 1;
    out.add_store(engine.store().stats());
    let finished: Option<(R, Arc<JobMetrics>)> = done.borrow_mut().take();
    let Some((result, metrics)) = finished else {
        out.fail("the job never completed");
        return None;
    };
    out.virtual_s += metrics.execution_time().as_secs_f64();
    out.add_jobs(&[metrics]);
    if mode.tracer.is_some() {
        out.sim_host_ns += t0.elapsed().as_nanos() as u64;
    }
    Some(result)
}

/// Folds the virtual-time side of `out` into `d`: the same job must take
/// the same virtual time, tasks, stages and bytes on every iteration.
fn digest_model(d: &mut Digest, out: &IterOut) {
    d.f64(out.virtual_s)
        .u64(out.tasks)
        .u64(out.stages)
        .u64(out.tasks_recomputed)
        .u64(out.shuffle_bytes_written)
        .u64(out.shuffle_bytes_read)
        .store(&out.store);
}

pub struct PageRankLoad {
    load: PageRank,
    /// `reference_pagerank`, sorted by page; consumed by the first iteration.
    reference: Option<Vec<(u64, f64)>>,
}

impl PageRankLoad {
    pub fn new(seed: u64) -> PageRankLoad {
        PageRankLoad::sized(200_000, seed)
    }

    pub fn sized(pages: u64, seed: u64) -> PageRankLoad {
        let load = PageRank::new(pages, 2, 8, seed);
        let reference = Some(reference_pagerank(&load));
        PageRankLoad { load, reference }
    }
}

impl Workload for PageRankLoad {
    fn unit(&self) -> &'static str {
        "pages"
    }

    fn iterate(&mut self, mode: &Mode) -> IterOut {
        let mut out = IterOut::default();
        let reference = self.reference.take();
        let ranks = run_on_rig(
            &self.load.plan(),
            self.load.seed,
            EXECUTORS,
            mode,
            &mut out,
            move |rows| {
                let mut d = Digest::new();
                for (page, rank) in &rows {
                    d.u64(*page).f64(*rank);
                }
                let mismatch = reference.and_then(|r| first_mismatch(&rows, &r));
                (d.finish(), rows.len(), mismatch)
            },
        );
        let mut d = Digest::new();
        if let Some((ranks_digest, rows, mismatch)) = ranks {
            d.u64(ranks_digest);
            if rows == 0 {
                out.fail("no ranks produced");
            }
            if let Some(why) = mismatch {
                out.fail(why);
            }
        }
        digest_model(&mut d, &out);
        out.digest = d.finish();
        out.units = self.load.pages;
        out
    }
}

/// The distributed result holds only pages that received links; each of its
/// rows must match the reference to 1e-9 (same float operations, different
/// summation order).
fn first_mismatch(rows: &[(u64, f64)], reference: &[(u64, f64)]) -> Option<String> {
    rows.iter().find_map(
        |(page, rank)| match reference.binary_search_by_key(page, |(p, _)| *p) {
            Ok(i) if (reference[i].1 - rank).abs() < 1e-9 => None,
            Ok(i) => Some(format!(
                "page {page}: rank {rank} vs reference {}",
                reference[i].1
            )),
            Err(_) => Some(format!("page {page} is not in the reference")),
        },
    )
}

pub struct CloudSortLoad {
    load: CloudSort,
    /// Record count and wrapping key sum of the generated input.
    input: (u64, u64),
}

impl CloudSortLoad {
    pub fn new(seed: u64) -> CloudSortLoad {
        CloudSortLoad::sized(500_000, seed)
    }

    pub fn sized(records: u64, seed: u64) -> CloudSortLoad {
        let load = CloudSort::new(records, 8, seed);
        // Materialize the input one partition at a time, as the map tasks
        // will, to know what the sorted output must contain.
        let node = load.input().node();
        let mut input = (0u64, 0u64);
        for part in 0..node.num_partitions() {
            let mut ctx = TaskContext::empty(Default::default());
            let data = node.compute(&mut ctx, part);
            let rows = data
                .downcast_ref::<Vec<(u64, Vec<u8>)>>()
                .expect("CloudSort input rows are (u64, Vec<u8>)");
            input.0 += rows.len() as u64;
            input.1 = rows.iter().fold(input.1, |s, (k, _)| s.wrapping_add(*k));
        }
        CloudSortLoad { load, input }
    }
}

impl Workload for CloudSortLoad {
    fn unit(&self) -> &'static str {
        "records"
    }

    fn iterate(&mut self, mode: &Mode) -> IterOut {
        let mut out = IterOut::default();
        let sorted = run_on_rig(
            &self.load.plan(),
            self.load.seed,
            EXECUTORS,
            mode,
            &mut out,
            |rows| {
                let in_order = rows.windows(2).all(|w| w[0].0 <= w[1].0);
                let key_sum = rows.iter().fold(0u64, |s, (k, _)| s.wrapping_add(*k));
                let mut payloads = Digest::new();
                for (_, v) in &rows {
                    payloads.bytes(v);
                }
                (in_order, rows.len() as u64, key_sum, payloads.finish())
            },
        );
        let mut d = Digest::new();
        if let Some((in_order, count, key_sum, payloads)) = sorted {
            d.u64(count).u64(key_sum).u64(payloads);
            if !in_order {
                out.fail("output is not globally sorted");
            }
            if (count, key_sum) != self.input {
                out.fail(format!(
                    "output holds {count} records with key sum {key_sum:#x}, input {:?}",
                    self.input
                ));
            }
        }
        digest_model(&mut d, &out);
        out.digest = d.finish();
        out.units = self.load.records;
        out
    }
}

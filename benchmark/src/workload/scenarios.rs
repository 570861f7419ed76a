//! `scenarios`: the paper's evaluation matrix — `run_scenario` over all
//! eight scenarios, plus two all-Lambda arms on the SQS and Redis shuffle
//! stores (the Flint and Locus rivals the eight do not cover), ten runs per
//! iteration.
//!
//! Why: a small-data, wide (64-partition) shuffle makes the storage models,
//! fabric water-filling, Lambda launch, segue and autoscale do the work.
//! It is the core of `reproduce_all`, reached through the narrowest public
//! API.

use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

use splitserve::{Deployment, DriverProgram, Scenario, ScenarioSpec, ShuffleStoreKind};
use splitserve_cloud::M4_10XLARGE;
use splitserve_des::{Sim, SimDuration};
use splitserve_engine::{collect_partitions, Engine, EngineEventKind};
use splitserve_storage::SharedStore;
use splitserve_workloads::PageRank;

use super::{Digest, IterOut, Mode, TimedProgram, Workload};
use crate::store::TimedStore;
use crate::trace::{leaf_totals, span, Tracer};

const PAGES: u64 = 20_000;

/// Virtual CPU seconds per PageRank contribution at `PAGES` pages: large
/// enough that on 32 cores the job outlives the 20 s Lambda timeout, so the
/// segue scenario drains executors mid-job.
const CONTRIB_COST_SECS: f64 = 8.0e-3;

pub struct Scenarios {
    spec: ScenarioSpec,
    load: PageRank,
}

impl Scenarios {
    pub fn new(seed: u64) -> Scenarios {
        Scenarios::sized(PAGES, seed)
    }

    /// The same matrix over a graph of `pages` pages, with the virtual cost
    /// per contribution scaled so the job takes as long on the virtual clock.
    pub fn sized(pages: u64, seed: u64) -> Scenarios {
        let spec = ScenarioSpec {
            required_cores: 32,
            available_cores: 8,
            worker_type: M4_10XLARGE,
            master_type: M4_10XLARGE,
            lambda_timeout: SimDuration::from_secs(20),
            segue_existing_cores_at: Some(SimDuration::from_secs(15)),
            seed,
            ..ScenarioSpec::default()
        };
        let load = PageRank::new(pages, 3, 64, seed)
            .with_contrib_cost(CONTRIB_COST_SECS * PAGES as f64 / pages as f64);
        Scenarios { spec, load }
    }

    fn spec_for(&self, mode: &Mode) -> ScenarioSpec {
        let mut spec = self.spec.clone();
        spec.engine.workers = mode.workers;
        spec.engine.obs = mode.obs.clone();
        spec
    }
}

impl Workload for Scenarios {
    fn unit(&self) -> &'static str {
        "runs"
    }

    fn iterate(&mut self, mode: &Mode) -> IterOut {
        let mut out = IterOut::default();
        let spec = self.spec_for(mode);
        let mut d = Digest::new();
        let mut fingerprints = Vec::new();

        for scenario in Scenario::all() {
            let _run = span(&mode.tracer, "run");
            let sink = Rc::new(Cell::new(None));
            let program = || program(&self.load, &sink, &mode.tracer);
            let r = splitserve::run_scenario(scenario, &spec, &program);
            out.attempted += 1;
            out.virtual_s += r.execution_secs;
            out.cost_usd += r.cost_usd;
            out.add_jobs(&r.jobs);
            out.add_store(r.store_stats);
            d.f64(r.execution_secs)
                .f64(r.cost_usd)
                .u64(r.tasks_on_vm)
                .u64(r.tasks_on_lambda);
            d.store(&r.store_stats);
            fingerprints.push(sink.get());
            let drains = r
                .events
                .iter()
                .filter(|e| matches!(e.kind, EngineEventKind::ExecutorDraining { .. }))
                .count();
            if scenario == Scenario::SsHybridSegue && drains == 0 {
                out.fail("the segue run drained no executor");
            }
        }
        for kind in [ShuffleStoreKind::Sqs, ShuffleStoreKind::Redis] {
            let _run = span(&mode.tracer, "run");
            let arm = run_arm(kind, &spec, &self.load, mode, &mut out);
            d.f64(arm.execution_secs).f64(arm.cost_usd);
            fingerprints.push(arm.fingerprint);
        }

        if fingerprints
            .iter()
            .any(|fp| fp.is_none() || *fp != fingerprints[0])
        {
            out.fail(format!(
                "ranks fingerprint differs across runs: {fingerprints:x?}"
            ));
        }
        if out.tasks_recomputed != 0 {
            out.fail(format!("{} tasks were recomputed", out.tasks_recomputed));
        }
        d.u64(fingerprints[0].unwrap_or(0))
            .u64(out.tasks)
            .u64(out.stages);
        out.digest = d.finish();
        out.units = out.attempted;
        out
    }
}

/// The PageRank job as a driver program that leaves a fingerprint of its
/// sorted ranks in `sink` (`PageRank`'s own `submit` checks but does not
/// expose its output).
struct RanksProgram {
    load: PageRank,
    sink: Rc<Cell<Option<u64>>>,
}

impl DriverProgram for RanksProgram {
    fn name(&self) -> String {
        self.load.name()
    }

    fn parallelism(&self) -> usize {
        self.load.parallelism
    }

    fn submit(&self, sim: &mut Sim, engine: &Engine, done: Box<dyn FnOnce(&mut Sim)>) {
        let sink = Rc::clone(&self.sink);
        engine.submit_job(sim, self.load.plan().node(), move |sim, job| {
            let mut ranks = collect_partitions::<(u64, f64)>(job.partitions);
            ranks.sort_unstable_by_key(|(page, _)| *page);
            let mut d = Digest::new();
            for (page, rank) in &ranks {
                d.u64(*page).f64(*rank);
            }
            sink.set(Some(d.finish()));
            done(sim);
        });
    }
}

fn program(
    load: &PageRank,
    sink: &Rc<Cell<Option<u64>>>,
    tracer: &Option<Rc<Tracer>>,
) -> Box<dyn DriverProgram> {
    let inner = Box::new(RanksProgram {
        load: load.clone(),
        sink: Rc::clone(sink),
    });
    match tracer {
        None => inner,
        Some(tracer) => Box::new(TimedProgram {
            inner,
            tracer: Rc::clone(tracer),
        }),
    }
}

struct ArmResult {
    execution_secs: f64,
    cost_usd: f64,
    fingerprint: Option<u64>,
}

/// One run on the benchmark's own deployment: `R` executors — Lambdas, or
/// VM cores for the executor-local store, which Lambdas cannot serve from —
/// over the shuffle store `kind`. It mirrors `run_scenario`'s all-Lambda
/// arms for the store kinds they do not reach, and because the benchmark
/// owns this `Sim` and store, the traced pass reads event counts, queue
/// depth and per-call store time here.
fn run_arm(
    kind: ShuffleStoreKind,
    spec: &ScenarioSpec,
    load: &PageRank,
    mode: &Mode,
    out: &mut IterOut,
) -> ArmResult {
    let t0 = Instant::now();
    let mut sim = Sim::new(spec.seed);
    let d = Deployment::with_wrapped_store(
        &mut sim,
        spec.cloud.clone(),
        kind,
        spec.master_type.clone(),
        spec.engine.clone(),
        |s: SharedStore| match &mode.tracer {
            None => s,
            Some(tracer) => TimedStore::wrap(s, Rc::clone(tracer)),
        },
    );
    d.set_lambda_memory_mb(spec.lambda_memory_mb);
    if kind == ShuffleStoreKind::Local {
        d.add_vm_workers(&mut sim, spec.worker_type.clone(), spec.required_cores);
    } else {
        d.add_lambda_executors(&mut sim, spec.required_cores);
    }

    let sink = Rc::new(Cell::new(None));
    let finished = Rc::new(Cell::new(None));
    let (f, d2) = (Rc::clone(&finished), d.clone());
    program(load, &sink, &mode.tracer).submit(
        &mut sim,
        d.engine(),
        Box::new(move |sim| {
            f.set(Some(sim.now().as_secs_f64()));
            d2.shutdown(sim);
        }),
    );
    if mode.tracer.is_none() {
        sim.run();
    } else {
        while sim.step() {
            out.sim_queue_peak = out.sim_queue_peak.max(sim.pending_events() as u64);
        }
        out.sim_events += sim.executed_events();
        out.sim_host_ns += t0.elapsed().as_nanos() as u64;
    }

    out.attempted += 1;
    out.add_jobs(&d.engine().completed_job_metrics());
    out.add_store(d.engine().store().stats());
    let Some(execution_secs) = finished.get() else {
        out.fail(format!("the {kind} arm never completed"));
        return ArmResult {
            execution_secs: 0.0,
            cost_usd: 0.0,
            fingerprint: None,
        };
    };
    out.virtual_s += execution_secs;
    let cost_usd = d.cloud().total_cost();
    out.cost_usd += cost_usd;
    ArmResult {
        execution_secs,
        cost_usd,
        fingerprint: sink.get(),
    }
}

/// Host nanoseconds per store call as `(metric, ns)`, per store kind: one
/// traced arm on each kind, with the scenarios' own workload shape.
pub fn store_kind_probe(seed: u64) -> Vec<(&'static str, f64)> {
    let s = Scenarios::new(seed);
    [
        ("storage.hdfs.call_ns_per_op", ShuffleStoreKind::Hdfs),
        ("storage.s3.call_ns_per_op", ShuffleStoreKind::S3),
        ("storage.sqs.call_ns_per_op", ShuffleStoreKind::Sqs),
        ("storage.redis.call_ns_per_op", ShuffleStoreKind::Redis),
        ("storage.local.call_ns_per_op", ShuffleStoreKind::Local),
    ]
    .into_iter()
    .map(|(name, kind)| {
        let tracer = Tracer::new();
        let mode = Mode {
            tracer: Some(Rc::clone(&tracer)),
            ..Mode::plain()
        };
        {
            let _run = tracer.enter("run");
            run_arm(kind, &s.spec, &s.load, &mode, &mut IterOut::default());
        }
        let leaves = leaf_totals(&tracer.spans(), |_| true);
        let (calls, ns) = ["storage.put", "storage.get"]
            .iter()
            .filter_map(|l| leaves.get(l))
            .fold((0, 0), |(c, n), l| (c + l.count, n + l.total_ns));
        (name, ns as f64 / calls.max(1) as f64)
    })
    .collect()
}

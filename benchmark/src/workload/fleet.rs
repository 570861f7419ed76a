//! `fleet`: the default 100-tenant, ~10.5k-job, 1200 s trace through
//! `run_tenant_fleet` under all three provisioning policies, plus the JSON
//! artifact render — `examples/tenant_fleet.rs` as a loop.
//!
//! Why: the control plane does nearly all the work. Roughly a million
//! events per iteration cross the des queue, engine dispatch, admission,
//! the warm pool, billing and many tiny HDFS ops, while every task body
//! touches eight records.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use splitserve::tenancy::{
    combined_fingerprint, default_fleet_jobs, default_tenant_specs, fleet_workload,
    render_fleet_json, run_tenant_fleet_with, verify_log, FleetJob, FleetOutcome, FleetPolicy,
    TenantFleetConfig, TenantSpec, WorkloadFn,
};
use splitserve::DriverProgram;
use splitserve_des::{Sim, SimDuration};
use splitserve_engine::Engine;
use splitserve_storage::SharedStore;

use super::{Digest, IterOut, Mode, TimedProgram, Workload};
use crate::store::TimedStore;
use crate::trace::{span, Tracer};

const TENANTS: usize = 100;
const TARGET_JOBS: usize = 10_500;
const HORIZON_SECS: f64 = 1_200.0;
const POOL_CORES: u32 = 40;
const RECORDS_PER_TASK: usize = 8;

pub struct Fleet {
    seed: u64,
    tenants: Vec<TenantSpec>,
    jobs: Vec<FleetJob>,
    gen_s: f64,
}

impl Fleet {
    pub fn new(seed: u64) -> Fleet {
        Fleet::sized(seed, TENANTS, TARGET_JOBS, HORIZON_SECS)
    }

    /// A smaller fleet of the same shape, for the harness tests.
    pub fn sized(seed: u64, tenants: usize, target_jobs: usize, horizon_secs: f64) -> Fleet {
        let tenants = default_tenant_specs(tenants);
        let t0 = Instant::now();
        let jobs = default_fleet_jobs(&tenants, seed, target_jobs, horizon_secs);
        let gen_s = t0.elapsed().as_secs_f64();
        Fleet {
            seed,
            tenants,
            jobs,
            gen_s,
        }
    }

    fn run_policy(
        &self,
        policy: FleetPolicy,
        mode: &Mode,
        out: &mut IterOut,
    ) -> (FleetOutcome, u64) {
        let _policy = span(&mode.tracer, "policy");
        let mut cfg = TenantFleetConfig::for_policy(policy, self.tenants.clone(), POOL_CORES);
        cfg.seed = self.seed;
        cfg.engine.workers = mode.workers;
        cfg.engine.obs = mode.obs.clone();
        let (workload, sink) = fleet_workload(RECORDS_PER_TASK);

        // Only the traced pass reaches inside the run: the store decorator,
        // the sim probe and a handle on the engine for its job metrics.
        let probe = Rc::new(RefCell::new(SimProbe::default()));
        let store: RefCell<Option<SharedStore>> = RefCell::new(None);
        let engine: RefCell<Option<Engine>> = RefCell::new(None);
        let t0 = Instant::now();
        let r = {
            let _run = span(&mode.tracer, "run");
            match &mode.tracer {
                None => run_tenant_fleet_with(&cfg, &self.jobs, workload, |s| s, |_, _| {}),
                Some(tracer) => run_tenant_fleet_with(
                    &cfg,
                    &self.jobs,
                    timed_workload(workload, Rc::clone(tracer)),
                    |s| {
                        *store.borrow_mut() = Some(Rc::clone(&s));
                        TimedStore::wrap(s, Rc::clone(tracer))
                    },
                    |sim, d| {
                        SimProbe::arm(sim, Rc::clone(&probe));
                        *engine.borrow_mut() = Some(d.engine().clone());
                    },
                ),
            }
        };
        let run_ns = t0.elapsed().as_nanos() as u64;

        {
            let _verify = span(&mode.tracer, "verify");
            if let Err(e) = verify_log(cfg.slots, &self.tenants, &r.admission) {
                out.fail(format!("{policy}: admission log does not replay: {e}"));
            }
            let billed: f64 = r.bill.tenants().iter().map(|t| r.bill.total(t)).sum();
            if (billed - r.cost_usd).abs() >= 1e-9 {
                out.fail(format!(
                    "{policy}: bill {billed} does not settle to {}",
                    r.cost_usd
                ));
            }
            if r.outcomes.len() != self.jobs.len() || sink.borrow().len() != self.jobs.len() {
                out.fail(format!(
                    "{policy}: {} of {} jobs completed",
                    r.outcomes.len(),
                    self.jobs.len()
                ));
            }
        }

        out.cost_usd += r.cost_usd;
        out.virtual_s += r.outcomes.iter().map(|o| o.finished_us).max().unwrap_or(0) as f64 / 1e6;
        out.lambdas_launched += u64::from(r.lambdas_launched);
        out.cold_starts += r.pool.cold_starts;
        out.warm_starts += r.pool.warm_starts;
        out.admission_events += r.admission.len() as u64;
        if let (Some(store), Some(engine)) = (store.into_inner(), engine.into_inner()) {
            out.add_store(store.stats());
            out.add_jobs(&engine.completed_job_metrics());
            let probe = probe.borrow();
            out.sim_events += probe.events();
            out.sim_queue_peak = out.sim_queue_peak.max(probe.queue_peak);
            out.sim_host_ns += run_ns;
        }
        let fingerprint = combined_fingerprint(&sink.borrow());
        (r, fingerprint)
    }
}

impl Workload for Fleet {
    fn unit(&self) -> &'static str {
        "jobs"
    }

    fn arrivals_gen_s(&self) -> f64 {
        self.gen_s
    }

    fn iterate(&mut self, mode: &Mode) -> IterOut {
        let mut out = IterOut::default();
        let results: Vec<(FleetOutcome, u64)> = FleetPolicy::all()
            .into_iter()
            .map(|policy| self.run_policy(policy, mode, &mut out))
            .collect();
        if results.iter().any(|(_, fp)| *fp != results[0].1) {
            out.fail("data fingerprint differs across policies");
        }
        for (slot, (r, _)) in out.slo_attainment.iter_mut().zip(&results) {
            *slot = r.slo.fleet_attainment();
        }
        // `workers` is rendered as 1 whatever the mode, so the artifact —
        // and with it the digest — must not depend on the worker count.
        let json = {
            let _render = span(&mode.tracer, "render");
            render_fleet_json(1, &self.tenants, self.jobs.len(), &results)
        };
        out.digest = Digest::new().bytes(json.as_bytes()).finish();
        out.units = (results.len() * self.jobs.len()) as u64;
        out.attempted = out.units;
        out
    }
}

/// Wraps every job's driver program so its `submit` is timed as an
/// `engine.submit` leaf.
fn timed_workload(inner: WorkloadFn, tracer: Rc<Tracer>) -> WorkloadFn {
    Rc::new(move |job: &FleetJob| {
        Box::new(TimedProgram {
            inner: inner(job),
            tracer: Rc::clone(&tracer),
        }) as Box<dyn DriverProgram>
    })
}

/// Samples a `Sim` the benchmark does not own, once per virtual second,
/// through an event of its own scheduled from the `arm` hook. The probe
/// draws no randomness and only shifts later events' sequence numbers
/// uniformly, so the run's virtual-time results are unchanged (a harness
/// test holds the digest to that).
#[derive(Debug, Default)]
pub struct SimProbe {
    fires: u64,
    executed: u64,
    pub queue_peak: u64,
}

impl SimProbe {
    pub fn arm(sim: &mut Sim, probe: Rc<RefCell<SimProbe>>) {
        sim.schedule_in(SimDuration::from_secs(1), move |sim| {
            let pending = sim.pending_events() as u64;
            {
                let mut p = probe.borrow_mut();
                p.fires += 1;
                p.executed = sim.executed_events();
                p.queue_peak = p.queue_peak.max(pending);
            }
            // With nothing else pending the run is over and this was its
            // last event; re-arming would keep the simulation alive forever.
            if pending > 0 {
                SimProbe::arm(sim, probe);
            }
        });
    }

    /// Events the program executed: everything the `Sim` ran up to the
    /// probe's last firing — which is the run's last event — minus the
    /// probe's own.
    pub fn events(&self) -> u64 {
        self.executed - self.fires
    }
}

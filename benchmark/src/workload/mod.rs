//! The four workloads and what one iteration of any of them reports.
//!
//! Every workload is a closed loop of one client: the harness calls
//! [`Workload::iterate`] back to back. An iteration runs the program on
//! inputs generated from the seed, checks its outputs, and returns exact
//! counts plus a digest of every virtual-time result, which must repeat on
//! every later iteration.

mod fleet;
mod rig;
mod scenarios;

use std::hash::Hasher;
use std::rc::Rc;
use std::sync::Arc;

use splitserve::DriverProgram;
use splitserve_des::Sim;
use splitserve_engine::{Engine, JobMetrics};
use splitserve_obs::Obs;
use splitserve_rt::hash::XxHash64;
use splitserve_storage::StoreStats;

use crate::trace::Tracer;

pub use fleet::Fleet;
pub use rig::{run_on_rig, CloudSortLoad, PageRankLoad};
pub use scenarios::{store_kind_probe, Scenarios};

/// Stable workload names, in the order the suite runs them.
pub const NAMES: [&str; 4] = ["fleet", "pagerank", "cloudsort", "scenarios"];

/// How one iteration runs. The timed pass always uses [`Mode::plain`].
#[derive(Clone)]
pub struct Mode {
    /// Record spans and install the store decorator and the sim probe.
    pub tracer: Option<Rc<Tracer>>,
    /// The program's own observability layer; disabled except in the
    /// overhead pairs of the traced pass.
    pub obs: Obs,
    /// Engine worker threads; 1 except in the `rt.worker.speedup_w2` runs.
    pub workers: usize,
}

impl Mode {
    pub fn plain() -> Mode {
        Mode {
            tracer: None,
            obs: Obs::disabled(),
            workers: 1,
        }
    }
}

/// What one iteration did. Counts are exact and virtual-time results are
/// only ever folded into `digest` and the `model` fields, never scored.
#[derive(Debug, Clone, Default)]
pub struct IterOut {
    /// Digest of every virtual-time result and output fingerprint.
    pub digest: u64,
    /// Work done, in the workload's own unit.
    pub units: u64,
    /// Operations attempted: fleet jobs, engine jobs or scenario runs.
    pub attempted: u64,
    /// Why the outputs are wrong, if they are.
    pub error: Option<String>,

    pub virtual_s: f64,
    pub cost_usd: f64,
    /// SLO attainment per fleet policy, in `FleetPolicy::all()` order.
    pub slo_attainment: [f64; 3],

    pub engine_jobs: u64,
    pub tasks: u64,
    pub stages: u64,
    pub tasks_recomputed: u64,
    pub shuffle_bytes_written: u64,
    pub shuffle_bytes_read: u64,

    /// Store counters of every run whose store the benchmark can reach
    /// (all of them in the traced pass, see each workload).
    pub store: StoreStats,

    pub lambdas_launched: u64,
    pub cold_starts: u64,
    pub warm_starts: u64,
    pub admission_events: u64,

    /// Simulator events executed and peak queue depth, traced pass only,
    /// over the runs whose `Sim` the benchmark can reach; `sim_host_ns` is
    /// the host time of exactly those runs.
    pub sim_events: u64,
    pub sim_queue_peak: u64,
    pub sim_host_ns: u64,
}

impl IterOut {
    pub fn add_store(&mut self, s: StoreStats) {
        self.store.puts += s.puts;
        self.store.gets += s.gets;
        self.store.bytes_in += s.bytes_in;
        self.store.bytes_out += s.bytes_out;
        self.store.failed_gets += s.failed_gets;
        self.store.throttle_wait_secs += s.throttle_wait_secs;
    }

    pub fn add_jobs(&mut self, jobs: &[Arc<JobMetrics>]) {
        for m in jobs {
            self.engine_jobs += 1;
            self.tasks += m.tasks_total();
            self.stages += m.stages_run as u64;
            self.tasks_recomputed += m.tasks_recomputed;
            self.shuffle_bytes_written += m.shuffle_bytes_written;
            self.shuffle_bytes_read += m.shuffle_bytes_read;
        }
    }

    pub fn fail(&mut self, why: impl Into<String>) {
        self.error.get_or_insert(why.into());
    }
}

pub trait Workload {
    /// What `IterOut::units` counts.
    fn unit(&self) -> &'static str;

    /// Runs the program once and checks its outputs. The first call also
    /// checks them against the independent reference built by `new`.
    fn iterate(&mut self, mode: &Mode) -> IterOut;

    /// Host seconds `new` spent in `core.tenancy` arrival generation.
    fn arrivals_gen_s(&self) -> f64 {
        0.0
    }
}

/// Generates `name`'s inputs and references from `seed`.
pub fn build(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "fleet" => Box::new(Fleet::new(seed)),
        "pagerank" => Box::new(PageRankLoad::new(seed)),
        "cloudsort" => Box::new(CloudSortLoad::new(seed)),
        "scenarios" => Box::new(Scenarios::new(seed)),
        _ => return None,
    })
}

/// A driver program whose `submit` call is reported as an `engine.submit`
/// leaf.
pub struct TimedProgram {
    pub inner: Box<dyn DriverProgram>,
    pub tracer: Rc<Tracer>,
}

impl DriverProgram for TimedProgram {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn parallelism(&self) -> usize {
        self.inner.parallelism()
    }

    fn submit(&self, sim: &mut Sim, engine: &Engine, done: Box<dyn FnOnce(&mut Sim)>) {
        self.tracer
            .time_leaf("engine.submit", || self.inner.submit(sim, engine, done));
    }
}

/// Order-sensitive 64-bit digest of a stream of words.
pub struct Digest(XxHash64);

impl Digest {
    pub fn new() -> Digest {
        Digest(XxHash64::with_seed(0))
    }

    pub fn u64(&mut self, v: u64) -> &mut Digest {
        self.0.write_u64(v);
        self
    }

    pub fn f64(&mut self, v: f64) -> &mut Digest {
        self.u64(v.to_bits())
    }

    pub fn bytes(&mut self, b: &[u8]) -> &mut Digest {
        self.0.write(b);
        self
    }

    pub fn store(&mut self, s: &StoreStats) -> &mut Digest {
        self.u64(s.puts)
            .u64(s.gets)
            .u64(s.bytes_in)
            .u64(s.bytes_out)
            .u64(s.failed_gets)
            .f64(s.throttle_wait_secs)
    }

    pub fn finish(&self) -> u64 {
        self.0.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::fleet::SimProbe;
    use super::*;
    use crate::trace::{check_integrity, leaf_totals, Span};
    use std::cell::RefCell;

    /// Each workload at a fraction of its size, same shape.
    fn small() -> Vec<(&'static str, Box<dyn Workload>)> {
        vec![
            ("fleet", Box::new(Fleet::sized(5, 6, 60, 60.0))),
            ("pagerank", Box::new(PageRankLoad::sized(2_000, 5))),
            ("cloudsort", Box::new(CloudSortLoad::sized(5_000, 5))),
            ("scenarios", Box::new(Scenarios::sized(1_000, 5))),
        ]
    }

    fn traced_iteration(w: &mut dyn Workload) -> (IterOut, Vec<Span>) {
        let tracer = Tracer::new();
        tracer.next_trace();
        let mode = Mode {
            tracer: Some(Rc::clone(&tracer)),
            ..Mode::plain()
        };
        let out = {
            let _iteration = tracer.enter("iteration");
            w.iterate(&mode)
        };
        (out, tracer.spans())
    }

    #[test]
    fn outputs_check_and_every_iteration_repeats_the_first_digest() {
        for (name, mut w) in small() {
            let first = w.iterate(&Mode::plain());
            assert_eq!(first.error, None, "{name}");
            assert!(first.units > 0 && first.attempted > 0, "{name}");
            for k in 1..3 {
                let again = w.iterate(&Mode::plain());
                assert_eq!(again.error, None, "{name} iteration {k}");
                assert_eq!(again.digest, first.digest, "{name} iteration {k}");
            }
        }
    }

    /// The store decorator, the wrapped driver programs and the sim probe
    /// must leave every virtual-time result as it was; so must the program's
    /// own obs layer and a second worker thread.
    #[test]
    fn watching_a_run_does_not_change_it() {
        for (name, mut w) in small() {
            let plain = w.iterate(&Mode::plain());
            let (traced, _) = traced_iteration(w.as_mut());
            assert_eq!(traced.error, None, "{name}");
            assert_eq!(
                traced.digest, plain.digest,
                "{name}: tracing changed the model"
            );
            assert!(
                traced.sim_events > 0 && traced.sim_queue_peak > 0,
                "{name}: the probe saw nothing"
            );
            assert_eq!(
                (traced.store.puts > 0, traced.tasks > 0),
                (true, true),
                "{name}: the traced pass reached no store or engine"
            );
            let obs = Mode {
                obs: Obs::enabled(),
                ..Mode::plain()
            };
            assert_eq!(
                w.iterate(&obs).digest,
                plain.digest,
                "{name}: obs changed the model"
            );
            let two = Mode {
                workers: 2,
                ..Mode::plain()
            };
            assert_eq!(
                w.iterate(&two).digest,
                plain.digest,
                "{name}: workers changed the model"
            );
        }
    }

    #[test]
    fn traced_spans_form_the_documented_tree() {
        for (name, mut w) in small() {
            let (out, spans) = traced_iteration(w.as_mut());
            assert_eq!(check_integrity(&spans), Ok(()), "{name}");
            let parent_name = |s: &Span| s.parent.map(|p| spans[p].name);
            for s in &spans {
                let want = match s.name {
                    "iteration" => None,
                    "policy" | "render" => Some("iteration"),
                    "run" | "verify" if name == "fleet" => Some("policy"),
                    "run" => Some("iteration"),
                    other => panic!("{name}: unexpected span {other}"),
                };
                assert_eq!(parent_name(s), want, "{name}: parent of {}", s.name);
                assert!(
                    s.leaves.is_empty() || s.name == "run",
                    "{name}: leaves outside run"
                );
            }
            // Every store call the store counted went through the decorator,
            // except in the scenario runs `run_scenario` keeps out of reach.
            let leaves = leaf_totals(&spans, |_| true);
            let calls = leaves["storage.put"].count + leaves["storage.get"].count;
            let counted = out.store.puts + out.store.gets;
            if name == "scenarios" {
                assert!(calls > 0 && calls < counted, "{name}");
            } else {
                assert_eq!(calls, counted, "{name}");
            }
            assert_eq!(leaves["engine.submit"].count, out.engine_jobs, "{name}");
        }
    }

    #[test]
    fn sim_probe_counts_the_programs_events_and_lets_the_run_end() {
        let mut sim = Sim::new(1);
        let probe = Rc::new(RefCell::new(SimProbe::default()));
        SimProbe::arm(&mut sim, Rc::clone(&probe));
        for i in 0..10u64 {
            sim.schedule_in(splitserve_des::SimDuration::from_millis(450 * i), |_| {});
        }
        sim.run();
        // Ten events over 4.05 virtual seconds; the probe fired at 1..=5 s
        // and stopped once nothing else was pending.
        assert_eq!(probe.borrow().events(), 10);
        assert_eq!(sim.executed_events(), 15);
        assert!(probe.borrow().queue_peak >= 1);
    }
}

//! One workload, one pass, one process: the timed pass measures the
//! end-to-end metrics with tracing off; the traced pass alternates plain,
//! traced, obs-enabled and two-worker iterations, then runs the layer
//! probes, and produces every per-layer metric.

use std::path::PathBuf;
use std::rc::Rc;
use std::time::Instant;

use splitserve_obs::Obs;

use crate::alloc::Snapshot;
use crate::json::Json;
use crate::metrics::{self, Metrics, END_TO_END, PER_LAYER};
use crate::stats::{high_percentile, iqr_frac, median};
use crate::trace::{self, Tracer};
use crate::workload::{self, IterOut, Mode, Workload};
use crate::{host, probes, Fail};

pub struct Config {
    pub workload: String,
    pub seed: u64,
    /// How long the pass measures. Iterations are never cut short, and the
    /// minimum counts below are always run.
    pub seconds: f64,
    pub traced: bool,
    /// Smoke run: a tenth of `seconds`, one set-up, and the fewest
    /// iterations that exercise every code path. Its numbers are not
    /// comparable with a full run's.
    pub quick: bool,
    /// Seconds the caller spent building, for `run.build_s`.
    pub build_s: f64,
    /// Where the traced pass writes `trace_<workload>.json`.
    pub out_dir: PathBuf,
}

/// Set-ups per timed pass; `setup_s` is their median.
const SETUPS: usize = 3;
/// Timed iterations that always run. `peak_rss_mb` is read after exactly
/// this many, so it does not grow with how many more fit into `seconds`.
const MIN_ITERS: usize = 5;
/// Rounds of the traced pass that always run.
const MIN_ROUNDS: usize = 3;

struct Report {
    workload: String,
    attempted: u64,
    failed: u64,
    metrics: Metrics,
}

impl Report {
    /// One `<workload> <metric> <value> <unit>` line per metric measured,
    /// in the order of the metric tables.
    fn print_lines(&self) {
        for spec in metrics::all() {
            if let Some(value) = self.metrics.get(spec.name) {
                println!("{} {} {value} {}", self.workload, spec.name, spec.unit);
            }
        }
    }

    /// The result object of the benchmark contract, holding the metrics
    /// named in `specs` only.
    fn to_json(&self, specs: &[metrics::Spec]) -> Json {
        let metrics = specs.iter().map(|s| {
            let value = self
                .metrics
                .get(s.name)
                .unwrap_or_else(|| panic!("{} was not measured", s.name));
            let entry = Json::obj([
                ("value", Json::Num(value)),
                ("unit", Json::Str(s.unit.into())),
            ]);
            (s.name, entry)
        });
        Json::obj([
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
    }
}

/// Runs the pass and prints its metric lines and result object. Returns
/// whether every operation's outputs checked.
pub fn run(cfg: &Config) -> Result<bool, Fail> {
    // Checked by name: building a workload generates its inputs.
    if !workload::NAMES.contains(&cfg.workload.as_str()) {
        return Err(Fail(format!(
            "unknown workload {:?}; expected one of {:?}",
            cfg.workload,
            workload::NAMES
        )));
    }
    let report = if cfg.traced {
        traced_pass(cfg)?
    } else {
        timed_pass(cfg)
    };
    report.print_lines();
    let specs = if cfg.traced { PER_LAYER } else { END_TO_END };
    println!("{}", report.to_json(specs).render());
    Ok(report.failed == 0)
}

/// Counts an iteration's operations as failed if its outputs are wrong or
/// its digest differs from the reference iteration's.
struct Tally {
    reference_digest: u64,
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn new(first: &IterOut) -> Tally {
        let mut t = Tally {
            reference_digest: first.digest,
            attempted: 0,
            failed: 0,
        };
        t.add(first);
        t
    }

    fn add(&mut self, out: &IterOut) {
        self.attempted += out.attempted;
        if let Some(why) = &out.error {
            eprintln!("benchmark: output check failed: {why}");
            self.failed += out.attempted;
        } else if out.digest != self.reference_digest {
            eprintln!(
                "benchmark: digest {:016x} differs from the first iteration's {:016x}",
                out.digest, self.reference_digest
            );
            self.failed += out.attempted;
        }
    }
}

/// Generates inputs and references from the seed and runs the first,
/// fully checked iteration.
fn set_up(cfg: &Config, mode: &Mode) -> (Box<dyn Workload>, IterOut) {
    let mut w = workload::build(&cfg.workload, cfg.seed).expect("run() checked the name");
    let first = w.iterate(mode);
    (w, first)
}

/// One measured interval, bracketed by the calibration kernel.
struct Measured<T> {
    out: T,
    /// Host seconds.
    raw_s: f64,
    /// Host speed around the interval, see `host::speed`.
    speed: f64,
    allocs: Snapshot,
    /// The closing kernel run, which opens the next adjacent interval.
    kernel_after_s: f64,
}

impl<T> Measured<T> {
    /// Nominal seconds: host seconds scaled to the nominal host's speed.
    fn secs(&self) -> f64 {
        self.raw_s * self.speed
    }
}

/// Runs `f` with nothing but `f` between the clock and allocator readings,
/// so what they report is the program's alone, then the kernel again.
fn measure<T>(kernel_before_s: f64, f: impl FnOnce() -> T) -> Measured<T> {
    let before = Snapshot::now();
    let t = Instant::now();
    let out = f();
    let raw_s = t.elapsed().as_secs_f64();
    let allocs = before.elapsed();
    let kernel_after_s = host::kernel_seconds();
    Measured {
        out,
        raw_s,
        speed: host::speed(kernel_before_s, kernel_after_s),
        allocs,
        kernel_after_s,
    }
}

fn timed_pass(cfg: &Config) -> Report {
    let plain = Mode::plain();
    let (setups, min_iters, seconds) = if cfg.quick {
        (1, 2, cfg.seconds / 10.0)
    } else {
        (SETUPS, MIN_ITERS, cfg.seconds)
    };

    let mut kernel_s = host::kernel_seconds();
    let mut setup_s = Vec::with_capacity(setups);
    let mut state = None;
    for _ in 0..setups {
        drop(state.take());
        let it = measure(kernel_s, || set_up(cfg, &plain));
        kernel_s = it.kernel_after_s;
        setup_s.push(it.secs());
        state = Some(it.out);
    }
    let (mut w, first) = state.expect("at least one set-up ran");
    let mut tally = Tally::new(&first);

    let mut samples = Samples::default();
    let mut units = 0u64;
    let mut peak_rss_mb = 0.0;
    let mut allocs = 0u64;
    let t0 = Instant::now();
    while samples.secs.len() < min_iters || t0.elapsed().as_secs_f64() < seconds {
        let it = measure(kernel_s, || w.iterate(&plain));
        kernel_s = it.kernel_after_s;
        samples.push(&it);
        allocs += it.allocs.allocs;
        units += it.out.units;
        tally.add(&it.out);
        if samples.secs.len() == min_iters {
            peak_rss_mb = proc_status_mb("VmHWM");
        }
    }
    let timed_s: f64 = samples.secs.iter().sum();
    eprintln!(
        "benchmark: {}: {} timed iterations of {} {} each, host speed {:.2}",
        cfg.workload,
        samples.secs.len(),
        first.units,
        w.unit(),
        median(&samples.speed)
    );

    let mut m = Metrics::default();
    m.set("wall_s", median(&samples.secs));
    m.set("throughput", units as f64 / timed_s);
    m.set("peak_rss_mb", peak_rss_mb);
    m.set("setup_s", median(&setup_s));
    m.set("allocs_per_unit", allocs as f64 / units as f64);
    m.set("failed_frac", tally.failed as f64 / tally.attempted as f64);
    set_model(&mut m, &first);
    samples.set_stats(&mut m);
    report(cfg, tally, m)
}

/// The timing samples of one variant of the iteration.
#[derive(Default)]
struct Samples {
    /// Nominal seconds per iteration.
    secs: Vec<f64>,
    raw_s: Vec<f64>,
    speed: Vec<f64>,
}

impl Samples {
    fn push<T>(&mut self, it: &Measured<T>) {
        self.secs.push(it.secs());
        self.raw_s.push(it.raw_s);
        self.speed.push(it.speed);
    }

    /// The `run.*` statistics of these samples.
    fn set_stats(&self, m: &mut Metrics) {
        m.set("run.samples", self.secs.len() as f64);
        // With ten or fewer samples no percentile has ten beyond it; the
        // median at percentile 0 says so.
        let (pct, hi) = high_percentile(&self.secs).unwrap_or((0.0, median(&self.secs)));
        m.set("run.wall_hi_s", hi);
        m.set("run.wall_hi_pct", pct);
        m.set("run.wall_iqr_frac", iqr_frac(&self.secs));
        m.set("run.wall_raw_s", median(&self.raw_s));
        m.set("run.host_speed", median(&self.speed));
    }
}

/// Median over rounds of one variant's time over the plain iteration's of
/// the same round.
fn paired_ratio(variant: &Samples, plain: &Samples) -> f64 {
    let ratios: Vec<f64> = variant
        .secs
        .iter()
        .zip(&plain.secs)
        .map(|(v, p)| v / p)
        .collect();
    median(&ratios)
}

/// Everything the rounds of the traced pass measured.
struct TracedRun {
    /// The exact counts of one traced iteration (they all agree).
    counts: IterOut,
    plain: Samples,
    traced: Samples,
    obs: Samples,
    /// Empty on a single-core host.
    w2: Samples,
    plain_units: u64,
    plain_bytes: u64,
    /// The obs handle of the last obs-enabled iteration.
    last_obs: Obs,
    /// `(iterations so far, VmRSS in MB)` at the end of every round.
    rss_mb: Vec<(usize, f64)>,
    arrivals_gen_s: f64,
    /// The calibration kernel's last run, which opens the probe phase.
    kernel_s: f64,
}

fn traced_pass(cfg: &Config) -> Result<Report, Fail> {
    let tracer = Tracer::new();
    let (run, tally) = traced_rounds(cfg, &tracer);

    let spans = tracer.spans();
    trace::check_integrity(&spans).map_err(|e| Fail(format!("span tree is broken: {e}")))?;
    std::fs::create_dir_all(&cfg.out_dir)
        .and_then(|()| {
            let path = cfg.out_dir.join(format!("trace_{}.json", cfg.workload));
            std::fs::write(path, trace::to_chrome_json(&spans))
        })
        .map_err(|e| {
            Fail(format!(
                "cannot write the trace under {}: {e}",
                cfg.out_dir.display()
            ))
        })?;

    Ok(report(cfg, tally, layer_metrics(cfg, &run, &spans)))
}

fn traced_rounds(cfg: &Config, tracer: &Rc<Tracer>) -> (TracedRun, Tally) {
    let plain_mode = Mode::plain();
    let traced_mode = Mode {
        tracer: Some(Rc::clone(tracer)),
        ..Mode::plain()
    };
    let two_workers = std::thread::available_parallelism().is_ok_and(|n| n.get() >= 2);
    let (min_rounds, seconds) = if cfg.quick {
        (1, cfg.seconds / 10.0)
    } else {
        (MIN_ROUNDS, cfg.seconds)
    };

    let (mut w, first) = {
        let _setup = tracer.enter("setup");
        set_up(cfg, &traced_mode)
    };
    let mut tally = Tally::new(&first);
    let mut run = TracedRun {
        counts: first,
        plain: Samples::default(),
        traced: Samples::default(),
        obs: Samples::default(),
        w2: Samples::default(),
        plain_units: 0,
        plain_bytes: 0,
        last_obs: Obs::disabled(),
        rss_mb: Vec::new(),
        arrivals_gen_s: w.arrivals_gen_s(),
        kernel_s: host::kernel_seconds(),
    };
    let mut iterations = 0usize;
    let t0 = Instant::now();
    while run.plain.secs.len() < min_rounds || t0.elapsed().as_secs_f64() < seconds {
        // Alternating the four variants inside each round spreads any drift
        // of the host over all of them.
        let it = measure(run.kernel_s, || w.iterate(&plain_mode));
        run.plain.push(&it);
        run.plain_bytes += it.allocs.bytes;
        run.plain_units += it.out.units;
        tally.add(&it.out);

        tracer.next_trace();
        let it = measure(it.kernel_after_s, || {
            let _iteration = tracer.enter("iteration");
            w.iterate(&traced_mode)
        });
        run.traced.push(&it);
        tally.add(&it.out);
        run.kernel_s = it.kernel_after_s;
        run.counts = it.out;

        run.last_obs = Obs::enabled();
        let with_obs = Mode {
            obs: run.last_obs.clone(),
            ..Mode::plain()
        };
        let it = measure(run.kernel_s, || w.iterate(&with_obs));
        run.obs.push(&it);
        tally.add(&it.out);
        run.kernel_s = it.kernel_after_s;
        iterations += 3;

        if two_workers {
            let mode = Mode {
                workers: 2,
                ..Mode::plain()
            };
            let it = measure(run.kernel_s, || w.iterate(&mode));
            run.w2.push(&it);
            tally.add(&it.out);
            run.kernel_s = it.kernel_after_s;
            iterations += 1;
        }
        run.rss_mb.push((iterations, proc_status_mb("VmRSS")));
    }
    (run, tally)
}

/// Runs the probes and derives every per-layer metric.
fn layer_metrics(cfg: &Config, run: &TracedRun, spans: &[trace::Span]) -> Metrics {
    let counts = &run.counts;
    // Span and leaf times are host nanoseconds of the traced iterations
    // (trace 0 is the set-up); `nominal` scales them like every other timing.
    let rounds = run.traced.secs.len() as f64;
    let nominal = median(&run.traced.speed);
    let by_name = trace::totals_by_name(spans, |s| s.trace > 0);
    let leaves = trace::leaf_totals(spans, |s| s.trace > 0);
    let span_s = |name: &str| {
        by_name
            .get(name)
            .map_or(0.0, |t| t.1 as f64 / 1e9 / rounds * nominal)
    };
    let leaf = |name: &str| leaves.get(name).copied().unwrap_or_default();
    let store_calls = leaf("storage.put").count + leaf("storage.get").count;
    let store_ns = (leaf("storage.put").total_ns + leaf("storage.get").total_ns) as f64 * nominal;
    let submit = leaf("engine.submit");

    let wall_plain = median(&run.plain.secs);
    let wall_traced = median(&run.traced.secs);
    let probes = measure(run.kernel_s, || {
        let mut probes = probes::all(counts.sim_queue_peak);
        probes.extend(workload::store_kind_probe(cfg.seed));
        let t = Instant::now();
        std::hint::black_box(run.last_obs.metrics.render_prometheus());
        (probes, t.elapsed().as_secs_f64())
    });
    let (probe_ns, prometheus_render_s) = &probes.out;
    let probe = |name: &str| {
        let found = probe_ns
            .iter()
            .find(|(n, _)| *n == name)
            .expect("every probe is run");
        found.1 * probes.speed
    };
    let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    let mut m = Metrics::default();
    let sim_ns = counts.sim_host_ns as f64 * nominal;
    m.set("des.events", counts.sim_events as f64);
    m.set(
        "des.host_ns_per_event",
        per(sim_ns, counts.sim_events as f64),
    );
    m.set("des.queue_peak", counts.sim_queue_peak as f64);
    m.set(
        "des.est_share",
        per(
            probe("des.sim.sched_pop_ns") * counts.sim_events as f64,
            sim_ns,
        ),
    );
    m.set("engine.tasks", counts.tasks as f64);
    m.set("engine.stages", counts.stages as f64);
    m.set("engine.tasks_recomputed", counts.tasks_recomputed as f64);
    m.set(
        "engine.shuffle_bytes_written",
        counts.shuffle_bytes_written as f64,
    );
    m.set(
        "engine.shuffle_bytes_read",
        counts.shuffle_bytes_read as f64,
    );
    m.set(
        "engine.host_ns_per_task",
        per(wall_plain * 1e9, counts.tasks as f64),
    );
    m.set(
        "engine.submit_ns_per_job",
        per(submit.total_ns as f64 * nominal, submit.count as f64),
    );
    let ops = counts.store.puts + counts.store.gets;
    m.set("storage.ops", ops as f64);
    m.set("storage.bytes_in", counts.store.bytes_in as f64);
    m.set("storage.bytes_out", counts.store.bytes_out as f64);
    m.set("storage.failed_gets", counts.store.failed_gets as f64);
    m.set(
        "storage.throttle_wait_virtual_s",
        counts.store.throttle_wait_secs,
    );
    m.set("storage.call_host_s", store_ns / 1e9 / rounds);
    let call_ns = per(store_ns, store_calls as f64);
    m.set("storage.call_ns_per_op", call_ns);
    // Scenario runs made through `run_scenario` keep their store out of
    // reach, so the decorated calls are scaled up to all counted ops.
    m.set(
        "storage.est_share",
        per(call_ns * ops as f64, wall_traced * 1e9),
    );
    m.set("cloud.lambdas_launched", counts.lambdas_launched as f64);
    m.set("cloud.cold_starts", counts.cold_starts as f64);
    m.set("cloud.warm_starts", counts.warm_starts as f64);
    m.set("core.admission.events", counts.admission_events as f64);
    m.set(
        "core.admission.est_share",
        per(
            probe("core.admission.decide_ns") * counts.admission_events as f64,
            wall_plain * 1e9,
        ),
    );
    m.set("core.arrivals.gen_s", run.arrivals_gen_s);
    m.set("core.fleet.render_s", span_s("render"));
    m.set("core.fleet.verify_s", span_s("verify"));
    m.set(
        "rt.alloc.bytes_per_unit",
        run.plain_bytes as f64 / run.plain_units as f64,
    );
    let (first_rss, last_rss) = (run.rss_mb[0], run.rss_mb[run.rss_mb.len() - 1]);
    m.set(
        "rt.rss_growth_mb_per_iter",
        per(last_rss.1 - first_rss.1, (last_rss.0 - first_rss.0) as f64),
    );
    // 0 means not measured: the host has a single core.
    let speedup_w2 = if run.w2.secs.is_empty() {
        0.0
    } else {
        1.0 / paired_ratio(&run.w2, &run.plain)
    };
    m.set("rt.worker.speedup_w2", speedup_w2);
    m.set(
        "obs.enabled_overhead_frac",
        paired_ratio(&run.obs, &run.plain) - 1.0,
    );
    m.set(
        "obs.spans_recorded",
        run.last_obs.spans.snapshot().len() as f64,
    );
    m.set(
        "obs.prometheus_render_s",
        prometheus_render_s * probes.speed,
    );
    for (name, ns) in probe_ns {
        m.set(name, ns * probes.speed);
    }
    set_model(&mut m, counts);
    run.plain.set_stats(&mut m);
    m.set(
        "run.trace_overhead_frac",
        paired_ratio(&run.traced, &run.plain) - 1.0,
    );
    let run_self_ns = by_name.get("run").map_or(0, |t| t.2) as f64;
    let iteration_ns = by_name.get("iteration").map_or(0, |t| t.1) as f64;
    m.set("run.unattributed_frac", per(run_self_ns, iteration_ns));
    m.set("run.build_s", cfg.build_s);
    m
}

fn report(cfg: &Config, tally: Tally, metrics: Metrics) -> Report {
    Report {
        workload: cfg.workload.clone(),
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
    }
}

/// The virtual-time results of one iteration. JSON numbers are doubles, so
/// the digest is carried as its low 53 bits, which a double holds exactly.
fn set_model(m: &mut Metrics, out: &IterOut) {
    m.set("model.digest", (out.digest & ((1 << 53) - 1)) as f64);
    m.set("model.virtual_s_total", out.virtual_s);
    m.set("model.cost_usd_total", out.cost_usd);
    m.set("model.slo_attainment.vm-only", out.slo_attainment[0]);
    m.set("model.slo_attainment.splitserve", out.slo_attainment[1]);
    m.set("model.slo_attainment.lambda-heavy", out.slo_attainment[2]);
}

/// A `kB` field of `/proc/self/status` in MB; 0 where there is no procfs.
fn proc_status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with(field))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

//! The benchmark's metric names: one table for the end-to-end metrics of
//! the timed pass and one for the per-layer metrics of the traced pass.
//! `BENCHMARK.json` lists exactly these (a test holds the two together),
//! and `compare` reads bounds, directions and exactness from here.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[cfg(test)]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// the change counts as a regression; end-to-end metrics only.
    pub bound: f64,
    /// The value is a count or a virtual-time result that must repeat
    /// exactly on the same commit, seed and worker count.
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Spec {
    Spec {
        name,
        unit,
        better,
        bound,
        exact: false,
    }
}

const fn timing(name: &'static str, unit: &'static str) -> Spec {
    Spec {
        name,
        unit,
        better: Better::Lower,
        bound: 0.0,
        exact: false,
    }
}

const fn count(name: &'static str, unit: &'static str) -> Spec {
    Spec {
        name,
        unit,
        better: Better::Lower,
        bound: 0.0,
        exact: true,
    }
}

const fn higher(name: &'static str, unit: &'static str, exact: bool) -> Spec {
    Spec {
        name,
        unit,
        better: Better::Higher,
        bound: 0.0,
        exact,
    }
}

/// Measured by the timed pass: tracing off, one client, `workers = 1`.
pub const END_TO_END: &[Spec] = &[
    e2e("wall_s", "s", Better::Lower, 0.25),
    e2e("throughput", "units/s", Better::Higher, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.20),
    e2e("setup_s", "s", Better::Lower, 0.25),
    // Not `exact`: it repeats to seven digits only — a few one-off
    // allocations land inside the timed loop, and one `scenarios` run
    // allocates one time more or less from process to process (README).
    e2e("allocs_per_unit", "count", Better::Lower, 0.02),
];

/// Failed ÷ attempted operations of the timed pass. It is always 0 on a
/// correct program, and the benchmark contract wants end-to-end metrics that
/// are never 0, so it is printed and stored but carried to the driver by the
/// result line's `failed` and `attempted` fields instead.
pub const FAILED_FRAC: Spec = count("failed_frac", "frac");

/// Measured by the traced pass. Names are `layer[.module].what`; a count a
/// workload does not exercise is reported as 0.
pub const PER_LAYER: &[Spec] = &[
    // des
    count("des.events", "count"),
    timing("des.host_ns_per_event", "ns"),
    count("des.queue_peak", "count"),
    timing("des.sim.sched_pop_ns", "ns"),
    timing("des.sim.cancel_ns", "ns"),
    timing("des.fabric.flow_ns", "ns"),
    timing("des.est_share", "frac"),
    // engine
    count("engine.tasks", "count"),
    count("engine.stages", "count"),
    count("engine.tasks_recomputed", "count"),
    count("engine.shuffle_bytes_written", "B"),
    count("engine.shuffle_bytes_read", "B"),
    timing("engine.host_ns_per_task", "ns"),
    timing("engine.submit_ns_per_job", "ns"),
    timing("engine.dispatch_ns_per_task", "ns"),
    timing("engine.combine.map_ns_per_rec", "ns"),
    timing("engine.reduce.merge_ns_per_rec", "ns"),
    timing("engine.encode.nocombine_ns_per_rec", "ns"),
    timing("engine.sort.ns_per_rec", "ns"),
    // codec
    timing("codec.encode_kv_ns", "ns"),
    timing("codec.decode_kv_ns", "ns"),
    timing("codec.encode_blob_ns", "ns"),
    timing("codec.decode_blob_ns", "ns"),
    // storage
    count("storage.ops", "count"),
    count("storage.bytes_in", "B"),
    count("storage.bytes_out", "B"),
    count("storage.failed_gets", "count"),
    count("storage.throttle_wait_virtual_s", "s"),
    timing("storage.call_host_s", "s"),
    timing("storage.call_ns_per_op", "ns"),
    timing("storage.est_share", "frac"),
    timing("storage.hdfs.call_ns_per_op", "ns"),
    timing("storage.s3.call_ns_per_op", "ns"),
    timing("storage.sqs.call_ns_per_op", "ns"),
    timing("storage.redis.call_ns_per_op", "ns"),
    timing("storage.local.call_ns_per_op", "ns"),
    // cloud
    count("cloud.lambdas_launched", "count"),
    count("cloud.cold_starts", "count"),
    count("cloud.warm_starts", "count"),
    timing("cloud.warmpool.decide_ns", "ns"),
    // core
    count("core.admission.events", "count"),
    timing("core.admission.decide_ns", "ns"),
    timing("core.admission.est_share", "frac"),
    timing("core.arrivals.gen_s", "s"),
    timing("core.fleet.render_s", "s"),
    timing("core.fleet.verify_s", "s"),
    // rt
    timing("rt.alloc.bytes_per_unit", "B"),
    timing("rt.rss_growth_mb_per_iter", "MB"),
    timing("rt.worker.handoff_ns", "ns"),
    higher("rt.worker.speedup_w2", "x", false),
    // obs
    timing("obs.enabled_overhead_frac", "frac"),
    timing("obs.disabled_record_ns", "ns"),
    timing("obs.handle_counter_ns", "ns"),
    timing("obs.handle_histogram_ns", "ns"),
    timing("obs.handle_quantile_ns", "ns"),
    timing("obs.prometheus_render_s", "s"),
    count("obs.spans_recorded", "count"),
    // model: virtual-time results, reported and compared but never scored
    count("model.digest", "hash"),
    count("model.virtual_s_total", "s"),
    count("model.cost_usd_total", "usd"),
    higher("model.slo_attainment.vm-only", "frac", true),
    higher("model.slo_attainment.splitserve", "frac", true),
    higher("model.slo_attainment.lambda-heavy", "frac", true),
    // run: the harness itself
    higher("run.samples", "count", false),
    timing("run.wall_hi_s", "s"),
    higher("run.wall_hi_pct", "%", false),
    timing("run.wall_iqr_frac", "frac"),
    timing("run.wall_raw_s", "s"),
    higher("run.host_speed", "x", false),
    timing("run.trace_overhead_frac", "frac"),
    timing("run.unattributed_frac", "frac"),
    timing("run.build_s", "s"),
];

/// Every metric, in the order they are printed.
pub fn all() -> impl Iterator<Item = &'static Spec> {
    END_TO_END.iter().chain([&FAILED_FRAC]).chain(PER_LAYER)
}

pub fn find(name: &str) -> Option<&'static Spec> {
    all().find(|s| s.name == name)
}

/// A bag of measurements that only accepts names from the tables above.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    /// # Panics
    ///
    /// Panics on a name missing from both tables or set twice: either is a
    /// bug in the harness, and a typo must not silently drop a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(find(name).is_some(), "unknown metric {name}");
        assert!(self.get(name).is_none(), "metric {name} set twice");
        self.0.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};

    fn declared(doc: &Json, key: &str) -> Vec<(String, String, String, Option<f64>)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
            .iter()
            .map(|m| {
                let field = |k: &str| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .expect("string field")
                        .to_string()
                };
                (
                    field("name"),
                    field("unit"),
                    field("better"),
                    m.get("bound").and_then(Json::as_f64),
                )
            })
            .collect()
    }

    /// `BENCHMARK.json` is written by hand; this holds it to the tables.
    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc =
            json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
                .expect("BENCHMARK.json parses");
        let want = |specs: &[Spec], bounded: bool| -> Vec<_> {
            specs
                .iter()
                .map(|s| {
                    let bound = bounded.then_some(s.bound);
                    (
                        s.name.to_string(),
                        s.unit.to_string(),
                        s.better.as_str().to_string(),
                        bound,
                    )
                })
                .collect()
        };
        assert_eq!(declared(&doc, "end_to_end"), want(END_TO_END, true));
        assert_eq!(declared(&doc, "per_layer"), want(PER_LAYER, false));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads list")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("workload name"))
            .collect();
        assert_eq!(workloads, crate::workload::NAMES);
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(crate::DEFAULT_SECONDS)
        );
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let all: Vec<&Spec> = END_TO_END.iter().chain(PER_LAYER).collect();
        for (i, s) in all.iter().enumerate() {
            assert!(
                all[..i].iter().all(|t| t.name != s.name),
                "{} is listed twice",
                s.name
            );
            assert!(
                s.name.len() <= 64 && s.unit.len() <= 16,
                "{} is too long",
                s.name
            );
            let ok = |c: char, extra: &str| c.is_ascii_alphanumeric() || extra.contains(c);
            assert!(s.name.chars().all(|c| ok(c, "_.-")), "bad name {}", s.name);
            assert!(
                s.unit.chars().all(|c| ok(c, "_/%.-")),
                "bad unit {}",
                s.unit
            );
            assert!(s.bound <= 0.25);
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    #[test]
    #[should_panic(expected = "unknown metric")]
    fn a_misspelt_metric_is_refused() {
        Metrics::default().set("wall_secs", 1.0);
    }
}

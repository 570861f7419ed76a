//! The metrics registry: named counters, gauges, and fixed-bucket
//! histograms, each keyed by a label set.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use crate::digest::QuantileDigest;

/// Default histogram buckets for operation latencies in (virtual)
/// seconds — spanning sub-millisecond block-store round-trips up to
/// minute-scale VM boots.
pub const DEFAULT_LATENCY_BUCKETS: &[f64] = &[
    0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0,
];

/// `(name, sorted labels)` — the identity of one time series.
pub(crate) type MetricKey = (String, Vec<(String, String)>);

#[derive(Debug, Clone)]
pub(crate) struct Histogram {
    /// Upper bounds of the finite buckets, strictly increasing. An
    /// implicit `+Inf` bucket follows.
    pub bounds: Vec<f64>,
    /// One count per finite bucket plus the `+Inf` bucket.
    pub counts: Vec<u64>,
    pub sum: f64,
    pub total: u64,
}

impl Histogram {
    fn new(bounds: &[f64]) -> Self {
        debug_assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            sum: 0.0,
            total: 0,
        }
    }

    fn observe(&mut self, value: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|b| value <= *b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.sum += value;
        self.total += 1;
    }
}

/// A read-only copy of one histogram's state.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Upper bounds of the finite buckets (`+Inf` is implicit).
    pub bounds: Vec<f64>,
    /// Per-bucket counts; the last entry is the `+Inf` bucket.
    pub counts: Vec<u64>,
    /// Sum of all observed values.
    pub sum: f64,
    /// Number of observations.
    pub count: u64,
}

#[derive(Debug, Default)]
pub(crate) struct RegistryInner {
    /// Counter cells are `Arc`-shared so a [`CounterHandle`] can alias
    /// one and bump it with a single atomic add.
    pub counters: BTreeMap<MetricKey, Arc<AtomicU64>>,
    pub gauges: BTreeMap<MetricKey, f64>,
    /// Histograms are `Arc<Mutex<_>>` for the same reason (see
    /// [`HistogramHandle`]).
    pub histograms: BTreeMap<MetricKey, Arc<Mutex<Histogram>>>,
    /// Streaming quantile digests, one cell per series (see
    /// [`QuantileHandle`]).
    pub digests: BTreeMap<MetricKey, Arc<Mutex<QuantileDigest>>>,
}

/// Named counters, gauges and fixed-bucket histograms.
///
/// A disabled registry (the [`Default`]) holds no storage: every record
/// call is one branch. Clones of an enabled registry share storage, so a
/// handle can be threaded through engine, policy and storage layers while
/// one exporter reads the aggregate.
///
/// Storage is behind a `Mutex` and handles are `Send + Sync`, so clones
/// may record from any thread. Counts, bucket counts and digests commute;
/// a histogram's `f64` sum does not (addition lands in call order), so a
/// series whose rendered text must repeat is recorded from one thread in
/// a deterministic order — the engine records everything, including what
/// task bodies measured, on the simulation thread.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    pub(crate) inner: Option<Arc<Mutex<RegistryInner>>>,
}

/// Locks a registry's storage, recovering from poison: a panicking task
/// body must not wedge the telemetry of the run that reports it.
pub(crate) fn lock(inner: &Arc<Mutex<RegistryInner>>) -> MutexGuard<'_, RegistryInner> {
    inner.lock().unwrap_or_else(|e| e.into_inner())
}

/// Locks one histogram or digest cell, recovering from poison like
/// [`lock`].
pub(crate) fn cell_lock<T>(cell: &Mutex<T>) -> MutexGuard<'_, T> {
    cell.lock().unwrap_or_else(|e| e.into_inner())
}

#[derive(Debug)]
struct CounterCore {
    registry: Arc<Mutex<RegistryInner>>,
    key: MetricKey,
    /// The counter's cell, materialized in the registry on first
    /// [`add`](CounterHandle::add) — a handle that never records leaves
    /// the registry (and therefore the rendered exposition) untouched,
    /// exactly like a counter name nobody ever added to.
    cell: OnceLock<Arc<AtomicU64>>,
}

/// A pre-resolved counter: the `(name, sorted labels)` key is built once
/// at wiring time; every [`add`](CounterHandle::add) after the first is a
/// single relaxed atomic bump — no allocation, no registry lock. Handles
/// from a disabled registry are inert (one branch per call). Cloning
/// shares the resolution.
#[derive(Debug, Clone, Default)]
pub struct CounterHandle(Option<Arc<CounterCore>>);

impl CounterHandle {
    /// Adds `delta` to the counter.
    #[inline]
    pub fn add(&self, delta: u64) {
        let Some(core) = &self.0 else { return };
        core.cell
            .get_or_init(|| {
                Arc::clone(
                    lock(&core.registry)
                        .counters
                        .entry(core.key.clone())
                        .or_default(),
                )
            })
            .fetch_add(delta, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }
}

#[derive(Debug)]
struct HistogramCore {
    registry: Arc<Mutex<RegistryInner>>,
    key: MetricKey,
    bounds: Vec<f64>,
    cell: OnceLock<Arc<Mutex<Histogram>>>,
}

/// A pre-resolved histogram: [`observe`](HistogramHandle::observe) after
/// the first is one uncontended mutex lock plus a bucket increment. Two
/// handles resolved for the same series share its cell.
#[derive(Debug, Clone, Default)]
pub struct HistogramHandle(Option<Arc<HistogramCore>>);

impl HistogramHandle {
    /// Records `value`.
    #[inline]
    pub fn observe(&self, value: f64) {
        let Some(core) = &self.0 else { return };
        let cell = core.cell.get_or_init(|| {
            Arc::clone(
                lock(&core.registry)
                    .histograms
                    .entry(core.key.clone())
                    .or_insert_with(|| Arc::new(Mutex::new(Histogram::new(&core.bounds)))),
            )
        });
        cell_lock(cell).observe(value);
    }
}

#[derive(Debug)]
struct QuantileCore {
    registry: Arc<Mutex<RegistryInner>>,
    key: MetricKey,
    cell: OnceLock<Arc<Mutex<QuantileDigest>>>,
}

/// A pre-resolved streaming-quantile digest:
/// [`record`](QuantileHandle::record) after the first is one uncontended
/// mutex lock plus the digest bucket bump. Two handles resolved for the
/// same series share its cell.
#[derive(Debug, Clone, Default)]
pub struct QuantileHandle(Option<Arc<QuantileCore>>);

impl QuantileHandle {
    /// Records `value`.
    #[inline]
    pub fn record(&self, value: f64) {
        let Some(core) = &self.0 else { return };
        let cell = core.cell.get_or_init(|| {
            Arc::clone(
                lock(&core.registry)
                    .digests
                    .entry(core.key.clone())
                    .or_default(),
            )
        });
        cell_lock(cell).record(value);
    }
}

fn key(name: &str, labels: &[(&str, &str)]) -> MetricKey {
    let mut l: Vec<(String, String)> = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    l.sort();
    (name.to_string(), l)
}

impl MetricsRegistry {
    /// A registry that records.
    pub fn enabled() -> Self {
        MetricsRegistry {
            inner: Some(Arc::new(Mutex::new(RegistryInner::default()))),
        }
    }

    /// A registry that drops everything (the [`Default`]).
    pub fn disabled() -> Self {
        MetricsRegistry::default()
    }

    /// Whether record calls have any effect.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Current value of a counter (zero if never touched or disabled).
    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        let Some(inner) = &self.inner else { return 0 };
        lock(inner)
            .counters
            .get(&key(name, labels))
            .map(|c| c.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Resolves the counter `name{labels}` to a reusable [`CounterHandle`]
    /// — the key is built and sorted once, here; every
    /// [`add`](CounterHandle::add) after that is an atomic bump.
    pub fn counter_handle(&self, name: &str, labels: &[(&str, &str)]) -> CounterHandle {
        CounterHandle(self.inner.as_ref().map(|inner| {
            Arc::new(CounterCore {
                registry: Arc::clone(inner),
                key: key(name, labels),
                cell: OnceLock::new(),
            })
        }))
    }

    /// Sets the gauge `name{labels}` to `value`.
    pub fn gauge_set(&self, name: &str, labels: &[(&str, &str)], value: f64) {
        let Some(inner) = &self.inner else { return };
        lock(inner).gauges.insert(key(name, labels), value);
    }

    /// Current value of a gauge, if it was ever set.
    pub fn gauge_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        let inner = self.inner.as_ref()?;
        lock(inner).gauges.get(&key(name, labels)).copied()
    }

    /// Snapshot of one histogram, if it exists.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<HistogramSnapshot> {
        let inner = self.inner.as_ref()?;
        let cell = lock(inner).histograms.get(&key(name, labels)).cloned()?;
        let h = cell_lock(&cell);
        Some(HistogramSnapshot {
            bounds: h.bounds.clone(),
            counts: h.counts.clone(),
            sum: h.sum,
            count: h.total,
        })
    }

    /// Resolves the histogram `name{labels}` (created with
    /// [`DEFAULT_LATENCY_BUCKETS`] on first observation) to a reusable
    /// [`HistogramHandle`].
    pub fn histogram_handle(&self, name: &str, labels: &[(&str, &str)]) -> HistogramHandle {
        self.histogram_handle_with(name, labels, DEFAULT_LATENCY_BUCKETS)
    }

    /// Resolves the histogram `name{labels}` to a reusable
    /// [`HistogramHandle`], creating it with `bounds` on its first
    /// observation (a histogram's buckets are fixed at birth).
    pub fn histogram_handle_with(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        bounds: &[f64],
    ) -> HistogramHandle {
        HistogramHandle(self.inner.as_ref().map(|inner| {
            Arc::new(HistogramCore {
                registry: Arc::clone(inner),
                key: key(name, labels),
                bounds: bounds.to_vec(),
                cell: OnceLock::new(),
            })
        }))
    }

    /// Resolves the streaming quantile digest `name{labels}` (created with
    /// [`crate::DEFAULT_DIGEST_ALPHA`] on first record) to a reusable
    /// [`QuantileHandle`]. Unlike a histogram, the digest answers
    /// arbitrary quantiles within a documented relative error.
    pub fn quantile_handle(&self, name: &str, labels: &[(&str, &str)]) -> QuantileHandle {
        QuantileHandle(self.inner.as_ref().map(|inner| {
            Arc::new(QuantileCore {
                registry: Arc::clone(inner),
                key: key(name, labels),
                cell: OnceLock::new(),
            })
        }))
    }

    /// A copy of the digest for `name{labels}`, if anything was recorded.
    /// It depends only on the recorded multiset, not on recording order.
    pub fn quantile_digest(&self, name: &str, labels: &[(&str, &str)]) -> Option<QuantileDigest> {
        let inner = self.inner.as_ref()?;
        let cell = lock(inner).digests.get(&key(name, labels)).cloned()?;
        let digest = cell_lock(&cell).clone();
        Some(digest)
    }

    /// Sum of a counter across all label sets sharing `name`.
    pub fn counter_total(&self, name: &str) -> u64 {
        let Some(inner) = &self.inner else { return 0 };
        lock(inner)
            .counters
            .iter()
            .filter(|((n, _), _)| n == name)
            .map(|(_, v)| v.load(Ordering::Relaxed))
            .sum()
    }

    /// Renders every metric in Prometheus text exposition format (see the
    /// `prometheus` module for the grammar). Deterministic ordering.
    pub fn render_prometheus(&self) -> String {
        crate::prometheus::render(self)
    }

    /// Writes [`MetricsRegistry::render_prometheus`] to `path`.
    pub fn write_prometheus(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.render_prometheus())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_registry_is_inert() {
        let r = MetricsRegistry::disabled();
        r.counter_handle("a_total", &[]).add(5);
        r.gauge_set("g", &[], 1.0);
        r.histogram_handle("h", &[]).observe(0.5);
        assert_eq!(r.counter_value("a_total", &[]), 0);
        assert_eq!(r.gauge_value("g", &[]), None);
        assert_eq!(r.histogram("h", &[]), None);
        assert!(r.render_prometheus().is_empty());
    }

    #[test]
    fn counters_accumulate_per_label_set() {
        let r = MetricsRegistry::enabled();
        r.counter_handle("tasks_total", &[("kind", "vm")]).add(2);
        r.counter_handle("tasks_total", &[("kind", "vm")]).add(1);
        r.counter_handle("tasks_total", &[("kind", "lambda")]).add(7);
        assert_eq!(r.counter_value("tasks_total", &[("kind", "vm")]), 3);
        assert_eq!(r.counter_value("tasks_total", &[("kind", "lambda")]), 7);
        assert_eq!(r.counter_total("tasks_total"), 10);
    }

    #[test]
    fn label_order_does_not_matter() {
        let r = MetricsRegistry::enabled();
        r.counter_handle("x_total", &[("a", "1"), ("b", "2")]).inc();
        assert_eq!(r.counter_value("x_total", &[("b", "2"), ("a", "1")]), 1);
    }

    #[test]
    fn histogram_buckets_count_correctly() {
        let r = MetricsRegistry::enabled();
        let lat = r.histogram_handle_with("lat", &[], &[1.0, 10.0]);
        lat.observe(0.5); // bucket 0
        lat.observe(1.0); // bucket 0 (le)
        lat.observe(5.0); // bucket 1
        lat.observe(99.0); // +Inf
        let h = r.histogram("lat", &[]).expect("exists");
        assert_eq!(h.counts, vec![2, 1, 1]);
        assert_eq!(h.count, 4);
        assert!((h.sum - 105.5).abs() < 1e-9);
    }

    #[test]
    fn gauges_overwrite() {
        let r = MetricsRegistry::enabled();
        r.gauge_set("pending", &[], 3.0);
        r.gauge_set("pending", &[], 1.0);
        assert_eq!(r.gauge_value("pending", &[]), Some(1.0));
    }

    #[test]
    fn counter_handle_shares_the_string_path_series() {
        // Two resolutions of one series, labels in either order, alias
        // one cell — and the string-keyed read side sees their sum.
        let r = MetricsRegistry::enabled();
        let h = r.counter_handle("mixed_total", &[("kind", "vm")]);
        h.add(2);
        r.counter_handle("mixed_total", &[("kind", "vm")]).add(3);
        h.inc();
        assert_eq!(r.counter_value("mixed_total", &[("kind", "vm")]), 6);
        assert_eq!(r.counter_total("mixed_total"), 6);
    }

    #[test]
    fn histogram_handle_shares_the_string_path_series() {
        let r = MetricsRegistry::enabled();
        let h = r.histogram_handle_with("lat", &[], &[1.0, 10.0]);
        h.observe(0.5);
        // A second resolution keeps the bounds the series was born with.
        r.histogram_handle_with("lat", &[], &[7.0]).observe(5.0);
        h.observe(99.0);
        let snap = r.histogram("lat", &[]).expect("exists");
        assert_eq!(snap.counts, vec![1, 1, 1]);
        assert_eq!(snap.count, 3);
    }

    #[test]
    fn quantile_handle_shares_the_string_path_digest() {
        let r = MetricsRegistry::enabled();
        let h = r.quantile_handle("run_seconds", &[("kind", "vm")]);
        for i in 1..=50 {
            h.record(i as f64);
        }
        let again = r.quantile_handle("run_seconds", &[("kind", "vm")]);
        for i in 51..=100 {
            again.record(i as f64);
        }
        let d = r.quantile_digest("run_seconds", &[("kind", "vm")]).expect("recorded");
        assert_eq!(d.count(), 100);
    }

    #[test]
    fn unused_handles_leave_no_trace_in_the_exposition() {
        // Resolving handles at wiring time must not change the rendered
        // output of a run that never records through them — the pinned
        // byte-identity of `render_prometheus` depends on it.
        let r = MetricsRegistry::enabled();
        r.counter_handle("real_total", &[]).inc();
        let before = r.render_prometheus();
        let _c = r.counter_handle("never_total", &[("k", "v")]);
        let _h = r.histogram_handle("never_seconds", &[]);
        let _q = r.quantile_handle("never_digest", &[]);
        assert_eq!(r.render_prometheus(), before);
        assert_eq!(r.counter_value("never_total", &[("k", "v")]), 0);
    }

    #[test]
    fn handles_from_a_disabled_registry_are_inert() {
        let r = MetricsRegistry::disabled();
        let c = r.counter_handle("a_total", &[]);
        let h = r.histogram_handle("b_seconds", &[]);
        let q = r.quantile_handle("c_seconds", &[]);
        c.add(5);
        h.observe(1.0);
        q.record(1.0);
        assert!(r.render_prometheus().is_empty());
    }

    #[test]
    fn cloned_handles_share_resolution() {
        let r = MetricsRegistry::enabled();
        let a = r.counter_handle("cloned_total", &[]);
        let b = a.clone();
        a.add(1);
        b.add(2);
        assert_eq!(r.counter_value("cloned_total", &[]), 3);
    }
}

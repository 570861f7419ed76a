//! The metrics registry: named counters, gauges, fixed-bucket histograms
//! and streaming quantile digests, each keyed by a label set.
//!
//! A registry belongs to one run and is recorded on that run's simulation
//! thread, so its storage is one `Rc<RefCell<_>>`: a handle is the
//! registry plus a slot index, and a record is one borrow and an indexed
//! update.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use crate::digest::QuantileDigest;

/// Default histogram buckets for operation latencies in (virtual)
/// seconds — spanning sub-millisecond block-store round-trips up to
/// minute-scale VM boots.
pub(crate) const DEFAULT_LATENCY_BUCKETS: &[f64] = &[
    0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0,
];

/// `(name, sorted labels)` — the identity of one time series.
pub(crate) type MetricKey = (String, Vec<(String, String)>);

/// Builds the key of `name{labels}`; label order does not matter.
pub(crate) fn key(name: &str, labels: &[(&str, &str)]) -> MetricKey {
    let mut l: Vec<(String, String)> = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    l.sort();
    (name.to_string(), l)
}

/// One family of series behind slot indices. A series is born when it is
/// first resolved but counts only once something was recorded into it,
/// so a handle that never records leaves every rendering untouched.
#[derive(Debug)]
pub(crate) struct Family<T> {
    /// Key → slot, in key order: the order every renderer walks.
    index: BTreeMap<MetricKey, usize>,
    /// `(recorded, cell)` per slot.
    cells: Vec<(bool, T)>,
}

impl<T> Default for Family<T> {
    fn default() -> Self {
        Family {
            index: BTreeMap::new(),
            cells: Vec::new(),
        }
    }
}

impl<T> Family<T> {
    /// The slot of `key`, creating its cell with `birth` the first time.
    pub(crate) fn resolve(&mut self, key: MetricKey, birth: impl FnOnce() -> T) -> usize {
        let cells = &mut self.cells;
        *self.index.entry(key).or_insert_with(|| {
            cells.push((false, birth()));
            cells.len() - 1
        })
    }

    /// The cell of `slot`, marked recorded.
    #[inline]
    pub(crate) fn record(&mut self, slot: usize) -> &mut T {
        let cell = &mut self.cells[slot];
        cell.0 = true;
        &mut cell.1
    }

    /// The cell of `key`, if anything was recorded into it.
    pub(crate) fn get(&self, key: &MetricKey) -> Option<&T> {
        self.index
            .get(key)
            .and_then(|&slot| self.cells[slot].0.then_some(&self.cells[slot].1))
    }

    /// Every recorded series, in key order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&MetricKey, &T)> {
        self.index
            .iter()
            .filter_map(|(key, &slot)| self.cells[slot].0.then_some((key, &self.cells[slot].1)))
    }
}

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
    pub counters: Family<u64>,
    pub(crate) gauges: BTreeMap<MetricKey, f64>,
    pub histograms: Family<Histogram>,
    pub(crate) digests: Family<QuantileDigest>,
}

type Shared = Rc<RefCell<RegistryInner>>;

/// Named counters, gauges, histograms and quantile digests.
///
/// A disabled registry (the [`Default`]) holds no storage: every record
/// call is one branch. Clones of an enabled registry share storage, so one
/// run's engine, policy and storage layers record into the registry its
/// exporter reads. A histogram's `f64` sum lands in call order, so the
/// rendered text repeats because everything is recorded on the one
/// simulation thread, in event order — including what task bodies
/// measured, which the engine records at the body's join.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    pub(crate) inner: Option<Shared>,
}

/// A pre-resolved counter: the `(name, sorted labels)` key is built once
/// at wiring time; every [`add`](CounterHandle::add) is an indexed bump —
/// no allocation, no key. Handles from a disabled registry are inert (one
/// branch per call). Two handles resolved for the same series share it.
#[derive(Debug, Clone, Default)]
pub struct CounterHandle(Option<(Shared, usize)>);

impl CounterHandle {
    /// Adds `delta` to the counter.
    #[inline]
    pub fn add(&self, delta: u64) {
        let Some((registry, slot)) = &self.0 else { return };
        *registry.borrow_mut().counters.record(*slot) += delta;
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }
}

/// A pre-resolved histogram: [`observe`](HistogramHandle::observe) is a
/// bucket search and increment. Two handles resolved for the same series
/// share it.
#[derive(Debug, Clone, Default)]
pub struct HistogramHandle(Option<(Shared, usize)>);

impl HistogramHandle {
    /// Records `value`.
    #[inline]
    pub fn observe(&self, value: f64) {
        let Some((registry, slot)) = &self.0 else { return };
        registry.borrow_mut().histograms.record(*slot).observe(value);
    }
}

/// A pre-resolved streaming-quantile digest:
/// [`record`](QuantileHandle::record) is the digest's bucket bump. Two
/// handles resolved for the same series share it.
#[derive(Debug, Clone, Default)]
pub struct QuantileHandle(Option<(Shared, usize)>);

impl QuantileHandle {
    /// Records `value`.
    #[inline]
    pub fn record(&self, value: f64) {
        let Some((registry, slot)) = &self.0 else { return };
        registry.borrow_mut().digests.record(*slot).record(value);
    }
}

impl MetricsRegistry {
    /// A registry that records.
    pub fn enabled() -> Self {
        MetricsRegistry {
            inner: Some(Shared::default()),
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

    /// Resolves `name{labels}` in the family `pick` selects: the shared
    /// storage plus the series' slot, or `None` when disabled.
    fn resolve<T>(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        pick: impl FnOnce(&mut RegistryInner) -> &mut Family<T>,
        birth: impl FnOnce() -> T,
    ) -> Option<(Shared, usize)> {
        let inner = self.inner.as_ref()?;
        let slot = pick(&mut inner.borrow_mut()).resolve(key(name, labels), birth);
        Some((Rc::clone(inner), slot))
    }

    /// Current value of a counter (zero if never touched or disabled).
    ///
    /// Test aid: only tests call this.
    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        let Some(inner) = &self.inner else { return 0 };
        inner
            .borrow()
            .counters
            .get(&key(name, labels))
            .copied()
            .unwrap_or(0)
    }

    /// Resolves the counter `name{labels}` to a reusable [`CounterHandle`]
    /// — the key is built and sorted once, here.
    pub fn counter_handle(&self, name: &str, labels: &[(&str, &str)]) -> CounterHandle {
        CounterHandle(self.resolve(name, labels, |r| &mut r.counters, || 0))
    }

    /// Sets the gauge `name{labels}` to `value`.
    pub fn gauge_set(&self, name: &str, labels: &[(&str, &str)], value: f64) {
        let Some(inner) = &self.inner else { return };
        inner.borrow_mut().gauges.insert(key(name, labels), value);
    }

    /// Snapshot of one histogram, if anything was observed into it.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<HistogramSnapshot> {
        let inner = self.inner.as_ref()?.borrow();
        let h = inner.histograms.get(&key(name, labels))?;
        Some(HistogramSnapshot {
            bounds: h.bounds.clone(),
            counts: h.counts.clone(),
            sum: h.sum,
            count: h.total,
        })
    }

    /// Resolves the histogram `name{labels}` (with
    /// `DEFAULT_LATENCY_BUCKETS` if this is its first resolution) to a
    /// reusable [`HistogramHandle`].
    pub fn histogram_handle(&self, name: &str, labels: &[(&str, &str)]) -> HistogramHandle {
        self.histogram_handle_with(name, labels, DEFAULT_LATENCY_BUCKETS)
    }

    /// Resolves the histogram `name{labels}` to a reusable
    /// [`HistogramHandle`]. A histogram's buckets are fixed at birth: the
    /// series' first resolution creates it with `bounds`, and a later
    /// resolution keeps them.
    pub fn histogram_handle_with(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        bounds: &[f64],
    ) -> HistogramHandle {
        HistogramHandle(self.resolve(
            name,
            labels,
            |r| &mut r.histograms,
            || Histogram::new(bounds),
        ))
    }

    /// Resolves the streaming quantile digest `name{labels}` (with
    /// `DEFAULT_DIGEST_ALPHA`) to a reusable [`QuantileHandle`].
    /// Unlike a histogram, the digest answers arbitrary quantiles within a
    /// documented relative error.
    pub fn quantile_handle(&self, name: &str, labels: &[(&str, &str)]) -> QuantileHandle {
        QuantileHandle(self.resolve(name, labels, |r| &mut r.digests, QuantileDigest::default))
    }

    /// A copy of the digest for `name{labels}`, if anything was recorded.
    /// It depends only on the recorded multiset, not on recording order.
    ///
    /// Test aid: only tests call this.
    pub fn quantile_digest(&self, name: &str, labels: &[(&str, &str)]) -> Option<QuantileDigest> {
        let inner = self.inner.as_ref()?.borrow();
        inner.digests.get(&key(name, labels)).cloned()
    }

    /// Sum of a counter across all label sets sharing `name`.
    pub fn counter_total(&self, name: &str) -> u64 {
        let Some(inner) = &self.inner else { return 0 };
        inner
            .borrow()
            .counters
            .iter()
            .filter(|((n, _), _)| n == name)
            .map(|(_, v)| v)
            .sum()
    }

    /// Renders every metric in Prometheus text exposition format (see the
    /// `prometheus` module for the grammar). Deterministic ordering.
    pub fn render_prometheus(&self) -> String {
        crate::prometheus::render(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl MetricsRegistry {
        /// Current value of a gauge, if it was ever set.
        fn gauge_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
            let inner = self.inner.as_ref()?;
            inner.borrow().gauges.get(&key(name, labels)).copied()
        }
    }

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

//! Windowed time-series rollups over virtual time.
//!
//! The paper's headline figures are trajectories — SLO attainment, bill
//! and latency *over the day* — so point-in-time counters are not enough.
//! [`Rollups`] keeps, per registered metric, a ring of tumbling windows
//! on the simulation clock: each window aggregates sum/count/min/max of
//! everything recorded inside it. The record path is O(1): one map lookup
//! plus one slot update, no allocation after the series exists.
//!
//! Like the rest of the observability layer, a disabled handle is one
//! branch per record call and holds no storage.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};

use splitserve_des::{SimDuration, SimTime};

use crate::chrome::escape_json;
use crate::registry::MetricKey;

/// Width of one tumbling window in virtual time, every series.
const WIDTH: SimDuration = SimDuration::from_secs(1);
/// Ring capacity in windows. Each window index owns slot
/// `index % RETENTION`, so a slot holds its most recent window — at least
/// the last `RETENTION` *active* windows are retained.
const RETENTION: usize = 512;

/// Sentinel for a never-touched ring slot.
const EMPTY: u64 = u64::MAX;

#[derive(Debug, Clone, Copy)]
struct Window {
    index: u64,
    sum: f64,
    count: u64,
    min: f64,
    max: f64,
}

impl Window {
    fn fresh(index: u64) -> Self {
        Window {
            index,
            sum: 0.0,
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

/// A read-only copy of one window's aggregate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowSnapshot {
    /// Window index: the window covers
    /// `[index * width, (index + 1) * width)` in virtual time.
    pub index: u64,
    /// Window start on the virtual clock, in microseconds.
    pub start_us: u64,
    /// Sum of recorded values.
    pub sum: f64,
    /// Number of recorded values.
    pub count: u64,
    /// Minimum recorded value.
    pub min: f64,
    /// Maximum recorded value.
    pub max: f64,
}

#[derive(Debug)]
struct Series {
    width_us: u64,
    ring: Vec<Window>,
}

impl Series {
    fn new(width: SimDuration, retention: usize) -> Self {
        Series {
            width_us: width.as_micros().max(1),
            ring: vec![
                Window {
                    index: EMPTY,
                    sum: 0.0,
                    count: 0,
                    min: f64::INFINITY,
                    max: f64::NEG_INFINITY,
                };
                retention.max(1)
            ],
        }
    }

    fn record(&mut self, at: SimTime, value: f64) {
        let index = at.as_micros() / self.width_us;
        let slot = (index % self.ring.len() as u64) as usize;
        let w = &mut self.ring[slot];
        if w.index != index {
            *w = Window::fresh(index);
        }
        w.sum += value;
        w.count += 1;
        w.min = w.min.min(value);
        w.max = w.max.max(value);
    }

    fn windows(&self) -> Vec<WindowSnapshot> {
        let mut out: Vec<WindowSnapshot> = self
            .ring
            .iter()
            .filter(|w| w.index != EMPTY)
            .map(|w| WindowSnapshot {
                index: w.index,
                start_us: w.index * self.width_us,
                sum: w.sum,
                count: w.count,
                min: w.min,
                max: w.max,
            })
            .collect();
        out.sort_by_key(|w| w.index);
        out
    }
}

#[derive(Debug, Default)]
struct RollupsInner {
    series: BTreeMap<MetricKey, Series>,
}

/// Tumbling windowed rollups over virtual time, keyed like registry
/// metrics by `(name, labels)`.
///
/// Cloneable handle; clones share storage. The [`Default`] is disabled.
#[derive(Debug, Clone, Default)]
pub struct Rollups {
    inner: Option<Arc<Mutex<RollupsInner>>>,
}

fn lock(inner: &Arc<Mutex<RollupsInner>>) -> MutexGuard<'_, RollupsInner> {
    inner.lock().unwrap_or_else(|e| e.into_inner())
}

fn key(name: &str, labels: &[(&str, &str)]) -> MetricKey {
    let mut l: Vec<(String, String)> = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    l.sort();
    (name.to_string(), l)
}

impl Rollups {
    /// A recording handle.
    pub fn enabled() -> Self {
        Rollups {
            inner: Some(Arc::new(Mutex::new(RollupsInner::default()))),
        }
    }

    /// A handle that drops everything (also the [`Default`]).
    pub fn disabled() -> Self {
        Rollups::default()
    }

    /// Whether record calls have any effect.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Records `value` at virtual instant `at` into the tumbling window
    /// it falls in. O(1): one map lookup plus one slot update.
    pub fn record(&self, name: &str, labels: &[(&str, &str)], at: SimTime, value: f64) {
        let Some(inner) = &self.inner else { return };
        lock(inner)
            .series
            .entry(key(name, labels))
            .or_insert_with(|| Series::new(WIDTH, RETENTION))
            .record(at, value);
    }

    /// All retained tumbling windows of one series, ascending by window
    /// index; empty when the series does not exist.
    pub fn windows(&self, name: &str, labels: &[(&str, &str)]) -> Vec<WindowSnapshot> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        lock(inner)
            .series
            .get(&key(name, labels))
            .map(Series::windows)
            .unwrap_or_default()
    }

    /// Renders every series as a deterministic, self-contained JSON
    /// document: series sorted by `(name, labels)`, windows ascending.
    pub fn to_json(&self) -> String {
        use std::fmt::Write;
        let mut out = String::from("{\"series\":[");
        let Some(inner) = &self.inner else {
            out.push_str("]}");
            return out;
        };
        let inner = lock(inner);
        for (si, ((name, labels), series)) in inner.series.iter().enumerate() {
            if si > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"name\":\"{}\",\"labels\":{{", escape_json(name));
            for (li, (k, v)) in labels.iter().enumerate() {
                if li > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{}\":\"{}\"", escape_json(k), escape_json(v));
            }
            let _ = write!(out, "}},\"width_us\":{},\"windows\":[", series.width_us);
            for (wi, w) in series.windows().iter().enumerate() {
                if wi > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"start_us\":{},\"count\":{},\"sum\":{},\"min\":{},\"max\":{}}}",
                    w.start_us, w.count, w.sum, w.min, w.max
                );
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_rollups_are_inert() {
        let r = Rollups::disabled();
        r.record("x", &[], SimTime::ZERO, 1.0);
        assert!(r.windows("x", &[]).is_empty());
        assert_eq!(r.to_json(), "{\"series\":[]}");
    }

    #[test]
    fn values_land_in_their_tumbling_windows() {
        let r = Rollups::enabled();
        r.record("lat", &[], SimTime::from_millis(100), 1.0);
        r.record("lat", &[], SimTime::from_millis(900), 3.0);
        r.record("lat", &[], SimTime::from_millis(1500), 5.0);
        let w = r.windows("lat", &[]);
        assert_eq!(w.len(), 2);
        assert_eq!((w[0].index, w[0].count, w[0].sum), (0, 2, 4.0));
        assert_eq!((w[0].min, w[0].max), (1.0, 3.0));
        assert_eq!((w[1].index, w[1].count, w[1].sum), (1, 1, 5.0));
        assert_eq!(w[1].start_us, 1_000_000);
    }

    #[test]
    fn ring_retention_reuses_slots() {
        let mut x = Series::new(SimDuration::from_secs(1), 4);
        for s in 0..10u64 {
            x.record(SimTime::from_secs(s), s as f64);
        }
        let w = x.windows();
        assert_eq!(w.len(), 4, "only the ring capacity is retained");
        assert_eq!(w.first().unwrap().index, 6);
        assert_eq!(w.last().unwrap().index, 9);
    }

    #[test]
    fn json_is_deterministic_and_labelled() {
        let r = Rollups::enabled();
        r.record("b", &[("k", "v")], SimTime::from_secs(1), 2.0);
        r.record("a", &[], SimTime::ZERO, 1.0);
        let json = r.to_json();
        assert_eq!(json, r.to_json());
        assert!(json.find("\"a\"").unwrap() < json.find("\"b\"").unwrap());
        assert!(json.contains("\"k\":\"v\""));
        assert!(json.contains("\"width_us\":1000000"));
    }
}

//! Windowed time-series rollups over virtual time.
//!
//! The paper's headline figures are trajectories — SLO attainment, bill
//! and latency *over the day* — so point-in-time counters are not enough.
//! [`Rollups`] keeps, per registered metric, a ring of tumbling windows
//! on the simulation clock: each window aggregates sum/count/min/max of
//! everything recorded inside it. Series are resolved once into a
//! [`RollupHandle`], like registry series; a record is one slot update and
//! allocates nothing.
//!
//! Like the rest of the observability layer, a disabled handle is one
//! branch per record call and holds no storage.

use std::cell::RefCell;
use std::rc::Rc;

use splitserve_des::{SimDuration, SimTime};

use crate::chrome::escape_json;
use crate::registry::{key, Family};

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
            ring: vec![Window::fresh(EMPTY); retention.max(1)],
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

type Shared = Rc<RefCell<Family<Series>>>;

/// Tumbling windowed rollups over virtual time, keyed like registry
/// metrics by `(name, labels)`.
///
/// Cloneable handle; clones share one run's storage. The [`Default`] is
/// disabled.
#[derive(Debug, Clone, Default)]
pub struct Rollups {
    inner: Option<Shared>,
}

/// A pre-resolved rollup series; inert when resolved from disabled
/// [`Rollups`].
#[derive(Debug, Clone, Default)]
pub struct RollupHandle(Option<(Shared, usize)>);

impl RollupHandle {
    /// Records `value` at virtual instant `at` into the tumbling window
    /// it falls in.
    #[inline]
    pub fn record(&self, at: SimTime, value: f64) {
        let Some((series, slot)) = &self.0 else { return };
        series.borrow_mut().record(*slot).record(at, value);
    }
}

impl Rollups {
    /// A recording handle.
    pub fn enabled() -> Self {
        Rollups {
            inner: Some(Shared::default()),
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

    /// Resolves the series `name{labels}` to a reusable [`RollupHandle`].
    /// A series nothing is recorded into stays out of [`Rollups::to_json`].
    pub fn handle(&self, name: &str, labels: &[(&str, &str)]) -> RollupHandle {
        RollupHandle(self.inner.as_ref().map(|inner| {
            let slot = inner
                .borrow_mut()
                .resolve(key(name, labels), || Series::new(WIDTH, RETENTION));
            (Rc::clone(inner), slot)
        }))
    }

    /// All retained tumbling windows of one series, ascending by window
    /// index; empty when the series does not exist.
    pub fn windows(&self, name: &str, labels: &[(&str, &str)]) -> Vec<WindowSnapshot> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        inner
            .borrow()
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
        let inner = inner.borrow();
        for (si, ((name, labels), series)) in inner.iter().enumerate() {
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
        r.handle("x", &[]).record(SimTime::ZERO, 1.0);
        assert!(r.windows("x", &[]).is_empty());
        assert_eq!(r.to_json(), "{\"series\":[]}");
    }

    #[test]
    fn values_land_in_their_tumbling_windows() {
        let r = Rollups::enabled();
        let lat = r.handle("lat", &[]);
        lat.record(SimTime::from_millis(100), 1.0);
        lat.record(SimTime::from_millis(900), 3.0);
        lat.record(SimTime::from_millis(1500), 5.0);
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
        let _unused = r.handle("c", &[]);
        r.handle("b", &[("k", "v")]).record(SimTime::from_secs(1), 2.0);
        r.handle("a", &[]).record(SimTime::ZERO, 1.0);
        let json = r.to_json();
        assert_eq!(json, r.to_json());
        assert!(json.find("\"a\"").unwrap() < json.find("\"b\"").unwrap());
        assert!(json.contains("\"k\":\"v\""));
        assert!(json.contains("\"width_us\":1000000"));
        assert!(!json.contains("\"c\""), "a series nothing recorded into stays out");
    }
}

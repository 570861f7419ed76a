//! # splitserve-obs — the unified observability layer
//!
//! The paper's whole evaluation (the Figure 7 execution timelines, the
//! per-executor work distributions, the shuffle-store comparisons of §6)
//! is built from fine-grained runtime telemetry. This crate is the
//! substrate that produces it:
//!
//! - [`MetricsRegistry`] — named counters, gauges and fixed-bucket
//!   histograms, labelled by executor kind, stage, store backend, …
//! - [`SpanRecorder`] — structured, nested spans stamped with the
//!   deterministic simulation clock ([`SimTime`](splitserve_des::SimTime)): task runs, shuffle
//!   writes/fetches, Lambda cold/warm starts, segue drains, rollbacks.
//! - Exporters — Chrome trace-event JSON ([`SpanRecorder::to_chrome_trace`],
//!   loadable in `chrome://tracing` / Perfetto to reproduce Figure-7-style
//!   timelines) and Prometheus text exposition
//!   ([`MetricsRegistry::render_prometheus`]).
//!
//! Everything hangs off an [`Obs`] handle. The handle is **off by
//! default**: a disabled handle holds no allocation and every record call
//! is a single branch on an `Option` (the perf ledger's
//! `obs.disabled_record_ns`). Switched on it is not free — the ledger's
//! `obs.enabled_overhead_frac` reports what a whole run pays, and
//! DESIGN.md §7 carries the measured values.
//!
//! Series are recorded through handles resolved once
//! ([`MetricsRegistry::counter_handle`], [`Rollups::handle`] and friends):
//! the key is built at wiring time, a record is an indexed update.
//!
//! An `Obs` belongs to one run. Everything records on that run's
//! simulation thread — task bodies report what they measured at their
//! join — so storage is `Rc<RefCell<_>>`, with no lock or atomic, and
//! independent runs share nothing.
//!
//! ```
//! use splitserve_des::SimTime;
//! use splitserve_obs::Obs;
//!
//! let obs = Obs::enabled();
//! let done = obs.metrics.counter_handle("tasks_completed_total", &[("kind", "vm")]);
//! done.inc();
//! let span = obs.spans.open(SimTime::ZERO, "vm", "exec-0", "task 0.0");
//! obs.spans.close(span, SimTime::from_secs(2));
//! assert!(obs.spans.to_chrome_trace().contains("traceEvents"));
//!
//! // Disabled: same calls, no effect, no allocation.
//! let off = Obs::disabled();
//! off.metrics.counter_handle("tasks_completed_total", &[("kind", "vm")]).inc();
//! assert_eq!(off.metrics.counter_value("tasks_completed_total", &[("kind", "vm")]), 0);
//! ```

#![warn(missing_docs)]

mod chrome;
mod digest;
mod ledger;
mod prometheus;
mod registry;
mod span;
mod timeseries;

pub use chrome::escape_json;
pub use digest::QuantileDigest;
pub use ledger::{BillLedger, BillPoint, SloLedger, SloPoint, TenantId};
pub use registry::{
    CounterHandle, HistogramHandle, HistogramSnapshot, MetricsRegistry, QuantileHandle,
};
pub use span::{Span, SpanId, SpanRecorder};
pub use timeseries::{RollupHandle, Rollups, WindowSnapshot};

/// The bundle instrumented layers carry: a metrics registry, a span
/// recorder and rollups, all sharing one enabled/disabled state.
///
/// Cloneable handle; clones share one run's storage.
#[derive(Debug, Clone, Default)]
pub struct Obs {
    /// Counters, gauges, histograms and streaming quantile digests.
    pub metrics: MetricsRegistry,
    /// Structured spans for timeline export.
    pub spans: SpanRecorder,
    /// Windowed time-series rollups over virtual time.
    pub rollups: Rollups,
}

impl Obs {
    /// A disabled handle: every record call is a no-op branch. This is
    /// also what [`Obs::default`] returns — observability is opt-in.
    pub fn disabled() -> Self {
        Obs::default()
    }

    /// An enabled handle recording into fresh storage.
    pub fn enabled() -> Self {
        Obs {
            metrics: MetricsRegistry::enabled(),
            spans: SpanRecorder::enabled(),
            rollups: Rollups::enabled(),
        }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.metrics.is_enabled() || self.spans.is_enabled() || self.rollups.is_enabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splitserve_des::SimTime;

    #[test]
    fn default_is_disabled() {
        let obs = Obs::default();
        assert!(!obs.is_enabled());
        obs.spans.instant(SimTime::ZERO, "driver", "driver", "noop");
        assert!(obs.spans.to_chrome_trace().ends_with("[]}"));
    }

    #[test]
    fn clones_share_state() {
        let obs = Obs::enabled();
        let clone = obs.clone();
        clone.metrics.counter_handle("x_total", &[]).add(3);
        assert_eq!(obs.metrics.counter_value("x_total", &[]), 3);
    }
}

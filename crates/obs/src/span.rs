//! Structured spans on the simulation clock.
//!
//! A span is an interval of virtual time on a *track* (one executor, the
//! driver, one store backend) inside a *lane* (a group of tracks: `"vm"`,
//! `"lambda"`, `"driver"`, `"storage"`). Lanes become processes and tracks
//! become threads in the Chrome trace export, which is what makes the
//! Figure-7 executor-timeline layout fall out of `chrome://tracing`
//! directly.
//!
//! Lanes, tracks and annotation keys are `&'static str` — an executor
//! kind's label, an interned executor id, a literal — and a name or an
//! annotation value is a `Cow<'static, str>`: a static name is stored as
//! the pointer it is, a formatted one is moved in, never copied.

use std::borrow::Cow;
use std::cell::RefCell;
use std::rc::Rc;

use splitserve_des::SimTime;

/// Identifies an open span. Obtained from [`SpanRecorder::open`]; a
/// disabled recorder hands out [`SpanId::NONE`], which indexes no span and
/// so closes and annotates harmlessly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanId(pub(crate) u64);

impl SpanId {
    /// The id a disabled recorder returns; closing/annotating it is a no-op.
    pub const NONE: SpanId = SpanId(u64::MAX);
}

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Lane (Chrome-trace process), e.g. `"vm"`, `"lambda"`, `"storage"`.
    pub lane: &'static str,
    /// Track within the lane (Chrome-trace thread), e.g. an executor id.
    pub track: &'static str,
    /// Human-readable name, e.g. `"task 2.5"` or `"segue drain"`.
    pub name: Cow<'static, str>,
    /// Open instant.
    pub start: SimTime,
    /// Close instant; `None` while still open.
    pub end: Option<SimTime>,
    /// Free-form annotations (Chrome-trace `args`).
    pub args: Vec<(&'static str, Cow<'static, str>)>,
}

/// An instant event — zero-duration marker on a track.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Instant {
    pub(crate) lane: &'static str,
    pub(crate) track: &'static str,
    pub(crate) name: Cow<'static, str>,
    pub(crate) at: SimTime,
}

#[derive(Debug, Default)]
pub(crate) struct SpanInner {
    pub spans: Vec<Span>,
    pub instants: Vec<Instant>,
}

/// Records nested spans and instant markers. Disabled by [`Default`];
/// clones of an enabled recorder share one run's storage, recorded on
/// that run's simulation thread.
#[derive(Debug, Clone, Default)]
pub struct SpanRecorder {
    pub(crate) inner: Option<Rc<RefCell<SpanInner>>>,
}

impl SpanRecorder {
    /// A recorder that records.
    pub fn enabled() -> Self {
        SpanRecorder {
            inner: Some(Rc::default()),
        }
    }

    /// A recorder that drops everything (the [`Default`]).
    pub fn disabled() -> Self {
        SpanRecorder::default()
    }

    /// Whether record calls have any effect.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Opens a span at `at` on `lane`/`track`. Returns [`SpanId::NONE`]
    /// when disabled.
    pub fn open(
        &self,
        at: SimTime,
        lane: &'static str,
        track: &'static str,
        name: impl Into<Cow<'static, str>>,
    ) -> SpanId {
        let Some(inner) = &self.inner else {
            return SpanId::NONE;
        };
        let mut inner = inner.borrow_mut();
        let id = SpanId(inner.spans.len() as u64);
        inner.spans.push(Span {
            lane,
            track,
            name: name.into(),
            start: at,
            end: None,
            args: Vec::new(),
        });
        id
    }

    /// Closes `id` at `at`. Closing [`SpanId::NONE`] or an already-closed
    /// span is a no-op; a close before the open instant is clamped to it
    /// (zero-length span) so the trace stays well-formed.
    pub fn close(&self, id: SpanId, at: SimTime) {
        let Some(inner) = &self.inner else { return };
        if let Some(span) = inner.borrow_mut().spans.get_mut(id.0 as usize) {
            if span.end.is_none() {
                span.end = Some(at.max(span.start));
            }
        }
    }

    /// Attaches a `key = value` annotation to an open or closed span.
    pub fn annotate(&self, id: SpanId, key: &'static str, value: impl Into<Cow<'static, str>>) {
        let Some(inner) = &self.inner else { return };
        if let Some(span) = inner.borrow_mut().spans.get_mut(id.0 as usize) {
            span.args.push((key, value.into()));
        }
    }

    /// Records a zero-duration marker.
    pub fn instant(
        &self,
        at: SimTime,
        lane: &'static str,
        track: &'static str,
        name: impl Into<Cow<'static, str>>,
    ) {
        let Some(inner) = &self.inner else { return };
        inner.borrow_mut().instants.push(Instant {
            lane,
            track,
            name: name.into(),
            at,
        });
    }

    /// All spans recorded so far (open ones have `end == None`).
    pub fn snapshot(&self) -> Vec<Span> {
        match &self.inner {
            Some(inner) => inner.borrow().spans.clone(),
            None => Vec::new(),
        }
    }

    /// Only the spans that have been closed.
    pub fn finished_spans(&self) -> Vec<Span> {
        self.snapshot()
            .into_iter()
            .filter(|s| s.end.is_some())
            .collect()
    }

    /// Number of spans still open.
    ///
    /// Test aid: only tests call this.
    pub fn open_spans(&self) -> usize {
        match &self.inner {
            Some(inner) => inner.borrow().spans.iter().filter(|s| s.end.is_none()).count(),
            None => 0,
        }
    }

    /// Checks the structural invariant that spans on each `(lane, track)`
    /// pair nest properly: for any two spans on one track, they are either
    /// disjoint or one contains the other. Returns an offending pair of
    /// names, or `None` when the invariant holds.
    ///
    /// Runs in `O(n log n)`: spans are grouped by `(lane, track)` and
    /// sorted by start instant (longest first on ties), then a single
    /// stack sweep per track checks each span against the innermost
    /// still-open enclosing span — the only candidate it can cross once
    /// the sort guarantees every earlier-starting overlapper is on the
    /// stack. The old all-pairs scan made trace validation quadratic in
    /// span count, which dominated verify time on wide chaos runs.
    ///
    /// Test aid: only tests call this.
    pub fn nesting_violation(&self) -> Option<(String, String)> {
        let mut spans = self.finished_spans();
        spans.sort_by(|a, b| {
            (a.lane, a.track, a.start)
                .cmp(&(b.lane, b.track, b.start))
                // Ties on start: longer span first, so a container
                // precedes its contents.
                .then(b.end.cmp(&a.end))
        });
        // Innermost-first stack of (end, index) for the current track.
        let mut stack: Vec<usize> = Vec::new();
        let mut track_of: Option<(&str, &str)> = None;
        for (i, s) in spans.iter().enumerate() {
            let here = (s.lane, s.track);
            if track_of != Some(here) {
                track_of = Some(here);
                stack.clear();
            }
            let end = s.end.expect("finished");
            while let Some(&top) = stack.last() {
                if spans[top].end.expect("finished") <= s.start {
                    stack.pop();
                } else {
                    break;
                }
            }
            if let Some(&top) = stack.last() {
                // `top` starts no later and is still open at our start;
                // proper nesting requires it to contain us entirely.
                if end > spans[top].end.expect("finished") {
                    return Some((spans[top].name.to_string(), s.name.to_string()));
                }
            }
            stack.push(i);
        }
        None
    }

    /// Renders the Chrome trace-event JSON (see the `chrome` module).
    pub fn to_chrome_trace(&self) -> String {
        crate::chrome::to_chrome_trace(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let r = SpanRecorder::disabled();
        let id = r.open(t(0), "vm", "e0", "task");
        assert_eq!(id, SpanId::NONE);
        r.close(id, t(1));
        r.instant(t(0), "vm", "e0", "mark");
        assert!(r.snapshot().is_empty());
    }

    #[test]
    fn open_close_annotate() {
        let r = SpanRecorder::enabled();
        let id = r.open(t(1), "lambda", "lambda-0", "task 0.3");
        r.annotate(id, "cpu_secs", "1.25");
        assert_eq!(r.open_spans(), 1);
        r.close(id, t(4));
        assert_eq!(r.open_spans(), 0);
        let spans = r.finished_spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].end, Some(t(4)));
        assert_eq!(spans[0].args, vec![("cpu_secs", "1.25".into())]);
    }

    #[test]
    fn double_close_keeps_first_end() {
        let r = SpanRecorder::enabled();
        let id = r.open(t(0), "vm", "e0", "task");
        r.close(id, t(2));
        r.close(id, t(9));
        assert_eq!(r.finished_spans()[0].end, Some(t(2)));
    }

    #[test]
    fn close_before_open_clamps() {
        let r = SpanRecorder::enabled();
        let id = r.open(t(5), "vm", "e0", "task");
        r.close(id, t(1));
        assert_eq!(r.finished_spans()[0].end, Some(t(5)));
    }

    #[test]
    fn nesting_violation_detection() {
        let r = SpanRecorder::enabled();
        let a = r.open(t(0), "vm", "e0", "outer");
        let b = r.open(t(1), "vm", "e0", "inner");
        r.close(b, t(2));
        r.close(a, t(3));
        // Disjoint span on another track never conflicts.
        let c = r.open(t(1), "vm", "e1", "other");
        r.close(c, t(5));
        assert_eq!(r.nesting_violation(), None);

        // A genuinely interleaved pair on one track is flagged.
        let x = r.open(t(10), "vm", "e0", "x");
        let y = r.open(t(11), "vm", "e0", "y");
        r.close(x, t(12));
        r.close(y, t(13));
        assert_eq!(r.nesting_violation(), Some(("x".into(), "y".into())));
    }
}

//! The benchmark's own tracer: spans recorded around the calls into each
//! layer, kept in memory, written as Chrome trace JSON when the run ends.
//! Nothing inside the program under test is instrumented; in-program
//! timers are a later issue.
//!
//! Calls that happen tens of thousands of times per run (store puts and
//! gets, job submissions) are not kept as one span each. They are *leaves*:
//! aggregated as count / total / max on the span that was open when they
//! happened.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::Instant;

/// Aggregate of one kind of leaf call under one span.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Leaf {
    pub count: u64,
    pub total_ns: u64,
    pub max_ns: u64,
}

/// One recorded span. `trace` is shared by all spans of one iteration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub trace: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub leaves: BTreeMap<&'static str, Leaf>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Inner {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    trace: u32,
}

/// Single-threaded span recorder, shared by `Rc` between the harness, the
/// store decorator and the wrapped driver programs.
pub struct Tracer {
    inner: RefCell<Inner>,
}

/// Closes its span when dropped.
pub struct Guard {
    tracer: Rc<Tracer>,
    id: usize,
}

impl Drop for Guard {
    fn drop(&mut self) {
        let mut inner = self.tracer.inner.borrow_mut();
        let now = inner.epoch.elapsed().as_nanos() as u64;
        let top = inner.open.pop();
        debug_assert_eq!(top, Some(self.id), "spans must close innermost first");
        inner.spans[self.id].end_ns = now;
    }
}

impl Tracer {
    pub fn new() -> Rc<Tracer> {
        Rc::new(Tracer {
            inner: RefCell::new(Inner {
                epoch: Instant::now(),
                spans: Vec::new(),
                open: Vec::new(),
                trace: 0,
            }),
        })
    }

    /// Starts a new trace id; call once per iteration, with no span open.
    pub fn next_trace(&self) {
        self.inner.borrow_mut().trace += 1;
    }

    /// Opens a span under the innermost open one.
    pub fn enter(self: &Rc<Self>, name: &'static str) -> Guard {
        let mut inner = self.inner.borrow_mut();
        let id = inner.spans.len();
        let now = inner.epoch.elapsed().as_nanos() as u64;
        let span = Span {
            id,
            parent: inner.open.last().copied(),
            trace: inner.trace,
            name,
            start_ns: now,
            end_ns: now,
            leaves: BTreeMap::new(),
        };
        inner.spans.push(span);
        inner.open.push(id);
        Guard {
            tracer: Rc::clone(self),
            id,
        }
    }

    /// Adds one leaf call of `ns` to the innermost open span; dropped if no
    /// span is open (a call outside any iteration is not attributed).
    pub fn leaf(&self, name: &'static str, ns: u64) {
        let mut inner = self.inner.borrow_mut();
        let Some(&top) = inner.open.last() else {
            return;
        };
        let leaf = inner.spans[top].leaves.entry(name).or_default();
        leaf.count += 1;
        leaf.total_ns += ns;
        leaf.max_ns = leaf.max_ns.max(ns);
    }

    /// Times `f` as one leaf call.
    pub fn time_leaf<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.leaf(name, t0.elapsed().as_nanos() as u64);
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.inner.borrow().spans.clone()
    }
}

/// Opens a span if tracing is on.
pub fn span(tracer: &Option<Rc<Tracer>>, name: &'static str) -> Option<Guard> {
    tracer.as_ref().map(|t| t.enter(name))
}

/// Self time of every span: its duration minus its child spans and its
/// leaves. Indexed like `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans
        .iter()
        .map(|s| {
            let leaves: u64 = s.leaves.values().map(|l| l.total_ns).sum();
            s.dur_ns().saturating_sub(leaves)
        })
        .collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Checks that every parent exists, belongs to the same trace and encloses
/// its child, and that no span ends before it starts.
pub fn check_integrity(spans: &[Span]) -> Result<(), String> {
    for (i, s) in spans.iter().enumerate() {
        if s.id != i {
            return Err(format!("span {i} carries id {}", s.id));
        }
        if s.end_ns < s.start_ns {
            return Err(format!("span {i} ({}) ends before it starts", s.name));
        }
        let Some(p) = s.parent else { continue };
        let Some(parent) = spans.get(p).filter(|_| p < i) else {
            return Err(format!(
                "span {i} ({}) has no earlier span {p} as parent",
                s.name
            ));
        };
        if parent.trace != s.trace {
            return Err(format!(
                "span {i} ({}) is in another trace than its parent",
                s.name
            ));
        }
        if parent.start_ns > s.start_ns || parent.end_ns < s.end_ns {
            return Err(format!(
                "span {i} ({}) is not enclosed by its parent {p} ({})",
                s.name, parent.name
            ));
        }
    }
    Ok(())
}

/// Totals per span name over the spans `keep` accepts: `(count, duration,
/// self time)` in nanoseconds. `spans` must be the whole recording, since
/// parents are found by index.
pub fn totals_by_name(
    spans: &[Span],
    keep: impl Fn(&Span) -> bool,
) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let own = self_times(spans);
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(own).filter(|(s, _)| keep(s)) {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.dur_ns();
        e.2 += own;
    }
    out
}

/// Totals per leaf name over the spans `keep` accepts.
pub fn leaf_totals(spans: &[Span], keep: impl Fn(&Span) -> bool) -> BTreeMap<&'static str, Leaf> {
    let mut out: BTreeMap<&'static str, Leaf> = BTreeMap::new();
    for (name, l) in spans
        .iter()
        .filter(|s| keep(s))
        .flat_map(|s| s.leaves.iter())
    {
        let e = out.entry(name).or_default();
        e.count += l.count;
        e.total_ns += l.total_ns;
        e.max_ns = e.max_ns.max(l.max_ns);
    }
    out
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
/// ("X") event per span, one thread lane per trace id, with the span's id,
/// parent, self time and leaf aggregates under `args`.
pub fn to_chrome_json(spans: &[Span]) -> String {
    let own = self_times(spans);
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, (s, own)) in spans.iter().zip(own).enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{},\"parent\":{},\"self_us\":{:.3}",
            s.name,
            s.trace,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.id,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            own as f64 / 1e3,
        );
        for (name, l) in &s.leaves {
            let _ = write!(
                out,
                ",\"{name}\":{{\"count\":{},\"total_us\":{:.3},\"max_us\":{:.3}}}",
                l.count,
                l.total_ns as f64 / 1e3,
                l.max_ns as f64 / 1e3
            );
        }
        out.push_str("}}");
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span_at(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            trace: 1,
            name: "s",
            start_ns,
            end_ns,
            leaves: BTreeMap::new(),
        }
    }

    #[test]
    fn self_time_subtracts_children_and_leaves() {
        let mut spans = vec![
            span_at(0, None, 0, 1_000),
            span_at(1, Some(0), 100, 400),
            span_at(2, Some(0), 500, 900),
            span_at(3, Some(2), 600, 700),
        ];
        spans[2].leaves.insert(
            "storage.put",
            Leaf {
                count: 3,
                total_ns: 50,
                max_ns: 30,
            },
        );
        // root: 1000 - 300 - 400; span 2: 400 - 100 (child) - 50 (leaves).
        assert_eq!(self_times(&spans), vec![300, 300, 250, 100]);
        let by_name = totals_by_name(&spans, |_| true);
        assert_eq!(by_name["s"], (4, 1_000 + 300 + 400 + 100, 950));
        // A filter selects spans but parents are still found by index.
        let deep = totals_by_name(&spans, |s| s.parent == Some(2));
        assert_eq!(deep["s"], (1, 100, 100));
    }

    #[test]
    fn integrity_rejects_escaping_and_orphaned_children() {
        let ok = vec![span_at(0, None, 0, 10), span_at(1, Some(0), 2, 8)];
        assert_eq!(check_integrity(&ok), Ok(()));
        let escapes = vec![span_at(0, None, 0, 10), span_at(1, Some(0), 2, 12)];
        assert!(check_integrity(&escapes).is_err());
        let orphan = vec![span_at(0, Some(5), 0, 10)];
        assert!(check_integrity(&orphan).is_err());
        let mut other_trace = ok.clone();
        other_trace[1].trace = 2;
        assert!(check_integrity(&other_trace).is_err());
    }

    #[test]
    fn recorded_spans_nest_and_aggregate_leaves() {
        let t = Tracer::new();
        t.leaf("storage.get", 5); // no span open: dropped
        t.next_trace();
        {
            let _it = t.enter("iteration");
            {
                let _run = t.enter("run");
                t.leaf("storage.put", 10);
                t.leaf("storage.put", 30);
                assert_eq!(t.time_leaf("storage.get", || 7), 7);
            }
            let _verify = t.enter("verify");
        }
        let spans = t.spans();
        assert_eq!(check_integrity(&spans), Ok(()));
        let names: Vec<_> = spans.iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            vec![("iteration", None), ("run", Some(0)), ("verify", Some(0))]
        );
        let put = spans[1].leaves["storage.put"];
        assert_eq!((put.count, put.total_ns, put.max_ns), (2, 40, 30));
        assert_eq!(leaf_totals(&spans, |_| true)["storage.get"].count, 1);
        crate::json::parse(&to_chrome_json(&spans)).expect("trace is valid JSON");
    }
}

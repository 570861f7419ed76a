//! Chrome trace-event JSON export.
//!
//! The output loads directly into `chrome://tracing` or
//! [Perfetto](https://ui.perfetto.dev): lanes become processes, tracks
//! become threads, spans become complete (`"ph":"X"`) events and markers
//! become instant (`"ph":"i"`) events. Timestamps are the simulation
//! clock's microseconds, so a trace of a scenario run reproduces the
//! paper's Figure-7 executor timeline visually.
//!
//! No JSON library is involved (hermetic build): the grammar emitted here
//! is the small, flat subset the trace viewer consumes.

use std::collections::BTreeMap;
use std::fmt::Write;

use crate::span::SpanRecorder;

/// Escapes a string for embedding in a JSON string literal — shared by
/// every hand-rolled JSON writer in the workspace (hermetic build, no
/// JSON library).
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders the recorder's finished spans and instants as a Chrome
/// trace-event JSON document. Spans still open at export time are omitted
/// (export after the simulation has drained). Pid/tid assignment is
/// deterministic: lanes and tracks are numbered in sorted order.
pub(crate) fn to_chrome_trace(rec: &SpanRecorder) -> String {
    let Some(inner) = &rec.inner else {
        return "{\"traceEvents\":[]}".to_string();
    };
    let inner = inner.borrow();

    // Deterministic pid per lane and tid per (lane, track).
    let mut lanes: BTreeMap<&str, u64> = BTreeMap::new();
    let mut tracks: BTreeMap<(&str, &str), u64> = BTreeMap::new();
    let coordinates = inner.spans.iter().map(|s| (s.lane, s.track));
    for (lane, track) in coordinates.chain(inner.instants.iter().map(|i| (i.lane, i.track))) {
        lanes.entry(lane).or_insert(0);
        tracks.entry((lane, track)).or_insert(0);
    }
    for (n, (_, pid)) in lanes.iter_mut().enumerate() {
        *pid = n as u64 + 1;
    }
    for (n, (_, tid)) in tracks.iter_mut().enumerate() {
        *tid = n as u64 + 1;
    }

    let mut events: Vec<String> = Vec::new();
    for (lane, pid) in &lanes {
        events.push(format!(
            "{{\"ph\":\"M\",\"pid\":{pid},\"name\":\"process_name\",\"args\":{{\"name\":\"{}\"}}}}",
            escape_json(lane)
        ));
    }
    for ((lane, track), tid) in &tracks {
        let pid = lanes[lane];
        events.push(format!(
            "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"thread_name\",\
             \"args\":{{\"name\":\"{}\"}}}}",
            escape_json(track)
        ));
    }
    for s in &inner.spans {
        let Some(end) = s.end else { continue };
        let pid = lanes[s.lane];
        let tid = tracks[&(s.lane, s.track)];
        let ts = s.start.as_micros();
        let dur = end.saturating_since(s.start).as_micros();
        let mut args = String::new();
        for (i, (k, v)) in s.args.iter().enumerate() {
            if i > 0 {
                args.push(',');
            }
            let _ = write!(args, "\"{}\":\"{}\"", escape_json(k), escape_json(v));
        }
        events.push(format!(
            "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts},\"dur\":{dur},\
             \"name\":\"{}\",\"args\":{{{args}}}}}",
            escape_json(&s.name)
        ));
    }
    for i in &inner.instants {
        let pid = lanes[i.lane];
        let tid = tracks[&(i.lane, i.track)];
        events.push(format!(
            "{{\"ph\":\"i\",\"pid\":{pid},\"tid\":{tid},\"ts\":{},\"s\":\"t\",\"name\":\"{}\"}}",
            i.at.as_micros(),
            escape_json(&i.name)
        ));
    }

    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (n, e) in events.iter().enumerate() {
        out.push_str(e);
        if n + 1 < events.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use crate::SpanRecorder;
    use splitserve_des::SimTime;

    #[test]
    fn escaping_handles_specials() {
        assert_eq!(super::escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(super::escape_json("\u{1}"), "\\u0001");
    }

    #[test]
    fn trace_contains_metadata_spans_and_instants() {
        let r = SpanRecorder::enabled();
        let id = r.open(SimTime::from_secs(1), "vm", "e-vm-0000", "task 0.0");
        r.annotate(id, "cpu_secs", "0.5");
        r.close(id, SimTime::from_secs(3));
        r.instant(SimTime::from_secs(2), "driver", "driver", "segue commences");
        let open = r.open(SimTime::from_secs(4), "vm", "e-vm-0000", "never closed");
        let _ = open; // stays open: must be omitted
        let json = r.to_chrome_trace();
        assert!(json.contains("\"process_name\""));
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ts\":1000000"));
        assert!(json.contains("\"dur\":2000000"));
        assert!(json.contains("\"cpu_secs\":\"0.5\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(!json.contains("never closed"));
    }

    #[test]
    fn disabled_recorder_exports_empty_document() {
        let r = SpanRecorder::disabled();
        assert_eq!(r.to_chrome_trace(), "{\"traceEvents\":[]}");
    }

    #[test]
    fn pid_tid_assignment_is_deterministic() {
        let build = || {
            let r = SpanRecorder::enabled();
            for (lane, track) in [("vm", "b"), ("lambda", "a"), ("vm", "a")] {
                let id = r.open(SimTime::ZERO, lane, track, "t");
                r.close(id, SimTime::from_secs(1));
            }
            r.to_chrome_trace()
        };
        assert_eq!(build(), build());
    }
}

//! The post-mortem dump: a pure renderer over the tail of the event log.
//!
//! When a chaos case violates the differential oracle, the repro line
//! (`CHAOS_SEED=… CHAOS_PLAN=…`) says *how to rerun* the failure but not
//! *what happened* on the way there. The dump fills that gap: the last
//! [`FLIGHT_TAIL`] typed events of the run as a self-contained JSON
//! document with the repro line embedded — replaying the line reproduces
//! the same event stream, so the dump is both evidence and test vector.

use std::fmt::{Display, Write};

use splitserve_obs::escape_json;

use crate::events::{EngineEvent, EngineEventKind, TaskRef};

/// How many of the most recent events a dump shows.
pub(crate) const FLIGHT_TAIL: usize = 4096;

/// The dump's `kind` and `fields` of one event, values already text.
fn describe(kind: &EngineEventKind) -> (String, Vec<(&'static str, String)>) {
    use EngineEventKind as E;
    fn s(v: &dyn Display) -> String {
        v.to_string()
    }
    let secs = |v: &f64| format!("{v:.6}");
    // A task event's own fields follow the task's coordinates.
    let on = |t: &TaskRef, own: Vec<(&'static str, String)>| {
        let mut fields = vec![
            ("job", s(&t.job)),
            ("stage", s(&t.stage.0)),
            ("part", s(&t.part)),
            ("exec", s(&t.exec)),
        ];
        fields.extend(own);
        fields
    };
    let (name, fields) = match kind {
        E::ExecutorRegistered { exec, kind } => {
            ("executor-registered", vec![("exec", s(exec)), ("kind", s(kind))])
        }
        E::ExecutorDraining { exec } => ("executor-draining", vec![("exec", s(exec))]),
        E::ExecutorDecommissioned { exec } => ("executor-decommissioned", vec![("exec", s(exec))]),
        E::ExecutorLost { exec } => ("executor-lost", vec![("exec", s(exec))]),
        E::JobSubmitted { job, stages } => {
            ("job-submitted", vec![("job", s(job)), ("stages", s(stages))])
        }
        E::JobCompleted { job } => ("job-completed", vec![("job", s(job))]),
        E::StageSubmitted { job, stage, tasks } => (
            "stage-submitted",
            vec![("job", s(job)), ("stage", s(&stage.0)), ("tasks", s(tasks))],
        ),
        E::StageCompleted { job, stage } => {
            ("stage-completed", vec![("job", s(job)), ("stage", s(&stage.0))])
        }
        E::StageRolledBack { job, stage, missing } => (
            "stage-rollback",
            vec![("job", s(job)), ("stage", s(&stage.0)), ("missing", s(missing))],
        ),
        E::TaskStarted { task, kind } => ("task-started", on(task, vec![("kind", s(kind))])),
        E::TaskComputed { task, cpu_secs } => {
            ("task-computed", on(task, vec![("cpu_secs", secs(cpu_secs))]))
        }
        E::TaskFinished { task, kind, cpu_secs, run_secs } => (
            "task-finished",
            on(task, vec![
                ("kind", s(kind)),
                ("cpu_secs", secs(cpu_secs)),
                ("run_secs", secs(run_secs)),
            ]),
        ),
        E::TaskFailed { task, why, reason } => (
            "task-failed",
            on(task, vec![("reason", s(&why.label())), ("error", reason.clone())]),
        ),
        // Shuffle ids are numbered process-wide, first come first served:
        // they would make the same run dump differently on a replay.
        E::FetchFailed { task, shuffle: _ } => ("fetch-failed", on(task, Vec::new())),
        E::ShufflePhaseStarted { task, kind, phase, bytes } => (
            "shuffle-phase-started",
            on(task, vec![("kind", s(kind)), ("phase", s(&phase.label())), ("bytes", s(bytes))]),
        ),
        E::ShufflePhaseFinished { task, phase, bytes, secs: took } => (
            "shuffle-phase-finished",
            on(task, vec![("phase", s(&phase.label())), ("bytes", s(bytes)), ("secs", secs(took))]),
        ),
        E::ShufflePhaseAborted { phase } => {
            ("shuffle-phase-aborted", vec![("phase", s(&phase.label()))])
        }
        E::StragglerSuspected { task, elapsed_secs, threshold_secs } => (
            "straggler-suspected",
            on(task, vec![
                ("elapsed_secs", secs(elapsed_secs)),
                ("threshold_secs", secs(threshold_secs)),
            ]),
        ),
        E::FaultInjected { kind } => ("fault-injected", vec![("kind", s(kind))]),
        // "segue commences" → `segue-commences`.
        E::Marker(name) => return (name.replace(' ', "-"), Vec::new()),
    };
    (name.to_string(), fields)
}

/// Renders the last `FLIGHT_TAIL` of `events` as a replayable JSON
/// snapshot: `{reason, repro, overwritten, events: [{t_us, kind,
/// fields}]}`, every field value a string. `reason` says why the dump was
/// taken; `repro` carries the deterministic replay line (e.g. a chaos
/// `CHAOS_SEED=… CHAOS_PLAN=…` line) when one exists; `overwritten`
/// counts the older events the tail left out. Deterministic: same events,
/// same string.
pub fn flight_dump(events: &[EngineEvent], reason: &str, repro: Option<&str>) -> String {
    render(events, FLIGHT_TAIL, reason, repro)
}

fn render(events: &[EngineEvent], tail: usize, reason: &str, repro: Option<&str>) -> String {
    let overwritten = events.len().saturating_sub(tail);
    let mut out = String::new();
    let _ = write!(out, "{{\"reason\":\"{}\",", escape_json(reason));
    match repro {
        Some(r) => {
            let _ = write!(out, "\"repro\":\"{}\",", escape_json(r));
        }
        None => out.push_str("\"repro\":null,"),
    }
    let _ = write!(out, "\"overwritten\":{overwritten},\"events\":[");
    for (i, e) in events[overwritten..].iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let (kind, fields) = describe(&e.kind);
        let _ = write!(
            out,
            "{{\"t_us\":{},\"kind\":\"{}\",\"fields\":{{",
            e.at.as_micros(),
            escape_json(&kind)
        );
        for (fi, (k, v)) in fields.iter().enumerate() {
            if fi > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{k}\":\"{}\"", escape_json(v));
        }
        out.push_str("}}");
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::{EventLog, FailureKind, JobId, ShufflePhase};
    use crate::executor::ExecutorKind;
    use crate::node::ShuffleId;
    use crate::stage::StageId;
    use splitserve_des::SimTime;

    fn at(us: u64, kind: EngineEventKind) -> EngineEvent {
        EngineEvent {
            at: SimTime::from_micros(us),
            kind,
        }
    }

    /// One of every variant, hostile text where a variant carries text.
    fn one_of_each() -> Vec<EngineEventKind> {
        use EngineEventKind as E;
        let (job, stage, kind) = (JobId(3), StageId(1), ExecutorKind::Vm);
        let exec = "e-\"vm\"\n0".into();
        let task = TaskRef { job, stage, part: 2, exec };
        let phase = ShufflePhase::Fetch;
        let all = vec![
            E::ExecutorRegistered { exec, kind },
            E::ExecutorDraining { exec },
            E::ExecutorDecommissioned { exec },
            E::ExecutorLost { exec },
            E::JobSubmitted { job, stages: 2 },
            E::JobCompleted { job },
            E::StageSubmitted { job, stage, tasks: 4 },
            E::StageCompleted { job, stage },
            E::StageRolledBack { job, stage, missing: 1 },
            E::TaskStarted { task, kind },
            E::TaskComputed { task, cpu_secs: 0.5 },
            E::TaskFinished { task, kind, cpu_secs: 0.5, run_secs: 1.25 },
            E::TaskFailed {
                task,
                why: FailureKind::FetchFailed,
                reason: "get \"b\\0\" failed\n".into(),
            },
            E::FetchFailed { task, shuffle: ShuffleId(9) },
            E::ShufflePhaseStarted { task, kind, phase, bytes: 10 },
            E::ShufflePhaseFinished { task, phase, bytes: 10, secs: 0.25 },
            E::ShufflePhaseAborted { phase },
            E::StragglerSuspected { task, elapsed_secs: 9.0, threshold_secs: 4.5 },
            E::FaultInjected { kind: "kill" },
            E::Marker("segue commences"),
        ];
        // A new variant fails to compile here: give it a sample above.
        for e in &all {
            match e {
                E::ExecutorRegistered { .. }
                | E::ExecutorDraining { .. }
                | E::ExecutorDecommissioned { .. }
                | E::ExecutorLost { .. }
                | E::JobSubmitted { .. }
                | E::JobCompleted { .. }
                | E::StageSubmitted { .. }
                | E::StageCompleted { .. }
                | E::StageRolledBack { .. }
                | E::TaskStarted { .. }
                | E::TaskComputed { .. }
                | E::TaskFinished { .. }
                | E::TaskFailed { .. }
                | E::FetchFailed { .. }
                | E::ShufflePhaseStarted { .. }
                | E::ShufflePhaseFinished { .. }
                | E::ShufflePhaseAborted { .. }
                | E::StragglerSuspected { .. }
                | E::FaultInjected { .. }
                | E::Marker(_) => {}
            }
        }
        all
    }

    /// Consumes one JSON value from the front of `s` (the grammar the dump
    /// uses: objects, arrays, strings, unsigned integers, `null`).
    fn json_value(s: &str) -> Result<&str, String> {
        fn list(mut rest: &str, close: char, keyed: bool) -> Result<&str, String> {
            if let Some(after) = rest.strip_prefix(close) {
                return Ok(after);
            }
            loop {
                if keyed {
                    rest = json_value(rest)?
                        .strip_prefix(':')
                        .ok_or("key without ':'")?;
                }
                rest = json_value(rest)?;
                match rest.strip_prefix(',') {
                    Some(more) => rest = more,
                    None => {
                        return rest
                            .strip_prefix(close)
                            .ok_or(format!("unclosed before {rest:.20}"))
                    }
                }
            }
        }
        if let Some(rest) = s.strip_prefix('{') {
            list(rest, '}', true)
        } else if let Some(rest) = s.strip_prefix('[') {
            list(rest, ']', false)
        } else if let Some(rest) = s.strip_prefix('"') {
            let mut chars = rest.char_indices();
            while let Some((i, c)) = chars.next() {
                match c {
                    '"' => return Ok(&rest[i + 1..]),
                    '\\' => match chars.next() {
                        Some((_, 'u')) => {
                            chars.nth(3);
                        }
                        Some((_, '"' | '\\' | 'n' | 'r' | 't')) => {}
                        other => return Err(format!("bad escape {other:?}")),
                    },
                    c if (c as u32) < 0x20 => return Err(format!("raw control {c:?} in string")),
                    _ => {}
                }
            }
            Err("unterminated string".into())
        } else if let Some(rest) = s.strip_prefix("null") {
            Ok(rest)
        } else {
            let digits = s.bytes().take_while(u8::is_ascii_digit).count();
            if digits == 0 {
                return Err(format!("unexpected {s:.20}"));
            }
            Ok(&s[digits..])
        }
    }

    #[test]
    fn every_variant_renders_a_distinct_kebab_kind_and_valid_json() {
        let all = one_of_each();
        let mut kinds: Vec<String> = all.iter().map(|k| describe(k).0).collect();
        for kind in &kinds {
            assert!(
                !kind.is_empty() && kind.bytes().all(|b| b.is_ascii_lowercase() || b == b'-'),
                "{kind:?} is not kebab-case"
            );
        }
        kinds.sort();
        kinds.dedup();
        assert_eq!(kinds.len(), all.len(), "two variants share a kind");

        let events: Vec<EngineEvent> = all.into_iter().map(|k| at(7, k)).collect();
        let dump = flight_dump(&events, "why \"so\"", Some("a\\b"));
        assert_eq!(json_value(&dump), Ok(""), "{dump}");
        assert_eq!(dump.matches("\"t_us\":7,").count(), events.len());
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let log = EventLog::disabled();
        log.push(SimTime::ZERO, EngineEventKind::Marker("x"));
        assert!(log.is_empty());
        assert_eq!(
            flight_dump(&log.snapshot(), "why", None),
            "{\"reason\":\"why\",\"repro\":null,\"overwritten\":0,\"events\":[]}"
        );
    }

    #[test]
    fn ring_keeps_the_most_recent_events() {
        let events: Vec<EngineEvent> = (0..5)
            .map(|i| at(i, EngineEventKind::JobCompleted { job: JobId(i) }))
            .collect();
        let dump = render(&events, 3, "r", None);
        assert!(dump.contains("\"overwritten\":2,"));
        assert_eq!(dump.matches("\"kind\"").count(), 3);
        assert!(!dump.contains("job-1"), "the two oldest are left out");
        let oldest = dump.find("job-2").expect("oldest retained is the third");
        assert!(oldest < dump.find("job-4").expect("newest retained"));
        // Up to the tail, nothing is left out.
        assert!(render(&events, 5, "r", None).contains("\"overwritten\":0,"));
    }

    #[test]
    fn dump_embeds_repro_and_escapes() {
        let events = [at(42, EngineEventKind::FaultInjected { kind: "ki\"ll" })];
        let repro = "CHAOS_SEED=7 CHAOS_PLAN={\"seed\":7}";
        let dump = flight_dump(&events, "oracle-violation", Some(repro));
        assert!(dump.contains("\"reason\":\"oracle-violation\""));
        assert!(dump.contains("\"repro\":\"CHAOS_SEED=7 CHAOS_PLAN={\\\"seed\\\":7}\""));
        assert!(dump.contains("\"t_us\":42"));
        assert!(dump.contains("\"kind\":\"ki\\\"ll\""));
        assert_eq!(dump, flight_dump(&events, "oracle-violation", Some(repro)));
    }
}

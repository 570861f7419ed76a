//! The post-mortem dump under the chaos plane: a case that injects kills
//! into the executor-local store must leave a dump showing the injected
//! fault *and* the rollback it caused, the dump's bytes are pinned at one
//! and four workers, and the repro line embedded in it must replay —
//! deterministically — to the very same event stream.

use splitserve::ShuffleStoreKind;
use splitserve_chaos::workloads::ChaosPageRank;
use splitserve_chaos::{run_case, CaseResult, ChaosTopology, FaultPlan};
use splitserve_rt::hash::assert_pinned;

const REASON: &str = "kill-induced rollback";

/// Scans the deterministic plan space for the first seed whose
/// executor-local run both killed an executor and rolled a stage back —
/// the shape of case a post-mortem exists for — and returns it with its
/// repro line.
fn first_rollback_case(workers: usize) -> (FaultPlan, String, CaseResult) {
    let w = ChaosPageRank::small();
    let topo = ChaosTopology { workers };
    for seed in 0..64u64 {
        let plan = FaultPlan::generate(seed);
        let r = run_case(&w, ShuffleStoreKind::Local, Some(&plan), &topo);
        if r.kills > 0 && r.rollbacks > 0 && r.fingerprint.is_some() {
            let repro = format!("CHAOS_SEED={} CHAOS_PLAN={}", plan.seed, plan.to_json());
            return (plan, repro, r);
        }
    }
    panic!("no seed in 0..64 produced a kill-induced rollback");
}

#[test]
fn dump_contains_the_injected_fault_and_the_rollback() {
    let (plan, repro, r) = first_rollback_case(1);
    let dump = r.flight_dump(REASON, &repro);

    // The injected fault is in the dump…
    assert!(
        dump.contains("\"kind\":\"fault-injected\""),
        "dump must contain the injected fault: {dump}"
    );
    assert!(dump.contains("\"kind\":\"kill\""), "fault kind must be kill");
    // …alongside the executor loss and the rollback it caused…
    assert!(dump.contains("\"kind\":\"executor-lost\""));
    assert!(
        dump.contains("\"kind\":\"stage-rollback\""),
        "dump must contain the rollback transition"
    );
    // …the task transitions around them…
    assert!(dump.contains("\"kind\":\"task-started\""));
    assert!(dump.contains("\"kind\":\"task-finished\""));
    // …and the replay line.
    assert!(dump.contains(&format!("\"repro\":\"CHAOS_SEED={} ", plan.seed)));

    // Same bytes whether task bodies ran inline or on a worker pool.
    let pin = 0xe9fbf8f4e9f8cea0;
    assert_pinned("chaos flight dump (workers=1)", dump.as_bytes(), pin);
    let (_, repro4, r4) = first_rollback_case(4);
    assert_pinned(
        "chaos flight dump (workers=4)",
        r4.flight_dump(REASON, &repro4).as_bytes(),
        pin,
    );
}

#[test]
fn embedded_repro_line_replays_to_the_same_event_stream() {
    let (plan, repro, r) = first_rollback_case(1);
    let dump = r.flight_dump(REASON, &repro);

    // Parse the repro line back out of the dump the way a human would:
    // take the `repro` field, split off the plan JSON, rebuild the plan.
    let repro_field = dump
        .split("\"repro\":\"")
        .nth(1)
        .and_then(|s| s.split("\",\"overwritten\"").next())
        .expect("dump carries a repro field")
        .replace("\\\"", "\"");
    let plan_json = repro_field
        .split_once("CHAOS_PLAN=")
        .expect("repro line has a plan")
        .1;
    let replayed_plan = FaultPlan::from_json(plan_json).expect("plan JSON round-trips");
    assert_eq!(replayed_plan, plan);

    // Replaying the line reproduces the same run bit-for-bit: same output
    // fingerprint, same dump.
    let w = ChaosPageRank::small();
    let replay = run_case(
        &w,
        ShuffleStoreKind::Local,
        Some(&replayed_plan),
        &ChaosTopology::default(),
    );
    assert_eq!(replay.fingerprint, r.fingerprint);
    assert_eq!(replay.rollbacks, r.rollbacks);
    assert_eq!(
        replay.flight_dump(REASON, &repro),
        dump,
        "replay must reproduce the identical event stream"
    );
}

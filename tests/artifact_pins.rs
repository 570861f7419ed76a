//! The artifact pin table. Each of the five example artifacts is built
//! in-process, single-threaded, by the same `splitserve_suite` builder
//! its example calls, and must be (a) byte-identical across two runs and
//! (b) equal to its pinned xxhash64 digest — the one the example prints
//! as `digest=`. The paper-shape claims the artifacts exist to show are
//! asserted here too, once, on the typed outcomes rather than on
//! re-parsed JSON. That a worker count reaches no artifact byte is the
//! engine's own contract, held by its determinism tests
//! (`parallel_determinism.rs`, `tenant_isolation.rs`, `tenant_chaos.rs`).
//!
//! Updating a pin is a deliberate act: `assert_pinned` prints the new
//! digest and length; justify the byte change in review.

use std::cell::RefCell;
use std::rc::Rc;

use splitserve::tenancy::{
    coldstart_arms, default_fleet_jobs, default_tenant_specs, fleet_workload,
    recurrent_microtrace, run_tenant_fleet_with, FleetPolicy, SloClass, TenantFleetConfig,
};
use splitserve::{run_job, Scenario, ScenarioSpec};
use splitserve_cloud::PoolStats;
use splitserve_des::{Sim, SimDuration};
use splitserve_obs::TenantId;
use splitserve_rt::hash::assert_pinned;
use splitserve_workloads::PageRank;
use splitserve_suite::{
    chaos_smoke, coldstart_sweep, dashboard_policy_label, slo_dashboard, tenant_fleet,
    trace_timeline, DASHBOARD_QUANTILES, MICRO_GAP_SECS, MICRO_ROUNDS,
};

// Digests of the bytes each example writes.
const TENANT_FLEET: u64 = 0x8d89_667a_0715_385b;
const COLDSTART_SWEEP: u64 = 0xec08_39a9_91f0_ee1d;
const SLO_DASHBOARD: u64 = 0x4603_04c0_4d4e_696d;
const CHAOS_SMOKE: u64 = 0x26b7_f0f2_1a67_1813;
const TRACE_TIMELINE_JSON: u64 = 0x386f_6f26_da97_0a2e;
const TRACE_TIMELINE_PROM: u64 = 0x220d_2af8_8d81_19f0;

/// Both sides of the ledger are exact sums of the same charges; the old
/// check compared their 6-decimal prints and allowed one ulp of that grid.
const USD_EPS: f64 = 2e-6;

/// One artifact built twice.
fn two_runs<A>(build: impl Fn() -> A) -> [A; 2] {
    [build(), build()]
}

/// `render(run)` is the artifact's bytes.
#[track_caller]
fn assert_runs_pinned<A>(
    name: &str,
    [first, again]: &[A; 2],
    render: impl Fn(&A) -> String,
    pin: u64,
) {
    let bytes = render(first);
    assert!(bytes == render(again), "{name}: two runs differ");
    assert_pinned(name, bytes.as_bytes(), pin);
}

#[test]
fn tenant_fleet_is_pinned_settles_its_bills_and_splitserve_beats_vm_only() {
    let runs = two_runs(tenant_fleet);
    assert_runs_pinned("tenant_fleet", &runs, |f| f.json(), TENANT_FLEET);

    let fleet = &runs[0];
    assert!(fleet.tenants.len() >= 100, "fleet below tenant floor");
    assert!(fleet.jobs >= 10_000, "fleet below job floor");
    let policies: Vec<String> = fleet.results.iter().map(|(r, _)| r.policy.to_string()).collect();
    assert_eq!(policies, ["vm-only", "splitserve", "lambda-heavy"]);
    let settle_tenant = TenantId::new("fleet");
    for (r, fp) in &fleet.results {
        let policy = r.policy;
        assert_eq!(r.outcomes.len(), fleet.jobs, "{policy}: every policy runs every job");
        assert_eq!(
            r.admission.len(),
            3 * fleet.jobs,
            "{policy}: each job logs arrive/dispatch/complete"
        );
        assert!((0.0..=1.0).contains(&r.slo.fleet_attainment()));
        assert!(r.cost_usd > 0.0);
        assert_eq!(*fp, fleet.results[0].1, "{policy} computed different data");
        for class in SloClass::all() {
            let jobs = r.outcomes.iter().filter(|o| o.class == class).count();
            assert!(jobs > 0, "{policy}: empty class {}", class.as_str());
        }
        for t in &fleet.tenants {
            assert!(!r.slo.curve(&t.id).is_empty(), "{policy}: {} has no attainment curve", t.id);
            assert!(!r.bill.curve(&t.id).is_empty(), "{policy}: {} has no bill curve", t.id);
        }
        // Per-tenant accrual plus the final settlement lands on the
        // cloud bill.
        let accrued: f64 = fleet.tenants.iter().map(|t| r.bill.total(&t.id)).sum();
        let ledger = accrued + r.bill.total(&settle_tenant);
        assert!(
            (ledger - r.cost_usd).abs() <= USD_EPS,
            "{policy}: ledger {ledger} != bill {}",
            r.cost_usd
        );
    }
    let attainment = |i: usize| fleet.results[i].0.slo.fleet_attainment();
    assert!(
        attainment(1) > attainment(0),
        "splitserve ({}) must beat vm-only ({}) on fleet SLO attainment",
        attainment(1),
        attainment(0)
    );
}

/// One arm of the sweep's microtrace, as the artifact renders it.
fn microtrace(selector: &str) -> PoolStats {
    let spec = coldstart_arms()
        .into_iter()
        .find(|s| s.selector() == selector)
        .unwrap_or_else(|| panic!("arm {selector} missing"));
    recurrent_microtrace(&spec, MICRO_ROUNDS, MICRO_GAP_SECS)
}

/// The recurrent microtrace is the controlled experiment: a gap beyond
/// the fixed window, repeated until the histogram converges.
#[test]
fn microtrace_orderings_hold_at_example_scale() {
    let (forever, fixed) = (microtrace("forever"), microtrace("fixed:15"));
    let (pressure, hybrid) = (microtrace("pressure:6144"), microtrace("hybrid:15"));
    assert_eq!(forever.cold_starts, 1, "forever pool misses only round 0");
    assert_eq!(fixed.cold_starts, 30, "45s gap defeats the 15s window");
    // The hybrid policy must do no worse than its own fixed fallback —
    // and here strictly better, with prewarms doing the work.
    assert!(
        hybrid.cold_fraction() <= fixed.cold_fraction(),
        "hybrid {:.3} vs fixed {:.3}",
        hybrid.cold_fraction(),
        fixed.cold_fraction()
    );
    assert!(hybrid.cold_starts < fixed.cold_starts, "hybrid never converged");
    assert!(hybrid.prewarm_starts > 0, "the histogram must converge");
    // The infinite pool is the cold-start lower bound of the
    // non-prewarming arms; the capped pool trades cold starts for
    // bounded warm memory.
    assert!(
        forever.wasted_gb_seconds() >= pressure.wasted_gb_seconds(),
        "the cap must bound wasted warm memory below the infinite pool"
    );
}

#[test]
fn coldstart_sweep_is_pinned_and_hybrid_is_no_colder_than_fixed() {
    let runs = two_runs(|| coldstart_sweep(None));
    assert_runs_pinned("coldstart_sweep", &runs, |s| s.json(), COLDSTART_SWEEP);

    let arms = &runs[0].arms;
    let selectors: Vec<&str> = arms.iter().map(|a| a.selector.as_str()).collect();
    assert_eq!(selectors, ["forever", "fixed:15", "pressure:6144", "hybrid:15"]);
    for arm in arms {
        let p = &arm.outcome.pool;
        assert!(
            p.warm_starts + p.cold_starts + p.prewarm_starts > 0,
            "{}: the fleet never exercised the warm pool",
            arm.selector
        );
        assert!((0.0..=1.0).contains(&p.cold_fraction()));
        assert!(arm.outcome.cost_usd > 0.0);
    }
    // On the fleet itself the microtrace's ordering holds for this
    // recurrent-burst workload: policy choice reaches attainment-relevant
    // start latencies.
    let (fixed, hybrid) = (&arms[1].outcome.pool, &arms[3].outcome.pool);
    assert!(
        hybrid.cold_fraction() <= fixed.cold_fraction(),
        "hybrid {:.3} must not exceed fixed {:.3} cold fraction on the recurrent fleet",
        hybrid.cold_fraction(),
        fixed.cold_fraction()
    );
}

#[test]
fn slo_dashboard_is_pinned_settles_its_bill_and_splitserve_beats_the_vm_pool() {
    let runs = two_runs(slo_dashboard);
    assert_runs_pinned("slo_dashboard", &runs, |d| d.json(), SLO_DASHBOARD);

    let policies = &runs[0].policies;
    let names: Vec<&str> = policies
        .iter()
        .map(|(r, _)| dashboard_policy_label(r.policy))
        .collect();
    assert_eq!(names, ["vm-pool-only", "splitserve"]);
    let tenant = TenantId::default();
    for (r, _) in policies {
        let policy = r.policy;
        assert!(!r.outcomes.is_empty());
        assert!((0.0..=1.0).contains(&r.slo.fleet_attainment()));
        assert!(r.cost_usd > 0.0);
        assert!(!r.slo.curve(&tenant).is_empty(), "{policy}: no attainment curve");
        let quantile = |q: f64| {
            r.slo
                .latency_quantile(&tenant, q)
                .unwrap_or_else(|| panic!("{policy}: no latency quantile {q}"))
        };
        for (_, q) in DASHBOARD_QUANTILES {
            quantile(q);
        }
        assert!(quantile(0.5) <= quantile(0.99), "{policy}: quantiles out of order");
        let settled = r
            .bill
            .curve(&tenant)
            .last()
            .unwrap_or_else(|| panic!("{policy}: no bill curve"))
            .cumulative_usd;
        assert!(
            (settled - r.cost_usd).abs() <= USD_EPS,
            "{policy}: bill ledger ({settled}) must settle to the cloud bill ({})",
            r.cost_usd
        );
    }
    let [vm, ss] = [0, 1].map(|i| policies[i].0.slo.fleet_attainment());
    assert!(
        ss > vm,
        "splitserve ({ss}) must beat vm-pool-only ({vm}) on SLO attainment in the burst scenario"
    );
}

#[test]
fn chaos_smoke_is_pinned_and_every_case_completes() {
    let runs = two_runs(chaos_smoke);
    assert_runs_pinned("chaos_smoke", &runs, |c| c.digest_input(), CHAOS_SMOKE);
    assert_eq!((runs[0].completed, runs[0].lines.len()), (64, 64));
    assert!(runs[0].text().ends_with(&format!("digest={CHAOS_SMOKE:016x}\n")));
}

#[test]
fn trace_timeline_is_pinned_and_shows_both_substrates_and_the_segue_drain() {
    let runs = two_runs(trace_timeline);
    assert_runs_pinned(
        "trace_timeline.json",
        &runs,
        |t| t.obs.spans.to_chrome_trace(),
        TRACE_TIMELINE_JSON,
    );
    assert_runs_pinned(
        "trace_timeline.prom",
        &runs,
        |t| t.obs.metrics.render_prometheus(),
        TRACE_TIMELINE_PROM,
    );

    let spans = runs[0].obs.spans.finished_spans();
    let count = |lane: &str, prefix: &str| {
        spans
            .iter()
            .filter(|s| s.lane == lane && s.name.starts_with(prefix))
            .count()
    };
    assert!(count("vm", "task ") > 0, "trace must show VM-lane task spans");
    assert!(count("lambda", "task ") > 0, "trace must show Lambda-lane task spans");
    assert!(count("segue", "segue drain") > 0, "trace must show a segue-drain span");
    assert_eq!(runs[0].obs.spans.nesting_violation(), None, "spans nest cleanly");

    // The example's write path creates the directory it is pointed at.
    let dir = format!("{}/trace-timeline/not/yet", env!("CARGO_TARGET_TMPDIR"));
    let _ = std::fs::remove_dir_all(&dir);
    let [json, prom] = runs[0].write(&dir).expect("a new directory is created");
    assert!(json.ends_with(&format!("digest={TRACE_TIMELINE_JSON:016x}")), "{json}");
    assert!(prom.ends_with(&format!("digest={TRACE_TIMELINE_PROM:016x}")), "{prom}");
    let written = std::fs::read_to_string(format!("{dir}/trace_timeline.prom"));
    assert_eq!(written.expect("file exists"), runs[0].obs.metrics.render_prometheus());
}

// ----- event budgets -------------------------------------------------------
//
// Cancel-and-re-schedule churn moves no virtual result, so no digest above
// can see it. These two pins can: `executed` is the run's exact event count
// (recorded on the commit before the fabric went to one completion timer),
// and `scheduled` — every sequence number the run drew, cancelled events
// included — may exceed it only by the stated factor.

/// `(scheduled, executed)` of a run whose `Sim` the test does not own,
/// sampled once per virtual second by an event armed from the driver's
/// setup hook; the sampler's own events are subtracted. Its last firing
/// is the run's last event, so the counts are final.
#[derive(Default)]
struct EventCount {
    fires: u64,
    scheduled: u64,
    executed: u64,
}

impl EventCount {
    fn arm(sim: &mut Sim, count: Rc<RefCell<EventCount>>) {
        sim.schedule_in(SimDuration::from_secs(1), move |sim| {
            {
                let mut c = count.borrow_mut();
                c.fires += 1;
                c.scheduled = sim.scheduled_events();
                c.executed = sim.executed_events();
            }
            if sim.pending_events() > 0 {
                EventCount::arm(sim, count);
            }
        });
    }

    fn totals(&self) -> (u64, u64) {
        (self.scheduled - self.fires, self.executed - self.fires)
    }
}

#[track_caller]
fn assert_event_budget(name: &str, (scheduled, executed): (u64, u64), pin: u64, factor: f64) {
    assert_eq!(executed, pin, "{name}: executed events moved (scheduled {scheduled})");
    assert!(
        scheduled as f64 <= factor * executed as f64,
        "{name}: scheduled {scheduled} events to execute {executed}, over {factor}x"
    );
}

/// The reduced fleet of `crates/core/tests/hot_loop_pins.rs`, all three
/// policies: almost nothing is ever cancelled.
#[test]
fn reduced_fleet_stays_inside_its_event_budget() {
    const EXECUTED: u64 = 4_737;
    let tenants = default_tenant_specs(5);
    let jobs = default_fleet_jobs(&tenants, 11, 45, 120.0);
    let mut total = (0, 0);
    for policy in FleetPolicy::all() {
        let cfg = TenantFleetConfig::for_policy(policy, tenants.clone(), 8);
        let count = Rc::new(RefCell::new(EventCount::default()));
        let (wl, _sink) = fleet_workload(8);
        let armed = Rc::clone(&count);
        run_tenant_fleet_with(&cfg, &jobs, wl, |s| s, |sim, _| EventCount::arm(sim, armed));
        let (scheduled, executed) = count.borrow().totals();
        total = (total.0 + scheduled, total.1 + executed);
    }
    assert_event_budget("reduced fleet", total, EXECUTED, 1.05);
}

/// `Spark R VM` at the `scenario_claims` scale: executor-local disk, whose
/// zero-latency gets open a task's whole fetch window in one instant — the
/// most flow overlap, so the most timer re-arms per transfer.
#[test]
fn local_disk_scenario_stays_inside_its_event_budget() {
    const EXECUTED: u64 = 4_128;
    let spec = ScenarioSpec {
        required_cores: 16,
        available_cores: 4,
        seed: 3,
        ..ScenarioSpec::default()
    };
    let scenario = Scenario::SparkRVm;
    let count = Rc::new(RefCell::new(EventCount::default()));
    let armed = Rc::clone(&count);
    let setup = scenario.setup(&spec);
    run_job(
        &spec,
        scenario.store_kind(),
        |sim, d| {
            setup(sim, d);
            EventCount::arm(sim, armed);
        },
        &PageRank::new(30_000, 3, 16, 3).with_contrib_cost(2.0e-4),
    );
    let totals = count.borrow().totals();
    assert_event_budget("Spark R VM", totals, EXECUTED, 2.5);
}

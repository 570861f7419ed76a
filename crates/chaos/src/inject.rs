//! The injector: arms a [`FaultPlan`]'s executor-side events against a
//! live [`Deployment`].
//!
//! Kills go through [`Engine::kill_executor`] (the same path a Lambda
//! lifetime expiry takes), drains through the deployment's segue path,
//! stragglers through the engine's per-executor speed factor, and capacity
//! events through the launching facility. Storage-side events (fetch/write
//! failures, latency windows) are armed separately on a
//! [`splitserve_storage::StoreFaults`] *before* the deployment is built —
//! see [`FaultPlan::arm_store_faults`].
//!
//! Every performed fault is emitted onto the engine's event stream as
//! `FaultInjected { kind }`, so the `faults_injected_total{kind}` series
//! distinguishes injected trouble from organic trouble and a post-mortem
//! dump shows it inline with the task transitions it caused.
//!
//! [`Engine::kill_executor`]: splitserve_engine::Engine::kill_executor

use std::cell::RefCell;
use std::rc::Rc;

use splitserve::Deployment;
use splitserve_cloud::M4_4XLARGE;
use splitserve_des::{EventHandler, Sim, SimDuration, SimTime};
use splitserve_engine::{EngineEventKind, ExecutorId};

use crate::plan::{FaultEvent, FaultPlan};

#[derive(Debug, Default)]
struct ReportState {
    kills: u64,
    drains: u64,
    straggles: u64,
    capacity_adds: u64,
    expected_rollback: bool,
}

/// A live tally of what the injector actually performed (an event can be a
/// no-op when its target is already dead), shared with the injector's
/// events. Cloneable handle; clones share state.
#[derive(Debug, Clone, Default)]
pub struct InjectionReport {
    inner: Rc<RefCell<ReportState>>,
}

impl InjectionReport {
    /// Executors abruptly killed.
    pub fn kills(&self) -> u64 {
        self.inner.borrow().kills
    }

    /// Executors put into graceful drain.
    pub fn drains(&self) -> u64 {
        self.inner.borrow().drains
    }

    /// Capacity events performed (Lambda waves, VM rescues).
    pub fn capacity_adds(&self) -> u64 {
        self.inner.borrow().capacity_adds
    }

    /// Whether any kill struck an executor that, at kill time, held live
    /// shuffle blocks of a completed stage in a store that does not
    /// survive executor loss — i.e. whether the differential oracle should
    /// expect a rollback cascade. Always `false` under shared stores.
    pub fn expected_rollback(&self) -> bool {
        self.inner.borrow().expected_rollback
    }
}

/// Resolves a plan's Lambda index against the executors actually launched
/// (sorted ids = launch order), wrapping modulo the list length so every
/// index is valid against any topology.
fn nth_lambda(d: &Deployment, n: u32) -> Option<ExecutorId> {
    let ids = d.lambda_executors();
    if ids.is_empty() {
        return None;
    }
    Some(ids[n as usize % ids.len()])
}

fn injected(sim: &Sim, d: &Deployment, kind: &'static str) {
    d.engine()
        .emit(sim.now(), EngineEventKind::FaultInjected { kind });
}

fn kill_one(sim: &mut Sim, d: &Deployment, report: &InjectionReport, id: &ExecutorId) {
    let Some(info) = d.engine().executor_info(id) else {
        return;
    };
    if !info.alive {
        return;
    }
    if d.engine().would_rollback_on_loss(id) {
        report.inner.borrow_mut().expected_rollback = true;
    }
    injected(sim, d, "kill");
    report.inner.borrow_mut().kills += 1;
    d.engine().kill_executor(sim, id);
}

/// Token bit of a straggle's end, under the event's index in the plan.
const STRAGGLE_END: u64 = 1;

/// The armed plan: one handler for all its events.
struct Injector {
    d: Deployment,
    report: InjectionReport,
    events: Vec<FaultEvent>,
    /// The executor each straggle slowed, by event index, until its end.
    straggling: RefCell<Vec<Option<ExecutorId>>>,
}

impl EventHandler for Injector {
    fn on_event(self: Rc<Self>, sim: &mut Sim, token: u64) {
        let index = (token >> 1) as usize;
        if token & STRAGGLE_END != 0 {
            if let Some(id) = self.straggling.borrow_mut()[index].take() {
                self.d.engine().set_executor_speed_factor(&id, 1.0);
            }
            return;
        }
        let (d, r) = (&self.d, &self.report);
        match self.events[index] {
            FaultEvent::Kill { lambda, .. } => {
                if let Some(id) = nth_lambda(d, lambda) {
                    kill_one(sim, d, r, &id);
                }
            }
            FaultEvent::BurstKill { min_age_us, .. } => {
                let min_age = SimDuration::from_micros(min_age_us);
                for id in d.lambda_executors() {
                    let Some(info) = d.engine().executor_info(&id) else {
                        continue;
                    };
                    if info.alive && sim.now().saturating_since(info.registered_at) >= min_age {
                        kill_one(sim, d, r, &id);
                    }
                }
            }
            FaultEvent::Drain { lambda, .. } => {
                let Some(id) = nth_lambda(d, lambda) else {
                    return;
                };
                // Mirror the drain path's own liveness check so the tally
                // only counts drains that actually started.
                match d.engine().executor_info(&id) {
                    Some(info) if info.alive && !info.draining => {}
                    _ => return,
                }
                injected(sim, d, "drain");
                r.inner.borrow_mut().drains += 1;
                d.drain_lambda_executor(sim, &id);
            }
            FaultEvent::Straggle {
                lambda,
                slowdown_pct,
                for_us,
                ..
            } => {
                let Some(id) = nth_lambda(d, lambda) else {
                    return;
                };
                match d.engine().executor_info(&id) {
                    Some(info) if info.alive => {}
                    _ => return,
                }
                injected(sim, d, "straggle");
                r.inner.borrow_mut().straggles += 1;
                // Tasks launched during the window run slower; the factor
                // is sampled at launch, so an in-flight task keeps its
                // original duration.
                let pct = slowdown_pct.max(1);
                d.engine()
                    .set_executor_speed_factor(&id, 100.0 / f64::from(pct));
                self.straggling.borrow_mut()[index] = Some(id);
                let end = sim.now() + SimDuration::from_micros(for_us);
                sim.notify_at(end, self.clone(), token | STRAGGLE_END);
            }
            FaultEvent::AddLambdas { count, .. } => {
                r.inner.borrow_mut().capacity_adds += 1;
                d.add_lambda_executors(sim, count);
            }
            FaultEvent::AddVmCores { cores, .. } => {
                r.inner.borrow_mut().capacity_adds += 1;
                d.add_vm_cores(sim, &M4_4XLARGE, cores);
            }
            // Storage-side events live in the store decorator.
            FaultEvent::FetchFail { .. }
            | FaultEvent::WriteFail { .. }
            | FaultEvent::Latency { .. } => {}
        }
    }
}

/// Arms every executor-side event of `plan` against `deployment` (at its
/// `at_us`, or now if that has passed), returning the shared report the
/// events will fill in as the simulation runs. Call before `sim.run()`;
/// storage-side events must already be armed on the store (see
/// [`FaultPlan::arm_store_faults`]).
pub fn arm(sim: &mut Sim, deployment: &Deployment, plan: &FaultPlan) -> InjectionReport {
    let report = InjectionReport::default();
    let injector = Rc::new(Injector {
        d: deployment.clone(),
        report: report.clone(),
        events: plan.events.clone(),
        straggling: RefCell::new(vec![None; plan.events.len()]),
    });
    for (index, ev) in plan.events.iter().enumerate() {
        let at_us = match *ev {
            FaultEvent::Kill { at_us, .. }
            | FaultEvent::BurstKill { at_us, .. }
            | FaultEvent::Drain { at_us, .. }
            | FaultEvent::Straggle { at_us, .. }
            | FaultEvent::AddLambdas { at_us, .. }
            | FaultEvent::AddVmCores { at_us, .. } => at_us,
            // Storage-side events live in the store decorator.
            _ => continue,
        };
        let at = SimTime::from_micros(at_us).max(sim.now());
        sim.notify_at(at, injector.clone(), (index as u64) << 1);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use splitserve::ShuffleStoreKind;
    use splitserve_cloud::{CloudSpec, M4_XLARGE};
    use splitserve_des::Dist;

    impl InjectionReport {
        /// Straggle windows applied.
        fn straggles(&self) -> u64 {
            self.inner.borrow().straggles
        }
    }

    fn quiet_cloud() -> CloudSpec {
        CloudSpec {
            vm_boot: Dist::constant(110.0),
            lambda_warm_start: Dist::constant(0.1),
            lambda_cold_start: Dist::constant(3.0),
            lambda_net_jitter: Dist::constant(1.0),
            ..CloudSpec::default()
        }
    }

    #[test]
    fn kill_event_kills_the_resolved_lambda() {
        let mut sim = Sim::new(1);
        let d = Deployment::new(&mut sim, quiet_cloud(), ShuffleStoreKind::Hdfs, M4_XLARGE);
        d.add_lambda_executors(&mut sim, 3);
        let plan = FaultPlan {
            seed: 0,
            events: vec![FaultEvent::Kill {
                at_us: 2_000_000,
                lambda: 4, // wraps to index 1 of 3
            }],
        };
        let report = arm(&mut sim, &d, &plan);
        sim.run();
        assert_eq!(report.kills(), 1);
        let victim = &d.lambda_executors()[1];
        assert!(!d.engine().executor_info(victim).unwrap().alive);
        // Nothing was running, so no rollback was predicted.
        assert!(!report.expected_rollback());
        assert_eq!(
            d.engine()
                .obs()
                .metrics
                .counter_value("faults_injected_total", &[("kind", "kill")]),
            0,
            "obs disabled by default: counter stays silent"
        );
    }

    #[test]
    fn events_against_an_empty_deployment_are_noops() {
        let mut sim = Sim::new(1);
        let d = Deployment::new(&mut sim, quiet_cloud(), ShuffleStoreKind::Hdfs, M4_XLARGE);
        let plan = FaultPlan {
            seed: 0,
            events: vec![
                FaultEvent::Kill { at_us: 1_000_000, lambda: 0 },
                FaultEvent::Drain { at_us: 1_000_000, lambda: 0 },
                FaultEvent::Straggle {
                    at_us: 1_000_000,
                    lambda: 0,
                    slowdown_pct: 400,
                    for_us: 1_000_000,
                },
                FaultEvent::BurstKill { at_us: 1_000_000, min_age_us: 0 },
            ],
        };
        let report = arm(&mut sim, &d, &plan);
        sim.run();
        assert_eq!(report.kills() + report.drains() + report.straggles(), 0);
    }

    #[test]
    fn burst_kill_respects_min_age() {
        let mut sim = Sim::new(1);
        let d = Deployment::new(&mut sim, quiet_cloud(), ShuffleStoreKind::Hdfs, M4_XLARGE);
        d.add_lambda_executors(&mut sim, 2);
        // Two more arrive at t=8s; the burst at 10s reaps only executors
        // older than 5s, i.e. the original pair.
        let d2 = d.clone();
        sim.schedule_at(SimTime::from_secs(8), move |sim| {
            d2.add_lambda_executors(sim, 2);
        });
        let plan = FaultPlan {
            seed: 0,
            events: vec![FaultEvent::BurstKill {
                at_us: 10_000_000,
                min_age_us: 5_000_000,
            }],
        };
        let report = arm(&mut sim, &d, &plan);
        // Stop before the platform's own lifetime kills reap the rest.
        sim.run_until(SimTime::from_secs(30));
        assert_eq!(report.kills(), 2);
        let alive = d
            .lambda_executors()
            .iter()
            .filter(|id| d.engine().executor_info(id).is_some_and(|i| i.alive))
            .count();
        assert_eq!(alive, 2);
    }

    #[test]
    fn capacity_events_provision_executors() {
        let mut sim = Sim::new(1);
        let d = Deployment::new(&mut sim, quiet_cloud(), ShuffleStoreKind::Hdfs, M4_XLARGE);
        let plan = FaultPlan::replacement_waves(2, 1, 3).with_vm_rescue(3, 20);
        let report = arm(&mut sim, &d, &plan);
        // Stop before the platform's own lifetime kills reap the Lambdas.
        sim.run_until(SimTime::from_secs(30));
        assert_eq!(report.capacity_adds(), 3);
        // 2 waves × 3 Lambdas + 20 VM cores (chunked 16 + 4 across VMs).
        assert_eq!(d.engine().active_executors(), 26);
    }
}

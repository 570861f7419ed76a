//! The **segueing facility** (paper §4.2–4.3): move ongoing work from
//! Lambda-based executors to VM-based ones without triggering Spark's
//! execution rollback.
//!
//! Two pieces cooperate:
//!
//! 1. *Background replacement* — when a job's expected duration exceeds the
//!    nominal VM boot delay, SplitServe launches VMs in the background to
//!    match the cores the launching facility obtained from Lambdas (or
//!    waits for executors to free up on existing VMs).
//! 2. *Graceful drain* — once replacements register, Lambda executors that
//!    have run longer than `spark.lambda.executor.timeout` stop receiving
//!    tasks, finish their current one, and are decommissioned. Their
//!    shuffle output lives on the shared HDFS layer, so nothing is lost
//!    and no recomputation cascade starts.

use splitserve_cloud::InstanceType;
use splitserve_des::{Sim, SimDuration, SimTime};
use splitserve_engine::EngineEventKind;

use crate::deploy::{Deployment, Timer};

/// Where the replacement VM cores come from.
#[derive(Debug, Clone)]
pub enum ReplacementSource {
    /// Request fresh VMs now; they arrive after the boot delay.
    NewVms {
        /// Instance type to request.
        itype: InstanceType,
        /// Cores to provision across the new VMs.
        cores: u32,
    },
    /// Executors free up on an *existing* VM at a known time (the Fig. 7
    /// timeline example: "a core on an existing VM became available at
    /// 45 s").
    ExistingVmCores {
        /// Cores that become available.
        cores: u32,
        /// When they free up, relative to now.
        available_in: SimDuration,
    },
}

/// Segue policy knobs.
#[derive(Debug, Clone)]
pub struct SegueConfig {
    /// `spark.lambda.executor.timeout`: the minimum age before a Lambda
    /// executor is drained. The paper's configurable threshold guarding
    /// against GC slowdown and budget overrun.
    pub lambda_timeout: SimDuration,
    /// Where replacement cores come from.
    pub replacement: ReplacementSource,
}

impl SegueConfig {
    /// Replacement from cores freeing on an existing VM.
    pub fn existing_cores(cores: u32, available_in: SimDuration) -> Self {
        SegueConfig {
            lambda_timeout: SimDuration::from_secs(60),
            replacement: ReplacementSource::ExistingVmCores { cores, available_in },
        }
    }

    /// Overrides the Lambda executor timeout.
    pub fn with_lambda_timeout(mut self, t: SimDuration) -> Self {
        self.lambda_timeout = t;
        self
    }
}

/// Arms the segueing facility on a deployment: provisions the replacement
/// cores per `cfg.replacement`, and when they register, schedules the
/// graceful drain of every Lambda executor at
/// `max(now, its registration time + lambda_timeout)`.
pub fn arm_segue(sim: &mut Sim, deployment: &Deployment, cfg: SegueConfig) {
    let timeout = cfg.lambda_timeout;
    match cfg.replacement {
        ReplacementSource::NewVms { itype, cores } => {
            deployment.request_vm_workers(sim, &itype, cores, Some(timeout));
        }
        ReplacementSource::ExistingVmCores { cores, available_in } => {
            let at = sim.now() + available_in;
            deployment.arm_timer(sim, at, Timer::SegueCores { cores, timeout });
        }
    }
}

/// Replacement cores are in place: drain each Lambda executor once it has
/// exceeded the timeout (immediately, if it already has).
pub(crate) fn commence_drain(sim: &mut Sim, deployment: &Deployment, timeout: SimDuration) {
    deployment
        .engine()
        .emit(sim.now(), EngineEventKind::Marker("segue commences"));
    for exec in deployment.lambda_executors() {
        let Some(info) = deployment.engine().executor_info(&exec) else {
            continue;
        };
        if !info.alive && !info.busy {
            continue;
        }
        let drain_at: SimTime = info.registered_at + timeout;
        if drain_at <= sim.now() {
            deployment.drain_lambda_executor(sim, &exec);
        } else {
            deployment.arm_timer(sim, drain_at, Timer::Drain(exec));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deploy::ShuffleStoreKind;
    use splitserve_cloud::{CloudSpec, M4_4XLARGE, M4_XLARGE};
    use splitserve_des::Dist;
    use splitserve_engine::{collect_partitions, Dataset, ExecutorKind};
    use std::cell::RefCell;
    use std::rc::Rc;

    impl SegueConfig {
        /// Replacement from a fresh VM with the default 60 s Lambda timeout.
        fn new_vms(itype: InstanceType, cores: u32) -> Self {
            SegueConfig {
                lambda_timeout: SimDuration::from_secs(60),
                replacement: ReplacementSource::NewVms { itype, cores },
            }
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

    /// A deliberately long job (~minutes of virtual time) so segue has
    /// room to happen mid-flight.
    fn long_job() -> Dataset<(u64, f64)> {
        Dataset::<u64>::generate(64, |p| (0..20_000u64).map(|i| i + p as u64).collect())
            .map_with_cost(|x| (*x % 16, 1.0f64), Some(8e-4))
            .reduce_by_key(16, |a, b| a + b)
    }

    #[test]
    fn segue_moves_work_from_lambdas_to_vms_without_recompute() {
        let mut sim = Sim::new(11);
        let d = Deployment::new(&mut sim, quiet_cloud(), ShuffleStoreKind::Hdfs, M4_XLARGE);
        let (_vm, _) = d.add_vm_workers(&mut sim, M4_4XLARGE, 3);
        d.add_lambda_executors(&mut sim, 13);
        arm_segue(
            &mut sim,
            &d,
            SegueConfig::existing_cores(13, SimDuration::from_secs(45))
                .with_lambda_timeout(SimDuration::from_secs(30)),
        );
        let out = Rc::new(RefCell::new(None));
        let o = Rc::clone(&out);
        d.engine().submit_job(&mut sim, long_job().node(), move |sim, r| {
            *o.borrow_mut() = Some((sim.now().as_secs_f64(), r));
        });
        sim.run();
        let (done_at, r) = out.borrow_mut().take().expect("job completes");
        assert!(done_at > 45.0, "job long enough to straddle the segue");
        // Both kinds did work, nothing was recomputed, and all lambdas are
        // gone by the end.
        assert!(r.metrics.tasks_on_vm > 0);
        assert!(r.metrics.tasks_on_lambda > 0);
        assert_eq!(r.metrics.tasks_recomputed, 0, "graceful segue: no rollback");
        let lambdas_alive = d
            .engine()
            .executors()
            .iter()
            .filter(|e| e.kind == ExecutorKind::Lambda && e.alive)
            .count();
        assert_eq!(lambdas_alive, 0, "all lambdas decommissioned");
        let correct = collect_partitions::<(u64, f64)>(r.partitions);
        assert_eq!(correct.len(), 16);
        assert!(correct.iter().all(|(_, v)| (*v - 80_000.0).abs() < 1e-9));
    }

    #[test]
    fn segue_with_new_vm_waits_for_boot() {
        let mut sim = Sim::new(3);
        let d = Deployment::new(&mut sim, quiet_cloud(), ShuffleStoreKind::Hdfs, M4_XLARGE);
        d.add_lambda_executors(&mut sim, 4);
        arm_segue(
            &mut sim,
            &d,
            SegueConfig::new_vms(M4_XLARGE, 4).with_lambda_timeout(SimDuration::from_secs(10)),
        );
        let out = Rc::new(RefCell::new(None));
        let o = Rc::clone(&out);
        d.engine().submit_job(&mut sim, long_job().node(), move |sim, r| {
            *o.borrow_mut() = Some((sim.now().as_secs_f64(), r.metrics.clone()));
        });
        sim.run();
        let (done_at, m) = out.borrow_mut().take().expect("completes");
        // VM boots at 110 s; the drain marker must not precede it.
        let events = d.engine().event_log().snapshot();
        let marker_at = events
            .iter()
            .find(|e| matches!(&e.kind, EngineEventKind::Marker("segue commences")))
            .expect("segue marker present")
            .at;
        assert!(marker_at.as_secs_f64() >= 110.0);
        assert!(done_at > 110.0);
        assert_eq!(m.tasks_recomputed, 0);
    }

    #[test]
    fn timeout_respected_for_young_lambdas() {
        // Replacement arrives at t=1 s but the timeout is 50 s: lambdas
        // keep taking tasks until they age out.
        let mut sim = Sim::new(5);
        let d = Deployment::new(&mut sim, quiet_cloud(), ShuffleStoreKind::Hdfs, M4_XLARGE);
        d.add_lambda_executors(&mut sim, 2);
        arm_segue(
            &mut sim,
            &d,
            SegueConfig::existing_cores(2, SimDuration::from_secs(1))
                .with_lambda_timeout(SimDuration::from_secs(50)),
        );
        let out = Rc::new(RefCell::new(None));
        let o = Rc::clone(&out);
        d.engine().submit_job(&mut sim, long_job().node(), move |sim, r| {
            *o.borrow_mut() = Some((sim.now().as_secs_f64(), r.metrics.clone()));
        });
        sim.run();
        let events = d.engine().event_log().snapshot();
        let drain_at = events
            .iter()
            .find(|e| matches!(e.kind, EngineEventKind::ExecutorDraining { .. }))
            .expect("drain happened")
            .at;
        assert!(
            drain_at.as_secs_f64() >= 50.0,
            "drained too early: {drain_at}"
        );
    }
}

//! A dynamic-allocation controller: the closed-loop version of the
//! launching facility.
//!
//! Spark's `ExecutorAllocationManager` grows and shrinks the executor set
//! with the task backlog (paper §3: "dynamic allocation … lets an
//! application start with a predefined minimum number of executors, which
//! can grow … as and when the resources become available; if an executor
//! is idle for some time, it is killed"). SplitServe's twist is *what* it
//! grows with: the controller here bridges backlog with Lambdas
//! immediately, and retires them once idle past `idle_timeout` — billing
//! stops and the container goes back to the warm pool.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use splitserve_des::{EventHandler, Sim, SimDuration};
use splitserve_engine::{ExecutorInfo, ExecutorKind};

use crate::deploy::Deployment;

/// Controller knobs.
///
/// Note the saturation fixed point implied by the scale-out rule: the
/// loop launches `ceil(pending / tasks_per_executor) - live_total`
/// Lambdas, so under sustained backlog the live executor count converges
/// to `admitted_width / (1 + tasks_per_executor)` of the offered load —
/// with `tasks_per_executor = 1`, half the admitted slot width. A
/// provisioning policy that wants Lambdas to actually launch must admit
/// more than `(1 + tasks_per_executor) ×` the resident pool (see
/// `TenantFleetConfig::for_policy`).
#[derive(Debug, Clone)]
pub struct AllocatorConfig {
    /// Hard cap on concurrently live Lambda executors.
    pub max_lambdas: u32,
    /// How often the control loop runs.
    pub check_interval: SimDuration,
    /// Idle Lambdas older than this are drained (Spark's
    /// `spark.dynamicAllocation.executorIdleTimeout`).
    pub idle_timeout: SimDuration,
    /// Backlog-to-executor ratio: one new Lambda per this many pending
    /// tasks beyond current capacity.
    pub tasks_per_executor: u32,
}

impl Default for AllocatorConfig {
    fn default() -> Self {
        AllocatorConfig {
            max_lambdas: 64,
            check_interval: SimDuration::from_millis(500),
            idle_timeout: SimDuration::from_secs(5),
            tasks_per_executor: 2,
        }
    }
}

/// Handle to a running allocation controller.
#[derive(Debug, Clone)]
pub struct AllocatorHandle {
    active: Rc<Cell<bool>>,
    launched: Rc<Cell<u32>>,
}

impl AllocatorHandle {
    /// Stops the control loop at its next tick.
    pub fn stop(&self) {
        self.active.set(false);
    }

    /// Total Lambda executors this controller has launched.
    pub fn lambdas_launched(&self) -> u32 {
        self.launched.get()
    }
}

/// Starts the control loop on `deployment`. The loop runs until
/// [`AllocatorHandle::stop`] or the deployment's shutdown, whichever comes
/// first — schedule jobs before or after; the controller reacts to
/// whatever backlog appears.
pub fn start_allocator(
    sim: &mut Sim,
    deployment: &Deployment,
    cfg: AllocatorConfig,
) -> AllocatorHandle {
    let handle = AllocatorHandle {
        active: Rc::new(Cell::new(true)),
        launched: Rc::new(Cell::new(0)),
    };
    let control = ControlLoop {
        d: deployment.clone(),
        cfg,
        handle: handle.clone(),
        execs: RefCell::new(Vec::new()),
    };
    tick(sim, Rc::new(control));
    handle
}

/// A running controller: one handler, re-armed every `check_interval`
/// with [`Sim::notify_in`], so a tick allocates nothing.
struct ControlLoop {
    d: Deployment,
    cfg: AllocatorConfig,
    handle: AllocatorHandle,
    /// The executor snapshot, kept from one tick to the next so that
    /// taking it allocates nothing.
    execs: RefCell<Vec<ExecutorInfo>>,
}

/// The next tick is due (the token is unused).
impl EventHandler for ControlLoop {
    fn on_event(self: Rc<Self>, sim: &mut Sim, _token: u64) {
        tick(sim, self);
    }
}

/// One pass of the control loop.
fn tick(sim: &mut Sim, control: Rc<ControlLoop>) {
    let ControlLoop { d, cfg, handle, execs } = &*control;
    if !handle.active.get() || d.is_shut_down() {
        return;
    }
    let engine = d.engine().clone();
    let obs = engine.obs().clone();
    let pending = engine.pending_tasks();
    let mut execs = execs.borrow_mut();
    engine.executors_into(&mut execs);
    let live = |e: &&ExecutorInfo| e.alive && !e.draining;
    let live_lambdas = || {
        execs
            .iter()
            .filter(live)
            .filter(|e| e.kind == ExecutorKind::Lambda)
    };
    let live_total = execs.iter().filter(live).count() as u32;
    let lambdas = live_lambdas().count() as u32;
    obs.metrics
        .gauge_set("allocator_pending_tasks", &[], pending as f64);
    obs.metrics
        .gauge_set("allocator_live_executors", &[], f64::from(live_total));
    obs.metrics
        .gauge_set("allocator_live_lambdas", &[], f64::from(lambdas));

    if pending > 0 {
        // Scale out: one Lambda per `tasks_per_executor` of backlog beyond
        // what the live executors will absorb.
        let want = (pending as u32).div_ceil(cfg.tasks_per_executor);
        let deficit = want.saturating_sub(live_total);
        let room = cfg.max_lambdas.saturating_sub(lambdas);
        let add = deficit.min(room);
        if add > 0 {
            d.add_lambda_executors(sim, add);
            handle.launched.set(handle.launched.get() + add);
            obs.metrics
                .counter_handle("allocator_scale_out_lambdas_total", &[])
                .add(u64::from(add));
        }
    } else {
        // Scale in: retire Lambdas idle past the timeout.
        let now = sim.now();
        for e in live_lambdas() {
            if !e.busy && now.saturating_since(e.idle_since) >= cfg.idle_timeout {
                d.drain_lambda_executor(sim, &e.id);
                obs.metrics
                    .counter_handle("allocator_scale_in_lambdas_total", &[])
                    .inc();
            }
        }
    }

    let interval = cfg.check_interval;
    drop(execs);
    sim.notify_in(interval, control, 0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deploy::ShuffleStoreKind;
    use splitserve_cloud::{CloudSpec, M4_XLARGE};
    use splitserve_des::Dist;
    use splitserve_engine::Dataset;

    fn quiet_cloud() -> CloudSpec {
        CloudSpec {
            lambda_warm_start: Dist::constant(0.1),
            lambda_net_jitter: Dist::constant(1.0),
            ..CloudSpec::default()
        }
    }

    fn burst_job(width: usize) -> Dataset<(u64, u64)> {
        Dataset::<u64>::generate(width, |p| (0..2_000u64).map(|i| i + p as u64).collect())
            .map_with_cost(|x| (*x % 4, 1u64), Some(5e-4))
            .reduce_by_key(4, |a, b| a + b)
    }

    #[test]
    fn allocator_scales_out_for_backlog_and_back_in_when_idle() {
        let mut sim = Sim::new(21);
        let d = Deployment::new(&mut sim, quiet_cloud(), ShuffleStoreKind::Hdfs, M4_XLARGE);
        let handle = start_allocator(
            &mut sim,
            &d,
            AllocatorConfig {
                max_lambdas: 8,
                idle_timeout: SimDuration::from_secs(3),
                ..AllocatorConfig::default()
            },
        );
        let done_at = Rc::new(RefCell::new(None));
        let da = Rc::clone(&done_at);
        d.engine()
            .submit_job(&mut sim, burst_job(16).node(), move |sim, _| {
                *da.borrow_mut() = Some(sim.now().as_secs_f64());
            });
        // Run well past job completion + idle timeout.
        sim.run_until(splitserve_des::SimTime::from_secs(120));
        handle.stop();
        sim.run();

        assert!(done_at.borrow().is_some(), "job completed");
        assert!(
            handle.lambdas_launched() >= 4,
            "backlog must have triggered scale-out: {}",
            handle.lambdas_launched()
        );
        // After the idle timeout every Lambda is drained and released.
        let live = d
            .engine()
            .executors()
            .iter()
            .filter(|e| e.alive)
            .count();
        assert_eq!(live, 0, "idle lambdas must be retired");
        // And billing stopped at release: cost stays bounded even though
        // the sim ran to 120 s.
        let lambda_cost = d
            .cloud()
            .cost_for(splitserve_cloud::Category::LambdaCompute);
        assert!(lambda_cost > 0.0);
        let done = done_at.borrow().expect("done");
        let worst_case = handle.lambdas_launched() as f64
            * splitserve_cloud::lambda_compute_cost(
                1536,
                SimDuration::from_secs_f64(done + 4.0),
            );
        assert!(
            lambda_cost <= worst_case,
            "cost {lambda_cost} exceeds bound {worst_case}"
        );
    }

    #[test]
    fn allocator_respects_the_lambda_cap() {
        let mut sim = Sim::new(22);
        let d = Deployment::new(&mut sim, quiet_cloud(), ShuffleStoreKind::Hdfs, M4_XLARGE);
        let handle = start_allocator(
            &mut sim,
            &d,
            AllocatorConfig {
                max_lambdas: 3,
                ..AllocatorConfig::default()
            },
        );
        d.engine()
            .submit_job(&mut sim, burst_job(64).node(), |_, _| {});
        sim.run_until(splitserve_des::SimTime::from_secs(10));
        let live_lambdas = d
            .engine()
            .executors()
            .iter()
            .filter(|e| e.kind == ExecutorKind::Lambda && e.alive)
            .count();
        assert!(live_lambdas <= 3, "cap violated: {live_lambdas}");
        handle.stop();
        sim.run_until(splitserve_des::SimTime::from_secs(2_000));
    }

    #[test]
    fn stopped_allocator_stops_reacting() {
        let mut sim = Sim::new(23);
        let d = Deployment::new(&mut sim, quiet_cloud(), ShuffleStoreKind::Hdfs, M4_XLARGE);
        let handle = start_allocator(&mut sim, &d, AllocatorConfig::default());
        handle.stop();
        d.engine()
            .submit_job(&mut sim, burst_job(8).node(), |_, _| {});
        sim.run_until(splitserve_des::SimTime::from_secs(5));
        assert_eq!(
            handle.lambdas_launched(),
            0,
            "stopped controller must not launch"
        );
    }
}

//! SparkPi: the paper's pure-compute, negligible-shuffle workload
//! (Figure 9). Approximates π by Monte-Carlo dart throwing.
//!
//! The paper throws 10¹⁰ darts; simulating every dart for real would take
//! minutes of host CPU per run, so each task throws a *statistical sample*
//! of real darts (up to [`SparkPi::real_darts_cap_per_task`]) and charges
//! virtual CPU time for the full count — the same estimator variance per
//! sampled dart, the paper's compute footprint on the virtual clock.


use splitserve::DriverProgram;
use splitserve_des::Sim;
use splitserve_engine::{collect_partitions, Dataset, Engine};

use crate::gen::partition_rng;

/// Monte-Carlo π estimation.
#[derive(Debug, Clone)]
pub struct SparkPi {
    /// Total darts across all tasks (the paper: 10¹⁰).
    pub darts: u64,
    /// Number of tasks (the paper parallelizes over the executor count).
    pub tasks: usize,
    /// Degree of parallelism the workload was sized for.
    pub parallelism: usize,
    /// Virtual seconds of CPU per dart on a reference core (~60 ns: JVM
    /// RNG + bounds check).
    pub secs_per_dart: f64,
    /// Cap on *real* darts thrown per task; the remainder is extrapolated.
    pub real_darts_cap_per_task: u64,
    /// RNG seed.
    pub seed: u64,
}

impl SparkPi {
    /// The paper's configuration: 10¹⁰ darts on `parallelism` executors
    /// (tasks = 2× executors, Spark's usual default for SparkPi).
    pub fn paper_config(parallelism: usize, seed: u64) -> Self {
        SparkPi {
            darts: 10_000_000_000,
            tasks: parallelism * 2,
            parallelism,
            secs_per_dart: 6.0e-8,
            real_darts_cap_per_task: 200_000,
            seed,
        }
    }

    /// A small configuration for tests.
    pub fn small(darts: u64, tasks: usize, seed: u64) -> Self {
        SparkPi {
            darts,
            tasks,
            parallelism: tasks,
            secs_per_dart: 6.0e-8,
            real_darts_cap_per_task: u64::MAX, // throw everything for real
            seed,
        }
    }

    /// Builds the plan: one generated unit per task, a `map_partitions`
    /// that throws darts, and a single-partition reduce for the count.
    pub fn plan(&self) -> Dataset<(u64, f64)> {
        let tasks = self.tasks as u64;
        let darts_per_task = self.darts / tasks;
        let cap = self.real_darts_cap_per_task;
        let secs_per_dart = self.secs_per_dart;
        let seed = self.seed;
        Dataset::<u64>::generate(self.tasks, |p| vec![p as u64])
            .map_partitions(move |ctx, parts| {
                let task = parts[0] as usize;
                let mut rng = partition_rng(seed, task);
                let real = darts_per_task.min(cap);
                let mut inside = 0u64;
                for _ in 0..real {
                    let x: f64 = rng.gen_range(-1.0..1.0);
                    let y: f64 = rng.gen_range(-1.0..1.0);
                    if x * x + y * y <= 1.0 {
                        inside += 1;
                    }
                }
                // Charge the *full* dart count to the virtual clock.
                ctx.charge_secs(darts_per_task as f64 * secs_per_dart);
                let inside_est = inside as f64 / real as f64 * darts_per_task as f64;
                vec![(0u64, inside_est)]
            })
            .reduce_by_key(1, |a, b| a + b)
    }

    /// Total darts actually simulated (after per-task capping).
    pub(crate) fn effective_darts(&self) -> u64 {
        (self.darts / self.tasks as u64) * self.tasks as u64
    }
}

impl DriverProgram for SparkPi {
    fn name(&self) -> String {
        format!("SparkPi({:.0e} darts)", self.darts as f64)
    }

    fn parallelism(&self) -> usize {
        self.parallelism
    }

    fn submit(&self, sim: &mut Sim, engine: &Engine, done: Box<dyn FnOnce(&mut Sim)>) {
        let darts = self.effective_darts();
        engine.submit_job(sim, self.plan().node(), move |sim, out| {
            let rows = collect_partitions::<(u64, f64)>(out.partitions);
            let inside: f64 = rows.iter().map(|(_, v)| v).sum();
            let pi = 4.0 * inside / darts as f64;
            assert!(
                (pi - std::f64::consts::PI).abs() < 0.05,
                "π estimate off: {pi}"
            );
            done(sim);
        });
    }
}

/// Runs the estimation and returns the π estimate (test/example helper).
pub fn estimate_pi(
    sim: &mut Sim,
    engine: &Engine,
    workload: &SparkPi,
    finish: impl FnOnce(&mut Sim, f64) + 'static,
) {
    let darts = workload.effective_darts();
    engine.submit_job(sim, workload.plan().node(), move |sim, out| {
        let rows = collect_partitions::<(u64, f64)>(out.partitions);
        let inside: f64 = rows.iter().map(|(_, v)| v).sum();
        finish(sim, 4.0 * inside / darts as f64);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;
    use splitserve_des::Fabric;
    use splitserve_engine::{EngineConfig, ExecutorDesc};
    use splitserve_storage::LocalDiskStore;

    fn rig(execs: usize) -> (Sim, Engine) {
        let fabric = Fabric::new();
        let store = Rc::new(LocalDiskStore::new(fabric.clone()));
        let engine = Engine::new(EngineConfig::default(), store);
        let mut sim = Sim::new(1);
        for i in 0..execs {
            let nic = fabric.add_link(1e9, format!("n{i}"));
            let disk = fabric.add_link(1e9, format!("d{i}"));
            engine.register_executor(&mut sim, ExecutorDesc::vm(format!("e-{i}"), nic, disk, 8192));
        }
        (sim, engine)
    }

    #[test]
    fn estimates_pi_accurately_with_real_darts() {
        let w = SparkPi::small(4_000_000, 8, 2);
        let (mut sim, engine) = rig(4);
        let result = Rc::new(RefCell::new(None));
        let r = Rc::clone(&result);
        estimate_pi(&mut sim, &engine, &w, move |_, pi| {
            *r.borrow_mut() = Some(pi);
        });
        sim.run();
        let pi = result.borrow_mut().take().expect("finished");
        assert!((pi - std::f64::consts::PI).abs() < 0.01, "π = {pi}");
    }

    #[test]
    fn sampled_mode_charges_full_virtual_time() {
        // Two identical workloads; one throws all darts for real, one
        // samples. Virtual times must match (same charge).
        let run = |cap: u64| {
            let mut w = SparkPi::small(1_000_000, 4, 3);
            w.real_darts_cap_per_task = cap;
            let (mut sim, engine) = rig(4);
            let done = Rc::new(RefCell::new(None));
            let d = Rc::clone(&done);
            estimate_pi(&mut sim, &engine, &w, move |sim, pi| {
                *d.borrow_mut() = Some((sim.now().as_secs_f64(), pi));
            });
            sim.run();
            let out = done.borrow_mut().take().expect("finished");
            out
        };
        let (t_full, pi_full) = run(u64::MAX);
        let (t_sampled, pi_sampled) = run(10_000);
        assert!((t_full - t_sampled).abs() < 1e-6, "{t_full} vs {t_sampled}");
        assert!((pi_full - std::f64::consts::PI).abs() < 0.02);
        assert!((pi_sampled - std::f64::consts::PI).abs() < 0.1);
    }

    #[test]
    fn shuffle_is_negligible() {
        let w = SparkPi::small(100_000, 8, 1);
        let (mut sim, engine) = rig(4);
        let done = Rc::new(RefCell::new(false));
        let d = Rc::clone(&done);
        estimate_pi(&mut sim, &engine, &w, move |_, _| *d.borrow_mut() = true);
        sim.run();
        assert!(*done.borrow());
        let written: u64 = engine
            .completed_job_metrics()
            .iter()
            .map(|m| m.shuffle_bytes_written)
            .sum();
        assert!(written < 1_000, "SparkPi shuffles almost nothing: {written}");
    }
}

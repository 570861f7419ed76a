//! HiBench-style distributed K-means: compute-intensive with a small
//! shuffle (one partial centroid sum per map task per cluster) — the
//! paper's machine-learning workload (Figure 8).

use std::cell::RefCell;
use std::rc::Rc;

use splitserve::DriverProgram;
use splitserve_des::Sim;
use splitserve_engine::{collect_partitions, Dataset, Engine};

use crate::gen::{partition_range, partition_rng};

/// Lloyd's algorithm over synthetic Gaussian clusters.
///
/// The driver is genuinely iterative, exactly like Spark MLlib: each
/// iteration is one job (map: assign points to the nearest centroid;
/// reduce: per-cluster vector sums), then the driver updates centroids and
/// checks convergence.
#[derive(Debug, Clone)]
pub struct KMeans {
    /// Number of points.
    pub points: u64,
    /// Feature dimensions (the paper uses 20).
    pub dims: usize,
    /// Clusters `k` (the paper uses 10).
    pub k: usize,
    /// Maximum iterations (the paper uses 5).
    pub max_iterations: usize,
    /// Convergence threshold on total centroid movement (the paper: 0.5).
    pub convergence: f64,
    /// Degree of parallelism.
    pub parallelism: usize,
    /// Data seed.
    pub seed: u64,
    /// Cap on points actually materialized (the rest are represented
    /// statistically: centroids are distribution means, so a large sample
    /// gives the same trajectory while the *virtual* CPU charge covers
    /// the full point count).
    pub materialize_cap: u64,
}

impl KMeans {
    /// The paper's configuration: 3·10⁶ points × 20 dims, k = 10, ≤5
    /// iterations, convergence 0.5 — at the given parallelism.
    pub fn paper_config(parallelism: usize, seed: u64) -> Self {
        KMeans {
            points: 3_000_000,
            dims: 20,
            k: 10,
            max_iterations: 5,
            convergence: 0.5,
            parallelism,
            seed,
            materialize_cap: 200_000,
        }
    }

    /// A smaller configuration for tests.
    pub fn small(points: u64, parallelism: usize, seed: u64) -> Self {
        KMeans {
            points,
            dims: 4,
            k: 3,
            max_iterations: 5,
            convergence: 0.01,
            parallelism,
            seed,
            materialize_cap: u64::MAX,
        }
    }

    /// True cluster center `c` used by the generator.
    fn true_center(&self, c: usize) -> Vec<f64> {
        (0..self.dims)
            .map(|d| ((c * 7 + d * 3) % 23) as f64 * 2.0)
            .collect()
    }

    /// Points actually generated (≤ [`KMeans::materialize_cap`]).
    pub(crate) fn materialized_points(&self) -> u64 {
        self.points.min(self.materialize_cap)
    }

    /// How many real points each materialized point represents.
    pub(crate) fn represent_factor(&self) -> f64 {
        self.points as f64 / self.materialized_points() as f64
    }

    /// The points dataset: a mixture of `k` Gaussians around
    /// `KMeans::true_center`s, generated per partition.
    pub(crate) fn points_dataset(&self) -> Dataset<Vec<f64>> {
        let total = self.materialized_points();
        let parts = self.parallelism;
        let dims = self.dims;
        let k = self.k;
        let seed = self.seed;
        let this = self.clone();
        Dataset::generate(parts, move |p| {
            let (start, end) = partition_range(total, parts, p);
            let mut rng = partition_rng(seed, p);
            (start..end)
                .map(|i| {
                    let c = (i % k as u64) as usize;
                    let center = this.true_center(c);
                    (0..dims)
                        .map(|d| center[d] + rng.gen_range(-1.0..1.0))
                        .collect()
                })
                .collect()
        })
    }

    /// Initial centroids: true centers perturbed, so the algorithm has
    /// real work to do but converges within the budget.
    pub(crate) fn initial_centroids(&self) -> Vec<Vec<f64>> {
        (0..self.k)
            .map(|c| {
                self.true_center(c)
                    .into_iter()
                    .map(|x| x + 3.0)
                    .collect()
            })
            .collect()
    }

    /// Per-record cost of the assignment map: `k` distance computations of
    /// `dims` dimensions, at JVM-Spark-MLlib-era per-element throughput
    /// (boxing, iterator overhead — ~0.5 µs per distance term), scaled by
    /// how many real points each materialized point represents.
    fn assign_cost_secs(&self) -> f64 {
        (self.k * self.dims) as f64 * 5.0e-7 * self.represent_factor()
    }
}

/// Squared Euclidean distance.
pub(crate) fn dist2(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Index of the centroid closest to `p`.
pub(crate) fn closest(p: &[f64], centroids: &[Vec<f64>]) -> usize {
    let mut best = 0;
    let mut best_d = f64::INFINITY;
    for (i, c) in centroids.iter().enumerate() {
        let d = dist2(p, c);
        if d < best_d {
            best_d = d;
            best = i;
        }
    }
    best
}

/// Shared mutable iteration state threaded through the callback chain.
struct IterState {
    centroids: Vec<Vec<f64>>,
    iterations_run: usize,
    converged: bool,
}

impl KMeans {
    fn run_iteration(
        self: Rc<Self>,
        sim: &mut Sim,
        engine: Engine,
        state: Rc<RefCell<IterState>>,
        done: Box<dyn FnOnce(&mut Sim)>,
    ) {
        let centroids = state.borrow().centroids.clone();
        let k = self.k;
        let dims = self.dims;
        let convergence = self.convergence;
        let max_iterations = self.max_iterations;
        let cost = self.assign_cost_secs();
        let reduce_parts = self.parallelism.min(k).max(1);
        // assign: point → (cluster, (sum_vec, count))
        let cents = centroids.clone();
        let plan = self
            .points_dataset()
            .map_with_cost(
                move |p| {
                    let c = closest(p, &cents) as u64;
                    (c, (p.clone(), 1u64))
                },
                Some(cost),
            )
            .reduce_by_key(reduce_parts, move |(s1, n1), (s2, n2)| {
                let sum = s1.iter().zip(s2.iter()).map(|(a, b)| a + b).collect();
                (sum, n1 + n2)
            });
        let this = Rc::clone(&self);
        let engine2 = engine.clone();
        engine.submit_job(sim, plan.node(), move |sim, out| {
            let sums = collect_partitions::<(u64, (Vec<f64>, u64))>(out.partitions);
            let mut movement = 0.0;
            {
                let mut st = state.borrow_mut();
                let mut new_centroids = st.centroids.clone();
                for (c, (sum, n)) in sums {
                    let c = c as usize;
                    if n > 0 && c < k {
                        let mean: Vec<f64> = sum.iter().map(|x| x / n as f64).collect();
                        movement += dist2(&mean, &st.centroids[c]).sqrt();
                        new_centroids[c] = mean;
                    }
                }
                debug_assert!(new_centroids.iter().all(|c| c.len() == dims));
                st.centroids = new_centroids;
                st.iterations_run += 1;
                st.converged = movement < convergence;
            }
            let iterations_run = state.borrow().iterations_run;
            let converged = state.borrow().converged;
            if converged || iterations_run >= max_iterations {
                done(sim);
            } else {
                this.run_iteration(sim, engine2, state, done);
            }
        });
    }

    /// Runs the full iterative algorithm, calling `finish` with the final
    /// centroids and iteration count.
    pub fn run(
        &self,
        sim: &mut Sim,
        engine: &Engine,
        finish: impl FnOnce(&mut Sim, Vec<Vec<f64>>, usize) + 'static,
    ) {
        let state = Rc::new(RefCell::new(IterState {
            centroids: self.initial_centroids(),
            iterations_run: 0,
            converged: false,
        }));
        let st = Rc::clone(&state);
        Rc::new(self.clone()).run_iteration(
            sim,
            engine.clone(),
            Rc::clone(&state),
            Box::new(move |sim| {
                let st = st.borrow();
                finish(sim, st.centroids.clone(), st.iterations_run);
            }),
        );
    }
}

impl DriverProgram for KMeans {
    fn name(&self) -> String {
        format!("K-means({} pts, k={})", self.points, self.k)
    }

    fn parallelism(&self) -> usize {
        self.parallelism
    }

    fn submit(&self, sim: &mut Sim, engine: &Engine, done: Box<dyn FnOnce(&mut Sim)>) {
        let dims = self.dims;
        self.run(sim, engine, move |sim, centroids, iters| {
            assert!(iters >= 1);
            assert!(centroids.iter().all(|c| c.len() == dims));
            done(sim);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn converges_to_true_centers() {
        let w = KMeans::small(3_000, 4, 9);
        let (mut sim, engine) = rig(4);
        let result = Rc::new(RefCell::new(None));
        let r = Rc::clone(&result);
        w.run(&mut sim, &engine, move |_, centroids, iters| {
            *r.borrow_mut() = Some((centroids, iters));
        });
        sim.run();
        let (centroids, iters) = result.borrow_mut().take().expect("finished");
        assert!((1..=5).contains(&iters));
        // Each found centroid is close to some true center (noise ±1 on
        // each of 4 dims → expected offset well under 1).
        for c in &centroids {
            let best = (0..w.k)
                .map(|i| dist2(c, &w.true_center(i)))
                .fold(f64::INFINITY, f64::min);
            assert!(best < 1.0, "centroid {c:?} too far: {best}");
        }
    }

    #[test]
    fn distance_helpers() {
        assert_eq!(dist2(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        let cents = vec![vec![0.0, 0.0], vec![10.0, 10.0]];
        assert_eq!(closest(&[1.0, 1.0], &cents), 0);
        assert_eq!(closest(&[9.0, 9.0], &cents), 1);
    }

    #[test]
    fn respects_iteration_cap() {
        let mut w = KMeans::small(1_000, 2, 3);
        w.convergence = 0.0; // never converges
        let (mut sim, engine) = rig(2);
        let result = Rc::new(RefCell::new(None));
        let r = Rc::clone(&result);
        w.run(&mut sim, &engine, move |_, _, iters| {
            *r.borrow_mut() = Some(iters);
        });
        sim.run();
        assert_eq!(result.borrow_mut().take(), Some(5));
    }

    #[test]
    fn shuffle_volume_is_small() {
        // K-means shuffles only k partial sums per map task.
        let w = KMeans::small(10_000, 4, 2);
        let (mut sim, engine) = rig(4);
        let done = Rc::new(RefCell::new(false));
        let d = Rc::clone(&done);
        w.run(&mut sim, &engine, move |_, _, _| *d.borrow_mut() = true);
        sim.run();
        assert!(*done.borrow());
        let total_shuffled: u64 = engine
            .completed_job_metrics()
            .iter()
            .map(|m| m.shuffle_bytes_written)
            .sum();
        // 10k points × 4 dims × 8 B ≈ 320 kB of data, but shuffle carries
        // only per-cluster sums: a few kB per iteration.
        assert!(
            total_shuffled < 50_000,
            "k-means shuffle should be tiny: {total_shuffled}"
        );
    }
}

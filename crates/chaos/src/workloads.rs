//! Fingerprinting adapters over the paper's workloads.
//!
//! The differential oracle compares *outputs*, not timings, so every
//! workload is wrapped to reduce its result to a single `u64` fingerprint:
//! an xxHash64 over the raw bits of the sorted output (`f64`s hashed via
//! [`f64::to_bits`], never through formatting). Identical results across a
//! faulty and a fault-free run therefore mean bit-identical data.

use std::hash::Hasher;

use splitserve_des::Sim;
use splitserve_engine::{collect_partitions, Engine};
use splitserve_rt::hash::XxHash64;
use splitserve_workloads::{CloudSort, KMeans, PageRank, SparkPi};

/// Receives the workload's fingerprint when its last job completes.
pub(crate) type FingerprintSink = Box<dyn FnOnce(&mut Sim, u64)>;

/// Hash-stream seed; arbitrary but fixed so fingerprints are comparable
/// across processes and runs.
const FP_SEED: u64 = 0x5917_5E12_FEED_F00D;

/// A workload the chaos harness can drive: submit against an engine, call
/// the sink with an output fingerprint when done. If the run wedges (a
/// fault plan the topology cannot absorb), the sink is simply never
/// called and the harness reports a non-completion.
pub trait ChaosWorkload {
    /// Short name for repro lines and test output.
    fn name(&self) -> &'static str;
    /// Submits the workload's job(s); `sink` fires on final completion.
    fn submit(&self, sim: &mut Sim, engine: &Engine, sink: FingerprintSink);
}

/// PageRank: CPU + large shuffle; ranks fingerprinted per page.
pub struct ChaosPageRank(pub PageRank);

impl ChaosPageRank {
    /// A debug-build-friendly instance (the sweep runs many of these).
    /// The contribution cost stretches the run across the plan
    /// generator's 2–45 s fault window — virtual seconds, not host CPU.
    pub fn small() -> Self {
        ChaosPageRank(PageRank::new(1_500, 3, 6, 11).with_contrib_cost(8.0e-3))
    }
}

impl ChaosWorkload for ChaosPageRank {
    fn name(&self) -> &'static str {
        "pagerank"
    }

    fn submit(&self, sim: &mut Sim, engine: &Engine, sink: FingerprintSink) {
        engine.submit_job(sim, self.0.plan().node(), move |sim, out| {
            let mut rows = collect_partitions::<(u64, f64)>(out.partitions);
            rows.sort_by_key(|(page, _)| *page);
            let mut h = XxHash64::with_seed(FP_SEED);
            for (page, rank) in &rows {
                h.write_u64(*page);
                h.write_u64(rank.to_bits());
            }
            sink(sim, h.finish());
        });
    }
}

/// CloudSort: shuffle-dominated; the *order* of the output is part of the
/// contract, so rows are fingerprinted exactly as collected and the
/// fingerprint additionally covers global sortedness.
pub struct ChaosCloudSort(pub CloudSort);

impl ChaosCloudSort {
    /// A debug-build-friendly instance.
    pub fn small() -> Self {
        ChaosCloudSort(CloudSort::new(4_000, 6, 11))
    }

    /// The sort plan with virtual CPU charged on both sides of the
    /// shuffle, stretching the run across the plan generator's 2–45 s
    /// fault window *and* keeping the sort stage's outputs live while a
    /// charged consumer stage drains them — the exposure a kill needs to
    /// destroy in-use shuffle blocks under executor-local storage.
    fn plan(&self) -> splitserve_engine::Dataset<(u64, Vec<u8>)> {
        self.0
            .input()
            .map_with_cost(|kv| kv.clone(), Some(8.0e-3))
            .sort_by_key(self.0.bounds())
            .map_with_cost(|kv| kv.clone(), Some(8.0e-3))
    }
}

impl ChaosWorkload for ChaosCloudSort {
    fn name(&self) -> &'static str {
        "cloudsort"
    }

    fn submit(&self, sim: &mut Sim, engine: &Engine, sink: FingerprintSink) {
        engine.submit_job(sim, self.plan().node(), move |sim, out| {
            let rows = collect_partitions::<(u64, Vec<u8>)>(out.partitions);
            assert!(
                rows.windows(2).all(|w| w[0].0 <= w[1].0),
                "CloudSort output must be globally sorted"
            );
            let mut h = XxHash64::with_seed(FP_SEED);
            for (key, payload) in &rows {
                h.write_u64(*key);
                h.write(payload);
            }
            sink(sim, h.finish());
        });
    }
}

/// SparkPi: pure compute, negligible shuffle — the control workload whose
/// single `f64` must survive any storage fault untouched.
pub struct ChaosSparkPi(pub SparkPi);

impl ChaosSparkPi {
    /// A debug-build-friendly instance. Virtual per-dart cost is raised
    /// so tasks span the fault window on the virtual clock (host CPU is
    /// unaffected: the darts thrown for real stay the same).
    pub fn small() -> Self {
        let mut w = SparkPi::small(400_000, 8, 11);
        w.secs_per_dart = 6.0e-4;
        ChaosSparkPi(w)
    }
}

impl ChaosWorkload for ChaosSparkPi {
    fn name(&self) -> &'static str {
        "sparkpi"
    }

    fn submit(&self, sim: &mut Sim, engine: &Engine, sink: FingerprintSink) {
        engine.submit_job(sim, self.0.plan().node(), move |sim, out| {
            let mut rows = collect_partitions::<(u64, f64)>(out.partitions);
            rows.sort_by_key(|(k, _)| *k);
            let mut h = XxHash64::with_seed(FP_SEED);
            for (k, v) in &rows {
                h.write_u64(*k);
                h.write_u64(v.to_bits());
            }
            sink(sim, h.finish());
        });
    }
}

/// K-means: a multi-job iterative driver — faults can land between jobs,
/// not just inside one. Fingerprints the final centroids plus the
/// iteration count (a fault must not change when convergence is declared).
pub struct ChaosKMeans(pub KMeans);

impl ChaosKMeans {
    /// A debug-build-friendly instance. Statistical point representation
    /// (`materialize_cap`) keeps host CPU at 3 000 real points while the
    /// virtual charge covers millions, so each iteration's job spans the
    /// fault window.
    pub fn small() -> Self {
        let mut w = KMeans::small(3_000, 6, 11);
        w.points = 6_000_000;
        w.materialize_cap = 3_000;
        ChaosKMeans(w)
    }
}

impl ChaosWorkload for ChaosKMeans {
    fn name(&self) -> &'static str {
        "kmeans"
    }

    fn submit(&self, sim: &mut Sim, engine: &Engine, sink: FingerprintSink) {
        self.0.run(sim, engine, move |sim, centroids, iterations| {
            let mut h = XxHash64::with_seed(FP_SEED);
            h.write_u64(iterations as u64);
            for c in &centroids {
                for x in c {
                    h.write_u64(x.to_bits());
                }
            }
            sink(sim, h.finish());
        });
    }
}

//! Engine configuration: the CPU/GC work model and scheduler knobs.

use splitserve_des::SimDuration;

/// Converts the *real* work a task performs (records touched, bytes
/// scanned/serialized) into *simulated* CPU seconds on a reference core.
///
/// Tasks in this engine genuinely transform data; the work model only
/// decides how long that transformation takes on the virtual clock. The
/// defaults are calibrated to JVM-Spark-era throughputs (~GB/s
/// serialization, ~5 M records/s per core for simple operators).
#[derive(Debug, Clone, PartialEq)]
pub struct WorkModel {
    /// Seconds per record for narrow operators (map/filter/flatMap).
    pub record_secs: f64,
    /// Seconds per byte scanned from a source dataset.
    pub scan_secs_per_byte: f64,
    /// Seconds per byte serialized into shuffle blocks.
    pub ser_secs_per_byte: f64,
    /// Seconds per byte deserialized from shuffle blocks.
    pub deser_secs_per_byte: f64,
    /// Seconds per record for combine/merge operators (reduceByKey, join).
    pub combine_secs_per_record: f64,
    /// Fixed per-task overhead (scheduler hand-off, JVM dispatch).
    pub task_overhead: SimDuration,
    /// Memory-pressure fraction (working set / executor memory) above
    /// which GC starts to hurt.
    pub gc_threshold: f64,
    /// Strength of the GC slowdown beyond the threshold. The paper (§3)
    /// observes that Lambdas' small memory makes "garbage collection …
    /// pose significant overheads … even for moderately memory-intensive
    /// workloads".
    pub gc_penalty: f64,
}

impl Default for WorkModel {
    fn default() -> Self {
        WorkModel {
            record_secs: 2.0e-7,
            scan_secs_per_byte: 0.4e-9,
            ser_secs_per_byte: 1.0e-9,
            deser_secs_per_byte: 0.8e-9,
            combine_secs_per_record: 2.5e-7,
            task_overhead: SimDuration::from_millis(12),
            gc_threshold: 0.35,
            gc_penalty: 6.0,
        }
    }
}

impl WorkModel {
    /// The GC slowdown multiplier for a task whose working set occupies
    /// `pressure` (0..) of its executor's memory.
    ///
    /// Returns 1.0 below [`WorkModel::gc_threshold`], then grows
    /// super-linearly — matching the observed cliff when a JVM heap
    /// approaches full.
    ///
    /// # Examples
    ///
    /// ```
    /// use splitserve_engine::WorkModel;
    ///
    /// let wm = WorkModel::default();
    /// assert_eq!(wm.gc_factor(0.1), 1.0);
    /// assert!(wm.gc_factor(0.9) > wm.gc_factor(0.5));
    /// ```
    pub fn gc_factor(&self, pressure: f64) -> f64 {
        let over = (pressure - self.gc_threshold).max(0.0);
        1.0 + self.gc_penalty * over * over.sqrt()
    }
}

/// Knobs of the straggler watch (detection only, no speculative
/// re-launch): on every task completion the scheduler folds the run time
/// into a per-stage streaming quantile digest and flags still-running
/// attempts of the same stage whose elapsed virtual time exceeds
/// `quantile`'s value times `multiple`. Active only while observability
/// is enabled.
#[derive(Debug, Clone, PartialEq)]
pub struct StragglerConfig {
    /// Which quantile of completed-task run time anchors the threshold.
    pub quantile: f64,
    /// Threshold = quantile value × this multiple.
    pub multiple: f64,
    /// Minimum completed tasks in a stage before the watch arms — too few
    /// samples make the quantile meaningless.
    pub min_samples: u64,
}

impl Default for StragglerConfig {
    fn default() -> Self {
        StragglerConfig {
            quantile: 0.95,
            multiple: 2.0,
            min_samples: 4,
        }
    }
}

/// Scheduler-level configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// The work model converting real work to virtual time.
    pub work: WorkModel,
    /// Record every engine event (task start/finish, executor churn) for
    /// timeline figures. Cheap; on by default.
    pub event_log: bool,
    /// The straggler watch's quantile/multiple/arming knobs.
    pub straggler: StragglerConfig,
    /// The observability handle ([`splitserve_obs::Obs`]): metrics
    /// registry plus span recorder, shared with the policy and storage
    /// layers. Disabled by default — every record call is one branch.
    pub obs: splitserve_obs::Obs,
    /// Maximum concurrent block fetches per task during shuffle reads
    /// (Spark's `spark.reducer.maxReqsInFlight` spiritual cousin).
    pub max_fetch_concurrency: usize,
    /// Serialized driver work per task launch (closure serialization +
    /// RPC on the single-threaded scheduler loop). This is what bends the
    /// profiling curve back up at high degrees of parallelism (Fig. 4).
    pub driver_dispatch: SimDuration,
    /// Worker threads executing task bodies (map compute, shuffle
    /// combine+encode, reduce decode+merge). `1` (the default) runs task
    /// bodies inline on the simulation thread; `>= 2` offloads them to a
    /// real thread pool. Virtual-time results are byte-identical at any
    /// setting — only wall-clock changes (see DESIGN.md "Parallel task
    /// data plane").
    pub workers: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            work: WorkModel::default(),
            event_log: true,
            straggler: StragglerConfig::default(),
            obs: splitserve_obs::Obs::disabled(),
            max_fetch_concurrency: 8,
            driver_dispatch: SimDuration::from_millis(4),
            workers: 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gc_factor_is_one_below_threshold() {
        let wm = WorkModel::default();
        assert_eq!(wm.gc_factor(0.0), 1.0);
        assert_eq!(wm.gc_factor(0.35), 1.0);
    }

    #[test]
    fn gc_factor_monotonic_above_threshold() {
        let wm = WorkModel::default();
        let mut last = 1.0;
        for i in 0..20 {
            let p = 0.35 + i as f64 * 0.05;
            let f = wm.gc_factor(p);
            assert!(f >= last, "gc factor decreased at {p}");
            last = f;
        }
        assert!(last > 2.0, "penalty too weak: {last}");
    }

    #[test]
    fn defaults_are_sane() {
        let c = EngineConfig::default();
        assert!(c.work.record_secs > 0.0);
        assert!(c.max_fetch_concurrency > 0);
    }
}

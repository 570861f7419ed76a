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
    pub(crate) record_secs: f64,
    /// Seconds per byte scanned from a source dataset.
    pub(crate) scan_secs_per_byte: f64,
    /// Seconds per byte serialized into shuffle blocks.
    pub(crate) ser_secs_per_byte: f64,
    /// Seconds per byte deserialized from shuffle blocks.
    pub(crate) deser_secs_per_byte: f64,
    /// Seconds per record for combine/merge operators (reduceByKey, join).
    pub(crate) combine_secs_per_record: f64,
    /// Fixed per-task overhead (scheduler hand-off, JVM dispatch).
    pub(crate) task_overhead: SimDuration,
    /// Memory-pressure fraction (working set / executor memory) above
    /// which GC starts to hurt.
    pub(crate) gc_threshold: f64,
    /// Strength of the GC slowdown beyond the threshold. The paper (§3)
    /// observes that Lambdas' small memory makes "garbage collection …
    /// pose significant overheads … even for moderately memory-intensive
    /// workloads".
    pub(crate) gc_penalty: f64,
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
    pub(crate) fn gc_factor(&self, pressure: f64) -> f64 {
        let over = (pressure - self.gc_threshold).max(0.0);
        1.0 + self.gc_penalty * over * over.sqrt()
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
    /// The observability handle ([`splitserve_obs::Obs`]): metrics
    /// registry plus span recorder, shared with the policy and storage
    /// layers. Disabled by default — every record call is one branch.
    pub obs: splitserve_obs::Obs,
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
            obs: splitserve_obs::Obs::disabled(),
            workers: 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gc_factor_is_flat_then_grows() {
        let wm = WorkModel::default();
        assert_eq!(wm.gc_factor(0.1), 1.0);
        assert!(wm.gc_factor(0.9) > wm.gc_factor(0.5));
    }

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
        assert_eq!(c.workers, 1);
    }
}

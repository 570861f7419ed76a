//! Per-job metrics, aggregated by the scheduler as the job runs.

use splitserve_des::{SimDuration, SimTime};

use crate::events::JobId;
use crate::executor::ExecutorKind;
use crate::node::PartitionData;

/// Everything measured about one completed job.
#[derive(Debug, Clone)]
pub struct JobMetrics {
    /// The job.
    pub job: JobId,
    /// Submission instant.
    pub(crate) submitted_at: SimTime,
    /// Completion instant.
    pub completed_at: SimTime,
    /// Total stages executed (including rollback resubmissions).
    pub stages_run: usize,
    /// Task completions on VM executors.
    pub tasks_on_vm: u64,
    /// Task completions on Lambda executors.
    pub tasks_on_lambda: u64,
    /// Tasks that had to be re-run (failures + rollback recomputation).
    pub tasks_recomputed: u64,
    /// Serialized shuffle bytes written by this job's map tasks.
    pub shuffle_bytes_written: u64,
    /// Serialized shuffle bytes fetched by this job's reduce tasks.
    pub shuffle_bytes_read: u64,
    /// Reference-core CPU seconds across all tasks.
    pub cpu_secs_total: f64,
}

impl JobMetrics {
    pub(crate) fn start(job: JobId, at: SimTime) -> Self {
        JobMetrics {
            job,
            submitted_at: at,
            completed_at: at,
            stages_run: 0,
            tasks_on_vm: 0,
            tasks_on_lambda: 0,
            tasks_recomputed: 0,
            shuffle_bytes_written: 0,
            shuffle_bytes_read: 0,
            cpu_secs_total: 0.0,
        }
    }

    pub(crate) fn count_task(&mut self, kind: ExecutorKind) {
        match kind {
            ExecutorKind::Vm => self.tasks_on_vm += 1,
            ExecutorKind::Lambda => self.tasks_on_lambda += 1,
        }
    }

    /// Wall-clock (virtual) execution time of the job.
    pub fn execution_time(&self) -> SimDuration {
        self.completed_at.saturating_since(self.submitted_at)
    }

    /// Total completed tasks.
    pub fn tasks_total(&self) -> u64 {
        self.tasks_on_vm + self.tasks_on_lambda
    }
}

/// A completed job: its result partitions and its metrics.
pub struct JobOutput {
    /// The result stage's computed partitions, in partition order. Use
    /// [`collect_partitions`](crate::collect_partitions) to extract typed
    /// records.
    pub partitions: Vec<PartitionData>,
    /// Measurements, shared with the scheduler's job table (the same
    /// allocation [`Engine::job_metrics`](crate::Engine::job_metrics)
    /// hands out) — completion no longer deep-copies the block.
    pub metrics: std::sync::Arc<JobMetrics>,
}

impl std::fmt::Debug for JobOutput {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobOutput")
            .field("partitions", &self.partitions.len())
            .field("metrics", &self.metrics)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn execution_time_and_task_counts() {
        let mut m = JobMetrics::start(JobId(0), SimTime::from_secs(10));
        m.completed_at = SimTime::from_secs(25);
        m.count_task(ExecutorKind::Vm);
        m.count_task(ExecutorKind::Lambda);
        m.count_task(ExecutorKind::Lambda);
        assert_eq!(m.execution_time(), SimDuration::from_secs(15));
        assert_eq!(m.tasks_total(), 3);
        assert_eq!(m.tasks_on_lambda, 2);
    }
}

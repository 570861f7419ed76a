//! Per-task execution context: shuffle inputs and CPU-work accounting.

use splitserve_rt::{Bytes, FastMap};

use crate::config::WorkModel;
use crate::node::ShuffleId;

/// Handed to [`PlanNode::compute`](crate::PlanNode::compute): provides the
/// fetched shuffle inputs and accumulates the task's CPU work and memory
/// footprint, from which the scheduler derives the task's virtual duration.
#[derive(Debug)]
pub struct TaskContext {
    /// Every fetched block, one input shuffle's run after the other.
    blocks: Vec<Bytes>,
    /// Which shuffle each run of `blocks` came from.
    runs: Runs,
    work: WorkModel,
    cpu_secs: f64,
    bytes_in: u64,
    bytes_out: u64,
    combine_secs: Option<f64>,
}

/// The input shuffles of a task's block list, in list order.
#[derive(Debug)]
pub(crate) enum Runs {
    /// The whole list is this shuffle's: a single-input stage, whose
    /// operator takes the list as it is.
    Whole(ShuffleId),
    /// `(shuffle, blocks)` runs back to back; a shuffle that sent this
    /// task nothing has a run of zero blocks.
    Split(Vec<(ShuffleId, usize)>),
}

impl Runs {
    /// Takes `id`'s run out of a list of `len` blocks: where it starts and
    /// how many blocks it holds, or `None` if the task fetched no such
    /// shuffle (or its run was taken already).
    fn take(&mut self, id: ShuffleId, len: usize) -> Option<(usize, usize)> {
        match self {
            Runs::Whole(whole) if *whole == id => {
                *self = Runs::Split(Vec::new());
                Some((0, len))
            }
            Runs::Whole(_) => None,
            Runs::Split(runs) => {
                let at = runs.iter().position(|(shuffle, _)| *shuffle == id)?;
                let start = runs[..at].iter().map(|(_, n)| n).sum();
                Some((start, runs.remove(at).1))
            }
        }
    }
}

impl TaskContext {
    /// Creates a context with the given fetched shuffle inputs.
    ///
    /// Deserialization of every fetched block is charged here, up front:
    /// all fetched bytes get decoded exactly once by the consuming
    /// operator, and charging at construction lets the scheduler bound a
    /// task's virtual duration from below *before* the body runs — the
    /// anchor the parallel data plane's join events are scheduled on
    /// (see DESIGN.md "Parallel task data plane").
    pub fn new(work: WorkModel, shuffle_in: FastMap<ShuffleId, Vec<Bytes>>) -> Self {
        let shuffles: Vec<(ShuffleId, Vec<Bytes>)> = shuffle_in.into_iter().collect();
        match <[_; 1]>::try_from(shuffles) {
            Ok([(id, blocks)]) => TaskContext::fetched(work, blocks, Runs::Whole(id)),
            Err(mut shuffles) => {
                shuffles.sort_unstable_by_key(|(id, _)| *id);
                let runs = shuffles.iter().map(|(id, run)| (*id, run.len())).collect();
                let blocks = shuffles.into_iter().flat_map(|(_, run)| run).collect();
                TaskContext::fetched(work, blocks, Runs::Split(runs))
            }
        }
    }

    /// A context over one task's fetched block list, as the scheduler's
    /// fetch lands it: no per-shuffle copies. Charges deserialization
    /// like [`TaskContext::new`].
    pub(crate) fn fetched(work: WorkModel, blocks: Vec<Bytes>, runs: Runs) -> Self {
        let bytes_in: u64 = blocks.iter().map(|b| b.len() as u64).sum();
        let mut ctx = TaskContext {
            blocks,
            runs,
            work,
            cpu_secs: 0.0,
            bytes_in,
            bytes_out: 0,
            combine_secs: None,
        };
        ctx.charge_deser(bytes_in);
        ctx
    }

    /// An empty context (source stages with no shuffle inputs).
    pub fn empty(work: WorkModel) -> Self {
        TaskContext::fetched(work, Vec::new(), Runs::Split(Vec::new()))
    }

    /// The fetched blocks for shuffle `id` (one per upstream map task that
    /// produced a non-empty bucket for this partition). A single-input
    /// stage gets the task's whole block list, without a copy.
    ///
    /// # Panics
    ///
    /// Panics if the scheduler did not fetch that shuffle for this task —
    /// an engine invariant violation, not a user error.
    pub(crate) fn shuffle_input(&mut self, id: ShuffleId) -> Vec<Bytes> {
        let Some((start, n)) = self.runs.take(id, self.blocks.len()) else {
            panic!("shuffle {id} not fetched for this task")
        };
        if n == self.blocks.len() {
            std::mem::take(&mut self.blocks)
        } else {
            self.blocks.drain(start..start + n).collect()
        }
    }

    /// Charges raw CPU seconds (reference-core).
    pub fn charge_secs(&mut self, secs: f64) {
        debug_assert!(secs >= 0.0 && secs.is_finite());
        self.cpu_secs += secs;
    }

    /// Charges `n` records of narrow-operator work.
    pub fn charge_records(&mut self, n: u64) {
        self.cpu_secs += n as f64 * self.work.record_secs;
    }

    /// Charges `n` records of combine/merge work.
    pub(crate) fn charge_combine(&mut self, n: u64) {
        self.cpu_secs += n as f64 * self.work.combine_secs_per_record;
    }

    /// Charges a source scan of `n` bytes and counts them as task input.
    pub(crate) fn charge_scan(&mut self, n: u64) {
        self.cpu_secs += n as f64 * self.work.scan_secs_per_byte;
        self.bytes_in += n;
    }

    /// Charges serialization of `n` bytes and counts them as task output.
    pub(crate) fn charge_ser(&mut self, n: u64) {
        self.cpu_secs += n as f64 * self.work.ser_secs_per_byte;
        self.bytes_out += n;
    }

    /// Charges deserialization of `n` bytes.
    pub(crate) fn charge_deser(&mut self, n: u64) {
        self.cpu_secs += n as f64 * self.work.deser_secs_per_byte;
    }

    /// Total CPU seconds charged so far.
    pub fn cpu_secs(&self) -> f64 {
        self.cpu_secs
    }

    /// The task's working-set estimate in bytes (inputs + outputs), used
    /// for the GC-pressure model.
    pub(crate) fn working_set_bytes(&self) -> u64 {
        self.bytes_in + self.bytes_out
    }

    /// Bytes read by this task (shuffle fetches + source scans).
    pub fn bytes_in(&self) -> u64 {
        self.bytes_in
    }

    /// Bytes produced by this task (shuffle writes).
    pub fn bytes_out(&self) -> u64 {
        self.bytes_out
    }

    /// CPU seconds of this task's map-side combine, if it ran one.
    pub fn combine_secs(&self) -> Option<f64> {
        self.combine_secs
    }

    /// Notes the CPU seconds of the task's map-side combine. A body
    /// records nothing itself: what it measured is read off the context
    /// once it has returned, like the CPU charge and the byte counts.
    pub(crate) fn note_combine(&mut self, secs: f64) {
        self.combine_secs = Some(secs);
    }

    /// Applies charge deltas recorded by an earlier task verbatim — used
    /// by `cache()` to bill every reader of a memoized partition the
    /// exact cost its fill incurred, so accounted durations never depend
    /// on which task won the (real-time) race to fill the cache.
    pub(crate) fn replay_charges(&mut self, cpu_secs: f64, bytes_in: u64, bytes_out: u64) {
        self.cpu_secs += cpu_secs;
        self.bytes_in += bytes_in;
        self.bytes_out += bytes_out;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl TaskContext {
        /// The work model in force (operators read its rates).
        fn work_model(&self) -> &WorkModel {
            &self.work
        }
    }

    #[test]
    fn charges_accumulate() {
        let mut ctx = TaskContext::empty(WorkModel::default());
        ctx.charge_records(1_000_000);
        let after_records = ctx.cpu_secs();
        assert!((after_records - 0.2).abs() < 1e-9, "1M records ≈ 0.2 s");
        ctx.charge_secs(1.0);
        assert!((ctx.cpu_secs() - after_records - 1.0).abs() < 1e-12);
    }

    #[test]
    fn working_set_tracks_in_and_out() {
        let mut ctx = TaskContext::empty(WorkModel::default());
        ctx.charge_scan(1_000);
        ctx.charge_ser(500);
        assert_eq!(ctx.bytes_in(), 1_000);
        assert_eq!(ctx.bytes_out(), 500);
        assert_eq!(ctx.working_set_bytes(), 1_500);
    }

    #[test]
    fn shuffle_input_counts_toward_bytes_in() {
        let mut m = FastMap::default();
        m.insert(
            ShuffleId(0),
            vec![Bytes::from_static(b"abcd"), Bytes::from_static(b"ef")],
        );
        let mut ctx = TaskContext::new(WorkModel::default(), m);
        assert_eq!(ctx.bytes_in(), 6);
        let deser = 6.0 * ctx.work_model().deser_secs_per_byte;
        assert!(
            (ctx.cpu_secs() - deser).abs() < 1e-15,
            "deser for fetched blocks is charged at construction"
        );
        let blocks = ctx.shuffle_input(ShuffleId(0));
        assert_eq!(blocks.len(), 2);
    }

    /// A two-input context hands each shuffle its own run, in any order,
    /// and the last run taken is the remaining list itself.
    #[test]
    fn split_runs_hand_each_shuffle_its_blocks() {
        let block = |b: &'static [u8]| Bytes::from_static(b);
        let blocks = vec![block(b"a1"), block(b"a2"), block(b"b1")];
        let runs = Runs::Split(vec![(ShuffleId(3), 2), (ShuffleId(4), 0), (ShuffleId(5), 1)]);
        let mut ctx = TaskContext::fetched(WorkModel::default(), blocks, runs);
        assert_eq!(ctx.bytes_in(), 6);
        assert_eq!(ctx.shuffle_input(ShuffleId(5)), vec![block(b"b1")]);
        assert!(ctx.shuffle_input(ShuffleId(4)).is_empty());
        let last = ctx.blocks.as_ptr();
        let a = ctx.shuffle_input(ShuffleId(3));
        assert_eq!(a, vec![block(b"a1"), block(b"a2")]);
        assert_eq!(a.as_ptr(), last, "the last run is handed over, not copied");
    }

    #[test]
    #[should_panic(expected = "not fetched")]
    fn a_run_is_taken_once() {
        let mut ctx =
            TaskContext::fetched(WorkModel::default(), Vec::new(), Runs::Whole(ShuffleId(1)));
        assert!(ctx.shuffle_input(ShuffleId(1)).is_empty());
        ctx.shuffle_input(ShuffleId(1));
    }

    #[test]
    #[should_panic(expected = "not fetched")]
    fn missing_shuffle_input_panics() {
        let mut ctx = TaskContext::empty(WorkModel::default());
        ctx.shuffle_input(ShuffleId(9));
    }
}

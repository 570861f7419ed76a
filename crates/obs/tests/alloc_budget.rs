//! Allocation budgets of the recording path: what a span and a handle
//! record cost on the heap once a run's series exist.
//!
//! Heap allocations are counted per thread by the workspace's shared
//! counting allocator (`tests/support/counting_alloc.rs`), so a count is a
//! pure function of the calls made: it repeats exactly from run to run,
//! whatever else the test harness is doing.

use splitserve_des::SimTime;
use splitserve_obs::Obs;
use splitserve_rt::intern::Interned;

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocs_in;

const N: u64 = 10_000;

/// The engine's shape of a span: an executor kind's label as the lane, an
/// interned executor id as the track, a static name and one annotation
/// whose value was formatted by the caller. Lane, track and name are
/// stored as the pointers they are and the value is moved in, so a span
/// costs its annotation list and the span table's doublings, nothing
/// else.
#[test]
fn a_span_allocates_only_its_annotation_list() {
    let obs = Obs::enabled();
    let tracks: Vec<&'static str> = (0..16)
        .map(|i| Interned::new(&format!("exec-{i:04}")).as_str())
        .collect();
    let values: Vec<String> = (0..N).map(|i| format!("{}", i % 7)).collect();
    let ((), allocs) = allocs_in(|| {
        for (i, value) in (0..N).zip(values) {
            let at = SimTime::from_micros(i);
            let track = tracks[i as usize % tracks.len()];
            let id = obs.spans.open(at, "vm", track, "shuffle fetch");
            obs.spans.annotate(id, "stage", value);
            obs.spans.close(id, at);
        }
    });
    assert!(allocs <= N + 64, "{allocs} allocations for {N} spans");
    let spans = obs.spans.finished_spans();
    assert_eq!(spans.len() as u64, N);
    assert_eq!(
        (spans[9].lane, spans[9].track, &*spans[9].name),
        ("vm", "exec-0009", "shuffle fetch")
    );
}

/// Counter, histogram, quantile and rollup records through handles
/// resolved at wiring time: once the digest's buckets exist, a record
/// allocates nothing.
#[test]
fn a_handle_record_allocates_nothing_after_warm_up() {
    let obs = Obs::enabled();
    let labels = [("kind", "vm")];
    let counter = obs.metrics.counter_handle("tasks_completed_total", &labels);
    let histogram = obs.metrics.histogram_handle("task_cpu_seconds", &labels);
    let quantile = obs.metrics.quantile_handle("task_run_seconds", &labels);
    let rollup = obs.rollups.handle("task_run_seconds", &labels);
    let record = |i: u64| {
        let secs = (i % 100) as f64 * 1e-3;
        counter.inc();
        histogram.observe(secs);
        quantile.record(secs);
        rollup.record(SimTime::from_millis(i), secs);
    };
    (0..N).for_each(&record);
    let ((), allocs) = allocs_in(|| (0..N).for_each(&record));
    assert_eq!(allocs, 0, "{allocs} allocations for {N} records of each kind");
    assert_eq!(
        obs.metrics.counter_value("tasks_completed_total", &labels),
        2 * N
    );
}

//! The `store_*` series are recorded where the engine hears each store
//! request land: per-op latency from request to answer, an `ok` or `err`
//! outcome, and the bytes an `Ok` moved. Over a bare store they agree with
//! the store's own counters; under the fault decorator, injected errors and
//! injected latency count like organic ones.

use std::cell::RefCell;
use std::rc::Rc;

use splitserve_des::{Fabric, Sim, SimDuration, SimTime};
use splitserve_engine::{
    collect_partitions, Dataset, Engine, EngineConfig, ExecutorDesc, JobOutput,
};
use splitserve_obs::{MetricsRegistry, Obs};
use splitserve_storage::{FaultStore, LocalDiskStore, SharedStore, StoreFaults};

/// An obs-enabled engine over `store` with three VM executors whose NIC
/// and disk links carry `link_bps`.
fn rig(store: impl FnOnce(&Fabric) -> SharedStore, link_bps: f64) -> (Sim, Engine) {
    let fabric = Fabric::new();
    let cfg = EngineConfig {
        obs: Obs::enabled(),
        ..EngineConfig::default()
    };
    let engine = Engine::new(cfg, store(&fabric));
    let mut sim = Sim::new(5);
    for i in 0..3 {
        let nic = fabric.add_link(link_bps, format!("nic-{i}"));
        let disk = fabric.add_link(link_bps, format!("disk-{i}"));
        engine.register_executor(
            &mut sim,
            ExecutorDesc::vm(format!("e-vm-{i}"), nic, disk, 8192),
        );
    }
    (sim, engine)
}

fn local_disk(fabric: &Fabric) -> SharedStore {
    Rc::new(LocalDiskStore::new(fabric.clone()))
}

/// Runs a 6 × 3 shuffle job to completion, killing `e-vm-1` at `kill_at`
/// when given, and checks its result.
fn run_job(sim: &mut Sim, engine: &Engine, kill_at: Option<SimTime>) -> JobOutput {
    let ds = Dataset::parallelize((0..3_000u64).map(|i| (i % 30, 1u64)).collect(), 6)
        .reduce_by_key(3, |a, b| a + b);
    let slot: Rc<RefCell<Option<JobOutput>>> = Rc::new(RefCell::new(None));
    let s = Rc::clone(&slot);
    engine.submit_job(sim, ds.node(), move |_, out| *s.borrow_mut() = Some(out));
    if let Some(at) = kill_at {
        let engine = engine.clone();
        sim.schedule_at(at, move |sim| engine.kill_executor(sim, &"e-vm-1".into()));
    }
    sim.run();
    let out = slot.borrow_mut().take().expect("the job completes");
    let rows = collect_partitions::<(u64, u64)>(out.partitions.clone());
    assert!(
        rows.len() == 30 && rows.iter().all(|(_, n)| *n == 100),
        "results stay exact"
    );
    out
}

fn ops(m: &MetricsRegistry, op: &str, outcome: &str) -> u64 {
    let labels = [("store", "local-disk"), ("op", op), ("outcome", outcome)];
    m.counter_value("store_ops_total", &labels)
}

fn bytes(m: &MetricsRegistry, name: &str) -> u64 {
    m.counter_value(name, &[("store", "local-disk")])
}

#[test]
fn put_get_record_latency_bytes_and_outcomes() {
    let (mut sim, engine) = rig(local_disk, 1e5);
    run_job(&mut sim, &engine, None);
    let (m, stats) = (&engine.obs().metrics, engine.store().stats());
    assert!(stats.puts > 0 && stats.gets > 0);
    assert_eq!((ops(m, "put", "ok"), ops(m, "put", "err")), (stats.puts, 0));
    assert_eq!((ops(m, "get", "ok"), ops(m, "get", "err")), (stats.gets, 0));
    assert_eq!(bytes(m, "store_bytes_written_total"), stats.bytes_in);
    assert_eq!(bytes(m, "store_bytes_read_total"), stats.bytes_out);
    for (op, n) in [("put", stats.puts), ("get", stats.gets)] {
        let h = m
            .histogram("store_op_seconds", &[("store", "local-disk"), ("op", op)])
            .expect("latency recorded");
        assert_eq!(h.count, n);
        assert!(h.sum > 0.0, "a disk round trip takes simulated time");
    }
    assert_eq!(bytes(m, "store_executor_losses_total"), 0);
}

/// A kill while reducers fetch from the dead executor's disk: the gets it
/// can no longer serve fail organically, each counts as `err` and moves no
/// bytes, and the store hears of the loss once.
#[test]
fn failed_get_counts_as_err() {
    let (mut sim, engine) = rig(local_disk, 1e5);
    run_job(
        &mut sim,
        &engine,
        Some(SimTime::from_millis(KILL_MID_FETCH_MS)),
    );
    let (m, stats) = (&engine.obs().metrics, engine.store().stats());
    assert!(stats.failed_gets > 0, "the kill must strike fetches");
    assert_eq!(ops(m, "get", "err"), stats.failed_gets);
    assert_eq!(ops(m, "get", "ok"), stats.gets);
    assert_eq!(bytes(m, "store_bytes_read_total"), stats.bytes_out);
    assert_eq!(bytes(m, "store_executor_losses_total"), 1);
}

/// When `e-vm-1` is killed in [`failed_get_counts_as_err`]: inside the
/// reduce stage's fetch phase on 100 kB/s links.
const KILL_MID_FETCH_MS: u64 = 42;

fn faulty(faults: StoreFaults) -> impl FnOnce(&Fabric) -> SharedStore {
    move |fabric| FaultStore::wrap(local_disk(fabric), faults)
}

/// An injected put failure is an ordinary `err` outcome that wrote
/// nothing: the store never saw the put.
#[test]
fn injected_errors_count_as_err_outcomes() {
    let faults = StoreFaults::new();
    faults.fail_nth_put(1);
    faults.fail_nth_get(2);
    let (mut sim, engine) = rig(faulty(faults.clone()), 1e9);
    run_job(&mut sim, &engine, None);
    assert_eq!((faults.puts_failed(), faults.gets_failed()), (1, 1));
    let (m, stats) = (&engine.obs().metrics, engine.store().stats());
    assert_eq!((ops(m, "put", "ok"), ops(m, "put", "err")), (stats.puts, 1));
    assert_eq!((ops(m, "get", "ok"), ops(m, "get", "err")), (stats.gets, 1));
    assert_eq!(bytes(m, "store_bytes_written_total"), stats.bytes_in);
    assert_eq!(bytes(m, "store_bytes_read_total"), stats.bytes_out);
}

/// Injected latency is measured like organic slowness: with every op held
/// back 3 s, every op's recorded latency includes the 3 s.
#[test]
fn injected_latency_is_measured() {
    let faults = StoreFaults::new();
    let hold = SimDuration::from_secs(3);
    faults.add_latency_window(SimTime::ZERO, SimTime::from_secs(600), hold);
    let (mut sim, engine) = rig(faulty(faults), 1e9);
    run_job(&mut sim, &engine, None);
    let m = &engine.obs().metrics;
    for op in ["put", "get"] {
        let digest = m
            .quantile_digest("store_op_seconds", &[("store", "local-disk"), ("op", op)])
            .expect("latency recorded");
        assert_eq!(digest.count(), ops(m, op, "ok"));
        let fastest = digest.min().expect("not empty");
        assert!(
            fastest >= 3.0,
            "{op} latency must include the injected 3 s (got {fastest})"
        );
    }
}

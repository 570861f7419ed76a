//! The parallel data plane's contract: virtual-time results are
//! **byte-identical at any worker count**. The scheduler keeps its
//! deterministic event order; only wall-clock changes when task bodies
//! move to the worker-thread pool (see DESIGN.md "Parallel task data
//! plane"). These tests pin that contract four ways:
//!
//! 1. Same seed at `workers` = 1, 2 and 8 → identical job outputs,
//!    identical engine event logs, and byte-identical serialized shuffle
//!    blocks (captured at the store boundary).
//! 2. The Prometheus exposition too: what task bodies measure rides
//!    their result to the simulation thread, so even the `f64` sum of
//!    `shuffle_combine_seconds` over uneven map tasks is the
//!    `workers = 1` text byte for byte on every one of 40 pooled runs.
//! 3. A 16-seed fault-plan sweep at `workers` = 4 passes the differential
//!    chaos oracle — parallel execution changes nothing the fault plane
//!    can observe.
//! 4. A kill-time sweep across the driver-dispatch window: an executor
//!    dying between task selection and launch must requeue the task (the
//!    dispatch path once held an `.expect("dispatch picked a live
//!    executor")`), never panic, and still produce exact results.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use splitserve_chaos::workloads::ChaosPageRank;
use splitserve_chaos::{run_case, ChaosTopology, FaultPlan, Oracle};
use splitserve_des::{Fabric, Sim, SimTime};
use splitserve_engine::{
    collect_partitions, Dataset, Engine, EngineConfig, EngineEvent, ExecutorDesc, JobOutput,
};
use splitserve_rt::Bytes;
use splitserve_storage::{
    BlockId, BlockStore, ClientLoc, GetCallback, LocalDiskStore, PutCallback, StoreStats,
};

/// Wraps a [`LocalDiskStore`] and snapshots every written block, so a
/// run's serialized shuffle output can be compared byte-for-byte.
struct RecordingStore {
    inner: LocalDiskStore,
    puts: Rc<RefCell<BTreeMap<String, Vec<u8>>>>,
}

impl BlockStore for RecordingStore {
    fn kind(&self) -> &'static str {
        self.inner.kind()
    }
    fn survives_executor_loss(&self) -> bool {
        self.inner.survives_executor_loss()
    }
    fn put(&self, sim: &mut Sim, client: ClientLoc, block: BlockId, data: Bytes, cb: PutCallback) {
        self.puts
            .borrow_mut()
            .insert(block.to_string(), data.to_vec());
        self.inner.put(sim, client, block, data, cb);
    }
    fn get(&self, sim: &mut Sim, client: ClientLoc, block: BlockId, cb: GetCallback) {
        self.inner.get(sim, client, block, cb);
    }
    fn on_executor_lost(&self, sim: &mut Sim, executor: &str) {
        self.inner.on_executor_lost(sim, executor);
    }
    fn register_executor(&self, executor: &str, loc: ClientLoc) {
        BlockStore::register_executor(&self.inner, executor, loc);
    }
    fn forget_shuffle(&self, shuffle: u64) {
        self.inner.forget_shuffle(shuffle);
    }
    fn contains(&self, block: &BlockId) -> bool {
        self.inner.contains(block)
    }
    fn stats(&self) -> StoreStats {
        self.inner.stats()
    }
}

/// One run's complete observable footprint.
struct Footprint {
    rows: Vec<(u64, u64)>,
    events: Vec<EngineEvent>,
    blocks: BTreeMap<String, Vec<u8>>,
    exec_secs: f64,
    /// Canonical bytes of the run's quantile digests, including
    /// `shuffle_combine_seconds`, which task bodies measure.
    digest_bytes: Vec<u8>,
    /// The full Prometheus exposition of the run's registry.
    prometheus: String,
    /// The run's spans as a Chrome trace, and its windowed rollups.
    chrome_trace: String,
    rollups: String,
}

/// Runs `plan` (shared across calls so shuffle ids coincide) on a fresh
/// rig of `execs` VM executors with the given worker count and captures
/// everything.
fn run_with_workers(plan: &Dataset<(u64, u64)>, execs: usize, workers: usize) -> Footprint {
    let fabric = Fabric::new();
    let puts = Rc::new(RefCell::new(BTreeMap::new()));
    let store = Rc::new(RecordingStore {
        inner: LocalDiskStore::new(fabric.clone()),
        puts: Rc::clone(&puts),
    });
    let obs = splitserve_obs::Obs::enabled();
    let cfg = EngineConfig {
        workers,
        obs: obs.clone(),
        ..EngineConfig::default()
    };
    let engine = Engine::new(cfg, store);
    let mut sim = Sim::new(7);
    for i in 0..execs {
        let nic = fabric.add_link(1e9, format!("nic-{i}"));
        let disk = fabric.add_link(1e9, format!("disk-{i}"));
        engine.register_executor(&mut sim, ExecutorDesc::vm(format!("e-vm-{i}"), nic, disk, 8192));
    }
    let slot: Rc<RefCell<Option<JobOutput>>> = Rc::new(RefCell::new(None));
    let s = Rc::clone(&slot);
    engine.submit_job(&mut sim, plan.node(), move |_, out| {
        *s.borrow_mut() = Some(out);
    });
    sim.run();
    let out = slot.borrow_mut().take().expect("job completes");
    let blocks = puts.borrow().clone();
    let mut digest_bytes = Vec::new();
    for (name, labels) in [
        ("shuffle_combine_seconds", &[][..]),
        ("task_run_seconds", &[("kind", "vm")][..]),
        ("job_execution_seconds", &[][..]),
    ] {
        let d = obs
            .metrics
            .quantile_digest(name, labels)
            .unwrap_or_else(|| panic!("digest {name} must be populated"));
        digest_bytes.extend_from_slice(name.as_bytes());
        digest_bytes.extend_from_slice(&d.canonical_bytes());
    }
    Footprint {
        rows: collect_partitions::<(u64, u64)>(out.partitions),
        events: engine.event_log().snapshot(),
        blocks,
        exec_secs: out.metrics.execution_time().as_secs_f64(),
        digest_bytes,
        prometheus: obs.metrics.render_prometheus(),
        chrome_trace: obs.spans.to_chrome_trace(),
        rollups: obs.rollups.to_json(),
    }
}

/// A three-stage aggregation whose map, combine+encode and decode+merge
/// bodies all cross the worker pool.
fn three_stage_plan() -> Dataset<(u64, u64)> {
    Dataset::parallelize((0..20_000u64).map(|i| (i % 64, 1u64)).collect(), 8)
        .reduce_by_key(4, |a, b| a + b)
        .map(|(k, v)| (k % 8, *v))
        .reduce_by_key(4, |a, b| a + b)
}

#[test]
fn worker_count_never_changes_bytes_events_or_rows() {
    // One shared plan instance: shuffle/block ids coincide across runs,
    // so the block maps are comparable key-by-key.
    let plan = three_stage_plan();
    let base = run_with_workers(&plan, 4, 1);
    assert_eq!(base.rows.len(), 8);
    assert!(!base.blocks.is_empty(), "plan must write shuffle blocks");
    for workers in [2, 8] {
        let got = run_with_workers(&plan, 4, workers);
        assert_eq!(got.rows, base.rows, "rows differ at workers={workers}");
        assert_eq!(
            got.events, base.events,
            "event log differs at workers={workers}"
        );
        assert_eq!(
            got.exec_secs.to_bits(),
            base.exec_secs.to_bits(),
            "virtual duration differs at workers={workers}"
        );
        assert_eq!(
            got.digest_bytes, base.digest_bytes,
            "quantile-digest snapshot differs at workers={workers}"
        );
        assert_eq!(
            got.prometheus, base.prometheus,
            "Prometheus text differs at workers={workers}"
        );
        assert_eq!(
            got.chrome_trace, base.chrome_trace,
            "Chrome trace differs at workers={workers}"
        );
        assert_eq!(got.rollups, base.rollups, "rollups differ at workers={workers}");
        assert_eq!(
            got.blocks.len(),
            base.blocks.len(),
            "block count differs at workers={workers}"
        );
        for (name, bytes) in &base.blocks {
            assert_eq!(
                got.blocks.get(name).map(|b| &b[..]),
                Some(&bytes[..]),
                "block {name} differs at workers={workers}"
            );
        }
    }
}

#[test]
fn prometheus_text_of_uneven_combines_is_the_one_worker_text() {
    // 64 map tasks of uneven size: their combine seconds differ, so the
    // histogram's `f64` sum depends on the order they are added in —
    // thread-arrival order if bodies recorded for themselves.
    let plan = Dataset::generate(64, |p| {
        (0..1000 + 137 * p as u64).map(|i| (i % 64, 1u64)).collect()
    })
    .reduce_by_key(8, |a, b| a + b);
    let base = run_with_workers(&plan, 8, 1).prometheus;
    assert!(base.contains("shuffle_combine_seconds_sum"));
    for run in 0..40 {
        let got = run_with_workers(&plan, 8, 4).prometheus;
        assert_eq!(got, base, "workers=4 run {run} renders another text");
    }
}

#[test]
fn chaos_sweep_at_four_workers_passes_the_differential_oracle() {
    let topo = ChaosTopology { workers: 4 };
    let w = ChaosPageRank::small();
    let oracle = Oracle::new(&w, topo);
    for seed in 0..16 {
        let plan = FaultPlan::generate(seed);
        if let Err(f) = oracle.check(&plan) {
            panic!("workers=4 chaos sweep failed at seed {seed}: {f}");
        }
    }
}

#[test]
fn chaos_case_results_match_across_worker_counts() {
    // The same fault plan at workers=1 and workers=4 must tell exactly
    // the same story: fingerprint, rollbacks, fault tallies, timeline.
    let w = ChaosPageRank::small();
    for seed in [0u64, 5, 11] {
        let plan = FaultPlan::generate(seed);
        let run = |workers: usize| {
            let topo = ChaosTopology { workers };
            run_case(&w, splitserve::ShuffleStoreKind::Local, Some(&plan), &topo)
        };
        let a = run(1);
        let b = run(4);
        assert_eq!(a.fingerprint, b.fingerprint, "seed {seed}");
        assert_eq!(a.completed_at, b.completed_at, "seed {seed}");
        assert_eq!(a.rollbacks, b.rollbacks, "seed {seed}");
        assert_eq!(a.recomputed, b.recomputed, "seed {seed}");
        assert_eq!(a.kills, b.kills, "seed {seed}");
        assert_eq!(a.fetch_faults, b.fetch_faults, "seed {seed}");
    }
}

#[test]
fn kill_inside_the_dispatch_window_requeues_instead_of_panicking() {
    // Sweep the kill across every millisecond of the early dispatch
    // window (the driver serializes launches 4 ms apart, so this
    // covers selection-to-launch gaps at every alignment), at both
    // worker settings. The job must always complete with exact results.
    for workers in [1usize, 4] {
        for kill_ms in 0..30u64 {
            let fabric = Fabric::new();
            let store = Rc::new(LocalDiskStore::new(fabric.clone()));
            let cfg = EngineConfig {
                workers,
                ..EngineConfig::default()
            };
            let engine = Engine::new(cfg, store);
            let mut sim = Sim::new(7);
            for i in 0..2 {
                let nic = fabric.add_link(1e9, format!("nic-{i}"));
                let disk = fabric.add_link(1e9, format!("disk-{i}"));
                engine.register_executor(
                    &mut sim,
                    ExecutorDesc::vm(format!("e-vm-{i}"), nic, disk, 8192),
                );
            }
            let ds = Dataset::parallelize((0..2_000u64).map(|i| (i % 20, 1u64)).collect(), 6)
                .reduce_by_key(2, |a, b| a + b);
            let slot: Rc<RefCell<Option<JobOutput>>> = Rc::new(RefCell::new(None));
            let s = Rc::clone(&slot);
            engine.submit_job(&mut sim, ds.node(), move |_, out| {
                *s.borrow_mut() = Some(out);
            });
            let e = engine.clone();
            sim.schedule_at(SimTime::from_millis(kill_ms), move |sim| {
                e.kill_executor(sim, &"e-vm-1".into());
            });
            sim.run();
            let out = slot
                .borrow_mut()
                .take()
                .unwrap_or_else(|| panic!("job died: kill at {kill_ms} ms, workers={workers}"));
            let mut rows = collect_partitions::<(u64, u64)>(out.partitions);
            rows.sort();
            assert_eq!(rows.len(), 20, "kill at {kill_ms} ms, workers={workers}");
            assert!(
                rows.iter().all(|(_, c)| *c == 100),
                "wrong counts: kill at {kill_ms} ms, workers={workers}"
            );
        }
    }
}

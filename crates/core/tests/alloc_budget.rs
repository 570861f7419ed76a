//! Allocation budgets of whole runs through a `Deployment`.
//!
//! Observability adds no heap allocation to a store round trip: a shuffle
//! job through a `Deployment` with `Obs::enabled()` allocates, between a
//! store answering and the engine asking for its next block, no more than
//! the same job with obs disabled.
//!
//! A probe decorator sits directly over the built store (through
//! `Deployment::with_wrapped_store`) and times nothing but allocation
//! calls: it opens a window when it hands an answer up and closes it when
//! the next request reaches it from inside that answer. Whatever sits
//! between the probe and the engine, and the engine's own landing, is in
//! the window. The first job warms every table; the second is measured.
//! The `store_op_seconds` digests are warmed too, with a value in every
//! bucket a latency could fall in: a digest allocates when it meets a new
//! bucket, wherever it is recorded from, and that growth is bounded by the
//! bucket count, not paid per request.
//!
//! Heap allocations are counted per thread by the workspace's shared
//! counting allocator (`tests/support/counting_alloc.rs`), so a count is a
//! pure function of the code under it.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use splitserve::tenancy::{
    default_fleet_jobs, default_tenant_specs, fleet_workload, run_tenant_fleet, FleetPolicy,
    TenantFleetConfig,
};
use splitserve::{Deployment, ShuffleStoreKind};
use splitserve_cloud::{CloudSpec, M4_XLARGE};
use splitserve_des::Sim;
use splitserve_engine::{collect_partitions, Dataset, EngineConfig};
use splitserve_obs::Obs;
use splitserve_rt::Bytes;
use splitserve_storage::{
    BlockId, BlockStore, ClientLoc, GetCallback, PutCallback, SharedStore, StoreClient, StoreStats,
};

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocs;

/// What the probe saw: the window open since an answer went up (the
/// allocation count then), and over the requests that closed one, their
/// number and the allocations made inside their windows.
#[derive(Default)]
struct Tally {
    open: Cell<Option<u64>>,
    measuring: Cell<bool>,
    round_trips: Cell<u64>,
    allocs: Cell<u64>,
}

impl Tally {
    /// Hands an answer up inside a window.
    fn deliver(&self, answer: impl FnOnce()) {
        self.open.set(Some(allocs()));
        answer();
        self.open.set(None);
    }

    /// A request reached the probe: if it came from inside an answer, the
    /// window closes and counts.
    fn arrived(&self) {
        if let Some(since) = self.open.take() {
            if self.measuring.get() {
                self.round_trips.set(self.round_trips.get() + 1);
                self.allocs
                    .set(self.allocs.get() + allocs() - since);
            }
        }
    }
}

/// Forwards every call to the built store, answering each request through
/// a [`Tally`] window. It converts typed requests to callbacks below
/// itself, so both forms reach the store the same way; its own box is
/// made after the window closes.
struct Probe {
    inner: SharedStore,
    tally: Rc<Tally>,
}

impl BlockStore for Probe {
    fn kind(&self) -> &'static str {
        self.inner.kind()
    }

    fn survives_executor_loss(&self) -> bool {
        self.inner.survives_executor_loss()
    }

    fn put(&self, sim: &mut Sim, client: ClientLoc, block: BlockId, data: Bytes, cb: PutCallback) {
        self.tally.arrived();
        let tally = Rc::clone(&self.tally);
        let cb: PutCallback = Box::new(move |sim, r| tally.deliver(|| cb(sim, r)));
        self.inner.put(sim, client, block, data, cb);
    }

    fn get(&self, sim: &mut Sim, client: ClientLoc, block: BlockId, cb: GetCallback) {
        self.tally.arrived();
        let tally = Rc::clone(&self.tally);
        let cb: GetCallback = Box::new(move |sim, r| tally.deliver(|| cb(sim, r)));
        self.inner.get(sim, client, block, cb);
    }

    fn put_to(
        &self,
        sim: &mut Sim,
        client: ClientLoc,
        block: BlockId,
        data: Bytes,
        to: Rc<dyn StoreClient>,
        token: u64,
    ) {
        self.tally.arrived();
        let tally = Rc::clone(&self.tally);
        let cb: PutCallback =
            Box::new(move |sim, r| tally.deliver(|| to.put_landed(sim, token, r)));
        self.inner.put(sim, client, block, data, cb);
    }

    fn get_to(
        &self,
        sim: &mut Sim,
        client: ClientLoc,
        block: BlockId,
        to: Rc<dyn StoreClient>,
        token: u64,
    ) {
        self.tally.arrived();
        let tally = Rc::clone(&self.tally);
        let cb: GetCallback =
            Box::new(move |sim, r| tally.deliver(|| to.get_landed(sim, token, r)));
        self.inner.get(sim, client, block, cb);
    }

    fn on_executor_lost(&self, sim: &mut Sim, executor: &str) {
        self.inner.on_executor_lost(sim, executor)
    }

    fn register_executor(&self, executor: &str, loc: ClientLoc) {
        self.inner.register_executor(executor, loc)
    }

    fn forget_shuffle(&self, shuffle: u64) {
        self.inner.forget_shuffle(shuffle)
    }

    fn contains(&self, block: &BlockId) -> bool {
        self.inner.contains(block)
    }

    fn stats(&self) -> StoreStats {
        self.inner.stats()
    }
}

/// Runs a 12 × 12 shuffle job twice on four HDFS-backed VM executors and
/// returns the second job's `(round trips, allocations)`.
fn measured_round_trips(obs: Obs) -> (u64, u64) {
    let tally = Rc::new(Tally::default());
    let probe_tally = Rc::clone(&tally);
    // A value in every bucket from 1 ns to 1000 s (steps finer than the
    // digest's 2 % buckets), so no store latency meets a new one.
    for op in ["put", "get"] {
        let digest = obs
            .metrics
            .quantile_handle("store_op_seconds", &[("store", "hdfs"), ("op", op)]);
        let mut secs = 1e-9;
        while secs < 1e3 {
            digest.record(secs);
            secs *= 1.005;
        }
    }
    let mut sim = Sim::new(9);
    let cfg = EngineConfig {
        obs,
        ..EngineConfig::default()
    };
    let d = Deployment::with_wrapped_store(
        &mut sim,
        CloudSpec::default(),
        ShuffleStoreKind::Hdfs,
        M4_XLARGE,
        cfg,
        move |inner| {
            Rc::new(Probe {
                inner,
                tally: probe_tally,
            })
        },
    );
    d.add_vm_workers(&mut sim, M4_XLARGE, 4);
    for measuring in [false, true] {
        tally.measuring.set(measuring);
        // A fresh plan each time: a resubmitted one would skip its map stage.
        let ds = Dataset::parallelize((0..12_000u64).map(|i| (i % 600, 1u64)).collect(), 12)
            .reduce_by_key(12, |a, b| a + b);
        let rows = Rc::new(RefCell::new(Vec::new()));
        let out = Rc::clone(&rows);
        d.engine().submit_job(&mut sim, ds.node(), move |_, job| {
            *out.borrow_mut() = collect_partitions::<(u64, u64)>(job.partitions);
        });
        sim.run();
        assert_eq!(rows.borrow().len(), 600, "the job completes");
    }
    (tally.round_trips.get(), tally.allocs.get())
}

#[test]
fn observability_adds_no_allocation_to_a_store_round_trip() {
    let (trips_off, allocs_off) = measured_round_trips(Obs::disabled());
    let (trips_on, allocs_on) = measured_round_trips(Obs::enabled());
    println!("obs off: {allocs_off} allocations in {trips_off} round trips");
    println!("obs on:  {allocs_on} allocations in {trips_on} round trips");
    // Past the window of eight, each of a task's twelve requests is asked
    // for from inside an answer: four per task, 24 tasks.
    assert_eq!(trips_off, 96);
    assert_eq!(trips_on, trips_off, "obs changes no request");
    assert!(
        allocs_on <= allocs_off,
        "obs on allocates {allocs_on} in {trips_on} store round trips, obs off {allocs_off}"
    );
}

/// Jobs of the reduced fleet: 20 tenants at the default fleet's job
/// density.
const FLEET_JOBS: usize = 1_000;

/// Allocations per job of the reduced SplitServe fleet, whole run (38 280
/// for 1 006 jobs). 39.25 → 38.06 when the allocator's tick became a
/// typed event re-arming one handler instead of a boxed closure per tick
/// (1 202 ticks). 44.84 → 39.25 when a stage's narrow operators began
/// streaming their rows to its sink: no partition and no `Arc` between a
/// map task's operators, and one map-task closure per shuffle. 52.73 →
/// 44.84 when the stage cut stopped allocating
/// scratch and storing parent lists, the map-output tracker kept one size
/// table per shuffle instead of a list per map task, the job output
/// reused its result slots and the allocator's tick its snapshot. 67.53
/// when each map task also allocated its scratch lists and one block per
/// bucket, each reduce task a map of its inputs and a list per shuffle,
/// and every combine table its own index.
const FLEET_ALLOCS_PER_JOB: f64 = 38.06;

/// Every allocation of one reduced SplitServe fleet run, made on a thread
/// of its own, so each run starts from an empty scratch pool.
fn fleet_allocs() -> (u64, usize) {
    std::thread::spawn(|| {
        let tenants = default_tenant_specs(20);
        let jobs = default_fleet_jobs(&tenants, 11, FLEET_JOBS, 600.0);
        let cfg = TenantFleetConfig::for_policy(FleetPolicy::SplitServe, tenants, 8);
        let (workload, sink) = fleet_workload(8);
        let before = allocs();
        let outcome = run_tenant_fleet(&cfg, &jobs, workload);
        let allocs = allocs() - before;
        assert_eq!(outcome.outcomes.len(), jobs.len(), "every job completes");
        assert_eq!(sink.borrow().len(), jobs.len(), "every job reports its rows");
        (allocs, jobs.len())
    })
    .join()
    .expect("fleet thread")
}

/// The per-job heap churn of a fleet run, most of it task bodies and their
/// shuffle hand-offs: a reduced fleet of the `fleet` benchmark workload's
/// shape, under SplitServe's policy. The first run in a process also fills
/// the process-wide name interner, so it is not the one measured.
#[test]
fn a_fleet_job_stays_within_its_allocation_budget() {
    fleet_allocs();
    let (allocs, jobs) = fleet_allocs();
    assert_eq!(fleet_allocs(), (allocs, jobs), "allocation counts repeat exactly");
    let per_job = allocs as f64 / jobs as f64;
    println!("fleet: {allocs} allocations for {jobs} jobs, {per_job:.2} per job");
    assert!(
        per_job <= FLEET_ALLOCS_PER_JOB,
        "{per_job:.2} allocations per fleet job; the budget is {FLEET_ALLOCS_PER_JOB}"
    );
}

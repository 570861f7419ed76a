//! The benchmark's `BlockStore` decorator: times each synchronous `put` and
//! `get` call into the store model (host time — the model's own
//! bookkeeping, not the virtual latency it simulates) and reports it to the
//! tracer as a leaf. Installed only in the traced pass, through the `wrap`
//! seam of `run_tenant_fleet_with` / `Deployment::with_wrapped_store`.

use std::rc::Rc;

use splitserve_des::Sim;
use splitserve_rt::Bytes;
use splitserve_storage::{
    BlockId, BlockStore, ClientLoc, GetCallback, PutCallback, SharedStore, StoreStats,
};

use crate::trace::Tracer;

pub struct TimedStore {
    inner: SharedStore,
    tracer: Rc<Tracer>,
}

impl TimedStore {
    pub fn wrap(inner: SharedStore, tracer: Rc<Tracer>) -> SharedStore {
        Rc::new(TimedStore { inner, tracer })
    }
}

impl BlockStore for TimedStore {
    fn kind(&self) -> &'static str {
        self.inner.kind()
    }

    fn survives_executor_loss(&self) -> bool {
        self.inner.survives_executor_loss()
    }

    fn put(&self, sim: &mut Sim, client: ClientLoc, block: BlockId, data: Bytes, cb: PutCallback) {
        self.tracer.time_leaf("storage.put", || {
            self.inner.put(sim, client, block, data, cb)
        });
    }

    fn get(&self, sim: &mut Sim, client: ClientLoc, block: BlockId, cb: GetCallback) {
        self.tracer
            .time_leaf("storage.get", || self.inner.get(sim, client, block, cb));
    }

    fn on_executor_lost(&self, sim: &mut Sim, executor: &str) {
        self.inner.on_executor_lost(sim, executor);
    }

    fn register_executor(&self, executor: &str, loc: ClientLoc) {
        self.inner.register_executor(executor, loc);
    }

    fn contains(&self, block: &BlockId) -> bool {
        self.inner.contains(block)
    }

    fn stats(&self) -> StoreStats {
        self.inner.stats()
    }
}

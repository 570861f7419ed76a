//! Metrics middleware over any [`BlockStore`].
//!
//! [`InstrumentedStore`] is a decorator: it forwards every call to the
//! wrapped store and records, on a shared
//! [`MetricsRegistry`](splitserve_obs::MetricsRegistry):
//!
//! - `store_op_seconds{store,op}` — per-operation latency histogram in
//!   simulated seconds, measured from the request to its continuation;
//! - `store_bytes_written_total{store}` / `store_bytes_read_total{store}`
//!   — payload bytes that actually moved;
//! - `store_ops_total{store,op,outcome}` — request counts by outcome.
//!
//! Wrapping is free when observability is off: [`InstrumentedStore::wrap`]
//! returns the inner store untouched for a disabled registry, so the hot
//! path gains no virtual-dispatch hop.

use std::rc::Rc;

use splitserve_des::Sim;
use splitserve_obs::{CounterHandle, HistogramHandle, MetricsRegistry, QuantileHandle};
use splitserve_rt::Bytes;

use crate::api::{BlockId, BlockStore, ClientLoc, GetCallback, PutCallback, StoreStats};
use crate::SharedStore;

/// Pre-resolved series for one operation (`put` or `get`): the op runs on
/// the data path of every task, so its metric keys are built once at wrap
/// time, not per request.
#[derive(Debug, Clone)]
struct OpHandles {
    seconds_hist: HistogramHandle,
    seconds_quant: QuantileHandle,
    ok: CounterHandle,
    err: CounterHandle,
    /// `store_bytes_written_total` for puts, `store_bytes_read_total` for
    /// gets.
    bytes: CounterHandle,
}

impl OpHandles {
    fn resolve(metrics: &MetricsRegistry, kind: &'static str, op: &'static str) -> Self {
        let labels = [("store", kind), ("op", op)];
        let bytes_name = match op {
            "put" => "store_bytes_written_total",
            _ => "store_bytes_read_total",
        };
        OpHandles {
            seconds_hist: metrics.histogram_handle("store_op_seconds", &labels),
            seconds_quant: metrics.quantile_handle("store_op_seconds", &labels),
            ok: metrics.counter_handle(
                "store_ops_total",
                &[("store", kind), ("op", op), ("outcome", "ok")],
            ),
            err: metrics.counter_handle(
                "store_ops_total",
                &[("store", kind), ("op", op), ("outcome", "err")],
            ),
            bytes: metrics.counter_handle(bytes_name, &[("store", kind)]),
        }
    }

    fn record(&self, secs: f64, ok: bool, bytes: u64) {
        self.seconds_hist.observe(secs);
        self.seconds_quant.record(secs);
        if ok {
            self.ok.inc();
            self.bytes.add(bytes);
        } else {
            self.err.inc();
        }
    }
}

/// A [`BlockStore`] decorator recording per-op latency and byte counters.
pub struct InstrumentedStore {
    inner: SharedStore,
    /// Cached `inner.kind()` so label construction never re-enters the
    /// wrapped store.
    kind: &'static str,
    put: OpHandles,
    get: OpHandles,
    executor_losses: CounterHandle,
}

impl InstrumentedStore {
    /// Wraps `inner` so its traffic is recorded on `metrics`. Returns
    /// `inner` unchanged when the registry is disabled.
    pub fn wrap(inner: SharedStore, metrics: MetricsRegistry) -> SharedStore {
        if !metrics.is_enabled() {
            return inner;
        }
        let kind = inner.kind();
        Rc::new(InstrumentedStore {
            inner,
            kind,
            put: OpHandles::resolve(&metrics, kind, "put"),
            get: OpHandles::resolve(&metrics, kind, "get"),
            executor_losses: metrics
                .counter_handle("store_executor_losses_total", &[("store", kind)]),
        })
    }
}

impl BlockStore for InstrumentedStore {
    fn kind(&self) -> &'static str {
        self.kind
    }

    fn survives_executor_loss(&self) -> bool {
        self.inner.survives_executor_loss()
    }

    fn put(&self, sim: &mut Sim, client: ClientLoc, block: BlockId, data: Bytes, cb: PutCallback) {
        let started = sim.now();
        let h = self.put.clone();
        let bytes = data.len() as u64;
        self.inner.put(
            sim,
            client,
            block,
            data,
            Box::new(move |sim, result| {
                let secs = sim.now().saturating_since(started).as_secs_f64();
                h.record(secs, result.is_ok(), bytes);
                cb(sim, result)
            }),
        );
    }

    fn get(&self, sim: &mut Sim, client: ClientLoc, block: BlockId, cb: GetCallback) {
        let started = sim.now();
        let h = self.get.clone();
        self.inner.get(
            sim,
            client,
            block,
            Box::new(move |sim, result| {
                let secs = sim.now().saturating_since(started).as_secs_f64();
                let bytes = result.as_ref().map(|b| b.len() as u64).unwrap_or(0);
                h.record(secs, result.is_ok(), bytes);
                cb(sim, result)
            }),
        );
    }

    fn on_executor_lost(&self, sim: &mut Sim, executor: &str) {
        self.executor_losses.inc();
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LocalDiskStore;
    use splitserve_des::Fabric;

    fn rig() -> (Sim, SharedStore, MetricsRegistry, ClientLoc) {
        let fabric = Fabric::new();
        let store: SharedStore = Rc::new(LocalDiskStore::new(fabric.clone()));
        let metrics = MetricsRegistry::enabled();
        let wrapped = InstrumentedStore::wrap(store, metrics.clone());
        let nic = fabric.add_link(1e9, "nic");
        let disk = fabric.add_link(1e9, "disk");
        wrapped.register_executor("e-0", ClientLoc::vm(nic, disk));
        (Sim::new(1), wrapped, metrics, ClientLoc::vm(nic, disk))
    }

    #[test]
    fn wrap_is_identity_when_disabled() {
        let fabric = Fabric::new();
        let store: SharedStore = Rc::new(LocalDiskStore::new(fabric));
        let wrapped = InstrumentedStore::wrap(Rc::clone(&store), MetricsRegistry::disabled());
        assert!(Rc::ptr_eq(&store, &wrapped), "disabled wrap adds no layer");
    }

    #[test]
    fn put_get_record_latency_bytes_and_outcomes() {
        let (mut sim, store, metrics, client) = rig();
        let block = BlockId::named("e-0", "blk");
        store.put(
            &mut sim,
            client,
            block,
            Bytes::from(vec![7u8; 1024]),
            Box::new(|_, r| r.expect("put ok")),
        );
        sim.run();
        store.get(
            &mut sim,
            client,
            block,
            Box::new(|_, r| {
                assert_eq!(r.expect("get ok").len(), 1024);
            }),
        );
        sim.run();

        let kind = store.kind();
        assert_eq!(
            metrics.counter_value(
                "store_ops_total",
                &[("store", kind), ("op", "put"), ("outcome", "ok")]
            ),
            1
        );
        assert_eq!(
            metrics.counter_value("store_bytes_written_total", &[("store", kind)]),
            1024
        );
        assert_eq!(
            metrics.counter_value("store_bytes_read_total", &[("store", kind)]),
            1024
        );
        let h = metrics
            .histogram("store_op_seconds", &[("store", kind), ("op", "get")])
            .expect("latency recorded");
        assert_eq!(h.count, 1);
        assert!(h.sum > 0.0, "a disk round-trip takes simulated time");
    }

    #[test]
    fn failed_get_counts_as_err() {
        let (mut sim, store, metrics, client) = rig();
        store.get(
            &mut sim,
            client,
            BlockId::named("e-0", "missing"),
            Box::new(|_, r| assert!(r.is_err())),
        );
        sim.run();
        let kind = store.kind();
        assert_eq!(
            metrics.counter_value(
                "store_ops_total",
                &[("store", kind), ("op", "get"), ("outcome", "err")]
            ),
            1
        );
        assert_eq!(
            metrics.counter_value("store_bytes_read_total", &[("store", kind)]),
            0
        );
    }
}

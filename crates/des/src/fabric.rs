//! A fluid-flow network fabric with max–min fair bandwidth sharing.
//!
//! Nodes' NICs and disks are modeled as [`Link`]s with a fixed capacity in
//! bytes/second. A [`Flow`] is a bulk transfer that traverses one or more
//! links; at any instant every active flow receives its *max–min fair*
//! rate (computed by water-filling across all links it touches). When flows
//! start or finish, rates are recomputed and with them every remaining
//! flow's completion time.
//!
//! This is the standard fluid approximation for bulk data movement in
//! cluster simulators: it captures the contention effects the SplitServe
//! paper measures (e.g. the single HDFS node's 750 Mbps EBS pipe shared by
//! 16 shuffling executors) without per-packet simulation.
//!
//! # One completion timer
//!
//! The fabric keeps a single pending event: the completion of the flow that
//! finishes first. Every arrival and departure recomputes *all* completion
//! times, so of one event per flow only the earliest — the first started,
//! among flows due at the same microsecond — could ever fire before the
//! next recomputation replaced them all; arming just that one, at the same
//! point in the program, leaves its place among the run's other events (its
//! instant, and its sequence number relative to everything scheduled before
//! and after) exactly what it was, and so every result. What changes is
//! the queue traffic per arrival or departure: one cancel and one push
//! instead of one of each per live flow.

use std::cell::RefCell;
use std::rc::Rc;

use splitserve_rt::Slab;

use crate::sim::{Action, EventHandler, EventId, Sim};
use crate::time::{SimDuration, SimTime};

/// Identifies a link within a [`Fabric`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LinkId(usize);

/// Identifies an in-flight flow within a [`Fabric`]: its slot in the flow
/// table and which start, fabric-wide, it was — so a handle kept past its
/// flow's end never names the slot's next tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowId {
    slot: u32,
    serial: u64,
}

impl FlowId {
    /// The id of a transfer that needed no flow; never live.
    const NEVER_LIVE: FlowId = FlowId {
        slot: u32::MAX,
        serial: u64::MAX,
    };
}

struct Link {
    capacity: f64,    // bytes per second
    active: Vec<u32>, // flow slots (kept sorted-by-insertion; deterministic)
}

/// The links a transfer crosses, stored inline: every real path is at
/// most NIC → peer NIC → disk, so a heap `Vec` per flow (flows are created
/// per block transfer) would be pure allocator churn. The storage models
/// build one per request and the fabric keeps it on the flow.
///
/// # Examples
///
/// ```
/// use splitserve_des::{Fabric, LinkPath};
///
/// let fabric = Fabric::new();
/// let nic = fabric.add_link(1e9, "nic");
/// let disk = fabric.add_link(1e8, "disk");
/// // Colocated endpoints name the same link twice; it is charged once.
/// let path = LinkPath::dedup(&[Some(nic), None, Some(disk), Some(nic)]);
/// assert_eq!(path.as_slice(), &[nic, disk]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkPath {
    ids: [LinkId; LinkPath::MAX],
    len: u8,
}

impl LinkPath {
    /// The most links one path can hold.
    pub const MAX: usize = 4;

    /// The path over exactly `links`, in order.
    ///
    /// # Panics
    ///
    /// Panics if `links` is longer than [`LinkPath::MAX`].
    pub fn new(links: &[LinkId]) -> Self {
        let mut path = LinkPath {
            ids: [LinkId(0); LinkPath::MAX],
            len: 0,
        };
        for l in links {
            path.push(*l);
        }
        path
    }

    /// The `Some` links of `candidates`, deduplicated, preserving order —
    /// a transfer between colocated endpoints must not charge the same
    /// link twice.
    ///
    /// # Panics
    ///
    /// Panics if more than [`LinkPath::MAX`] distinct links remain.
    pub fn dedup(candidates: &[Option<LinkId>]) -> Self {
        let mut path = LinkPath::new(&[]);
        for l in candidates.iter().flatten() {
            if !path.as_slice().contains(l) {
                path.push(*l);
            }
        }
        path
    }

    fn push(&mut self, link: LinkId) {
        assert!(
            (self.len as usize) < LinkPath::MAX,
            "a flow crosses at most {} links",
            LinkPath::MAX
        );
        self.ids[self.len as usize] = link;
        self.len += 1;
    }

    /// The links, in path order.
    pub fn as_slice(&self) -> &[LinkId] {
        &self.ids[..self.len as usize]
    }
}

struct Flow {
    serial: u64,
    total: f64,     // bytes
    remaining: f64, // bytes
    rate: f64,      // bytes per second
    last_update: SimTime,
    links: LinkPath,
    /// Water-fill round this flow was last frozen in (see [`Inner::water_fill`]).
    frozen_round: u64,
    /// What runs when the last byte arrives.
    done: Action,
}

#[derive(Default)]
struct Inner {
    links: Vec<Link>,
    flows: Slab<Flow>,
    /// Slots of the live flows in start order: the deterministic iteration
    /// order, and the tie-break among flows due at the same instant.
    order: Vec<u32>,
    /// The one pending completion event (see the module docs).
    timer: Option<EventId>,
    /// Indices of the links that carry at least one flow, ascending — all
    /// that water-filling has to look at, however many links were ever
    /// added (one per VM NIC/disk and per Lambda launched).
    busy: Vec<usize>,
    next_flow: u64,
    bytes_completed: f64,
    /// Monotone counter distinguishing water-fill rounds, so freezing a
    /// flow is a field write instead of a per-call hash-map insert.
    round: u64,
    /// Reusable per-link buffers for water-fill (residual capacity and
    /// unfrozen-flow counts), indexed by link; only the busy links'
    /// entries are (re)initialised each round.
    residual: Vec<f64>,
    unfrozen_on: Vec<usize>,
}

/// A cloneable handle to the shared flow-network state.
///
/// # Examples
///
/// ```
/// use splitserve_des::{Fabric, Sim};
/// use std::{cell::Cell, rc::Rc};
///
/// let mut sim = Sim::new(0);
/// let fabric = Fabric::new();
/// let nic = fabric.add_link(100.0, "nic"); // 100 B/s
/// let done = Rc::new(Cell::new(0.0));
/// let d = Rc::clone(&done);
/// fabric.start_flow(&mut sim, &[nic], 200, move |sim| {
///     d.set(sim.now().as_secs_f64());
/// });
/// sim.run();
/// assert_eq!(done.get(), 2.0); // 200 bytes at 100 B/s
/// ```
#[derive(Clone, Default)]
pub struct Fabric {
    inner: Rc<RefCell<Inner>>,
}

impl std::fmt::Debug for Fabric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("Fabric")
            .field("links", &inner.links.len())
            .field("active_flows", &inner.flows.len())
            .finish()
    }
}

impl Fabric {
    /// Creates an empty fabric.
    pub fn new() -> Self {
        Fabric::default()
    }

    /// Adds a link with `capacity` bytes/second. The label names the link
    /// where it is created; the fabric keeps no copy.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is not strictly positive and finite.
    pub fn add_link(&self, capacity: f64, _label: impl Into<String>) -> LinkId {
        assert!(
            capacity > 0.0 && capacity.is_finite(),
            "link capacity must be positive and finite: {capacity}"
        );
        let mut inner = self.inner.borrow_mut();
        let id = inner.links.len();
        inner.links.push(Link {
            capacity,
            active: Vec::new(),
        });
        LinkId(id)
    }

    /// The capacity of `link` in bytes/second.
    ///
    /// Test aid: only tests call this.
    pub fn link_capacity(&self, link: LinkId) -> f64 {
        self.inner.borrow().links[link.0].capacity
    }

    /// Number of flows currently in flight.
    pub fn active_flows(&self) -> usize {
        self.inner.borrow().flows.len()
    }

    /// Total bytes delivered by completed flows so far.
    pub fn bytes_completed(&self) -> f64 {
        self.inner.borrow().bytes_completed
    }

    /// The instantaneous rate of `flow` in bytes/second, or `None` if it
    /// already completed or was cancelled.
    ///
    /// Test aid: only tests call this.
    pub fn flow_rate(&self, flow: FlowId) -> Option<f64> {
        self.inner.borrow().live(flow).map(|f| f.rate)
    }

    /// Starts a bulk transfer of `bytes` across `links`, invoking
    /// `on_complete` when the last byte arrives.
    ///
    /// A flow spanning several links (e.g. the sender's NIC and the
    /// receiver's NIC) is bottlenecked by whichever gives it the smallest
    /// fair share. An empty `links` slice means an uncontended local move,
    /// which completes immediately at the current instant.
    ///
    /// Benchmark seam: library code starts flows with
    /// [`Fabric::start_flow_notify`].
    pub fn start_flow(
        &self,
        sim: &mut Sim,
        links: &[LinkId],
        bytes: u64,
        on_complete: impl FnOnce(&mut Sim) + 'static,
    ) -> FlowId {
        self.start(sim, links, bytes, Action::Call(Box::new(on_complete)))
    }

    /// [`Fabric::start_flow`] for an [`EventHandler`]: when the last byte
    /// arrives, `handler.on_event(sim, token)` is called where the
    /// closure would be — and nothing is allocated for the flow.
    pub fn start_flow_notify(
        &self,
        sim: &mut Sim,
        links: &[LinkId],
        bytes: u64,
        handler: Rc<dyn EventHandler>,
        token: u64,
    ) -> FlowId {
        self.start(sim, links, bytes, Action::Notify(handler, token))
    }

    fn start(&self, sim: &mut Sim, links: &[LinkId], bytes: u64, done: Action) -> FlowId {
        if links.is_empty() || bytes == 0 {
            self.inner.borrow_mut().bytes_completed += bytes as f64;
            sim.schedule(sim.now(), done);
            return FlowId::NEVER_LIVE;
        }
        let id = {
            let mut inner = self.inner.borrow_mut();
            let serial = inner.next_flow;
            inner.next_flow += 1;
            let slot = inner.flows.insert(Flow {
                serial,
                total: bytes as f64,
                remaining: bytes as f64,
                rate: 0.0,
                last_update: sim.now(),
                links: LinkPath::new(links),
                frozen_round: 0,
                done,
            });
            inner.order.push(slot);
            for l in links {
                if inner.links[l.0].active.is_empty() {
                    let at = inner
                        .busy
                        .binary_search(&l.0)
                        .expect_err("idle link is not busy");
                    inner.busy.insert(at, l.0);
                }
                inner.links[l.0].active.push(slot);
            }
            FlowId { slot, serial }
        };
        self.rebalance(sim);
        id
    }

    /// Cancels an in-flight flow without invoking its completion callback.
    /// Returns `true` if the flow was still live.
    ///
    /// Test aid: only tests call this.
    pub fn cancel_flow(&self, sim: &mut Sim, flow: FlowId) -> bool {
        let existed = {
            let mut inner = self.inner.borrow_mut();
            inner.settle(sim.now());
            inner.live(flow).is_some() && inner.remove_flow(flow.slot).is_some()
        };
        if existed {
            self.rebalance(sim);
        }
        existed
    }

    /// The completion timer fired: the flow in `slot` is done.
    fn complete(&self, sim: &mut Sim, slot: u32) {
        let done = {
            let mut inner = self.inner.borrow_mut();
            inner.timer = None;
            inner.settle(sim.now());
            let flow = inner
                .remove_flow(slot)
                .expect("the timer names a live flow");
            inner.bytes_completed += flow.total;
            flow.done
        };
        self.rebalance(sim);
        done.run(sim);
    }

    /// Recomputes max–min fair rates and re-arms the completion timer for
    /// the flow that now finishes first (the first started, on ties).
    fn rebalance(&self, sim: &mut Sim) {
        let mut inner = self.inner.borrow_mut();
        let inner = &mut *inner;
        let now = sim.now();
        inner.settle(now);
        inner.water_fill();
        if let Some(timer) = inner.timer.take() {
            sim.cancel(timer);
        }
        let mut first: Option<(SimTime, u32)> = None;
        for &slot in &inner.order {
            let flow = inner.flows.get(slot).expect("live flow in order list");
            debug_assert!(flow.rate > 0.0, "water-fill left a flow with zero rate");
            let secs = (flow.remaining / flow.rate).max(0.0);
            let at = now + SimDuration::from_secs_f64(secs);
            if first.is_none_or(|(earliest, _)| at < earliest) {
                first = Some((at, slot));
            }
        }
        // Scheduling only queues the event, so the borrow can stay held.
        if let Some((at, slot)) = first {
            inner.timer = Some(sim.notify_at(at, self.inner.clone(), u64::from(slot)));
        }
    }
}

impl EventHandler for RefCell<Inner> {
    fn on_event(self: Rc<Self>, sim: &mut Sim, token: u64) {
        let slot = u32::try_from(token).expect("the timer's token is a flow slot");
        Fabric { inner: self }.complete(sim, slot);
    }
}

impl Inner {
    /// Advances every flow's `remaining` to `now` at its current rate.
    fn settle(&mut self, now: SimTime) {
        for &slot in &self.order {
            let f = self.flows.get_mut(slot).expect("live flow in order list");
            let dt = now.saturating_since(f.last_update).as_secs_f64();
            f.remaining = (f.remaining - f.rate * dt).max(0.0);
            f.last_update = now;
        }
    }

    /// The flow `id` names, if it is still in flight.
    fn live(&self, id: FlowId) -> Option<&Flow> {
        self.flows.get(id.slot).filter(|f| f.serial == id.serial)
    }

    fn remove_flow(&mut self, slot: u32) -> Option<Flow> {
        let f = self.flows.take(slot)?;
        self.order.retain(|x| *x != slot);
        for l in f.links.as_slice() {
            let active = &mut self.links[l.0].active;
            active.retain(|x| *x != slot);
            // A path may name a link twice; only its first visit finds
            // the link still listed.
            if active.is_empty() {
                if let Ok(at) = self.busy.binary_search(&l.0) {
                    self.busy.remove(at);
                }
            }
        }
        Some(f)
    }

    /// Progressive-filling (water-filling) max–min fair allocation.
    ///
    /// Runs on every flow arrival and departure, so it allocates nothing
    /// and touches only the busy links: freezing a flow writes its `rate`
    /// in place, and membership in the current round's frozen set is the
    /// `frozen_round == round` check against the monotone round counter.
    /// Scanning `busy` in ascending link order with a strict `<` keeps the
    /// tie-break an all-links scan would make: the lowest-numbered link
    /// among equal shares is the bottleneck.
    fn water_fill(&mut self) {
        self.round += 1;
        let round = self.round;
        let mut residual = std::mem::take(&mut self.residual);
        let mut unfrozen_on = std::mem::take(&mut self.unfrozen_on);
        if residual.len() < self.links.len() {
            residual.resize(self.links.len(), 0.0);
            unfrozen_on.resize(self.links.len(), 0);
        }
        for &li in &self.busy {
            residual[li] = self.links[li].capacity;
            unfrozen_on[li] = self.links[li].active.len();
        }
        let mut nfrozen = 0usize;

        while nfrozen < self.flows.len() {
            // Bottleneck link: smallest per-flow share among links that
            // still carry unfrozen flows.
            let mut best: Option<(usize, f64)> = None;
            for &li in &self.busy {
                if unfrozen_on[li] == 0 {
                    continue;
                }
                let share = residual[li] / unfrozen_on[li] as f64;
                match best {
                    Some((_, s)) if s <= share => {}
                    _ => best = Some((li, share)),
                }
            }
            let (bottleneck, share) = best.expect("unfrozen flows remain but no link carries them");
            // Freeze every unfrozen flow crossing the bottleneck at `share`.
            let frozen_before = nfrozen;
            for j in 0..self.links[bottleneck].active.len() {
                let slot = self.links[bottleneck].active[j];
                let f = self.flows.get_mut(slot).expect("active flow is live");
                if f.frozen_round == round {
                    continue;
                }
                f.frozen_round = round;
                f.rate = share;
                nfrozen += 1;
                for l in f.links.as_slice() {
                    residual[l.0] = (residual[l.0] - share).max(0.0);
                    unfrozen_on[l.0] -= 1;
                }
            }
            debug_assert!(nfrozen > frozen_before);
        }
        self.residual = residual;
        self.unfrozen_on = unfrozen_on;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[allow(clippy::type_complexity)]
    fn finish_log() -> (
        Rc<RefCell<Vec<(u32, f64)>>>,
        impl Fn(u32) -> Box<dyn FnOnce(&mut Sim)>,
    ) {
        let log: Rc<RefCell<Vec<(u32, f64)>>> = Rc::new(RefCell::new(Vec::new()));
        let l = Rc::clone(&log);
        let make = move |tag: u32| -> Box<dyn FnOnce(&mut Sim)> {
            let l = Rc::clone(&l);
            Box::new(move |sim: &mut Sim| l.borrow_mut().push((tag, sim.now().as_secs_f64())))
        };
        (log, make)
    }

    #[test]
    fn single_flow_full_rate() {
        let mut sim = Sim::new(0);
        let fabric = Fabric::new();
        let link = fabric.add_link(1000.0, "l");
        let (log, make) = finish_log();
        fabric.start_flow(&mut sim, &[link], 5000, make(1));
        sim.run();
        assert_eq!(*log.borrow(), vec![(1, 5.0)]);
        assert!((fabric.bytes_completed() - 5000.0).abs() < 1.0);
    }

    #[test]
    fn two_flows_share_equally() {
        let mut sim = Sim::new(0);
        let fabric = Fabric::new();
        let link = fabric.add_link(1000.0, "l");
        let (log, make) = finish_log();
        fabric.start_flow(&mut sim, &[link], 1000, make(1));
        fabric.start_flow(&mut sim, &[link], 1000, make(2));
        sim.run();
        // Both at 500 B/s → both finish at t=2.
        let log = log.borrow();
        assert_eq!(log.len(), 2);
        for (_, t) in log.iter() {
            assert!((t - 2.0).abs() < 1e-3, "finish at {t}");
        }
    }

    #[test]
    fn departing_flow_speeds_up_survivor() {
        let mut sim = Sim::new(0);
        let fabric = Fabric::new();
        let link = fabric.add_link(1000.0, "l");
        let (log, make) = finish_log();
        fabric.start_flow(&mut sim, &[link], 1000, make(1)); // small
        fabric.start_flow(&mut sim, &[link], 3000, make(2)); // large
        sim.run();
        // Phase 1: both at 500 B/s until small finishes at t=2 (1000 B).
        // Large has 2000 B left, now at 1000 B/s → finishes at t=4.
        let log = log.borrow();
        assert!((log[0].1 - 2.0).abs() < 1e-3, "small at {}", log[0].1);
        assert!((log[1].1 - 4.0).abs() < 1e-3, "large at {}", log[1].1);
    }

    #[test]
    fn max_min_respects_multi_link_bottleneck() {
        let mut sim = Sim::new(0);
        let fabric = Fabric::new();
        let big = fabric.add_link(1000.0, "big");
        let small = fabric.add_link(100.0, "small");
        let (log, make) = finish_log();
        // Flow A crosses both links: bottlenecked at 100 B/s.
        fabric.start_flow(&mut sim, &[big, small], 100, make(1));
        // Flow B crosses only the big link: gets the residual 900 B/s.
        fabric.start_flow(&mut sim, &[big], 900, make(2));
        sim.run();
        let log = log.borrow();
        assert!((log[0].1 - 1.0).abs() < 1e-3 || (log[1].1 - 1.0).abs() < 1e-3);
        for (_, t) in log.iter() {
            assert!((t - 1.0).abs() < 1e-3, "finish at {t}");
        }
    }

    #[test]
    fn empty_links_complete_immediately() {
        let mut sim = Sim::new(0);
        let fabric = Fabric::new();
        let (log, make) = finish_log();
        fabric.start_flow(&mut sim, &[], 10_000, make(1));
        sim.run();
        assert_eq!(*log.borrow(), vec![(1, 0.0)]);
    }

    #[test]
    fn zero_byte_flow_completes_immediately() {
        let mut sim = Sim::new(0);
        let fabric = Fabric::new();
        let link = fabric.add_link(10.0, "l");
        let (log, make) = finish_log();
        fabric.start_flow(&mut sim, &[link], 0, make(7));
        sim.run();
        assert_eq!(*log.borrow(), vec![(7, 0.0)]);
    }

    #[test]
    fn cancel_suppresses_completion_and_frees_bandwidth() {
        let mut sim = Sim::new(0);
        let fabric = Fabric::new();
        let link = fabric.add_link(1000.0, "l");
        let (log, make) = finish_log();
        let doomed = fabric.start_flow(&mut sim, &[link], 10_000, make(1));
        fabric.start_flow(&mut sim, &[link], 1000, make(2));
        // Cancel the big flow at t=0 (before running): survivor gets full rate.
        assert!(fabric.cancel_flow(&mut sim, doomed));
        assert!(!fabric.cancel_flow(&mut sim, doomed));
        sim.run();
        assert_eq!(*log.borrow(), vec![(2, 1.0)]);
    }

    #[test]
    fn arriving_flow_slows_existing_one() {
        let mut sim = Sim::new(0);
        let fabric = Fabric::new();
        let link = fabric.add_link(100.0, "l");
        let (log, make) = finish_log();
        fabric.start_flow(&mut sim, &[link], 1000, make(1));
        // At t=5, half transferred; a second flow arrives.
        let f2 = fabric.clone();
        let cb = make(2);
        sim.schedule_at(SimTime::from_secs(5), move |sim| {
            f2.start_flow(sim, &[link], 500, cb);
        });
        sim.run();
        // Flow 1: 500 B at t=5 → 500 left at 50 B/s → t=15.
        // Flow 2: 500 B at 50 B/s → t=15 too.
        let log = log.borrow();
        for (_, t) in log.iter() {
            assert!((t - 15.0).abs() < 1e-3, "finish at {t}");
        }
    }

    #[test]
    fn rates_are_work_conserving() {
        let mut sim = Sim::new(0);
        let fabric = Fabric::new();
        let link = fabric.add_link(1000.0, "l");
        let f1 = fabric.start_flow(&mut sim, &[link], 100_000, |_| {});
        let f2 = fabric.start_flow(&mut sim, &[link], 100_000, |_| {});
        let r1 = fabric.flow_rate(f1).expect("flow 1 live");
        let r2 = fabric.flow_rate(f2).expect("flow 2 live");
        assert!((r1 + r2 - 1000.0).abs() < 1e-9, "sum {}", r1 + r2);
    }
}

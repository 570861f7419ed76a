//! Property-based tests for the DES kernel: event ordering, fabric
//! conservation laws, token-bucket pacing and distribution sanity.

use splitserve_des::{Dist, Fabric, Sim, SimDuration, SimTime, TokenBucket};
use splitserve_rt::check;
use std::cell::RefCell;
use std::rc::Rc;

/// Events always fire in non-decreasing time order, and ties fire in
/// scheduling order.
#[test]
fn event_order_is_total_and_monotonic() {
    check::run("event_order_is_total_and_monotonic", 64, |g| {
        let times = g.vec(1, 200, |g| g.u64_in(0, 1_000));
        let mut sim = Sim::new(0);
        let log: Rc<RefCell<Vec<(u64, usize)>>> = Rc::new(RefCell::new(Vec::new()));
        for (i, t) in times.iter().enumerate() {
            let l = Rc::clone(&log);
            sim.schedule_at(SimTime::from_millis(*t), move |sim| {
                l.borrow_mut().push((sim.now().as_micros(), i));
            });
        }
        sim.run();
        let log = log.borrow();
        assert_eq!(log.len(), times.len());
        for w in log.windows(2) {
            assert!(w[0].0 <= w[1].0, "time went backwards");
            if w[0].0 == w[1].0 {
                assert!(w[0].1 < w[1].1, "tie broke out of scheduling order");
            }
        }
    });
}

/// Cancelling an arbitrary subset of events suppresses exactly those.
#[test]
fn cancellation_is_exact() {
    check::run("cancellation_is_exact", 64, |g| {
        let times = g.vec(1, 100, |g| g.u64_in(0, 100));
        let mask: Vec<bool> = g.vec(100, 101, |g| g.bool());
        let mut sim = Sim::new(0);
        let log: Rc<RefCell<Vec<usize>>> = Rc::new(RefCell::new(Vec::new()));
        let mut ids = Vec::new();
        for (i, t) in times.iter().enumerate() {
            let l = Rc::clone(&log);
            ids.push(sim.schedule_at(SimTime::from_millis(*t), move |_| {
                l.borrow_mut().push(i);
            }));
        }
        let mut expect: Vec<usize> = Vec::new();
        for (i, id) in ids.iter().enumerate() {
            if mask[i % mask.len()] {
                sim.cancel(*id);
            } else {
                expect.push(i);
            }
        }
        sim.run();
        let mut got = log.borrow().clone();
        got.sort_unstable();
        assert_eq!(got, expect);
    });
}

/// Under random interleavings of scheduling (near, far, ascending and
/// not), cancelling and stepping, events fire in exactly the `(at, seq)`
/// order a sorted reference gives, and each cancel reports what the
/// reference says.
#[test]
fn queue_pops_in_key_order_under_schedule_and_cancel() {
    check::run("queue_pops_in_key_order_under_schedule_and_cancel", 96, |g| {
        let mut sim = Sim::new(0);
        let fired: Rc<RefCell<Vec<usize>>> = Rc::new(RefCell::new(Vec::new()));
        // The reference: pending (at_us, tag), tags in scheduling order.
        let mut pending: Vec<(u64, usize)> = Vec::new();
        let mut ids = Vec::new();
        let mut expect: Vec<usize> = Vec::new();
        let mut far = 1_000_000u64;
        for _ in 0..g.usize_in(1, 400) {
            match g.u64_in(0, 10) {
                // Near-term event, anywhere in the next millisecond.
                0..=3 => {
                    let at = sim.now().as_micros() + g.u64_in(0, 1_001);
                    let tag = ids.len();
                    let f = Rc::clone(&fired);
                    ids.push(sim.schedule_at(SimTime::from_micros(at), move |_| {
                        f.borrow_mut().push(tag)
                    }));
                    pending.push((at, tag));
                }
                // Far-future event on an ascending trace (ties included).
                4..=5 => {
                    far += g.u64_in(0, 5_001);
                    let at = far.max(sim.now().as_micros());
                    let tag = ids.len();
                    let f = Rc::clone(&fired);
                    ids.push(sim.schedule_at(SimTime::from_micros(at), move |_| {
                        f.borrow_mut().push(tag)
                    }));
                    pending.push((at, tag));
                }
                // Cancel any event ever scheduled: live, fired or cancelled.
                6 if !ids.is_empty() => {
                    let tag = g.usize_in(0, ids.len());
                    let was_pending = pending.iter().position(|(_, t)| *t == tag);
                    assert_eq!(sim.cancel(ids[tag]), was_pending.is_some());
                    if let Some(i) = was_pending {
                        pending.remove(i);
                    }
                }
                // Step: the reference's minimum (at, tag) must be next.
                _ => {
                    let next = pending.iter().copied().min();
                    assert_eq!(sim.step(), next.is_some());
                    if let Some(next) = next {
                        pending.retain(|e| *e != next);
                        expect.push(next.1);
                        assert_eq!(sim.now().as_micros(), next.0);
                    }
                }
            }
            assert_eq!(*fired.borrow(), expect);
        }
        pending.sort_unstable();
        expect.extend(pending.iter().map(|(_, tag)| tag));
        sim.run();
        assert_eq!(*fired.borrow(), expect);
    });
}

/// A live flow of the reference model: its tag and the links it crosses.
type RefFlow = (usize, Vec<usize>);

/// Max–min fair rates by progressive filling over *every* link of the
/// fabric, busy or not — the reference the busy-link list must match.
fn brute_force_rates(capacity: &[f64], flows: &[RefFlow]) -> Vec<(usize, f64)> {
    let mut residual = capacity.to_vec();
    let mut unfrozen_on = vec![0usize; capacity.len()];
    for (_, links) in flows {
        for l in links {
            unfrozen_on[*l] += 1;
        }
    }
    let mut rates: Vec<(usize, Option<f64>)> = flows.iter().map(|(id, _)| (*id, None)).collect();
    while rates.iter().any(|(_, r)| r.is_none()) {
        let mut best: Option<(usize, f64)> = None;
        for li in 0..capacity.len() {
            if unfrozen_on[li] == 0 {
                continue;
            }
            let share = residual[li] / unfrozen_on[li] as f64;
            match best {
                Some((_, s)) if s <= share => {}
                _ => best = Some((li, share)),
            }
        }
        let (bottleneck, share) = best.expect("an unfrozen flow crosses some link");
        for (i, (_, links)) in flows.iter().enumerate() {
            if rates[i].1.is_some() || !links.contains(&bottleneck) {
                continue;
            }
            rates[i].1 = Some(share);
            for l in links {
                residual[*l] = (residual[*l] - share).max(0.0);
                unfrozen_on[*l] -= 1;
            }
        }
    }
    rates
        .into_iter()
        .map(|(id, r)| (id, r.expect("every flow frozen")))
        .collect()
}

/// With many links of which a handful are busy, every live flow's rate
/// equals the all-links water-fill bit for bit, across random starts,
/// cancels and completions.
#[test]
fn busy_link_water_fill_matches_brute_force() {
    check::run("busy_link_water_fill_matches_brute_force", 64, |g| {
        let mut sim = Sim::new(0);
        let fabric = Fabric::new();
        // Few distinct capacities, so equal shares (ties) are common.
        let capacity: Vec<f64> = (0..g.usize_in(4, 40))
            .map(|_| [100.0, 250.0, 1_000.0][g.usize_in(0, 3)])
            .collect();
        let links: Vec<_> = capacity
            .iter()
            .map(|c| fabric.add_link(*c, "l"))
            .collect();
        // Live flows in start order: (tag, link indices), plus handles.
        let live: Rc<RefCell<Vec<RefFlow>>> = Rc::new(RefCell::new(Vec::new()));
        let mut handles = Vec::new();
        for _ in 0..g.usize_in(1, 60) {
            match g.u64_in(0, 6) {
                0..=2 => {
                    let mut path: Vec<usize> = Vec::new();
                    for _ in 0..g.usize_in(1, 4) {
                        let l = g.usize_in(0, links.len());
                        if !path.contains(&l) {
                            path.push(l);
                        }
                    }
                    let tag = handles.len();
                    let ids: Vec<_> = path.iter().map(|l| links[*l]).collect();
                    live.borrow_mut().push((tag, path));
                    let done = Rc::clone(&live);
                    handles.push(fabric.start_flow(&mut sim, &ids, g.u64_in(1, 100_000), move |_| {
                        done.borrow_mut().retain(|(t, _)| *t != tag);
                    }));
                }
                3 if !handles.is_empty() => {
                    let tag = g.usize_in(0, handles.len());
                    if fabric.cancel_flow(&mut sim, handles[tag]) {
                        live.borrow_mut().retain(|(t, _)| *t != tag);
                    }
                }
                _ => {
                    sim.step();
                }
            }
            let want = brute_force_rates(&capacity, &live.borrow());
            assert_eq!(fabric.active_flows(), want.len());
            for (tag, rate) in want {
                let got = fabric.flow_rate(handles[tag]).expect("live flow has a rate");
                assert_eq!(got.to_bits(), rate.to_bits(), "flow {tag}: {got} vs {rate}");
            }
        }
        sim.run();
        assert!(live.borrow().is_empty());
    });
}

/// The completion rule the fabric's single timer replaced, as a model of
/// its own: every arrival and departure gives *every* live flow a fresh
/// completion event — consecutive sequence numbers in start order — and
/// whatever is earliest by `(instant, sequence number)` fires next, the
/// closure-scheduled bystanders included.
struct PerFlowEvents {
    capacity: Vec<f64>,
    now: SimTime,
    /// When the flows' `remaining` was last brought up to date.
    settled: SimTime,
    seq: u64,
    /// Live flows in start order.
    flows: Vec<ModelFlow>,
    /// Pending bystander events: `(instant, seq, tag)`.
    bystanders: Vec<(SimTime, u64, usize)>,
    bytes_completed: f64,
    log: Vec<Fired>,
}

struct ModelFlow {
    tag: usize,
    links: Vec<usize>,
    total: f64,
    remaining: f64,
    rate: f64,
    due: (SimTime, u64),
}

/// `(bystander?, flow tag, microsecond)`.
type Fired = (bool, usize, u64);

impl PerFlowEvents {
    /// Advances every flow to the clock at its current rate.
    fn settle(&mut self) {
        let dt = self.now.saturating_since(self.settled).as_secs_f64();
        for f in &mut self.flows {
            f.remaining = (f.remaining - f.rate * dt).max(0.0);
        }
        self.settled = self.now;
    }

    fn rebalance(&mut self) {
        let live: Vec<RefFlow> = self.flows.iter().map(|f| (f.tag, f.links.clone())).collect();
        let rates = brute_force_rates(&self.capacity, &live);
        for (f, (_, rate)) in self.flows.iter_mut().zip(rates) {
            f.rate = rate;
            let secs = (f.remaining / f.rate).max(0.0);
            f.due = (self.now + SimDuration::from_secs_f64(secs), self.seq);
            self.seq += 1;
        }
    }

    fn start(&mut self, tag: usize, links: Vec<usize>, bytes: u64) {
        self.settle();
        let (total, due) = (bytes as f64, (self.now, 0));
        self.flows.push(ModelFlow { tag, links, total, remaining: total, rate: 0.0, due });
        self.rebalance();
    }

    fn cancel(&mut self, tag: usize) -> bool {
        self.settle();
        let live = self.flows.iter().position(|f| f.tag == tag);
        if let Some(i) = live {
            self.flows.remove(i);
            self.rebalance();
        }
        live.is_some()
    }

    /// Fires everything due by `deadline`, then moves the clock there.
    fn run_until(&mut self, deadline: SimTime) {
        loop {
            let flow = self.flows.iter().map(|f| f.due).min();
            let bystander = self.bystanders.iter().map(|b| (b.0, b.1)).min();
            match (flow, bystander) {
                (Some(due), b) if due.0 <= deadline && b.is_none_or(|b| due < b) => {
                    let i = self.flows.iter().position(|f| f.due == due).expect("just seen");
                    self.now = due.0;
                    self.settle();
                    let done = self.flows.remove(i);
                    self.bytes_completed += done.total;
                    self.rebalance();
                    self.log.push((false, done.tag, due.0.as_micros()));
                    self.bystanders.push((self.now, self.seq, done.tag));
                    self.seq += 1;
                }
                (_, Some(due)) if due.0 <= deadline => {
                    let i = self.bystanders.iter().position(|b| (b.0, b.1) == due);
                    let (at, _, tag) = self.bystanders.remove(i.expect("just seen"));
                    self.now = at;
                    self.log.push((true, tag, at.as_micros()));
                }
                _ => break,
            }
        }
        self.now = self.now.max(deadline);
    }
}

/// One armed timer — the earliest completion, the first-started flow's on
/// ties — fires the same completions at the same microseconds, in the
/// same order among themselves and among non-fabric events of the same
/// instants, as one event per flow did; `bytes_completed` adds up in the
/// same order, so it is equal to the bit.
#[test]
fn single_timer_fires_what_per_flow_events_would() {
    check::run("single_timer_fires_what_per_flow_events_would", 96, |g| {
        let mut sim = Sim::new(0);
        let fabric = Fabric::new();
        // Round capacities and sizes make same-microsecond completions common.
        let capacity: Vec<f64> = (0..g.usize_in(1, 6))
            .map(|_| [1_000.0, 2_000.0, 8_000.0][g.usize_in(0, 3)])
            .collect();
        let links: Vec<_> = capacity.iter().map(|c| fabric.add_link(*c, "l")).collect();
        let mut model = PerFlowEvents {
            capacity,
            now: SimTime::ZERO,
            settled: SimTime::ZERO,
            seq: 0,
            flows: Vec::new(),
            bystanders: Vec::new(),
            bytes_completed: 0.0,
            log: Vec::new(),
        };
        let log: Rc<RefCell<Vec<Fired>>> = Rc::new(RefCell::new(Vec::new()));
        let mut handles = Vec::new();
        let mut at = SimTime::ZERO;
        for _ in 0..g.usize_in(1, 80) {
            // Often act again within the same instant.
            if g.bool() {
                at += SimDuration::from_millis(g.u64_in(0, 4) * 250);
            }
            sim.run_until(at);
            model.run_until(at);
            if handles.is_empty() || g.u64_in(0, 4) > 0 {
                let mut path: Vec<usize> = Vec::new();
                for _ in 0..g.usize_in(1, 4) {
                    let l = g.usize_in(0, links.len());
                    if !path.contains(&l) {
                        path.push(l);
                    }
                }
                let bytes = [500, 1_000, 1_000, 4_000][g.usize_in(0, 4)] * g.u64_in(1, 4);
                let tag = handles.len();
                let ids: Vec<_> = path.iter().map(|l| links[*l]).collect();
                let l = Rc::clone(&log);
                handles.push(fabric.start_flow(&mut sim, &ids, bytes, move |sim| {
                    let now = sim.now().as_micros();
                    l.borrow_mut().push((false, tag, now));
                    let l = Rc::clone(&l);
                    sim.schedule_at(sim.now(), move |_| l.borrow_mut().push((true, tag, now)));
                }));
                model.start(tag, path, bytes);
            } else {
                let tag = g.usize_in(0, handles.len());
                assert_eq!(fabric.cancel_flow(&mut sim, handles[tag]), model.cancel(tag));
            }
            assert_eq!(fabric.active_flows(), model.flows.len());
            assert_eq!(*log.borrow(), model.log);
        }
        sim.run();
        model.run_until(SimTime::from_secs(1_000_000));
        assert!(model.flows.is_empty() && model.bystanders.is_empty());
        assert_eq!(*log.borrow(), model.log);
        assert_eq!(
            fabric.bytes_completed().to_bits(),
            model.bytes_completed.to_bits()
        );
    });
}

/// The queue holds one fabric event however many flows are live, and drew
/// one sequence number per arrival; and a handle kept past its flow's end
/// does not reach the flow that took over its slot.
#[test]
fn one_pending_event_per_fabric_and_stale_flow_ids_stay_dead() {
    let mut sim = Sim::new(0);
    let fabric = Fabric::new();
    let link = fabric.add_link(1_000.0, "l");
    let first = fabric.start_flow(&mut sim, &[link], 10, |_| {});
    for _ in 1..256 {
        fabric.start_flow(&mut sim, &[link], 1_000_000, |_| {});
    }
    // One event per live flow, re-made per arrival, was 256 live events
    // over 32 896 scheduled.
    assert_eq!((sim.pending_events(), sim.scheduled_events()), (1, 256));
    assert!(sim.step(), "the small flow finishes");
    assert_eq!((fabric.active_flows(), sim.pending_events()), (255, 1));
    assert_eq!(fabric.flow_rate(first), None);

    // The newcomer takes the vacated slot; the old handle stays dead.
    let newcomer = fabric.start_flow(&mut sim, &[link], 1_000_000, |_| {});
    assert_eq!(fabric.active_flows(), 256);
    assert_eq!(fabric.flow_rate(first), None);
    assert!(!fabric.cancel_flow(&mut sim, first));
    assert_eq!(fabric.active_flows(), 256);
    assert_eq!(fabric.flow_rate(newcomer), Some(1_000.0 / 256.0));
    assert!(fabric.cancel_flow(&mut sim, newcomer));
    assert_eq!((fabric.active_flows(), sim.pending_events()), (255, 1));
}

/// With a single shared link, total transfer time equals total bytes /
/// capacity regardless of how the bytes are split across flows
/// (work conservation of max–min fair sharing).
#[test]
fn fabric_is_work_conserving() {
    check::run("fabric_is_work_conserving", 48, |g| {
        let sizes = g.vec(1, 20, |g| g.u64_in(1, 1_000_000));
        let capacity = g.f64_in(1_000.0, 1e9);
        let mut sim = Sim::new(0);
        let fabric = Fabric::new();
        let link = fabric.add_link(capacity, "l");
        let total: u64 = sizes.iter().sum();
        for s in &sizes {
            fabric.start_flow(&mut sim, &[link], *s, |_| {});
        }
        sim.run();
        let expected = total as f64 / capacity;
        let got = sim.now().as_secs_f64();
        // micro-second rounding accumulates at most ~1 us per completion
        let tol = expected * 1e-3 + 1e-3 * sizes.len() as f64;
        assert!(
            (got - expected).abs() <= tol,
            "makespan {got} vs expected {expected}"
        );
        assert!((fabric.bytes_completed() - total as f64).abs() < 1.0);
    });
}

/// Instantaneous rates never exceed any link capacity.
#[test]
fn fabric_rates_respect_capacity() {
    check::run("fabric_rates_respect_capacity", 48, |g| {
        let sizes = g.vec(1, 16, |g| g.u64_in(1, 1_000_000));
        let capacity = g.f64_in(1_000.0, 1e8);
        let mut sim = Sim::new(0);
        let fabric = Fabric::new();
        let link = fabric.add_link(capacity, "l");
        let mut flows = Vec::new();
        for s in &sizes {
            flows.push(fabric.start_flow(&mut sim, &[link], *s, |_| {}));
        }
        let sum: f64 = flows.iter().filter_map(|f| fabric.flow_rate(*f)).sum();
        assert!(sum <= capacity * (1.0 + 1e-9), "sum {sum} > cap {capacity}");
        sim.run();
    });
}

/// Token-bucket delay for the k-th over-burst request is exactly
/// k/rate, i.e. pacing is linear and never admits above the rate.
#[test]
fn token_bucket_paces_linearly() {
    check::run("token_bucket_paces_linearly", 64, |g| {
        let rate = g.f64_in(0.5, 1_000.0);
        let burst = g.f64_in(1.0, 100.0);
        let mut tb = TokenBucket::new(rate, burst);
        let t0 = SimTime::ZERO;
        let whole_burst = burst.floor() as usize;
        for _ in 0..whole_burst {
            assert!(
                tb.reserve(t0, 1.0).as_secs_f64()
                    <= (1.0 - (burst - burst.floor())).max(0.0) / rate + 1e-9
            );
        }
        let mut last = 0.0f64;
        for _ in 0..10 {
            let d = tb.reserve(t0, 1.0).as_secs_f64();
            assert!(d >= last - 1e-9, "pacing delay decreased: {d} < {last}");
            let step = d - last;
            assert!(step <= 1.0 / rate + 1e-6, "step {step} exceeds 1/rate");
            last = d;
        }
    });
}

/// Samples from clamped distributions always stay within the clamp.
#[test]
fn clamped_samples_in_range() {
    check::run("clamped_samples_in_range", 64, |g| {
        let mean = g.f64_in(-100.0, 100.0);
        let sd = g.f64_in(0.0, 50.0);
        let seed = g.u64();
        let mut sim = Sim::new(seed);
        let d = Dist::normal(mean, sd).clamped(mean - 1.0, mean + 1.0);
        for _ in 0..100 {
            let x = d.sample(sim.rng());
            assert!(x >= mean - 1.0 && x <= mean + 1.0);
        }
    });
}

/// Two simulators with the same seed running the same stochastic
/// workload produce identical event traces.
#[test]
fn identical_seeds_identical_traces() {
    check::run("identical_seeds_identical_traces", 48, |g| {
        let seed = g.u64();
        let n = g.usize_in(1, 50);
        let run = |seed: u64| -> Vec<u64> {
            let mut sim = Sim::new(seed);
            let log: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
            let d = Dist::exp(2.0);
            for _ in 0..n {
                let delay = SimDuration::from_secs_f64(d.sample(sim.rng()));
                let l = Rc::clone(&log);
                sim.schedule_in(delay, move |sim| l.borrow_mut().push(sim.now().as_micros()));
            }
            sim.run();
            let trace = log.borrow().clone();
            trace
        };
        assert_eq!(run(seed), run(seed));
    });
}

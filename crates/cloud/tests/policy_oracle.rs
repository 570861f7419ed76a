//! The cold-start policy oracle: an engine-free reference implementation
//! of the warm-pool automaton, differentially checked against
//! [`WarmPool`] for every policy.
//!
//! The reference simulator below re-implements the automaton spec from
//! `coldstart.rs`'s module docs with *different data structures*
//! (`BTreeMap`s keyed for the spec's tie-break orders instead of scanned
//! `Vec`s) so a bookkeeping bug in either implementation shows up as a
//! decision-log divergence. Two stream sources feed the differential:
//!
//! 1. seeded random event streams driven through both automata directly
//!    (no simulator), and
//! 2. full `Cloud` runs whose recorded input stream (`pool_inputs`) is
//!    replayed through the oracle and compared against `pool_decisions`.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use splitserve_cloud::{
    Cloud, CloudEvent, CloudListener, CloudSpec, ColdStartPolicy, ColdStartSpec, EvictReason,
    HybridHistogramSpec, LambdaId, ParkOrigin, PoolDecision, PoolEvent, PoolStats, WarmPool,
};
use splitserve_des::{Dist, Fabric, Sim, SimDuration, SimTime};
use splitserve_rt::check::{self, Gen};

// ---------------------------------------------------------------------
// The reference simulator
// ---------------------------------------------------------------------

struct RefEntry {
    memory_mb: u64,
    idle_since_us: u64,
    expires_us: u64,
}

/// Reference warm-pool automaton. Mirrors the spec, not the
/// implementation: entries live in a cid-keyed `BTreeMap`, selection
/// scans derive their orders from the spec's tie-break rules.
struct RefPool {
    policy: Box<dyn ColdStartPolicy>,
    warm: BTreeMap<u64, RefEntry>,
    pending: BTreeMap<u32, (u64, u64)>, // func -> (ready_us, memory_mb)
    last_release: BTreeMap<u32, u64>,
    next_cid: u64,
    stats: PoolStats,
    decisions: Vec<PoolDecision>,
}

impl RefPool {
    fn new(policy: Box<dyn ColdStartPolicy>, prewarmed: usize, prewarmed_mb: u64) -> Self {
        let mut p = RefPool {
            policy,
            warm: BTreeMap::new(),
            pending: BTreeMap::new(),
            last_release: BTreeMap::new(),
            next_cid: 0,
            stats: PoolStats::default(),
            decisions: Vec::new(),
        };
        for _ in 0..prewarmed {
            let keepalive = p.policy.keepalive_us(0, 0, ParkOrigin::Prewarm);
            p.park(0, prewarmed_mb, keepalive);
        }
        p.enforce_cap(0);
        p
    }

    fn park(&mut self, at_us: u64, memory_mb: u64, keepalive_us: u64) -> u64 {
        let cid = self.next_cid;
        self.next_cid += 1;
        self.warm.insert(
            cid,
            RefEntry {
                memory_mb,
                idle_since_us: at_us,
                expires_us: at_us.saturating_add(keepalive_us),
            },
        );
        cid
    }

    fn warm_mb(&self) -> u64 {
        self.warm.values().map(|e| e.memory_mb).sum()
    }

    fn evict(&mut self, cid: u64, at_us: u64, reason: EvictReason) {
        let e = self.warm.remove(&cid).expect("evicting a parked entry");
        let held = at_us.saturating_sub(e.idle_since_us);
        self.stats.wasted_mb_us += u128::from(held) * u128::from(e.memory_mb);
        match reason {
            EvictReason::Expired => self.stats.evicted_expired += 1,
            EvictReason::Pressure => self.stats.evicted_pressure += 1,
            EvictReason::Shutdown => self.stats.evicted_shutdown += 1,
        }
        self.decisions.push(PoolDecision::Evict { at_us, cid, reason });
    }

    fn enforce_cap(&mut self, now_us: u64) {
        let Some(cap) = self.policy.memory_cap_mb() else {
            return;
        };
        while self.warm_mb() > cap && !self.warm.is_empty() {
            // LRU = min (idle_since, cid).
            let cid = self
                .warm
                .iter()
                .min_by_key(|(cid, e)| (e.idle_since_us, **cid))
                .map(|(cid, _)| *cid)
                .unwrap();
            self.evict(cid, now_us, EvictReason::Pressure);
        }
    }

    fn advance(&mut self, now_us: u64) {
        // 1. Expiries, ascending (expires, cid).
        loop {
            let next = self
                .warm
                .iter()
                .filter(|(_, e)| e.expires_us <= now_us)
                .min_by_key(|(cid, e)| (e.expires_us, **cid))
                .map(|(cid, e)| (*cid, e.expires_us));
            let Some((cid, at)) = next else { break };
            self.evict(cid, at, EvictReason::Expired);
        }
        // 2. Due prewarms, ascending (ready, func); a materialized
        //    prewarm whose window already closed expires on the spot.
        loop {
            let next = self
                .pending
                .iter()
                .filter(|(_, (ready, _))| *ready <= now_us)
                .min_by_key(|(func, (ready, _))| (*ready, **func))
                .map(|(func, _)| *func);
            let Some(func) = next else { break };
            let (ready, mem) = self.pending.remove(&func).unwrap();
            let keepalive = self.policy.keepalive_us(func, ready, ParkOrigin::Prewarm);
            let cid = self.park(ready, mem, keepalive);
            self.stats.prewarm_starts += 1;
            self.decisions.push(PoolDecision::Prewarm {
                at_us: ready,
                cid,
                func,
            });
            let expires = self.warm[&cid].expires_us;
            if expires <= now_us {
                self.evict(cid, expires, EvictReason::Expired);
            }
        }
        // 3. Cap.
        self.enforce_cap(now_us);
    }

    fn apply(&mut self, ev: &PoolEvent) {
        match *ev {
            PoolEvent::Invoke {
                at_us,
                func,
                memory_mb: _,
            } => {
                self.advance(at_us);
                let gap = self.last_release.get(&func).map(|t| at_us - t);
                // MRU = max (idle_since, cid).
                let pick = self
                    .warm
                    .iter()
                    .max_by_key(|(cid, e)| (e.idle_since_us, **cid))
                    .map(|(cid, _)| *cid);
                let warm = match pick {
                    Some(cid) => {
                        let e = self.warm.remove(&cid).unwrap();
                        let held = at_us.saturating_sub(e.idle_since_us);
                        self.stats.wasted_mb_us += u128::from(held) * u128::from(e.memory_mb);
                        self.stats.warm_starts += 1;
                        self.decisions.push(PoolDecision::Start {
                            at_us,
                            func,
                            warm: Some(cid),
                        });
                        true
                    }
                    None => {
                        self.stats.cold_starts += 1;
                        self.decisions.push(PoolDecision::Start {
                            at_us,
                            func,
                            warm: None,
                        });
                        false
                    }
                };
                self.policy.record(func, gap, !warm);
            }
            PoolEvent::Release {
                at_us,
                func,
                memory_mb,
            } => {
                self.advance(at_us);
                self.last_release.insert(func, at_us);
                let keepalive = self.policy.keepalive_us(func, at_us, ParkOrigin::Release);
                let cid = self.park(at_us, memory_mb, keepalive);
                self.decisions.push(PoolDecision::Park {
                    at_us,
                    cid,
                    func,
                    expires_us: at_us.saturating_add(keepalive),
                });
                if let Some(p) = self.policy.prewarm_us(func, at_us) {
                    if p > 0 {
                        self.pending
                            .insert(func, (at_us.saturating_add(p), memory_mb));
                    }
                }
                self.enforce_cap(at_us);
            }
            PoolEvent::Finalize { at_us } => {
                self.advance(at_us);
                self.pending.clear();
                while let Some(cid) = self.warm.keys().next().copied() {
                    self.evict(cid, at_us, EvictReason::Shutdown);
                }
            }
        }
    }
}

/// Replays `inputs` through a fresh reference pool and returns its
/// decision log + stats.
fn oracle_replay(
    spec: &ColdStartSpec,
    prewarmed: usize,
    prewarmed_mb: u64,
    inputs: &[PoolEvent],
) -> (Vec<PoolDecision>, PoolStats) {
    let mut oracle = RefPool::new(spec.build(), prewarmed, prewarmed_mb);
    for ev in inputs {
        oracle.apply(ev);
    }
    (oracle.decisions, oracle.stats)
}

fn assert_logs_match(
    label: &str,
    live: &[PoolDecision],
    oracle: &[PoolDecision],
    live_stats: PoolStats,
    oracle_stats: PoolStats,
) {
    for (i, (l, o)) in live.iter().zip(oracle.iter()).enumerate() {
        assert_eq!(
            l, o,
            "[{label}] decision #{i} diverges: live {l:?} vs oracle {o:?}"
        );
    }
    assert_eq!(
        live.len(),
        oracle.len(),
        "[{label}] decision-log lengths diverge"
    );
    assert_eq!(live_stats, oracle_stats, "[{label}] stats diverge");
}

// ---------------------------------------------------------------------
// Stream generators
// ---------------------------------------------------------------------

fn policy_specs() -> Vec<ColdStartSpec> {
    vec![
        ColdStartSpec::forever(),
        ColdStartSpec::fixed_secs(30),
        ColdStartSpec::Fixed { keepalive_us: 0 },
        ColdStartSpec::UnloadOnPressure { cap_mb: 4_096 },
        ColdStartSpec::UnloadOnPressure { cap_mb: 512 },
        ColdStartSpec::HybridHistogram(HybridHistogramSpec {
            min_samples: 4,
            fallback_keepalive_us: 20_000_000,
            ..HybridHistogramSpec::default()
        }),
    ]
}

/// A random, time-ordered event stream: bursts of invokes, releases
/// trailing what was started, occasional long gaps (so fixed keepalives
/// expire and hybrid histograms accumulate out-of-bounds mass).
fn random_stream(g: &mut Gen) -> Vec<PoolEvent> {
    let mut t = 0u64;
    let mut outstanding: Vec<(u32, u64)> = Vec::new();
    let mut events = Vec::new();
    let n = g.usize_in(5, 120);
    for _ in 0..n {
        t += if g.bool() {
            g.u64_in(1_000, 2_000_000) // within bursts: ms-scale
        } else {
            g.u64_in(1_000_000, 120_000_000) // between bursts: up to 2 min
        };
        let func = g.u64_in(0, 4) as u32;
        if !outstanding.is_empty() && g.bool() {
            let idx = g.usize_in(0, outstanding.len());
            let (f, mem) = outstanding.swap_remove(idx);
            events.push(PoolEvent::Release {
                at_us: t,
                func: f,
                memory_mb: mem,
            });
        } else {
            let mem = [512u64, 1_024, 1_536, 3_008][g.usize_in(0, 4)];
            events.push(PoolEvent::Invoke {
                at_us: t,
                func,
                memory_mb: mem,
            });
            outstanding.push((func, mem));
        }
    }
    // Drain a random suffix of the outstanding set, then finalize.
    while !outstanding.is_empty() && g.bool() {
        t += g.u64_in(1_000, 5_000_000);
        let (f, mem) = outstanding.pop().unwrap();
        events.push(PoolEvent::Release {
            at_us: t,
            func: f,
            memory_mb: mem,
        });
    }
    events.push(PoolEvent::Finalize {
        at_us: t + g.u64_in(0, 60_000_000),
    });
    events
}

fn drive_live(
    spec: &ColdStartSpec,
    prewarmed: usize,
    prewarmed_mb: u64,
    events: &[PoolEvent],
) -> (Vec<PoolDecision>, PoolStats) {
    let mut pool = WarmPool::new(spec.build(), prewarmed, prewarmed_mb);
    for ev in events {
        match *ev {
            PoolEvent::Invoke {
                at_us,
                func,
                memory_mb,
            } => {
                pool.invoke(at_us, func, memory_mb);
            }
            PoolEvent::Release {
                at_us,
                func,
                memory_mb,
            } => pool.release(at_us, func, memory_mb),
            PoolEvent::Finalize { at_us } => pool.finalize(at_us),
        }
    }
    (pool.decisions().to_vec(), pool.stats())
}

// ---------------------------------------------------------------------
// Differentials
// ---------------------------------------------------------------------

/// Every policy, 64 random streams each: the live automaton and the
/// oracle must produce bit-identical decision logs and stats.
#[test]
fn oracle_differential_on_random_streams() {
    for spec in policy_specs() {
        let name = spec.name();
        check::run(&format!("oracle/{name}"), 64, |g| {
            let prewarmed = g.usize_in(0, 4);
            let events = random_stream(g);
            let (live, live_stats) = drive_live(&spec, prewarmed, 1_536, &events);
            let (oracle, oracle_stats) = oracle_replay(&spec, prewarmed, 1_536, &events);
            assert_logs_match(name, &live, &oracle, live_stats, oracle_stats);
        });
    }
}

/// The cloud's listener in these runs: records the hold a test gave each
/// Lambda and releases the Lambda that long after it comes up.
struct Releaser {
    cloud: Cloud,
    holds: RefCell<Vec<(LambdaId, SimDuration)>>,
}

impl Releaser {
    fn on(cloud: &Cloud) -> Rc<Releaser> {
        let releaser = Rc::new(Releaser {
            cloud: cloud.clone(),
            holds: RefCell::default(),
        });
        cloud.set_listener(&releaser);
        releaser
    }

    fn release_after(&self, id: LambdaId, hold: SimDuration) {
        self.holds.borrow_mut().push((id, hold));
    }
}

impl CloudListener for Releaser {
    fn on_cloud_event(self: Rc<Self>, sim: &mut Sim, event: CloudEvent) {
        let CloudEvent::LambdaReady(id) = event else {
            return;
        };
        let hold = self.holds.borrow().iter().find(|(l, _)| *l == id).map(|(_, h)| *h);
        if let Some(hold) = hold {
            let cloud = self.cloud.clone();
            sim.schedule_in(hold, move |sim| cloud.release_lambda(sim, id));
        }
    }
}

/// The same differential via a full `Cloud` run: random invoke/release
/// schedules on the discrete-event simulator, the recorded input stream
/// replayed through the oracle.
#[test]
fn oracle_differential_on_cloud_runs() {
    for spec in policy_specs() {
        let name = spec.name();
        check::run(&format!("oracle-cloud/{name}"), 24, |g| {
            let prewarmed = g.usize_in(0, 2);
            let cloud_spec = CloudSpec {
                vm_boot: Dist::constant(110.0),
                lambda_warm_start: Dist::constant(0.1),
                lambda_cold_start: Dist::constant(3.0),
                lambda_net_jitter: Dist::constant(1.0),
                prewarmed_lambdas: prewarmed,
                coldstart: spec.clone(),
                ..CloudSpec::default()
            };
            let mut sim = Sim::new(g.u64());
            let cloud = Cloud::new(cloud_spec, Fabric::new());
            let releaser = Releaser::on(&cloud);
            let n = g.usize_in(1, 24);
            for _ in 0..n {
                let at = g.u64_in(0, 180_000_000);
                let func = g.u64_in(0, 3) as u32;
                let hold = g.u64_in(100_000, 40_000_000);
                let release = g.bool();
                let (c, r) = (cloud.clone(), Rc::clone(&releaser));
                sim.schedule_at(SimTime::from_micros(at), move |sim| {
                    let id = c.invoke_lambda(sim, func, 1_536);
                    if release {
                        r.release_after(id, SimDuration::from_micros(hold));
                    }
                });
            }
            sim.run_until(SimTime::from_secs(400));
            cloud.shutdown_all(&mut sim);
            let inputs = cloud.pool_inputs();
            let (oracle, oracle_stats) =
                oracle_replay(&spec, prewarmed, 1_536, &inputs);
            assert_logs_match(
                name,
                &cloud.pool_decisions(),
                &oracle,
                cloud.pool_stats(),
                oracle_stats,
            );
        });
    }
}

/// Replaying a live pool's *own* recorded inputs through a second live
/// pool reproduces its decisions — the log is a complete causal record
/// (nothing outside the event stream influences decisions).
#[test]
fn input_log_is_a_complete_causal_record() {
    for spec in policy_specs() {
        let name = spec.name();
        check::run(&format!("replay/{name}"), 32, |g| {
            let events = random_stream(g);
            let (first, first_stats) = drive_live(&spec, 2, 1_536, &events);
            let (second, second_stats) = drive_live(&spec, 2, 1_536, &events);
            assert_logs_match(name, &first, &second, first_stats, second_stats);
        });
    }
}

//! The cold-start / keepalive policy plane.
//!
//! The paper's launching facility hinges on the ~100 ms-warm vs
//! multi-second-cold Lambda gap. Production FaaS platforms do not hold
//! containers warm forever: they run a *keepalive policy* that trades
//! cold-start latency against wasted warm memory. This module makes that
//! trade a pluggable decision: a [`WarmPool`] automaton owns the warm
//! container set, and a [`ColdStartPolicy`] is consulted at its three
//! decision points:
//!
//! - **invoke** — a container is taken from the pool (warm) or not (cold);
//!   the policy observes the function's idle gap either way.
//! - **release** — a returning container is parked; the policy picks its
//!   keepalive window (and, optionally, a prewarm window instead).
//! - **time-advance** — the lazy sweep run before every decision: expired
//!   containers are evicted, due prewarms materialize, and the aggregate
//!   memory cap is enforced. No simulator events are scheduled — the
//!   whole plane is virtual-time bookkeeping, so enabling any policy
//!   never perturbs the event queue or the RNG stream.
//!
//! Every decision is appended to a [`PoolDecision`] log and every input
//! to a [`PoolEvent`] log, so an engine-free *oracle* (a second,
//! independent implementation of the automaton) can replay the input
//! stream and must reproduce the decisions bit-for-bit — the
//! differential test in `crates/cloud/tests/policy_oracle.rs`.
//!
//! # The automaton, precisely
//!
//! State: a set of warm entries `(cid, func, memory_mb, idle_since_us,
//! expires_us)` plus at most one pending prewarm per function. `cid` is a
//! monotone counter assigned at every insertion (seeded prewarmed
//! containers take `0..n`). All rules below are deterministic; ties break
//! on `cid`.
//!
//! `advance_to(now)`:
//! 1. Evict every entry with `expires_us <= now`, ascending by
//!    `(expires_us, cid)` — reason `Expired`, wasted memory charged from
//!    `idle_since_us` to `expires_us`.
//! 2. Materialize every pending prewarm with `ready_us <= now`, ascending
//!    by `(ready_us, func)`: a fresh `cid` is parked at `ready_us` with a
//!    keepalive window asked of the policy (`ParkOrigin::Prewarm`); if its
//!    window already ended it is immediately evicted (reason `Expired`).
//! 3. While the policy caps memory and the warm total exceeds the cap,
//!    evict the LRU entry (minimum `(idle_since_us, cid)`) — reason
//!    `Pressure`, wasted memory charged up to `now`.
//!
//! `invoke(now, func, mem)`: advance, then take the MRU entry (maximum
//! `(idle_since_us, cid)`) if any — warm — else cold. The policy observes
//! `(func, gap, cold)` where `gap` is the time since `func`'s last
//! release (if any). A reused container charges its idle span to the
//! wasted-memory meter too: warmth is paid for in memory-time whether or
//! not it pans out, which is what makes the metric comparable across
//! policies.
//!
//! `release(now, func, mem)`: advance, stamp `func`'s last-release, ask
//! the policy for a keepalive window (`ParkOrigin::Release`) and park a
//! fresh `cid`; then ask for a prewarm window — `Some(p)` replaces the
//! function's pending prewarm with one due at `now + p`. Finally the cap
//! is enforced.
//!
//! `finalize(now)`: advance, then evict everything (reason `Shutdown`,
//! wasted memory up to `now`) and drop pending prewarms.

use splitserve_rt::hash::FastMap;

/// Sentinel keepalive meaning "never expire".
pub(crate) const FOREVER_US: u64 = u64::MAX;

/// Why a policy is being asked for a keepalive window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParkOrigin {
    /// A running container returned gracefully.
    Release,
    /// A pending prewarm materialized.
    Prewarm,
}

/// A pluggable cold-start/keepalive policy. Implementations must be
/// deterministic pure functions of the call sequence — the differential
/// oracle replays the same sequence against a fresh instance and the
/// decisions must match bit-for-bit.
pub trait ColdStartPolicy: std::fmt::Debug {
    /// Stable label for metrics and artifacts.
    fn name(&self) -> &'static str;

    /// Idle microseconds a container parked at `now_us` survives before
    /// eviction. `FOREVER_US` means it never expires; `0` means it is
    /// discarded immediately (the hybrid policy's "shut down now, prewarm
    /// later" arm).
    fn keepalive_us(&mut self, func: u32, now_us: u64, origin: ParkOrigin) -> u64;

    /// Delay after a release at which a *fresh* container should be
    /// warmed for `func`. `None` (the default) disables prewarming.
    fn prewarm_us(&mut self, _func: u32, _now_us: u64) -> Option<u64> {
        None
    }

    /// Aggregate warm-memory cap in MB; exceeding it evicts LRU entries.
    /// `None` (the default) leaves the pool uncapped.
    fn memory_cap_mb(&self) -> Option<u64> {
        None
    }

    /// Observes one invocation of `func`: `idle_gap_us` is the time since
    /// the function's previous release (`None` on its first-ever start)
    /// and `cold` tells whether the pool missed.
    fn record(&mut self, _func: u32, _idle_gap_us: Option<u64>, _cold: bool) {}
}

// ---------------------------------------------------------------------
// Policy configs (cloneable specs) and the three implementations
// ---------------------------------------------------------------------

/// Cloneable policy selection carried by `CloudSpec` (and therefore by
/// `ScenarioSpec` / `TenantFleetConfig`). [`ColdStartSpec::build`] turns
/// it into live policy state.
#[derive(Debug, Clone, PartialEq)]
pub enum ColdStartSpec {
    /// Containers expire after a fixed idle window (`FOREVER_US` =
    /// never — the pre-policy-plane model, pinned by the digest suites).
    Fixed {
        /// Idle window in microseconds.
        keepalive_us: u64,
    },
    /// Containers never expire on idleness but the warm pool is capped:
    /// crossing `cap_mb` of aggregate reserved memory evicts LRU.
    UnloadOnPressure {
        /// Aggregate warm-memory cap in MB.
        cap_mb: u64,
    },
    /// The Azure "Serverless in the Wild" hybrid-histogram policy:
    /// per-function idle-time histograms drive the keepalive and prewarm
    /// windows, with a fixed-keepalive fallback while samples are scarce
    /// or the distribution spills out of range.
    HybridHistogram(HybridHistogramSpec),
}

impl ColdStartSpec {
    /// The pre-policy-plane model: infinite keepalive, no cap, no
    /// prewarm. All digest-pinned suites run under this.
    pub fn forever() -> Self {
        ColdStartSpec::Fixed {
            keepalive_us: FOREVER_US,
        }
    }

    /// Fixed keepalive of `secs` seconds.
    pub fn fixed_secs(secs: u64) -> Self {
        ColdStartSpec::Fixed {
            keepalive_us: secs.saturating_mul(1_000_000),
        }
    }

    /// Parses the `SPLITSERVE_COLDSTART`-style selector:
    /// `forever`, `fixed:<secs>`, `pressure:<cap_mb>`, or `hybrid`
    /// (optionally `hybrid:<fallback_secs>`).
    pub fn parse(s: &str) -> Result<Self, String> {
        let (kind, arg) = match s.split_once(':') {
            Some((k, a)) => (k, Some(a)),
            None => (s, None),
        };
        let num = |a: Option<&str>, what: &str| -> Result<u64, String> {
            a.ok_or_else(|| format!("{kind} needs :{what}"))?
                .parse::<u64>()
                .map_err(|e| format!("bad {what} in {s:?}: {e}"))
        };
        match kind {
            "forever" => Ok(ColdStartSpec::forever()),
            "fixed" => Ok(ColdStartSpec::fixed_secs(num(arg, "secs")?)),
            "pressure" => Ok(ColdStartSpec::UnloadOnPressure {
                cap_mb: num(arg, "cap_mb")?,
            }),
            "hybrid" => {
                let mut spec = HybridHistogramSpec::default();
                if let Some(a) = arg {
                    // No saturation: `u64::MAX` µs has no selector of its own.
                    spec.fallback_keepalive_us = a
                        .parse::<u64>()
                        .map_err(|e| format!("bad fallback secs in {s:?}: {e}"))?
                        .checked_mul(1_000_000)
                        .ok_or_else(|| format!("fallback secs in {s:?} overflow"))?;
                }
                Ok(ColdStartSpec::HybridHistogram(spec))
            }
            other => Err(format!("unknown cold-start policy {other:?}")),
        }
    }

    /// Builds fresh policy state.
    pub fn build(&self) -> Box<dyn ColdStartPolicy> {
        match self {
            ColdStartSpec::Fixed { keepalive_us } => {
                Box::new(FixedKeepalive::new_us(*keepalive_us))
            }
            ColdStartSpec::UnloadOnPressure { cap_mb } => {
                Box::new(UnloadOnPressure::new(*cap_mb))
            }
            ColdStartSpec::HybridHistogram(spec) => {
                Box::new(HybridHistogram::new(spec.clone()))
            }
        }
    }

    /// The selector string [`ColdStartSpec::parse`] round-trips: stable,
    /// argument-carrying labels for sweep artifacts (`forever`,
    /// `fixed:30`, `pressure:6144`, `hybrid:15`).
    pub fn selector(&self) -> String {
        match self {
            ColdStartSpec::Fixed {
                keepalive_us: FOREVER_US,
            } => "forever".to_string(),
            ColdStartSpec::Fixed { keepalive_us } => {
                format!("fixed:{}", keepalive_us / 1_000_000)
            }
            ColdStartSpec::UnloadOnPressure { cap_mb } => format!("pressure:{cap_mb}"),
            ColdStartSpec::HybridHistogram(spec) => {
                format!("hybrid:{}", spec.fallback_keepalive_us / 1_000_000)
            }
        }
    }

    /// The label [`ColdStartPolicy::name`] of the built policy.
    pub fn name(&self) -> &'static str {
        match self {
            ColdStartSpec::Fixed { .. } => "fixed-keepalive",
            ColdStartSpec::UnloadOnPressure { .. } => "unload-on-pressure",
            ColdStartSpec::HybridHistogram(_) => "hybrid-histogram",
        }
    }
}

/// Fixed idle-window keepalive — AWS Lambda's observed behaviour is
/// roughly a 5–15 minute window; the `CloudSpec` default is 15 minutes.
#[derive(Debug, Clone)]
pub(crate) struct FixedKeepalive {
    keepalive_us: u64,
}

impl FixedKeepalive {
    /// Keepalive of `window_us` microseconds.
    pub(crate) fn new_us(window_us: u64) -> Self {
        FixedKeepalive {
            keepalive_us: window_us,
        }
    }
}

impl ColdStartPolicy for FixedKeepalive {
    fn name(&self) -> &'static str {
        "fixed-keepalive"
    }
    fn keepalive_us(&mut self, _func: u32, _now_us: u64, _origin: ParkOrigin) -> u64 {
        self.keepalive_us
    }
}

/// Infinite keepalive under an aggregate warm-memory cap: the pool only
/// sheds containers when reserved memory crosses `cap_mb`, LRU first.
#[derive(Debug, Clone)]
pub struct UnloadOnPressure {
    cap_mb: u64,
}

impl UnloadOnPressure {
    /// Cap the warm pool at `cap_mb` MB of reserved memory.
    pub fn new(cap_mb: u64) -> Self {
        UnloadOnPressure { cap_mb }
    }
}

impl ColdStartPolicy for UnloadOnPressure {
    fn name(&self) -> &'static str {
        "unload-on-pressure"
    }
    fn keepalive_us(&mut self, _func: u32, _now_us: u64, _origin: ParkOrigin) -> u64 {
        FOREVER_US
    }
    fn memory_cap_mb(&self) -> Option<u64> {
        Some(self.cap_mb)
    }
}

/// Tunables of the [`HybridHistogram`] policy.
#[derive(Debug, Clone, PartialEq)]
pub struct HybridHistogramSpec {
    /// Histogram bin width in microseconds (Azure uses 1 minute over a
    /// 4-hour range; simulated workloads idle for seconds-to-minutes, so
    /// the default is 1 s bins).
    pub bin_us: u64,
    /// Number of in-range bins; gaps beyond `bin_us * bins` count as
    /// out-of-bounds.
    pub bins: usize,
    /// Head percentile driving the prewarm window.
    pub head_quantile: f64,
    /// Tail percentile driving the keepalive horizon.
    pub tail_quantile: f64,
    /// Safety margin: the prewarm window shrinks and the keepalive
    /// horizon grows by this fraction.
    pub margin: f64,
    /// Below this many recorded gaps the policy stays on the fallback.
    pub min_samples: u64,
    /// Above this out-of-bounds fraction the histogram is distrusted and
    /// the policy stays on the fallback.
    pub oob_threshold: f64,
    /// Fallback fixed keepalive used on the low-sample / out-of-bounds
    /// path.
    pub fallback_keepalive_us: u64,
}

impl Default for HybridHistogramSpec {
    fn default() -> Self {
        HybridHistogramSpec {
            bin_us: 1_000_000,
            bins: 256,
            head_quantile: 0.05,
            tail_quantile: 0.99,
            margin: 0.10,
            min_samples: 8,
            oob_threshold: 0.5,
            fallback_keepalive_us: 900_000_000,
        }
    }
}

#[derive(Debug, Default)]
struct FuncHist {
    counts: Vec<u32>,
    total: u64,
    oob: u64,
    /// Cached `(prewarm_us, horizon_us)` decision, `None` when the
    /// histogram is not trusted; recomputed lazily after each record so
    /// steady-state decisions are O(1).
    cached: Option<Option<(u64, u64)>>,
}

/// Per-function idle-time histograms choosing prewarm + keepalive
/// windows (the Azure "Serverless in the Wild" hybrid policy). While a
/// function's histogram is under-sampled or spills out of range, the
/// policy falls back to a fixed keepalive; once trusted, a container is
/// released immediately when the head percentile predicts a long gap,
/// and a fresh one is prewarmed just ahead of the predicted next use,
/// surviving to just past the tail percentile.
#[derive(Debug)]
pub struct HybridHistogram {
    spec: HybridHistogramSpec,
    funcs: FastMap<u32, FuncHist>,
}

impl HybridHistogram {
    /// Policy over `spec`.
    pub fn new(spec: HybridHistogramSpec) -> Self {
        assert!(spec.bins > 0 && spec.bin_us > 0, "degenerate histogram");
        HybridHistogram {
            spec,
            funcs: FastMap::default(),
        }
    }

    /// `(prewarm_us, horizon_us)` for `func`, `None` on the fallback
    /// path. `horizon_us` is the predicted latest next-use instant
    /// relative to the release.
    fn windows(&mut self, func: u32) -> Option<(u64, u64)> {
        let spec = &self.spec;
        let h = self.funcs.entry(func).or_default();
        if let Some(cached) = h.cached {
            return cached;
        }
        let computed = compute_windows(spec, h);
        h.cached = Some(computed);
        computed
    }
}

fn compute_windows(spec: &HybridHistogramSpec, h: &FuncHist) -> Option<(u64, u64)> {
    if h.total < spec.min_samples {
        return None;
    }
    if (h.oob as f64) > spec.oob_threshold * h.total as f64 {
        return None;
    }
    let in_range: u64 = h.total - h.oob;
    if in_range == 0 {
        return None;
    }
    let bin_at = |q: f64| -> u64 {
        let target = (q * in_range as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (i, c) in h.counts.iter().enumerate() {
            cum += u64::from(*c);
            if cum >= target {
                return i as u64;
            }
        }
        h.counts.len() as u64 - 1
    };
    let head_end = (bin_at(spec.head_quantile) + 1) * spec.bin_us;
    let tail_end = (bin_at(spec.tail_quantile) + 1) * spec.bin_us;
    // Shrink the prewarm below the head bin's *start*, pad the horizon
    // past the tail bin's end.
    let prewarm = ((head_end.saturating_sub(spec.bin_us)) as f64 * (1.0 - spec.margin)) as u64;
    let horizon = (tail_end as f64 * (1.0 + spec.margin)) as u64;
    Some((prewarm, horizon.max(spec.bin_us)))
}

impl ColdStartPolicy for HybridHistogram {
    fn name(&self) -> &'static str {
        "hybrid-histogram"
    }

    fn keepalive_us(&mut self, func: u32, _now_us: u64, origin: ParkOrigin) -> u64 {
        let fallback = self.spec.fallback_keepalive_us;
        let bin = self.spec.bin_us;
        match self.windows(func) {
            None => match origin {
                ParkOrigin::Release => fallback,
                // A prewarm materializing after the histogram lost
                // confidence still gets a usable window.
                ParkOrigin::Prewarm => fallback,
            },
            Some((prewarm, horizon)) => match origin {
                // Confident with a real prewarm window: drop the released
                // container now, the prewarmed replacement covers the
                // predicted arrival. Without a prewarm window, hold the
                // released container for the whole horizon.
                ParkOrigin::Release => {
                    if prewarm > 0 {
                        0
                    } else {
                        horizon
                    }
                }
                ParkOrigin::Prewarm => horizon.saturating_sub(prewarm).max(bin),
            },
        }
    }

    fn prewarm_us(&mut self, func: u32, _now_us: u64) -> Option<u64> {
        match self.windows(func) {
            Some((prewarm, _)) if prewarm > 0 => Some(prewarm),
            _ => None,
        }
    }

    fn record(&mut self, func: u32, idle_gap_us: Option<u64>, _cold: bool) {
        let Some(gap) = idle_gap_us else { return };
        let bins = self.spec.bins;
        let bin_us = self.spec.bin_us;
        let h = self.funcs.entry(func).or_default();
        if h.counts.is_empty() {
            h.counts = vec![0; bins];
        }
        let idx = (gap / bin_us) as usize;
        if idx < bins {
            h.counts[idx] += 1;
        } else {
            h.oob += 1;
        }
        h.total += 1;
        h.cached = None;
    }
}

// ---------------------------------------------------------------------
// The warm-pool automaton
// ---------------------------------------------------------------------

/// Why a warm container left the pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvictReason {
    /// Its keepalive window elapsed.
    Expired,
    /// The aggregate memory cap forced an LRU eviction.
    Pressure,
    /// The pool was finalized at end of run.
    Shutdown,
}

impl EvictReason {
    /// Stable label for metrics.
    pub fn as_str(&self) -> &'static str {
        match self {
            EvictReason::Expired => "expired",
            EvictReason::Pressure => "pressure",
            EvictReason::Shutdown => "shutdown",
        }
    }
}

/// One input to the automaton — the stream the oracle replays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolEvent {
    /// An invocation arrived.
    Invoke {
        /// Virtual microseconds.
        at_us: u64,
        /// Function identity.
        func: u32,
        /// Requested memory.
        memory_mb: u64,
    },
    /// A running container returned gracefully.
    Release {
        /// Virtual microseconds.
        at_us: u64,
        /// Function identity.
        func: u32,
        /// The container's memory.
        memory_mb: u64,
    },
    /// End of run.
    Finalize {
        /// Virtual microseconds.
        at_us: u64,
    },
}

/// One decision the automaton + policy made — what the oracle must
/// reproduce bit-for-bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolDecision {
    /// An invocation was served warm (`cid` names the reused container)
    /// or cold.
    Start {
        /// Virtual microseconds.
        at_us: u64,
        /// Function identity.
        func: u32,
        /// The reused container, `None` on a cold start.
        warm: Option<u64>,
    },
    /// A container was parked with an expiry.
    Park {
        /// Virtual microseconds.
        at_us: u64,
        /// The new container id.
        cid: u64,
        /// Function identity.
        func: u32,
        /// Absolute expiry instant (`FOREVER_US`-saturated).
        expires_us: u64,
    },
    /// A pending prewarm materialized into a warm container.
    Prewarm {
        /// Virtual microseconds (the prewarm's ready instant).
        at_us: u64,
        /// The new container id.
        cid: u64,
        /// Function identity.
        func: u32,
    },
    /// A warm container left the pool.
    Evict {
        /// Virtual microseconds.
        at_us: u64,
        /// The evicted container.
        cid: u64,
        /// Why.
        reason: EvictReason,
    },
}

/// Aggregate pool statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Invocations served from the pool.
    pub warm_starts: u64,
    /// Invocations that missed.
    pub cold_starts: u64,
    /// Prewarms materialized.
    pub prewarm_starts: u64,
    /// Evictions by keepalive expiry.
    pub evicted_expired: u64,
    /// Evictions by memory pressure.
    pub evicted_pressure: u64,
    /// Evictions at finalize.
    pub evicted_shutdown: u64,
    /// Total idle warm memory held, in MB·µs — every parked container's
    /// idle span counts, whether it was later reused or evicted.
    pub wasted_mb_us: u128,
}

impl PoolStats {
    /// Cold starts over all starts (0 when nothing started).
    pub fn cold_fraction(&self) -> f64 {
        let total = self.warm_starts + self.cold_starts;
        if total == 0 {
            0.0
        } else {
            self.cold_starts as f64 / total as f64
        }
    }

    /// Idle warm memory held, in GB·s.
    pub fn wasted_gb_seconds(&self) -> f64 {
        self.wasted_mb_us as f64 / 1e6 / 1024.0
    }
}

// Warm containers are fungible across functions, so entries carry no
// func — only the Park/Prewarm decision log records which function
// parked them.
#[derive(Debug, Clone, Copy)]
struct WarmEntry {
    cid: u64,
    memory_mb: u64,
    idle_since_us: u64,
    expires_us: u64,
}

#[derive(Debug, Clone, Copy)]
struct PendingPrewarm {
    func: u32,
    memory_mb: u64,
    ready_us: u64,
}

/// The warm-pool state machine: containers, pending prewarms, the
/// policy, and the input/decision logs. Owned by `Cloud`; also drivable
/// directly (no simulator required) by the property suites and benches.
#[derive(Debug)]
pub struct WarmPool {
    policy: Box<dyn ColdStartPolicy>,
    warm: Vec<WarmEntry>,
    pending: Vec<PendingPrewarm>,
    last_release: FastMap<u32, u64>,
    next_cid: u64,
    warm_mb: u64,
    stats: PoolStats,
    inputs: Vec<PoolEvent>,
    decisions: Vec<PoolDecision>,
    finalized: bool,
}

impl WarmPool {
    /// A pool under `policy`, seeded with `prewarmed` containers of
    /// `prewarmed_mb` each (func 0, idle since t=0). Seeding asks the
    /// policy for each container's keepalive in `cid` order and then
    /// enforces the cap; seeds are not logged (the oracle seeds from the
    /// same config).
    pub fn new(policy: Box<dyn ColdStartPolicy>, prewarmed: usize, prewarmed_mb: u64) -> Self {
        let mut pool = WarmPool {
            policy,
            warm: Vec::new(),
            pending: Vec::new(),
            last_release: FastMap::default(),
            next_cid: 0,
            warm_mb: 0,
            stats: PoolStats::default(),
            inputs: Vec::new(),
            decisions: Vec::new(),
            finalized: false,
        };
        for _ in 0..prewarmed {
            let keepalive = pool.policy.keepalive_us(0, 0, ParkOrigin::Prewarm);
            pool.insert(0, prewarmed_mb, keepalive);
        }
        pool.enforce_cap(0);
        pool
    }

    /// The policy's label.
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// Current warm container count.
    pub(crate) fn warm_len(&self) -> usize {
        self.warm.len()
    }

    /// Aggregate reserved warm memory in MB.
    ///
    /// Test aid: only tests call this.
    pub fn warm_memory_mb(&self) -> u64 {
        self.warm_mb
    }

    /// Aggregate statistics so far.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// The input stream consumed so far (for oracle replay).
    pub fn inputs(&self) -> &[PoolEvent] {
        &self.inputs
    }

    /// The decision log so far (what the oracle must reproduce).
    pub fn decisions(&self) -> &[PoolDecision] {
        &self.decisions
    }

    fn insert(&mut self, at_us: u64, memory_mb: u64, keepalive_us: u64) -> u64 {
        let cid = self.next_cid;
        self.next_cid += 1;
        self.warm.push(WarmEntry {
            cid,
            memory_mb,
            idle_since_us: at_us,
            expires_us: at_us.saturating_add(keepalive_us),
        });
        self.warm_mb += memory_mb;
        cid
    }

    fn evict_at(&mut self, idx: usize, at_us: u64, reason: EvictReason) {
        let e = self.warm.swap_remove(idx);
        self.warm_mb -= e.memory_mb;
        let held = at_us.saturating_sub(e.idle_since_us);
        self.stats.wasted_mb_us += u128::from(held) * u128::from(e.memory_mb);
        match reason {
            EvictReason::Expired => self.stats.evicted_expired += 1,
            EvictReason::Pressure => self.stats.evicted_pressure += 1,
            EvictReason::Shutdown => self.stats.evicted_shutdown += 1,
        }
        self.decisions.push(PoolDecision::Evict {
            at_us,
            cid: e.cid,
            reason,
        });
    }

    fn enforce_cap(&mut self, now_us: u64) {
        let Some(cap) = self.policy.memory_cap_mb() else {
            return;
        };
        while self.warm_mb > cap && !self.warm.is_empty() {
            // LRU: minimum (idle_since, cid).
            let idx = self
                .warm
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| (e.idle_since_us, e.cid))
                .map(|(i, _)| i)
                .expect("non-empty");
            self.evict_at(idx, now_us, EvictReason::Pressure);
        }
    }

    /// The lazy time-advance sweep: expiries, due prewarms, cap.
    pub(crate) fn advance_to(&mut self, now_us: u64) {
        // 1. Expiries, ascending (expires, cid).
        loop {
            let next = self
                .warm
                .iter()
                .enumerate()
                .filter(|(_, e)| e.expires_us <= now_us)
                .min_by_key(|(_, e)| (e.expires_us, e.cid))
                .map(|(i, _)| i);
            let Some(idx) = next else { break };
            let at = self.warm[idx].expires_us;
            self.evict_at(idx, at, EvictReason::Expired);
        }
        // 2. Due prewarms, ascending (ready, func).
        loop {
            let next = self
                .pending
                .iter()
                .enumerate()
                .filter(|(_, p)| p.ready_us <= now_us)
                .min_by_key(|(_, p)| (p.ready_us, p.func))
                .map(|(i, _)| i);
            let Some(idx) = next else { break };
            let p = self.pending.remove(idx);
            let keepalive = self
                .policy
                .keepalive_us(p.func, p.ready_us, ParkOrigin::Prewarm);
            let cid = self.insert(p.ready_us, p.memory_mb, keepalive);
            self.stats.prewarm_starts += 1;
            self.decisions.push(PoolDecision::Prewarm {
                at_us: p.ready_us,
                cid,
                func: p.func,
            });
            // A prewarm whose window already closed before `now` expires
            // on the spot (next loop iteration would also catch it, but
            // the expiry belongs to this sweep's ordering).
            if let Some(i) = self.warm.iter().position(|e| e.cid == cid) {
                if self.warm[i].expires_us <= now_us {
                    let at = self.warm[i].expires_us;
                    self.evict_at(i, at, EvictReason::Expired);
                }
            }
        }
        // 3. Cap.
        self.enforce_cap(now_us);
    }

    /// An invocation at `now_us`; returns `true` on a warm start.
    pub fn invoke(&mut self, now_us: u64, func: u32, memory_mb: u64) -> bool {
        self.inputs.push(PoolEvent::Invoke {
            at_us: now_us,
            func,
            memory_mb,
        });
        self.advance_to(now_us);
        let gap = self.last_release.get(&func).map(|t| now_us - t);
        // MRU: maximum (idle_since, cid).
        let pick = self
            .warm
            .iter()
            .enumerate()
            .max_by_key(|(_, e)| (e.idle_since_us, e.cid))
            .map(|(i, _)| i);
        let warm = match pick {
            Some(idx) => {
                let e = self.warm.swap_remove(idx);
                self.warm_mb -= e.memory_mb;
                // Warmth is paid for in memory-time whether or not it is
                // eventually used — charge the reused span too.
                let held = now_us.saturating_sub(e.idle_since_us);
                self.stats.wasted_mb_us += u128::from(held) * u128::from(e.memory_mb);
                self.stats.warm_starts += 1;
                self.decisions.push(PoolDecision::Start {
                    at_us: now_us,
                    func,
                    warm: Some(e.cid),
                });
                true
            }
            None => {
                self.stats.cold_starts += 1;
                self.decisions.push(PoolDecision::Start {
                    at_us: now_us,
                    func,
                    warm: None,
                });
                false
            }
        };
        self.policy.record(func, gap, !warm);
        warm
    }

    /// A graceful release at `now_us`: parks a fresh container and may
    /// schedule a prewarm.
    pub fn release(&mut self, now_us: u64, func: u32, memory_mb: u64) {
        self.inputs.push(PoolEvent::Release {
            at_us: now_us,
            func,
            memory_mb,
        });
        self.advance_to(now_us);
        self.last_release.insert(func, now_us);
        let keepalive = self.policy.keepalive_us(func, now_us, ParkOrigin::Release);
        let cid = self.insert(now_us, memory_mb, keepalive);
        self.decisions.push(PoolDecision::Park {
            at_us: now_us,
            cid,
            func,
            expires_us: now_us.saturating_add(keepalive),
        });
        if let Some(p) = self.policy.prewarm_us(func, now_us) {
            if p > 0 {
                // At most one pending prewarm per function; latest wins.
                self.pending.retain(|q| q.func != func);
                self.pending.push(PendingPrewarm {
                    func,
                    memory_mb,
                    ready_us: now_us.saturating_add(p),
                });
            }
        }
        self.enforce_cap(now_us);
    }

    /// End of run: everything still warm is charged and dropped. A
    /// second call is a no-op.
    pub fn finalize(&mut self, now_us: u64) {
        if self.finalized {
            return;
        }
        self.finalized = true;
        self.inputs.push(PoolEvent::Finalize { at_us: now_us });
        self.advance_to(now_us);
        self.pending.clear();
        loop {
            let next = self
                .warm
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.cid)
                .map(|(i, _)| i);
            let Some(idx) = next else { break };
            self.evict_at(idx, now_us, EvictReason::Shutdown);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(spec: ColdStartSpec, prewarmed: usize) -> WarmPool {
        WarmPool::new(spec.build(), prewarmed, 1_536)
    }

    #[test]
    fn forever_matches_the_counter_model() {
        let mut p = pool(ColdStartSpec::forever(), 2);
        assert!(p.invoke(1_000_000, 0, 1_536));
        assert!(p.invoke(2_000_000, 0, 1_536));
        assert!(!p.invoke(3_000_000, 0, 1_536), "pool exhausted: cold");
        p.release(4_000_000, 0, 1_536);
        assert!(p.invoke(5_000_000, 0, 1_536), "release rewarms");
        let s = p.stats();
        assert_eq!((s.warm_starts, s.cold_starts), (3, 1));
        assert_eq!(s.evicted_expired + s.evicted_pressure, 0);
    }

    #[test]
    fn fixed_keepalive_expires_idle_containers() {
        let mut p = pool(ColdStartSpec::fixed_secs(10), 1);
        // Idle from 0; invoke at 10 s lands exactly at expiry → cold.
        assert!(!p.invoke(10_000_000, 0, 1_536));
        let s = p.stats();
        assert_eq!(s.cold_starts, 1);
        assert_eq!(s.evicted_expired, 1);
        // Wasted memory: 10 s of 1536 MB = 1.5 GB·s.
        assert!((s.wasted_gb_seconds() - 15.0 / 1024.0 * 1024.0 * 1.5 / 1.5 * 1.0).abs() < 1e9);
        assert_eq!(s.wasted_mb_us, 1_536u128 * 10_000_000);
    }

    #[test]
    fn fixed_keepalive_survives_inside_the_window() {
        let mut p = pool(ColdStartSpec::fixed_secs(10), 1);
        assert!(p.invoke(9_999_999, 0, 1_536), "inside the window: warm");
    }

    #[test]
    fn mru_reuse_and_lru_pressure_eviction() {
        let mut p = pool(ColdStartSpec::UnloadOnPressure { cap_mb: 4_000 }, 0);
        p.release(1_000_000, 0, 1_536); // cid 0
        p.release(2_000_000, 0, 1_536); // cid 1
        p.release(3_000_000, 0, 1_536); // cid 2 → 4608 MB > 4000 → evict cid 0
        assert_eq!(p.warm_len(), 2);
        assert!(matches!(
            p.decisions().last(),
            Some(PoolDecision::Evict {
                cid: 0,
                reason: EvictReason::Pressure,
                ..
            })
        ));
        // MRU pick: cid 2 (parked last).
        assert!(p.invoke(4_000_000, 0, 1_536));
        assert!(matches!(
            p.decisions().last(),
            Some(PoolDecision::Start { warm: Some(2), .. })
        ));
    }

    #[test]
    fn hybrid_falls_back_until_sampled_then_learns() {
        let spec = HybridHistogramSpec {
            min_samples: 4,
            fallback_keepalive_us: 5_000_000,
            ..HybridHistogramSpec::default()
        };
        let mut policy = HybridHistogram::new(spec);
        // Under-sampled: fallback window.
        assert_eq!(
            policy.keepalive_us(7, 0, ParkOrigin::Release),
            5_000_000,
            "low-sample fallback"
        );
        assert_eq!(policy.prewarm_us(7, 0), None);
        // Feed 8 gaps of ~60 s.
        for _ in 0..8 {
            policy.record(7, Some(60_000_000), false);
        }
        let k = policy.keepalive_us(7, 0, ParkOrigin::Release);
        // Head percentile ≈ 60 s ⇒ prewarm window > 0 ⇒ release drops the
        // container immediately.
        assert_eq!(k, 0, "confident + prewarm ⇒ drop on release");
        let p = policy.prewarm_us(7, 0).expect("prewarm window");
        assert!(p > 50_000_000 && p < 60_000_000, "prewarm ≈ 0.9·head: {p}");
        let kp = policy.keepalive_us(7, 0, ParkOrigin::Prewarm);
        assert!(
            p + kp > 60_000_000,
            "prewarmed container must cover the gap: {p} + {kp}"
        );
    }

    #[test]
    fn hybrid_oob_distrusts_the_histogram() {
        let spec = HybridHistogramSpec {
            bins: 4,
            bin_us: 1_000_000,
            min_samples: 4,
            oob_threshold: 0.5,
            fallback_keepalive_us: 7_000_000,
            ..HybridHistogramSpec::default()
        };
        let mut policy = HybridHistogram::new(spec);
        for _ in 0..8 {
            policy.record(1, Some(60_000_000), false); // all OOB (> 4 s)
        }
        assert_eq!(
            policy.keepalive_us(1, 0, ParkOrigin::Release),
            7_000_000,
            "OOB-dominated histogram falls back"
        );
    }

    #[test]
    fn prewarm_materializes_and_serves_the_next_invoke() {
        let spec = HybridHistogramSpec {
            min_samples: 2,
            fallback_keepalive_us: 1_000_000,
            ..HybridHistogramSpec::default()
        };
        let mut p = WarmPool::new(Box::new(HybridHistogram::new(spec)), 0, 1_536);
        // Teach: gaps of 30 s between release and next invoke.
        let mut t = 0u64;
        for _ in 0..4 {
            p.release(t, 0, 1_536);
            t += 30_000_000;
            p.invoke(t, 0, 1_536);
            t += 1_000_000;
        }
        let before = p.stats();
        // Now confident: release drops the container, prewarms ~27 s out.
        p.release(t, 0, 1_536);
        let warm = p.invoke(t + 30_000_000, 0, 1_536);
        let after = p.stats();
        assert!(warm, "prewarmed container must cover the recurrent gap");
        assert_eq!(after.prewarm_starts, before.prewarm_starts + 1);
    }

    #[test]
    fn parse_selectors() {
        assert_eq!(ColdStartSpec::parse("forever").unwrap(), ColdStartSpec::forever());
        assert_eq!(
            ColdStartSpec::parse("fixed:60").unwrap(),
            ColdStartSpec::fixed_secs(60)
        );
        assert_eq!(
            ColdStartSpec::parse("pressure:4096").unwrap(),
            ColdStartSpec::UnloadOnPressure { cap_mb: 4_096 }
        );
        assert!(matches!(
            ColdStartSpec::parse("hybrid:20").unwrap(),
            ColdStartSpec::HybridHistogram(HybridHistogramSpec {
                fallback_keepalive_us: 20_000_000,
                ..
            })
        ));
        assert!(ColdStartSpec::parse("bogus").is_err());
        assert!(ColdStartSpec::parse("fixed").is_err());
        // `selector()` round-trips through `parse()` for every arm.
        for s in ["forever", "fixed:30", "pressure:6144", "hybrid:15"] {
            let spec = ColdStartSpec::parse(s).unwrap();
            assert_eq!(spec.selector(), s);
            assert_eq!(ColdStartSpec::parse(&spec.selector()).unwrap(), spec);
        }
    }

    /// Random text and mutations of real selectors either fail to parse or
    /// parse to a spec whose selector parses back to it — never a panic.
    #[test]
    fn hostile_selector_text_errs_or_roundtrips() {
        const SELECTORS: [&str; 4] = ["forever", "fixed:30", "pressure:6144", "hybrid:15"];
        const ALPHABET: &[u8] = b":+-0123456789 abcdefhilnoprsuvxy";
        splitserve_rt::check::run("hostile_selector_text_errs_or_roundtrips", 512, |g| {
            let mut text = if g.bool() {
                SELECTORS[g.usize_in(0, SELECTORS.len())].as_bytes().to_vec()
            } else {
                g.vec(0, 24, |g| ALPHABET[g.usize_in(0, ALPHABET.len())])
            };
            for _ in 0..g.usize_in(0, 4) {
                let at = g.usize_in(0, text.len() + 1);
                match g.usize_in(0, 3) {
                    0 if at < text.len() => {
                        text.remove(at);
                    }
                    1 => text.insert(at, ALPHABET[g.usize_in(0, ALPHABET.len())]),
                    _ => {
                        let digits = g.u64().to_string();
                        text.splice(at..at, digits.bytes());
                    }
                }
            }
            let text = String::from_utf8(text).expect("ASCII");
            if let Ok(spec) = ColdStartSpec::parse(&text) {
                let again = ColdStartSpec::parse(&spec.selector());
                assert_eq!(again.as_ref(), Ok(&spec), "{text:?} did not round-trip");
            }
        });
    }

    #[test]
    fn finalize_charges_and_clears_idempotently() {
        let mut p = pool(ColdStartSpec::forever(), 0);
        p.release(1_000_000, 0, 1_024);
        p.finalize(3_000_000);
        let s = p.stats();
        assert_eq!(s.evicted_shutdown, 1);
        assert_eq!(s.wasted_mb_us, 1_024u128 * 2_000_000);
        assert_eq!(p.warm_len(), 0);
        p.finalize(9_000_000);
        assert_eq!(p.stats(), s, "second finalize is a no-op");
    }
}

//! SLO and billing ledgers — the tenant-facing trajectory view.
//!
//! The paper's Figure 3 judgement ("which provisioning policy should I
//! buy?") is made from two curves per tenant: SLO attainment over time
//! and cumulative bill over time. [`SloLedger`] and [`BillLedger`]
//! produce exactly those from a stream of job completions and charges,
//! keyed by an opaque [`TenantId`] so the single-tenant reproduction and
//! ROADMAP's multi-tenant job server share one accounting path.
//!
//! Ledgers are explicit objects (not hidden behind the [`Obs`](crate::Obs)
//! enable flag): whoever runs a job stream owns them, feeds them from
//! job-completion callbacks through `&mut self`, and hands them on with
//! the run's outcome, which reads the curves at the end.

use std::collections::BTreeMap;
use std::sync::Arc;

use splitserve_des::SimTime;

use crate::digest::QuantileDigest;

/// Opaque tenant key. The default tenant is `"default"` — a single-tenant
/// deployment never needs to mention tenants at all.
///
/// Backed by `Arc<str>`: tenant ids flow through every admission event
/// and ledger entry, so cloning one is a refcount bump, not a string
/// allocation. Ordering, equality and hashing all follow the string
/// contents.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(Arc<str>);

impl TenantId {
    /// A tenant key from any string-like id.
    pub fn new(id: impl Into<String>) -> Self {
        TenantId(id.into().into())
    }

    /// The raw key.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl Default for TenantId {
    fn default() -> Self {
        TenantId(Arc::from("default"))
    }
}

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// One point on a tenant's SLO-attainment curve: the state just after a
/// job completed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloPoint {
    /// Completion instant on the virtual clock.
    pub at: SimTime,
    /// The completing job's latency in seconds.
    pub latency_secs: f64,
    /// The completing job's SLO in seconds.
    pub slo_secs: f64,
    /// Whether that job met its SLO.
    pub met: bool,
    /// Cumulative attainment (met / completed) after this job.
    pub attainment: f64,
}

#[derive(Debug, Default)]
struct TenantSlo {
    met: u64,
    points: Vec<SloPoint>,
    latency: Option<QuantileDigest>,
}

/// Per-tenant SLO accounting: feed it job completions, read the
/// attainment curve and latency quantiles.
#[derive(Debug, Default)]
pub struct SloLedger {
    tenants: BTreeMap<TenantId, TenantSlo>,
}

impl SloLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        SloLedger::default()
    }

    /// Records one job completion for `tenant`, returning whether the job
    /// met its SLO (`latency_secs <= slo_secs`).
    pub fn record_job(
        &mut self,
        tenant: &TenantId,
        at: SimTime,
        latency_secs: f64,
        slo_secs: f64,
    ) -> bool {
        let met = latency_secs <= slo_secs;
        let t = self.tenants.entry(tenant.clone()).or_default();
        if met {
            t.met += 1;
        }
        let total = t.points.len() as u64 + 1;
        t.points.push(SloPoint {
            at,
            latency_secs,
            slo_secs,
            met,
            attainment: t.met as f64 / total as f64,
        });
        t.latency
            .get_or_insert_with(QuantileDigest::default)
            .record(latency_secs);
        met
    }

    /// Jobs recorded for `tenant`.
    pub fn jobs(&self, tenant: &TenantId) -> u64 {
        self.tenants.get(tenant).map_or(0, |t| t.points.len() as u64)
    }

    /// Current attainment for `tenant`: fraction of recorded jobs that
    /// met their SLO (vacuously 1.0 with no jobs).
    pub fn attainment(&self, tenant: &TenantId) -> f64 {
        self.tenants.get(tenant).map_or(1.0, |t| {
            if t.points.is_empty() {
                1.0
            } else {
                t.met as f64 / t.points.len() as f64
            }
        })
    }

    /// The attainment curve: one point per completed job, completion
    /// order.
    pub fn curve(&self, tenant: &TenantId) -> Vec<SloPoint> {
        self.tenants
            .get(tenant)
            .map(|t| t.points.clone())
            .unwrap_or_default()
    }

    /// A latency quantile for `tenant` from the ledger's streaming digest
    /// (within the digest's documented relative error).
    pub fn latency_quantile(&self, tenant: &TenantId, q: f64) -> Option<f64> {
        self.tenants.get(tenant)?.latency.as_ref()?.quantile(q)
    }

    /// A copy of the tenant's latency digest, if any job was recorded.
    pub fn latency_digest(&self, tenant: &TenantId) -> Option<QuantileDigest> {
        self.tenants.get(tenant)?.latency.clone()
    }

    /// All tenants that recorded at least one job, sorted.
    pub fn tenants(&self) -> Vec<TenantId> {
        self.tenants.keys().cloned().collect()
    }

    /// Jobs recorded across **all** tenants.
    pub(crate) fn fleet_jobs(&self) -> u64 {
        self.tenants.values().map(|t| t.points.len() as u64).sum()
    }

    /// Fleet-wide attainment: met / recorded across all tenants
    /// (vacuously 1.0 with no jobs). Multi-tenant outcomes must use
    /// this — per-tenant [`SloLedger::attainment`] reports one tenant.
    pub fn fleet_attainment(&self) -> f64 {
        let total = self.fleet_jobs();
        if total == 0 {
            return 1.0;
        }
        let met: u64 = self.tenants.values().map(|t| t.met).sum();
        met as f64 / total as f64
    }
}

/// One point on a tenant's cumulative-bill curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BillPoint {
    /// Charge instant on the virtual clock.
    pub at: SimTime,
    /// This charge's amount in USD.
    pub amount_usd: f64,
    /// Cumulative spend after this charge.
    pub cumulative_usd: f64,
    /// Charge category, a literal at the charging site (e.g. `"vm"`,
    /// `"lambda"`, `"accrued"`), so a point and its copies allocate
    /// nothing.
    pub kind: &'static str,
}

/// Per-tenant billing accounting: feed it charges, read the cumulative
/// bill curve.
#[derive(Debug, Default)]
pub struct BillLedger {
    tenants: BTreeMap<TenantId, Vec<BillPoint>>,
}

impl BillLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        BillLedger::default()
    }

    /// Records a charge of `usd` for `tenant` at `at`.
    pub fn charge(&mut self, tenant: &TenantId, at: SimTime, usd: f64, kind: &'static str) {
        let points = self.tenants.entry(tenant.clone()).or_default();
        let cumulative = points.last().map_or(0.0, |p| p.cumulative_usd) + usd;
        points.push(BillPoint {
            at,
            amount_usd: usd,
            cumulative_usd: cumulative,
            kind,
        });
    }

    /// Total spend recorded for `tenant`.
    pub fn total(&self, tenant: &TenantId) -> f64 {
        self.tenants
            .get(tenant)
            .and_then(|p| p.last())
            .map_or(0.0, |p| p.cumulative_usd)
    }

    /// The cumulative-bill curve: one point per charge, charge order.
    pub fn curve(&self, tenant: &TenantId) -> Vec<BillPoint> {
        self.tenants.get(tenant).cloned().unwrap_or_default()
    }

    /// All tenants that recorded at least one charge, sorted.
    pub fn tenants(&self) -> Vec<TenantId> {
        self.tenants.keys().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl BillLedger {
        /// Total spend across **all** tenants.
        fn fleet_total(&self) -> f64 {
            self.tenants
                .values()
                .filter_map(|p| p.last())
                .map(|p| p.cumulative_usd)
                .sum()
        }
    }

    impl SloLedger {
        /// Every tenant's latency digest merged into one fleet digest (the
        /// merge is exactly commutative and associative, so the result does
        /// not depend on tenant order). `None` if no job was recorded.
        fn fleet_latency_digest(&self) -> Option<QuantileDigest> {
            let mut acc: Option<QuantileDigest> = None;
            for t in self.tenants.values() {
                if let Some(d) = &t.latency {
                    match &mut acc {
                        Some(a) => a.merge(d),
                        None => acc = Some(d.clone()),
                    }
                }
            }
            acc
        }
    }

    #[test]
    fn default_tenant_is_default() {
        assert_eq!(TenantId::default().as_str(), "default");
        assert_eq!(TenantId::default().to_string(), "default");
    }

    #[test]
    fn attainment_curve_tracks_met_fraction() {
        let mut l = SloLedger::new();
        let t = TenantId::default();
        assert_eq!(l.attainment(&t), 1.0, "vacuous attainment");
        assert!(l.record_job(&t, SimTime::from_secs(1), 2.0, 5.0));
        assert!(!l.record_job(&t, SimTime::from_secs(2), 9.0, 5.0));
        assert!(l.record_job(&t, SimTime::from_secs(3), 4.0, 5.0));
        assert_eq!(l.jobs(&t), 3);
        let curve = l.curve(&t);
        assert_eq!(curve.len(), 3);
        assert_eq!(curve[0].attainment, 1.0);
        assert_eq!(curve[1].attainment, 0.5);
        assert!((curve[2].attainment - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(l.attainment(&t), curve[2].attainment);
        let p50 = l.latency_quantile(&t, 0.5).unwrap();
        assert!((p50 - 4.0).abs() <= 0.05, "p50 latency ~4s, got {p50}");
    }

    #[test]
    fn tenants_are_isolated() {
        let mut l = SloLedger::new();
        let a = TenantId::new("a");
        let b = TenantId::new("b");
        l.record_job(&a, SimTime::ZERO, 1.0, 2.0);
        l.record_job(&b, SimTime::ZERO, 9.0, 2.0);
        assert_eq!(l.attainment(&a), 1.0);
        assert_eq!(l.attainment(&b), 0.0);
        assert_eq!(l.tenants(), vec![a, b]);
    }

    #[test]
    fn bill_curve_is_cumulative() {
        let mut l = BillLedger::new();
        let t = TenantId::default();
        l.charge(&t, SimTime::from_secs(1), 0.5, "vm");
        l.charge(&t, SimTime::from_secs(2), 0.25, "lambda");
        let curve = l.curve(&t);
        assert_eq!(curve.len(), 2);
        assert_eq!(curve[0].cumulative_usd, 0.5);
        assert_eq!(curve[1].cumulative_usd, 0.75);
        assert_eq!(l.total(&t), 0.75);
        assert_eq!(curve[1].kind, "lambda");
    }

    #[test]
    fn fleet_accessors_aggregate_all_tenants() {
        let mut l = SloLedger::new();
        assert_eq!(l.fleet_attainment(), 1.0, "vacuous fleet attainment");
        assert!(l.fleet_latency_digest().is_none());
        let a = TenantId::new("a");
        let b = TenantId::new("b");
        l.record_job(&a, SimTime::from_secs(1), 1.0, 2.0);
        l.record_job(&a, SimTime::from_secs(2), 3.0, 2.0);
        l.record_job(&b, SimTime::from_secs(3), 9.0, 2.0);
        assert_eq!(l.fleet_jobs(), 3);
        assert!((l.fleet_attainment() - 1.0 / 3.0).abs() < 1e-12);
        let d = l.fleet_latency_digest().unwrap();
        assert_eq!(d.count(), 3);
        // The merged digest must equal merging the per-tenant digests by
        // hand, byte for byte.
        let mut by_hand = l.latency_digest(&a).unwrap();
        by_hand.merge(&l.latency_digest(&b).unwrap());
        assert_eq!(d.canonical_bytes(), by_hand.canonical_bytes());

        let mut bill = BillLedger::new();
        assert_eq!(bill.fleet_total(), 0.0);
        bill.charge(&a, SimTime::from_secs(1), 0.5, "vm");
        bill.charge(&b, SimTime::from_secs(2), 0.25, "lambda");
        bill.charge(&a, SimTime::from_secs(3), 0.5, "vm");
        assert!((bill.fleet_total() - 1.25).abs() < 1e-12);
    }
}

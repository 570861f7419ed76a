//! The inter-job workload model of Figure 2: predicted executor demand
//! m(t) with confidence bands m(t) ± 2σ(t) over a workday, a realized
//! demand path w(t), and the provisioning policies a cost-conscious tenant
//! would compare.
//!
//! SplitServe itself handles *intra-job* resource management; this module
//! supplies the surrounding story — how often a job arrives to find fewer
//! VM cores than it needs (a *shortfall*, bridged by Lambdas) and how many
//! VM-core-hours each provisioning policy pays for.

use splitserve_des::Dist;
use splitserve_rt::rng::SmallRng;

/// Demand model for one workday: a base load plus morning and afternoon
/// peaks, with demand uncertainty proportional to the mean.
#[derive(Debug, Clone)]
pub struct DayModel {
    /// Overnight baseline demand in executors.
    pub base: f64,
    /// Peak heights in executors (morning, afternoon).
    pub(crate) peak_heights: (f64, f64),
    /// Peak centers in hours (e.g. 10.5, 15.0).
    pub(crate) peak_centers: (f64, f64),
    /// Peak widths in hours (standard deviation of the bumps).
    pub(crate) peak_widths: (f64, f64),
    /// σ(t) as a fraction of m(t).
    pub(crate) sigma_frac: f64,
    /// AR(1) correlation of the realized demand's deviation between
    /// consecutive samples.
    pub(crate) ar_rho: f64,
}

impl Default for DayModel {
    fn default() -> Self {
        DayModel {
            base: 20.0,
            peak_heights: (60.0, 45.0),
            peak_centers: (10.5, 15.5),
            peak_widths: (1.6, 2.2),
            sigma_frac: 0.15,
            ar_rho: 0.9,
        }
    }
}

/// One sample of the Figure 2 series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DemandPoint {
    /// Time of day in hours.
    pub t_hours: f64,
    /// Predicted mean demand m(t), executors.
    pub mean: f64,
    /// Lower band m(t) − 2σ(t).
    pub lo: f64,
    /// Upper band m(t) + 2σ(t).
    pub hi: f64,
    /// Realized demand w(t).
    pub realized: f64,
}

impl DayModel {
    /// Predicted mean demand at `t_hours`.
    pub fn mean(&self, t_hours: f64) -> f64 {
        let bump = |h: f64, c: f64, w: f64| h * (-((t_hours - c) / w).powi(2) / 2.0).exp();
        self.base
            + bump(self.peak_heights.0, self.peak_centers.0, self.peak_widths.0)
            + bump(self.peak_heights.1, self.peak_centers.1, self.peak_widths.1)
    }

    /// Demand standard deviation at `t_hours`.
    pub fn sigma(&self, t_hours: f64) -> f64 {
        self.sigma_frac * self.mean(t_hours)
    }

    /// Generates `samples` points across a 24-hour day with a seeded AR(1)
    /// realized-demand path — the full Figure 2 series.
    pub fn series(&self, samples: usize, seed: u64) -> Vec<DemandPoint> {
        assert!(samples >= 2, "need at least two samples");
        let mut rng = SmallRng::seed_from_u64(seed);
        let noise = Dist::normal(0.0, 1.0);
        let mut dev = 0.0f64; // AR(1) deviation in units of σ(t)
        let innovation_scale = (1.0 - self.ar_rho * self.ar_rho).sqrt();
        (0..samples)
            .map(|i| {
                let t = 24.0 * i as f64 / (samples - 1) as f64;
                let m = self.mean(t);
                let s = self.sigma(t);
                dev = self.ar_rho * dev + innovation_scale * noise.sample(&mut rng);
                DemandPoint {
                    t_hours: t,
                    mean: m,
                    lo: (m - 2.0 * s).max(0.0),
                    hi: m + 2.0 * s,
                    realized: (m + dev * s).max(0.0),
                }
            })
            .collect()
    }
}

/// How a tenant sizes its VM fleet against predicted demand.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ProvisionPolicy {
    /// Provision `m(t) + k·σ(t)` cores (the conservative band).
    MeanPlusSigma(f64),
    /// Provision exactly `m(t)` cores (lean; relies on Lambdas to bridge).
    Mean,
}

impl ProvisionPolicy {
    /// Cores provisioned at a demand point.
    pub(crate) fn provisioned(&self, p: &DemandPoint) -> f64 {
        let sigma = (p.hi - p.mean) / 2.0;
        match self {
            ProvisionPolicy::MeanPlusSigma(k) => p.mean + k * sigma,
            ProvisionPolicy::Mean => p.mean,
        }
    }

    /// A stable, filename-safe label for dashboards and artifacts, e.g.
    /// `"mean+2.0sigma"` or `"mean"`.
    pub fn label(&self) -> String {
        match self {
            ProvisionPolicy::MeanPlusSigma(k) => format!("mean+{k:.1}sigma"),
            ProvisionPolicy::Mean => "mean".to_string(),
        }
    }
}

/// What a provisioning policy costs and how often it falls short.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolicyOutcome {
    /// Fraction of samples where realized demand exceeded provisioning
    /// (each is a SplitServe launching-facility invocation).
    pub shortfall_frac: f64,
    /// Total shortfall in core-hours (what Lambdas must bridge).
    pub shortfall_core_hours: f64,
    /// Total provisioned core-hours (the VM bill driver).
    pub provisioned_core_hours: f64,
    /// Idle (provisioned but unused) core-hours.
    pub idle_core_hours: f64,
}

/// Evaluates a policy against a realized demand series.
pub fn evaluate_policy(series: &[DemandPoint], policy: ProvisionPolicy) -> PolicyOutcome {
    assert!(series.len() >= 2, "need at least two samples");
    let dt_hours = series[1].t_hours - series[0].t_hours;
    let mut shortfalls = 0usize;
    let mut shortfall_ch = 0.0;
    let mut prov_ch = 0.0;
    let mut idle_ch = 0.0;
    for p in series {
        let prov = policy.provisioned(p);
        prov_ch += prov * dt_hours;
        if p.realized > prov {
            shortfalls += 1;
            shortfall_ch += (p.realized - prov) * dt_hours;
        } else {
            idle_ch += (prov - p.realized) * dt_hours;
        }
    }
    PolicyOutcome {
        shortfall_frac: shortfalls as f64 / series.len() as f64,
        shortfall_core_hours: shortfall_ch,
        provisioned_core_hours: prov_ch,
        idle_core_hours: idle_ch,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_has_two_peaks_above_base() {
        let m = DayModel::default();
        assert!(m.mean(3.0) < m.mean(10.5));
        assert!(m.mean(10.5) > m.mean(13.0));
        assert!(m.mean(15.5) > m.mean(20.0));
        assert!(m.mean(0.0) >= m.base * 0.9);
    }

    #[test]
    fn series_is_deterministic_and_banded() {
        let m = DayModel::default();
        let a = m.series(288, 9);
        let b = m.series(288, 9);
        assert_eq!(a, b);
        for p in &a {
            assert!(p.lo <= p.mean && p.mean <= p.hi);
            assert!(p.realized >= 0.0);
        }
    }

    #[test]
    fn realized_path_sometimes_exceeds_conservative_band() {
        // With 2σ bands ~2.3% of samples should exceed; over a few days
        // of samples we must see at least one t₁-style excursion.
        let m = DayModel::default();
        let series = m.series(288 * 10, 4);
        let above = series.iter().filter(|p| p.realized > p.hi).count();
        assert!(above > 0, "no shortfall events in 10 days");
        let frac = above as f64 / series.len() as f64;
        assert!(frac < 0.15, "too many excursions: {frac}");
    }

    #[test]
    fn lean_policy_cheaper_but_more_shortfalls() {
        let m = DayModel::default();
        let series = m.series(288 * 5, 7);
        let conservative = evaluate_policy(&series, ProvisionPolicy::MeanPlusSigma(2.0));
        let lean = evaluate_policy(&series, ProvisionPolicy::Mean);
        assert!(lean.provisioned_core_hours < conservative.provisioned_core_hours);
        assert!(lean.idle_core_hours < conservative.idle_core_hours);
        assert!(lean.shortfall_frac > conservative.shortfall_frac);
        assert!(lean.shortfall_core_hours > conservative.shortfall_core_hours);
    }
}

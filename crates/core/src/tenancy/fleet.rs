//! Fleet-scale sweep machinery: builds a ≥100-tenant population with
//! per-class trace generators, merges the per-tenant schedules into one
//! dense job list, runs it under each provisioning policy, and renders
//! the per-class SLO-attainment and bill curves as one deterministic
//! JSON artifact — the Figure 2/3 story at fleet scale.

use std::fmt::Write as _;

use splitserve_obs::{QuantileDigest, TenantId};

use crate::tenancy::admission::{SloClass, TenantSpec};
use crate::tenancy::arrivals::{
    generate_jobs, tenant_seed, ArrivalProcess, ArrivalSpec, BurstSpec, DurationModel,
};
use crate::tenancy::server::{FleetJob, FleetOutcome, TenantJobOutcome};

/// A default tenant population: classes round-robin
/// interactive/standard/batch, weights cycling 1–3, concurrency caps
/// cycling 2–4. Ids are `t000`, `t001`, … so orderings are stable.
pub fn default_tenant_specs(n: usize) -> Vec<TenantSpec> {
    (0..n)
        .map(|i| TenantSpec {
            id: TenantId::new(format!("t{i:03}")),
            class: SloClass::all()[i % 3],
            weight: 1 + (i / 3) as u32 % 3,
            max_concurrent: 2 + (i % 3) as u32,
        })
        .collect()
}

/// The per-class trace shape: interactive tenants are Poisson with
/// short, tight-SLO jobs; standard tenants surge in bursts; batch
/// tenants follow a diurnal curve with long, loose jobs. `rate` is the
/// tenant's mean arrivals per second.
pub(crate) fn class_arrival_spec(class: SloClass, rate: f64, horizon_secs: f64) -> ArrivalSpec {
    match class {
        SloClass::Interactive => ArrivalSpec {
            process: ArrivalProcess::Poisson { rate_per_sec: rate },
            duration: DurationModel {
                mean_secs: 0.6,
                cv: 0.6,
            },
            cores_choices: vec![(1, 3), (2, 1)],
            slo_multiple: 4.0,
            slo_floor_secs: 2.5,
            horizon_secs,
            max_jobs: (rate * horizon_secs * 4.0).ceil() as usize + 8,
        },
        SloClass::Standard => {
            let burst = BurstSpec {
                every_secs: 120.0,
                len_secs: 20.0,
                multiplier: 4.0,
            };
            // Mean rate of the on/off curve is
            // base · (1 + (mult − 1) · len/every); solve for base.
            let base = rate
                / (1.0 + (burst.multiplier - 1.0) * burst.len_secs / burst.every_secs);
            ArrivalSpec {
                process: ArrivalProcess::Bursty {
                    base_rate_per_sec: base,
                    burst,
                },
                duration: DurationModel {
                    mean_secs: 1.2,
                    cv: 0.8,
                },
                cores_choices: vec![(2, 2), (4, 1)],
                slo_multiple: 5.0,
                slo_floor_secs: 5.0,
                horizon_secs,
                max_jobs: (rate * horizon_secs * 4.0).ceil() as usize + 8,
            }
        }
        SloClass::Batch => ArrivalSpec {
            process: ArrivalProcess::Diurnal {
                mean_rate_per_sec: rate,
                amplitude: 0.8,
                period_secs: horizon_secs / 2.0,
            },
            duration: DurationModel {
                mean_secs: 3.0,
                cv: 1.0,
            },
            cores_choices: vec![(2, 1), (4, 1)],
            slo_multiple: 8.0,
            slo_floor_secs: 20.0,
            horizon_secs,
            max_jobs: (rate * horizon_secs * 4.0).ceil() as usize + 8,
        },
    }
}

/// Generates the fleet's job list: each tenant's schedule comes from its
/// own seed (`tenant_seed(fleet_seed, id)` — independent of neighbors),
/// then all schedules merge sorted by `(arrival, tenant, sequence)` and
/// jobs are renumbered densely. `target_jobs` is the fleet-wide target;
/// each tenant gets `target_jobs / tenants` expected arrivals over the
/// horizon.
pub fn default_fleet_jobs(
    tenants: &[TenantSpec],
    fleet_seed: u64,
    target_jobs: usize,
    horizon_secs: f64,
) -> Vec<FleetJob> {
    assert!(!tenants.is_empty());
    let per_tenant = (target_jobs as f64 / tenants.len() as f64).max(1.0);
    let rate = per_tenant / horizon_secs;
    let mut merged: Vec<(u64, usize, usize, FleetJob)> = Vec::new();
    for (idx, t) in tenants.iter().enumerate() {
        let spec = class_arrival_spec(t.class, rate, horizon_secs);
        let seed = tenant_seed(fleet_seed, t.id.as_str());
        for (k, j) in generate_jobs(&spec, seed).into_iter().enumerate() {
            merged.push((
                j.arrive_at_us,
                idx,
                k,
                FleetJob {
                    job: 0, // renumbered below
                    tenant_idx: idx,
                    arrive_at_us: j.arrive_at_us,
                    duration_us: j.duration_us,
                    cores: j.cores,
                    slo_us: j.slo_us,
                },
            ));
        }
    }
    merged.sort_by_key(|(at, idx, k, _)| (*at, *idx, *k));
    merged
        .into_iter()
        .enumerate()
        .map(|(i, (_, _, _, mut j))| {
            j.job = i as u64;
            j
        })
        .collect()
}

fn decimate<T: Clone>(points: &[T], max: usize) -> Vec<T> {
    if points.len() <= max {
        return points.to_vec();
    }
    let stride = points.len().div_ceil(max);
    let mut out: Vec<T> = points.iter().step_by(stride).cloned().collect();
    // Always keep the final point — the settled value.
    if !(points.len() - 1).is_multiple_of(stride) {
        out.push(points[points.len() - 1].clone());
    }
    out
}

fn class_block(out: &mut String, r: &FleetOutcome, tenants: &[TenantSpec], class: SloClass) {
    let class_tenants: Vec<&TenantSpec> =
        tenants.iter().filter(|t| t.class == class).collect();
    let mut rows: Vec<&TenantJobOutcome> = r
        .outcomes
        .iter()
        .filter(|o| o.class == class)
        .collect();
    rows.sort_by_key(|o| (o.finished_us, o.job));
    let jobs = rows.len();
    let met = rows.iter().filter(|o| o.met_slo()).count();
    let attainment = if jobs == 0 {
        1.0
    } else {
        met as f64 / jobs as f64
    };
    let mean_latency = if jobs == 0 {
        0.0
    } else {
        rows.iter().map(|o| o.latency_secs()).sum::<f64>() / jobs as f64
    };
    let mean_wait = if jobs == 0 {
        0.0
    } else {
        rows.iter().map(|o| o.queue_wait_secs()).sum::<f64>() / jobs as f64
    };
    // Class-wide latency quantiles from the merged per-tenant digests
    // (merge is exactly commutative, so the result is order-independent).
    let mut digest: Option<QuantileDigest> = None;
    for t in &class_tenants {
        if let Some(d) = r.slo.latency_digest(&t.id) {
            match &mut digest {
                Some(acc) => acc.merge(&d),
                None => digest = Some(d),
            }
        }
    }
    let q = |p: f64| digest.as_ref().and_then(|d| d.quantile(p));
    let _ = write!(
        out,
        "{{\"class\":\"{}\",\"tenants\":{},\"jobs\":{},\"slo_attainment\":{:.6},\
         \"mean_latency_secs\":{:.6},\"mean_queue_wait_secs\":{:.6},",
        class.as_str(),
        class_tenants.len(),
        jobs,
        attainment,
        mean_latency,
        mean_wait
    );
    for (label, p) in [("p50", 0.5), ("p99", 0.99)] {
        match q(p) {
            Some(v) => {
                let _ = write!(out, "\"{label}_latency_secs\":{v:.6},");
            }
            None => {
                let _ = write!(out, "\"{label}_latency_secs\":null,");
            }
        }
    }
    // The class attainment curve: cumulative met-fraction by completion.
    let curve: Vec<(u64, f64)> = {
        let mut met_so_far = 0usize;
        rows.iter()
            .enumerate()
            .map(|(i, o)| {
                if o.met_slo() {
                    met_so_far += 1;
                }
                (o.finished_us, met_so_far as f64 / (i + 1) as f64)
            })
            .collect()
    };
    out.push_str("\"attainment_curve\":[");
    for (i, (t_us, a)) in decimate(&curve, 128).iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"t_us\":{t_us},\"attainment\":{a:.6}}}");
    }
    out.push_str("],");
    // The class bill curve: every class tenant's charges merged by
    // (time, tenant), cumulative recomputed class-wide.
    let mut charges: Vec<(u64, &str, f64)> = Vec::new();
    for t in &class_tenants {
        for p in r.bill.curve(&t.id) {
            charges.push((p.at.as_micros(), t.id.as_str(), p.amount_usd));
        }
    }
    charges.sort_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
    let bill_curve: Vec<(u64, f64)> = {
        let mut cum = 0.0;
        charges
            .iter()
            .map(|(at, _, usd)| {
                cum += usd;
                (*at, cum)
            })
            .collect()
    };
    out.push_str("\"bill_curve\":[");
    for (i, (t_us, cum)) in decimate(&bill_curve, 128).iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"t_us\":{t_us},\"cumulative_usd\":{cum:.6}}}");
    }
    let _ = write!(
        out,
        "],\"bill_total_usd\":{:.6}}}",
        bill_curve.last().map_or(0.0, |(_, c)| *c)
    );
}

/// Renders one policy's outcome (plus its data fingerprint) as a JSON
/// object string.
pub fn policy_json(r: &FleetOutcome, tenants: &[TenantSpec], fingerprint: u64) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"policy\":\"{}\",\"jobs\":{},\"cost_usd\":{:.6},\"lambdas_launched\":{},\
         \"fingerprint\":\"{:016x}\",\"fleet_slo_attainment\":{:.6},\
         \"mean_admission_wait_secs\":{:.6},\"hol_blocking_secs\":{:.6},\
         \"admission_events\":{},",
        r.policy,
        r.outcomes.len(),
        r.cost_usd,
        r.lambdas_launched,
        fingerprint,
        r.slo.fleet_attainment(),
        r.mean_admission_wait_secs(),
        r.hol_blocking_secs(),
        r.admission.len()
    );
    out.push_str("\"classes\":[");
    for (i, class) in SloClass::all().into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        class_block(&mut out, r, tenants, class);
    }
    out.push_str("],");
    // The settlement lands on the reserved settle tenant; class totals
    // plus this must equal the cloud bill exactly.
    let settle_tenant = TenantId::new("fleet");
    let settle = r.bill.total(&settle_tenant);
    let class_total: f64 = tenants.iter().map(|t| r.bill.total(&t.id)).sum();
    let _ = write!(
        out,
        "\"bill_settle_usd\":{:.6},\"bill_total_usd\":{:.6}}}",
        settle,
        class_total + settle
    );
    out
}

/// Renders the whole sweep artifact with `workers` as its `"workers"`
/// field, a label only: the artifacts render 1, the reduced-fleet pin
/// tests render 0.
pub fn render_fleet_json(
    workers: usize,
    tenants: &[TenantSpec],
    jobs_n: usize,
    results: &[(FleetOutcome, u64)],
) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"workers\":{workers},\"tenants\":{},\"jobs\":{jobs_n},\"policies\":[",
        tenants.len()
    );
    for (i, (r, fp)) in results.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&policy_json(r, tenants, *fp));
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tenant_population_cycles_classes_and_weights() {
        let specs = default_tenant_specs(9);
        assert_eq!(specs.len(), 9);
        assert_eq!(specs[0].class, SloClass::Interactive);
        assert_eq!(specs[1].class, SloClass::Standard);
        assert_eq!(specs[2].class, SloClass::Batch);
        assert!(specs.iter().all(|s| s.weight >= 1 && s.max_concurrent >= 2));
        assert_eq!(specs[0].id.as_str(), "t000");
    }

    #[test]
    fn fleet_jobs_are_dense_and_deterministic() {
        let specs = default_tenant_specs(12);
        let a = default_fleet_jobs(&specs, 7, 240, 300.0);
        let b = default_fleet_jobs(&specs, 7, 240, 300.0);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        for (i, j) in a.iter().enumerate() {
            assert_eq!(j.job, i as u64);
        }
        let mut prev = 0;
        for j in &a {
            assert!(j.arrive_at_us >= prev, "merged arrivals must be sorted");
            prev = j.arrive_at_us;
        }
    }

    #[test]
    fn a_tenants_schedule_ignores_neighbors() {
        let big = default_tenant_specs(12);
        let small = vec![big[4].clone()];
        let fleet = default_fleet_jobs(&big, 3, 240, 300.0);
        let alone = default_fleet_jobs(&small, 3, 20, 300.0);
        let from_fleet: Vec<(u64, u64, u32, u64)> = fleet
            .iter()
            .filter(|j| j.tenant_idx == 4)
            .map(|j| (j.arrive_at_us, j.duration_us, j.cores, j.slo_us))
            .collect();
        let from_alone: Vec<(u64, u64, u32, u64)> = alone
            .iter()
            .map(|j| (j.arrive_at_us, j.duration_us, j.cores, j.slo_us))
            .collect();
        assert_eq!(from_fleet, from_alone);
    }

    #[test]
    fn decimation_keeps_endpoints() {
        let pts: Vec<u32> = (0..1000).collect();
        let d = decimate(&pts, 128);
        assert!(d.len() <= 130);
        assert_eq!(*d.first().unwrap(), 0);
        assert_eq!(*d.last().unwrap(), 999);
    }
}

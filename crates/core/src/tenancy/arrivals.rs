//! Trace-style workload generation: seeded arrival processes and job-size
//! models in the shape of the Azure Functions traces the serverless
//! literature calibrates against (PAPERS.md: Shahrad et al., Lambada,
//! Wukong) — Poisson steady state, bursty on/off surges, and a diurnal
//! rate curve, with log-normal job durations.
//!
//! Everything here is a pure function of one `u64` seed: two calls with
//! the same spec and seed produce byte-identical schedules
//! (`JobTemplate::to_line` defines the canonical bytes), which is what
//! lets the fleet example and the chaos sweeps replay bit-for-bit.

use splitserve_des::Dist;
use splitserve_rt::hash::XxHash64;
use splitserve_rt::Rng;
use std::hash::Hasher;

use crate::tenancy::server::FleetJob;

/// Domain separator: arrival generation must not correlate with the sim
/// clock, fault plans, or workload data derived from the same seed.
pub(crate) const ARRIVAL_STREAM: u64 = 0xA221_7A1C_7E57_0002;

/// The shape of a burst window for [`ArrivalProcess::Bursty`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstSpec {
    /// Window period: a burst starts every `every_secs`.
    pub every_secs: f64,
    /// Burst length in seconds (must be `< every_secs`).
    pub len_secs: f64,
    /// Rate multiplier inside the burst window (`> 1`).
    pub multiplier: f64,
}

/// An inter-arrival process, i.e. the `rate(t)` curve of an
/// inhomogeneous Poisson process. Sampling uses Lewis–Shedler thinning
/// against the peak rate, so every variant consumes randomness the same
/// way and stays deterministic per seed.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalProcess {
    /// Constant rate: exponential inter-arrival times.
    Poisson {
        /// Arrivals per second.
        rate_per_sec: f64,
    },
    /// A base rate with periodic on/off surges — the shape under which
    /// the paper's launching facility earns its keep.
    Bursty {
        /// Off-window arrivals per second.
        base_rate_per_sec: f64,
        /// The burst window geometry.
        burst: BurstSpec,
    },
    /// A sinusoidal day curve: `mean · (1 + amplitude · sin(2πt/period))`.
    Diurnal {
        /// Mean arrivals per second across a full period.
        mean_rate_per_sec: f64,
        /// Relative swing, in `[0, 1)`.
        amplitude: f64,
        /// Period of the cycle in seconds.
        period_secs: f64,
    },
}

impl ArrivalProcess {
    /// The instantaneous rate at time `t` (seconds).
    pub(crate) fn rate_at(&self, t: f64) -> f64 {
        match self {
            ArrivalProcess::Poisson { rate_per_sec } => *rate_per_sec,
            ArrivalProcess::Bursty {
                base_rate_per_sec,
                burst,
            } => {
                if burst.contains(t) {
                    base_rate_per_sec * burst.multiplier
                } else {
                    *base_rate_per_sec
                }
            }
            ArrivalProcess::Diurnal {
                mean_rate_per_sec,
                amplitude,
                period_secs,
            } => {
                let phase = 2.0 * std::f64::consts::PI * t / period_secs;
                mean_rate_per_sec * (1.0 + amplitude * phase.sin())
            }
        }
    }

    /// The peak of the rate curve — the thinning envelope.
    pub(crate) fn peak_rate(&self) -> f64 {
        match self {
            ArrivalProcess::Poisson { rate_per_sec } => *rate_per_sec,
            ArrivalProcess::Bursty {
                base_rate_per_sec,
                burst,
            } => base_rate_per_sec * burst.multiplier,
            ArrivalProcess::Diurnal {
                mean_rate_per_sec,
                amplitude,
                ..
            } => mean_rate_per_sec * (1.0 + amplitude),
        }
    }
}

impl BurstSpec {
    /// Whether time `t` (seconds) falls inside a burst window.
    pub fn contains(&self, t: f64) -> bool {
        t.rem_euclid(self.every_secs) < self.len_secs
    }
}

/// A log-normal job-duration model, parameterized the way trace papers
/// report it: a mean and a coefficient of variation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DurationModel {
    /// Mean duration in seconds.
    pub mean_secs: f64,
    /// Coefficient of variation (`sd / mean`).
    pub cv: f64,
}

/// A complete per-tenant workload spec: when jobs arrive, how long they
/// run, how wide they are, and how tight their SLOs sit.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrivalSpec {
    /// The inter-arrival process.
    pub process: ArrivalProcess,
    /// The duration model.
    pub duration: DurationModel,
    /// Weighted choice of job widths: `(cores, weight)` pairs.
    pub cores_choices: Vec<(u32, u32)>,
    /// SLO as a multiple of the drawn duration…
    pub slo_multiple: f64,
    /// …but never tighter than this floor (seconds).
    pub slo_floor_secs: f64,
    /// Generation horizon in seconds.
    pub horizon_secs: f64,
    /// Hard cap on generated jobs (guards runaway rates).
    pub max_jobs: usize,
}

/// One generated job, all-integer so schedules serialize canonically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobTemplate {
    /// Arrival on the virtual clock, microseconds.
    pub arrive_at_us: u64,
    /// Intrinsic compute duration, microseconds.
    pub duration_us: u64,
    /// Degree of parallelism.
    pub cores: u32,
    /// Latency SLO, microseconds.
    pub slo_us: u64,
}

impl JobTemplate {
    /// Canonical one-line serialization — the byte-identity unit for the
    /// determinism properties.
    pub(crate) fn to_line(self) -> String {
        format!(
            "a={} d={} c={} s={};",
            self.arrive_at_us, self.duration_us, self.cores, self.slo_us
        )
    }
}

/// The canonical bytes of a whole schedule (`JobTemplate::to_line`
/// concatenated), for byte-identity assertions.
pub fn schedule_bytes(jobs: &[JobTemplate]) -> Vec<u8> {
    let mut out = Vec::new();
    for j in jobs {
        out.extend_from_slice(j.to_line().as_bytes());
    }
    out
}

/// A 64-bit digest of a schedule's canonical bytes.
pub fn schedule_digest(jobs: &[JobTemplate]) -> u64 {
    let mut h = XxHash64::with_seed(0);
    h.write(&schedule_bytes(jobs));
    h.finish()
}

/// Derives a per-tenant seed from a fleet seed and the tenant's id, so a
/// tenant's schedule depends only on `(fleet_seed, id)` — never on which
/// neighbors share the fleet. This is what the tenant-isolation
/// differential leans on.
pub fn tenant_seed(fleet_seed: u64, tenant: &str) -> u64 {
    let mut h = XxHash64::with_seed(fleet_seed ^ ARRIVAL_STREAM);
    h.write(tenant.as_bytes());
    h.finish()
}

/// Generates the job schedule for `spec` from `seed`: arrivals by
/// Lewis–Shedler thinning against `ArrivalProcess::peak_rate`,
/// durations from the log-normal model (clamped to a sane band), widths
/// by weighted choice, SLOs as `max(duration · multiple, floor)`.
/// Deterministic: the same `(spec, seed)` yields byte-identical output.
pub fn generate_jobs(spec: &ArrivalSpec, seed: u64) -> Vec<JobTemplate> {
    let peak = spec.process.peak_rate();
    assert!(peak > 0.0, "arrival process must have a positive rate");
    assert!(
        !spec.cores_choices.is_empty(),
        "at least one cores choice required"
    );
    let total_weight: u64 = spec.cores_choices.iter().map(|(_, w)| u64::from(*w)).sum();
    assert!(total_weight > 0, "cores choices need a positive total weight");

    let mut rng = Rng::seed_from_u64(seed ^ ARRIVAL_STREAM);
    let dur = Dist::log_normal_mean_sd(
        spec.duration.mean_secs,
        spec.duration.mean_secs * spec.duration.cv,
    );
    let mut jobs = Vec::new();
    let mut t = 0.0f64;
    while jobs.len() < spec.max_jobs {
        // Candidate arrival from the homogeneous envelope…
        let u = rng.next_f64();
        t += -(1.0 - u).ln() / peak;
        if t >= spec.horizon_secs {
            break;
        }
        // …thinned down to the actual rate curve. The acceptance draw is
        // consumed for every candidate, so the stream position stays a
        // pure function of the candidate count.
        let accept = rng.next_f64();
        if accept * peak >= spec.process.rate_at(t) {
            continue;
        }
        let duration_secs = dur.sample(&mut rng).clamp(0.05, 120.0);
        let pick = rng.bounded_u64(total_weight);
        let mut acc = 0u64;
        let mut cores = spec.cores_choices[0].0;
        for (c, w) in &spec.cores_choices {
            acc += u64::from(*w);
            if pick < acc {
                cores = *c;
                break;
            }
        }
        let slo_secs = (duration_secs * spec.slo_multiple).max(spec.slo_floor_secs);
        jobs.push(JobTemplate {
            arrive_at_us: (t * 1e6).round() as u64,
            duration_us: (duration_secs * 1e6).round() as u64,
            cores,
            slo_us: (slo_secs * 1e6).round() as u64,
        });
    }
    jobs
}

/// A bursty single-tenant stream: `n` 8-core jobs in `waves` clusters
/// over `window_secs`, two seconds apart within a wave (deterministic,
/// for reproducible stream experiments).
pub fn bursty_arrivals(n: usize, waves: usize, window_secs: f64, slo_secs: f64) -> Vec<FleetJob> {
    assert!(waves > 0 && n > 0);
    (0..n)
        .map(|i| {
            let at = (i % waves) as f64 * (window_secs / waves as f64) + (i / waves) as f64 * 2.0;
            FleetJob::in_stream(i as u64, at, 8, slo_secs)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn poisson_spec() -> ArrivalSpec {
        ArrivalSpec {
            process: ArrivalProcess::Poisson { rate_per_sec: 1.0 },
            duration: DurationModel {
                mean_secs: 1.0,
                cv: 0.5,
            },
            cores_choices: vec![(1, 1), (2, 1)],
            slo_multiple: 4.0,
            slo_floor_secs: 2.0,
            horizon_secs: 200.0,
            max_jobs: 10_000,
        }
    }

    #[test]
    fn same_seed_same_schedule() {
        let spec = poisson_spec();
        let a = generate_jobs(&spec, 7);
        let b = generate_jobs(&spec, 7);
        assert!(!a.is_empty());
        assert_eq!(schedule_bytes(&a), schedule_bytes(&b));
        let c = generate_jobs(&spec, 8);
        assert_ne!(schedule_bytes(&a), schedule_bytes(&c));
    }

    #[test]
    fn arrivals_are_monotone_and_bounded() {
        let spec = poisson_spec();
        let jobs = generate_jobs(&spec, 3);
        let mut prev = 0;
        for j in &jobs {
            assert!(j.arrive_at_us >= prev);
            assert!(j.arrive_at_us < 200_000_000);
            assert!(j.duration_us >= 50_000);
            assert!(j.slo_us >= 2_000_000);
            prev = j.arrive_at_us;
        }
    }

    #[test]
    fn bursty_arrivals_are_deterministic_and_ordered() {
        let a = bursty_arrivals(12, 3, 300.0, 30.0);
        assert_eq!(a, bursty_arrivals(12, 3, 300.0, 30.0));
        assert_eq!(a.len(), 12);
        assert!(a.iter().enumerate().all(|(i, j)| j.job == i as u64));
        assert!(a.iter().all(|j| j.arrive_at_us < 324_000_000));
    }

    #[test]
    fn tenant_seed_is_stable_and_id_sensitive() {
        assert_eq!(tenant_seed(1, "a"), tenant_seed(1, "a"));
        assert_ne!(tenant_seed(1, "a"), tenant_seed(1, "b"));
        assert_ne!(tenant_seed(1, "a"), tenant_seed(2, "a"));
    }
}

//! Fault plans: seeded, serializable schedules of fault events.
//!
//! A [`FaultPlan`] is the unit of chaos: a list of [`FaultEvent`]s with
//! integer-microsecond timestamps, generated deterministically from a
//! single `u64` seed ([`FaultPlan::generate`]) or written by hand for a
//! named scenario. Plans serialize to a small JSON dialect so a failing
//! case prints as one `CHAOS_SEED=… CHAOS_PLAN=…` line that replays
//! bit-for-bit ([`FaultPlan::to_json`] / [`FaultPlan::from_json`]).

use splitserve_des::{SimDuration, SimTime};
use splitserve_rt::Rng;
use splitserve_storage::StoreFaults;

use crate::json::{parse, Json};

/// The latest instant and the longest duration a plan may name, in
/// microseconds: one virtual day. Generated plans stay inside 45 s and
/// fleet plans inside about 1 200 s; the bound keeps every `instant +
/// duration` the injector computes far below the simulation clock's `u64`
/// limit, so a hand-written plan cannot overflow it.
pub(crate) const PLAN_HORIZON_US: u64 = 86_400_000_000;

/// One scheduled fault. All times are absolute simulation microseconds so
/// plans round-trip through JSON without float drift.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultEvent {
    /// Abruptly kill the `lambda`-th Lambda executor (modulo the number
    /// launched) at `at_us` — the platform reaping a container.
    Kill {
        /// Absolute firing time, microseconds.
        at_us: u64,
        /// Index into the sorted Lambda executor list.
        lambda: u32,
    },
    /// Kill every Lambda executor older than `min_age_us` at `at_us` — a
    /// correlated burst, the worst case for local shuffle.
    BurstKill {
        /// Absolute firing time, microseconds.
        at_us: u64,
        /// Minimum executor age to be reaped.
        min_age_us: u64,
    },
    /// Gracefully drain the `lambda`-th Lambda executor — the segue path.
    Drain {
        /// Absolute firing time, microseconds.
        at_us: u64,
        /// Index into the sorted Lambda executor list.
        lambda: u32,
    },
    /// Fail the `nth` shuffle-store `get` (1-based, store-wide order).
    FetchFail {
        /// 1-based ordinal of the struck get.
        nth: u64,
    },
    /// Fail the `nth` shuffle-store `put` (1-based, store-wide order).
    WriteFail {
        /// 1-based ordinal of the struck put.
        nth: u64,
    },
    /// Inflate every store op started inside `[from_us, until_us)` by
    /// `extra_us` — an HDFS brown-out window.
    Latency {
        /// Window start, microseconds.
        from_us: u64,
        /// Window end (exclusive), microseconds.
        until_us: u64,
        /// Added per-op latency, microseconds.
        extra_us: u64,
    },
    /// Slow the `lambda`-th Lambda executor to `100/slowdown_pct` of its
    /// speed for `for_us` — a straggler.
    Straggle {
        /// Absolute firing time, microseconds.
        at_us: u64,
        /// Index into the sorted Lambda executor list.
        lambda: u32,
        /// Slowdown in percent (300 = three times slower).
        slowdown_pct: u32,
        /// How long the straggle lasts, microseconds.
        for_us: u64,
    },
    /// Launch `count` replacement Lambda executors at `at_us` — the
    /// launching facility reacting to churn.
    AddLambdas {
        /// Absolute firing time, microseconds.
        at_us: u64,
        /// Lambdas to launch.
        count: u32,
    },
    /// Provision a VM and register `cores` executors on it at `at_us` —
    /// a VM-autoscaling rescue.
    AddVmCores {
        /// Absolute firing time, microseconds.
        at_us: u64,
        /// Executor cores to add (chunked across VMs if over one VM's
        /// vCPU count).
        cores: u32,
    },
}

impl FaultEvent {
    fn to_json(&self) -> String {
        match self {
            FaultEvent::Kill { at_us, lambda } => {
                format!("{{\"type\":\"kill\",\"at_us\":{at_us},\"lambda\":{lambda}}}")
            }
            FaultEvent::BurstKill { at_us, min_age_us } => {
                format!("{{\"type\":\"burst-kill\",\"at_us\":{at_us},\"min_age_us\":{min_age_us}}}")
            }
            FaultEvent::Drain { at_us, lambda } => {
                format!("{{\"type\":\"drain\",\"at_us\":{at_us},\"lambda\":{lambda}}}")
            }
            FaultEvent::FetchFail { nth } => {
                format!("{{\"type\":\"fetch-fail\",\"nth\":{nth}}}")
            }
            FaultEvent::WriteFail { nth } => {
                format!("{{\"type\":\"write-fail\",\"nth\":{nth}}}")
            }
            FaultEvent::Latency {
                from_us,
                until_us,
                extra_us,
            } => format!(
                "{{\"type\":\"latency\",\"from_us\":{from_us},\"until_us\":{until_us},\"extra_us\":{extra_us}}}"
            ),
            FaultEvent::Straggle {
                at_us,
                lambda,
                slowdown_pct,
                for_us,
            } => format!(
                "{{\"type\":\"straggle\",\"at_us\":{at_us},\"lambda\":{lambda},\"slowdown_pct\":{slowdown_pct},\"for_us\":{for_us}}}"
            ),
            FaultEvent::AddLambdas { at_us, count } => {
                format!("{{\"type\":\"add-lambdas\",\"at_us\":{at_us},\"count\":{count}}}")
            }
            FaultEvent::AddVmCores { at_us, cores } => {
                format!("{{\"type\":\"add-vm-cores\",\"at_us\":{at_us},\"cores\":{cores}}}")
            }
        }
    }

    fn from_json(v: &Json) -> Result<FaultEvent, String> {
        let kind = v.str_field("type")?;
        let u32_of = |key: &str| -> Result<u32, String> {
            u32::try_from(v.num(key)?).map_err(|_| format!("field {key:?} out of u32 range"))
        };
        // Store-op ordinals are 1-based; `StoreFaults` asserts it.
        let ordinal = |key: &str| match v.num(key)? {
            0 => Err(format!("field {key:?} is a 1-based ordinal, got 0")),
            n => Ok(n),
        };
        // Instants and durations, in microseconds.
        let us = |key: &str| match v.num(key)? {
            n if n > PLAN_HORIZON_US => Err(format!(
                "field {key:?} is {n} µs, past the plan horizon of {PLAN_HORIZON_US} µs"
            )),
            n => Ok(n),
        };
        Ok(match kind {
            "kill" => FaultEvent::Kill {
                at_us: us("at_us")?,
                lambda: u32_of("lambda")?,
            },
            "burst-kill" => FaultEvent::BurstKill {
                at_us: us("at_us")?,
                min_age_us: us("min_age_us")?,
            },
            "drain" => FaultEvent::Drain {
                at_us: us("at_us")?,
                lambda: u32_of("lambda")?,
            },
            "fetch-fail" => FaultEvent::FetchFail { nth: ordinal("nth")? },
            "write-fail" => FaultEvent::WriteFail { nth: ordinal("nth")? },
            "latency" => FaultEvent::Latency {
                from_us: us("from_us")?,
                until_us: us("until_us")?,
                extra_us: us("extra_us")?,
            },
            "straggle" => FaultEvent::Straggle {
                at_us: us("at_us")?,
                lambda: u32_of("lambda")?,
                slowdown_pct: u32_of("slowdown_pct")?,
                for_us: us("for_us")?,
            },
            "add-lambdas" => FaultEvent::AddLambdas {
                at_us: us("at_us")?,
                count: u32_of("count")?,
            },
            "add-vm-cores" => FaultEvent::AddVmCores {
                at_us: us("at_us")?,
                cores: u32_of("cores")?,
            },
            other => return Err(format!("unknown event type {other:?}")),
        })
    }
}

/// A seeded, serializable schedule of fault events.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// The seed this plan was generated from (0 for hand-written plans).
    pub seed: u64,
    /// The events, in generation order. The injector schedules each at its
    /// own timestamp, so the list need not be sorted.
    pub events: Vec<FaultEvent>,
}

/// Domain separator so plan generation doesn't correlate with any other
/// consumer of the same seed (the sim clock, workload data, …).
const PLAN_STREAM: u64 = 0xC4A0_5F1A_7E57_0001;

impl FaultPlan {
    /// Generates a plan of 2–5 events from `seed`. The distribution leans
    /// toward kills (the paper's central hazard) but covers every event
    /// kind; timestamps land in the 2–45 s window where the harness
    /// topology has jobs in flight.
    pub fn generate(seed: u64) -> FaultPlan {
        Self::generate_in_window(seed, 2_000_000, 45_000_000)
    }

    /// [`FaultPlan::generate`] with an explicit `[from_us, until_us)`
    /// timestamp window, for harnesses whose jobs-in-flight phase differs
    /// from the default chaos topology (e.g. the multi-tenant fleet,
    /// where arrivals span minutes). `generate(seed)` is exactly
    /// `generate_in_window(seed, 2_000_000, 45_000_000)` — same RNG
    /// stream, same plans.
    pub fn generate_in_window(seed: u64, from_us: u64, until_us: u64) -> FaultPlan {
        assert!(until_us > from_us, "empty fault window");
        let mut rng = Rng::seed_from_u64(seed ^ PLAN_STREAM);
        let n = 2 + rng.bounded_u64(4);
        let mut events = Vec::with_capacity(n as usize);
        for _ in 0..n {
            let at_us = from_us + rng.bounded_u64(until_us - from_us);
            events.push(match rng.bounded_u64(10) {
                0..=2 => FaultEvent::Kill {
                    at_us,
                    lambda: rng.bounded_u64(8) as u32,
                },
                3 => FaultEvent::BurstKill {
                    at_us,
                    min_age_us: (5 + rng.bounded_u64(20)) * 1_000_000,
                },
                4 => FaultEvent::Drain {
                    at_us,
                    lambda: rng.bounded_u64(8) as u32,
                },
                5 => FaultEvent::FetchFail {
                    nth: 1 + rng.bounded_u64(48),
                },
                6 => FaultEvent::WriteFail {
                    nth: 1 + rng.bounded_u64(48),
                },
                7 => FaultEvent::Latency {
                    from_us: at_us,
                    until_us: at_us + (2 + rng.bounded_u64(15)) * 1_000_000,
                    extra_us: (20 + rng.bounded_u64(280)) * 1_000,
                },
                8 => FaultEvent::Straggle {
                    at_us,
                    lambda: rng.bounded_u64(8) as u32,
                    slowdown_pct: (200 + rng.bounded_u64(600)) as u32,
                    for_us: (5 + rng.bounded_u64(15)) * 1_000_000,
                },
                _ => FaultEvent::AddLambdas {
                    at_us,
                    count: 1 + rng.bounded_u64(2) as u32,
                },
            });
        }
        FaultPlan { seed, events }
    }

    /// An empty plan (the fault-free reference).
    pub fn empty() -> FaultPlan {
        FaultPlan {
            seed: 0,
            events: Vec::new(),
        }
    }

    /// `waves` waves of `per_wave` replacement Lambdas, one wave every
    /// `every_s` seconds starting at `every_s`: the churn half of the
    /// ported `fault_tolerance` scenarios (paired with a short Lambda
    /// lifetime, so the platform does the killing), and the chaos
    /// topology's own capacity.
    pub fn replacement_waves(waves: u32, every_s: u64, per_wave: u32) -> FaultPlan {
        let events = (1..=u64::from(waves))
            .map(|wave| FaultEvent::AddLambdas {
                at_us: wave * every_s * 1_000_000,
                count: per_wave,
            })
            .collect();
        FaultPlan { seed: 0, events }
    }

    /// Appends a VM rescue: `cores` VM executors arriving at `at_s`.
    pub fn with_vm_rescue(mut self, at_s: u64, cores: u32) -> FaultPlan {
        self.events.push(FaultEvent::AddVmCores {
            at_us: at_s * 1_000_000,
            cores,
        });
        self
    }

    /// Whether any event abruptly kills executors.
    pub(crate) fn has_kills(&self) -> bool {
        self.events
            .iter()
            .any(|e| matches!(e, FaultEvent::Kill { .. } | FaultEvent::BurstKill { .. }))
    }

    /// Whether any event drains executors.
    pub(crate) fn has_drains(&self) -> bool {
        self.events
            .iter()
            .any(|e| matches!(e, FaultEvent::Drain { .. }))
    }

    /// Arms the storage-side events (fetch/write failures, latency
    /// windows) on `faults`. The executor-side events are armed by the
    /// injector against a live deployment.
    pub fn arm_store_faults(&self, faults: &StoreFaults) {
        for ev in &self.events {
            match ev {
                FaultEvent::FetchFail { nth } => faults.fail_nth_get(*nth),
                FaultEvent::WriteFail { nth } => faults.fail_nth_put(*nth),
                FaultEvent::Latency {
                    from_us,
                    until_us,
                    extra_us,
                } => faults.add_latency_window(
                    SimTime::from_micros(*from_us),
                    SimTime::from_micros(*until_us),
                    SimDuration::from_micros(*extra_us),
                ),
                _ => {}
            }
        }
    }

    /// Serializes the plan as one JSON line.
    pub fn to_json(&self) -> String {
        let mut s = format!("{{\"seed\":{},\"events\":[", self.seed);
        for (i, ev) in self.events.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&ev.to_json());
        }
        s.push_str("]}");
        s
    }

    /// Parses a plan serialized by [`FaultPlan::to_json`]. An instant or a
    /// duration past `PLAN_HORIZON_US` is an error naming its field.
    pub fn from_json(src: &str) -> Result<FaultPlan, String> {
        let v = parse(src)?;
        let seed = v.num("seed")?;
        let Some(Json::Arr(items)) = v.get("events") else {
            return Err("missing \"events\" array".into());
        };
        let events = items
            .iter()
            .map(FaultEvent::from_json)
            .collect::<Result<_, _>>()?;
        Ok(FaultPlan { seed, events })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl FaultPlan {
        /// Whether any event fails shuffle fetches.
        fn has_fetch_faults(&self) -> bool {
            self.events
                .iter()
                .any(|e| matches!(e, FaultEvent::FetchFail { .. }))
        }
    }

    #[test]
    fn generation_is_deterministic() {
        for seed in 0..32 {
            assert_eq!(FaultPlan::generate(seed), FaultPlan::generate(seed));
        }
        assert_ne!(FaultPlan::generate(1), FaultPlan::generate(2));
    }

    #[test]
    fn windowed_generation_respects_bounds_and_default_window_matches() {
        for seed in 0..32 {
            assert_eq!(
                FaultPlan::generate(seed),
                FaultPlan::generate_in_window(seed, 2_000_000, 45_000_000),
            );
            let plan = FaultPlan::generate_in_window(seed, 7_000_000, 90_000_000);
            for ev in &plan.events {
                let at = match ev {
                    FaultEvent::Kill { at_us, .. }
                    | FaultEvent::BurstKill { at_us, .. }
                    | FaultEvent::Drain { at_us, .. }
                    | FaultEvent::Straggle { at_us, .. }
                    | FaultEvent::AddLambdas { at_us, .. }
                    | FaultEvent::AddVmCores { at_us, .. } => Some(*at_us),
                    FaultEvent::Latency { from_us, .. } => Some(*from_us),
                    FaultEvent::FetchFail { .. } | FaultEvent::WriteFail { .. } => None,
                };
                if let Some(at) = at {
                    assert!((7_000_000..90_000_000).contains(&at), "{ev:?}");
                }
            }
        }
    }

    #[test]
    fn generated_plans_roundtrip_through_json() {
        for seed in 0..64 {
            let plan = FaultPlan::generate(seed);
            assert!(!plan.events.is_empty());
            let json = plan.to_json();
            let back = FaultPlan::from_json(&json).unwrap();
            assert_eq!(back, plan, "seed {seed} did not roundtrip: {json}");
        }
    }

    #[test]
    fn every_event_kind_roundtrips() {
        let plan = FaultPlan {
            seed: 42,
            events: vec![
                FaultEvent::Kill { at_us: 1, lambda: 2 },
                FaultEvent::BurstKill { at_us: 3, min_age_us: 4 },
                FaultEvent::Drain { at_us: 5, lambda: 6 },
                FaultEvent::FetchFail { nth: 7 },
                FaultEvent::WriteFail { nth: 8 },
                FaultEvent::Latency { from_us: 9, until_us: 10, extra_us: 11 },
                FaultEvent::Straggle { at_us: 12, lambda: 13, slowdown_pct: 300, for_us: 14 },
                FaultEvent::AddLambdas { at_us: 15, count: 16 },
                FaultEvent::AddVmCores { at_us: 17, cores: 18 },
            ],
        };
        assert_eq!(FaultPlan::from_json(&plan.to_json()).unwrap(), plan);
    }

    #[test]
    fn malformed_plans_are_rejected() {
        assert!(FaultPlan::from_json("{}").is_err());
        assert!(FaultPlan::from_json("{\"seed\":1}").is_err());
        assert!(
            FaultPlan::from_json("{\"seed\":1,\"events\":[{\"type\":\"meteor\"}]}").is_err()
        );
        assert!(
            FaultPlan::from_json("{\"seed\":1,\"events\":[{\"type\":\"kill\",\"at_us\":1}]}")
                .is_err(),
            "kill without lambda index must not parse"
        );
        for kind in ["fetch-fail", "write-fail"] {
            let zeroth = format!("{{\"seed\":0,\"events\":[{{\"type\":\"{kind}\",\"nth\":0}}]}}");
            let err = FaultPlan::from_json(&zeroth).expect_err("ordinals are 1-based");
            assert!(err.contains("\"nth\""), "{kind}: {err} should name the field");
        }
    }

    #[test]
    fn deeply_nested_plan_text_is_an_error() {
        let text = format!("{{\"seed\":0,\"events\":{}", "[".repeat(200_000));
        let err = FaultPlan::from_json(&text).expect_err("nesting is bounded");
        assert!(err.contains("nesting"), "{err}");
    }

    #[test]
    fn straggle_past_the_horizon_is_an_error() {
        let text = format!(
            "{{\"seed\":0,\"events\":[{{\"type\":\"straggle\",\"at_us\":1000000,\"lambda\":0,\
             \"slowdown_pct\":300,\"for_us\":{}}}]}}",
            u64::MAX
        );
        let err = FaultPlan::from_json(&text).expect_err("past the horizon");
        assert!(err.contains("\"for_us\""), "{err} should name the field");
    }

    #[test]
    fn latency_past_the_horizon_is_an_error() {
        let text = format!(
            "{{\"seed\":0,\"events\":[{{\"type\":\"latency\",\"from_us\":0,\
             \"until_us\":5000000,\"extra_us\":{}}}]}}",
            u64::MAX
        );
        let err = FaultPlan::from_json(&text).expect_err("past the horizon");
        assert!(err.contains("\"extra_us\""), "{err} should name the field");
    }

    /// The horizon itself is safe to simulate: the largest straggle and
    /// latency a plan can name run to completion without clock overflow.
    #[test]
    fn plans_at_the_horizon_run() {
        let text = format!(
            "{{\"seed\":0,\"events\":[\
             {{\"type\":\"straggle\",\"at_us\":{h},\"lambda\":0,\"slowdown_pct\":300,\"for_us\":{h}}},\
             {{\"type\":\"latency\",\"from_us\":0,\"until_us\":{h},\"extra_us\":{h}}}]}}",
            h = PLAN_HORIZON_US
        );
        let plan = FaultPlan::from_json(&text).expect("the horizon is inclusive");
        let w = crate::workloads::ChaosPageRank::small();
        let topo = crate::ChaosTopology::default();
        let r = crate::run_case(&w, splitserve::ShuffleStoreKind::Hdfs, Some(&plan), &topo);
        assert!(r.fingerprint.is_some(), "the run completes");
        assert!(r.delays > 0, "the latency window was reached");
    }

    /// Random text and mutations of real plan text either fail to parse or
    /// parse to a plan that round-trips — never a panic.
    #[test]
    fn hostile_plan_text_errs_or_roundtrips() {
        const ALPHABET: &[u8] = b"{}[],:\"0123456789 abcdeklnrstuy-_\\";
        splitserve_rt::check::run("hostile_plan_text_errs_or_roundtrips", 512, |g| {
            let mut text = if g.bool() {
                FaultPlan::generate(g.u64()).to_json().into_bytes()
            } else {
                g.vec(0, 64, |g| ALPHABET[g.usize_in(0, ALPHABET.len())])
            };
            for _ in 0..g.usize_in(0, 4) {
                let at = g.usize_in(0, text.len() + 1);
                match g.usize_in(0, 4) {
                    0 if at < text.len() => {
                        text.remove(at);
                    }
                    1 => text.insert(at, ALPHABET[g.usize_in(0, ALPHABET.len())]),
                    2 => {
                        let digits = g.u64().to_string();
                        text.splice(at..at, digits.bytes());
                    }
                    _ => {
                        text.splice(at..at, std::iter::repeat_n(b'[', g.usize_in(1, 64)));
                    }
                }
            }
            let text = String::from_utf8(text).expect("ASCII");
            if let Ok(plan) = FaultPlan::from_json(&text) {
                let again = FaultPlan::from_json(&plan.to_json());
                assert_eq!(again.as_ref(), Ok(&plan), "{text} did not round-trip");
            }
        });
    }

    #[test]
    fn classifiers_see_through_the_event_list() {
        let p = FaultPlan::generate(3);
        let has_kill = p
            .events
            .iter()
            .any(|e| matches!(e, FaultEvent::Kill { .. } | FaultEvent::BurstKill { .. }));
        assert_eq!(p.has_kills(), has_kill);
        let waves = FaultPlan::replacement_waves(3, 5, 2).with_vm_rescue(60, 8);
        assert_eq!(waves.events.len(), 4);
        assert!(!waves.has_kills() && !waves.has_drains() && !waves.has_fetch_faults());
    }

    #[test]
    fn arm_store_faults_only_arms_storage_events() {
        let faults = StoreFaults::new();
        FaultPlan {
            seed: 0,
            events: vec![FaultEvent::Kill { at_us: 1, lambda: 0 }],
        }
        .arm_store_faults(&faults);
        assert!(!faults.is_armed());
        FaultPlan {
            seed: 0,
            events: vec![FaultEvent::FetchFail { nth: 2 }],
        }
        .arm_store_faults(&faults);
        assert!(faults.is_armed());
    }
}

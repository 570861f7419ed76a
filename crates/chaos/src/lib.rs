//! # splitserve-chaos — deterministic fault injection + differential oracle
//!
//! The paper's fault-tolerance story (§4.3) makes a sharp, checkable
//! claim: with a *shared* shuffle store, losing an executor loses no
//! shuffle data, so Spark's execution-rollback cascade never happens;
//! with *executor-local* shuffle, a lost executor that held live blocks
//! forces completed stages to re-run, yet lineage still recovers the
//! correct result. This crate turns that claim into a property the test
//! suite can sweep:
//!
//! 1. **[`FaultPlan`]** — a seeded, serializable schedule of fault events
//!    (kills, correlated burst kills, segue drains, nth-op fetch/write
//!    failures, store latency windows, stragglers, capacity churn). One
//!    `u64` seed deterministically expands to one plan
//!    ([`FaultPlan::generate`], or [`FaultPlan::generate_in_window`] to
//!    aim the same event mix at a caller-chosen time window — e.g. the
//!    tenant-fleet sweeps, whose traces run much longer than a single
//!    job), and every plan round-trips through a one-line JSON form
//!    ([`FaultPlan::to_json`]).
//! 2. **The injector** ([`inject::arm`]) — arms a plan against a live
//!    [`Deployment`](splitserve::Deployment): kills ride the engine's
//!    real `kill_executor` path, storage faults ride a store decorator
//!    ([`splitserve_storage::FaultStore`]) interposed *under* the metrics
//!    layer, stragglers ride the scheduler's per-executor speed factor.
//!    Every performed fault bumps `faults_injected_total{kind}`.
//! 3. **The differential oracle** ([`Oracle`]) — runs each plan under
//!    both store kinds on a fixed churn topology ([`ChaosTopology`]) and
//!    asserts output fingerprints stay bit-identical to the fault-free
//!    reference while rollbacks appear exactly when the store semantics
//!    say they must.
//! 4. **Shrinking** ([`check_or_shrink`]) — a failing plan is greedily
//!    reduced to a minimal reproduction and printed as a replayable
//!    `CHAOS_SEED=<seed> CHAOS_PLAN=<json>` line.
//!
//! ```
//! use splitserve_chaos::{check_or_shrink, ChaosTopology, FaultPlan, Oracle};
//! use splitserve_chaos::workloads::{ChaosSparkPi, ChaosWorkload};
//!
//! let w = ChaosSparkPi::small();
//! let oracle = Oracle::new(&w, ChaosTopology::default());
//! let plan = FaultPlan::generate(42);
//! check_or_shrink(&oracle, &plan).expect("oracle holds for seed 42");
//! ```

#![warn(missing_docs)]

mod harness;
mod json;
mod plan;
mod shrink;

pub mod inject;
pub mod workloads;

pub use harness::{run_case, CaseResult, ChaosFailure, ChaosTopology, Oracle, PlanOutcome};
pub use inject::InjectionReport;
pub use plan::{FaultEvent, FaultPlan};
pub use shrink::{check_or_shrink, shrink_events};

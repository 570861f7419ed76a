//! # splitserve-bench — the experiment harness
//!
//! Regenerates every figure of the SplitServe paper's evaluation (§5):
//! each `fig*` function in [`experiments`] builds the workload, runs the
//! relevant [`Scenario`](splitserve::Scenario)s on the simulated cloud and
//! returns a results [`Table`](report::Table). [`experiments::EXPERIMENTS`]
//! lists them by key in print order, and the one binary,
//! `reproduce_all [--only KEY] [--quick] [--csv] [--seed N]`, prints all of
//! them or one slice ([`cli`] parses and runs; a command line it cannot
//! account for exits 2). Host time is measured by the repository's one perf
//! ledger, `benchmark/`, not here.
//!
//! | `--only` key | Paper artifact |
//! |---|---|
//! | `fig1` | Fig. 1 vCPU cost curves + crossover |
//! | `fig2` | Fig. 2 demand bands + policy comparison |
//! | `fig4` | Fig. 4(a,b) PageRank profiling sweeps |
//! | `fig5` | Fig. 5 TPC-DS scenario comparison |
//! | `fig6` | Fig. 6 PageRank scenario comparison |
//! | `fig7` | Fig. 7 execution timelines |
//! | `fig8` | Fig. 8 K-means perf+cost with error bars |
//! | `fig9` | Fig. 9 SparkPi scenario comparison |
//! | `ablations` | store / segue-threshold / memory / CloudSort / controller / job-stream |

#![warn(missing_docs)]

pub mod cli;
pub mod experiments;
pub mod report;

//! # splitserve-bench — the experiment harness
//!
//! Regenerates every figure of the SplitServe paper's evaluation (§5):
//! each `fig*` function in [`experiments`] builds the workload, runs the
//! relevant [`Scenario`](splitserve::Scenario)s on the simulated cloud and
//! returns a results [`Table`](report::Table). The binaries in `src/bin`
//! print the tables (and CSV with `--csv`). Host time is measured by the
//! repository's one perf ledger, `benchmark/`, not here.
//!
//! | Binary | Paper artifact |
//! |---|---|
//! | `fig1_cost_curve` | Fig. 1 vCPU cost curves + crossover |
//! | `fig2_forecast` | Fig. 2 demand bands + policy comparison |
//! | `fig4_profiling` | Fig. 4(a,b) PageRank profiling sweeps |
//! | `fig5_tpcds` | Fig. 5 TPC-DS scenario comparison |
//! | `fig6_pagerank` | Fig. 6 PageRank scenario comparison |
//! | `fig7_timeline` | Fig. 7 execution timelines |
//! | `fig8_kmeans` | Fig. 8 K-means perf+cost with error bars |
//! | `fig9_sparkpi` | Fig. 9 SparkPi scenario comparison |
//! | `ablations` | store / segue-threshold / memory sweeps |
//! | `reproduce_all` | everything above, in order |

#![warn(missing_docs)]

pub mod cli;
pub mod experiments;
pub mod report;

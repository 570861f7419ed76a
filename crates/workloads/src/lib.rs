//! # splitserve-workloads — the paper's four benchmark workloads
//!
//! Implementations of the workloads evaluated in §5, each a
//! [`DriverProgram`](splitserve::DriverProgram) runnable under any of the
//! eight scenarios:
//!
//! | Workload | Character | Paper figure |
//! |---|---|---|
//! | [`TpcdsLoad`] (Q5/Q16/Q94/Q95) | ETL queries, heavy shuffle | Fig. 5 |
//! | [`PageRank`] | CPU-intensive + large shuffle | Figs. 4, 6, 7 |
//! | [`KMeans`] | compute-heavy, small shuffle | Fig. 8 |
//! | [`SparkPi`] | pure compute, negligible shuffle | Fig. 9 |
//!
//! All inputs are synthetic, generated deterministically per partition on
//! the executors; results are cross-checked against sequential reference
//! implementations in the test suites.

#![warn(missing_docs)]

mod gen;
mod kmeans;
mod pagerank;
mod pi;
mod sort;
mod tpcds;

pub use kmeans::KMeans;
pub use pagerank::{reference_pagerank, PageRank};
pub use pi::{estimate_pi, SparkPi};
pub use sort::CloudSort;
pub use tpcds::{QueryAnswer, StoreSale, TpcdsLoad, TpcdsQuery, TpcdsTables};

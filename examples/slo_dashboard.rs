//! The SLO dashboard: runs the paper's bursty job stream under both
//! stream policies (fixed VM pool vs SplitServe's launching facility)
//! with the full telemetry plane on, and renders what a tenant's
//! dashboard would show — the SLO-attainment curve, the cumulative-bill
//! curve, streaming-digest latency quantiles and the windowed task-run
//! rollups — as one self-contained JSON artifact.
//!
//! ```text
//! cargo run --release --example slo_dashboard [out.json]
//! ```
//!
//! Deterministic: run it twice and the artifact is byte-identical, and
//! `SPLITSERVE_WORKERS` (the engine's worker-thread count) changes only
//! the embedded `"workers":N` label — `tests/artifact_pins.rs` pins both.

use splitserve_suite::{slo_dashboard, workers_from_env, write_artifact};

fn main() -> std::io::Result<()> {
    let workers = workers_from_env();
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "target/slo_dashboard.json".to_string());
    let wrote = write_artifact(&out_path, &slo_dashboard(workers).json(workers))?;
    println!("slo-dashboard: workers={workers} {wrote}");
    Ok(())
}

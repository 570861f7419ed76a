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
//! Deterministic: the engine runs task bodies on the simulation thread
//! (the artifact's `"workers":1` field), and running it twice writes the
//! same bytes — `tests/artifact_pins.rs` pins them.

use splitserve_suite::{slo_dashboard, write_artifact};

fn main() -> std::io::Result<()> {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "target/slo_dashboard.json".to_string());
    let wrote = write_artifact(&out_path, &slo_dashboard().json())?;
    println!("slo-dashboard: {wrote}");
    Ok(())
}

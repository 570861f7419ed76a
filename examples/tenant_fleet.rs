//! The tenant fleet: 10k+ jobs across 100+ tenants driven through the
//! multi-tenant admission control plane, swept over three provisioning
//! policies (vm-only / splitserve / lambda-heavy) — the paper's
//! Figure 2/3 judgement at fleet scale. Emits one deterministic JSON
//! artifact with per-class SLO-attainment and bill curves.
//!
//! ```text
//! cargo run --release --example tenant_fleet [out.json]
//! ```
//!
//! Deterministic: run it twice and the artifact is byte-identical, and
//! `SPLITSERVE_WORKERS` (the engine's worker-thread count) changes only
//! the embedded `"workers":N` label — `tests/artifact_pins.rs` pins both.

use splitserve_suite::{tenant_fleet, workers_from_env, write_artifact};

fn main() -> std::io::Result<()> {
    let workers = workers_from_env();
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "target/tenant_fleet.json".to_string());
    let wrote = write_artifact(&out_path, &tenant_fleet(workers).json(workers))?;
    println!("tenant-fleet: workers={workers} {wrote}");
    Ok(())
}

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
//! Deterministic: the engine runs task bodies on the simulation thread
//! (the artifact's `"workers":1` field), and running it twice writes the
//! same bytes — `tests/artifact_pins.rs` pins them.

use splitserve_suite::{tenant_fleet, write_artifact};

fn main() -> std::io::Result<()> {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "target/tenant_fleet.json".to_string());
    let wrote = write_artifact(&out_path, &tenant_fleet().json())?;
    println!("tenant-fleet: {wrote}");
    Ok(())
}

//! The cold-start policy sweep: the same recurrent-burst tenant fleet
//! run under each warm-pool policy (`forever` / `fixed:15` /
//! `pressure:6144` / `hybrid:15`), next to an engine-free recurrent
//! microtrace whose cold-fraction ordering the property suites
//! guarantee. One deterministic JSON artifact out.
//!
//! ```text
//! cargo run --release --example coldstart_sweep [out.json]
//! ```
//!
//! Deterministic: the engine runs task bodies on the simulation thread
//! (the artifact's `"workers":1` field), and the artifact is
//! byte-identical across runs (`tests/artifact_pins.rs` pins it). Set
//! `SPLITSERVE_COLDSTART` to a
//! selector (`forever`, `fixed:<secs>`, `pressure:<cap_mb>`,
//! `hybrid[:<fallback_secs>]`) to append one extra arm to the sweep.

use splitserve_cloud::ColdStartSpec;
use splitserve_suite::{coldstart_sweep, write_artifact};

fn main() -> Result<(), String> {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "target/coldstart_sweep.json".to_string());
    let extra = std::env::var("SPLITSERVE_COLDSTART")
        .ok()
        .map(|sel| ColdStartSpec::parse(&sel).map_err(|e| format!("SPLITSERVE_COLDSTART: {e}")))
        .transpose()?;
    let json = coldstart_sweep(extra.as_ref()).json();
    let wrote = write_artifact(&out_path, &json).map_err(|e| format!("{out_path}: {e}"))?;
    println!("coldstart-sweep: {wrote}");
    Ok(())
}

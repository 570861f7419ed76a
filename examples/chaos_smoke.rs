//! Determinism smoke for the chaos plane: 16 fixed seeds × two workloads
//! × both shuffle stores, one line per case. The output must be
//! byte-identical across runs and across `SPLITSERVE_WORKERS`, or the
//! fault plane has lost the determinism that makes `CHAOS_SEED=…` repro
//! lines trustworthy (`tests/artifact_pins.rs` pins the digest at 1 and
//! 4 workers).
//!
//! ```text
//! cargo run --release --example chaos_smoke
//! ```

use splitserve_suite::{chaos_smoke, workers_from_env};

fn main() {
    print!("{}", chaos_smoke(workers_from_env()).text());
}

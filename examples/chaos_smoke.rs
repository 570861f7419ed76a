//! Determinism smoke for the chaos plane: 16 fixed seeds × two workloads
//! × both shuffle stores, one line per case, run single-threaded. The
//! output must be byte-identical across runs, or the fault plane has lost
//! the determinism that makes `CHAOS_SEED=…` repro lines trustworthy
//! (`tests/artifact_pins.rs` pins the digest).
//!
//! ```text
//! cargo run --release --example chaos_smoke
//! ```

use splitserve_suite::chaos_smoke;

fn main() {
    print!("{}", chaos_smoke().text());
}

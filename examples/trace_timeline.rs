//! The paper's CloudSort workload under the observability layer: runs the
//! `SS VM / La Segue` scenario with tracing enabled and exports the
//! executor timeline as a Chrome trace plus a Prometheus snapshot.
//!
//! ```sh
//! cargo run --release --example trace_timeline [out-dir]
//! ```
//!
//! Open `<out-dir>/trace_timeline.json` (default `target/`) in
//! `chrome://tracing` (or <https://ui.perfetto.dev>): one row per
//! executor, with the VM lanes filling up as the Lambda lanes drain at
//! the segue. The run is single-threaded and deterministic:
//! `tests/artifact_pins.rs` pins both files and asserts that shape on the
//! recorded spans.

use splitserve_suite::trace_timeline;

fn main() -> std::io::Result<()> {
    let out_dir = std::env::args().nth(1).unwrap_or_else(|| "target".into());
    let run = trace_timeline();
    println!("running {} under Scenario::SsHybridSegue ...", run.workload);
    let result = &run.result;
    println!(
        "{}: finished in {:.1} s (virtual), {} tasks on VMs, {} on Lambdas, {} recomputed, ${:.4}",
        result.label,
        result.execution_secs,
        result.tasks_on_vm,
        result.tasks_on_lambda,
        result.tasks_recomputed,
        result.cost_usd,
    );

    let spans = run.obs.spans.finished_spans();
    let tasks_on = |lane: &str| {
        spans
            .iter()
            .filter(|s| s.lane == lane && s.name.starts_with("task "))
            .count()
    };
    let drains = spans
        .iter()
        .filter(|s| s.name.starts_with("segue drain"))
        .count();
    println!(
        "trace: {} spans ({} VM tasks, {} Lambda tasks, {drains} drains)",
        spans.len(),
        tasks_on("vm"),
        tasks_on("lambda"),
    );

    for wrote in run.write(&out_dir)? {
        println!("trace: {wrote}");
    }
    Ok(())
}

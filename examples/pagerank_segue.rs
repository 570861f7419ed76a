//! The full SplitServe story on PageRank: a latency-critical job arrives
//! to find 3 of its 16 cores free, bridges with 13 Lambdas, and segues
//! back to VM cores that free up at t = 45 s — the paper's Figure 7
//! timeline, as a runnable program.
//!
//! ```sh
//! cargo run --release --example pagerank_segue
//! ```

use splitserve::{arm_segue, run_job, ScenarioSpec, SegueConfig, ShuffleStoreKind};
use splitserve_cloud::{M4_4XLARGE, M4_XLARGE};
use splitserve_des::SimDuration;
use splitserve_engine::EngineEventKind;
use splitserve_workloads::PageRank;

fn main() {
    // Master + single HDFS node colocated on an m4.xlarge: its 750 Mbps
    // EBS pipe is the shuffle bottleneck, exactly as in the paper.
    let spec = ScenarioSpec {
        master_type: M4_XLARGE,
        seed: 7,
        ..ScenarioSpec::default()
    };
    // HiBench-style PageRank (scaled down so the example runs in seconds
    // of host time; Figure 7 in the repo uses 850 000 pages).
    let workload = PageRank::new(120_000, 3, 16, 7).with_contrib_cost(1.0e-4);

    let run = run_job(
        &spec,
        ShuffleStoreKind::Hdfs,
        |sim, d| {
            // Launching facility: 3 free VM cores + 13 Lambdas.
            d.add_vm_workers(sim, M4_4XLARGE, 3);
            d.add_lambda_executors(sim, 13);

            // Segueing facility: 13 cores free up on the existing VM at 45 s;
            // Lambdas older than spark.lambda.executor.timeout = 30 s drain
            // gracefully once replacements register.
            arm_segue(
                sim,
                d,
                SegueConfig::existing_cores(13, SimDuration::from_secs(45))
                    .with_lambda_timeout(SimDuration::from_secs(30)),
            );
        },
        &workload,
    );

    println!(
        "PageRank finished at t = {:.1} s (virtual)",
        run.execution_secs
    );

    // Replay the lifecycle from the engine's event log.
    println!("\ntimeline:");
    for e in &run.events {
        let at = e.at.as_secs_f64();
        match &e.kind {
            EngineEventKind::ExecutorRegistered { exec, kind } => {
                println!("  {at:7.2}s  + executor {exec} ({kind})");
            }
            EngineEventKind::Marker(m) => println!("  {at:7.2}s  ** {m} **"),
            EngineEventKind::ExecutorDraining { exec } => {
                println!("  {at:7.2}s  ~ draining {exec}");
            }
            EngineEventKind::ExecutorDecommissioned { exec } => {
                println!("  {at:7.2}s  - decommissioned {exec}");
            }
            EngineEventKind::StageCompleted { stage, .. } => {
                println!("  {at:7.2}s  stage {stage} complete");
            }
            _ => {}
        }
    }

    let metrics = run.jobs.last().expect("one job ran");
    println!(
        "\ntasks on VMs: {} | on Lambdas: {} | recomputed: {}",
        metrics.tasks_on_vm, metrics.tasks_on_lambda, metrics.tasks_recomputed
    );
    assert_eq!(metrics.tasks_recomputed, 0, "graceful segue never rolls back");
    println!("total cost: ${:.4}", run.cost_usd);
}

//! Runs a TPC-DS-style query under all eight evaluation scenarios of the
//! paper's §5 and prints the comparison — a miniature Figure 5.
//!
//! ```sh
//! cargo run --release --example scenario_faceoff
//! ```

use splitserve::{run_scenario, DriverProgram, Scenario, ScenarioResult, ScenarioSpec};
use splitserve_workloads::{TpcdsLoad, TpcdsQuery};

fn main() {
    let spec = ScenarioSpec {
        required_cores: 16,
        available_cores: 4,
        ..ScenarioSpec::default()
    };
    let workload = || -> Box<dyn DriverProgram> {
        let mut load = TpcdsLoad::tiny(TpcdsQuery::Q95, 1);
        load.shuffle_partitions = 32;
        load.tables.sf = 4;
        load.tables.input_partitions = 32;
        load.tables.row_cost_secs = 5.0e-4; // long enough that the cluster mix matters
        Box::new(load)
    };

    println!("TPC-DS Q95 under every scenario (R = 16, r = 4):\n");
    println!(
        "{:<24} {:>9} {:>10} {:>9} {:>9}",
        "scenario", "exec (s)", "cost ($)", "vm tasks", "la tasks"
    );
    let results: Vec<ScenarioResult> = Scenario::all()
        .iter()
        .map(|s| run_scenario(*s, &spec, &workload))
        .collect();
    let baseline = results
        .iter()
        .find(|r| r.scenario == Scenario::SparkRVm)
        .map(|r| r.execution_secs)
        .expect("baseline present");
    for r in &results {
        println!(
            "{:<24} {:>9.2} {:>10.4} {:>9} {:>9}   ({:.2}x)",
            r.label,
            r.execution_secs,
            r.cost_usd,
            r.tasks_on_vm,
            r.tasks_on_lambda,
            r.execution_secs / baseline,
        );
    }

    // The paper's qualitative claims, checked live:
    let by = |s: Scenario| {
        results
            .iter()
            .find(|r| r.scenario == s)
            .expect("scenario ran")
    };
    let hybrid = by(Scenario::SsHybrid);
    let autoscale = by(Scenario::SparkAutoscale);
    println!(
        "\nhybrid vs VM autoscale: {:.0}% less execution time",
        (1.0 - hybrid.execution_secs / autoscale.execution_secs) * 100.0
    );
    assert!(
        hybrid.execution_secs < autoscale.execution_secs,
        "SplitServe's headline: the hybrid beats VM-based autoscaling"
    );
}

//! Guards the experiment harness itself: every figure's quick-fidelity
//! variant must run and produce structurally sane tables, so the paper's
//! artifacts stay regenerable — and the quick text `reproduce_all` prints,
//! whole or in `--only` slices, is pinned so a drifting figure fails here.

use splitserve::ProfileMode;
use splitserve_bench::cli::{self, Cli};
use splitserve_bench::experiments as ex;
use splitserve_bench::experiments::Fidelity;
use splitserve_rt::hash::assert_pinned;

/// xxhash64 of `reproduce_all --quick` (seed 42, text): 606 lines.
const QUICK_TEXT: u64 = 0xe753_bab0_a44d_a432;

/// What `reproduce_all --quick [--only KEY]` writes to stdout, through the
/// library entry its `main` calls.
fn quick_text(only: Option<&'static str>) -> String {
    let cli = Cli {
        fidelity: Fidelity::Quick,
        csv: false,
        seed: 42,
        only,
    };
    let mut out = Vec::new();
    cli::run(&cli, &mut out).expect("writing to a Vec cannot fail");
    String::from_utf8(out).expect("tables are UTF-8")
}

/// The quick text is built once, as `--only` slices: each slice runs in
/// a process that already ran every later experiment, so an experiment
/// that leaks state into the next (a process-wide id counter such as
/// `NEXT_NODE` / `NEXT_SHUFFLE`) moves the concatenation off the pin.
#[test]
fn only_slices_concatenate_to_the_pinned_quick_text() {
    let keys: Vec<&'static str> = ex::EXPERIMENTS.iter().map(|(key, _)| *key).collect();
    for (i, key) in keys.iter().enumerate() {
        assert!(!keys[..i].contains(key), "--only key {key} listed twice");
    }
    let mut slices: Vec<String> = keys.iter().rev().map(|key| quick_text(Some(key))).collect();
    slices.reverse();
    assert_pinned("reproduce_all --quick", slices.concat().as_bytes(), QUICK_TEXT);
}

#[test]
fn fig1_curve_has_the_crossover_shape() {
    let t = ex::fig1();
    assert!(t.rows.len() > 50);
    // Early points: lambda cheaper; late points: VM cheaper.
    let parse = |row: &Vec<String>| -> (f64, f64, f64) {
        (
            row[0].parse().expect("time"),
            row[1].parse().expect("vm"),
            row[2].parse().expect("lambda"),
        )
    };
    let (_, vm0, la0) = parse(&t.rows[0]);
    assert!(la0 < vm0, "lambda starts cheaper");
    let (_, vm_last, la_last) = parse(t.rows.last().expect("rows"));
    assert!(la_last > vm_last, "lambda ends pricier");
    let x = ex::fig1_crossover_secs();
    assert!(x > 10.0 && x < 7_200.0, "crossover {x}");
}

#[test]
fn fig2_series_and_policy_tables() {
    let (series, policies) = ex::fig2(5);
    assert_eq!(series.rows.len(), 288);
    assert_eq!(policies.rows.len(), 2);
    // Lean policy provisions fewer core-hours than conservative.
    let prov: Vec<f64> = policies
        .rows
        .iter()
        .map(|r| r[3].parse().expect("core hours"))
        .collect();
    assert!(prov[1] < prov[0]);
}

#[test]
fn fig4_sweeps_produce_u_shaped_lambda_curve() {
    let t = ex::fig4(ProfileMode::LambdaOnly, Fidelity::Quick, 3);
    // rows: size × ladder
    assert_eq!(t.rows.len(), ex::fig4_sizes(Fidelity::Quick).len() * ex::fig4_ladder(Fidelity::Quick).len());
    // For the largest size, p=2 beats p=1 (parallelism helps initially).
    let large_rows: Vec<&Vec<String>> = t.rows.iter().filter(|r| r[0] == "large").collect();
    let t1: f64 = large_rows[0][3].parse().expect("time");
    let t2: f64 = large_rows[1][3].parse().expect("time");
    assert!(t2 < t1, "p=2 ({t2}) must beat p=1 ({t1})");
}

#[test]
fn fig5_quick_has_all_queries_and_scenarios() {
    let t = ex::fig5(Fidelity::Quick, 2);
    assert_eq!(t.rows.len(), 4 * ex::no_segue_scenarios().len());
    for q in ["Q5", "Q16", "Q94", "Q95"] {
        assert!(t.rows.iter().any(|r| r[0] == q), "{q} missing");
    }
}

#[test]
fn fig6_quick_covers_all_eight_scenarios() {
    let t = ex::fig6(Fidelity::Quick, 2);
    assert_eq!(t.rows.len(), 8);
    assert!(t.rows.iter().any(|r| r[1].contains("Segue")));
}

#[test]
fn fig7_timelines_show_the_segue() {
    let tls = ex::fig7(Fidelity::Quick, 2);
    assert_eq!(tls.len(), 3);
    assert!(tls[0].segue_at.is_none(), "vanilla run has no segue");
    assert!(tls[1].segue_at.is_none(), "plain hybrid has no segue");
    let segue = &tls[2];
    assert!(segue.segue_at.is_some(), "segue run must mark the segue");
    // Lambda lanes end; VM lanes appear.
    assert!(segue.lanes.iter().any(|l| l.kind == "lambda"));
    assert!(segue.lanes.iter().any(|l| l.kind == "vm"));
    // Stage structure matches PageRank's 3·iters+1 stages.
    assert_eq!(tls[0].stage_completions.len(), 10);
}

#[test]
fn fig8_reports_mean_and_sd_per_scenario() {
    let t = ex::fig8(Fidelity::Quick, 40);
    assert_eq!(t.rows.len(), ex::no_segue_scenarios().len());
    for row in &t.rows {
        let mean: f64 = row[1].parse().expect("mean");
        let sd: f64 = row[2].parse().expect("sd");
        assert!(mean > 0.0);
        assert!(sd >= 0.0);
        let cost: f64 = row[3].parse().expect("cost");
        assert!(cost > 0.0);
    }
}

#[test]
fn fig9_compute_bound_scenarios_cluster_near_baseline() {
    let t = ex::fig9(Fidelity::Quick, 2);
    assert_eq!(t.rows.len(), ex::fig9_scenarios().len());
    // All-Lambda and hybrid must be within 1.5x of Spark R VM (negligible
    // shuffle ⇒ substrate indifference).
    for label_fragment in ["SS 64 La", "SS 4 VM / 60 La"] {
        let row = t
            .rows
            .iter()
            .find(|r| r[1] == label_fragment)
            .unwrap_or_else(|| panic!("{label_fragment} missing"));
        let rel: f64 = row[3].trim_end_matches('x').parse().expect("ratio");
        assert!(rel < 1.5, "{label_fragment} at {rel}x");
    }
}

#[test]
fn ablation_tables_run_quick() {
    let stores = ex::ablation_stores(Fidelity::Quick, 2);
    assert_eq!(stores.rows.len(), 4);
    let thresholds = ex::ablation_segue_threshold(Fidelity::Quick, 2);
    assert_eq!(thresholds.rows.len(), 5);
    let memory = ex::ablation_lambda_memory(Fidelity::Quick, 2);
    assert_eq!(memory.rows.len(), 5);
    let cloudsort = ex::ablation_cloudsort(Fidelity::Quick, 2);
    assert_eq!(cloudsort.rows.len(), 3);
    let controller = ex::ablation_controller(Fidelity::Quick, 2);
    assert_eq!(controller.rows.len(), 2);
    let stream = ex::ablation_job_stream(Fidelity::Quick, 2);
    assert_eq!(stream.rows.len(), 2);
    // SplitServe's stream attainment never trails the VM-only pool's.
    let vm_att: f64 = stream.rows[0][1].parse().expect("attainment");
    let ss_att: f64 = stream.rows[1][1].parse().expect("attainment");
    assert!(ss_att >= vm_att, "bridging must not hurt attainment");
    // Larger memory = faster lambdas (monotone trend allowing small noise).
    let t768: f64 = memory.rows[0][1].parse().expect("time");
    let t3008: f64 = memory.rows[4][1].parse().expect("time");
    assert!(t3008 < t768, "3008MB ({t3008}) must beat 768MB ({t768})");
}

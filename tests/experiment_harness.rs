//! Guards the experiment harness itself: the seed-42 quick pass that
//! `reproduce_all --quick` prints is computed once per process, its text
//! is pinned so a drifting figure fails here, and every figure test
//! asserts its structural and paper-shape claims on that pass's tables.

use std::sync::OnceLock;

use splitserve_bench::cli::{self, Cli};
use splitserve_bench::experiments as ex;
use splitserve_bench::experiments::Fidelity;
use splitserve_bench::report::Table;
use splitserve_rt::hash::assert_pinned;

/// xxhash64 of `reproduce_all --quick` (seed 42, text): 606 lines.
const QUICK_TEXT: u64 = 0xe753_bab0_a44d_a432;

/// The seed `reproduce_all` runs by default.
const SEED: u64 = 42;

/// The quick pass: every experiment's tables by `--only` key, in
/// [`ex::EXPERIMENTS`] order. It is built once, experiment by experiment
/// in reverse key order, so each runs in a process that already ran
/// every later experiment: one that leaks state into the next (a
/// process-wide id counter such as `NEXT_NODE` / `NEXT_SHUFFLE`) moves
/// the rendering off the pin.
fn quick_pass() -> &'static [(&'static str, Vec<Table>)] {
    static PASS: OnceLock<Vec<(&'static str, Vec<Table>)>> = OnceLock::new();
    PASS.get_or_init(|| {
        let mut pass: Vec<_> = ex::EXPERIMENTS
            .iter()
            .rev()
            .map(|(key, experiment)| (*key, experiment(Fidelity::Quick, SEED)))
            .collect();
        pass.reverse();
        pass
    })
}

/// The quick pass's tables for `key`.
fn tables(key: &str) -> &'static [Table] {
    let (_, tables) = quick_pass()
        .iter()
        .find(|(k, _)| *k == key)
        .unwrap_or_else(|| panic!("no experiment {key}"));
    tables
}

/// What `reproduce_all` prints for `tables`.
fn render(tables: &[Table]) -> String {
    tables.iter().map(|t| t.render(false)).collect()
}

#[test]
fn only_slices_concatenate_to_the_pinned_quick_text() {
    let keys: Vec<&'static str> = ex::EXPERIMENTS.iter().map(|(key, _)| *key).collect();
    for (i, key) in keys.iter().enumerate() {
        assert!(!keys[..i].contains(key), "--only key {key} listed twice");
    }
    let text: String = quick_pass().iter().map(|(_, tables)| render(tables)).collect();
    assert_pinned("reproduce_all --quick", text.as_bytes(), QUICK_TEXT);
    // The binary's own entry prints the same slice.
    let cli = Cli {
        fidelity: Fidelity::Quick,
        csv: false,
        seed: SEED,
        only: Some("fig1"),
    };
    let mut out = Vec::new();
    cli::run(&cli, &mut out).expect("writing to a Vec cannot fail");
    let fig1 = String::from_utf8(out).expect("tables are UTF-8");
    assert_eq!(fig1, render(tables("fig1")));
}

/// Column `col` of `row`, parsed; a trailing `x` (a ratio) is dropped.
fn cell(row: &[String], col: usize) -> f64 {
    row[col]
        .trim_end_matches('x')
        .parse()
        .unwrap_or_else(|e| panic!("{:?} in {row:?}: {e}", row[col]))
}

#[test]
fn fig1_curve_has_the_crossover_shape() {
    let t = &tables("fig1")[0];
    assert!(t.rows.len() > 50);
    // Early points: lambda cheaper; late points: VM cheaper.
    let (first, last) = (&t.rows[0], t.rows.last().expect("rows"));
    assert!(cell(first, 2) < cell(first, 1), "lambda starts cheaper");
    assert!(cell(last, 2) > cell(last, 1), "lambda ends pricier");
    let x = ex::fig1_crossover_secs();
    assert!(x > 10.0 && x < 7_200.0, "crossover {x}");
}

#[test]
fn fig2_series_and_policy_tables() {
    let [series, policies] = tables("fig2") else {
        panic!("fig2 is a series and a policy table")
    };
    assert_eq!(series.rows.len(), 288);
    assert_eq!(policies.rows.len(), 2);
    // Lean policy provisions fewer core-hours than conservative.
    let prov: Vec<f64> = policies.rows.iter().map(|r| cell(r, 3)).collect();
    assert!(prov[1] < prov[0]);
}

#[test]
fn fig4_sweeps_produce_u_shaped_lambda_curve() {
    let t = &tables("fig4")[0];
    // rows: size × ladder
    assert_eq!(t.rows.len(), ex::fig4_sizes(Fidelity::Quick).len() * ex::fig4_ladder(Fidelity::Quick).len());
    // For the largest size, p=2 beats p=1 (parallelism helps initially).
    let large_rows: Vec<&Vec<String>> = t.rows.iter().filter(|r| r[0] == "large").collect();
    let (t1, t2) = (cell(large_rows[0], 3), cell(large_rows[1], 3));
    assert!(t2 < t1, "p=2 ({t2}) must beat p=1 ({t1})");
}

#[test]
fn fig5_quick_has_all_queries_and_scenarios() {
    let t = &tables("fig5")[0];
    assert_eq!(t.rows.len(), 4 * ex::no_segue_scenarios().len());
    for q in ["Q5", "Q16", "Q94", "Q95"] {
        assert!(t.rows.iter().any(|r| r[0] == q), "{q} missing");
    }
}

#[test]
fn fig6_quick_covers_all_eight_scenarios() {
    let t = &tables("fig6")[0];
    assert_eq!(t.rows.len(), 8);
    assert!(t.rows.iter().any(|r| r[1].contains("Segue")));
}

#[test]
fn fig7_timelines_show_the_segue() {
    let tls = tables("fig7");
    assert_eq!(tls.len(), 3);
    // A timeline's heading: `== Figure 7 timeline: <label> (finished …s,
    // segue …, <n> stages) ==`.
    let heading = |t: &Table| t.render(false).lines().next().expect("heading").to_string();
    assert!(heading(&tls[0]).contains("segue n/a"), "vanilla run has no segue");
    assert!(heading(&tls[1]).contains("segue n/a"), "plain hybrid has no segue");
    let segue = &tls[2];
    assert!(!heading(segue).contains("segue n/a"), "segue run must mark the segue");
    // Lambda lanes end; VM lanes appear.
    assert!(segue.rows.iter().any(|lane| lane[1] == "lambda"));
    assert!(segue.rows.iter().any(|lane| lane[1] == "vm"));
    // Stage structure matches PageRank's 3·iters+1 stages.
    assert!(heading(&tls[0]).ends_with(", 10 stages) =="), "{}", heading(&tls[0]));
}

#[test]
fn fig8_reports_mean_and_sd_per_scenario() {
    let t = &tables("fig8")[0];
    assert_eq!(t.rows.len(), ex::no_segue_scenarios().len());
    for row in &t.rows {
        assert!(cell(row, 1) > 0.0, "mean");
        assert!(cell(row, 2) >= 0.0, "sd");
        assert!(cell(row, 3) > 0.0, "cost");
    }
}

#[test]
fn fig9_compute_bound_scenarios_cluster_near_baseline() {
    let t = &tables("fig9")[0];
    assert_eq!(t.rows.len(), ex::fig9_scenarios().len());
    // All-Lambda and hybrid must be within 1.5x of Spark R VM (negligible
    // shuffle ⇒ substrate indifference).
    for label_fragment in ["SS 64 La", "SS 4 VM / 60 La"] {
        let row = t
            .rows
            .iter()
            .find(|r| r[1] == label_fragment)
            .unwrap_or_else(|| panic!("{label_fragment} missing"));
        let rel = cell(row, 3);
        assert!(rel < 1.5, "{label_fragment} at {rel}x");
    }
}

#[test]
fn ablation_tables_run_quick() {
    let [stores, thresholds, memory, cloudsort, controller, stream] = tables("ablations") else {
        panic!("six ablation tables")
    };
    assert_eq!(stores.rows.len(), 4);
    assert_eq!(thresholds.rows.len(), 5);
    assert_eq!(memory.rows.len(), 5);
    assert_eq!(cloudsort.rows.len(), 3);
    assert_eq!(controller.rows.len(), 2);
    assert_eq!(stream.rows.len(), 2);
    // SplitServe's stream attainment never trails the VM-only pool's.
    let (vm_att, ss_att) = (cell(&stream.rows[0], 1), cell(&stream.rows[1], 1));
    assert!(ss_att >= vm_att, "bridging must not hurt attainment");
    // Larger memory = faster lambdas (monotone trend allowing small noise).
    let (t768, t3008) = (cell(&memory.rows[0], 1), cell(&memory.rows[4], 1));
    assert!(t3008 < t768, "3008MB ({t3008}) must beat 768MB ({t768})");
}

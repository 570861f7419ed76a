//! `benchmark compare A.json B.json [A2.json B2.json ...]`: judges a change
//! (the B files) against its parent (the A files), pair by pair in the
//! order given — alternate which side ran first when producing them.
//!
//! - An end-to-end metric is `regressed` when the change's median is worse
//!   than the parent's by more than the metric's bound, `unresolved` when
//!   the parent's own run-to-run spread is wider than that bound, and
//!   `improved` only with at least ten pairs of which the change wins nine
//!   tenths (ties count for neither side) and a median gap wider than the
//!   parent's interquartile range. Everything else is `unchanged`.
//! - Counts and virtual-time results repeat exactly, so they are
//!   `identical` or they `differ`; for a change that only makes the
//!   simulator faster every one of them must be identical.
//! - Per-layer timings have no bound; their medians are shown as `info`.
//!
//! Exits non-zero if anything regressed or differs.

use std::fmt;

use crate::json::{self, Json};
use crate::metrics::{Better, Spec, END_TO_END, FAILED_FRAC, PER_LAYER};
use crate::stats::{median, quartiles};
use crate::Fail;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
    Identical,
    Differs,
    Info,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::Identical => "identical",
            Verdict::Differs => "differs",
            Verdict::Info => "info",
        })
    }
}

/// How much worse `b` is than `a` as a share of `a`; negative when better.
fn worse_by(better: Better, a: f64, b: f64) -> f64 {
    let change = if a == 0.0 { 0.0 } else { (b - a) / a.abs() };
    match better {
        Better::Lower => change,
        Better::Higher => -change,
    }
}

/// Judges a bounded, noisy metric from paired runs. With a single pair the
/// parent has no run-to-run spread to show, so `within_run_spread` (the
/// iteration IQR of its one run, as a share of the median) stands in.
pub fn judge_timing(spec: &Spec, a: &[f64], b: &[f64], within_run_spread: f64) -> Verdict {
    let (med_a, med_b) = (median(a), median(b));
    let (q1, q3) = quartiles(a);
    let iqr_a = if a.len() >= 2 {
        q3 - q1
    } else {
        within_run_spread * med_a
    };
    if iqr_a > spec.bound * med_a.abs() {
        return Verdict::Unresolved;
    }
    if worse_by(spec.better, med_a, med_b) > spec.bound {
        return Verdict::Regressed;
    }
    let wins = a
        .iter()
        .zip(b)
        .filter(|(x, y)| worse_by(spec.better, **x, **y) < 0.0)
        .count();
    let pairs = a.len().min(b.len());
    if pairs >= 10 && wins * 10 >= pairs * 9 && (med_a - med_b).abs() > iqr_a {
        return Verdict::Improved;
    }
    Verdict::Unchanged
}

fn judge_exact(a: &[f64], b: &[f64]) -> Verdict {
    if a.iter().chain(b).all(|x| *x == a[0]) {
        Verdict::Identical
    } else {
        Verdict::Differs
    }
}

/// One metric's value in every file of one side, if all of them have it.
fn values(files: &[Json], workload: &str, pass: &str, metric: &str) -> Option<Vec<f64>> {
    files
        .iter()
        .map(|f| {
            f.get("workloads")?
                .get(workload)?
                .get(pass)?
                .get("metrics")?
                .get(metric)?
                .get("value")?
                .as_f64()
        })
        .collect()
}

pub fn run(paths: &[String]) -> Result<bool, Fail> {
    if paths.len() < 2 || !paths.len().is_multiple_of(2) {
        return Err(Fail(
            "compare needs pairs of result files: A.json B.json [A2.json B2.json ...]".into(),
        ));
    }
    let load = |path: &String| -> Result<Json, Fail> {
        let text =
            std::fs::read_to_string(path).map_err(|e| Fail(format!("cannot read {path}: {e}")))?;
        json::parse(&text).map_err(|e| Fail(format!("{path} is not a results file: {e}")))
    };
    let parent: Vec<Json> = paths
        .iter()
        .step_by(2)
        .map(load)
        .collect::<Result<_, _>>()?;
    let change: Vec<Json> = paths
        .iter()
        .skip(1)
        .step_by(2)
        .map(load)
        .collect::<Result<_, _>>()?;
    for key in ["seed", "seconds", "quick"] {
        let first = parent[0].get(key);
        if parent.iter().chain(&change).any(|f| f.get(key) != first) {
            return Err(Fail(format!(
                "the result files were not measured with the same {key}"
            )));
        }
    }
    let hosts: Vec<_> = parent
        .iter()
        .chain(&change)
        .map(|f| f.get("host").map(|h| (h.get("nproc"), h.get("cpu"))))
        .collect();
    if hosts.iter().any(|h| *h != hosts[0]) {
        eprintln!("benchmark: warning: the result files come from different hosts; timings do not compare");
    }

    let workloads = parent[0]
        .get("workloads")
        .and_then(Json::as_obj)
        .ok_or_else(|| Fail(format!("{} holds no workloads", paths[0])))?;
    let mut ok = true;
    for workload in workloads.keys() {
        let mut row = |pass: &str, spec: &Spec, judge: &dyn Fn(&[f64], &[f64]) -> Verdict| {
            let (Some(a), Some(b)) = (
                values(&parent, workload, pass, spec.name),
                values(&change, workload, pass, spec.name),
            ) else {
                return;
            };
            let verdict = judge(&a, &b);
            ok &= !matches!(verdict, Verdict::Regressed | Verdict::Differs);
            let (med_a, med_b) = (median(&a), median(&b));
            println!(
                "{verdict:<10} {workload} {} {med_a} -> {med_b} {} ({:+.2}%)",
                spec.name,
                spec.unit,
                100.0
                    * if med_a == 0.0 {
                        0.0
                    } else {
                        (med_b - med_a) / med_a.abs()
                    },
            );
        };
        let iteration_spread =
            values(&parent, workload, "timed", "run.wall_iqr_frac").map_or(0.0, |v| v[0]);
        for spec in END_TO_END {
            // Only the two metrics made of iteration times can borrow the
            // spread of the iterations.
            let within_run = if matches!(spec.name, "wall_s" | "throughput") {
                iteration_spread
            } else {
                0.0
            };
            row("timed", spec, &|a, b| judge_timing(spec, a, b, within_run));
        }
        row("timed", &FAILED_FRAC, &judge_exact);
        for spec in PER_LAYER.iter().filter(|s| s.name.starts_with("model.")) {
            row("timed", spec, &judge_exact);
        }
        for spec in PER_LAYER {
            if spec.exact {
                row("traced", spec, &judge_exact);
            } else {
                row("traced", spec, &|_, _| Verdict::Info);
            }
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    // Specs of the tests' own, so retuning a production bound does not
    // move the cases below.
    const WALL: Spec = Spec {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.10,
        exact: false,
    };
    const THROUGHPUT: Spec = Spec {
        better: Better::Higher,
        ..WALL
    };

    fn around(center: f64, step: f64, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| center + step * (i as f64 - (n - 1) as f64 / 2.0))
            .collect()
    }

    #[test]
    fn a_gain_needs_ten_pairs_nine_wins_and_a_gap_beyond_the_spread() {
        let a = around(1.00, 0.002, 10);
        let faster = around(0.90, 0.002, 10);
        assert_eq!(judge_timing(&WALL, &a, &faster, 0.0), Verdict::Improved);
        // Nine pairs are not enough, however clear.
        assert_eq!(
            judge_timing(&WALL, &a[..9], &faster[..9], 0.0),
            Verdict::Unchanged
        );
        // Two losses in ten.
        let mut mixed = faster.clone();
        mixed[0] = 1.05;
        mixed[1] = 1.05;
        assert_eq!(judge_timing(&WALL, &a, &mixed, 0.0), Verdict::Unchanged);
        // Wins every pair, but by less than the parent's own quartile gap.
        let noisy = around(1.00, 0.01, 10);
        let barely: Vec<f64> = noisy.iter().map(|x| x - 0.001).collect();
        assert_eq!(
            judge_timing(&WALL, &noisy, &barely, 0.0),
            Verdict::Unchanged
        );
    }

    #[test]
    fn worse_beyond_the_bound_is_a_regression_in_either_direction() {
        let a = around(1.00, 0.002, 10);
        assert_eq!(
            judge_timing(&WALL, &a, &around(1.12, 0.002, 10), 0.0),
            Verdict::Regressed
        );
        assert_eq!(
            judge_timing(&WALL, &a, &around(1.08, 0.002, 10), 0.0),
            Verdict::Unchanged
        );
        assert_eq!(
            judge_timing(&THROUGHPUT, &a, &around(0.88, 0.002, 10), 0.0),
            Verdict::Regressed
        );
        assert_eq!(
            judge_timing(&THROUGHPUT, &a, &around(1.12, 0.002, 10), 0.0),
            Verdict::Improved
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_resolves_nothing() {
        let a = around(1.00, 0.03, 10); // IQR 0.165 of a median of 1
        assert_eq!(
            judge_timing(&WALL, &a, &around(1.50, 0.03, 10), 0.0),
            Verdict::Unresolved
        );
        // A single pair borrows the spread of the parent's iterations.
        assert_eq!(
            judge_timing(&WALL, &[1.0], &[1.5], 0.2),
            Verdict::Unresolved
        );
        assert_eq!(
            judge_timing(&WALL, &[1.0], &[1.5], 0.01),
            Verdict::Regressed
        );
        assert_eq!(
            judge_timing(&WALL, &[1.0], &[0.5], 0.01),
            Verdict::Unchanged
        );
    }

    #[test]
    fn counts_and_model_results_are_identical_or_differ() {
        assert_eq!(judge_exact(&[3.0, 3.0], &[3.0, 3.0]), Verdict::Identical);
        assert_eq!(judge_exact(&[3.0, 3.0], &[3.0, 4.0]), Verdict::Differs);
    }
}

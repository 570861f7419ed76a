//! The whole ledger in one go: every workload in a process of its own,
//! timed pass then traced pass, collected into one results file with a
//! fingerprint of the host.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, Stdio};

use crate::json::{self, Json};
use crate::{metrics, workload, Fail};

pub struct Config {
    pub quick: bool,
    pub seed: u64,
    pub seconds: f64,
    /// Only this workload; all four when `None`.
    pub workload: Option<String>,
    pub build_s: f64,
    pub out: PathBuf,
}

/// Runs the suite, prints every metric line, writes the results file.
/// Returns whether every check of every pass held.
pub fn run(cfg: &Config) -> Result<bool, Fail> {
    let names: Vec<&str> = match &cfg.workload {
        None => workload::NAMES.to_vec(),
        Some(w) => vec![workload::NAMES
            .into_iter()
            .find(|n| n == w)
            .ok_or_else(|| {
                Fail(format!(
                    "unknown workload {w:?}; expected one of {:?}",
                    workload::NAMES
                ))
            })?],
    };
    let out_dir = cfg.out.parent().map(PathBuf::from).unwrap_or_default();
    std::fs::create_dir_all(&out_dir)
        .map_err(|e| Fail(format!("cannot create {}: {e}", out_dir.display())))?;

    let mut ok = true;
    let mut workloads = BTreeMap::new();
    for name in names {
        let mut passes = BTreeMap::new();
        for (pass, traced) in [("timed", false), ("traced", true)] {
            let result = run_pass(cfg, name, traced, &out_dir)?;
            ok &= result.get("correct") == Some(&Json::Bool(true));
            passes.insert(pass.to_string(), result);
        }
        // The simulator must not care whether the benchmark was watching.
        let digest = |pass: &str| {
            passes[pass]
                .get("metrics")?
                .get("model.digest")?
                .get("value")?
                .as_f64()
        };
        if digest("timed") != digest("traced") {
            eprintln!(
                "benchmark: {name}: model.digest differs between the timed and the traced pass"
            );
            ok = false;
        }
        workloads.insert(name.to_string(), Json::Obj(passes));
    }

    let results = Json::obj([
        ("host", host_fingerprint()),
        ("seed", Json::Num(cfg.seed as f64)),
        ("seconds", Json::Num(cfg.seconds)),
        ("quick", Json::Bool(cfg.quick)),
        ("workloads", Json::Obj(workloads)),
    ]);
    std::fs::write(&cfg.out, results.render() + "\n")
        .map_err(|e| Fail(format!("cannot write {}: {e}", cfg.out.display())))?;
    eprintln!("benchmark: wrote {}", cfg.out.display());
    Ok(ok)
}

/// One pass of one workload in a child process. Its metric lines are passed
/// through and collected; its last line is the contract's result object.
fn run_pass(
    cfg: &Config,
    name: &str,
    traced: bool,
    out_dir: &std::path::Path,
) -> Result<Json, Fail> {
    let exe =
        std::env::current_exe().map_err(|e| Fail(format!("cannot find my own executable: {e}")))?;
    let mut child = Command::new(exe);
    child
        .args(["run", "--workload", name])
        .args(["--seed", &cfg.seed.to_string()])
        .args(["--seconds", &cfg.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .args(["--build-s", &cfg.build_s.to_string()])
        .arg("--out-dir")
        .arg(out_dir)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if cfg.quick {
        child.arg("--quick");
    }
    // `output` waits for the child to end.
    let output = child
        .output()
        .map_err(|e| Fail(format!("cannot start the {name} pass: {e}")))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or_default();
    let mut result = json::parse(last).map_err(|e| {
        Fail(format!(
            "the {name} pass ({}) printed no result: {e}",
            output.status
        ))
    })?;

    // The result line carries only the metrics the contract asks of the
    // pass; the metric lines carry everything the pass measured.
    let mut all = BTreeMap::new();
    for line in lines {
        println!("{line}");
        let fields: Vec<&str> = line.split(' ').collect();
        if let [workload, metric, value, unit] = fields[..] {
            let (Some(spec), Ok(value)) = (metrics::find(metric), value.parse::<f64>()) else {
                continue;
            };
            if workload == name && spec.unit == unit {
                all.insert(
                    metric.to_string(),
                    Json::obj([
                        ("value", Json::Num(value)),
                        ("unit", Json::Str(unit.into())),
                    ]),
                );
            }
        }
    }
    if let Json::Obj(fields) = &mut result {
        fields.insert("metrics".into(), Json::Obj(all));
    }
    Ok(result)
}

/// What the numbers were measured on: they compare across commits only on
/// the same host class.
fn host_fingerprint() -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    Json::obj([
        ("nproc", Json::Num(nproc as f64)),
        ("cpu", Json::Str(cpu)),
        ("rustc", Json::Str(first_line_of("rustc", &["-V"]))),
        (
            "commit",
            Json::Str(first_line_of("git", &["rev-parse", "HEAD"])),
        ),
    ])
}

/// First line a helper program prints, or "unknown" — a bare checkout has
/// no git history, and that must not fail the suite.
fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

//! The perf ledger's one binary; `benchmark/run.sh` builds and calls it.
//! See `benchmark/README.md`.
//!
//! ```text
//! benchmark run --workload W --seed N --seconds S --trace 0|1 [--quick] [--build-s X] [--out-dir DIR]
//! benchmark suite [--quick] [--seed N] [--seconds S] [--workload W] [--build-s X] [--out FILE]
//! benchmark compare A.json B.json [A2.json B2.json ...]
//! ```

mod alloc;
mod compare;
mod host;
mod json;
mod metrics;
mod probes;
mod run;
mod stats;
mod store;
mod suite;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Why the benchmark could not produce a result; printed to stderr, exit 2.
#[derive(Debug)]
pub struct Fail(pub String);

/// `--name value` pairs and bare flags after the subcommand.
struct Args(Vec<String>);

impl Args {
    fn flag(&mut self, name: &str) -> bool {
        let at = self.0.iter().position(|a| a == name);
        at.map(|i| self.0.remove(i)).is_some()
    }

    fn value<T: std::str::FromStr>(&mut self, name: &str) -> Result<Option<T>, Fail> {
        let Some(i) = self.0.iter().position(|a| a == name) else {
            return Ok(None);
        };
        if i + 1 >= self.0.len() {
            return Err(Fail(format!("{name} needs a value")));
        }
        let raw = self.0.remove(i + 1);
        self.0.remove(i);
        raw.parse()
            .map(Some)
            .map_err(|_| Fail(format!("{name}: cannot read {raw:?}")))
    }

    fn done(self) -> Result<Vec<String>, Fail> {
        match self.0.iter().find(|a| a.starts_with("--")) {
            Some(unknown) => Err(Fail(format!("unknown option {unknown}"))),
            None => Ok(self.0),
        }
    }
}

/// Seconds each pass measures when the caller does not say; equal to
/// `run_seconds` in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 15.0;
const DEFAULT_SEED: u64 = 11;

/// Runs the command; `Ok(false)` means it ran but a check failed.
fn dispatch() -> Result<bool, Fail> {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().unwrap_or_default();
    let mut args = Args(argv.collect());
    Ok(match command.as_str() {
        "run" => {
            let cfg = run::Config {
                workload: args
                    .value("--workload")?
                    .ok_or(Fail("run needs --workload".into()))?,
                seed: args.value("--seed")?.unwrap_or(DEFAULT_SEED),
                seconds: seconds(&mut args)?,
                traced: match args.value::<u8>("--trace")? {
                    None | Some(0) => false,
                    Some(1) => true,
                    Some(other) => return Err(Fail(format!("--trace is 0 or 1, not {other}"))),
                },
                quick: args.flag("--quick"),
                build_s: args.value("--build-s")?.unwrap_or(0.0),
                out_dir: args
                    .value("--out-dir")?
                    .unwrap_or(PathBuf::from("benchmark/out")),
            };
            args.done()?;
            run::run(&cfg)?
        }
        "suite" => {
            let cfg = suite::Config {
                quick: args.flag("--quick"),
                seed: args.value("--seed")?.unwrap_or(DEFAULT_SEED),
                seconds: seconds(&mut args)?,
                workload: args.value("--workload")?,
                build_s: args.value("--build-s")?.unwrap_or(0.0),
                out: args
                    .value("--out")?
                    .unwrap_or(PathBuf::from("benchmark/out/results.json")),
            };
            args.done()?;
            suite::run(&cfg)?
        }
        "compare" => compare::run(&args.done()?)?,
        other => {
            return Err(Fail(format!(
                "unknown command {other:?}; expected run, suite or compare"
            )))
        }
    })
}

fn seconds(args: &mut Args) -> Result<f64, Fail> {
    let s: f64 = args.value("--seconds")?.unwrap_or(DEFAULT_SECONDS);
    if s.is_finite() && s >= 0.0 {
        Ok(s)
    } else {
        Err(Fail(format!(
            "--seconds must be a non-negative number, not {s}"
        )))
    }
}

fn main() -> ExitCode {
    match dispatch() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(Fail(why)) => {
            eprintln!("benchmark: {why}");
            ExitCode::from(2)
        }
    }
}

//! The experiment binary's command line, as a library: [`parse`] turns
//! argv into a checked [`Cli`], [`run`] writes the selected experiments.
//! `reproduce_all`'s `main` is these two calls; the tests call them too.

use std::io::Write;

use crate::experiments::{Fidelity, EXPERIMENTS};

/// A checked `reproduce_all` invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cli {
    /// `--quick` selects [`Fidelity::Quick`]; the default is the full
    /// paper pass.
    pub fidelity: Fidelity,
    /// `--csv`: tables as CSV instead of aligned text.
    pub csv: bool,
    /// `--seed N` (default 42).
    pub seed: u64,
    /// `--only KEY`: one slice of [`EXPERIMENTS`]; `None` runs them all.
    pub only: Option<&'static str>,
}

/// Parses the arguments after the program name. Anything it cannot
/// account for — an unknown flag, an unknown `--only` key, a missing or
/// non-numeric seed — is an `Err` holding the one usage line to print.
pub fn parse(args: &[String]) -> Result<Cli, String> {
    parse_flags(args).map_err(|problem| {
        let keys: Vec<&str> = EXPERIMENTS.iter().map(|(key, _)| *key).collect();
        format!(
            "reproduce_all: {problem}; usage: reproduce_all [--quick] [--csv] [--seed N] \
             [--only {}]",
            keys.join("|")
        )
    })
}

fn parse_flags(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        fidelity: Fidelity::Paper,
        csv: false,
        seed: 42,
        only: None,
    };
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--quick" => cli.fidelity = Fidelity::Quick,
            "--csv" => cli.csv = true,
            "--seed" => {
                let v = value()?;
                cli.seed = v.parse().map_err(|e| format!("--seed {v:?}: {e}"))?;
            }
            "--only" => {
                let v = value()?;
                let (key, _) = EXPERIMENTS
                    .iter()
                    .find(|(key, _)| key == v)
                    .ok_or_else(|| format!("--only {v:?}: no such experiment"))?;
                cli.only = Some(key);
            }
            _ => return Err(format!("unknown argument {arg:?}")),
        }
    }
    Ok(cli)
}

/// Runs the experiments `cli` selects, in table order, writing each
/// table's block to `out` and a `[key]` progress line to stderr.
pub fn run(cli: &Cli, out: &mut impl Write) -> std::io::Result<()> {
    for (key, experiment) in EXPERIMENTS {
        if cli.only.is_some_and(|only| only != *key) {
            continue;
        }
        eprintln!("[{key}]");
        for table in experiment(cli.fidelity, cli.seed) {
            out.write_all(table.render(cli.csv).as_bytes())?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use splitserve_rt::check;

    fn parse_strs(args: &[&str]) -> Result<Cli, String> {
        parse(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn defaults_and_every_flag() {
        let default = parse_strs(&[]).expect("no arguments");
        assert_eq!(
            default,
            Cli {
                fidelity: Fidelity::Paper,
                csv: false,
                seed: 42,
                only: None
            }
        );
        let all = parse_strs(&["--only", "fig6", "--seed", "7", "--csv", "--quick"]).expect("all");
        assert_eq!(
            all,
            Cli {
                fidelity: Fidelity::Quick,
                csv: true,
                seed: 7,
                only: Some("fig6")
            }
        );
    }

    #[test]
    fn what_it_cannot_account_for_is_one_usage_line() {
        for (bad, names) in [
            (&["--quik"][..], "\"--quik\""),
            (&["--seed", "abc"], "\"abc\""),
            (&["--seed", "-1"], "\"-1\""),
            (&["--seed"], "--seed needs a value"),
            (&["--quick", "--only"], "--only needs a value"),
            (&["--only", "fig99"], "\"fig99\""),
            (&["--only", "--quick"], "\"--quick\""),
            (&["fig6"], "\"fig6\""),
            (&["--seed", "7", "8"], "\"8\""),
        ] {
            let err = parse_strs(bad).expect_err(&bad.join(" "));
            assert!(err.contains(names), "{bad:?}: {err}");
            assert!(
                err.starts_with("reproduce_all: ")
                    && err.contains("usage: ")
                    && !err.contains('\n'),
                "{bad:?}: {err}"
            );
        }
    }

    #[test]
    fn any_argv_parses_or_is_rejected_never_panics() {
        const WORDS: [&str; 9] = [
            "--quick",
            "--csv",
            "--seed",
            "--only",
            "fig6",
            "ablations",
            "42",
            "-7",
            "--",
        ];
        check::run("bench_cli_any_argv", 512, |g| {
            let args = g.vec(0, 6, |g| {
                if g.bool() {
                    WORDS[g.usize_in(0, WORDS.len())].to_string()
                } else {
                    g.string(0, 8)
                }
            });
            if let Ok(cli) = parse(&args) {
                assert!(cli
                    .only
                    .is_none_or(|k| EXPERIMENTS.iter().any(|(key, _)| *key == k)));
            }
        });
    }
}

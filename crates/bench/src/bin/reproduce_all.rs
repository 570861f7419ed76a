//! Regenerates every figure's tables in order, or one with `--only KEY` —
//! the one artifact-regeneration entry point. `--quick` is the
//! reduced-fidelity pass; a command line it cannot account for exits 2.

use splitserve_bench::cli;

fn main() -> std::io::Result<()> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = cli::parse(&args).unwrap_or_else(|usage| {
        eprintln!("{usage}");
        std::process::exit(2)
    });
    cli::run(&cli, &mut std::io::stdout().lock())
}

#!/usr/bin/env bash
# The full gate, offline, from anywhere. Every pin, determinism check and
# paper-shape assertion is a Rust test (tests/artifact_pins.rs and the
# crates' own suites); host time is measured by benchmark/ alone.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> cargo build --release --offline"
cargo build --release --offline

echo "==> cargo test -q --offline --workspace"
cargo test -q --offline --workspace

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> rustdoc: no broken or private intra-doc link"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

echo "==> perf ledger: harness tests + smoke run (benchmark/run.sh --quick)"
# benchmark/ is a workspace of its own that calls the public surface listed
# in benchmark/README.md; a change that breaks it must fail here.
bash benchmark/run.sh --quick >/dev/null

echo "==> paper tables: reproduce_all must match results_paper.txt (~95 s)"
cargo run --release --offline -q -p splitserve-bench --bin reproduce_all |
    diff - results_paper.txt
rc=0; target/release/reproduce_all --only nope 2>/dev/null || rc=$?
[ "$rc" -eq 2 ] # a command line the bench CLI cannot account for is a usage error

echo "==> verify.sh passed"

echo "==> non-test lines per crate (scripts/loc.sh; informational)"
bash scripts/loc.sh

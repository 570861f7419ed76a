#!/usr/bin/env bash
# The full gate, offline, from anywhere. Every pin, determinism check and
# paper-shape assertion is a Rust test (tests/artifact_pins.rs and the
# crates' own suites); host time is measured by benchmark/ alone.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> cargo fmt --all --check (the root workspace; benchmark/ is its own)"
cargo fmt --all --check

echo "==> cargo build --release --offline"
cargo build --release --offline

echo "==> cargo test -q --offline --workspace"
cargo test -q --offline --workspace

echo "==> artifact and quick-pass pins under the release profile"
# Tier-1 runs the pins in the dev profile; reproduce_all ships optimized.
# rustc 1.95 at opt-level 3 once miscompiled the map-output tracker's loss
# count, which only a release run of the chaos matrix showed.
cargo test --release -q --offline --test artifact_pins --test experiment_harness

echo "==> the engine's own suites under the release profile"
# That miscompile sat in the engine; its unit and integration tests run
# optimized too.
cargo test --release -q --offline -p splitserve-engine

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

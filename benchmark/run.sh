#!/usr/bin/env bash
# The perf ledger's one command. See benchmark/README.md.
#
#   benchmark/run.sh [--quick] [--seed N] [--seconds S] [--workload W] [--out FILE]
#       Builds, then runs every workload in its own process, timed pass then
#       traced pass; prints `<workload> <metric> <value> <unit>` lines and
#       writes benchmark/out/results.json and one trace per workload.
#       --quick is a smoke run of about a minute that also runs the harness
#       tests; its numbers are not comparable with a full run's.
#   benchmark/run.sh --selfcheck [--quick] [--seed N] [--seconds S] [--workload W]
#       Runs the suite twice on the same build and compares the two: nothing
#       may come out improved, regressed or differing.
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       One pass of one workload, as the benchmark driver calls it: the last
#       line of standard output is the result object of BENCHMARK.json's
#       contract.
#
# Exits non-zero if the build, an output check or a comparison fails.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
bin="${CARGO_TARGET_DIR:-$here/target}/release/benchmark"

selfcheck=0 quick=0 single=0 out_given=0 args=()
for arg in "$@"; do
    case "$arg" in
        --selfcheck) selfcheck=1 ;;
        --quick) quick=1; args+=("$arg") ;;
        --trace) single=1; args+=("$arg") ;;
        --out) out_given=1; args+=("$arg") ;;
        *) args+=("$arg") ;;
    esac
done

# Cargo reports on standard error, so a pass's result stays the last line
# of standard output.
build_start=$(date +%s.%N)
cargo build --release --offline --manifest-path "$here/Cargo.toml" >&2
build_s=$(echo "$(date +%s.%N) $build_start" | awk '{ printf "%.3f", $1 - $2 }')

if [ "$single" = 1 ]; then
    exec "$bin" run --build-s "$build_s" --out-dir "$here/out" "${args[@]}"
fi

if [ "$quick" = 1 ]; then
    cargo test --release --offline --manifest-path "$here/Cargo.toml" >&2
fi

if [ "$selfcheck" = 1 ]; then
    "$bin" suite --build-s "$build_s" --out "$here/out/selfcheck_a.json" "${args[@]}"
    "$bin" suite --build-s "$build_s" --out "$here/out/selfcheck_b.json" "${args[@]}"
    exec "$bin" compare "$here/out/selfcheck_a.json" "$here/out/selfcheck_b.json"
fi

[ "$out_given" = 1 ] || args+=(--out "$here/out/results.json")
exec "$bin" suite --build-s "$build_s" "${args[@]}"

#!/usr/bin/env bash
# Paired perf-ledger runs of this checkout against a parent revision.
#
#   scripts/pairs.sh <parent-rev> [--pairs N] [--seed S] [--seconds S] [--workload W]
#
# Clones <parent-rev> of this repository into a temporary directory and
# builds both `benchmark` binaries, each with its own CARGO_TARGET_DIR: the
# parent's from the clone, the change's from this working tree (uncommitted
# edits included). The two binaries are copied to paths of equal length,
# since peak RSS depends on how a binary is invoked. Then `benchmark suite
# --out` runs N times on each side (default 10), alternating which side runs
# first, and the script ends with `benchmark compare A1 B1 A2 B2 …` (A the
# parent, B the change), whose verdicts it prints and whose exit status it
# returns. Defaults for --seed and --seconds are the benchmark's own.
#
# The results stay in the printed work directory (a/N.json, b/N.json); the
# clone and both build directories are removed on exit. Nothing under
# benchmark/ is touched.
set -euo pipefail

usage() {
    echo "usage: scripts/pairs.sh <parent-rev> [--pairs N] [--seed S] [--seconds S]" \
        "[--workload W]" >&2
    exit 2
}

[ $# -ge 1 ] || usage
rev="$1"
shift
pairs=10 suite_args=()
while [ $# -gt 0 ]; do
    case "$1" in
        --pairs) [ $# -ge 2 ] || usage; pairs="$2"; shift 2 ;;
        --seed | --seconds | --workload) [ $# -ge 2 ] || usage; suite_args+=("$1" "$2"); shift 2 ;;
        *) usage ;;
    esac
done
[[ "$pairs" =~ ^[1-9][0-9]*$ ]] || usage

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
commit="$(git -C "$root" rev-parse --verify --quiet "$rev^{commit}")" || {
    echo "pairs.sh: $rev is not a commit of $root" >&2
    exit 2
}
work="$(mktemp -d "${TMPDIR:-/tmp}/pairs.XXXXXX")"
trap 'rm -rf "$work/parent" "$work/target_a" "$work/target_b"' EXIT

echo "pairs.sh: parent $commit, work directory $work" >&2
git clone --quiet --no-checkout "$root" "$work/parent"
git -C "$work/parent" checkout --quiet "$commit"

build() { # <source root> <target dir> <binary dir>
    CARGO_TARGET_DIR="$2" cargo build --release --offline --quiet \
        --manifest-path "$1/benchmark/Cargo.toml"
    mkdir -p "$3"
    cp "$2/release/benchmark" "$3/benchmark"
}
build "$work/parent" "$work/target_a" "$work/bin_a"
build "$root" "$work/target_b" "$work/bin_b"

run() { # <side> <pair>
    "$work/bin_$1/benchmark" suite --build-s 0 "${suite_args[@]}" \
        --out "$work/$1/$2.json" >/dev/null
}
files=()
for i in $(seq 1 "$pairs"); do
    echo "pairs.sh: pair $i of $pairs" >&2
    if [ $((i % 2)) -eq 1 ]; then
        run a "$i"
        run b "$i"
    else
        run b "$i"
        run a "$i"
    fi
    files+=("$work/a/$i.json" "$work/b/$i.json")
done

"$work/bin_a/benchmark" compare "${files[@]}"

#!/usr/bin/env bash
# The one counter for "non-test lines": per crate and in total, the lines
# of crates/*/src/**/*.rs before each file's first `#[cfg(test)]`.
# PR descriptions and ROADMAP's "Recent" entries quote parent / change
# from this script. Run from anywhere; takes an optional repo root.
set -euo pipefail

cd "${1:-$(dirname "$0")/..}"

total=0
for crate in crates/*/; do
    n=$(find "$crate/src" -name '*.rs' -print0 | sort -z |
        xargs -0 awk 'FNR == 1 { test = 0 } /#\[cfg\(test\)\]/ { test = 1 } !test { n++ } END { print n + 0 }')
    printf '%-12s %6d\n' "$(basename "$crate")" "$n"
    total=$((total + n))
done
printf '%-12s %6d\n' total "$total"

#!/usr/bin/env bash
# The one counter for "non-test lines" and the public surface: per crate,
# for the root package's `src/` and `examples/`, and in total, the lines of
# their `.rs` files before each file's first `#[cfg(test)]`, and the
# `pub fn` lines among them.
# PR descriptions and ROADMAP's "Recent" entries quote parent / change
# from this script. Run from anywhere; takes an optional repo root.
set -euo pipefail

cd "${1:-$(dirname "$0")/..}"

total=0
total_pub=0
printf '%-12s %6s %7s\n' crate lines 'pub fn'
for dir in crates/*/src src examples; do
    read -r n p < <(find "$dir" -name '*.rs' -print0 | sort -z |
        xargs -0 awk 'FNR == 1 { test = 0 } /#\[cfg\(test\)\]/ { test = 1 }
            !test { n++; if (/pub fn /) p++ } END { print n + 0, p + 0 }')
    name=${dir%/src}
    printf '%-12s %6d %7d\n' "${name#crates/}" "$n" "$p"
    total=$((total + n))
    total_pub=$((total_pub + p))
done
printf '%-12s %6d %7d\n' total "$total" "$total_pub"

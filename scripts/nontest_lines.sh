#!/bin/sh
# Count the workspace's non-test source lines: every `.rs` line before the
# file's first line starting with `#[cfg(test)]`, plus every `Cargo.toml`
# line. Integration tests, benches, examples, the benchmark package and
# build output (`target/`, the benchmark's `.bench_*` directories) are
# skipped.
#
# Usage: scripts/nontest_lines.sh [root]   (default: the repository root)
set -eu
root=${1:-$(dirname "$0")/..}
cd "$root"
find . \( -name target -o -name .git -o -name tests -o -name benches \
    -o -name examples -o -name skinner_benchmark -o -name '.bench_*' \) -prune \
    -o -type f \( -name '*.rs' -o -name Cargo.toml \) -print |
    sort |
    while read -r f; do
        case "$f" in
        *.rs) awk '/^#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$f" ;;
        *) wc -l <"$f" ;;
        esac
    done |
    awk '{ total += $1 } END { print total + 0 }'

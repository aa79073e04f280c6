#!/bin/sh
# Check the JSON artifacts of the bench subset CI runs: each experiment's
# `BENCH_<name>.json` must exist, and every `*.json` in the directory must
# parse. Prints one line per file; exits non-zero if any check fails.
#
# Usage: scripts/check_bench_artifacts.sh [dir]   (default: bench_reports)
set -eu
dir=${1:-bench_reports}
status=0
for name in thread_scaling repeat_workload disk_scan server_throughput \
    telemetry_overhead optimizer_bakeoff; do
    if [ ! -f "$dir/BENCH_$name.json" ]; then
        echo "missing JSON artifact: $dir/BENCH_$name.json"
        status=1
    fi
done
for f in "$dir"/*.json; do
    [ -f "$f" ] || continue
    if python3 -m json.tool "$f" >/dev/null; then
        echo "valid JSON: $f"
    else
        echo "malformed JSON: $f"
        status=1
    fi
done
exit $status

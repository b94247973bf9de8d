#!/usr/bin/env bash
# Build the benchmark, run every workload, and (given a previous results
# file) compare against it.
#
#   bench/run.sh [--quick] [--seed N] [--seconds S] [--repeats R] [--baseline OLD.json]
#
# Writes bench/out/results.json and bench/out/<workload>.trace.json.
# Everything but --baseline is passed through to `bench all`.
set -euo pipefail
cd "$(dirname "$0")/.."

baseline=""
args=()
while [ $# -gt 0 ]; do
    case "$1" in
        --baseline)
            baseline="${2:?--baseline needs a results file}"
            shift 2
            ;;
        *)
            args+=("$1")
            shift
            ;;
    esac
done

cargo build --release --offline --manifest-path bench/Cargo.toml
bin="${CARGO_TARGET_DIR:-bench/target}/release/bench"

"$bin" all --out bench/out/results.json ${args[@]+"${args[@]}"}
if [ -n "$baseline" ]; then
    "$bin" compare "$baseline" bench/out/results.json
fi

#!/usr/bin/env bash
# Full CI gate, structured as timed legs. This script is where every CI
# check is defined; `.github/workflows/ci.yml` restores the cargo cache and
# runs it, nothing else.
#
# Each leg is a bash function run through `run_leg`, which prints a
# banner, times the leg with $SECONDS, and records it for the wall-time
# summary at the end — so a slow CI run points at its slow leg instead
# of at a wall of interleaved output.
#
# Trajectory fingerprints are checked by one matrix helper
# (`assert_fp_matrix`) over the full faults × threads × tier cube for
# each engine stage, with memoized fingerprint runs — replacing the
# copy-pasted diff loops that used to each cover one axis and left
# ZO_STAGE=3 diffed across threads only.
set -euo pipefail
cd "$(dirname "$0")/.."

LEG_TIMES=()

run_leg() {
    local name=$1
    shift
    echo
    echo "== $name"
    local t0=$SECONDS
    "$@"
    LEG_TIMES+=("$(printf '%5ds  %s' "$((SECONDS - t0))" "$name")")
}

# Every test binary runs its tests on four threads, whatever the
# runner's core count: a test that races a sibling through process-global
# state (the environment, a shared file) must fail here, not only on the
# first multi-core host it meets.
TEST_THREADS=(-- --test-threads=4)

# ---------------------------------------------------------------- legs

# Prints the lines of the given Rust files that match the awk regex $1,
# leaving out comment lines and everything from a file's `#[cfg(test)]`
# on.
non_test_matches() {
    local pattern=$1
    shift
    awk -v pattern="$pattern" '
        FNR == 1 { in_tests = 0 }
        /#\[cfg\(test\)\]/ { in_tests = 1 }
        !in_tests && $0 !~ /^[[:space:]]*\/\// && $0 ~ pattern {
            printf "%s:%d: %s\n", FILENAME, FNR, $0
        }
    ' "$@"
}

# Fused multiply-add outside test code, in any spelling:
#   - `mul_add(`: on the baseline x86-64 target `f32::mul_add` lowers to
#     a libm `fmaf` call per element and blocks vectorization (it cost
#     GEMM ~40x and CpuAdam ~5x before it was found, twice);
#   - the `fmadd`/`fmsub`/`fnmadd`/`fnmsub` intrinsics, and `fma` inside a
#     `target_feature(enable = ...)`: a fused op rounds once where the
#     mul-then-add the portable kernels run rounds twice, so on a
#     runtime-dispatched SIMD path (the AVX GEMM kernel) it would move
#     bits only on hosts that take the fast path. CI's fingerprint matrix
#     runs only there, and the portable kernels' tests cannot see it.
lint_no_mul_add() {
    local hits files=(crates/*/src/*.rs crates/*/src/bin/*.rs)
    hits=$(
        non_test_matches 'mul_add[(]' "${files[@]}"
        non_test_matches 'f(n)?m(add|sub)' "${files[@]}"
        non_test_matches 'target_feature[(][^)]*enable[^)]*fma' "${files[@]}"
    )
    if [ -n "$hits" ]; then
        echo "FAIL: fused multiply-add in non-test code (write a * b + c, or" \
            "_mm256_mul_ps then _mm256_add_ps, and enable no \"fma\" target feature):" >&2
        echo "$hits" >&2
        return 1
    fi
}

# `.tanh()`, `.exp()`, `.ln()` and `.powf(` in the compute crates'
# non-test code: on the baseline x86-64 target each is a libm call per
# element that also blocks vectorization of its loop (`tanhf` made the
# GELU ≈ 5x slower than the branch-free lanes in `zo_tensor::ops`, which
# are the definitions to call instead). The one allowed site is
# `Init::standard_normal`'s Box–Muller `ln`, which runs once per
# parameter at model construction, never in a step.
lint_no_libm_transcendentals() {
    local hits
    hits=$(non_test_matches '[.](tanh|exp|ln)[(][)]|[.]powf[(]' \
        crates/zo-tensor/src/*.rs crates/zo-nn/src/*.rs crates/zo-optim/src/*.rs |
        grep -Ev '^crates/zo-tensor/src/init[.]rs:[0-9]+: .*u1[.]ln[(][)]' || true)
    if [ -n "$hits" ]; then
        echo "FAIL: libm transcendental in non-test compute code (use zo_tensor::ops::{exp, tanh, ln}):" >&2
        echo "$hits" >&2
        return 1
    fi
}

# Background work is scoped: a detached `thread::spawn` or a
# `thread::Builder` thread outlives the call that started it and needs a
# shutdown, drain and join protocol of its own. Outside the shared worker
# pool (`zo-tensor/src/pool.rs`), every thread in non-test code is a
# `std::thread::scope` thread, joined before its caller returns.
lint_scoped_threads() {
    local hits files
    files=$(ls crates/*/src/*.rs crates/*/src/bin/*.rs | grep -vx 'crates/zo-tensor/src/pool.rs')
    # shellcheck disable=SC2086 # one path per word
    hits=$(non_test_matches 'thread::(spawn[(]|Builder)' $files)
    if [ -n "$hits" ]; then
        echo "FAIL: unscoped thread in non-test code (use std::thread::scope):" >&2
        echo "$hits" >&2
        return 1
    fi
}

leg_lint() {
    cargo fmt --all -- --check
    cargo clippy --workspace --all-targets -- -D warnings
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet
    lint_no_mul_add
    lint_no_libm_transcendentals
    lint_scoped_threads
}

leg_test_debug() {
    echo "   ZO_THREADS=1"
    ZO_THREADS=1 cargo test -q "${TEST_THREADS[@]}"
    echo "   ZO_THREADS=4"
    ZO_THREADS=4 cargo test -q "${TEST_THREADS[@]}"
}

leg_test_release() {
    cargo test --release -q "${TEST_THREADS[@]}"
}

leg_fault_harness() {
    cargo test -q -p zo-fault "${TEST_THREADS[@]}"
    for faults in off transient-heavy; do
        echo "   ZO_FAULTS=$faults"
        ZO_FAULTS=$faults cargo test -q --release --test fault_matrix "${TEST_THREADS[@]}"
    done
}

leg_zero3_harness() {
    for faults in off transient-heavy; do
        echo "   ZO_FAULTS=$faults"
        ZO_FAULTS=$faults cargo test -q --release --test zero3_equivalence --test zero3_traffic \
            "${TEST_THREADS[@]}"
    done
}

leg_tier_harness() {
    for faults in off transient-heavy; do
        echo "   ZO_FAULTS=$faults"
        ZO_FAULTS=$faults cargo test -q --release --test tier_offload "${TEST_THREADS[@]}"
    done
}

leg_multi_job_harness() {
    for faults in off transient-heavy; do
        echo "   ZO_FAULTS=$faults"
        ZO_FAULTS=$faults cargo test -q --release --test multi_job "${TEST_THREADS[@]}"
        ZO_FAULTS=$faults ./target/release/serve --steps 8
    done
}

# Memoized trajectory fingerprint, keyed by the full env combo; the
# result lands in $FP (returning via stdout would put the cache write in
# a command-substitution subshell and lose it). The matrix below
# revisits combos (every axis shares the baseline), so each
# configuration runs exactly once.
declare -A FP_CACHE
FP=""
fp() { # fp FAULTS THREADS STAGE TIER -> $FP
    local key="$1|$2|$3|$4"
    if [ -z "${FP_CACHE[$key]:-}" ]; then
        FP_CACHE[$key]=$(ZO_FAULTS=$1 ZO_THREADS=$2 ZO_STAGE=$3 ZO_TIER=$4 \
            ./target/release/fingerprint | awk '{print $2}')
    fi
    FP=${FP_CACHE[$key]}
}

# Asserts one engine stage's fingerprint is identical across the whole
# ZO_FAULTS × ZO_THREADS × ZO_TIER cube. Stages may differ from each
# other (ZeRO-3 hashes shards in rank order); within a stage, nothing is
# allowed to move a bit.
assert_fp_matrix() { # assert_fp_matrix STAGE
    local stage=$1
    local base
    fp off 1 "$stage" dram
    base=$FP
    for faults in off transient-heavy; do
        for threads in 1 2 4; do
            for tier in dram nvme; do
                fp "$faults" "$threads" "$stage" "$tier"
                printf '   stage=%s faults=%-15s threads=%s tier=%s -> %s\n' \
                    "$stage" "$faults" "$threads" "$tier" "$FP"
                if [ "$FP" != "$base" ]; then
                    echo "FAIL: stage=$stage trajectory moved under" \
                        "ZO_FAULTS=$faults ZO_THREADS=$threads ZO_TIER=$tier" \
                        "(got $FP, baseline $base)" >&2
                    exit 1
                fi
            done
        done
    done
}

leg_fingerprint_matrix() {
    assert_fp_matrix 1
    assert_fp_matrix 2
    assert_fp_matrix 3
    # ZeRO-2 and ZeRO-3 hash the same trajectory: partitioning the
    # parameters moves data, not math.
    local zero2
    fp off 1 2 dram
    zero2=$FP
    fp off 1 3 dram
    if [ "$zero2" != "$FP" ]; then
        echo "FAIL: stage 2 fingerprint $zero2 differs from stage 3's $FP" >&2
        exit 1
    fi
}

# Every committed `results/*.txt` whose bin is deterministic, regenerated
# at the bin's default length and diffed: a change that moves a paper
# figure must commit the moved figure. `table4` stays out: it prints
# measured wall-clock Adam latencies, which differ from run to run.
leg_results_fresh() {
    local bin
    for bin in table1 fig7 fig8 fig9 fig10 fig11 fig12 fig13 stages timeline ablations; do
        echo "   $bin"
        env -u ZO_STEPS "./target/release/$bin" 2>/dev/null | diff -u "results/$bin.txt" -
    done
}

# `bench/` is a workspace of its own that nothing above compiles, so an
# API or behaviour change that stops it building, or trips one of its
# correctness checks (NVMe trajectory == DRAM trajectory, zero failed
# steps, ...), would first be seen by the perf pipeline. This leg runs
# what that pipeline runs: the build, every workload once (--quick),
# bench/'s self-tests (they build a `ServiceReport` by literal, so a new
# public field fails here), and then every workload at full length,
# untraced and traced, as the pipeline runs each. It gates on exit status
# and on the `"correct":true` of each run's last stdout line, never on a
# speed number. A failing run's stdout and stderr stay under `bench/out/`
# (ignored), so the failure can be read after the fact.
#
# `bench/run.sh` builds without `--locked`, so a manifest change anywhere
# in bench/'s dependency closure would silently rewrite the committed
# `bench/Cargo.lock`. The `--locked` build comes first and fails on such a
# change instead; the closing `git diff` fails if anything this leg ran
# left a tracked file under `bench/` (or BENCHMARK.json) modified, so the
# binary run here is built from the same `bench/` as the pipeline's.
leg_bench_smoke() {
    cargo build --release --offline --locked --manifest-path bench/Cargo.toml
    bench/run.sh --quick
    cargo test --release --offline --manifest-path bench/Cargo.toml
    local bin="${CARGO_TARGET_DIR:-bench/target}/release/bench" workload trace log failed=0
    mkdir -p bench/out
    for workload in dense-compute wide-optim wide-nvme serve-mixed; do
        for trace in 0 1; do
            echo "   $workload --seconds 15 --trace $trace"
            log="bench/out/smoke-$workload-trace$trace"
            if "$bin" --workload "$workload" --seed 1 --seconds 15 --trace "$trace" \
                >"$log.stdout" 2>"$log.stderr" &&
                [[ $(tail -n 1 "$log.stdout") == *'"correct":true'* ]]; then
                rm -f "$log.stdout" "$log.stderr"
            else
                echo "FAIL: $workload --trace $trace did not end in \"correct\":true;" \
                    "its output is in $log.stdout and $log.stderr" >&2
                tail -n 20 "$log.stderr" >&2
                failed=1
            fi
        done
    done
    [ "$failed" = 0 ]
    git diff --exit-code -- bench BENCHMARK.json
}

# -------------------------------------------------------------- driver

run_leg "cargo fmt / clippy / doc (warnings are errors)" leg_lint
run_leg "cargo build --release" cargo build --release
run_leg "cargo test (ZO_THREADS=1 and 4)" leg_test_debug
run_leg "cargo test --release" leg_test_release
run_leg "fault harness (unit tests + fault matrix, both presets)" leg_fault_harness
run_leg "zero3 paper-claim harness (both fault presets)" leg_zero3_harness
run_leg "memory-tier harness (both fault presets)" leg_tier_harness
run_leg "multi-job service harness (both fault presets)" leg_multi_job_harness
run_leg "trajectory fingerprint matrix (faults x threads x tier, stages 1, 2 and 3)" leg_fingerprint_matrix
run_leg "committed results/ match their bins" leg_results_fresh
run_leg "benchmark smoke run (--quick, bench self-tests, every workload full-length untraced and traced)" leg_bench_smoke

echo
echo "== leg wall times"
printf '%s\n' "${LEG_TIMES[@]}"
echo "CI green."

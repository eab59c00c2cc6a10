#!/usr/bin/env bash
# Build Release and run the micro-kernel benchmark suite.
#
# Outputs:
#   BENCH_micro.json (current directory) — curated ratios between
#       production paths (machine-readable; binary_load_speedup and
#       cached_preprocess_speedup are the tracked load-path metrics,
#       adaptive_sample_reduction the tracked sample-cost metric). This is
#       the only benchmark artifact kept under version control.
#   $BUILD_DIR/BENCH_micro_gbench.json — full Google-benchmark results.
#       Raw per-host timings, useful while iterating but not tracked: it
#       stays with the other build artifacts and is gitignored.
#
# Usage: tools/run_benchmarks.sh [extra gbench args...]
# Env:   BUILD_DIR (default: build-release)

set -euo pipefail

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${BUILD_DIR:-$REPO_ROOT/build-release}"

cmake -B "$BUILD_DIR" -S "$REPO_ROOT" -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD_DIR" -j"$(nproc)" --target bench_micro_kernels

# Host context next to the numbers: timings are only interpretable against
# the machine they ran on, which the JSON records as hardware_threads.
echo "bench host: $(uname -srm), $(nproc) hardware threads" >&2

"$BUILD_DIR/bench_micro_kernels" \
  --speedup_json=BENCH_micro.json \
  --benchmark_out="$BUILD_DIR/BENCH_micro_gbench.json" \
  --benchmark_out_format=json \
  "$@"

#!/usr/bin/env bash
# End-to-end benchmark: builds the repository's library and worker, then
# the e2e_bench program in bench/e2e; generates a workload's inputs from the seed;
# serves them and prints every metric. The last line on stdout is one JSON
# object {"correct","attempted","failed","metrics"}.
#
#   bash bench/e2e/run.sh [--workload W] [--seed S] [--seconds T]
#                         [--trace [0|1]] [--smoke] [--out DIR]
#
# Without --workload all four workloads run in turn. --smoke runs them at
# about 5% of their counts for 1 s each (a self-check, not a measurement).
# Results files land in build-bench/e2e/results/ (or --out DIR); compare two
# sets with bench/e2e/compare.py. Exit code: 0 correct, 1 an oracle or
# quality check failed, 2 the benchmark could not run.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
cd "$ROOT"

workload="" seed=1 seconds=18 trace=0 smoke=0 out=""
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace)
      if [ $# -gt 1 ] && [[ "$2" =~ ^[01]$ ]]; then trace="$2"; shift 2
      else trace=1; shift; fi ;;
    --smoke) smoke=1; shift ;;
    --out) out="$2"; shift 2 ;;
    *) echo "run.sh: unknown argument: $1" >&2; exit 2 ;;
  esac
done

if [ ! -f CMakeLists.txt ] || [ ! -d src ]; then
  echo "run.sh: $ROOT holds no saphyra sources (CMakeLists.txt, src/)" >&2
  exit 2
fi

BUILD=build-bench
OUT="${out:-$BUILD/e2e/results}"
mkdir -p "$BUILD/e2e" "$BUILD/e2e-cache" "$OUT"
LOG="$BUILD/e2e/build.log"
jobs=$(nproc 2>/dev/null || echo 2)
[ "$jobs" -gt 4 ] && jobs=4

build() {
  # FETCHCONTENT_FULLY_DISCONNECTED: never download GoogleTest just to
  # build the library; the benchmark needs no test targets.
  if [ ! -f "$BUILD/CMakeCache.txt" ]; then
    cmake -S . -B "$BUILD" -DCMAKE_BUILD_TYPE=Release \
      -DFETCHCONTENT_FULLY_DISCONNECTED=ON || return 1
  fi
  cmake --build "$BUILD" --target saphyra_core saphyra_worker -j "$jobs" ||
    return 1
  if [ ! -f "$BUILD/e2e-bench/CMakeCache.txt" ]; then
    cmake -S bench/e2e -B "$BUILD/e2e-bench" -DCMAKE_BUILD_TYPE=Release \
      -DSAPHYRA_ROOT="$ROOT" \
      -DSAPHYRA_CORE_LIB="$ROOT/$BUILD/libsaphyra_core.a" || return 1
  fi
  cmake --build "$BUILD/e2e-bench" -j "$jobs"
}
if ! build > "$LOG" 2>&1; then
  tail -n 30 "$LOG" >&2
  echo "run.sh: build failed (full log: $LOG)" >&2
  exit 2
fi

commit=unknown dirty=unknown
if top=$(git -C "$ROOT" rev-parse --show-toplevel 2>/dev/null) &&
   [ "$top" = "$ROOT" ]; then
  commit=$(git -C "$ROOT" rev-parse HEAD)
  if [ -n "$(git -C "$ROOT" status --porcelain --untracked-files=no)" ]; then
    dirty=1
  else
    dirty=0
  fi
fi

BENCH="$BUILD/e2e-bench/e2e_bench"
smoke_flag=()
if [ "$smoke" = 1 ]; then
  smoke_flag=(--smoke)
  seconds=1
fi

run_one() {
  local w="$1"
  local dir="$BUILD/e2e/$w"
  rm -rf "$dir"
  mkdir -p "$dir"
  "$BENCH" gen --workload "$w" --seed "$seed" --out "$dir" "${smoke_flag[@]}"
  "$BENCH" run --workload "$w" --seed "$seed" --inputs "$dir" \
    --seconds "$seconds" --trace "$trace" --cache "$BUILD/e2e-cache" \
    --results "$OUT/$w-seed$seed-trace$trace-$(date +%Y%m%dT%H%M%S)-$$.json" \
    --spans "$BUILD/e2e/$w.spans.jsonl" \
    --worker-binary "$BUILD/saphyra_worker" \
    --commit "$commit" --dirty "$dirty" "${smoke_flag[@]}"
}

if [ -n "$workload" ]; then
  run_one "$workload"
  exit $?
fi
status=0
for w in serve-mixed rank-social rank-road-sharded serve-mutating; do
  run_one "$w" || { rc=$?; [ "$rc" -gt "$status" ] && status=$rc; }
done
exit "$status"

#!/usr/bin/env bash
# Runs the google-benchmark microbenchmark suite (bench_micro) in JSON mode
# and writes BENCH_micro.json at the repo root: the layer-level record that
# later changes compare against. The record names its host in `context`
# (num_cpus, cpu_features, batch_kernel); compare only runs from like hosts.
# bench/baselines/ holds the one prior baseline (BENCH_micro_prior.json) and
# a table of headline medians from earlier snapshots (README.md there).
#
# Layer groups: the key hash (BM_PairwisePrefixes*,
# BM_PairwiseEvalBatchShort), batch LSH (BM_EvaluateAll*,
# BM_StoreEvaluateAll), sketches (BM_Iblt*, BM_Riblt*), repair matching
# (BM_RepairMatch, BM_Emd*), Gap far detection (BM_GapFarDetection), and
# maintained serving (BM_SyncDatasetInsert, BM_SessionSync*). The standalone bench_server binary sweeps
# maintained-vs-rebuilt serving across churn rates and is run directly
# (./build/bench_server), not through this script.
#
# Usage:
#   bench/run_bench.sh [output.json]
# Environment:
#   BUILD_DIR   build directory (default: build)
#   FILTER      --benchmark_filter regex (default: all benchmarks), e.g.
#               FILTER='Prefixes|RepairMatch' for the two exchange hot loops,
#               or FILTER='EvaluateAll|Prefixes' to compare the batch LSH
#               pipeline against the preserved scalar baselines.
#   MIN_TIME    --benchmark_min_time per benchmark, seconds (default: 0.2)
#   REPS        --benchmark_repetitions; > 1 also reports mean/median/min
#               aggregates (default: 1). Use >= 5 on machines with frequency
#               scaling — single runs there are bimodal; compare medians.
set -euo pipefail

cd "$(dirname "$0")/.." || exit 1

BUILD_DIR=${BUILD_DIR:-build}
OUT=${1:-BENCH_micro.json}
MIN_TIME=${MIN_TIME:-0.2}
REPS=${REPS:-1}

if [ ! -x "$BUILD_DIR/bench_micro" ]; then
  echo "bench_micro not found in $BUILD_DIR; configuring with -DRSR_BUILD_BENCH=ON" >&2
  cmake -B "$BUILD_DIR" -S . -DRSR_BUILD_BENCH=ON
  cmake --build "$BUILD_DIR" -j --target bench_micro 2>/dev/null || {
    echo "bench_micro could not be built (google-benchmark missing?); skipping" >&2
    exit 0
  }
fi

# Array, not an unquoted ${FILTER:+...} expansion: a filter regex containing
# a space (e.g. FILTER='BM_Foo<1, 2>') must stay one argument.
FILTER_FLAGS=()
if [ -n "${FILTER:-}" ]; then
  FILTER_FLAGS=(--benchmark_filter="$FILTER")
fi

"$BUILD_DIR/bench_micro" \
  --benchmark_format=json \
  --benchmark_min_time="$MIN_TIME" \
  --benchmark_repetitions="$REPS" \
  ${FILTER_FLAGS[@]+"${FILTER_FLAGS[@]}"} \
  > "$OUT"

echo "wrote $OUT" >&2

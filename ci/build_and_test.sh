#!/usr/bin/env bash
# CI entry point: tier-1 verify (Release build of the library, tests,
# benches and examples + full CTest run + one run of every example and one
# short pass of bench_micro; -Wall -Wextra are enabled unconditionally by
# CMakeLists.txt, and the strict warning wall
# -Wconversion/-Wsign-conversion/... by the default-ON
# RSR_STRICT_WARNINGS option), the static-analysis wall
# (ci/static_analysis.sh: clang-tidy + the wire-invariant linter +
# shellcheck + scoped clang-format check — see docs/STATIC_ANALYSIS.md),
# followed by a Debug + Address/UB-sanitizer configuration of the same test
# suite, and a RelWithDebInfo + ThreadSanitizer leg over the concurrency
# tests (the SyncServer mutate-while-sync interleaving and the sketch
# layer's reentrant decodes), with the end-to-end benchmark smoke pass after
# the tier-1 leg.
#
# Usage: ci/build_and_test.sh
# Environment:
#   RSR_STATIC_ANALYSIS  unset/auto: run ci/static_analysis.sh after the
#                 tier-1 leg, skipping (loudly) analysis tools the host
#                 lacks. =1: missing tools FAIL the run. =0: skip the
#                 static-analysis wall entirely (the strict warning wall
#                 still applies — it is part of the compile).
#   RSR_BENCH=1   FAIL LOUDLY if google-benchmark is missing (a requested
#                 bench build must never silently skip bench_micro — that
#                 would let a perf PR land with no numbers). The tier-1 leg
#                 always builds bench/*.cc and examples/ (-DRSR_BUILD_BENCH=ON
#                 -DRSR_BUILD_EXAMPLES=ON), so an API change cannot leave
#                 them broken; without RSR_BENCH=1 only bench_micro may be
#                 skipped, and only when google-benchmark is absent.
#   RSR_WERROR=1  (default) configure with -DRSR_WERROR=ON so every warning
#                 is an error; API sweeps cannot leave unused parameters or
#                 dead overload remnants behind. Set RSR_WERROR=0 to relax
#                 (e.g. when bisecting with an older toolchain).
#   RSR_CTEST_TIMEOUT=SECONDS  per-test timeout (default 300). A hung test —
#                 e.g. a sizing loop that never terminates — must FAIL CI,
#                 not wedge it. Applied both as `ctest --timeout` and as the
#                 CMake-side per-test TIMEOUT property (the property wins
#                 over the flag, so both must agree).
set -euo pipefail

cd "$(dirname "$0")/.." || exit 1

BENCH_FLAGS=(-DRSR_BUILD_BENCH=ON -DRSR_BUILD_EXAMPLES=ON)
if [[ "${RSR_BENCH:-0}" == "1" ]]; then
  BENCH_FLAGS+=(-DRSR_REQUIRE_BENCHMARK=ON)
fi
WERROR_FLAGS=(-DRSR_WERROR=ON)
if [[ "${RSR_WERROR:-1}" == "0" ]]; then
  WERROR_FLAGS=(-DRSR_WERROR=OFF)
fi
CTEST_TIMEOUT="${RSR_CTEST_TIMEOUT:-300}"
TIMEOUT_FLAGS=(-DRSR_TEST_TIMEOUT="${CTEST_TIMEOUT}")

echo "==== Release build + tests (tier-1 verify) ===="
cmake -B build -S . "${WERROR_FLAGS[@]}" "${TIMEOUT_FLAGS[@]}" \
  "${BENCH_FLAGS[@]}"
cmake --build build -j
ctest --test-dir build --output-on-failure -j --timeout "${CTEST_TIMEOUT}"

# Every example runs once to completion; an example exits non-zero when its
# exchange fails.
echo "==== Examples (each example_* once) ===="
for example in build/example_*; do
  echo "---- ${example} ----"
  "${example}"
done

# One short pass of every microbenchmark, when google-benchmark was found:
# a benchmark whose setup CHECK-fails (each asserts the shape it times)
# fails CI here, not the next bench/run_bench.sh. Its timings are not kept.
if [[ -x build/bench_micro ]]; then
  echo "==== Microbenchmarks, one short pass (bench_micro) ===="
  build/bench_micro --benchmark_min_time=0.01
fi

# End-to-end benchmark smoke pass (bench/e2e/run.py --smoke): builds
# bench_e2e from this checkout into .bench_build/ and runs every workload at
# reduced size, including the traced replay-identity check. That replay calls
# the sketch and protocol layers' public functions directly
# (Riblt::InsertMany/DeleteMany/DecodeInto/WriteTo/ReadFrom and friends), so
# a library refactor that breaks the benchmark's build or its byte-identical
# replay fails here rather than at the next benchmark run.
echo "==== End-to-end benchmark smoke pass (bench/e2e/run.py --smoke) ===="
python3 bench/e2e/run.py --smoke

# Static-analysis wall: runs against the compile_commands.json the tier-1
# configure just exported. Placed after the tests so a plain compile error
# surfaces as itself, not as a wall of tidy diagnostics on a broken TU.
if [[ "${RSR_STATIC_ANALYSIS:-auto}" == "0" ]]; then
  echo "==== Static-analysis wall SKIPPED (RSR_STATIC_ANALYSIS=0) ===="
else
  echo "==== Static-analysis wall (ci/static_analysis.sh) ===="
  BUILD_DIR=build ci/static_analysis.sh
fi

# Second leg of the dual-dispatch matrix: the identical suite with the
# runtime dispatcher pinned to the portable scalar kernels. Guarantees the
# scalar reference path stays green on AVX2 hosts, where the default leg
# above exercises the vector kernels (and
# SimdDispatchTest.DispatchMatchesCpuAndOverride fails that leg if AVX2 was
# compiled but the dispatcher never selected it). Both legs run the full
# suite, so the adaptive warm-serving tests (fold byte-identity in
# RibltFoldTest/FoldEmdSketchesTest, ladder negotiation in
# RoundUpToLadderTest/EmdAdaptiveTest, and the SyncServerAdaptiveTest
# session-vs-cold transcript identity) are exercised under both kernel
# dispatches — the fold path consumes tables the dispatched kernels built.
echo "==== Release tests, RSR_FORCE_SCALAR=1 (portable kernel leg) ===="
RSR_FORCE_SCALAR=1 ctest --test-dir build --output-on-failure -j \
  --timeout "${CTEST_TIMEOUT}"

# Third leg, mirroring the scalar pattern for the wire layer: the whole
# suite re-runs with the process-wide default codec flipped to compact
# (RSR_WIRE_CODEC is read once by DefaultWireCodec()). The default legs above
# pin kClassic byte identity (golden fixtures, transcript-identity tests);
# this leg proves every codec-dispatched WriteTo/ReadFrom pair, the
# fold-then-serialize path, the corruption hardening, and every protocol that
# serializes through the default codec hold when kCompact is the negotiated
# default. The whole suite, not a hand-kept filter, so a new suite cannot be
# left out.
echo "==== Release tests, RSR_WIRE_CODEC=compact (compact codec leg) ===="
RSR_WIRE_CODEC=compact ctest --test-dir build --output-on-failure -j \
  --timeout "${CTEST_TIMEOUT}"

if [[ "${RSR_BENCH:-0}" == "1" && ! -x build/bench_micro ]]; then
  echo "error: RSR_BENCH=1 but build/bench_micro was not produced" >&2
  echo "       (google-benchmark missing or bench build broken)" >&2
  exit 1
fi

echo "==== Debug + ASan/UBSan build + tests ===="
cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=Debug -DRSR_SANITIZE=ON \
  "${WERROR_FLAGS[@]}" "${TIMEOUT_FLAGS[@]}"
cmake --build build-asan -j
ctest --test-dir build-asan --output-on-failure -j --timeout "${CTEST_TIMEOUT}"

echo "==== ASan/UBSan tests, RSR_FORCE_SCALAR=1 (portable kernel leg) ===="
RSR_FORCE_SCALAR=1 ctest --test-dir build-asan --output-on-failure -j \
  --timeout "${CTEST_TIMEOUT}"

# The corrupted-stream sweep (truncate + bit-flip every serialized form) is
# where ASan/UBSan earn their keep on the wire layer: run the whole suite
# under the compact default too, so an over-read in a bit-packed reader
# cannot hide behind the classic-arm default.
echo "==== ASan/UBSan tests, RSR_WIRE_CODEC=compact (compact codec leg) ===="
RSR_WIRE_CODEC=compact ctest --test-dir build-asan --output-on-failure -j \
  --timeout "${CTEST_TIMEOUT}"

# TSan gates the concurrent mutate-while-sync serving path (snapshots handed
# out under churn — SyncServerTest.ConcurrentChurnAndSync plus the adaptive
# analogue SyncServerAdaptiveTest.ConcurrentAdaptiveSessions, where sessions
# negotiate off one shared snapshot's estimators and fold into per-session
# scratch — and the rest of the Sync suite), and the sketch layer's
# per-thread scratch model (SketchReentrancyTest: concurrent
# Riblt::DecodeInto on one const table, and concurrent BuildEmdSketches calls
# over one const store, each with its own worker threads). Scoped to
# -R 'Sync|Reentrancy': that is where the library runs concurrent readers
# against shared state; the full suite under TSan would triple CI time
# re-checking single-threaded code ASan already covers.
# RelWithDebInfo, not Debug: TSan's own slowdown on the protocol loops is
# ~10x and needs -O2 to keep the leg fast.
echo "==== RelWithDebInfo + TSan build + concurrency tests ===="
cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DRSR_SANITIZE=thread "${WERROR_FLAGS[@]}" "${TIMEOUT_FLAGS[@]}"
cmake --build build-tsan -j
ctest --test-dir build-tsan --output-on-failure -j \
  --timeout "${CTEST_TIMEOUT}" -R 'Sync|Reentrancy'

echo "==== CI OK ===="

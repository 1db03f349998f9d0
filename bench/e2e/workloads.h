// The four bench_e2e workloads and the runs that measure them.
//
// Every run generates its inputs from the seed alone, hands the library only
// the generated stores, and drives the shipped entry points: RunEmdProtocol,
// RunGapProtocol, or SyncServer sessions beside an open-loop ApplyBatch
// writer. Untraced runs report the end-to-end metrics; traced runs alternate
// each shipped operation with its traced replay (replay.h), check the two
// are the same exchange, and report the per-layer metrics.
#ifndef RSR_BENCH_E2E_WORKLOADS_H_
#define RSR_BENCH_E2E_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace rsr::e2e {

struct MetricValue {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  /// Reduced sizes and a one-second window: a quick correctness and
  /// replay-identity check, not a measurement.
  bool smoke = false;
  /// Where the traced run writes its spans as JSON ("" = nowhere).
  std::string trace_out;
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// End-to-end metrics (untraced) or per-layer metrics (traced): the same
  /// names on every workload.
  std::vector<MetricValue> metrics;
  /// Values that apply to some workloads only; reported beside `metrics`.
  std::vector<MetricValue> extra;
  /// Workload configuration and host facts, as strings.
  std::vector<std::pair<std::string, std::string>> config;
  std::vector<std::string> errors;
};

std::vector<std::string> WorkloadNames();

/// Runs one workload. Errors in the run itself (unknown workload, a trace
/// file that cannot be written) come back in result.errors with correct =
/// false.
RunResult RunWorkload(const RunOptions& options);

}  // namespace rsr::e2e

#endif  // RSR_BENCH_E2E_WORKLOADS_H_

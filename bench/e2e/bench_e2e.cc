// bench_e2e: end-to-end reconciliation benchmark (see README.md).
//
//   bench_e2e --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//             [--smoke] [--trace-out FILE] [--out FILE]
//
// Prints "workload metric value unit" lines, then, as the last line of
// standard output, one JSON object: {"correct", "attempted", "failed",
// "metrics"}. With --trace 0 the metrics are the end-to-end set, with
// --trace 1 the per-layer set. --out writes the same result plus the
// workload-specific values and the host description. Exits 1 when a
// correctness check fails, 2 on a usage error.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace {

using rsr::e2e::MetricValue;
using rsr::e2e::RunResult;

void PrintJsonString(std::FILE* out, const std::string& s) {
  std::fputc('"', out);
  for (char c : s) {
    if (c == '"' || c == '\\') std::fputc('\\', out);
    if (static_cast<unsigned char>(c) >= 0x20) std::fputc(c, out);
  }
  std::fputc('"', out);
}

void PrintMetrics(std::FILE* out, const std::vector<MetricValue>& metrics) {
  std::fputc('{', out);
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) std::fputc(',', out);
    PrintJsonString(out, metrics[i].name);
    // All significant digits: comparisons use the raw measurements.
    std::fprintf(out, ":{\"value\":%.17g,\"unit\":",
                 std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    PrintJsonString(out, metrics[i].unit);
    std::fputc('}', out);
  }
  std::fputc('}', out);
}

void PrintSummary(std::FILE* out, const RunResult& r) {
  std::fprintf(out,
               "{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
               "\"metrics\":",
               r.correct ? "true" : "false",
               static_cast<unsigned long long>(r.attempted),
               static_cast<unsigned long long>(r.failed));
  PrintMetrics(out, r.metrics);
}

bool WriteResultFile(const std::string& path,
                     const rsr::e2e::RunOptions& opt, const RunResult& r) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  PrintSummary(out, r);
  std::fprintf(out, ",\"workload\":");
  PrintJsonString(out, opt.workload);
  std::fprintf(out, ",\"seed\":%llu,\"seconds\":%.17g,\"trace\":%s,\"extra\":",
               static_cast<unsigned long long>(opt.seed), opt.seconds,
               opt.trace ? "true" : "false");
  PrintMetrics(out, r.extra);
  std::fprintf(out, ",\"config\":{");
  for (size_t i = 0; i < r.config.size(); ++i) {
    if (i > 0) std::fputc(',', out);
    PrintJsonString(out, r.config[i].first);
    std::fputc(':', out);
    PrintJsonString(out, r.config[i].second);
  }
  std::fprintf(out, ",\"build_type\":");
  PrintJsonString(out, RSR_E2E_BUILD_TYPE);
  std::fprintf(out, "},\"errors\":[");
  for (size_t i = 0; i < r.errors.size(); ++i) {
    if (i > 0) std::fputc(',', out);
    PrintJsonString(out, r.errors[i]);
  }
  std::fprintf(out, "]}\n");
  return std::fclose(out) == 0;
}

int Usage(const char* message) {
  std::fprintf(stderr,
               "bench_e2e: %s\nusage: bench_e2e --workload NAME [--seed N] "
               "[--seconds S] [--trace 0|1] [--smoke] [--trace-out FILE] "
               "[--out FILE]\n",
               message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  rsr::e2e::RunOptions opt;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      opt.smoke = true;
      opt.seconds = 1;
      continue;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    char* rest = nullptr;
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &rest, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &rest);
      if (!(opt.seconds > 0)) return Usage("--seconds must be positive");
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
      opt.trace = value == "1";
    } else if (arg == "--trace-out") {
      opt.trace_out = value;
    } else if (arg == "--out") {
      out_path = value;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
    if (rest != nullptr && *rest != '\0') {
      return Usage(("bad number for " + arg).c_str());
    }
  }
  if (opt.workload.empty()) return Usage("--workload is required");

  const RunResult result = rsr::e2e::RunWorkload(opt);
  for (const std::string& error : result.errors) {
    std::fprintf(stderr, "bench_e2e %s: %s\n", opt.workload.c_str(),
                 error.c_str());
  }
  for (const auto* list : {&result.metrics, &result.extra}) {
    for (const MetricValue& m : *list) {
      std::printf("%s %s %.6g %s\n", opt.workload.c_str(), m.name.c_str(),
                  m.value, m.unit.c_str());
    }
  }
  if (!out_path.empty() && !WriteResultFile(out_path, opt, result)) {
    std::fprintf(stderr, "bench_e2e: cannot write %s\n", out_path.c_str());
    return 1;
  }
  PrintSummary(stdout, result);
  std::printf("}\n");
  return result.correct ? 0 : 1;
}

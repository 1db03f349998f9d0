// Shared helpers for the experiment harness binaries.
//
// Each bench binary reproduces one experiment (E1-E13, named with the claim
// it checks in the binary's header comment) and prints a paper-style table:
// fixed-width columns, one row per parameter setting. These are
// deliberately simple (no dependencies beyond the library) so the tables are
// easy to diff between runs.
#ifndef RSR_BENCH_BENCH_UTIL_H_
#define RSR_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "geometry/metric.h"
#include "geometry/point.h"
#include "geometry/point_store.h"

namespace rsr {
namespace bench {

/// Prints an experiment banner.
inline void Banner(const std::string& id, const std::string& claim) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", id.c_str());
  std::printf("%s\n", claim.c_str());
  std::printf("================================================================\n");
}

/// Fixed-width row printing: Row("%-8s %10.2f", ...) wrappers.
inline void Header(const std::string& line) {
  std::printf("%s\n", line.c_str());
  std::printf("%s\n", std::string(line.size(), '-').c_str());
}

struct Stats {
  double mean = 0;
  double median = 0;
  double p95 = 0;
  double min = 0;
  double max = 0;
};

inline Stats Summarize(std::vector<double> values) {
  Stats stats;
  if (values.empty()) return stats;
  std::sort(values.begin(), values.end());
  double sum = 0;
  for (double v : values) sum += v;
  stats.mean = sum / static_cast<double>(values.size());
  stats.median = values[values.size() / 2];
  stats.p95 = values[static_cast<size_t>(
      static_cast<double>(values.size() - 1) * 0.95)];
  stats.min = values.front();
  stats.max = values.back();
  return stats;
}

/// Max over a in alice of min distance to s_b_prime (Gap model check).
inline double WorstCaseGap(const PointStore& alice, const PointStore& s_b_prime,
                           const Metric& metric) {
  double worst = 0;
  for (size_t i = 0; i < alice.size(); ++i) {
    double best = 1e300;
    for (size_t j = 0; j < s_b_prime.size(); ++j) {
      best = std::min(best, metric.Distance(alice[i], s_b_prime[j]));
    }
    worst = std::max(worst, best);
  }
  return worst;
}

/// Naive full-transfer cost in bits for binary vectors (n*d) or integer
/// coordinates (n*d*ceil(log2(delta+1))).
inline double NaiveBits(size_t n, size_t dim, Coord delta) {
  double bits_per_coord = 1.0;
  while ((Coord{1} << static_cast<int>(bits_per_coord)) <= delta) {
    bits_per_coord += 1.0;
  }
  return static_cast<double>(n) * static_cast<double>(dim) * bits_per_coord;
}

}  // namespace bench
}  // namespace rsr

#endif  // RSR_BENCH_BENCH_UTIL_H_

// Interval-decomposition runner for the EMD protocol (Corollaries 3.5/3.6).
//
// Splits [D1, D2] into I = O(log(D2/D1)) geometric intervals with O(1)
// ratio, runs Algorithm 1 once per interval (each instance needs only
// s = O(k) MLSH draws, which is the point of the decomposition: the direct
// protocol would need s = Theta(k D2/D1) draws), concatenates every
// instance's message into one round, and uses the output of the
// smallest-index interval that did not report failure.
#ifndef RSR_CORE_EMD_MULTISCALE_H_
#define RSR_CORE_EMD_MULTISCALE_H_

#include "core/emd_protocol.h"

namespace rsr {

struct MultiscaleEmdParams {
  EmdProtocolParams base;
  /// Ratio of each interval: D2^(j) / D1^(j). Must be > 1, and far enough
  /// above 1 that the interval count stays under max_intervals (a ratio of
  /// 1 + 1e-15 would otherwise demand ~10^15 protocol instances).
  double interval_ratio = 2.0;
  /// Upper bound on I = ceil(log(D2/D1) / log(interval_ratio)); ratios whose
  /// derived count exceeds it are rejected up front with InvalidArgument
  /// instead of looping for years.
  size_t max_intervals = 1024;
};

struct MultiscaleEmdReport {
  bool failure = false;
  PointStore s_b_prime;
  /// 0-based index of the interval whose output was used.
  size_t chosen_interval = 0;
  std::vector<EmdProtocolReport> intervals;
  CommStats comm;
};

Result<MultiscaleEmdReport> RunMultiscaleEmdProtocol(
    const PointStore& alice, const PointStore& bob,
    const MultiscaleEmdParams& params);

}  // namespace rsr

#endif  // RSR_CORE_EMD_MULTISCALE_H_

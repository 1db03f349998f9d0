#include "core/emd_multiscale.h"

#include <cmath>

#include "hashing/hash64.h"

namespace rsr {

Result<MultiscaleEmdReport> RunMultiscaleEmdProtocol(
    const PointStore& alice, const PointStore& bob,
    const MultiscaleEmdParams& params) {
  if (params.interval_ratio <= 1.0) {
    return Status::InvalidArgument("interval_ratio must exceed 1");
  }
  if (alice.size() != bob.size() || alice.empty()) {
    return Status::InvalidArgument("|S_A| must equal |S_B| and be positive");
  }
  const size_t n = alice.size();
  Metric metric(params.base.metric);
  double d1 = std::max(1.0, params.base.d1);
  double d2 = params.base.d2 > 0
                  ? params.base.d2
                  : static_cast<double>(n) *
                        metric.Diameter(params.base.dim, params.base.delta);
  if (d2 < d1) return Status::InvalidArgument("d2 must be >= d1");

  // Derive the interval count up front: I = ceil(log(d2/d1)/log(ratio)).
  // The loop below must keep the repeated-multiplication update (lo *= ratio)
  // so each interval's [d1, d2) endpoints — and hence transcripts — are
  // bit-identical to the historical behavior, but its trip count is now
  // validated BEFORE running: a ratio of 1 + 1e-15 passes the > 1 guard yet
  // implies ~10^15 iterations, which used to wedge the caller instead of
  // failing. (!(x <= y) also rejects a NaN count.)
  const double derived_intervals =
      d2 > d1 ? std::ceil(std::log(d2 / d1) / std::log(params.interval_ratio))
              : 0.0;
  if (!(derived_intervals <= static_cast<double>(params.max_intervals))) {
    return Status::InvalidArgument(
        "interval_ratio too close to 1: ceil(log(d2/d1)/log(ratio)) exceeds "
        "max_intervals");
  }

  MultiscaleEmdReport report;
  // A do-while so d1 == d2 still runs the one interval [d1, d1].
  // The interval count <= max_intervals is a belt-and-suspenders guard: the
  // up-front validation bounds the trip count, and the extra slack only
  // absorbs floating-point slop in the derived estimate.
  double lo = d1;
  double hi = d1;
  do {
    hi = std::min(lo * params.interval_ratio, d2);
    EmdProtocolParams interval = params.base;
    interval.d1 = lo;
    interval.d2 = hi;
    interval.seed =
        HashCombine(params.base.seed, 0x5ca1e'000ULL + report.intervals.size());
    RSR_ASSIGN_OR_RETURN(EmdProtocolReport sub,
                         RunEmdProtocol(alice, bob, interval));
    // All interval messages travel together: still one round overall.
    report.comm.Append(sub.comm);
    report.intervals.push_back(std::move(sub));
    lo *= params.interval_ratio;
  } while (hi < d2 && report.intervals.size() <= params.max_intervals);

  // Use the smallest-index interval that did not report failure.
  for (size_t j = 0; j < report.intervals.size(); ++j) {
    if (!report.intervals[j].failure) {
      report.chosen_interval = j;
      report.s_b_prime = report.intervals[j].s_b_prime;
      return report;
    }
  }
  report.failure = true;
  return report;
}

}  // namespace rsr

// Low-dimension Gap protocol (Theorem 4.5, Appendix E.1).
//
// Uses the one-sided-error grid LSH (p2 = 0): far pairs NEVER share a key
// entry, so m = 1 and a single matching entry certifies closeness. With
// rho_hat = r1 d / r2 < 1, h = Theta(log n / log(1/rho_hat)) entries make a
// close pair share at least one entry with probability 1 - 1/poly(n). Alice
// transmits every element whose key shares no entry with any of Bob's keys.
// For constant-dimension l_p (p in [1,2]) this beats the general protocol by
// roughly a log(r2/r1) factor in communication.
#ifndef RSR_CORE_GAP_LOWDIM_H_
#define RSR_CORE_GAP_LOWDIM_H_

#include "core/gap_protocol.h"

namespace rsr {

struct LowDimGapParams {
  /// l1 or l2 (the one-sided grid is an l_p construction).
  MetricKind metric = MetricKind::kL1;
  size_t dim = 0;
  Coord delta = 0;
  double r1 = 0;
  double r2 = 0;
  size_t k = 1;
  /// h = ceil(h_multiplier * log2 n / log2(1/rho_hat)).
  double h_multiplier = 1.0;
  SetsReconcilerParams reconciler;
  /// Worker threads for the batch key evaluation (<= 1 = inline).
  size_t num_threads = 1;
  uint64_t seed = 0;
};

/// Runs the protocol. Requires rho_hat = r1 * dim / r2 < 1 (the theorem's
/// applicability regime); otherwise returns InvalidArgument, as it does for
/// dim 0, a metric other than l1/l2, radii outside 0 < r1 < r2, and an
/// h_multiplier that is negative, NaN or infinite or makes h reach kMaxSlots
/// (h_multiplier 0 clamps h to 1).
///
/// Inputs are programmer-supplied, as for RunGapProtocol: a non-empty store
/// whose dim differs from params.dim, or any coordinate outside
/// [0, params.delta], aborts the process (RSR_CHECK). Every coordinate of
/// both stores is checked while the keys are built, before any LSH function
/// reads it and before the first message.
Result<GapProtocolReport> RunLowDimGapProtocol(const PointStore& alice,
                                               const PointStore& bob,
                                               const LowDimGapParams& params);

}  // namespace rsr

#endif  // RSR_CORE_GAP_LOWDIM_H_

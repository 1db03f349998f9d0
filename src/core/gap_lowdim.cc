#include "core/gap_lowdim.h"

#include <algorithm>
#include <cmath>

#include "lsh/one_sided_grid.h"

namespace rsr {

Result<GapProtocolReport> RunLowDimGapProtocol(const PointStore& alice,
                                               const PointStore& bob,
                                               const LowDimGapParams& params) {
  RSR_RETURN_NOT_OK(internal::CheckGapInputs(alice, bob, params));
  if (params.metric != MetricKind::kL1 && params.metric != MetricKind::kL2) {
    return Status::InvalidArgument("one-sided grid supports l1/l2 only");
  }
  if (!(0 < params.r1 && params.r1 < params.r2)) {
    return Status::InvalidArgument("need 0 < r1 < r2");
  }

  const int p_exp = params.metric == MetricKind::kL1 ? 1 : 2;
  OneSidedGridFamily family(params.dim, params.r2, p_exp);
  double rho_hat = family.RhoHat(params.r1);
  if (rho_hat >= 1.0) {
    return Status::InvalidArgument(
        "rho_hat = r1*d/r2 >= 1: Theorem 4.5 regime requires r2 > r1*d");
  }

  const size_t n = std::max<size_t>(std::max(alice.size(), bob.size()), 4);
  GapDerived derived;
  derived.p1 = 1.0 - rho_hat;
  derived.p2 = 0.0;
  derived.rho = rho_hat;  // the theorem's meta-parameter rho_hat
  derived.m = 1;
  derived.q1 = derived.p1;
  derived.q2 = 0.0;
  const double h = std::ceil(params.h_multiplier *
                             std::log2(static_cast<double>(n)) /
                             std::log2(1.0 / rho_hat));
  if (h >= static_cast<double>(kMaxSlots)) {
    return Status::InvalidArgument("h_multiplier gives h >= kMaxSlots");
  }
  derived.h = std::max<size_t>(1, static_cast<size_t>(h));
  derived.tau = 1.0;  // far iff NO entry matches (p2 = 0 one-sided error)

  // A close pair's entry differs w.p. rho_hat; sketches size from n >= 4.
  return internal::RunGapPipeline(alice, bob, params, family, derived,
                                  rho_hat, n, 0x10d5e75ULL);
}

}  // namespace rsr

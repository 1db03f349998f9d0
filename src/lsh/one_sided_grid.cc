#include "lsh/one_sided_grid.h"

#include <cmath>

#include "lsh/grid.h"

namespace rsr {

OneSidedGridFamily::OneSidedGridFamily(size_t dim, double r2, int p_exponent)
    : dim_(dim), r2_(r2), p_exponent_(p_exponent) {
  RSR_CHECK(dim >= 1);
  RSR_CHECK(r2 > 0.0);
  RSR_CHECK(p_exponent == 1 || p_exponent == 2);
  w_ = r2 / std::pow(static_cast<double>(dim), 1.0 / p_exponent);
}

std::unique_ptr<LshFunction> OneSidedGridFamily::Draw(Rng* rng) const {
  // The same shifted grid as Lemma 2.4's, at width r2 / d^{1/p}.
  return GridFamily(dim_, w_).Draw(rng);
}

double OneSidedGridFamily::CollisionProbability(double dist) const {
  if (dist > r2_) return 0.0;
  double p = 1.0 - dist * static_cast<double>(dim_) / r2_;
  return p < 0.0 ? 0.0 : p;
}

double OneSidedGridFamily::RhoHat(double r1) const {
  return r1 * static_cast<double>(dim_) / r2_;
}

}  // namespace rsr

// 2-stable (Gaussian projection) MLSH for l2 (Lemma 2.5; Datar et al. [8]).
//
// The drawn function projects onto a random Gaussian direction and rounds to
// a randomly shifted 1-D lattice of width w:  h(x) = floor((r.x + a)/w).
// Collision probability at distance u:
//   p(u) = 1 - 2 Phi(-w/u) - (2u / (sqrt(2 pi) w)) (1 - e^{-w^2/(2u^2)}),
// where Phi is the standard normal CDF. This is an MLSH with parameters
// (0.99w, e^{-2 sqrt(2/pi)/w}, 1/(4 sqrt 2)).
#ifndef RSR_LSH_PSTABLE_H_
#define RSR_LSH_PSTABLE_H_

#include <memory>
#include <vector>

#include "lsh/lsh_family.h"

namespace rsr {

/// The parameters of `count` drawn 2-stable functions packed into one
/// table, the input of lsh_internal::DotCellsMany: function g has direction
/// directions[g * dim + j] (j < dim) and offset offsets[g], and all share w.
/// The protocols evaluate every draw of a row block with one kernel call
/// over this table instead of one virtual call per draw.
struct PackedDotCells {
  size_t dim = 0;
  double w = 0;
  std::vector<double> directions;  // count x dim, row-major
  std::vector<double> offsets;     // count

  size_t count() const { return offsets.size(); }
};

class PStableFamily : public MlshFamily {
 public:
  /// Requires w > 0.
  PStableFamily(size_t dim, double w);

  std::unique_ptr<LshFunction> Draw(Rng* rng) const override;
  std::string Name() const override { return "pstable_l2"; }
  double CollisionProbability(double dist) const override;
  MetricKind metric() const override { return MetricKind::kL2; }
  MlshParams mlsh_params() const override;

  double w() const { return w_; }

  /// Packs functions drawn from this family (by Draw; CHECK-fails on any
  /// other function). Copies their parameters and draws nothing.
  PackedDotCells Pack(
      const std::vector<std::unique_ptr<LshFunction>>& draws) const;

 private:
  size_t dim_;
  double w_;
};

}  // namespace rsr

#endif  // RSR_LSH_PSTABLE_H_

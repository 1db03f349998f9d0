// The per-pair arithmetic of the three metrics, defined once. Both the row
// kernels (HammingDistance / L1Distance / L2Distance, and so
// Metric::Distance) and the blocked DistanceMatrix (emd/emd.cc) are built
// from these definitions, so a matrix entry and a per-pair distance are the
// same double by construction: each pair sums Term over its coordinates in
// order from a zero accumulator, then applies Finish.
#ifndef RSR_GEOMETRY_DISTANCE_KERNELS_H_
#define RSR_GEOMETRY_DISTANCE_KERNELS_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>

#include "geometry/point.h"

namespace rsr {
namespace geometry_internal {

struct HammingPair {
  using Acc = int64_t;
  static Acc Term(Coord a, Coord b) { return a != b ? 1 : 0; }
  static double Finish(Acc sum) { return static_cast<double>(sum); }
};

/// Unsigned so a sum past 2^63 (possible only for huge delta * dim) wraps
/// instead of overflowing; below that the value is the plain int64 sum.
struct L1Pair {
  using Acc = uint64_t;
  static Acc Term(Coord a, Coord b) {
    return static_cast<uint64_t>(std::llabs(a - b));
  }
  static double Finish(Acc sum) {
    return static_cast<double>(static_cast<int64_t>(sum));
  }
};

/// The int64 difference is converted once, then squared and summed in
/// double: converting each coordinate first would round differently.
struct L2Pair {
  using Acc = double;
  static Acc Term(Coord a, Coord b) {
    const double diff = static_cast<double>(a - b);
    return diff * diff;
  }
  static double Finish(Acc sum) { return std::sqrt(sum); }
};

/// Distances from row x to the kWidth rows y[0..kWidth), written to
/// out[0..kWidth). One independent accumulator per pair: with kWidth > 1 the
/// sums advance side by side instead of each waiting on its own chain of
/// dependent adds, while each pair's operations and their order stay those
/// of kWidth == 1.
template <typename Pair, size_t kWidth>
inline void DistanceBlock(const Coord* x, const Coord* const* y, size_t dim,
                          double* out) {
  typename Pair::Acc sum[kWidth] = {};
  for (size_t c = 0; c < dim; ++c) {
    const Coord xc = x[c];
    for (size_t k = 0; k < kWidth; ++k) sum[k] += Pair::Term(xc, y[k][c]);
  }
  for (size_t k = 0; k < kWidth; ++k) out[k] = Pair::Finish(sum[k]);
}

/// One pair: DistanceBlock of width 1.
template <typename Pair>
inline double PairDistance(const Coord* a, const Coord* b, size_t dim) {
  double out = 0.0;
  DistanceBlock<Pair, 1>(a, &b, dim, &out);
  return out;
}

}  // namespace geometry_internal
}  // namespace rsr

#endif  // RSR_GEOMETRY_DISTANCE_KERNELS_H_

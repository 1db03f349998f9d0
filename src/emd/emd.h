// Earth mover's distance between equal-size point sets (Definitions 3.2/3.3).
//
// EMD(X, Y)   = min-cost perfect matching under the metric.
// EMD_k(X, Y) = min over all (n-k)-subsets of each side of the EMD of the
//               remainder = minimum-cost (n-k)-matching (computed exactly by
//               successive shortest paths; see assignment.h).
// These are evaluation oracles: protocols never need EMD of full sets, but
// the benchmarks report EMD(S_A, S'_B) / EMD_k(S_A, S_B) against the paper's
// O(log n) bound.
#ifndef RSR_EMD_EMD_H_
#define RSR_EMD_EMD_H_

#include "emd/assignment.h"
#include "geometry/metric.h"
#include "geometry/point.h"
#include "geometry/point_store.h"

namespace rsr {

/// Lightweight row-pointer view over either representation: DistanceMatrix
/// and the EMD oracles accept PointSet and PointStore interchangeably (the
/// distance kernels read coordinates through these spans, never through
/// Point::operator[]). Implicit conversion keeps call sites unchanged.
class PointRows {
 public:
  PointRows(const PointSet& points);      // NOLINT: implicit adapter
  PointRows(const PointStore& points);    // NOLINT: implicit adapter

  size_t size() const { return rows_.size(); }
  size_t dim() const { return dim_; }
  const Coord* operator[](size_t i) const { return rows_[i]; }

 private:
  std::vector<const Coord*> rows_;
  size_t dim_ = 0;
};

/// Builds the dense distance matrix cost[i][j] = f(x_i, y_j).
///
/// Arithmetic contract: every entry is bit-identical to
/// metric.Distance(x[i], y[j], dim), for every input. Each row of x is
/// computed against blocks of 8 rows of y with 8 independent accumulators
/// (the tail columns one at a time), and each pair runs the row kernel's
/// exact operations in coordinate order: l2 takes the int64 difference,
/// converts it to double, squares and adds it to a double sum starting at
/// 0.0, then takes sqrt; l1 sums |int64 difference| and Hamming counts
/// unequal coordinates, both in exact integer arithmetic (an l1 sum past
/// 2^63 wraps modulo 2^64) converted to double once. There is one code
/// path per metric; no input range selects another.
CostMatrix DistanceMatrix(PointRows x, PointRows y, const Metric& metric);

/// Exact EMD; requires |x| == |y| >= 1.
double EmdExact(PointRows x, PointRows y, const Metric& metric);

/// Exact EMD_k; requires |x| == |y| >= 1 and 0 <= k < |x|.
double EmdK(PointRows x, PointRows y, const Metric& metric, size_t k);

/// All EMD_k values at once: entry k holds EMD_k(x, y), k = 0..n-1.
std::vector<double> EmdKAll(PointRows x, PointRows y, const Metric& metric);

}  // namespace rsr

#endif  // RSR_EMD_EMD_H_

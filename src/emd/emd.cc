#include "emd/emd.h"

#include <algorithm>

#include "geometry/distance_kernels.h"

namespace rsr {

PointRows::PointRows(const PointSet& points) {
  rows_.reserve(points.size());
  for (const Point& p : points) {
    rows_.push_back(p.coords().data());
    dim_ = p.dim();
  }
}

PointRows::PointRows(const PointStore& points) {
  rows_.reserve(points.size());
  dim_ = points.dim();
  for (size_t i = 0; i < points.size(); ++i) rows_.push_back(points.row(i));
}

namespace {

template <typename Pair>
void FillDistances(const PointRows& x, const PointRows& y, size_t dim,
                   CostMatrix* cost) {
  // Eight columns per block: enough independent sums to cover the add
  // latency, few enough that they stay in registers.
  constexpr size_t kBlock = 8;
  const size_t cols = y.size();
  const size_t full = cols - cols % kBlock;
  for (size_t i = 0; i < x.size(); ++i) {
    double* out = (*cost)[i].data();
    const Coord* xi = x[i];
    const Coord* block[kBlock] = {};
    for (size_t j = 0; j < full; j += kBlock) {
      for (size_t k = 0; k < kBlock; ++k) block[k] = y[j + k];
      geometry_internal::DistanceBlock<Pair, kBlock>(xi, block, dim, out + j);
    }
    for (size_t j = full; j < cols; ++j) {
      block[0] = y[j];
      geometry_internal::DistanceBlock<Pair, 1>(xi, block, dim, out + j);
    }
  }
}

}  // namespace

CostMatrix DistanceMatrix(PointRows x, PointRows y, const Metric& metric) {
  RSR_DCHECK(x.size() == 0 || y.size() == 0 || x.dim() == y.dim());
  const size_t dim = x.size() > 0 ? x.dim() : y.dim();
  CostMatrix cost(x.size(), std::vector<double>(y.size(), 0.0));
  switch (metric.kind()) {
    case MetricKind::kHamming:
      FillDistances<geometry_internal::HammingPair>(x, y, dim, &cost);
      break;
    case MetricKind::kL1:
      FillDistances<geometry_internal::L1Pair>(x, y, dim, &cost);
      break;
    case MetricKind::kL2:
      FillDistances<geometry_internal::L2Pair>(x, y, dim, &cost);
      break;
  }
  return cost;
}

double EmdExact(PointRows x, PointRows y, const Metric& metric) {
  RSR_CHECK_EQ(x.size(), y.size());
  RSR_CHECK(x.size() > 0);
  return MinCostAssignment(DistanceMatrix(x, y, metric)).cost;
}

double EmdK(PointRows x, PointRows y, const Metric& metric, size_t k) {
  RSR_CHECK_EQ(x.size(), y.size());
  RSR_CHECK(x.size() > 0);
  RSR_CHECK_LT(k, x.size());
  PartialMatchingResult partial = MinCostPartialCosts(
      DistanceMatrix(x, y, metric));
  return partial.costs[x.size() - k];
}

std::vector<double> EmdKAll(PointRows x, PointRows y, const Metric& metric) {
  RSR_CHECK_EQ(x.size(), y.size());
  RSR_CHECK(x.size() > 0);
  PartialMatchingResult partial = MinCostPartialCosts(
      DistanceMatrix(x, y, metric));
  std::vector<double> out(x.size());
  for (size_t k = 0; k < x.size(); ++k) {
    out[k] = partial.costs[x.size() - k];
  }
  return out;
}

}  // namespace rsr

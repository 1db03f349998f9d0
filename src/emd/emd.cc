#include "emd/emd.h"

#include <algorithm>

#include "emd/repair_kernels.h"
#include "geometry/distance_kernels.h"

namespace rsr {

namespace {

/// The scalar fill of the columns [col_begin, y.size()): blocks of eight
/// columns, then the rest one at a time.
template <typename Pair>
void FillDistances(const PointStore& x, const PointStore& y, size_t dim,
                   size_t col_begin, CostMatrix* cost) {
  // Eight columns per block: enough independent sums to cover the add
  // latency, few enough that they stay in registers.
  constexpr size_t kBlock = 8;
  const size_t cols = y.size();
  const size_t full = col_begin + (cols - col_begin) / kBlock * kBlock;
  for (size_t i = 0; i < x.size(); ++i) {
    double* out = (*cost)[i].data();
    const Coord* xi = x.row(i);
    const Coord* block[kBlock] = {};
    for (size_t j = col_begin; j < full; j += kBlock) {
      for (size_t k = 0; k < kBlock; ++k) block[k] = y.row(j + k);
      geometry_internal::DistanceBlock<Pair, kBlock>(xi, block, dim, out + j);
    }
    for (size_t j = full; j < cols; ++j) {
      block[0] = y.row(j);
      geometry_internal::DistanceBlock<Pair, 1>(xi, block, dim, out + j);
    }
  }
}

}  // namespace

namespace emd_internal {

CostMatrix DistanceMatrixOn(RepairArm arm, const PointStore& x,
                            const PointStore& y, const Metric& metric) {
  RSR_DCHECK(x.size() == 0 || y.size() == 0 || x.dim() == y.dim());
  const size_t dim = x.size() > 0 ? x.dim() : y.dim();
  CostMatrix cost(x.size(), std::vector<double>(y.size(), 0.0));
  size_t done = 0;
  if (arm == RepairArm::kAvx2) {
    std::vector<double*> out_rows(x.size());
    for (size_t i = 0; i < x.size(); ++i) out_rows[i] = cost[i].data();
    std::vector<Coord> block(kDistanceBlockCols * dim);
    done = FillDistanceBlocksAvx2(metric.kind(), x.coord_data(), x.size(),
                                  y.coord_data(), y.size(), dim, block.data(),
                                  out_rows.data());
  }
  switch (metric.kind()) {
    case MetricKind::kHamming:
      FillDistances<geometry_internal::HammingPair>(x, y, dim, done, &cost);
      break;
    case MetricKind::kL1:
      FillDistances<geometry_internal::L1Pair>(x, y, dim, done, &cost);
      break;
    case MetricKind::kL2:
      FillDistances<geometry_internal::L2Pair>(x, y, dim, done, &cost);
      break;
  }
  return cost;
}

}  // namespace emd_internal

CostMatrix DistanceMatrix(const PointStore& x, const PointStore& y,
                          const Metric& metric) {
  return emd_internal::DistanceMatrixOn(emd_internal::ActiveRepairArm(), x, y,
                                        metric);
}

double EmdExact(const PointStore& x, const PointStore& y,
                const Metric& metric) {
  RSR_CHECK_EQ(x.size(), y.size());
  RSR_CHECK(x.size() > 0);
  return MinCostAssignment(DistanceMatrix(x, y, metric)).cost;
}

double EmdK(const PointStore& x, const PointStore& y, const Metric& metric,
            size_t k) {
  RSR_CHECK_EQ(x.size(), y.size());
  RSR_CHECK(x.size() > 0);
  RSR_CHECK_LT(k, x.size());
  PartialMatchingResult partial = MinCostPartialCosts(
      DistanceMatrix(x, y, metric));
  return partial.costs[x.size() - k];
}

std::vector<double> EmdKAll(const PointStore& x, const PointStore& y,
                            const Metric& metric) {
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

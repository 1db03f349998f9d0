#include "emd/emd.h"

#include <algorithm>

#include "emd/repair_kernels.h"
#include "geometry/distance_kernels.h"

namespace rsr {

namespace {

/// The scalar fill of out[col_begin, y.size()): blocks of eight rows of y,
/// then the rest one at a time.
template <typename Pair>
void FillDistances(const Coord* x, const PointStore& y, size_t col_begin,
                   double* out) {
  // Eight rows per block: enough independent sums to cover the add
  // latency, few enough that they stay in registers.
  constexpr size_t kBlock = 8;
  const size_t cols = y.size();
  const size_t dim = y.dim();
  const size_t full = col_begin + (cols - col_begin) / kBlock * kBlock;
  const Coord* block[kBlock] = {};
  for (size_t j = col_begin; j < full; j += kBlock) {
    for (size_t k = 0; k < kBlock; ++k) block[k] = y.row(j + k);
    geometry_internal::DistanceBlock<Pair, kBlock>(x, block, dim, out + j);
  }
  for (size_t j = full; j < cols; ++j) {
    block[0] = y.row(j);
    geometry_internal::DistanceBlock<Pair, 1>(x, block, dim, out + j);
  }
}

}  // namespace

namespace emd_internal {

DistanceRows::DistanceRows(RepairArm arm, const PointStore& y,
                           const Metric& metric)
    : y_(y), kind_(metric.kind()) {
  if (arm != RepairArm::kAvx2 || !kAvx2RepairKernelsCompiled) return;
  const size_t dim = y.dim();
  const size_t full = y.size() - y.size() % kDistanceBlockCols;
  blocks_.resize(full * dim);
  for (size_t j = 0; j < full; ++j) {
    const Coord* yj = y.row(j);
    Coord* block = blocks_.data() + (j - j % kDistanceBlockCols) * dim;
    for (size_t c = 0; c < dim; ++c) {
      block[c * kDistanceBlockCols + j % kDistanceBlockCols] = yj[c];
    }
  }
}

void DistanceRows::Fill(const Coord* x, double* out) const {
  size_t done = 0;
  if (!blocks_.empty()) {
    done = FillDistanceRowAvx2(kind_, x, blocks_.data(), y_.size(), y_.dim(),
                               out);
  }
  switch (kind_) {
    case MetricKind::kHamming:
      FillDistances<geometry_internal::HammingPair>(x, y_, done, out);
      break;
    case MetricKind::kL1:
      FillDistances<geometry_internal::L1Pair>(x, y_, done, out);
      break;
    case MetricKind::kL2:
      FillDistances<geometry_internal::L2Pair>(x, y_, done, out);
      break;
  }
}

CostMatrix DistanceMatrixOn(RepairArm arm, const PointStore& x,
                            const PointStore& y, const Metric& metric) {
  RSR_DCHECK(x.size() == 0 || y.size() == 0 || x.dim() == y.dim());
  CostMatrix cost(x.size(), std::vector<double>(y.size()));
  if (y.empty()) return cost;
  const DistanceRows distances(arm, y, metric);
  for (size_t i = 0; i < x.size(); ++i) {
    distances.Fill(x.row(i), cost[i].data());
  }
  return cost;
}

AssignmentResult MinCostMatchingOn(RepairArm arm, const PointStore& x,
                                   const PointStore& y, const Metric& metric) {
  RSR_CHECK(x.size() >= 1);
  RSR_CHECK(x.size() <= y.size());
  RSR_CHECK_EQ(x.dim(), y.dim());
  const DistanceRows distances(arm, y, metric);
  std::vector<double> row(y.size());
  const auto fill = [&](size_t i) {
    distances.Fill(x.row(i), row.data());
    return row.data();
  };
  AssignmentResult result;
  result.row_to_col =
      MinCostAssignmentOn(arm, x.size(), y.size(), CostRowFn(fill));
  // Each matched entry once more: Metric::Distance is the entry, bit for
  // bit (emd.h).
  for (size_t r = 0; r < x.size(); ++r) {
    result.cost += metric.Distance(
        x.row(r), y.row(static_cast<size_t>(result.row_to_col[r])), y.dim());
  }
  return result;
}

}  // namespace emd_internal

CostMatrix DistanceMatrix(const PointStore& x, const PointStore& y,
                          const Metric& metric) {
  return emd_internal::DistanceMatrixOn(emd_internal::ActiveRepairArm(), x, y,
                                        metric);
}

AssignmentResult MinCostMatching(const PointStore& x, const PointStore& y,
                                 const Metric& metric) {
  return emd_internal::MinCostMatchingOn(emd_internal::ActiveRepairArm(), x, y,
                                         metric);
}

double EmdExact(const PointStore& x, const PointStore& y,
                const Metric& metric) {
  RSR_CHECK_EQ(x.size(), y.size());
  RSR_CHECK(x.size() > 0);
  return MinCostMatching(x, y, metric).cost;
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

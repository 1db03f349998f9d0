#include "emd/emd.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>

#include "emd/repair_kernels.h"
#include "geometry/distance_kernels.h"
#include "hashing/hash64.h"

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

/// True iff every coordinate of x and y lies in [0, M] with dim * M < 2^63,
/// so no l1 sum over a pair of their rows wraps: every l1 cost is then
/// >= 0, and 0 only between equal rows.
bool L1SumsCannotWrap(const PointStore& x, const PointStore& y) {
  const Coord limit =
      std::numeric_limits<Coord>::max() / static_cast<Coord>(y.dim());
  bool outside = false;
  for (const PointStore* store : {&x, &y}) {
    const Coord* c = store->coord_data();
    const Coord* end = c + store->size() * store->dim();
    for (; c != end; ++c) outside |= *c < 0 || *c > limit;
  }
  return !outside;
}

/// The exact-copy pass of MinCostMatching (emd.h): gives the k-th row of x
/// holding some value the k-th row of y equal to it, in column order, and
/// returns true iff every row of x got a column that way. X's distinct
/// values sit in an open-addressing table, each with its rows chained in
/// row order; one scan of y hands each row equal to a value the next
/// unmatched row of its chain, and stops once no row is left. The hash only
/// picks the slot: every hit is confirmed by comparing coordinates.
bool MatchExactCopies(const PointStore& x, const PointStore& y,
                      std::vector<int>* row_to_col) {
  const size_t dim = y.dim();
  // A row's hash is Mix64 of sum_c row[c] * mult[c], with distinct odd
  // multipliers, so the products are independent of one another.
  std::vector<uint64_t> mult(dim);
  for (size_t c = 0; c < dim; ++c) mult[c] = Mix64(c + 1) | 1;
  const auto hash = [m = mult.data(), dim](const Coord* row) {
    uint64_t sum = 0;
    for (size_t c = 0; c < dim; ++c) {
      sum += static_cast<uint64_t>(row[c]) * m[c];
    }
    return Mix64(sum);
  };
  constexpr uint32_t kNone = std::numeric_limits<uint32_t>::max();
  struct Value {
    uint64_t hash;
    uint32_t first;  // the row compared against
    uint32_t last;   // the chain's tail, while it is built
    uint32_t next;   // the next row still without a column
  };
  std::vector<Value> values;
  values.reserve(x.size());
  std::vector<uint32_t> next_row(x.size(), kNone);
  // At least eight slots per value: most rows of y, equal to none of x,
  // meet an empty slot at once, a branch the CPU predicts.
  const size_t mask = std::bit_ceil(8 * x.size()) - 1;
  std::vector<uint32_t> slots(mask + 1, kNone);
  for (size_t r = 0; r < x.size(); ++r) {
    const Coord* xr = x.row(r);
    const uint64_t h = hash(xr);
    const auto row = static_cast<uint32_t>(r);
    size_t s = h & mask;
    for (; slots[s] != kNone; s = (s + 1) & mask) {
      Value& v = values[slots[s]];
      if (v.hash == h && std::equal(xr, xr + dim, x.row(v.first))) break;
    }
    if (slots[s] == kNone) {
      slots[s] = static_cast<uint32_t>(values.size());
      values.push_back({h, row, row, row});
    } else {
      Value& v = values[slots[s]];
      next_row[v.last] = row;
      v.last = row;
    }
  }

  row_to_col->assign(x.size(), -1);
  size_t left = x.size();
  for (size_t j = 0; j < y.size() && left > 0; ++j) {
    const Coord* yj = y.row(j);
    const uint64_t h = hash(yj);
    for (size_t s = h & mask; slots[s] != kNone; s = (s + 1) & mask) {
      Value& v = values[slots[s]];
      if (v.hash != h || !std::equal(yj, yj + dim, x.row(v.first))) continue;
      if (v.next != kNone) {
        (*row_to_col)[v.next] = static_cast<int>(j);
        v.next = next_row[v.next];
        --left;
      }
      break;
    }
  }
  return left == 0;
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
  AssignmentResult result;
  // The exact-copy pass needs every cost >= 0 and 0 only between equal
  // rows: always so for l2 and Hamming, and for l1 while no sum wraps.
  const bool copies_qualify =
      metric.kind() != MetricKind::kL1 || L1SumsCannotWrap(x, y);
  if (!copies_qualify || !MatchExactCopies(x, y, &result.row_to_col)) {
    const DistanceRows distances(arm, y, metric);
    std::vector<double> row(y.size());
    const auto fill = [&](size_t i) {
      distances.Fill(x.row(i), row.data());
      return row.data();
    };
    result.row_to_col =
        MinCostAssignmentOn(arm, x.size(), y.size(), CostRowFn(fill));
  }
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

// Oracles for Algorithm 1's repair step (DistanceMatrix + MinCostAssignment).
//
// DistanceMatrix computes blocks of pairs side by side; each entry must still
// equal the per-pair Metric::Distance bit for bit, and both must equal the
// metric written out plainly. MinCostAssignment must
// return exactly what the straightforward e-maxx Hungarian returns, including
// which of several optimal matchings it picks (its lowest-index tie-break
// decides which of Bob's points are replaced).
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "emd/assignment.h"
#include "emd/emd.h"
#include "geometry/metric.h"
#include "geometry/point_store.h"
#include "util/logging.h"
#include "util/random.h"

namespace rsr {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// The e-maxx Hungarian exactly as MinCostAssignment implemented it before
// its scratch was hoisted: a fresh minv/used per row, every read through
// the nested vectors.
AssignmentResult ReferenceMinCostAssignment(const CostMatrix& cost) {
  size_t rows = cost.size();
  RSR_CHECK(rows >= 1);
  size_t cols = cost[0].size();
  RSR_CHECK(rows <= cols);
  for (const auto& row : cost) RSR_CHECK_EQ(row.size(), cols);

  // Hungarian with potentials, 1-indexed (e-maxx formulation), O(r^2 c).
  std::vector<double> u(rows + 1, 0.0), v(cols + 1, 0.0);
  std::vector<size_t> match_col(cols + 1, 0);  // col -> row (0 = unmatched)
  std::vector<size_t> way(cols + 1, 0);

  for (size_t i = 1; i <= rows; ++i) {
    match_col[0] = i;
    size_t j0 = 0;
    std::vector<double> minv(cols + 1, kInf);
    std::vector<char> used(cols + 1, 0);
    do {
      used[j0] = 1;
      size_t i0 = match_col[j0];
      size_t j1 = 0;
      double delta = kInf;
      for (size_t j = 1; j <= cols; ++j) {
        if (used[j]) continue;
        double cur = cost[i0 - 1][j - 1] - u[i0] - v[j];
        if (cur < minv[j]) {
          minv[j] = cur;
          way[j] = j0;
        }
        if (minv[j] < delta) {
          delta = minv[j];
          j1 = j;
        }
      }
      for (size_t j = 0; j <= cols; ++j) {
        if (used[j]) {
          u[match_col[j]] += delta;
          v[j] -= delta;
        } else {
          minv[j] -= delta;
        }
      }
      j0 = j1;
    } while (match_col[j0] != 0);
    do {
      size_t j1 = way[j0];
      match_col[j0] = match_col[j1];
      j0 = j1;
    } while (j0 != 0);
  }

  AssignmentResult result;
  result.row_to_col.assign(rows, -1);
  for (size_t j = 1; j <= cols; ++j) {
    if (match_col[j] != 0) {
      result.row_to_col[match_col[j] - 1] = static_cast<int>(j - 1);
    }
  }
  for (size_t r = 0; r < rows; ++r) {
    RSR_CHECK(result.row_to_col[r] >= 0);
    result.cost += cost[r][static_cast<size_t>(result.row_to_col[r])];
  }
  return result;
}


bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// The metrics written out plainly, one pair at a time, as the row kernels
/// stood before the blocked matrix shared their definitions: an oracle for
/// the per-pair arithmetic itself, not only for the blocking.
double TextbookDistance(MetricKind kind, const Coord* a, const Coord* b,
                        size_t dim) {
  switch (kind) {
    case MetricKind::kHamming: {
      int64_t count = 0;
      for (size_t i = 0; i < dim; ++i) count += (a[i] != b[i]) ? 1 : 0;
      return static_cast<double>(count);
    }
    case MetricKind::kL1: {
      uint64_t sum = 0;
      for (size_t i = 0; i < dim; ++i) {
        sum += static_cast<uint64_t>(std::llabs(a[i] - b[i]));
      }
      return static_cast<double>(static_cast<int64_t>(sum));
    }
    case MetricKind::kL2: {
      double sum = 0.0;
      for (size_t i = 0; i < dim; ++i) {
        double diff = static_cast<double>(a[i] - b[i]);
        sum += diff * diff;
      }
      return std::sqrt(sum);
    }
  }
  return -1.0;
}

/// Coordinates drawn from {0, delta, uniform [0, delta]}: the extremes give
/// the largest differences the metric kernels must convert and sum.
PointStore ExtremeStore(size_t n, size_t dim, Coord delta, Rng* rng) {
  PointStore store(dim);
  for (size_t i = 0; i < n; ++i) {
    Coord* row = store.AppendRow();
    for (size_t c = 0; c < dim; ++c) {
      const uint64_t pick = rng->Below(3);
      row[c] = pick == 0   ? 0
               : pick == 1 ? delta
                           : static_cast<Coord>(rng->Below(
                                 static_cast<uint64_t>(delta) + 1));
    }
  }
  return store;
}

TEST(RepairOracleTest, DistanceMatrixMatchesPerPairDistanceBitForBit) {
  const Coord deltas[] = {1, 1023, (Coord{1} << 53) + 1, Coord{1} << 62};
  const size_t dims[] = {1, 2, 3, 7, 8, 9, 16, 17, 33};
  // Column counts below, at and off the kernel's block width.
  const size_t col_counts[] = {1, 5, 8, 13, 16, 23};
  Rng rng(31);
  for (MetricKind kind :
       {MetricKind::kHamming, MetricKind::kL1, MetricKind::kL2}) {
    const Metric metric(kind);
    for (Coord delta : deltas) {
      for (size_t dim : dims) {
        for (size_t cols : col_counts) {
          PointStore x = ExtremeStore(3, dim, delta, &rng);
          PointStore y = ExtremeStore(cols, dim, delta, &rng);
          const CostMatrix cost = DistanceMatrix(x, y, metric);
          ASSERT_EQ(cost.size(), x.size());
          for (size_t i = 0; i < x.size(); ++i) {
            ASSERT_EQ(cost[i].size(), cols);
            for (size_t j = 0; j < cols; ++j) {
              const double want = metric.Distance(x.row(i), y.row(j), dim);
              ASSERT_TRUE(SameBits(cost[i][j], want))
                  << metric.Name() << " delta " << delta << " dim " << dim
                  << " pair (" << i << ", " << j << "): " << cost[i][j]
                  << " vs " << want;
              ASSERT_TRUE(SameBits(
                  want, TextbookDistance(kind, x.row(i), y.row(j), dim)))
                  << metric.Name() << " delta " << delta << " dim " << dim;
            }
          }
        }
      }
    }
  }
}

/// Compares both routines on `reps` matrices of every shape rows x cols
/// with rows in {1, cols / 2, cols}, entries drawn by `draw`.
template <typename Draw>
void ExpectSameAssignments(const char* what, Draw draw) {
  const size_t col_counts[] = {1, 2, 7, 16, 33, 64};
  for (size_t cols : col_counts) {
    for (size_t rows : {size_t{1}, cols / 2, cols}) {
      if (rows == 0) continue;
      for (int rep = 0; rep < 4; ++rep) {
        CostMatrix cost(rows, std::vector<double>(cols));
        for (auto& row : cost) {
          for (double& c : row) c = draw();
        }
        const AssignmentResult got = MinCostAssignment(cost);
        const AssignmentResult want = ReferenceMinCostAssignment(cost);
        EXPECT_EQ(got.row_to_col, want.row_to_col)
            << what << " " << rows << "x" << cols;
        EXPECT_TRUE(SameBits(got.cost, want.cost))
            << what << " " << rows << "x" << cols << ": " << got.cost
            << " vs " << want.cost;
      }
    }
  }
}

TEST(RepairOracleTest, AssignmentMatchesReferenceOnRealMatrices) {
  Rng rng(33);
  ExpectSameAssignments("real", [&] { return rng.UniformDouble() * 100.0; });
}

TEST(RepairOracleTest, AssignmentMatchesReferenceOnTieHeavyMatrices) {
  // Entries in {0, 1, 2}: many optimal matchings, so the result is decided
  // by the tie-break alone.
  Rng rng(34);
  ExpectSameAssignments("ties",
                        [&] { return static_cast<double>(rng.Below(3)); });
}

}  // namespace
}  // namespace rsr

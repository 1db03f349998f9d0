// Tests for emd/: min-cost matching against brute force, partial-matching
// costs (EMD_t for all t), and the EMD/EMD_k front-ends (Defs 3.2/3.3).
#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "emd/assignment.h"
#include "emd/emd.h"
#include "util/random.h"
#include "workload/generators.h"

namespace rsr {
namespace {

/// Brute-force min-cost perfect matching over all permutations (r == c <= 8).
double BruteForceAssignment(const CostMatrix& cost) {
  size_t n = cost.size();
  std::vector<size_t> perm(n);
  std::iota(perm.begin(), perm.end(), size_t{0});
  double best = std::numeric_limits<double>::infinity();
  do {
    double total = 0;
    for (size_t i = 0; i < n; ++i) total += cost[i][perm[i]];
    best = std::min(best, total);
  } while (std::next_permutation(perm.begin(), perm.end()));
  return best;
}

/// Brute-force min-cost t-matching (small sizes): choose t rows, t cols, and
/// a bijection between them.
double BruteForcePartial(const CostMatrix& cost, size_t t) {
  size_t r = cost.size(), c = cost[0].size();
  double best = t == 0 ? 0.0 : std::numeric_limits<double>::infinity();
  std::vector<char> row_pick(r, 0);
  std::fill(row_pick.end() - static_cast<long>(t), row_pick.end(), 1);
  std::sort(row_pick.begin(), row_pick.end());
  do {
    std::vector<size_t> rows;
    for (size_t i = 0; i < r; ++i) {
      if (row_pick[i]) rows.push_back(i);
    }
    std::vector<char> col_pick(c, 0);
    std::fill(col_pick.end() - static_cast<long>(t), col_pick.end(), 1);
    std::sort(col_pick.begin(), col_pick.end());
    do {
      std::vector<size_t> cols;
      for (size_t j = 0; j < c; ++j) {
        if (col_pick[j]) cols.push_back(j);
      }
      std::sort(cols.begin(), cols.end());
      do {
        double total = 0;
        for (size_t i = 0; i < t; ++i) total += cost[rows[i]][cols[i]];
        best = std::min(best, total);
      } while (std::next_permutation(cols.begin(), cols.end()));
    } while (std::next_permutation(col_pick.begin(), col_pick.end()));
  } while (std::next_permutation(row_pick.begin(), row_pick.end()));
  return best;
}

CostMatrix RandomMatrix(size_t r, size_t c, Rng* rng) {
  CostMatrix cost(r, std::vector<double>(c));
  for (auto& row : cost) {
    for (auto& v : row) v = static_cast<double>(rng->Below(100));
  }
  return cost;
}

// ------------------------------------------------------------ Hungarian --

TEST(AssignmentTest, TrivialOneByOne) {
  AssignmentResult result = MinCostAssignment({{7.0}});
  EXPECT_EQ(result.cost, 7.0);
  EXPECT_EQ(result.row_to_col[0], 0);
}

TEST(AssignmentTest, KnownSmallCase) {
  CostMatrix cost = {{4, 1, 3}, {2, 0, 5}, {3, 2, 2}};
  AssignmentResult result = MinCostAssignment(cost);
  EXPECT_EQ(result.cost, 5.0);  // 1 + 2 + 2
}

TEST(AssignmentTest, MatchesBruteForceSquare) {
  Rng rng(1);
  for (int trial = 0; trial < 60; ++trial) {
    size_t n = 2 + rng.Below(6);  // up to 7x7
    CostMatrix cost = RandomMatrix(n, n, &rng);
    EXPECT_DOUBLE_EQ(MinCostAssignment(cost).cost, BruteForceAssignment(cost))
        << "trial " << trial;
  }
}

TEST(AssignmentTest, RectangularMatchesExhaustive) {
  Rng rng(2);
  for (int trial = 0; trial < 40; ++trial) {
    size_t r = 1 + rng.Below(4);
    size_t c = r + rng.Below(4);
    CostMatrix cost = RandomMatrix(r, c, &rng);
    double got = MinCostAssignment(cost).cost;
    double expect = BruteForcePartial(cost, r);  // all rows matched
    EXPECT_DOUBLE_EQ(got, expect) << "trial " << trial;
  }
}

TEST(AssignmentTest, AssignmentIsValidPermutation) {
  Rng rng(3);
  CostMatrix cost = RandomMatrix(6, 9, &rng);
  AssignmentResult result = MinCostAssignment(cost);
  std::vector<char> used(9, 0);
  for (int col : result.row_to_col) {
    ASSERT_GE(col, 0);
    ASSERT_LT(col, 9);
    EXPECT_FALSE(used[static_cast<size_t>(col)]);
    used[static_cast<size_t>(col)] = 1;
  }
}

// ------------------------------------------------------ Partial matching --

TEST(PartialTest, CostsMonotoneNondecreasing) {
  Rng rng(4);
  CostMatrix cost = RandomMatrix(6, 6, &rng);
  PartialMatchingResult result = MinCostPartialCosts(cost);
  for (size_t t = 1; t < result.costs.size(); ++t) {
    EXPECT_GE(result.costs[t], result.costs[t - 1]);
  }
}

TEST(PartialTest, FullMatchingEqualsHungarian) {
  Rng rng(5);
  for (int trial = 0; trial < 30; ++trial) {
    size_t n = 2 + rng.Below(6);
    CostMatrix cost = RandomMatrix(n, n, &rng);
    PartialMatchingResult partial = MinCostPartialCosts(cost);
    EXPECT_NEAR(partial.costs[n], MinCostAssignment(cost).cost, 1e-9)
        << "trial " << trial;
  }
}

TEST(PartialTest, EveryPrefixMatchesBruteForce) {
  Rng rng(6);
  for (int trial = 0; trial < 25; ++trial) {
    size_t r = 2 + rng.Below(4);  // up to 5
    size_t c = 2 + rng.Below(4);
    CostMatrix cost = RandomMatrix(r, c, &rng);
    PartialMatchingResult partial = MinCostPartialCosts(cost);
    for (size_t t = 0; t <= std::min(r, c); ++t) {
      EXPECT_NEAR(partial.costs[t], BruteForcePartial(cost, t), 1e-9)
          << "trial " << trial << " t=" << t;
    }
  }
}

TEST(PartialTest, RectangularWide) {
  CostMatrix cost = {{5, 1, 9, 2}, {4, 8, 1, 7}};
  PartialMatchingResult partial = MinCostPartialCosts(cost);
  EXPECT_DOUBLE_EQ(partial.costs[0], 0.0);
  EXPECT_DOUBLE_EQ(partial.costs[1], 1.0);
  EXPECT_DOUBLE_EQ(partial.costs[2], 2.0);  // 1 + 1
}

// ----------------------------------------------------------------- EMD --

PointStore Pts(std::vector<std::vector<Coord>> raw) {
  PointStore out(raw[0].size());
  for (auto& coords : raw) out.Append(Point(std::move(coords)));
  return out;
}

TEST(EmdTest, IdenticalSetsZero) {
  Rng rng(7);
  PointStore x = GenerateUniformStore(10, 3, 50, &rng);
  EXPECT_EQ(EmdExact(x, x, Metric(MetricKind::kL1)), 0.0);
}

TEST(EmdTest, SinglePair) {
  PointStore x = Pts({{0, 0}});
  PointStore y = Pts({{3, 4}});
  EXPECT_DOUBLE_EQ(EmdExact(x, y, Metric(MetricKind::kL2)), 5.0);
  EXPECT_DOUBLE_EQ(EmdExact(x, y, Metric(MetricKind::kL1)), 7.0);
}

TEST(EmdTest, PicksOptimalPairing) {
  PointStore x = Pts({{0}, {10}});
  PointStore y = Pts({{11}, {1}});
  // Optimal pairing: 0<->1 and 10<->11, cost 2 (not 11 + 9).
  EXPECT_DOUBLE_EQ(EmdExact(x, y, Metric(MetricKind::kL1)), 2.0);
}

TEST(EmdTest, SymmetricInArguments) {
  Rng rng(8);
  PointStore x = GenerateUniformStore(8, 2, 40, &rng);
  PointStore y = GenerateUniformStore(8, 2, 40, &rng);
  Metric metric(MetricKind::kL2);
  EXPECT_NEAR(EmdExact(x, y, metric), EmdExact(y, x, metric), 1e-9);
}

TEST(EmdTest, ExactIsAtMostAnyMatchingCost) {
  // EMD is the minimum over perfect matchings: the identity pairing and
  // random pairings can only cost as much or more.
  Rng rng(15);
  Metric metric(MetricKind::kL2);
  for (int trial = 0; trial < 30; ++trial) {
    const size_t n = 2 + rng.Below(10);
    PointStore x = GenerateUniformStore(n, 2, 255, &rng);
    PointStore y = GenerateUniformStore(n, 2, 255, &rng);
    const double exact = EmdExact(x, y, metric);
    std::vector<size_t> perm(n);
    std::iota(perm.begin(), perm.end(), size_t{0});
    for (int shuffle = 0; shuffle < 5; ++shuffle) {
      double cost = 0;
      for (size_t i = 0; i < n; ++i) cost += metric.Distance(x[i], y[perm[i]]);
      EXPECT_LE(exact, cost + 1e-9) << "trial " << trial;
      for (size_t i = n - 1; i > 0; --i) {
        std::swap(perm[i], perm[rng.Below(i + 1)]);
      }
    }
  }
}

TEST(EmdTest, TriangleInequality) {
  Rng rng(16);
  for (MetricKind kind : {MetricKind::kL1, MetricKind::kL2}) {
    Metric metric(kind);
    for (int trial = 0; trial < 20; ++trial) {
      const size_t n = 1 + rng.Below(8);
      PointStore x = GenerateUniformStore(n, 3, 63, &rng);
      PointStore y = GenerateUniformStore(n, 3, 63, &rng);
      PointStore z = GenerateUniformStore(n, 3, 63, &rng);
      EXPECT_LE(EmdExact(x, z, metric),
                EmdExact(x, y, metric) + EmdExact(y, z, metric) + 1e-9)
          << "trial " << trial;
    }
  }
}

TEST(EmdKTest, ZeroKEqualsEmd) {
  Rng rng(9);
  PointStore x = GenerateUniformStore(7, 2, 30, &rng);
  PointStore y = GenerateUniformStore(7, 2, 30, &rng);
  Metric metric(MetricKind::kL1);
  EXPECT_NEAR(EmdK(x, y, metric, 0), EmdExact(x, y, metric), 1e-9);
}

TEST(EmdKTest, RemovingOutlierDropsCost) {
  // One far outlier in x: EMD_1 excludes it entirely.
  PointStore x = Pts({{0}, {1}, {1000}});
  PointStore y = Pts({{0}, {1}, {2}});
  Metric metric(MetricKind::kL1);
  EXPECT_DOUBLE_EQ(EmdK(x, y, metric, 0), 998.0);
  EXPECT_DOUBLE_EQ(EmdK(x, y, metric, 1), 0.0);
}

TEST(EmdKTest, MonotoneNonincreasingInK) {
  Rng rng(10);
  PointStore x = GenerateUniformStore(9, 2, 50, &rng);
  PointStore y = GenerateUniformStore(9, 2, 50, &rng);
  std::vector<double> all = EmdKAll(x, y, Metric(MetricKind::kL2));
  for (size_t k = 1; k < all.size(); ++k) {
    EXPECT_LE(all[k], all[k - 1] + 1e-9);
  }
}

TEST(EmdKTest, AllValuesMatchSingleQueries) {
  Rng rng(11);
  PointStore x = GenerateUniformStore(6, 2, 50, &rng);
  PointStore y = GenerateUniformStore(6, 2, 50, &rng);
  Metric metric(MetricKind::kL1);
  std::vector<double> all = EmdKAll(x, y, metric);
  for (size_t k = 0; k < x.size(); ++k) {
    EXPECT_NEAR(all[k], EmdK(x, y, metric, k), 1e-9);
  }
}

TEST(EmdKTest, DefinitionViaExhaustiveSubsets) {
  // EMD_k = min over (n-k)-subsets of each side of the best matching; check
  // against BruteForcePartial on the distance matrix.
  Rng rng(12);
  for (int trial = 0; trial < 10; ++trial) {
    PointStore x = GenerateUniformStore(5, 2, 20, &rng);
    PointStore y = GenerateUniformStore(5, 2, 20, &rng);
    Metric metric(MetricKind::kL1);
    CostMatrix cost = DistanceMatrix(x, y, metric);
    for (size_t k = 0; k < 5; ++k) {
      EXPECT_NEAR(EmdK(x, y, metric, k), BruteForcePartial(cost, 5 - k), 1e-9)
          << "trial " << trial << " k=" << k;
    }
  }
}

TEST(EmdTest, DistanceMatrixShape) {
  Rng rng(13);
  PointStore x = GenerateUniformStore(3, 2, 10, &rng);
  PointStore y = GenerateUniformStore(5, 2, 10, &rng);
  CostMatrix cost = DistanceMatrix(x, y, Metric(MetricKind::kL2));
  ASSERT_EQ(cost.size(), 3u);
  ASSERT_EQ(cost[0].size(), 5u);
  EXPECT_DOUBLE_EQ(cost[1][2], L2Distance(x.row(1), y.row(2), 2));
}

}  // namespace
}  // namespace rsr

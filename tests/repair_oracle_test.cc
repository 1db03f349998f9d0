// Oracles for Algorithm 1's repair step (MinCostMatching, and the
// DistanceMatrix + MinCostAssignment wrappers over the same kernels).
//
// DistanceMatrix computes blocks of pairs side by side; each entry must still
// equal the per-pair Metric::Distance bit for bit, and both must equal the
// metric written out plainly. MinCostAssignment must
// return exactly what the straightforward e-maxx Hungarian returns, including
// which of several optimal matchings it picks (its lowest-index tie-break
// decides which of Bob's points are replaced). The repair's Hungarian reads
// its cost rows from a row source that computes each row when it is
// scanned, into one buffer; it must return the same, on both kernel arms,
// also when it scans a row more than once. MinCostMatching first tries an
// exact-copy pass, which must return the reference's answer whenever every
// X_B row has an equal S_B row left, and leave every other input, the
// wrapping l1 pair included, to the Hungarian.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "emd/assignment.h"
#include "emd/emd.h"
#include "emd/repair_kernels.h"
#include "geometry/metric.h"
#include "geometry/point_store.h"
#include "util/logging.h"
#include "util/cpu_features.h"
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

/// Column counts 1-9, 15, 17, 31 and 33: below, at and past each vector
/// width of the kernels (4-wide scans, 8-column distance blocks), so every
/// tail length runs.
constexpr size_t kTailColCounts[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 17, 31, 33};

TEST(RepairOracleTest, DistanceMatrixMatchesAtFullRangeAndEveryColumnTail) {
  // INT64_MAX: coordinate differences span all of int64 but its minimum,
  // so the int64 -> double conversion meets every exponent and rounds.
  const Coord deltas[] = {std::numeric_limits<Coord>::max(), 1023};
  const size_t dims[] = {1, 4, 16};
  Rng rng(35);
  for (MetricKind kind :
       {MetricKind::kHamming, MetricKind::kL1, MetricKind::kL2}) {
    const Metric metric(kind);
    for (Coord delta : deltas) {
      for (size_t dim : dims) {
        for (size_t cols : kTailColCounts) {
          PointStore x = ExtremeStore(3, dim, delta, &rng);
          PointStore y = ExtremeStore(cols, dim, delta, &rng);
          const CostMatrix cost = DistanceMatrix(x, y, metric);
          for (size_t i = 0; i < x.size(); ++i) {
            for (size_t j = 0; j < cols; ++j) {
              const double want =
                  TextbookDistance(kind, x.row(i), y.row(j), dim);
              ASSERT_TRUE(SameBits(cost[i][j], want))
                  << metric.Name() << " delta " << delta << " dim " << dim
                  << " cols " << cols << " pair (" << i << ", " << j
                  << "): " << cost[i][j] << " vs " << want;
              ASSERT_TRUE(
                  SameBits(want, metric.Distance(x.row(i), y.row(j), dim)));
            }
          }
        }
      }
    }
  }
}

constexpr size_t kAssignmentColCounts[] = {1, 2, 7, 16, 33, 64};

/// Compares both routines on `reps` matrices of every shape rows x cols
/// with rows in {1, cols / 2, cols}, entries drawn by `draw`.
template <typename Draw>
void ExpectSameAssignments(
    const char* what, Draw draw,
    std::span<const size_t> col_counts = kAssignmentColCounts) {
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

TEST(RepairOracleTest, AssignmentMatchesReferenceAtEveryColumnTail) {
  Rng rng(36);
  ExpectSameAssignments(
      "real", [&] { return rng.UniformDouble() * 100.0; }, kTailColCounts);
  ExpectSameAssignments(
      "ties", [&] { return static_cast<double>(rng.Below(3)); },
      kTailColCounts);
}

TEST(RepairOracleTest, AssignmentMatchesReferenceOnDuplicatedRepairRows) {
  // The repair's shape: X_B rows are copies of S_B points. Drawing 64 rows
  // from 16 points makes four rows compete for each zero-cost column, so
  // rows are inserted through long augmenting paths.
  Rng rng(37);
  const PointStore s_b = ExtremeStore(1024, 8, 1023, &rng);
  PointStore x_b(8);
  for (size_t r = 0; r < 64; ++r) x_b.Append(s_b[rng.Below(16)]);
  const CostMatrix cost = DistanceMatrix(x_b, s_b, Metric(MetricKind::kL2));
  const AssignmentResult got = MinCostAssignment(cost);
  const AssignmentResult want = ReferenceMinCostAssignment(cost);
  EXPECT_EQ(got.row_to_col, want.row_to_col);
  EXPECT_TRUE(SameBits(got.cost, want.cost))
      << got.cost << " vs " << want.cost;
}

// ---- The row-source Hungarian and the matrix-free repair ---------------

using emd_internal::RepairArm;

/// Both kernel arms where this CPU can run them; kAvx2 built without AVX2
/// code generation runs the scalar loops.
std::vector<RepairArm> RunnableArms() {
  std::vector<RepairArm> arms = {RepairArm::kScalar};
  if (!emd_internal::kAvx2RepairKernelsCompiled || CpuSupportsAvx2()) {
    arms.push_back(RepairArm::kAvx2);
  }
  return arms;
}

/// A row source like the repair's: every call writes the requested row
/// into the one buffer (so a stale row pointer would read another row's
/// costs) and counts the scans.
struct CountingRows {
  const CostMatrix& cost;
  mutable std::vector<double> buffer = std::vector<double>(cost[0].size());
  mutable size_t scans = 0;
  const double* operator()(size_t i) const {
    ++scans;
    std::copy(cost[i].begin(), cost[i].end(), buffer.begin());
    return buffer.data();
  }
};

/// The row-source Hungarian on `arm` against the reference on `cost`;
/// returns the number of scans.
size_t ExpectRowSourceMatchesReference(RepairArm arm, const CostMatrix& cost,
                                       const std::string& what) {
  const CountingRows rows{cost};
  const std::vector<int> got = emd_internal::MinCostAssignmentOn(
      arm, cost.size(), cost[0].size(), emd_internal::CostRowFn(rows));
  EXPECT_EQ(got, ReferenceMinCostAssignment(cost).row_to_col)
      << what << " on " << emd_internal::RepairArmName(arm);
  EXPECT_GE(rows.scans, cost.size()) << what;
  return rows.scans;
}

TEST(RepairOracleTest, RowSourceAssignmentMatchesReferenceOnBothArms) {
  Rng rng(38);
  // Signed zeros: +0.0 and -0.0 compare equal, so the lowest column must
  // win whichever of them it holds.
  const double zero_pool[] = {0.0, -0.0, 1.0, 2.0};
  const struct {
    const char* what;
    std::function<double()> draw;
  } kinds[] = {
      {"real", [&] { return rng.UniformDouble() * 100.0; }},
      {"ties", [&] { return static_cast<double>(rng.Below(3)); }},
      {"signed zeros", [&] { return zero_pool[rng.Below(4)]; }},
  };
  size_t scans = 0;
  size_t rows_inserted = 0;
  for (RepairArm arm : RunnableArms()) {
    for (const auto& kind : kinds) {
      for (size_t cols : kTailColCounts) {
        for (size_t rows : {size_t{1}, (cols + 1) / 2, cols}) {
          CostMatrix cost(rows, std::vector<double>(cols));
          for (auto& row : cost) {
            for (double& c : row) c = kind.draw();
          }
          scans += ExpectRowSourceMatchesReference(
              arm, cost,
              std::string(kind.what) + " " + std::to_string(rows) + "x" +
                  std::to_string(cols));
          rows_inserted += rows;
        }
      }
    }
  }
  // Tie-heavy matrices insert rows through augmenting paths, which scan
  // rows already matched once more.
  EXPECT_GT(scans, rows_inserted);
}

/// The duplicated-rows repair shape of AssignmentMatchesReferenceOn-
/// DuplicatedRepairRows: 64 X_B rows drawn from 16 S_B points.
struct DuplicatedRows {
  PointStore s_b;
  PointStore x_b;
};

DuplicatedRows MakeDuplicatedRows(size_t dim, Coord delta, Rng* rng) {
  DuplicatedRows in{ExtremeStore(1024, dim, delta, rng), PointStore(dim)};
  for (size_t r = 0; r < 64; ++r) in.x_b.Append(in.s_b[rng->Below(16)]);
  return in;
}

TEST(RepairOracleTest, RowSourceAssignmentRescansRowsBitForBit) {
  // Four rows compete for each zero-cost column, so most rows are scanned
  // again while later rows are inserted; each rescan must see the same
  // row, recomputed.
  Rng rng(37);
  const DuplicatedRows in = MakeDuplicatedRows(8, 1023, &rng);
  const CostMatrix cost =
      DistanceMatrix(in.x_b, in.s_b, Metric(MetricKind::kL2));
  for (RepairArm arm : RunnableArms()) {
    const size_t scans =
        ExpectRowSourceMatchesReference(arm, cost, "duplicated rows");
    EXPECT_GT(scans, 2 * in.x_b.size()) << "rows are rescanned";
  }
}

TEST(RepairOracleTest, MatrixFreeRepairMatchesReferenceOnBothArms) {
  // MinCostMatching computes each cost row when it is scanned and sums
  // Metric::Distance over the matched pairs; the reference runs on the
  // held matrix. Every recomputed matched cost (the repair sorts by them)
  // must be the matrix entry, bit for bit.
  Rng rng(39);
  for (MetricKind kind :
       {MetricKind::kHamming, MetricKind::kL1, MetricKind::kL2}) {
    const Metric metric(kind);
    for (Coord delta : {Coord{1023}, std::numeric_limits<Coord>::max()}) {
      for (size_t dim : {size_t{3}, size_t{16}}) {
        const DuplicatedRows in = MakeDuplicatedRows(dim, delta, &rng);
        const CostMatrix cost = DistanceMatrix(in.x_b, in.s_b, metric);
        const AssignmentResult want = ReferenceMinCostAssignment(cost);
        for (RepairArm arm : RunnableArms()) {
          const AssignmentResult got =
              emd_internal::MinCostMatchingOn(arm, in.x_b, in.s_b, metric);
          const char* arm_name = emd_internal::RepairArmName(arm);
          ASSERT_EQ(got.row_to_col, want.row_to_col)
              << metric.Name() << " delta " << delta << " dim " << dim
              << " on " << arm_name;
          EXPECT_TRUE(SameBits(got.cost, want.cost))
              << metric.Name() << " delta " << delta << " dim " << dim
              << " on " << arm_name << ": " << got.cost << " vs "
              << want.cost;
          for (size_t r = 0; r < in.x_b.size(); ++r) {
            const size_t col = static_cast<size_t>(got.row_to_col[r]);
            ASSERT_TRUE(SameBits(
                metric.Distance(in.x_b.row(r), in.s_b.row(col), dim),
                cost[r][col]))
                << metric.Name() << " row " << r;
          }
        }
      }
    }
  }
}

// ---- The exact-copy pass of MinCostMatching ------------------------------

/// S_B with repeated values: `distinct` ExtremeStore draws, value v held
/// 1 + v % 3 times, in a shuffled row order. Small deltas add repeats of
/// their own.
PointStore StoreWithRepeats(size_t distinct, size_t dim, Coord delta,
                            Rng* rng) {
  const PointStore values = ExtremeStore(distinct, dim, delta, rng);
  std::vector<size_t> order;
  for (size_t v = 0; v < distinct; ++v) order.insert(order.end(), 1 + v % 3, v);
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng->Below(i)]);
  }
  PointStore store(dim);
  for (size_t v : order) store.Append(values[v]);
  return store;
}

/// `rows` distinct row indices of `s_b`, in a random order: a sub-multiset
/// of S_B, as an honest decode without value error gives X_B.
PointStore SubMultiset(const PointStore& s_b, size_t rows, Rng* rng) {
  std::vector<size_t> index(s_b.size());
  for (size_t i = 0; i < index.size(); ++i) index[i] = i;
  for (size_t i = 0; i < rows; ++i) {
    std::swap(index[i], index[i + rng->Below(index.size() - i)]);
  }
  PointStore x_b(s_b.dim());
  for (size_t i = 0; i < rows; ++i) x_b.Append(s_b[index[i]]);
  return x_b;
}

/// MinCostMatching on every runnable arm against the reference on the
/// held matrix: row_to_col, and cost bit for bit.
void ExpectMatchingMatchesReference(const PointStore& x_b,
                                    const PointStore& s_b,
                                    const Metric& metric,
                                    const std::string& what) {
  const AssignmentResult want =
      ReferenceMinCostAssignment(DistanceMatrix(x_b, s_b, metric));
  for (RepairArm arm : RunnableArms()) {
    const AssignmentResult got =
        emd_internal::MinCostMatchingOn(arm, x_b, s_b, metric);
    EXPECT_EQ(got.row_to_col, want.row_to_col)
        << metric.Name() << " " << what << " on "
        << emd_internal::RepairArmName(arm);
    EXPECT_TRUE(SameBits(got.cost, want.cost))
        << metric.Name() << " " << what << " on "
        << emd_internal::RepairArmName(arm) << ": " << got.cost << " vs "
        << want.cost;
  }
}

constexpr Coord kPassDeltas[] = {1, 1023, std::numeric_limits<Coord>::max()};

TEST(RepairOracleTest, ExactCopyPassMatchesReferenceOnSubMultisets) {
  // Every X_B row is an S_B row, each value at most as often as S_B holds
  // it: the pass assigns every row (the l1 guard sends delta = INT64_MAX
  // to the Hungarian). rows = |S_B| takes every copy of every value;
  // fewer rows leave S_B more copies of some values than X_B holds.
  Rng rng(40);
  for (MetricKind kind :
       {MetricKind::kHamming, MetricKind::kL1, MetricKind::kL2}) {
    const Metric metric(kind);
    for (Coord delta : kPassDeltas) {
      for (size_t dim : {size_t{1}, size_t{3}, size_t{16}}) {
        for (size_t distinct : {size_t{1}, size_t{4}, size_t{21}}) {
          const PointStore s_b = StoreWithRepeats(distinct, dim, delta, &rng);
          for (size_t rows : {size_t{1}, s_b.size() / 2, s_b.size()}) {
            if (rows == 0) continue;
            for (int rep = 0; rep < 3; ++rep) {
              const PointStore x_b = SubMultiset(s_b, rows, &rng);
              const AssignmentResult want =
                  ReferenceMinCostAssignment(DistanceMatrix(x_b, s_b, metric));
              if (kind != MetricKind::kL1 || delta != kPassDeltas[2]) {
                ASSERT_EQ(want.cost, 0.0) << "X_B is a sub-multiset";
              }
              ExpectMatchingMatchesReference(
                  x_b, s_b, metric,
                  "delta " + std::to_string(delta) + " dim " +
                      std::to_string(dim) + " " + std::to_string(rows) +
                      "x" + std::to_string(s_b.size()));
            }
          }
        }
      }
    }
  }
}

TEST(RepairOracleTest, ExactCopyPassFallsBackToTheHungarian) {
  // Inputs the pass cannot assign in full. Each is the Hungarian's to
  // decide, and the result must still be the reference's.
  Rng rng(41);
  for (MetricKind kind :
       {MetricKind::kHamming, MetricKind::kL1, MetricKind::kL2}) {
    const Metric metric(kind);
    for (Coord delta : kPassDeltas) {
      for (size_t dim : {size_t{1}, size_t{3}, size_t{16}}) {
        const PointStore s_b = StoreWithRepeats(21, dim, delta, &rng);
        const std::string shape =
            "delta " + std::to_string(delta) + " dim " + std::to_string(dim);
        for (size_t rows : {size_t{1}, size_t{8}, s_b.size()}) {
          // One row moved by 1 in one coordinate, inside [0, delta]. At
          // small deltas the moved row may equal another value of S_B.
          const PointStore moved = SubMultiset(s_b, rows, &rng);
          PointStore x_b(dim);
          const size_t r = rng.Below(rows);
          for (size_t i = 0; i < rows; ++i) {
            Coord* row = x_b.AppendRow();
            std::copy(moved.row(i), moved.row(i) + dim, row);
            if (i != r) continue;
            const size_t c = rng.Below(dim);
            row[c] = row[c] == delta ? delta - 1 : row[c] + 1;
          }
          ExpectMatchingMatchesReference(
              x_b, s_b, metric,
              shape + " one row moved, " + std::to_string(rows) + " rows");
        }
        // One value once more in X_B than S_B holds it.
        const PointRef value = s_b[rng.Below(s_b.size())];
        size_t copies = 0;
        for (size_t j = 0; j < s_b.size(); ++j) {
          if (s_b[j] == value) ++copies;
        }
        ASSERT_LT(copies, s_b.size()) << shape;
        PointStore x_b(dim);
        for (size_t i = 0; i <= copies; ++i) x_b.Append(value);
        ExpectMatchingMatchesReference(x_b, s_b, metric,
                                       shape + " one value repeated");
      }
    }
  }
}

TEST(RepairOracleTest, ExactCopyPassLeavesWrappingL1ToTheHungarian) {
  // (M, M) against (0, 0) sums 2^64 - 2, which L1Pair reads as -2: the
  // Hungarian takes that column, not the equal row after it.
  const Coord m = std::numeric_limits<Coord>::max();
  PointStore s_b(2);
  s_b.Append(Point(std::vector<Coord>{0, 0}));
  s_b.Append(Point(std::vector<Coord>{m, m}));
  PointStore x_b(2);
  x_b.Append(Point(std::vector<Coord>{m, m}));
  const Metric metric(MetricKind::kL1);
  const AssignmentResult want =
      ReferenceMinCostAssignment(DistanceMatrix(x_b, s_b, metric));
  ASSERT_EQ(want.row_to_col, std::vector<int>{0});
  ASSERT_EQ(want.cost, -2.0);
  ExpectMatchingMatchesReference(x_b, s_b, metric, "wrapping pair");
}

}  // namespace
}  // namespace rsr

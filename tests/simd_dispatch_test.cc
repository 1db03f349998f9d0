// Runtime CPU dispatch and scalar-vs-AVX2 bit-identity for the batch
// kernels (lsh/batch_kernels*.{h,cc}, util/cpu_features.h) and the repair
// kernels (emd/repair_kernels*.{h,cc}); the level-key kernel's arms are
// compared in hashing_test.cc.
//
// The AVX2 entry points are called DIRECTLY here — not through the
// dispatcher — so the vector code is exercised even when the suite runs
// under RSR_FORCE_SCALAR=1 (the forced-scalar CI leg) and falls back to
// the scalar forwarders cleanly where AVX2 was not compiled. Coverage:
// dims {1, 3, 7, 8, 64, 65, 257, 1024}, batch sizes straddling every
// 4/8/16-way unroll boundary, output strides > 1, the column-major pipeline
// layout against the row-major scalar reference, and all four LSH families
// end-to-end against the virtual Eval reference. The repair arms are
// compared the same way, each arm chosen explicitly: distance matrices at
// every column tail up to the full int64 range, assignments on real,
// tie-heavy and signed-zero matrices, and the matrix-free repair matching,
// whose Hungarian computes each cost row when it scans it (and again when
// it rescans it).
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <functional>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "emd/repair_kernels.h"
#include "hashing/pairwise.h"
#include "hashing/pairwise_avx2.h"
#include "lsh/batch_kernels.h"
#include "lsh/batch_kernels_avx2.h"
#include "lsh/bit_sampling.h"
#include "lsh/grid.h"
#include "lsh/lsh_family.h"
#include "lsh/one_sided_grid.h"
#include "lsh/pstable.h"
#include "util/cpu_features.h"
#include "util/random.h"
#include "workload/generators.h"

namespace rsr {
namespace {

using lsh_internal::ColRowView;

constexpr size_t kDims[] = {1, 3, 7, 8, 64, 65, 257, 1024};
// Straddles the 4-way (grid), 8-way (dot row), and 16-way (dot cols)
// unrolls plus their scalar tails.
constexpr size_t kSizes[] = {0, 1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 33};
constexpr uint64_t kSentinel = 0xdeadbeefcafef00dULL;

// On any AVX2-capable host where the AVX2 translation unit was compiled,
// the dispatcher MUST select the vector kernels unless RSR_FORCE_SCALAR
// overrides it; anything else means the build silently benchmarked scalar
// code (the CI legs grep for exactly this).
TEST(SimdDispatchTest, DispatchMatchesCpuAndOverride) {
  const bool expect_avx2 = lsh_internal::kAvx2KernelsCompiled &&
                           CpuSupportsAvx2() && !ForceScalarKernels();
  EXPECT_STREQ(lsh_internal::ActiveBatchKernelName(),
               expect_avx2 ? "avx2" : "scalar");
}

// The level-key prefix hash (hashing/pairwise.cc) follows the same rule.
TEST(SimdDispatchTest, KeyDispatchMatchesCpuAndOverride) {
  const bool expect_avx2 = hashing_internal::kAvx2PairwiseCompiled &&
                           CpuSupportsAvx2() && !ForceScalarKernels();
  EXPECT_STREQ(
      hashing_internal::KeyArmName(hashing_internal::ActiveKeyArm()),
      expect_avx2 ? "avx2" : "scalar");
}

struct KernelInputs {
  std::vector<double> flat;     // n x dim, row-major
  std::vector<double> cols;     // dim x col_stride, column-major
  size_t col_stride = 0;
  std::vector<double> offsets;  // dim
  std::vector<double> direction;
  double w = 0;
  double offset = 0;
  uint64_t salt = 0;
};

KernelInputs MakeInputs(size_t n, size_t dim, size_t col_pad, uint64_t seed) {
  KernelInputs in;
  Rng rng(seed);
  in.flat.resize(n * dim);
  in.col_stride = n + col_pad;
  in.cols.assign(dim * in.col_stride, -1.0);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < dim; ++j) {
      // Signed integer coordinates (exactly representable) so lattice cells
      // cross zero, like real centered point sets.
      const Coord c = static_cast<Coord>(rng.Next() % 4096) - 2048;
      in.flat[i * dim + j] = static_cast<double>(c);
      in.cols[j * in.col_stride + i] = static_cast<double>(c);
    }
  }
  in.offsets.resize(dim);
  in.direction.resize(dim);
  for (size_t j = 0; j < dim; ++j) {
    in.offsets[j] = static_cast<double>(rng.Next() % 1000) / 57.0;
    in.direction[j] = static_cast<double>(rng.Next() % 2001) / 293.0 - 3.4;
  }
  in.w = 17.25;
  in.offset = static_cast<double>(rng.Next() % 100) / 7.0;
  in.salt = rng.Next();
  return in;
}

void ExpectStridedMatch(const std::vector<uint64_t>& got,
                        const std::vector<uint64_t>& want, size_t n,
                        size_t stride, const char* label, size_t dim) {
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(got[i * stride], want[i * stride])
        << label << " dim " << dim << " n " << n << " stride " << stride
        << " point " << i;
  }
  // Gap entries between strided writes must be untouched.
  for (size_t i = 0; stride > 1 && i + 1 < n * stride; i += stride) {
    ASSERT_EQ(got[i + 1], kSentinel) << label << " wrote outside its stride";
  }
}

TEST(SimdDispatchTest, Avx2KernelsBitIdenticalToScalarReference) {
  for (size_t dim : kDims) {
    for (size_t n : kSizes) {
      for (size_t stride : {size_t{1}, size_t{3}}) {
        const KernelInputs in = MakeInputs(n, dim, /*col_pad=*/2, 7919 * dim + n);
        std::vector<uint64_t> want(std::max<size_t>(n * stride, 1), kSentinel);
        std::vector<uint64_t> got(want);

        auto flat_row = [&in, dim](size_t i) { return in.flat.data() + i * dim; };
        auto col_row = [&in](size_t i) {
          return ColRowView{in.cols.data() + i, in.col_stride};
        };

        lsh_internal::GridHashBatch(flat_row, n, in.offsets.data(), dim, in.w,
                                    in.salt, want.data(), stride);
        lsh_internal::GridHashColsAvx2(in.cols.data(), in.col_stride, n, dim,
                                       in.offsets.data(), in.w, in.salt,
                                       got.data(), stride);
        std::vector<uint64_t> cols_want(want.size(), kSentinel);
        lsh_internal::GridHashBatch(col_row, n, in.offsets.data(), dim, in.w,
                                    in.salt, cols_want.data(), stride);
        ExpectStridedMatch(got, cols_want, n, stride, "GridHashCols", dim);
        // The column-major scalar reference must itself equal the row-major
        // one: layout changes nothing.
        ExpectStridedMatch(cols_want, want, n, stride, "GridHashColsRef", dim);

        want.assign(want.size(), kSentinel);
        got.assign(want.size(), kSentinel);
        lsh_internal::DotCellBatch(flat_row, n, in.direction.data(), dim,
                                   in.offset, in.w, want.data(), stride);
        lsh_internal::DotCellColsAvx2(in.cols.data(), in.col_stride, n, dim,
                                      in.direction.data(), in.offset, in.w,
                                      got.data(), stride);
        std::vector<uint64_t> dot_cols_want(want.size(), kSentinel);
        lsh_internal::DotCellBatch(col_row, n, in.direction.data(), dim,
                                   in.offset, in.w, dot_cols_want.data(),
                                   stride);
        ExpectStridedMatch(got, dot_cols_want, n, stride, "DotCellCols", dim);
        ExpectStridedMatch(dot_cols_want, want, n, stride, "DotCellColsRef",
                           dim);
      }
    }
  }
}

// DotCellsMany: every packed draw over one column block into a row-major
// block. The AVX2 arm tiles four draws by eight (or four) points and
// converts in-range cells without the per-lane round trip, so the test
// crosses every tile and tail boundary (draw counts 1, 2, 5 and 3073; 1-33
// points) and includes scales whose cells leave the +-2^51 fast range.
TEST(SimdDispatchTest, DotCellsManyAvx2BitIdenticalToScalar) {
  constexpr size_t kManyDims[] = {1, 3, 7, 8, 16, 64, 65};
  for (size_t dim : kManyDims) {
    for (size_t count : {size_t{1}, size_t{2}, size_t{5}, size_t{3073}}) {
      // The out-of-range scales on the small tables only: 3073 draws at
      // every dim and point count already cost the most.
      const std::vector<double> scales =
          count == 3073 ? std::vector<double>{17.25}
                        : std::vector<double>{17.25, 1e-12, 1e-300};
      for (double w : scales) {
        Rng rng(dim * 131 + count);
        std::vector<double> directions(count * dim);
        std::vector<double> offsets(count);
        for (double& d : directions) d = rng.Gaussian();
        for (double& o : offsets) o = rng.UniformDouble() * 17.25;
        for (size_t n = 1; n <= 33; ++n) {
          const KernelInputs in = MakeInputs(n, dim, /*col_pad=*/1, n + dim);
          // Row stride count + 1: the column after each row stays put.
          const size_t out_stride = count + 1;
          std::vector<uint64_t> want(n * out_stride, kSentinel);
          std::vector<uint64_t> got(want);
          lsh_internal::DotCellsManyBatch(
              [&in](size_t i) {
                return ColRowView{in.cols.data() + i, in.col_stride};
              },
              n, directions.data(), offsets.data(), count, dim, w,
              want.data(), out_stride);
          lsh_internal::DotCellsManyAvx2(in.cols.data(), in.col_stride, n,
                                         dim, directions.data(),
                                         offsets.data(), count, w, got.data(),
                                         out_stride);
          ASSERT_EQ(got, want) << "dim " << dim << " draws " << count
                               << " w " << w << " n " << n;
          // The draw-major reference is DotCellBatch per draw.
          std::vector<uint64_t> one(n, kSentinel);
          const size_t g = count - 1;
          lsh_internal::DotCellBatch(
              [&in, dim](size_t i) { return in.flat.data() + i * dim; }, n,
              directions.data() + g * dim, dim, offsets[g], w, one.data(), 1);
          for (size_t i = 0; i < n; ++i) {
            ASSERT_EQ(want[i * out_stride + g], one[i]) << "point " << i;
          }
        }
      }
    }
  }
}

// End-to-end over the public batch interfaces (which route through the
// runtime dispatcher): every family's batched bucket ids must equal the
// virtual per-point Eval at every dim, including the column-major entry the
// eval pipeline feeds.
TEST(SimdDispatchTest, AllFamiliesBatchPathsMatchEvalAcrossDims) {
  for (size_t dim : kDims) {
    std::vector<std::unique_ptr<LshFamily>> families;
    families.push_back(std::make_unique<GridFamily>(dim, 17.5));
    families.push_back(std::make_unique<OneSidedGridFamily>(dim, 64.0, 2));
    families.push_back(std::make_unique<PStableFamily>(dim, 9.25));
    families.push_back(std::make_unique<BitSamplingFamily>(
        dim, static_cast<double>(2 * dim)));
    Rng rng(1000 + dim);
    const size_t n = 33;
    PointStore points = GenerateUniformStore(n, dim, 255, &rng);
    const size_t col_stride = n + 3;
    std::vector<double> cols(dim * col_stride, -7.0);
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < dim; ++j) {
        cols[j * col_stride + i] = static_cast<double>(points[i][j]);
      }
    }
    for (const auto& family : families) {
      for (int draw = 0; draw < 3; ++draw) {
        std::unique_ptr<LshFunction> fn = family->Draw(&rng);
        std::vector<uint64_t> want(n);
        for (size_t i = 0; i < n; ++i) want[i] = fn->Eval(points.MakePoint(i));

        std::vector<uint64_t> got(n, kSentinel);
        fn->EvalCoordBatch(points.coord_data(), n, dim, got.data(), 1);
        EXPECT_EQ(got, want) << family->Name() << " EvalCoordBatch dim " << dim;

        if (!fn->SupportsColsBatch()) continue;
        got.assign(n, kSentinel);
        fn->EvalColsBatch(cols.data(), col_stride, n, dim, got.data(), 1);
        EXPECT_EQ(got, want) << family->Name() << " EvalColsBatch dim " << dim;
      }
    }
  }
}

// As above, for the repair kernels' dispatch.
TEST(SimdDispatchTest, RepairDispatchMatchesCpuAndOverride) {
  const bool expect_avx2 = emd_internal::kAvx2RepairKernelsCompiled &&
                           CpuSupportsAvx2() && !ForceScalarKernels();
  EXPECT_STREQ(emd_internal::RepairArmName(emd_internal::ActiveRepairArm()),
               expect_avx2 ? "avx2" : "scalar");
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

constexpr size_t kRepairCols[] = {1,  2,  3,  4,  5,  6,  7, 8,
                                  9, 15, 16, 17, 31, 33, 64};

/// The AVX2 repair arm runs only where the CPU has AVX2; where the TU was
/// built without it, kAvx2 runs the scalar loops and the comparisons pass
/// trivially.
bool Avx2ArmRunnable() {
  return !emd_internal::kAvx2RepairKernelsCompiled || CpuSupportsAvx2();
}

TEST(SimdDispatchTest, RepairAvx2EntryPointsCoverTheirColumns) {
  if (!Avx2ArmRunnable()) GTEST_SKIP() << "CPU lacks AVX2";
  const bool compiled = emd_internal::kAvx2RepairKernelsCompiled;
  Rng rng(51);
  for (size_t cols : kRepairCols) {
    const PointStore x = GenerateUniformStore(2, 3, 15, &rng);
    // Transposed columns, as DistanceRows lays them out; only the count of
    // covered columns is checked here.
    const PointStore blocks = GenerateUniformStore(cols, 3, 15, &rng);
    CostMatrix cost(2, std::vector<double>(cols));
    EXPECT_EQ(emd_internal::FillDistanceRowAvx2(MetricKind::kL2, x.row(0),
                                                blocks.coord_data(), cols, 3,
                                                cost[0].data()),
              compiled ? cols - cols % emd_internal::kDistanceBlockCols : 0)
        << cols;

    std::vector<double> v(cols + 1, 0.0), minv(cols + 1);
    std::vector<int64_t> used(cols + 1, 0);
    std::vector<size_t> way(cols + 1, 0);
    const emd_internal::HungarianScan scan{
        cost[0].data(), 0.0,         0.0,         true,      0,
        used.data(),    v.data(),    minv.data(), way.data()};
    emd_internal::ScanMin best{std::numeric_limits<double>::infinity(), 0};
    EXPECT_EQ(emd_internal::ScanColumnsAvx2(scan, cols + 1, &best),
              compiled ? 1 + cols - cols % 4 : 1)
        << cols;
  }
}

/// Coordinates from {0, delta, uniform [0, delta]}, as repair_oracle_test
/// draws them: the extremes are the largest differences to convert.
PointStore RepairStore(size_t n, size_t dim, Coord delta, Rng* rng) {
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

TEST(SimdDispatchTest, RepairDistanceMatrixAvx2BitIdenticalToScalar) {
  if (!Avx2ArmRunnable()) GTEST_SKIP() << "CPU lacks AVX2";
  const Coord deltas[] = {1, 1023, (Coord{1} << 53) + 1,
                          std::numeric_limits<Coord>::max()};
  Rng rng(52);
  for (MetricKind kind :
       {MetricKind::kHamming, MetricKind::kL1, MetricKind::kL2}) {
    const Metric metric(kind);
    for (Coord delta : deltas) {
      for (size_t dim : {size_t{1}, size_t{3}, size_t{8}, size_t{17}}) {
        for (size_t cols : kRepairCols) {
          const PointStore x = RepairStore(3, dim, delta, &rng);
          const PointStore y = RepairStore(cols, dim, delta, &rng);
          const CostMatrix want = emd_internal::DistanceMatrixOn(
              emd_internal::RepairArm::kScalar, x, y, metric);
          const CostMatrix got = emd_internal::DistanceMatrixOn(
              emd_internal::RepairArm::kAvx2, x, y, metric);
          for (size_t i = 0; i < x.size(); ++i) {
            for (size_t j = 0; j < cols; ++j) {
              ASSERT_TRUE(SameBits(got[i][j], want[i][j]))
                  << metric.Name() << " delta " << delta << " dim " << dim
                  << " cols " << cols << " pair (" << i << ", " << j
                  << "): " << got[i][j] << " vs " << want[i][j];
            }
          }
        }
      }
    }
  }
}

TEST(SimdDispatchTest, RepairAssignmentAvx2IdenticalToScalar) {
  if (!Avx2ArmRunnable()) GTEST_SKIP() << "CPU lacks AVX2";
  Rng rng(53);
  // Signed zeros: +0.0 and -0.0 compare equal, so the reduced costs tie
  // across lanes and the lowest column must win in both arms.
  const double zero_pool[] = {0.0, -0.0, 1.0, 2.0};
  const struct {
    const char* what;
    std::function<double()> draw;
  } kinds[] = {
      {"real", [&] { return rng.UniformDouble() * 100.0; }},
      {"ties", [&] { return static_cast<double>(rng.Below(3)); }},
      {"signed zeros", [&] { return zero_pool[rng.Below(4)]; }},
  };
  for (const auto& kind : kinds) {
    for (size_t cols : kRepairCols) {
      for (size_t rows : {size_t{1}, (cols + 1) / 2, cols}) {
        CostMatrix cost(rows, std::vector<double>(cols));
        for (auto& row : cost) {
          for (double& c : row) c = kind.draw();
        }
        const AssignmentResult want = emd_internal::MinCostAssignmentOn(
            emd_internal::RepairArm::kScalar, cost);
        const AssignmentResult got = emd_internal::MinCostAssignmentOn(
            emd_internal::RepairArm::kAvx2, cost);
        EXPECT_EQ(got.row_to_col, want.row_to_col)
            << kind.what << " " << rows << "x" << cols;
        EXPECT_TRUE(SameBits(got.cost, want.cost))
            << kind.what << " " << rows << "x" << cols << ": " << got.cost
            << " vs " << want.cost;
      }
    }
  }
}

TEST(SimdDispatchTest, RepairMatchingAvx2IdenticalToScalar) {
  if (!Avx2ArmRunnable()) GTEST_SKIP() << "CPU lacks AVX2";
  Rng rng(54);
  for (MetricKind kind :
       {MetricKind::kHamming, MetricKind::kL1, MetricKind::kL2}) {
    const Metric metric(kind);
    for (Coord delta : {Coord{3}, Coord{1023},
                        std::numeric_limits<Coord>::max()}) {
      for (size_t cols : kRepairCols) {
        // X_B rows are copies of S_B rows, a few of them repeated, so rows
        // compete for columns and some are scanned more than once.
        const PointStore y = RepairStore(cols, 5, delta, &rng);
        for (size_t rows : {size_t{1}, (cols + 1) / 2, cols}) {
          PointStore x(5);
          for (size_t r = 0; r < rows; ++r) {
            x.Append(y[rng.Below((cols + 1) / 2)]);
          }
          const AssignmentResult want = emd_internal::MinCostMatchingOn(
              emd_internal::RepairArm::kScalar, x, y, metric);
          const AssignmentResult got = emd_internal::MinCostMatchingOn(
              emd_internal::RepairArm::kAvx2, x, y, metric);
          EXPECT_EQ(got.row_to_col, want.row_to_col)
              << metric.Name() << " delta " << delta << " " << rows << "x"
              << cols;
          EXPECT_TRUE(SameBits(got.cost, want.cost))
              << metric.Name() << " delta " << delta << " " << rows << "x"
              << cols << ": " << got.cost << " vs " << want.cost;
        }
      }
    }
  }
}

TEST(SimdDispatchTest, RepairMatchingWithValueErrorAvx2IdenticalToScalar) {
  // RepairMatchingAvx2IdenticalToScalar's draws with one coordinate of
  // every X_B row moved by 1, as value error moves a decoded row. Its own
  // rows = 1 draws are exact copies, which MinCostMatching matches without
  // the Hungarian; here some row has no equal in S_B, so both arms run it.
  if (!Avx2ArmRunnable()) GTEST_SKIP() << "CPU lacks AVX2";
  Rng rng(55);
  for (MetricKind kind :
       {MetricKind::kHamming, MetricKind::kL1, MetricKind::kL2}) {
    const Metric metric(kind);
    for (Coord delta : {Coord{3}, Coord{1023},
                        std::numeric_limits<Coord>::max()}) {
      for (size_t cols : kRepairCols) {
        const PointStore y = RepairStore(cols, 5, delta, &rng);
        for (size_t rows : {size_t{1}, (cols + 1) / 2, cols}) {
          // Row 0 is drawn again until it has no equal in S_B.
          PointStore x(5);
          for (size_t r = 0; r < rows; ++r) {
            Coord* row = x.AppendRow();
            bool in_y = true;
            while (in_y) {
              std::copy_n(y.row(rng.Below((cols + 1) / 2)), 5, row);
              const size_t c = rng.Below(5);
              row[c] = row[c] == delta ? delta - 1 : row[c] + 1;
              in_y = false;
              for (size_t j = 0; r == 0 && j < cols; ++j) {
                in_y |= y[j] == x[r];
              }
            }
          }
          const AssignmentResult want = emd_internal::MinCostMatchingOn(
              emd_internal::RepairArm::kScalar, x, y, metric);
          const AssignmentResult got = emd_internal::MinCostMatchingOn(
              emd_internal::RepairArm::kAvx2, x, y, metric);
          EXPECT_EQ(got.row_to_col, want.row_to_col)
              << metric.Name() << " delta " << delta << " " << rows << "x"
              << cols;
          EXPECT_TRUE(SameBits(got.cost, want.cost))
              << metric.Name() << " delta " << delta << " " << rows << "x"
              << cols << ": " << got.cost << " vs " << want.cost;
        }
      }
    }
  }
}

}  // namespace
}  // namespace rsr

// Runtime CPU dispatch and scalar-vs-AVX2 bit-identity for the batch
// kernels (lsh/batch_kernels*.{h,cc}, util/cpu_features.h).
//
// The AVX2 entry points are called DIRECTLY here — not through the
// dispatcher — so the vector code is exercised even when the suite runs
// under RSR_FORCE_SCALAR=1 (the forced-scalar CI leg) and falls back to
// the scalar forwarders cleanly where AVX2 was not compiled. Coverage:
// dims {1, 3, 7, 8, 64, 65}, batch sizes straddling every 4/8/16-way
// unroll boundary, output strides > 1, both row layouts (double plane,
// Coord arena) plus the column-major pipeline layout, and all four LSH
// families end-to-end against the virtual Eval reference.
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

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

constexpr size_t kDims[] = {1, 3, 7, 8, 64, 65};
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

struct KernelInputs {
  std::vector<double> flat;     // n x dim, row-major
  std::vector<Coord> coords;    // n x dim, row-major
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
  in.coords.resize(n * dim);
  in.col_stride = n + col_pad;
  in.cols.assign(dim * in.col_stride, -1.0);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < dim; ++j) {
      // Signed integer coordinates (exactly representable) so lattice cells
      // cross zero, like real centered point sets.
      const Coord c = static_cast<Coord>(rng.Next() % 4096) - 2048;
      in.coords[i * dim + j] = c;
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
        auto coord_row = [&in, dim](size_t i) {
          return in.coords.data() + i * dim;
        };
        auto col_row = [&in](size_t i) {
          return ColRowView{in.cols.data() + i, in.col_stride};
        };

        lsh_internal::GridHashBatch(flat_row, n, in.offsets.data(), dim, in.w,
                                    in.salt, want.data(), stride);
        lsh_internal::GridHashFlatAvx2(in.flat.data(), n, dim,
                                       in.offsets.data(), in.w, in.salt,
                                       got.data(), stride);
        ExpectStridedMatch(got, want, n, stride, "GridHashFlat", dim);

        got.assign(want.size(), kSentinel);
        lsh_internal::GridHashCoordAvx2(in.coords.data(), n, dim,
                                        in.offsets.data(), in.w, in.salt,
                                        got.data(), stride);
        std::vector<uint64_t> coord_want(want.size(), kSentinel);
        lsh_internal::GridHashBatch(coord_row, n, in.offsets.data(), dim, in.w,
                                    in.salt, coord_want.data(), stride);
        ExpectStridedMatch(got, coord_want, n, stride, "GridHashCoord", dim);

        got.assign(want.size(), kSentinel);
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
        lsh_internal::DotCellFlatAvx2(in.flat.data(), n, dim,
                                      in.direction.data(), in.offset, in.w,
                                      got.data(), stride);
        ExpectStridedMatch(got, want, n, stride, "DotCellFlat", dim);

        got.assign(want.size(), kSentinel);
        lsh_internal::DotCellCoordAvx2(in.coords.data(), n, dim,
                                       in.direction.data(), in.offset, in.w,
                                       got.data(), stride);
        std::vector<uint64_t> dot_coord_want(want.size(), kSentinel);
        lsh_internal::DotCellBatch(coord_row, n, in.direction.data(), dim,
                                   in.offset, in.w, dot_coord_want.data(),
                                   stride);
        ExpectStridedMatch(got, dot_coord_want, n, stride, "DotCellCoord", dim);

        got.assign(want.size(), kSentinel);
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
    std::vector<double> flat(n * dim);
    const size_t col_stride = n + 3;
    std::vector<double> cols(dim * col_stride, -7.0);
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < dim; ++j) {
        flat[i * dim + j] = static_cast<double>(points[i][j]);
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

        if (!fn->SupportsFlatBatch()) continue;
        got.assign(n, kSentinel);
        fn->EvalFlatBatch(flat.data(), n, dim, got.data(), 1);
        EXPECT_EQ(got, want) << family->Name() << " EvalFlatBatch dim " << dim;

        got.assign(n, kSentinel);
        fn->EvalColsBatch(cols.data(), col_stride, n, dim, got.data(), 1);
        EXPECT_EQ(got, want) << family->Name() << " EvalColsBatch dim " << dim;
      }
    }
  }
}

}  // namespace
}  // namespace rsr

// Shared interleaved inner loops for the drawn-function batch paths.
//
// Each kernel is templated on a row accessor (size_t i -> pointer whose
// elements convert to double), so one body serves the arena path (raw
// const Coord* rows of a PointStore) and the flat path (contiguous
// pre-converted double rows). Points run 4- or 8-way
// interleaved: each point's serial dependency chain (HashCombine chain,
// dot-product accumulation) keeps its exact scalar operation order — so
// results are bit-identical to Eval — but independent points overlap in the
// pipeline instead of stalling on multiply/FMA latency.
//
// The templates are the PORTABLE REFERENCE (and the vector kernels' tail
// path). Contiguous-row callers — the store-native EvalFlatBatch /
// EvalCoordBatch hot paths — go through the dispatched entry points at the
// bottom of this header instead, which select AVX2 implementations
// (batch_kernels_avx2.cc) at runtime when the host supports them
// (util/cpu_features.h). Both arms are bit-identical for every input; the
// lsh/README.md SIMD section documents why.
#ifndef RSR_LSH_BATCH_KERNELS_H_
#define RSR_LSH_BATCH_KERNELS_H_

#include <cmath>
#include <cstdint>

#include "geometry/point.h"
#include "hashing/hash64.h"

namespace rsr {
namespace lsh_internal {

/// Grid-family kernel: out[i*stride] = HashCombine-chain over per-coordinate
/// lattice cells floor((x_j + offset_j) / w), seeded with salt.
template <typename RowFn>
inline void GridHashBatch(RowFn row, size_t n, const double* offsets,
                          size_t dim, double w, uint64_t salt, uint64_t* out,
                          size_t out_stride) {
  auto cell = [w](double x, double offset) {
    return static_cast<uint64_t>(
        static_cast<int64_t>(std::floor((x + offset) / w)));
  };
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    auto c0 = row(i + 0);
    auto c1 = row(i + 1);
    auto c2 = row(i + 2);
    auto c3 = row(i + 3);
    uint64_t h0 = salt, h1 = salt, h2 = salt, h3 = salt;
    for (size_t j = 0; j < dim; ++j) {
      const double offset = offsets[j];
      h0 = HashCombine(h0, cell(static_cast<double>(c0[j]), offset));
      h1 = HashCombine(h1, cell(static_cast<double>(c1[j]), offset));
      h2 = HashCombine(h2, cell(static_cast<double>(c2[j]), offset));
      h3 = HashCombine(h3, cell(static_cast<double>(c3[j]), offset));
    }
    out[(i + 0) * out_stride] = h0;
    out[(i + 1) * out_stride] = h1;
    out[(i + 2) * out_stride] = h2;
    out[(i + 3) * out_stride] = h3;
  }
  for (; i < n; ++i) {
    auto c = row(i);
    uint64_t h = salt;
    for (size_t j = 0; j < dim; ++j) {
      h = HashCombine(h, cell(static_cast<double>(c[j]), offsets[j]));
    }
    out[i * out_stride] = h;
  }
}

/// 2-stable kernel: out[i*stride] = floor((offset + direction . x_i) / w) as
/// a 64-bit lattice cell.
template <typename RowFn>
inline void DotCellBatch(RowFn row, size_t n, const double* direction,
                         size_t dim, double offset, double w, uint64_t* out,
                         size_t out_stride) {
  auto cell = [w](double dot) {
    return static_cast<uint64_t>(static_cast<int64_t>(std::floor(dot / w)));
  };
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    auto c0 = row(i + 0);
    auto c1 = row(i + 1);
    auto c2 = row(i + 2);
    auto c3 = row(i + 3);
    auto c4 = row(i + 4);
    auto c5 = row(i + 5);
    auto c6 = row(i + 6);
    auto c7 = row(i + 7);
    double d0 = offset, d1 = offset, d2 = offset, d3 = offset;
    double d4 = offset, d5 = offset, d6 = offset, d7 = offset;
    for (size_t j = 0; j < dim; ++j) {
      const double r = direction[j];
      d0 += r * static_cast<double>(c0[j]);
      d1 += r * static_cast<double>(c1[j]);
      d2 += r * static_cast<double>(c2[j]);
      d3 += r * static_cast<double>(c3[j]);
      d4 += r * static_cast<double>(c4[j]);
      d5 += r * static_cast<double>(c5[j]);
      d6 += r * static_cast<double>(c6[j]);
      d7 += r * static_cast<double>(c7[j]);
    }
    out[(i + 0) * out_stride] = cell(d0);
    out[(i + 1) * out_stride] = cell(d1);
    out[(i + 2) * out_stride] = cell(d2);
    out[(i + 3) * out_stride] = cell(d3);
    out[(i + 4) * out_stride] = cell(d4);
    out[(i + 5) * out_stride] = cell(d5);
    out[(i + 6) * out_stride] = cell(d6);
    out[(i + 7) * out_stride] = cell(d7);
  }
  for (; i < n; ++i) {
    auto c = row(i);
    double dot = offset;
    for (size_t j = 0; j < dim; ++j) {
      dot += direction[j] * static_cast<double>(c[j]);
    }
    out[i * out_stride] = cell(dot);
  }
}

/// Column accessor adapter: presents column-major storage
/// (cols[j * col_stride + i] == point i's coordinate j) to the row-templated
/// kernels above, making the scalar column reference literally the same
/// interleaved code as the row reference.
struct ColRowView {
  const double* base;   // cols + i (point i's first coordinate)
  size_t stride;        // col_stride (elements between coordinates)
  double operator[](size_t j) const { return base[j * stride]; }
};

// ---- Dispatched contiguous-row entry points ---------------------------------
//
// Row i is coords + i * dim (one PointStore arena row or one double-plane
// row). Each call forwards through a function pointer resolved once per
// process: AVX2 when compiled in, supported by the CPU, and not overridden
// via RSR_FORCE_SCALAR; the scalar templates above otherwise.

void GridHashFlat(const double* coords, size_t n, size_t dim,
                  const double* offsets, double w, uint64_t salt, uint64_t* out,
                  size_t out_stride);
void GridHashCoord(const Coord* coords, size_t n, size_t dim,
                   const double* offsets, double w, uint64_t salt,
                   uint64_t* out, size_t out_stride);
void DotCellFlat(const double* coords, size_t n, size_t dim,
                 const double* direction, double offset, double w,
                 uint64_t* out, size_t out_stride);
void DotCellCoord(const Coord* coords, size_t n, size_t dim,
                  const double* direction, double offset, double w,
                  uint64_t* out, size_t out_stride);

// ---- Dispatched column-major entry points -----------------------------------
//
// Input is column-major: cols[j * col_stride + i] is point i's coordinate j
// (the eval pipeline transposes each point block once, amortized over all s
// drawn functions). This is the layout the vector units actually want — a
// lane load of 4 consecutive points' coordinate j is one contiguous load,
// with no per-iteration shuffles and no strided gathers — so these are the
// fastest kernels and the pipeline's first choice. Results are bit-identical
// to the row kernels and to Eval: same values, same per-point operation
// order, only the storage layout differs.

void GridHashCols(const double* cols, size_t col_stride, size_t n, size_t dim,
                  const double* offsets, double w, uint64_t salt, uint64_t* out,
                  size_t out_stride);
void DotCellCols(const double* cols, size_t col_stride, size_t n, size_t dim,
                 const double* direction, double offset, double w,
                 uint64_t* out, size_t out_stride);

/// The dispatch decision actually in effect: "avx2" or "scalar". Recorded in
/// bench metadata and pinned by simd_dispatch_test (an AVX2 host without the
/// RSR_FORCE_SCALAR override must report "avx2" whenever the AVX2 sources
/// were compiled).
const char* ActiveBatchKernelName();

}  // namespace lsh_internal
}  // namespace rsr

#endif  // RSR_LSH_BATCH_KERNELS_H_

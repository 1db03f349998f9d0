#include "lsh/eval_pipeline.h"

#include <algorithm>

#include "util/parallel.h"

namespace rsr {

// RSR_ZERO_ALLOC: *out is the caller's scratch matrix and the transpose
// buffer is pooled per thread, so a warm single-thread call allocates
// nothing (PointStoreTest.WarmEvaluateAllIntoAndInsertManyDoNotAllocate).
void EvaluateRowsInto(
    const PointStore& points, size_t row_begin, size_t row_count,
    const std::vector<std::unique_ptr<LshFunction>>& functions,
    size_t num_threads, EvalMatrix* out) {
  RSR_CHECK(row_begin + row_count <= points.size());
  const size_t n = row_count;
  const size_t s = functions.size();
  out->Reset(n, s);
  if (n == 0 || s == 0) return;
  uint64_t* data = out->mutable_data();
  const size_t dim = points.dim();
  // All draws come from one family, so one representative decides the
  // layout: double-based families read column blocks transposed from the
  // arena, integer-coordinate families read the arena rows directly. The
  // base pointer is offset to row_begin so the block loop below indexes
  // rows [0, row_count) uniformly.
  const bool cols = functions[0]->SupportsColsBatch();
  const Coord* arena = points.coord_data() + row_begin * dim;
  // Block the point range so one block's matrix slice (block * s * 8 bytes)
  // stays L1-resident across all s strided column writes; without blocking
  // every write of a function pass lands on a distinct line of the full
  // n x s buffer. The column path re-touches its slice with SIMD-rate
  // stores, so it wants the slice well inside L1 (16 KiB); the coord path's
  // scalar kernels tolerate a larger footprint and prefer fewer virtual
  // calls. A transposed block is kept near 32 KiB, but never below one
  // 4-point AVX2 lane group, whatever the dim.
  constexpr size_t kColsBlockDoubles = 4096;
  size_t block = (cols ? size_t{1} << 11 : size_t{1} << 13) / s;
  if (block < 16) block = 16;
  if (cols && block * dim > kColsBlockDoubles) {
    block = std::max<size_t>(4, kColsBlockDoubles / dim / 4 * 4);
  }
  ParallelShards(n, num_threads, [&](size_t begin, size_t end) {
    // Column path: transpose each block of arena rows to column-major
    // doubles ONCE (col_block[j * len + i]), amortized over all s function
    // passes. The SIMD column kernels then load 4 consecutive points'
    // coordinate j with one contiguous vector load. Each thread keeps its
    // own buffer, so workers share nothing but the read-only store.
    static thread_local std::vector<double> cols_scratch;
    if (cols && cols_scratch.size() < block * dim) {
      cols_scratch.resize(block * dim);
    }
    double* const col_block = cols_scratch.data();
    for (size_t b = begin; b < end; b += block) {
      const size_t len = std::min(block, end - b);
      const Coord* rows = arena + b * dim;
      if (cols) {
        for (size_t j = 0; j < dim; ++j) {
          double* col = col_block + j * len;
          for (size_t i = 0; i < len; ++i) {
            col[i] = static_cast<double>(rows[i * dim + j]);
          }
        }
      }
      // Function-major within the block: one virtual call per function, with
      // its drawn parameters hoisted for the whole point range.
      for (size_t g = 0; g < s; ++g) {
        if (cols) {
          functions[g]->EvalColsBatch(col_block, len, len, dim,
                                      data + b * s + g, s);
        } else {
          functions[g]->EvalCoordBatch(rows, len, dim, data + b * s + g, s);
        }
      }
    }
  });
}

void EvaluateAllInto(const PointStore& points,
                     const std::vector<std::unique_ptr<LshFunction>>& functions,
                     size_t num_threads, EvalMatrix* out) {
  EvaluateRowsInto(points, 0, points.size(), functions, num_threads, out);
}

}  // namespace rsr

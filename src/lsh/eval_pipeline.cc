#include "lsh/eval_pipeline.h"

#include <algorithm>

#include "lsh/batch_kernels.h"
#include "util/parallel.h"

namespace rsr {

namespace {

/// Shards rows [0, n) of points (from row_begin) over up to num_threads
/// threads and calls fill(col_block, b, len, rows) for each block of `len`
/// rows from b. With `cols`, col_block holds the block transposed to
/// column-major doubles (col_block[j * len + i]); rows always points at the
/// block's first arena row. s is the evaluations per row.
template <typename Fill>
void ForEachBlock(const PointStore& points, size_t row_begin, size_t n,
                  size_t s, bool cols, size_t num_threads, Fill fill) {
  const size_t dim = points.dim();
  // The base pointer is offset to row_begin so the block loop below indexes
  // rows [0, n) uniformly.
  const Coord* arena = points.coord_data() + row_begin * dim;
  // Block the point range so one block's matrix slice (block * s * 8 bytes)
  // is reused from cache across all s strided column writes; without
  // blocking every write of a function pass lands on a distinct line of the
  // full n x s buffer. A slice is 16 KiB while s <= 128; the 16-row floor
  // makes it block * s * 8 bytes beyond that (393 KiB at s = 3073, an L2
  // working set), where each column write still touches one line per row.
  // The coord path allows a larger slice for fewer virtual calls. Both
  // paths also bound the rows a block spans, because every function pass
  // revisits all of them. A transposed column block is kept near 32 KiB,
  // but never below one 4-point AVX2 lane group. The coord path's rows span
  // at most 16384 arena coordinates (128 KiB, 16 rows at dim 1024), but
  // never less than one row.
  constexpr size_t kColsBlockDoubles = 4096;
  constexpr size_t kCoordBlockCoords = 16384;
  size_t block = (cols ? size_t{1} << 11 : size_t{1} << 13) / s;
  if (block < 16) block = 16;
  if (cols && block * dim > kColsBlockDoubles) {
    block = std::max<size_t>(4, kColsBlockDoubles / dim / 4 * 4);
  }
  if (!cols && block * dim > kCoordBlockCoords) {
    block = std::max<size_t>(1, kCoordBlockCoords / dim);
  }
  ParallelShards(n, num_threads, [&](size_t begin, size_t end) {
    // Column path: transpose each block of arena rows to column-major
    // doubles ONCE (col_block[j * len + i]), amortized over all s
    // evaluations. The SIMD column kernels then load 4 consecutive points'
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
      fill(col_block, b, len, rows);
    }
  });
}

}  // namespace

// RSR_ZERO_ALLOC: *out is the caller's scratch matrix and the transpose
// buffer is pooled per thread, so a warm single-thread call allocates
// nothing (PointStoreTest.WarmEvaluateAllIntoAndInsertManyDoNotAllocate).
void EvaluateRowsInto(
    const PointStore& points, size_t row_begin, size_t row_count,
    const std::vector<std::unique_ptr<LshFunction>>& functions,
    size_t num_threads, EvalMatrix* out) {
  RSR_CHECK(row_begin + row_count <= points.size());
  const size_t s = functions.size();
  out->Reset(row_count, s);
  if (row_count == 0 || s == 0) return;
  uint64_t* data = out->mutable_data();
  const size_t dim = points.dim();
  // All draws come from one family, so one representative decides the
  // layout: double-based families read column blocks transposed from the
  // arena, integer-coordinate families read the arena rows directly.
  const bool cols = functions[0]->SupportsColsBatch();
  ForEachBlock(points, row_begin, row_count, s, cols, num_threads,
               [&](const double* col_block, size_t b, size_t len,
                   const Coord* rows) {
                 // Function-major within the block: one virtual call per
                 // function, with its drawn parameters hoisted for the whole
                 // point range.
                 for (size_t g = 0; g < s; ++g) {
                   if (cols) {
                     functions[g]->EvalColsBatch(col_block, len, len, dim,
                                                 data + b * s + g, s);
                   } else {
                     functions[g]->EvalCoordBatch(rows, len, dim,
                                                  data + b * s + g, s);
                   }
                 }
               });
}

// RSR_ZERO_ALLOC: as above.
void EvaluateRowsInto(const PointStore& points, size_t row_begin,
                      size_t row_count, const PackedDotCells& packed,
                      size_t num_threads, EvalMatrix* out) {
  RSR_CHECK(row_begin + row_count <= points.size());
  RSR_CHECK(packed.dim == points.dim());
  const size_t s = packed.count();
  out->Reset(row_count, s);
  if (row_count == 0 || s == 0) return;
  uint64_t* data = out->mutable_data();
  ForEachBlock(points, row_begin, row_count, s, /*cols=*/true, num_threads,
               [&](const double* col_block, size_t b, size_t len,
                   const Coord*) {
                 lsh_internal::DotCellsMany(
                     col_block, len, len, packed.dim, packed.directions.data(),
                     packed.offsets.data(), s, packed.w, data + b * s, s);
               });
}

void EvaluateAllInto(const PointStore& points,
                     const std::vector<std::unique_ptr<LshFunction>>& functions,
                     size_t num_threads, EvalMatrix* out) {
  EvaluateRowsInto(points, 0, points.size(), functions, num_threads, out);
}

}  // namespace rsr

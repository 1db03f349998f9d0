// Batched LSH evaluation: the flat evaluation matrix and the function-major
// fill loop shared by the EMD and Gap protocol hot paths.
//
// EvaluateAllInto replaces the historical per-point nested loop
//   for point i: for draw g: evals[i][g] = functions[g]->Eval(points[i])
// (n * s virtual calls, one heap row per point) with one batch virtual call
// per (function, shard): the drawn parameters are loaded once per
// function and streamed over the points, and all n * s results land in a
// single row-major uint64_t buffer. Results are bit-identical to the scalar
// loop for every family, seed, and thread count (lsh_batch_test).
#ifndef RSR_LSH_EVAL_PIPELINE_H_
#define RSR_LSH_EVAL_PIPELINE_H_

#include <memory>
#include <vector>

#include "geometry/point_store.h"
#include "lsh/lsh_family.h"

namespace rsr {

/// Row-major n x s matrix of LSH evaluations: row i holds the s bucket ids
/// of point i, contiguously (the layout PairwiseVectorHash::EvalPrefixes and
/// ::EvalBatch consume). One flat allocation, reusable across fills.
class EvalMatrix {
 public:
  EvalMatrix() = default;

  /// Resizes to rows x cols; contents are unspecified until filled.
  void Reset(size_t rows, size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.resize(rows * cols);
  }

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }

  const uint64_t* row(size_t i) const {
    RSR_DCHECK(i < rows_);
    return data_.data() + i * cols_;
  }
  uint64_t at(size_t i, size_t g) const {
    RSR_DCHECK(i < rows_ && g < cols_);
    return data_[i * cols_ + g];
  }

  const uint64_t* data() const { return data_.data(); }
  uint64_t* mutable_data() { return data_.data(); }

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<uint64_t> data_;
};

/// Fills *out (points.size() x functions.size()) function-major, sharding the
/// point range over up to num_threads threads (<= 1 runs inline). Shard
/// boundaries depend only on the point count, and each (function, shard)
/// writes a disjoint strided column slice, so the matrix is bit-identical
/// for every thread count.
///
/// Store-native hot path: flat-capable families stream the store's cached
/// double plane (built once per store, not per run), all others stream the
/// raw coordinate arena via EvalCoordBatch. With a warm store and a sized
/// matrix the whole fill performs zero per-point allocations.
void EvaluateAllInto(const PointStore& points,
                     const std::vector<std::unique_ptr<LshFunction>>& functions,
                     size_t num_threads, EvalMatrix* out);

/// Range variant: fills *out (row_count x functions.size()) with the
/// evaluations of rows [row_begin, row_begin + row_count) — the incremental
/// entry SyncDataset uses to hash only freshly appended rows through the same
/// dispatched batch kernels. Requires row_begin + row_count <= points.size().
/// Results are bit-identical to the matching slice of EvaluateAllInto.
void EvaluateRowsInto(
    const PointStore& points, size_t row_begin, size_t row_count,
    const std::vector<std::unique_ptr<LshFunction>>& functions,
    size_t num_threads, EvalMatrix* out);

}  // namespace rsr

#endif  // RSR_LSH_EVAL_PIPELINE_H_

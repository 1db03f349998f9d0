#include "lsh/lsh_family.h"

#include <vector>

namespace rsr {

void LshFunction::EvalFlatBatch(const double* coords, size_t n, size_t dim,
                                uint64_t* out, size_t out_stride) const {
  (void)coords;
  (void)n;
  (void)dim;
  (void)out;
  (void)out_stride;
  RSR_CHECK(false);  // only valid when SupportsFlatBatch()
}

void LshFunction::EvalColsBatch(const double* cols, size_t col_stride,
                                size_t n, size_t dim, uint64_t* out,
                                size_t out_stride) const {
  // Correctness fallback: gather back to rows and defer to EvalFlatBatch.
  // Allocating, but only reachable for flat families that do not override
  // the column path; the shipped ones all do.
  std::vector<double> rows(n * dim);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < dim; ++j) {
      rows[i * dim + j] = cols[j * col_stride + i];
    }
  }
  EvalFlatBatch(rows.data(), n, dim, out, out_stride);
}

void LshFunction::EvalCoordBatch(const Coord* coords, size_t n, size_t dim,
                                 uint64_t* out, size_t out_stride) const {
  // Correctness fallback (one temporary Point per row); the shipped
  // families all override with allocation-free kernels.
  for (size_t i = 0; i < n; ++i) {
    Point p(std::vector<Coord>(coords + i * dim, coords + (i + 1) * dim));
    out[i * out_stride] = Eval(p);
  }
}

}  // namespace rsr

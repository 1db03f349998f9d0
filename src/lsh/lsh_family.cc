#include "lsh/lsh_family.h"

#include <vector>

namespace rsr {

void LshFunction::EvalColsBatch(const double* /*cols*/,
                                size_t /*col_stride*/, size_t /*n*/,
                                size_t /*dim*/, uint64_t* /*out*/,
                                size_t /*out_stride*/) const {
  RSR_CHECK(false);  // only valid when SupportsColsBatch()
}

void LshFunction::EvalCoordBatch(const Coord* coords, size_t n, size_t dim,
                                 uint64_t* out, size_t out_stride) const {
  // Correctness fallback (one temporary Point per row). Bit sampling
  // overrides it; the column families run on EvalColsBatch instead.
  for (size_t i = 0; i < n; ++i) {
    Point p(std::vector<Coord>(coords + i * dim, coords + (i + 1) * dim));
    out[i * out_stride] = Eval(p);
  }
}

}  // namespace rsr

#include "lsh/one_sided_grid.h"

#include <cmath>

#include "hashing/hash64.h"
#include "lsh/batch_kernels.h"

namespace rsr {

namespace {

class OneSidedGridFunction : public LshFunction {
 public:
  OneSidedGridFunction(std::vector<double> offsets, double w, uint64_t salt)
      : offsets_(std::move(offsets)), w_(w), salt_(salt) {}

  uint64_t Eval(const Point& x) const override {
    RSR_DCHECK(x.dim() == offsets_.size());
    uint64_t h = salt_;
    for (size_t j = 0; j < offsets_.size(); ++j) {
      int64_t cell = static_cast<int64_t>(
          std::floor((static_cast<double>(x[j]) + offsets_[j]) / w_));
      h = HashCombine(h, static_cast<uint64_t>(cell));
    }
    return h;
  }

  // Function-major hot paths with interleaved HashCombine chains; same
  // rounding and per-point operation order as Eval (see grid.cc notes). All
  // three paths use the runtime-dispatched (AVX2-capable) kernels.
  bool SupportsFlatBatch() const override { return true; }
  void EvalFlatBatch(const double* coords, size_t n, size_t dim, uint64_t* out,
                     size_t out_stride) const override {
    RSR_DCHECK(dim == offsets_.size());
    lsh_internal::GridHashFlat(coords, n, dim, offsets_.data(), w_, salt_, out,
                               out_stride);
  }

  void EvalColsBatch(const double* cols, size_t col_stride, size_t n,
                     size_t dim, uint64_t* out,
                     size_t out_stride) const override {
    RSR_DCHECK(dim == offsets_.size());
    lsh_internal::GridHashCols(cols, col_stride, n, dim, offsets_.data(), w_,
                               salt_, out, out_stride);
  }

  void EvalCoordBatch(const Coord* coords, size_t n, size_t dim, uint64_t* out,
                      size_t out_stride) const override {
    RSR_DCHECK(dim == offsets_.size());
    lsh_internal::GridHashCoord(coords, n, dim, offsets_.data(), w_, salt_, out,
                                out_stride);
  }

 private:
  std::vector<double> offsets_;
  double w_;
  uint64_t salt_;
};

}  // namespace

OneSidedGridFamily::OneSidedGridFamily(size_t dim, double r2, int p_exponent)
    : dim_(dim), r2_(r2), p_exponent_(p_exponent) {
  RSR_CHECK(dim >= 1);
  RSR_CHECK(r2 > 0.0);
  RSR_CHECK(p_exponent == 1 || p_exponent == 2);
  w_ = r2 / std::pow(static_cast<double>(dim), 1.0 / p_exponent);
}

std::unique_ptr<LshFunction> OneSidedGridFamily::Draw(Rng* rng) const {
  std::vector<double> offsets(dim_);
  for (auto& o : offsets) o = rng->UniformDouble() * w_;
  return std::make_unique<OneSidedGridFunction>(std::move(offsets), w_,
                                                rng->Next());
}

double OneSidedGridFamily::CollisionProbability(double dist) const {
  if (dist > r2_) return 0.0;
  double p = 1.0 - dist * static_cast<double>(dim_) / r2_;
  return p < 0.0 ? 0.0 : p;
}

double OneSidedGridFamily::RhoHat(double r1) const {
  return r1 * static_cast<double>(dim_) / r2_;
}

}  // namespace rsr

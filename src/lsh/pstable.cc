#include "lsh/pstable.h"

#include <cmath>

#include "lsh/batch_kernels.h"

namespace rsr {

namespace {

double NormalCdf(double x) { return 0.5 * std::erfc(-x / std::sqrt(2.0)); }

class PStableFunction : public LshFunction {
 public:
  PStableFunction(std::vector<double> direction, double offset, double w)
      : direction_(std::move(direction)), offset_(offset), w_(w) {}

  uint64_t Eval(const Point& x) const override {
    RSR_DCHECK(x.dim() == direction_.size());
    double dot = offset_;
    for (size_t j = 0; j < direction_.size(); ++j) {
      dot += direction_[j] * static_cast<double>(x[j]);
    }
    int64_t cell = static_cast<int64_t>(std::floor(dot / w_));
    return static_cast<uint64_t>(cell);
  }

  // Function-major hot paths: the projection vector stays hot across the
  // whole point range, and points run interleaved (batch_kernels.h) so their
  // serial dot-product chains overlap instead of stalling on FMA latency.
  // Each point's accumulation order and the final `/ w` division match Eval
  // exactly, so the lattice cell is bit-identical. All three paths use the
  // runtime-dispatched (AVX2-capable) kernels.
  bool SupportsFlatBatch() const override { return true; }
  void EvalFlatBatch(const double* coords, size_t n, size_t dim, uint64_t* out,
                     size_t out_stride) const override {
    RSR_DCHECK(dim == direction_.size());
    lsh_internal::DotCellFlat(coords, n, dim, direction_.data(), offset_, w_,
                              out, out_stride);
  }

  void EvalColsBatch(const double* cols, size_t col_stride, size_t n,
                     size_t dim, uint64_t* out,
                     size_t out_stride) const override {
    RSR_DCHECK(dim == direction_.size());
    lsh_internal::DotCellCols(cols, col_stride, n, dim, direction_.data(),
                              offset_, w_, out, out_stride);
  }

  void EvalCoordBatch(const Coord* coords, size_t n, size_t dim, uint64_t* out,
                      size_t out_stride) const override {
    RSR_DCHECK(dim == direction_.size());
    lsh_internal::DotCellCoord(coords, n, dim, direction_.data(), offset_, w_,
                               out, out_stride);
  }

 private:
  std::vector<double> direction_;
  double offset_;
  double w_;
};

}  // namespace

PStableFamily::PStableFamily(size_t dim, double w) : dim_(dim), w_(w) {
  RSR_CHECK(dim >= 1);
  RSR_CHECK(w > 0.0);
}

std::unique_ptr<LshFunction> PStableFamily::Draw(Rng* rng) const {
  std::vector<double> direction(dim_);
  for (auto& g : direction) g = rng->Gaussian();
  double offset = rng->UniformDouble() * w_;
  return std::make_unique<PStableFunction>(std::move(direction), offset, w_);
}

double PStableFamily::CollisionProbability(double dist) const {
  if (dist <= 0.0) return 1.0;
  double ratio = w_ / dist;
  return 1.0 - 2.0 * NormalCdf(-ratio) -
         (2.0 / (std::sqrt(2.0 * M_PI) * ratio)) *
             (1.0 - std::exp(-ratio * ratio / 2.0));
}

MlshParams PStableFamily::mlsh_params() const {
  return MlshParams{0.99 * w_, std::exp(-2.0 * std::sqrt(2.0 / M_PI) / w_),
                    1.0 / (4.0 * std::sqrt(2.0))};
}

}  // namespace rsr

// Locality sensitive hashing interfaces (Definitions 2.1 and 2.2).
//
// A drawn LshFunction maps points to 64-bit bucket ids; equality of bucket
// ids is collision. LshFamily::CollisionProbability exposes the analytic
// collision curve used by the property tests and bench_mlsh_curves to verify
// the MLSH sandwich  p^f <= Pr[h(x)=h(y)] <= p^{alpha f}  (f = distance).
#ifndef RSR_LSH_LSH_FAMILY_H_
#define RSR_LSH_LSH_FAMILY_H_

#include <cmath>
#include <memory>
#include <string>

#include "geometry/metric.h"
#include "geometry/point.h"
#include "util/random.h"

namespace rsr {

/// Parameters of a standard LSH family (Definition 2.1).
struct LshParams {
  double r1 = 0;
  double r2 = 0;
  double p1 = 0;
  double p2 = 0;

  /// rho = log(1/p1) / log(1/p2), the meta-parameter of Section 4.
  double rho() const { return std::log(1.0 / p1) / std::log(1.0 / p2); }
};

/// Parameters of a multi-scale LSH family (Definition 2.2):
/// Pr[h(x)=h(y)] <= p^{alpha f(x,y)}, and Pr >= p^{f(x,y)} for f(x,y) <= r.
struct MlshParams {
  double r = 0;
  double p = 0;
  double alpha = 0;
};

/// A single drawn hash function.
///
/// Eval is the scalar reference; the batch entry points are the hot paths
/// used by the protocol pipelines: one virtual call per *function* instead
/// of one per (point, function), with the drawn parameters hoisted out of
/// the point loop. Each batch path reads one PointStore layout: raw integer
/// rows (EvalCoordBatch), the store's row-major double plane
/// (EvalFlatBatch), or a column-major double block (EvalColsBatch). Every
/// override must produce bucket ids bit-identical to Eval (enforced by
/// lsh_batch_test), so transcripts never depend on which path a caller
/// takes.
class LshFunction {
 public:
  virtual ~LshFunction() = default;
  virtual uint64_t Eval(const Point& x) const = 0;

  /// True iff EvalFlatBatch is implemented. Families whose arithmetic starts
  /// from double coordinates (grid, one-sided grid, 2-stable) support it;
  /// the pipeline then reads the store's cached double plane instead of
  /// re-converting int64 coordinates in every one of the s function passes.
  /// int64 -> double is a single well-defined rounding, so hoisting it
  /// cannot change any bucket id. Families that consume raw integer
  /// coordinates (bit sampling) stay on EvalCoordBatch.
  virtual bool SupportsFlatBatch() const { return false; }

  /// Writes Eval(x_i) to out[i * out_stride] for the n points of a
  /// row-major n x dim matrix of pre-converted double coordinates
  /// (coords[i * dim + j] == (double)x_i[j]). The stride lets callers fill
  /// one column of a row-major evaluation matrix without a scatter pass.
  /// Only valid when SupportsFlatBatch(); the default CHECK-fails.
  virtual void EvalFlatBatch(const double* coords, size_t n, size_t dim,
                             uint64_t* out, size_t out_stride) const;

  /// Like EvalFlatBatch, but over COLUMN-major double coordinates:
  /// cols[j * col_stride + i] == (double)points[i][j]. This is the layout
  /// the eval pipeline pre-transposes each point block into (once, amortized
  /// over all s drawn functions), and the layout the SIMD kernels want — a
  /// vector lane load of consecutive points' coordinate j is one contiguous
  /// load. Only valid when SupportsFlatBatch(). The default gathers rows
  /// into a temporary and defers to EvalFlatBatch (correct for any flat
  /// family, but allocating); the built-in flat families override it with
  /// the dispatched column kernels.
  virtual void EvalColsBatch(const double* cols, size_t col_stride, size_t n,
                             size_t dim, uint64_t* out,
                             size_t out_stride) const;

  /// Like EvalFlatBatch over a row-major n x dim matrix of raw integer
  /// coordinates (one PointStore arena: coords + i * dim is point i's row).
  /// Every family overrides this allocation-free (the batch kernels are
  /// templated on the row accessor); the default materializes a temporary
  /// Point per row, which is correct for exotic families but slow. Results
  /// are bit-identical to Eval, like every other batch path.
  virtual void EvalCoordBatch(const Coord* coords, size_t n, size_t dim,
                              uint64_t* out, size_t out_stride) const;
};

/// A distribution over hash functions.
class LshFamily {
 public:
  virtual ~LshFamily() = default;

  virtual std::unique_ptr<LshFunction> Draw(Rng* rng) const = 0;
  virtual std::string Name() const = 0;

  /// Analytic Pr[h(x)=h(y)] for points at distance `dist` under the family's
  /// metric. For families whose collision probability depends on the
  /// coordinate layout (grid/l1), this returns the concentrated-layout value
  /// (all distance in one coordinate), which is the layout minimizing the
  /// probability; the MLSH sandwich holds for every layout.
  virtual double CollisionProbability(double dist) const = 0;

  virtual MetricKind metric() const = 0;
};

/// An LshFamily that additionally satisfies Definition 2.2.
class MlshFamily : public LshFamily {
 public:
  virtual MlshParams mlsh_params() const = 0;
};

/// Draws `count` independent functions from a family.
std::vector<std::unique_ptr<LshFunction>> DrawMany(const LshFamily& family,
                                                   size_t count, Rng* rng);

}  // namespace rsr

#endif  // RSR_LSH_LSH_FAMILY_H_

// Synthetic workload generators.
//
// The paper motivates robust reconciliation with sensor networks and noisy
// numerical databases but names no dataset (it is a theory paper), so
// evaluation workloads are generated with a controlled ground truth: both
// parties observe the same underlying objects perturbed independently within
// radius `noise` (the r1 regime), and each party additionally holds
// `outliers` fresh points at distance >= outlier_dist from everything else
// (the r2 regime / the k far points). This realizes exactly the promise
// structure of Definition 4.1 and the EMD_k decomposition of Section 3.
//
// Generators emit PointStore arenas, filled in place row by row.
#ifndef RSR_WORKLOAD_GENERATORS_H_
#define RSR_WORKLOAD_GENERATORS_H_

#include "geometry/metric.h"
#include "geometry/point_store.h"
#include "util/random.h"
#include "util/status.h"

namespace rsr {

/// Uniform random point set in [0, delta]^dim, appended to *out.
void GenerateUniformInto(size_t n, size_t dim, Coord delta, Rng* rng,
                         PointStore* out);
PointStore GenerateUniformStore(size_t n, size_t dim, Coord delta, Rng* rng);

/// Perturbs the `dim`-coordinate row `p` by at most `radius` under the
/// metric (exact budget for Hamming/l1; l2 offsets are verified and rescaled
/// after rounding), writing the result to `out` (may not alias `p`).
void PerturbRowInto(const Coord* p, size_t dim, MetricKind metric,
                    double radius, Coord delta, Rng* rng, Coord* out);

struct NoisyPairConfig {
  MetricKind metric = MetricKind::kL2;
  size_t dim = 0;
  Coord delta = 0;
  /// Points per side (ground truth size = n - outliers).
  size_t n = 0;
  /// Far points per side.
  size_t outliers = 0;
  /// Per-point perturbation radius (the r1 scale).
  double noise = 0.0;
  /// Minimum distance of each outlier from ground truth, perturbed points,
  /// and other outliers (the r2 scale). 0 disables the constraint.
  double outlier_dist = 0.0;
  uint64_t seed = 0;
};

/// Store-native workload: one arena per logical set.
struct NoisyPairStoreWorkload {
  PointStore alice;
  PointStore bob;
  PointStore ground;          // shared ground truth (size n - outliers)
  PointStore alice_outliers;  // also appended to alice
  PointStore bob_outliers;    // also appended to bob
};

/// Builds a workload; OutOfRange if outlier separation cannot be met.
Result<NoisyPairStoreWorkload> GenerateNoisyPairStore(
    const NoisyPairConfig& config);

}  // namespace rsr

#endif  // RSR_WORKLOAD_GENERATORS_H_

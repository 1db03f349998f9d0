// Baseline: randomly offset hierarchical grid + classic IBLT (Chen et al [7]).
//
// The prior robust-set-reconciliation protocol for the EMD model: impose a
// randomly shifted quadtree (hierarchical grid, cell side 2^l) on [Delta]^d,
// round points to their cells, and ship one classic IBLT of rounded points
// per level. Bob decodes the finest feasible level and repairs his set with
// cell centers. Rounding to a cell of side 2^l costs up to d*2^l in l1 per
// point — the source of the O(d)-approximation this paper improves to
// O(log n). bench_vs_quadtree measures exactly that crossover as d grows.
#ifndef RSR_CORE_QUADTREE_BASELINE_H_
#define RSR_CORE_QUADTREE_BASELINE_H_

#include "core/transcript.h"
#include "geometry/point_store.h"
#include "util/status.h"

namespace rsr {

struct QuadtreeEmdParams {
  size_t dim = 0;
  Coord delta = 0;
  /// Difference budget; IBLTs hold cell_multiplier * k cells each.
  size_t k = 1;
  double cell_multiplier = 12.0;
  int num_hashes = 4;
  /// Decode cap per level (mirrors Algorithm 1's 4k cap).
  size_t max_diff_entries = 0;  // 0 = 4k
  uint64_t seed = 0;
};

struct QuadtreeEmdReport {
  bool failure = false;
  PointStore s_b_prime;
  /// Chosen level l* (cell side 2^l); 0 is the finest.
  size_t decoded_level = 0;
  size_t levels = 0;
  size_t added = 0;
  size_t removed = 0;
  CommStats comm;
};

Result<QuadtreeEmdReport> RunQuadtreeEmdProtocol(
    const PointStore& alice, const PointStore& bob,
    const QuadtreeEmdParams& params);

}  // namespace rsr

#endif  // RSR_CORE_QUADTREE_BASELINE_H_

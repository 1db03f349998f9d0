// Trivial baselines: full transfer and exact IBLT set reconciliation.
//
// Full transfer is the paper's reference point "the naive O(n log|U|)
// communication". Exact IBLT reconciliation is standard (non-robust) set
// reconciliation: perfect when the sets differ in a few *identical* points
// (EMD_k = 0 regime), but it pays for every noisy point because near-equal
// points do not cancel — which is the motivation for robust reconciliation.
#ifndef RSR_CORE_NAIVE_H_
#define RSR_CORE_NAIVE_H_

#include "core/adaptive.h"
#include "core/transcript.h"
#include "geometry/point_store.h"
#include "util/status.h"

namespace rsr {

struct NaiveReport {
  PointStore s_b_prime;
  CommStats comm;
};

/// Alice ships S_A verbatim; Bob replaces (EMD model) or unions (Gap model).
/// The point-set message streams the arena straight onto the wire.
NaiveReport RunNaiveFullTransfer(const PointStore& alice, const PointStore& bob,
                                 bool union_mode);

struct ExactReconParams {
  size_t dim = 0;
  Coord delta = 0;
  /// IBLT cells; should exceed ~1.3x the expected symmetric difference.
  /// With adaptive sizing enabled this is the CAP: the negotiated count can
  /// shrink below it but never exceed it.
  size_t num_cells = 0;
  int num_hashes = 4;
  /// Strata-driven sizing of the IBLT (core/adaptive.h). When enabled, Bob
  /// first sends an estimator over his salted point keys (one extra B->A
  /// round) and Alice prepends her negotiated cell count to the sketch
  /// message. Default OFF: single round, byte-identical to before.
  AdaptiveSizingParams adaptive;
  uint64_t seed = 0;
};

struct ExactReconReport {
  /// True iff the IBLT failed to decode (difference exceeded capacity).
  bool failure = false;
  /// On success equals S_A as a multiset: Bob's kept rows in sorted order,
  /// then the decoded insertions.
  PointStore s_b_prime;
  size_t diff_size = 0;
  CommStats comm;
};

/// One round: Alice sends an IBLT of her (occurrence-salted) points with the
/// packed coordinates as values; Bob deletes his, decodes, and applies the
/// difference. Store-native: sorting, hashing, and packing all walk the
/// arena.
Result<ExactReconReport> RunExactIbltReconciliation(
    const PointStore& alice, const PointStore& bob,
    const ExactReconParams& params);

}  // namespace rsr

#endif  // RSR_CORE_NAIVE_H_

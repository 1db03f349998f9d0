// The Earth Mover's Distance protocol (Algorithm 1, Theorem 3.4).
//
// One round: Alice builds t = ceil(log2(D2/D1)) + 1 RIBLTs; the level-i key
// of a point is a pairwise-independent hash of the prefix of s_i MLSH
// evaluations, and the value is the point itself. Bob deletes his pairs,
// finds the finest level i* that decodes to at most 4k pairs (2k per party),
// matches the decoded X_B against S_B at minimum cost (Hungarian) to pick
// the removal set Y_B, and outputs S'_B = (S_B \ Y_B) ∪ X_A.
//
// Guarantee (Theorem 3.4): with constant probability,
//   EMD(S_A, S'_B) <= O(alpha^{-1} log n) * EMD_k(S_A, S_B),
// with O(k d log(Delta n) log(D2/D1)) bits of one-way communication.
//
// With EmdProtocolParams::adaptive enabled, a size-negotiation round
// precedes the sketch message: Bob first sends per-level strata estimators
// over his level keys, and Alice sizes each level's RIBLT from the estimated
// difference instead of the static c q^2 k (core/adaptive.h). Two messages
// total; the static path is unchanged.
#ifndef RSR_CORE_EMD_PROTOCOL_H_
#define RSR_CORE_EMD_PROTOCOL_H_

#include "core/emd_sketch.h"
#include "core/params.h"
#include "core/transcript.h"
#include "geometry/point.h"
#include "geometry/point_store.h"
#include "util/status.h"

namespace rsr {

struct EmdLevelOutcome {
  size_t prefix_len = 0;   // s_i MLSH draws hashed into the level key
  bool decoded = false;
  size_t pairs_alice = 0;  // |X_A| at this level (if decoded)
  size_t pairs_bob = 0;    // |X_B|
};

struct EmdProtocolReport {
  /// True iff no level decoded (the protocol "reports failure").
  bool failure = false;
  /// Bob's output set (|S'_B| = n on success; dim-0 and empty on failure).
  PointStore s_b_prime;
  /// i*, 1-based; 0 on failure.
  size_t decoded_level = 0;
  std::vector<EmdLevelOutcome> levels;
  /// Per-level RIBLT cell counts actually provisioned: derived.cells at
  /// every level when adaptive sizing is off, the negotiated (clamped)
  /// counts when it is on.
  std::vector<size_t> level_cells;
  /// Points extracted at level i* (moved straight out of the store-native
  /// decode result; row order is extraction order).
  PointStore x_a, x_b;
  /// Size repair bookkeeping (|X_A| != |X_B| handling; see "Size repair"
  /// in core/README.md).
  size_t trimmed_from_x_a = 0;
  size_t kept_in_y_b = 0;
  CommStats comm;
  EmdDerived derived;
};

/// Runs Algorithm 1. Requires |alice| == |bob| >= 1, equal dimensions, all
/// coordinates in [0, delta]. A DecodeFailure at every level is NOT an error
/// status: the report comes back with failure = true (the paper's protocol
/// explicitly reports failure with probability <= 1/8 when
/// EMD_k <= D2).
Result<EmdProtocolReport> RunEmdProtocol(const PointStore& alice,
                                         const PointStore& bob,
                                         const EmdProtocolParams& params);

/// Runs the protocol against a prebuilt (or incrementally maintained)
/// Alice-side sketch set instead of hashing Alice's points: the per-sync
/// sketch cost drops to serializing the maintained cells. Requires |bob| ==
/// alice.n and `params` matching the build-time configuration. The
/// transcript and report are byte-identical to RunEmdProtocol over the same
/// point sets (emd_protocol.cc builds both from the same tail).
///
/// With params.adaptive enabled, the rounding mode must be
/// CellRounding::kDivisorLadder and the sketch set must carry estimators
/// (BuildEmdSketches with build_estimators = true, or a SyncDataset): the
/// negotiation round runs off the maintained estimators, and the negotiated
/// per-level tables are produced by FOLDING the maintained cap-size tables
/// down (FoldEmdSketches) rather than rebuilding from points — O(levels *
/// cap) work per sync independent of n. Pass `scratch` to pool the folded
/// tables across syncs (a stable-rung session allocates nothing after its
/// first exchange); nullptr uses call-local scratch.
Result<EmdProtocolReport> RunEmdProtocolPrebuilt(
    const EmdSketchSet& alice, const PointStore& bob,
    const EmdProtocolParams& params, EmdServeScratch* scratch = nullptr);

}  // namespace rsr

#endif  // RSR_CORE_EMD_PROTOCOL_H_

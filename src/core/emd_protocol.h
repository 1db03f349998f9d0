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
//
// Each party's half is one step over wire bytes: EmdReceiver (Bob) and
// EmdSender (Alice, from her points or a maintained sketch set). The entry
// points derive the public-coin state once and carry bytes between them.
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

/// Bob's step over S_B. Holds `bob` and `params` by reference.
class EmdReceiver {
 public:
  /// Checks S_B against params.dim and params.delta (aborts, like every
  /// entry point) and evaluates his level keys.
  EmdReceiver(const PointStore& bob, const EmdProtocolParams& params,
              const EmdDerived& derived, const EmdHashes& hashes);

  /// B->A (adaptive sizing): one strata estimator per level. It opens the
  /// exchange, so a compact one carries the wire header.
  void WriteEstimatorMessage(ByteWriter* out) const;

  /// A->B: parses Alice's message, deletes his pairs, decodes from the
  /// finest level and repairs S_B. No level decoding gives failure = true,
  /// not an error. `comm` is left to whoever carries the messages.
  Result<EmdProtocolReport> Reconcile(std::span<const uint8_t> message) const;

 private:
  const PointStore& bob_;
  const EmdProtocolParams& params_;
  EmdDerived derived_;
  std::vector<uint64_t> keys_;  // level-major
};

/// Alice's step. Every level has derived.cells cells until
/// ReadEstimatorMessage picks sizes. Holds its source, `params` and
/// `scratch` by reference.
class EmdSender {
 public:
  /// From her points: checks and keys S_A, and builds the tables at the
  /// chosen sizes. Serves every CellRounding.
  static EmdSender Cold(const PointStore& alice,
                        const EmdProtocolParams& params,
                        const EmdDerived& derived, const EmdHashes& hashes);

  /// From a prebuilt or maintained set: its tables as they are (static), or
  /// folded into `scratch` at the chosen sizes (adaptive: needs
  /// kDivisorLadder, estimators and a scratch). InvalidArgument when the
  /// set was built under another `derived` or lacks what is needed.
  static Result<EmdSender> Warm(const EmdSketchSet& sketches,
                                const EmdProtocolParams& params,
                                const EmdDerived& derived,
                                EmdServeScratch* scratch);

  /// B->A: parses Bob's estimators and sizes each level against her own
  /// (NegotiateLevelCells).
  Status ReadEstimatorMessage(std::span<const uint8_t> message);

  /// A->B into `out` (cleared first): the wire header (static compact) or
  /// the sizes prefix (adaptive), then one table per level.
  Status WriteTables(ByteWriter* out);

 private:
  EmdSender(const EmdProtocolParams& params, const EmdDerived& derived)
      : params_(params),
        derived_(derived),
        level_cells_(derived.levels, derived.cells) {}

  const EmdProtocolParams& params_;
  EmdDerived derived_;
  std::vector<size_t> level_cells_;
  const PointStore* points_ = nullptr;  // cold source, keyed by keys_
  std::vector<uint64_t> keys_;
  const EmdSketchSet* sketches_ = nullptr;  // warm source
  EmdServeScratch* scratch_ = nullptr;
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
/// point sets: only Alice's source differs.
///
/// With params.adaptive enabled, the rounding must be kDivisorLadder and the
/// set must carry estimators (BuildEmdSketches with build_estimators = true,
/// or a SyncDataset): the negotiated tables are FOLDED down from the
/// maintained cap-size ones — O(levels * cap) work per sync independent of
/// n. Pass `scratch` to pool the folded tables and the message across syncs
/// (a stable-rung session allocates nothing for them after its first
/// exchange); nullptr uses call-local scratch.
Result<EmdProtocolReport> RunEmdProtocolPrebuilt(
    const EmdSketchSet& alice, const PointStore& bob,
    const EmdProtocolParams& params, EmdServeScratch* scratch = nullptr);

}  // namespace rsr

#endif  // RSR_CORE_EMD_PROTOCOL_H_

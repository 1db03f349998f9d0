// The Gap Guarantee protocol (Section 4.1, Theorem 4.2).
//
// Four rounds. Each party builds, per point, a key: a vector of h =
// Theta(log n) entries, where entry j is a pairwise-independent hash of a
// batch of m = log_{p2}(1/2) LSH evaluations. Close points (distance <= r1)
// agree on almost all entries; far points (distance >= r2) agree on few.
// Alice recovers the multiset of Bob's keys via set-of-sets reconciliation
// (3 messages; setsets/reconciler.h), flags each of her keys whose best
// match against Bob's keys falls below the threshold tau, and transmits the
// elements carrying flagged keys (the 4th message). Bob concludes with
// S'_B = S_B ∪ T_A, and every point of S_A ∪ S_B is within r2 of S'_B whp.
#ifndef RSR_CORE_GAP_PROTOCOL_H_
#define RSR_CORE_GAP_PROTOCOL_H_

#include "core/params.h"
#include "core/transcript.h"
#include "geometry/point_store.h"
#include "hashing/pairwise.h"
#include "lsh/lsh_family.h"
#include "setsets/reconciler.h"
#include "util/status.h"

namespace rsr {

struct GapProtocolParams {
  MetricKind metric = MetricKind::kHamming;
  size_t dim = 0;
  Coord delta = 1;
  /// Gap radii 0 < r1 < r2 of Definition 4.1.
  double r1 = 0;
  double r2 = 0;
  /// Far-point budget k (used only for sketch sizing; correctness never
  /// depends on it thanks to the reconciler's retries).
  size_t k = 1;
  /// h = ceil(h_multiplier * log2 n) key entries.
  double h_multiplier = 6.0;
  /// Reconciler configuration; sig/elem cell counts of 0 are auto-sized from
  /// the expected difference counts. Setting reconciler.adaptive.enabled
  /// turns on strata-driven sizing of the signature IBLT (the single-level
  /// variant of core/adaptive.h): the auto-sized sig_cells become the cap,
  /// and the actual starting size is negotiated from an estimator over the
  /// parties' key multisets (one extra message, counted in comm).
  SetsReconcilerParams reconciler;
  /// Worker threads for the batch LSH/key evaluation (<= 1 = inline).
  /// Transcripts are bit-identical for every value.
  size_t num_threads = 1;
  /// Shared seed (public coins).
  uint64_t seed = 0;
};

/// Parameters derived per Theorem 4.2.
struct GapDerived {
  size_t h = 0;    // key entries
  size_t m = 0;    // LSH evaluations per entry
  double p1 = 0;   // close-pair collision lower bound (single LSH)
  double p2 = 0;   // far-pair collision upper bound (single LSH)
  double rho = 0;  // log(1/p1)/log(1/p2)
  double q1 = 0;   // per-entry close match prob p1^m
  double q2 = 0;   // per-entry far match prob p2^m (<= 1/2)
  double tau = 0;  // far iff best match count < tau
};

struct GapProtocolReport {
  /// Bob's final set S_B ∪ T_A: Bob's rows, then T_A in wire order.
  PointStore s_b_prime;
  /// T_A: Alice's transmitted elements.
  PointStore transmitted;
  /// Number of Alice's distinct keys flagged far.
  size_t far_keys = 0;
  GapDerived derived;
  SetsReconcilerReport reconciliation;
  CommStats comm;
};

/// Runs the protocol. Returns InvalidArgument when both sets are empty, dim
/// is 0, the radii give no usable gap, or h_multiplier is negative, NaN or
/// infinite or makes h reach kMaxSlots (h_multiplier 0 clamps h to 2).
///
/// Inputs are programmer-supplied, not peer bytes: a non-empty store whose
/// dim differs from params.dim, or any coordinate outside [0, params.delta],
/// aborts the process (RSR_CHECK). Every coordinate of both stores is
/// checked while the keys are built, before any LSH function reads it and
/// before the first message, so an abort never leaves a partial exchange.
Result<GapProtocolReport> RunGapProtocol(const PointStore& alice,
                                         const PointStore& bob,
                                         const GapProtocolParams& params);

namespace internal {

/// Shared pipeline for the general and low-dimension variants: key
/// construction from `functions` (h batches of m, BuildGapKeys, which
/// range-checks both stores), reconciliation, far detection at threshold
/// tau, final transmission.
struct GapPipelineConfig {
  size_t h = 0;
  size_t m = 0;
  double tau = 0;
  /// Coordinate bound of both inputs (the entry point's params.delta;
  /// defaults as GapProtocolParams::delta). BuildGapKeys aborts on a
  /// coordinate outside [0, delta].
  Coord delta = 1;
  SetsReconcilerParams reconciler;
  size_t num_threads = 1;
  uint64_t seed = 0;
};

struct GapPipelineResult {
  PointStore s_b_prime;
  PointStore transmitted;
  size_t far_keys = 0;
  SetsReconcilerReport reconciliation;
  CommStats comm;
};

Result<GapPipelineResult> RunGapPipeline(
    const PointStore& alice, const PointStore& bob,
    const std::vector<std::unique_ptr<LshFunction>>& functions,
    const GapPipelineConfig& config);

/// The h-slot Gap keys of every row of `points`, h = slot_hashes.size():
///   keys[i][j] = (uint32) H_j(Eval_{jm}(p_i) .. Eval_{jm+m-1}(p_i)),
/// the low 32 bits of slot j's vector hash H_j = slot_hashes[j] over its m
/// evaluations.
/// `functions` holds h * m draws, h, m >= 1. One pass per row block of at
/// most 128 KiB of coordinates (never fewer than one row): RSR_CHECK that
/// every coordinate of the block lies in [0, delta], evaluate the block into
/// a small per-shard matrix, and hash its h slots while the block is still
/// in cache, so no n x (h * m) evaluation matrix exists and the store is
/// read once. Keys are identical for every num_threads.
std::vector<SlottedSet> BuildGapKeys(
    const PointStore& points, Coord delta,
    const std::vector<std::unique_ptr<LshFunction>>& functions,
    const std::vector<PairwiseVectorHash>& slot_hashes, size_t m,
    size_t num_threads);

/// Far detection over h-slot keys: Alice's key is far when its best
/// slot-match count against every key of `bob_keys` is below `tau`.
struct FarDetection {
  /// Alice's far rows (indices into `alice_keys`), grouped by key in
  /// ascending lexicographic key order, rows ascending within a key.
  std::vector<size_t> far_rows;
  /// Number of distinct far keys.
  size_t far_keys = 0;
};

/// Exact pigeonhole candidate filter (the one of multi-index Hamming
/// search). With need = ceil(tau), a key is far iff no Bob key matches it in
/// need or more slots. Nothing is far when need <= 0; everything is far when
/// need > h or Bob has no keys. Otherwise the h slots split into
/// G = h - need + 1 contiguous groups, group g being slots
/// [g*h/G, (g+1)*h/G). A Bob key matching in >= need slots mismatches in at
/// most h - need = G - 1, so at least one whole group agrees exactly. Each
/// group's sub-key is hashed and indexed over Bob's keys; a Bob key that
/// shares some group sub-key with Alice's key is a candidate and is
/// verified by a full slot compare that stops at need matches. Every close
/// Bob key is therefore a candidate, and a sub-key hash collision only adds
/// a verification, so the result equals the all-pairs count exactly.
/// All keys must have the same length h.
FarDetection DetectFarKeys(const std::vector<SlottedSet>& alice_keys,
                           const std::vector<SlottedSet>& bob_keys,
                           double tau);

}  // namespace internal

}  // namespace rsr

#endif  // RSR_CORE_GAP_PROTOCOL_H_

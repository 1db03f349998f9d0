// Multiset-of-sets reconciliation over slotted sets (Theorem E.1 interface).
//
// The Gap protocol (Section 4.1) consumes the protocol of [MM18] as a black
// box: Alice must recover Bob's multiset of keys with communication
// proportional to the number of differing key entries. This module provides
// two from-scratch implementations of that interface:
//
//   kVerbatim   — 3 messages. (1) Bob->Alice: IBLT of occurrence-salted set
//                 signatures; (2) Alice->Bob: signatures she is missing;
//                 (3) Bob->Alice: those sets verbatim. This is the
//                 "different protocol ... with only a small weakening of the
//                 bounds" the paper itself references.
//   kFingerprint — 3 messages + rare fallback. Message (3) instead carries an
//                 element-level IBLT over the differing sets' elements
//                 (cost ~ z, the number of differing elements) plus per-set
//                 b-bit per-slot fingerprints; Alice reconstructs each of
//                 Bob's differing sets by slot-wise fingerprint matching
//                 against her candidate pool (decoded diff elements plus her
//                 own differing sets' elements), resolving ambiguity by DFS
//                 with 64-bit signature verification. Unresolved sets are
//                 fetched verbatim in an extra round (counted in the report).
//
// Fingerprint-mode reconstruction runs off one per-slot fingerprint index.
// Each distinct candidate (slot, value) is fingerprinted once, and the
// candidates are kept sorted by (slot, fingerprint, value), with a flat
// open-addressing table from (slot, fingerprint) to its run. A record's
// candidate list for a slot is that run: the candidates carrying its
// fingerprint, in ascending value order, which is the list a filter over
// the sorted candidates would give. One DFS reconstructor and one set of
// per-slot spans serve every record, so rebuilding a set allocates only the
// recovered set itself. Occurrence salting and candidate deduplication use
// the same kind of flat table, so no step allocates per element.
//
// Both modes retry failed sketch decodes with doubled sizes (extra rounds,
// counted), and degrade to full verbatim transfer as a last resort, so the
// interface contract — Alice ends with exactly Bob's multiset — holds
// unconditionally; only the communication varies. Every IBLT is filled by
// Iblt::InsertMany / DeleteMany, one key after another, as in Section 2.2.
#ifndef RSR_SETSETS_RECONCILER_H_
#define RSR_SETSETS_RECONCILER_H_

#include <cstdint>
#include <vector>

#include "core/adaptive.h"
#include "core/transcript.h"
#include "setsets/sethash.h"
#include "util/random.h"
#include "util/serialize.h"
#include "util/status.h"
#include "util/wire.h"

namespace rsr {

enum class SetsReconcilerMode {
  kVerbatim,
  kFingerprint,
};

struct SetsReconcilerParams {
  SetsReconcilerMode mode = SetsReconcilerMode::kFingerprint;
  /// Initial cell count of the signature IBLT (doubled on retry). 0 lets the
  /// caller's auto-sizing decide (the Gap protocols size from the expected
  /// difference counts); standalone use with 0 starts tiny and doubles.
  size_t sig_cells = 0;
  /// Initial cell count of the element IBLT (fingerprint mode; doubled on
  /// retry). 0 as above.
  size_t elem_cells = 0;
  int num_hashes = 4;
  /// Wire width of IBLT checksums (see IbltParams::checksum_bytes).
  int checksum_bytes = 4;
  /// Per-slot fingerprint width in bits (1..32), fingerprint mode only;
  /// ReconcileSetsOfSets rejects other widths with InvalidArgument.
  /// 8 bits suffice: a fingerprint collision only adds a DFS branch, and the
  /// 64-bit set signature rejects wrong reconstructions.
  int fingerprint_bits = 8;
  /// Maximum decode attempts per sketch before falling back. With adaptive
  /// sizing the signature ladder may exceed this count: it keeps doubling
  /// until it has also tried at least the static ladder's largest size, so
  /// a low estimate can cost extra rounds but never a reconciliation the
  /// static path would have completed.
  int max_attempts = 4;
  /// DFS node budget per set during reconstruction.
  size_t dfs_budget = 20000;
  /// Strata-driven sizing of the signature IBLT (core/adaptive.h). When
  /// enabled, Alice (the sketch receiver) first sends an estimator over her
  /// salted signatures (one A->B message) and Bob prepends the negotiated
  /// starting cell count — clamped to the static sig_cells sizing — to his
  /// first sig-IBLT message; the doubling retries then proceed from that
  /// size, so correctness is unchanged. Default OFF.
  AdaptiveSizingParams adaptive;
  /// Wire codec for the exchange (util/wire.h): the first message — the
  /// adaptive estimator when enabled, otherwise Bob's first sig-IBLT —
  /// carries the versioned header under kCompact; IBLTs are codec-dispatched
  /// and the missing-signatures report becomes a sorted varint-delta key
  /// stream (util/key_stream.h), which reorders — but never changes — the
  /// recovered multiset. kClassic stays byte-identical to the historical
  /// transcripts.
  WireCodec codec = DefaultWireCodec();
  /// Shared seed (public coins).
  uint64_t seed = 0;
};

struct SetsReconcilerReport {
  /// Bob's complete multiset of sets as recovered by Alice.
  std::vector<SlottedSet> bob_sets;
  /// Number of Bob's sets Alice was missing / Alice's sets Bob was missing.
  size_t diff_sets_bob = 0;
  size_t diff_sets_alice = 0;
  /// Differing elements decoded from the element IBLT (fingerprint mode).
  size_t diff_elements = 0;
  CommStats comm;
  int sig_attempts = 1;
  int elem_attempts = 0;
  /// Sets that needed the verbatim fallback in fingerprint mode.
  size_t fallback_sets = 0;
  /// True if the whole protocol degraded to a full transfer.
  bool full_transfer = false;
};

/// Runs the reconciliation; Alice (first argument) recovers Bob's multiset.
/// All sets must have the same number of slots (< 2^16).
Result<SetsReconcilerReport> ReconcileSetsOfSets(
    const std::vector<SlottedSet>& alice_sets,
    const std::vector<SlottedSet>& bob_sets,
    const SetsReconcilerParams& params);

namespace internal {

/// Reads a varint count followed by that many `slots`-entry sets (one u32
/// per slot, slots >= 1), appending them to *out. A count the remaining
/// bytes cannot hold poisons the reader before it sizes the loop. Returns
/// the reader's status.
Status ReadSets(ByteReader* r, size_t slots, std::vector<SlottedSet>* out);

}  // namespace internal

}  // namespace rsr

#endif  // RSR_SETSETS_RECONCILER_H_

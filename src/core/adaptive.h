// Strata-driven adaptive sketch sizing (size negotiation phase).
//
// Every protocol in this library historically provisioned its difference
// sketches statically — the EMD protocol at cells = c q^2 k per level, the
// set-of-sets reconciler and the exact-IBLT baseline at caller-guessed cell
// counts — so a sync whose true difference is 10 pairs paid the same
// communication as one with 4k. This module adds an optional negotiation
// phase in the Eppstein et al. style: the sketch RECEIVER first sends a
// StrataEstimator over its keys (one estimator per sketch, sharing one wire
// message), the sketch SENDER estimates each sketch's difference via
// StrataEstimator::EstimateDiff, sizes the sketch to
//
//     clamp(cells_per_diff * estimate, floor_cells, cap_cells)
//
// cells — where cap_cells is exactly the static sizing, so adaptive can
// never provision MORE than the legacy path — and prepends the chosen sizes
// to its sketch message so the receiver can parse. The extra message is a
// real round, recorded in the Transcript like any other.
//
// Correctness never depends on the estimate: an undersized sketch fails to
// decode exactly as an overloaded static one does, and each consumer keeps
// its existing fallback (level scan in the EMD protocol, doubling retries in
// the reconciler, failure report in the exact baseline). An estimator that
// cannot be compared (parameter mismatch) or estimates above the cap falls
// back to cap_cells — the static sizing.
#ifndef RSR_CORE_ADAPTIVE_H_
#define RSR_CORE_ADAPTIVE_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/transcript.h"
#include "sketch/strata.h"
#include "util/serialize.h"
#include "util/status.h"
#include "util/wire.h"

namespace rsr {

/// How a negotiated cell count is rounded before it goes on the wire.
enum class CellRounding {
  /// Ship clamp(ceil(cells_per_diff * estimate), floor, cap) exactly — the
  /// historical behavior; transcripts are unchanged.
  kExact,
  /// Round up to the cap's divisor ladder (RoundUpToLadder): every shipped
  /// size's cells-per-subtable divides the cap's, so a table of that size is
  /// derivable from a maintained cap-size table by Riblt::FoldInto with zero
  /// rehashing. Required by the warm adaptive serving path
  /// (SyncDataset/SyncSession); the one-shot protocol accepts it too, which
  /// is what keeps warm and cold transcripts byte-identical.
  kDivisorLadder,
};

/// Configuration of the negotiation phase. Embedded in EmdProtocolParams,
/// SetsReconcilerParams, and ExactReconParams; `enabled = false` (the
/// default) keeps every protocol on its static one-shot path with
/// byte-identical transcripts.
struct AdaptiveSizingParams {
  bool enabled = false;
  /// Rounding applied to per-level negotiated counts (EMD path). The
  /// single-sketch and multi-party consumers size XOR-IBLTs that are never
  /// served from maintained state, so they ignore this and stay exact.
  CellRounding rounding = CellRounding::kExact;
  /// Cells provisioned per estimated difference pair. The EMD protocol
  /// multiplies this by q^2 (its RIBLT sizing is c q^2 k, so the adaptive
  /// target is cell_multiplier * q^2 * estimate); the XOR-IBLT consumers use
  /// it directly (~4 cells per difference is well above the ~1.3x decode
  /// threshold).
  double cell_multiplier = 4.0;
  /// Lower clamp on any negotiated cell count: keeps tiny estimates from
  /// producing sketches too small to absorb estimator noise.
  size_t floor_cells = 64;
};

/// StrataParams for sub-sketch `index` (RIBLT levels in the EMD protocol;
/// 0 for the single-sketch consumers), with a seed salted per index so the
/// per-level estimators are independent. The shape is fixed at 16 strata of
/// 32 cells, 4 hashes and 2-byte checksums, smaller than StrataParams'
/// defaults: the estimator message is pure overhead on top of the sketch it
/// sizes, and differences up to ~2^16 (far beyond any decode cap in this
/// library) are still tracked within a small constant factor.
StrataParams MakeLevelStrataParams(uint64_t seed, size_t index);

/// One estimator per level over a level-major key buffer: level l covers
/// keys[l*n .. l*n + n). Levels build on separate shards (ParallelShards);
/// the result is bit-identical for every num_threads because each level's
/// estimator is a pure function of its own key span. `params` does not
/// shape the estimators (MakeLevelStrataParams fixes them); it stays, here
/// and in ReadEstimators, only for the e2e benchmark's replay, which
/// ROADMAP.md item 1 deletes.
std::vector<StrataEstimator> BuildLevelEstimators(
    std::span<const uint64_t> level_major_keys, size_t levels, size_t n,
    const AdaptiveSizingParams& params, uint64_t seed, size_t num_threads);

/// Serializes all estimators into one message (concatenated strata; the
/// count and parameters are shared knowledge, like every sketch format in
/// this library). The one-byte wire header of a compact exchange is NOT
/// written here: the message that opens the exchange owns it (Bob's step,
/// EmdReceiver, on the EMD protocol's adaptive path).
void WriteEstimators(const std::vector<StrataEstimator>& estimators,
                     ByteWriter* w, WireCodec codec = DefaultWireCodec());

/// Parses `levels` estimators written by WriteEstimators.
Result<std::vector<StrataEstimator>> ReadEstimators(
    ByteReader* r, const AdaptiveSizingParams& params, uint64_t seed,
    size_t levels, WireCodec codec = DefaultWireCodec());

/// clamp(ceil(cells_per_diff * estimate), floor_cells, cap_cells). Saturates
/// through double arithmetic, so a UINT64_MAX estimate (the strata
/// extrapolation cap) cleanly lands on cap_cells. floor_cells > cap_cells
/// resolves to cap_cells.
size_t AdaptiveCellCount(uint64_t estimate, double cells_per_diff,
                         size_t floor_cells, size_t cap_cells);

/// The smallest divisor-ladder rung >= `cells` for a table whose cap is
/// `cap_cells` cells at `num_hashes` subtables. The ladder's rungs are
/// d * num_hashes cells for every proper divisor d of the cap's
/// cells-per-subtable (ceil(cap_cells / num_hashes) — the table
/// constructor's own rounding), topped by cap_cells itself; every rung lies
/// in [1, cap_cells], so ladder sizes always pass ReadNegotiatedCells.
/// `cells` >= the largest proper rung (or an empty ladder) lands on
/// cap_cells. Constructing a table at a rung and folding the cap-size table
/// down to it (Riblt::FoldInto) are byte-identical.
size_t RoundUpToLadder(size_t cells, size_t cap_cells, int num_hashes);

/// Per-level negotiated cell counts: local[l].EstimateDiff(remote[l]) fed
/// through AdaptiveCellCount, then — with rounding == kDivisorLadder —
/// through RoundUpToLadder(., cap_cells, table_hashes) so every shipped size
/// is foldable from the cap. Estimator errors (or a level missing from
/// `remote`) fall back to cap_cells. Levels negotiate on separate shards;
/// deterministic for every num_threads.
std::vector<size_t> NegotiateLevelCells(
    const std::vector<StrataEstimator>& local,
    const std::vector<StrataEstimator>& remote, double cells_per_diff,
    size_t floor_cells, size_t cap_cells, CellRounding rounding,
    int table_hashes, size_t num_threads);

/// Single-sketch negotiation (the reconciler's signature IBLT, the exact
/// baseline): builds the receiver-side estimator over `receiver_keys`,
/// records it as one message on `transcript` under `label`, parses it back
/// off the wire, compares against the sender-side estimator over
/// `sender_keys`, and returns clamp(cell_multiplier * estimate, floor, cap)
/// — cap_cells when the estimate is unavailable. How the sender communicates
/// the chosen size back (separate message vs sketch-message prefix) stays
/// with the caller.
/// The estimator message opens the exchange, so under kCompact it carries
/// the versioned wire header (util/wire.h) which the parsing side validates.
Result<size_t> NegotiateSingleSketchCells(std::span<const uint64_t> sender_keys,
                                          std::span<const uint64_t> receiver_keys,
                                          const AdaptiveSizingParams& params,
                                          uint64_t seed, size_t cap_cells,
                                          Transcript* transcript,
                                          const std::string& label,
                                          WireCodec codec = DefaultWireCodec());

/// Sizes prefix on the sketch message: one varint per level.
void WriteNegotiatedCells(const std::vector<size_t>& cells, ByteWriter* w);

/// Parses the prefix; every count must lie in [1, cap_cells] (the sender can
/// never outgrow the static sizing), anything else is Corruption.
Result<std::vector<size_t>> ReadNegotiatedCells(ByteReader* r, size_t levels,
                                                size_t cap_cells);

}  // namespace rsr

#endif  // RSR_CORE_ADAPTIVE_H_

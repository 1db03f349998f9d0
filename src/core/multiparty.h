// Multi-party exact set reconciliation (Mitzenmacher & Pagh [23]).
//
// s parties each hold a point set and all want the union. Each party
// broadcasts ONE sum-cell sketch of its set; party i then decodes
//   T = sum_j T_j - s * T_i.
// An element held by every party contributes s - s = 0 and vanishes; an
// element of multiplicity m < s survives with count m - s*[i has it], so the
// decoded load — and therefore the sketch size — is proportional to the
// total difference mass sum_x (s - multiplicity(x)), not to the set sizes.
// The sum-cell RIBLT is exactly the right substrate (XOR cells would cancel
// even-multiplicity elements); this is the same linearity Algorithm 1
// exploits, reused for the paper's cited multi-party setting.
#ifndef RSR_CORE_MULTIPARTY_H_
#define RSR_CORE_MULTIPARTY_H_

#include <vector>

#include "core/adaptive.h"
#include "core/transcript.h"
#include "geometry/point.h"
#include "geometry/point_store.h"
#include "util/status.h"

namespace rsr {

struct MultiPartyParams {
  size_t dim = 0;
  Coord delta = 0;
  /// Sketch cells per party; should be ~4 q^2 x the expected per-party
  /// decode load (elements not shared by all parties).
  size_t sketch_cells = 0;
  int num_hashes = 3;
  /// Decode cap (0 = sketch_cells, always decodable load).
  size_t max_decode = 0;
  /// Worker threads for per-party sketch construction and decoding (<= 1 =
  /// inline). Parties are independent, so results are bit-identical for
  /// every value.
  size_t num_threads = 1;
  /// Strata-driven adaptive sketch sizing (core/adaptive.h), star topology:
  /// parties 1..s-1 each send one estimator over their content keys to the
  /// hub (party 0); the hub sums its estimated pairwise differences
  /// sum_j est(|S_0 Δ S_j|) — a proxy for the decode load, which is bounded
  /// by the non-universal element mass — sizes the shared sketch to
  /// clamp(cell_multiplier q^2 sum, floor_cells, sketch_cells), and
  /// broadcasts the chosen size. The proxy can under-estimate (an element
  /// the hub shares with SOME parties is counted fewer times than its
  /// decode multiplicity), so correctness does not rest on it: if any party
  /// fails to decode at a negotiated size below the cap, a one-byte retry
  /// signal triggers a full re-broadcast at the static sketch_cells —
  /// adaptive mode therefore succeeds whenever static mode would, at the
  /// price of one extra round on a bad estimate. Default OFF: the one-round
  /// static path is byte-identical to before.
  AdaptiveSizingParams adaptive;
  /// Shared seed (public coins).
  uint64_t seed = 0;
};

struct MultiPartyReport {
  /// Per party: its input set extended with every decoded missing element.
  std::vector<PointStore> final_sets;
  /// Per party: whether its combined sketch decoded (failure leaves the
  /// party with its input set).
  std::vector<bool> party_ok;
  bool all_ok = false;
  /// Cells per sketch in the round the results came from: sketch_cells in
  /// static mode (and on an adaptive retry), the negotiated count otherwise.
  size_t used_cells = 0;
  /// True iff the negotiated round failed for some party and the broadcast
  /// was re-run at the static sketch_cells.
  bool retried = false;
  /// One broadcast message per party (plus, with adaptive enabled, the
  /// estimator round, the size broadcast, and any retry traffic).
  CommStats comm;
};

/// Runs the one-round broadcast protocol. Within-party duplicate points are
/// treated as a single copy (set semantics); deduplication, hashing, and
/// sketch insertion all walk each party's arena directly.
Result<MultiPartyReport> RunMultiPartyUnion(
    const std::vector<PointStore>& parties, const MultiPartyParams& params);

}  // namespace rsr

#endif  // RSR_CORE_MULTIPARTY_H_

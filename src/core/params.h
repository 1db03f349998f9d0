// Shared protocol parameter structures and derivations.
//
// EmdProtocolParams configures Algorithm 1 (Section 3); derived quantities
// (w, s, t, cell counts) follow Theorem 3.4 and footnotes 4-5. GapLshConfig
// derives the (r1, r2, p1, p2) LSH instantiation for the Gap protocol
// (Section 4.1): the scale w is chosen so p2 ~ 1/2, matching the protocol's
// requirement p2 >= 1/2 with m = log_{p2}(1/2) hashes per batch.
#ifndef RSR_CORE_PARAMS_H_
#define RSR_CORE_PARAMS_H_

#include <memory>

#include "core/adaptive.h"
#include "geometry/metric.h"
#include "lsh/lsh_family.h"
#include "util/wire.h"

namespace rsr {

struct EmdProtocolParams {
  MetricKind metric = MetricKind::kL2;
  size_t dim = 0;
  Coord delta = 0;
  /// Difference budget k of Theorem 3.4.
  size_t k = 1;
  /// Prior bounds D1 <= EMD_k <= D2; d2 == 0 derives n * diameter. The
  /// single-interval protocol costs time ~ n k d D2/D1, so large ratios
  /// should use the multiscale runner (emd_multiscale.h) instead.
  double d1 = 1.0;
  double d2 = 0.0;
  /// Upper bound M on max pairwise distance; 0 derives the space diameter.
  double m_bound = 0.0;
  /// q >= 3 RIBLT hash functions (Algorithm 1).
  int num_hashes = 3;
  /// Cells per RIBLT = cell_multiplier * q^2 * k (paper: 4 q^2 k). Ablation
  /// knob for bench_ablations.
  double cell_multiplier = 4.0;
  /// Cap on MLSH draws s (guards accidental quadratic blowups; exceeded =>
  /// InvalidArgument telling the caller to use the multiscale runner).
  size_t max_hash_draws = size_t{1} << 22;
  /// Worker threads for the batch LSH evaluation and per-level RIBLT
  /// construction (<= 1 = inline). Transcripts are bit-identical for every
  /// value: shards depend only on the input sizes and write disjoint ranges.
  size_t num_threads = 1;
  /// Not an option: every level table is filled by Riblt::InsertMany, one
  /// key after another. The constant stays only because the e2e benchmark's
  /// replay (bench/e2e/replay.cc) still reads it; ROADMAP.md item 1 deletes
  /// that replay copy and this field with it.
  static constexpr size_t sketch_shards = 1;
  /// Strata-driven adaptive RIBLT sizing (core/adaptive.h). When enabled the
  /// protocol gains a size-negotiation round: Bob first sends one
  /// StrataEstimator per level over his level keys (one message), Alice
  /// estimates each level's difference and sizes that level's RIBLT to
  /// clamp(cell_multiplier * q^2 * estimate, floor_cells, c q^2 k) cells,
  /// prepending the chosen sizes to her message. Default OFF: the static
  /// one-round path stays byte-identical. Levels whose estimate fails or
  /// exceeds the cap fall back to the static c q^2 k cells. With
  /// adaptive.rounding == CellRounding::kDivisorLadder the negotiated sizes
  /// are rounded up to the cap's divisor ladder, making every exchange
  /// servable from a maintained cap-size sketch set by folding
  /// (SyncDataset / RunEmdProtocolPrebuilt) — required for warm adaptive
  /// serving, accepted identically by the one-shot protocol.
  AdaptiveSizingParams adaptive;
  /// Wire codec for every sketch message of the exchange (util/wire.h).
  /// kClassic keeps transcripts byte-identical to the historical layout; a
  /// kCompact exchange announces itself with a one-byte versioned header on
  /// its first message, which the receiving side validates before parsing.
  /// Defaults to the RSR_WIRE_CODEC environment override so whole suites can
  /// flip codec without touching call sites.
  WireCodec codec = DefaultWireCodec();
  /// Shared seed (public coins).
  uint64_t seed = 0;
};

/// Quantities derived from EmdProtocolParams for a given n (Theorem 3.4).
struct EmdDerived {
  double d1 = 0;
  double d2 = 0;
  double m_bound = 0;
  double w = 0;        // MLSH scale
  double p = 0;        // MLSH collision base
  size_t s = 0;        // total MLSH draws, k / (8 D1 ln(1/p))
  size_t levels = 0;   // t = ceil(log2(D2/D1)) + 1
  size_t cells = 0;    // cells per RIBLT
};

/// Computes the derived parameters; validates the configuration.
Result<EmdDerived> DeriveEmdParameters(const EmdProtocolParams& params,
                                       size_t n);

/// Per-level MLSH prefix length: s_i = max(1, round(2^{i-1} s D1/D2)),
/// clamped to [1, s]; level is 1-based.
size_t LevelPrefixLength(const EmdDerived& derived, size_t level);

/// LSH instantiation for the Gap protocol at radii (r1, r2).
struct GapLshConfig {
  std::unique_ptr<LshFamily> family;
  LshParams lsh;  // (r1, r2, p1, p2) with p2 ~ 1/2
};

/// Builds the family for the metric with scale chosen so p2 ~ 1/2:
///   Hamming: bit sampling, w = max(dim, 2 r2), p = 1 - f/w;
///   l1:      grid, w = r2 / ln 2, bounds 1 - f/w <= Pr <= e^{-f/w};
///   l2:      2-stable, w solved by bisection so p(r2) = 1/2.
Result<GapLshConfig> MakeGapLsh(MetricKind metric, size_t dim, double r1,
                                double r2);

}  // namespace rsr

#endif  // RSR_CORE_PARAMS_H_

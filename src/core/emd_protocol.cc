#include "core/emd_protocol.h"

#include <algorithm>
#include <cmath>
#include <span>

#include "core/adaptive.h"
#include "core/emd_sketch.h"
#include "emd/assignment.h"
#include "emd/emd.h"
#include "hashing/hash64.h"
#include "hashing/pairwise.h"
#include "lsh/mlsh.h"
#include "sketch/riblt.h"
#include "util/parallel.h"

namespace rsr {

namespace {

/// Carries the messages between the two steps and records them. Warm
/// serving pools `message`: a stable session shape re-serializes into its
/// capacity with zero allocation after its first exchange.
Result<EmdProtocolReport> Exchange(EmdSender& alice, const EmdReceiver& bob,
                                   const EmdProtocolParams& params,
                                   ByteWriter* message) {
  Transcript transcript;
  if (params.adaptive.enabled) {
    ByteWriter estimators;
    bob.WriteEstimatorMessage(&estimators);
    transcript.Send("B->A level strata", estimators, params.codec);
    RSR_RETURN_NOT_OK(alice.ReadEstimatorMessage(estimators.buffer()));
  }
  RSR_RETURN_NOT_OK(alice.WriteTables(message));
  transcript.Send("A->B level RIBLTs", *message, params.codec);
  RSR_ASSIGN_OR_RETURN(EmdProtocolReport report,
                       bob.Reconcile(message->buffer()));
  report.comm = transcript.stats();
  return report;
}

}  // namespace

EmdReceiver::EmdReceiver(const PointStore& bob,
                         const EmdProtocolParams& params,
                         const EmdDerived& derived, const EmdHashes& hashes)
    : bob_(bob), params_(params), derived_(derived) {
  ValidatePointStore(bob, params.dim, params.delta);
  keys_ = EvaluateEmdLevelKeys(bob, hashes, EmdPrefixLens(derived),
                               params.num_threads);
}

void EmdReceiver::WriteEstimatorMessage(ByteWriter* out) const {
  const WireCodec codec = params_.codec;
  if (codec != WireCodec::kClassic) WriteWireHeader(codec, out);
  WriteEstimators(BuildLevelEstimators(keys_, derived_.levels, bob_.size(),
                                       params_.adaptive, params_.seed,
                                       params_.num_threads),
                  out, codec);
}

Result<EmdProtocolReport> EmdReceiver::Reconcile(
    std::span<const uint8_t> message) const {
  const EmdProtocolParams& params = params_;
  const PointStore& bob = bob_;
  const size_t n = bob.size();
  const WireCodec codec = params.codec;
  const bool adaptive = params.adaptive.enabled;

  EmdProtocolReport report;
  report.derived = derived_;
  report.levels.resize(derived_.levels);
  for (size_t l = 0; l < derived_.levels; ++l) {
    report.levels[l].prefix_len = LevelPrefixLength(derived_, l + 1);
  }

  // ---- Parse: header or sizes prefix, then one table per level. ----
  ByteReader reader(message.data(), message.size());
  if (codec != WireCodec::kClassic && !adaptive) {
    RSR_RETURN_NOT_OK(ExpectWireHeader(codec, &reader));
  }
  report.level_cells.assign(derived_.levels, derived_.cells);
  if (adaptive) {
    RSR_ASSIGN_OR_RETURN(
        report.level_cells,
        ReadNegotiatedCells(&reader, derived_.levels, derived_.cells));
  }
  std::vector<Riblt> received;
  received.reserve(derived_.levels);
  for (size_t level = 1; level <= derived_.levels; ++level) {
    RSR_ASSIGN_OR_RETURN(
        Riblt table,
        Riblt::ReadFrom(&reader,
                        EmdLevelRibltParams(
                            params, report.level_cells[level - 1], level),
                        codec));
    received.push_back(std::move(table));
  }
  RSR_RETURN_NOT_OK(reader.FinishAndCheckConsumed());

  // ---- Delete his pairs, decode the finest feasible level. ----
  // Deletions are independent per level (threadable); decoding stays
  // sequential finest-to-coarsest because bob_coins is a single stream.
  ParallelShards(derived_.levels, params.num_threads,
                 [&](size_t begin, size_t end) {
                   for (size_t l = begin; l < end; ++l) {
                     received[l].DeleteMany(
                         std::span<const uint64_t>(keys_.data() + l * n, n),
                         bob);
                   }
                 });

  Rng bob_coins(Mix64(params.seed) ^ 0xb0b);  // decoder-local rounding coins
  const size_t max_pairs = 4 * params.k;
  const size_t max_per_side = 2 * params.k;
  size_t decoded_level = 0;
  RibltDecodeResult best;
  RibltDecodeResult decoded;  // reused across levels: one warm arena pair
  for (size_t level = derived_.levels; level >= 1; --level) {
    Riblt& table = received[level - 1];
    Status decode_status =
        table.DecodeInto(max_pairs, max_per_side, &bob_coins, &decoded);
    EmdLevelOutcome& outcome = report.levels[level - 1];
    if (decode_status.ok()) {
      outcome.decoded = true;
      outcome.pairs_alice = decoded.inserted.size();
      outcome.pairs_bob = decoded.deleted.size();
      if (decoded_level == 0) {
        decoded_level = level;
        best = std::move(decoded);
        // The repair needs only this level, but the scan goes on: decoding
        // the coarser levels costs little, and their outcomes fill the
        // per-level diagnostics the benches report. (DecodeInto resets the
        // moved-from result before reusing it.)
      }
    }
    if (level == 1) break;  // size_t guard
  }

  if (decoded_level == 0) {
    report.failure = true;
    return report;
  }
  report.decoded_level = decoded_level;
  report.x_a = std::move(best.inserted);
  report.x_b = std::move(best.deleted);

  // ---- Repair: S'_B = (S_B \ Y_B) ∪ X_A, with |S'_B| = n. ----
  Metric metric(params.metric);
  const PointStore& x_b = report.x_b;

  // Keep |X_A| <= |X_B| by trimming X_A (drop lexicographically largest —
  // deterministic; see "Size repair" in core/README.md). The report's arena
  // is copied only when a trim actually mutates it.
  const PointStore* x_a = &report.x_a;
  PointStore trimmed;
  if (report.x_a.size() > x_b.size()) {
    trimmed = report.x_a;
    trimmed.SortLex();
    report.trimmed_from_x_a = trimmed.size() - x_b.size();
    trimmed.Truncate(x_b.size());
    x_a = &trimmed;
  }

  std::vector<char> removed(n, 0);
  if (!x_b.empty()) {
    // Min-cost matching of X_B (rows) into S_B (columns).
    CostMatrix cost = DistanceMatrix(x_b, bob, metric);
    AssignmentResult assignment = MinCostAssignment(cost);
    if (x_a->size() < x_b.size()) {
      // Remove only |X_A| of the matched points so |S'_B| stays n. Keep the
      // pairs with the largest matching cost unmatched (least confident).
      std::vector<size_t> order(x_b.size());
      for (size_t r = 0; r < x_b.size(); ++r) order[r] = r;
      std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return cost[a][static_cast<size_t>(assignment.row_to_col[a])] <
               cost[b][static_cast<size_t>(assignment.row_to_col[b])];
      });
      report.kept_in_y_b = x_b.size() - x_a->size();
      for (size_t r = 0; r < x_a->size(); ++r) {
        removed[static_cast<size_t>(assignment.row_to_col[order[r]])] = 1;
      }
    } else {
      for (size_t r = 0; r < x_b.size(); ++r) {
        removed[static_cast<size_t>(assignment.row_to_col[r])] = 1;
      }
    }
  }

  report.s_b_prime = PointStore(bob.dim());
  report.s_b_prime.Reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (!removed[i]) report.s_b_prime.Append(bob.row(i));
  }
  report.s_b_prime.AppendStore(*x_a);
  RSR_CHECK_EQ(report.s_b_prime.size(), n);
  return report;
}

EmdSender EmdSender::Cold(const PointStore& alice,
                          const EmdProtocolParams& params,
                          const EmdDerived& derived, const EmdHashes& hashes) {
  ValidatePointStore(alice, params.dim, params.delta);
  EmdSender sender(params, derived);
  sender.points_ = &alice;
  sender.keys_ = EvaluateEmdLevelKeys(alice, hashes, EmdPrefixLens(derived),
                                      params.num_threads);
  return sender;
}

Result<EmdSender> EmdSender::Warm(const EmdSketchSet& sketches,
                                  const EmdProtocolParams& params,
                                  const EmdDerived& derived,
                                  EmdServeScratch* scratch) {
  // The sketch set must have been built with these params (same derivation,
  // same wire layout); a drifted caller would emit undecodable bytes.
  if (derived.levels != sketches.derived.levels ||
      derived.cells != sketches.derived.cells ||
      derived.s != sketches.derived.s ||
      sketches.tables.size() != derived.levels) {
    return Status::InvalidArgument(
        "sketch set was built under different derived parameters");
  }
  if (params.adaptive.enabled &&
      (params.adaptive.rounding != CellRounding::kDivisorLadder ||
       sketches.estimators.size() != derived.levels || scratch == nullptr)) {
    return Status::InvalidArgument(
        "adaptive serving requires CellRounding::kDivisorLadder (exact sizes "
        "cannot be folded from the cap-size tables), a sketch set built with "
        "estimators, and a fold scratch");
  }
  EmdSender sender(params, derived);
  sender.sketches_ = &sketches;
  sender.scratch_ = scratch;
  return sender;
}

Status EmdSender::ReadEstimatorMessage(std::span<const uint8_t> message) {
  const EmdProtocolParams& params = params_;
  const WireCodec codec = params.codec;
  ByteReader reader(message.data(), message.size());
  if (codec != WireCodec::kClassic) {
    RSR_RETURN_NOT_OK(ExpectWireHeader(codec, &reader));
  }
  RSR_ASSIGN_OR_RETURN(std::vector<StrataEstimator> received,
                       ReadEstimators(&reader, params.adaptive, params.seed,
                                      derived_.levels, codec));
  RSR_RETURN_NOT_OK(reader.FinishAndCheckConsumed());

  // The maintained estimators are byte-identical to a cold build's, so warm
  // and cold pick the same sizes.
  std::vector<StrataEstimator> built;
  if (sketches_ == nullptr) {
    built = BuildLevelEstimators(keys_, derived_.levels, points_->size(),
                                 params.adaptive, params.seed,
                                 params.num_threads);
  }
  const double q = static_cast<double>(params.num_hashes);
  level_cells_ = NegotiateLevelCells(
      sketches_ != nullptr ? sketches_->estimators : built, received,
      params.adaptive.cell_multiplier * q * q, params.adaptive.floor_cells,
      derived_.cells, params.adaptive.rounding, params.num_hashes,
      params.num_threads);
  return Status();
}

Status EmdSender::WriteTables(ByteWriter* out) {
  const EmdProtocolParams& params = params_;
  const WireCodec codec = params.codec;
  const bool adaptive = params.adaptive.enabled;

  // Built from her keys, served as they are, or folded down: O(levels * cap)
  // cell additions, no point rehashing.
  std::vector<Riblt> built;
  const std::vector<Riblt>* tables = &built;
  if (sketches_ == nullptr) {
    built = BuildEmdLevelTables(keys_, *points_, level_cells_, params);
  } else if (adaptive) {
    RSR_RETURN_NOT_OK(
        FoldEmdSketches(*sketches_, level_cells_, params, scratch_));
    tables = &scratch_->folded;
  } else {
    tables = &sketches_->tables;
  }

  out->Clear();
  // A compact exchange's first message carries the versioned wire header; on
  // the adaptive path that was the estimator round, so only the static
  // single-message exchange writes it here.
  if (codec != WireCodec::kClassic && !adaptive) WriteWireHeader(codec, out);
  if (adaptive) WriteNegotiatedCells(level_cells_, out);
  for (const Riblt& table : *tables) table.WriteTo(out, codec);
  return Status();
}

Result<EmdProtocolReport> RunEmdProtocol(const PointStore& alice,
                                         const PointStore& bob,
                                         const EmdProtocolParams& params) {
  if (alice.size() != bob.size() || alice.empty()) {
    return Status::InvalidArgument("|S_A| must equal |S_B| and be positive");
  }
  RSR_ASSIGN_OR_RETURN(const EmdDerived derived,
                       DeriveEmdParameters(params, alice.size()));
  const EmdHashes hashes = MakeEmdHashes(params, derived);
  EmdSender sender = EmdSender::Cold(alice, params, derived, hashes);
  const EmdReceiver receiver(bob, params, derived, hashes);
  ByteWriter message;
  return Exchange(sender, receiver, params, &message);
}

Result<EmdProtocolReport> RunEmdProtocolPrebuilt(
    const EmdSketchSet& alice, const PointStore& bob,
    const EmdProtocolParams& params, EmdServeScratch* scratch) {
  if (bob.size() != alice.n || bob.empty()) {
    return Status::InvalidArgument("|S_B| must equal the sketch set's n");
  }
  RSR_ASSIGN_OR_RETURN(const EmdDerived derived,
                       DeriveEmdParameters(params, bob.size()));
  EmdServeScratch local_scratch;
  EmdServeScratch* serve = scratch != nullptr ? scratch : &local_scratch;
  RSR_ASSIGN_OR_RETURN(EmdSender sender,
                       EmdSender::Warm(alice, params, derived, serve));
  const EmdHashes hashes = MakeEmdHashes(params, derived);
  const EmdReceiver receiver(bob, params, derived, hashes);
  return Exchange(sender, receiver, params, &serve->message);
}

}  // namespace rsr

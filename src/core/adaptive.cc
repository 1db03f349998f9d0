#include "core/adaptive.h"

#include <algorithm>
#include <cmath>

#include "hashing/hash64.h"
#include "util/parallel.h"

namespace rsr {

StrataParams MakeLevelStrataParams(uint64_t seed, size_t index) {
  StrataParams strata;
  strata.num_strata = 16;
  strata.cells_per_stratum = 32;
  strata.num_hashes = 4;
  strata.checksum_bytes = 2;
  strata.seed = HashCombine(seed, 0xada'0000ULL + index);
  return strata;
}

std::vector<StrataEstimator> BuildLevelEstimators(
    std::span<const uint64_t> level_major_keys, size_t levels, size_t n,
    const AdaptiveSizingParams& /*params*/, uint64_t seed,
    size_t num_threads) {
  RSR_CHECK(level_major_keys.size() >= levels * n);
  std::vector<StrataEstimator> estimators;
  estimators.reserve(levels);
  for (size_t level = 0; level < levels; ++level) {
    estimators.emplace_back(MakeLevelStrataParams(seed, level));
  }
  // Each level's estimator is a pure function of its own key span, so levels
  // shard freely; IBLT updates commute, and no shard touches another's
  // estimator.
  ParallelShards(levels, num_threads, [&](size_t begin, size_t end) {
    for (size_t level = begin; level < end; ++level) {
      estimators[level].InsertMany(
          level_major_keys.subspan(level * n, n));
    }
  });
  return estimators;
}

void WriteEstimators(const std::vector<StrataEstimator>& estimators,
                     ByteWriter* w, WireCodec codec) {
  for (const StrataEstimator& estimator : estimators) {
    estimator.WriteTo(w, codec);
  }
}

Result<std::vector<StrataEstimator>> ReadEstimators(
    ByteReader* r, const AdaptiveSizingParams& /*params*/, uint64_t seed,
    size_t levels, WireCodec codec) {
  std::vector<StrataEstimator> estimators;
  estimators.reserve(levels);
  for (size_t level = 0; level < levels; ++level) {
    RSR_ASSIGN_OR_RETURN(
        StrataEstimator estimator,
        StrataEstimator::ReadFrom(r, MakeLevelStrataParams(seed, level),
                                  codec));
    estimators.push_back(std::move(estimator));
  }
  return estimators;
}

size_t AdaptiveCellCount(uint64_t estimate, double cells_per_diff,
                         size_t floor_cells, size_t cap_cells) {
  // A non-positive (or NaN) multiplier has no sane reading; fall back to the
  // static sizing rather than cast a negative double to size_t (UB).
  if (!(cells_per_diff > 0.0)) return cap_cells;
  // Double arithmetic saturates instead of wrapping: a UINT64_MAX estimate
  // (the strata extrapolation cap) times any positive multiplier compares
  // above cap_cells and clamps there.
  const double target =
      std::ceil(cells_per_diff * static_cast<double>(estimate));
  if (!(target < static_cast<double>(cap_cells))) return cap_cells;
  const size_t cells =
      std::max(static_cast<size_t>(target), size_t{1});
  return std::min(std::max(cells, floor_cells), cap_cells);
}

size_t RoundUpToLadder(size_t cells, size_t cap_cells, int num_hashes) {
  if (cap_cells == 0 || num_hashes <= 0) return cap_cells;
  if (cells >= cap_cells) return cap_cells;
  const size_t q = static_cast<size_t>(num_hashes);
  // Subtable granularity: the table constructor rounds any requested count
  // up to ceil(count / q) cells per subtable, so the ladder lives there.
  const size_t cap_sub = (cap_cells + q - 1) / q;
  const size_t want_sub = (cells + q - 1) / q;
  if (want_sub >= cap_sub) return cap_cells;
  size_t d = want_sub == 0 ? 1 : want_sub;
  while (cap_sub % d != 0) ++d;  // next divisor; terminates at cap_sub
  // The top rung is cap_cells ITSELF, not cap_sub * q: the cap need not be a
  // multiple of q, and cap_sub * q can exceed it — which
  // ReadNegotiatedCells would reject as out of [1, cap]. Constructing at
  // cap_cells rounds to cap_sub * q cells anyway, and folding at d ==
  // cap_sub is the identity. Proper-divisor rungs d * q <= cap_cells
  // whenever cap_cells >= q (d <= cap_sub / 2).
  if (d == cap_sub) return cap_cells;
  return d * q;
}

std::vector<size_t> NegotiateLevelCells(
    const std::vector<StrataEstimator>& local,
    const std::vector<StrataEstimator>& remote, double cells_per_diff,
    size_t floor_cells, size_t cap_cells, CellRounding rounding,
    int table_hashes, size_t num_threads) {
  std::vector<size_t> cells(local.size(), cap_cells);
  ParallelShards(local.size(), num_threads, [&](size_t begin, size_t end) {
    for (size_t level = begin; level < end; ++level) {
      if (level >= remote.size()) continue;  // fall back to the cap
      Result<uint64_t> estimate = local[level].EstimateDiff(remote[level]);
      if (!estimate.ok()) continue;  // incomparable estimator: static sizing
      size_t count = AdaptiveCellCount(*estimate, cells_per_diff, floor_cells,
                                       cap_cells);
      if (rounding == CellRounding::kDivisorLadder) {
        count = RoundUpToLadder(count, cap_cells, table_hashes);
      }
      cells[level] = count;
    }
  });
  return cells;
}

Result<size_t> NegotiateSingleSketchCells(std::span<const uint64_t> sender_keys,
                                          std::span<const uint64_t> receiver_keys,
                                          const AdaptiveSizingParams& params,
                                          uint64_t seed, size_t cap_cells,
                                          Transcript* transcript,
                                          const std::string& label,
                                          WireCodec codec) {
  const StrataParams estimator_params = MakeLevelStrataParams(seed, 0);
  StrataEstimator receiver_estimator(estimator_params);
  receiver_estimator.InsertMany(receiver_keys);
  ByteWriter estimator_msg;
  if (codec != WireCodec::kClassic) WriteWireHeader(codec, &estimator_msg);
  receiver_estimator.WriteTo(&estimator_msg, codec);
  transcript->Send(label, estimator_msg, codec);

  ByteReader estimator_reader(estimator_msg.buffer());
  if (codec != WireCodec::kClassic) {
    RSR_RETURN_NOT_OK(ExpectWireHeader(codec, &estimator_reader));
  }
  RSR_ASSIGN_OR_RETURN(
      StrataEstimator received,
      StrataEstimator::ReadFrom(&estimator_reader, estimator_params, codec));
  RSR_RETURN_NOT_OK(estimator_reader.FinishAndCheckConsumed());
  StrataEstimator sender_estimator(estimator_params);
  sender_estimator.InsertMany(sender_keys);
  Result<uint64_t> estimate = sender_estimator.EstimateDiff(received);
  if (!estimate.ok()) return cap_cells;  // incomparable: static sizing
  return AdaptiveCellCount(*estimate, params.cell_multiplier,
                           params.floor_cells, cap_cells);
}

void WriteNegotiatedCells(const std::vector<size_t>& cells, ByteWriter* w) {
  for (size_t c : cells) w->PutVarint64(c);
}

Result<std::vector<size_t>> ReadNegotiatedCells(ByteReader* r, size_t levels,
                                                size_t cap_cells) {
  std::vector<size_t> cells(levels, 0);
  for (size_t level = 0; level < levels; ++level) {
    uint64_t parsed = r->GetVarint64();
    if (r->failed() || parsed < 1 || parsed > cap_cells) {
      r->Invalidate();
      return Status::Corruption("negotiated cell count out of [1, cap]");
    }
    cells[level] = static_cast<size_t>(parsed);
  }
  return cells;
}

}  // namespace rsr

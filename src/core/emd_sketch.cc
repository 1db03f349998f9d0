#include "core/emd_sketch.h"

#include <algorithm>
#include <cstddef>
#include <span>

#include "core/adaptive.h"
#include "hashing/hash64.h"
#include "util/parallel.h"
#include "util/random.h"

namespace rsr {

EmdHashes MakeEmdHashes(const EmdProtocolParams& params,
                        const EmdDerived& derived) {
  // Public coins: both parties derive identical hash functions from the
  // seed. The stream order (s family draws, then the level-key hash) is load
  // bearing — changing it would re-key every sketch on the wire.
  Rng shared(params.seed);
  std::unique_ptr<MlshFamily> family =
      MakeMlshFamily(params.metric, params.dim, derived.w);
  std::vector<std::unique_ptr<LshFunction>> draws =
      DrawMany(*family, derived.s, &shared);
  PairwiseVectorHash level_key_hash = PairwiseVectorHash::Draw(&shared);
  PackedDotCells dot_cells;
  if (const auto* pstable = dynamic_cast<const PStableFamily*>(family.get())) {
    dot_cells = pstable->Pack(draws);
  }
  return EmdHashes{std::move(family), std::move(draws),
                   std::move(level_key_hash), std::move(dot_cells)};
}

std::vector<size_t> EmdPrefixLens(const EmdDerived& derived) {
  std::vector<size_t> prefix_lens(derived.levels);
  for (size_t level = 1; level <= derived.levels; ++level) {
    prefix_lens[level - 1] = LevelPrefixLength(derived, level);
  }
  return prefix_lens;
}

RibltParams EmdLevelRibltParams(const EmdProtocolParams& params,
                                size_t num_cells, size_t level) {
  RibltParams level_params;
  level_params.num_cells = num_cells;
  level_params.num_hashes = params.num_hashes;
  level_params.dim = params.dim;
  level_params.delta = params.delta;
  level_params.seed = HashCombine(params.seed, 0xeb1'0000ULL + level);
  return level_params;
}

void EvaluateEmdRowsInto(const PointStore& points, size_t row_begin,
                         size_t row_count, const EmdHashes& hashes,
                         size_t num_threads, EvalMatrix* out) {
  if (hashes.dot_cells.count() > 0) {
    EvaluateRowsInto(points, row_begin, row_count, hashes.dot_cells,
                     num_threads, out);
  } else {
    EvaluateRowsInto(points, row_begin, row_count, hashes.draws, num_threads,
                     out);
  }
}

void ComputeEmdLevelKeysInto(const EvalMatrix& evals,
                             const PairwiseVectorHash& level_key_hash,
                             const std::vector<size_t>& prefix_lens,
                             size_t num_threads, uint64_t* out) {
  const size_t n = evals.rows();
  const size_t t = prefix_lens.size();
  if (t == 0 || n == 0) return;
  level_key_hash.Reserve(prefix_lens.back());  // thread safety
  ParallelShards(n, num_threads, [&](size_t begin, size_t end) {
    level_key_hash.EvalPrefixesRows(
        evals.data() + begin * evals.cols(), end - begin, evals.cols(),
        prefix_lens.data(), t, kEmdLevelKeyMask, n, out + begin);
  });
}

std::vector<uint64_t> ComputeEmdLevelKeys(
    const EvalMatrix& evals, const PairwiseVectorHash& level_key_hash,
    const std::vector<size_t>& prefix_lens, size_t num_threads) {
  std::vector<uint64_t> keys(prefix_lens.size() * evals.rows());
  ComputeEmdLevelKeysInto(evals, level_key_hash, prefix_lens, num_threads,
                          keys.data());
  return keys;
}

std::vector<uint64_t> EvaluateEmdLevelKeys(
    const PointStore& points, const EmdHashes& hashes,
    const std::vector<size_t>& prefix_lens, size_t num_threads) {
  const size_t n = points.size();
  const size_t s = hashes.draws.size();
  const size_t t = prefix_lens.size();
  std::vector<uint64_t> keys(t * n);
  if (t == 0 || n == 0 || s == 0) return keys;
  hashes.level_key_hash.Reserve(prefix_lens.back());  // thread safety
  // About 256 KiB of evaluations per block, so a block is hashed into keys
  // while it is still in cache.
  constexpr size_t kBlockEvals = size_t{1} << 15;
  const size_t block = std::max<size_t>(16, kBlockEvals / s);
  ParallelShards(n, num_threads, [&](size_t begin, size_t end) {
    EvalMatrix evals;
    for (size_t b = begin; b < end; b += block) {
      const size_t len = std::min(block, end - b);
      EvaluateEmdRowsInto(points, b, len, hashes, 1, &evals);
      hashes.level_key_hash.EvalPrefixesRows(evals.data(), len, s,
                                             prefix_lens.data(), t,
                                             kEmdLevelKeyMask, n,
                                             keys.data() + b);
    }
  });
  return keys;
}

std::vector<Riblt> BuildEmdLevelTables(
    std::span<const uint64_t> level_major_keys, const PointStore& points,
    const std::vector<size_t>& level_cells, const EmdProtocolParams& params) {
  const size_t n = points.size();
  const size_t t = level_cells.size();
  RSR_CHECK(level_major_keys.size() >= t * n);
  std::vector<Riblt> tables;
  tables.reserve(t);
  for (size_t l = 0; l < t; ++l) {
    tables.emplace_back(EmdLevelRibltParams(params, level_cells[l], l + 1));
  }
  ParallelShards(t, params.num_threads, [&](size_t begin, size_t end) {
    for (size_t l = begin; l < end; ++l) {
      tables[l].InsertMany(level_major_keys.subspan(l * n, n), points);
    }
  });
  return tables;
}

Result<EmdSketchSet> BuildEmdSketches(const PointStore& alice,
                                      const EmdProtocolParams& params,
                                      bool build_estimators) {
  if (alice.empty()) {
    return Status::InvalidArgument("sketch set requires a nonempty store");
  }
  ValidatePointStore(alice, params.dim, params.delta);
  const size_t n = alice.size();

  EmdSketchSet set;
  set.n = n;
  RSR_ASSIGN_OR_RETURN(set.derived, DeriveEmdParameters(params, n));
  const EmdDerived& derived = set.derived;
  set.prefix_lens = EmdPrefixLens(derived);

  EmdHashes hashes = MakeEmdHashes(params, derived);
  std::vector<uint64_t> keys = EvaluateEmdLevelKeys(
      alice, hashes, set.prefix_lens, params.num_threads);

  set.tables = BuildEmdLevelTables(
      keys, alice, std::vector<size_t>(derived.levels, derived.cells),
      params);

  if (build_estimators) {
    set.estimators =
        BuildLevelEstimators(keys, derived.levels, n, params.adaptive,
                             params.seed, params.num_threads);
  }
  return set;
}

// RSR_ZERO_ALLOC: warm same-shape folds reuse the scratch tables in place
// (FoldEmdSketchesTest.MatchesPerTableFoldAndReusesScratchWithoutAllocating).
Status FoldEmdSketches(const EmdSketchSet& set,
                       const std::vector<size_t>& level_cells,
                       const EmdProtocolParams& params,
                       EmdServeScratch* scratch) {
  if (level_cells.size() != set.tables.size()) {
    return Status::InvalidArgument(
        "level_cells count does not match the sketch set's level count");
  }
  const size_t q = static_cast<size_t>(params.num_hashes);
  if (scratch->folded.size() > level_cells.size()) {
    // Shrink via erase: Riblt has no default constructor, so resize() can't.
    scratch->folded.erase(
        scratch->folded.begin() +
            static_cast<std::ptrdiff_t>(level_cells.size()),
        scratch->folded.end());
  }
  for (size_t l = 0; l < level_cells.size(); ++l) {
    const size_t target = level_cells[l];
    if (target == 0) return Status::InvalidArgument("level_cells must be > 0");
    // The constructor's rounding: the pooled entry matches iff its normalized
    // cell count (and per-level seed, fixed for slot l) equals the target's.
    const size_t normalized = (target + q - 1) / q * q;
    if (l >= scratch->folded.size()) {
      scratch->folded.emplace_back(
          EmdLevelRibltParams(params, target, l + 1));
    } else if (scratch->folded[l].params().num_cells != normalized) {
      scratch->folded[l] = Riblt(EmdLevelRibltParams(params, target, l + 1));
    }
    RSR_RETURN_NOT_OK(set.tables[l].FoldInto(&scratch->folded[l]));
  }
  return Status();
}

}  // namespace rsr

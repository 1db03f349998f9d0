// Experiment E11: microbenchmarks (google-benchmark) for the hashing, LSH,
// sketch, and matching primitives — the engineering baseline behind the
// protocol-level time bounds of Theorems 3.4 and 4.2.
#include <algorithm>
#include <map>
#include <memory>

#include <benchmark/benchmark.h>

#include "core/emd_protocol.h"
#include "core/emd_sketch.h"
#include "core/gap_protocol.h"
#include "core/sync_dataset.h"
#include "core/sync_server.h"
#include "emd/emd.h"
#include "emd/repair_kernels.h"
#include "hashing/hash64.h"
#include "lsh/batch_kernels.h"
#include "hashing/kindependent.h"
#include "hashing/pairwise.h"
#include "lsh/bit_sampling.h"
#include "lsh/eval_pipeline.h"
#include "lsh/grid.h"
#include "lsh/mlsh.h"
#include "lsh/pstable.h"
#include "setsets/reconciler.h"
#include "sketch/iblt.h"
#include "sketch/riblt.h"
#include "util/cpu_features.h"
#include "util/random.h"
#include "workload/generators.h"

namespace rsr {
namespace {

void BM_Mix64(benchmark::State& state) {
  uint64_t x = 12345;
  for (auto _ : state) {
    x = Mix64(x);
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_Mix64);

void BM_KIndependentHash(benchmark::State& state) {
  Rng rng(2);
  KIndependentHash h = KIndependentHash::Draw(static_cast<int>(state.range(0)),
                                              &rng);
  uint64_t x = 999;
  for (auto _ : state) {
    x = h.Eval(x);
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_KIndependentHash)->Arg(3)->Arg(5);

void BM_PairwiseVectorHash(benchmark::State& state) {
  Rng rng(4);
  PairwiseVectorHash h = PairwiseVectorHash::Draw(&rng);
  std::vector<uint64_t> v(static_cast<size_t>(state.range(0)));
  for (size_t i = 0; i < v.size(); ++i) v[i] = i * 7919;
  for (auto _ : state) {
    benchmark::DoNotOptimize(h.Eval(v));
  }
}
BENCHMARK(BM_PairwiseVectorHash)->Arg(8)->Arg(64);

void BM_LshEval(benchmark::State& state, const LshFamily& family,
                size_t dim, Coord delta) {
  Rng rng(5);
  auto h = family.Draw(&rng);
  Point p = GenerateUniformStore(1, dim, delta, &rng).MakePoint(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(h->Eval(p));
  }
}

void BM_BitSamplingEval(benchmark::State& state) {
  BitSamplingFamily family(256, 512.0);
  BM_LshEval(state, family, 256, 1);
}
BENCHMARK(BM_BitSamplingEval);

void BM_GridEval(benchmark::State& state) {
  GridFamily family(8, 32.0);
  BM_LshEval(state, family, 8, 1023);
}
BENCHMARK(BM_GridEval);

void BM_PStableEval(benchmark::State& state) {
  PStableFamily family(8, 32.0);
  BM_LshEval(state, family, 8, 1023);
}
BENCHMARK(BM_PStableEval);

// ---- Batched LSH evaluation pipeline (bench_lsh group) ---------------------
//
// BM_EvaluateAllScalar preserves the pre-batch EMD hot loop (one virtual
// Eval per (point, draw), one heap row per point) as the comparison
// baseline; BM_EvaluateAll is the shipping pipeline (EvaluateAllInto:
// function-major batch calls into one flat matrix). Same for the
// per-level-key pair BM_PairwisePrefixesScalar / BM_PairwisePrefixes.

void BM_GridEvalBatch(benchmark::State& state) {
  // Per-point rate of the function-major grid kernel over one column block
  // of 4096 points, transposed once outside the timed loop (the layout the
  // pipeline feeds it).
  GridFamily family(8, 32.0);
  Rng rng(5);
  auto h = family.Draw(&rng);
  PointStore points = GenerateUniformStore(4096, 8, 1023, &rng);
  const size_t n = points.size();
  std::vector<double> cols(n * 8);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < 8; ++j) {
      cols[j * n + i] = static_cast<double>(points.row(i)[j]);
    }
  }
  std::vector<uint64_t> out(n);
  for (auto _ : state) {
    h->EvalColsBatch(cols.data(), n, n, 8, out.data(), 1);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(points.size()));
}
BENCHMARK(BM_GridEvalBatch);

void BM_PairwisePrefixes(benchmark::State& state) {
  // All 8 level keys of one s=64 row in a single incremental pass.
  Rng rng(4);
  PairwiseVectorHash h = PairwiseVectorHash::Draw(&rng);
  std::vector<uint64_t> row(64);
  for (size_t i = 0; i < row.size(); ++i) row[i] = i * 7919;
  const std::vector<size_t> lens = {1, 2, 4, 8, 16, 32, 64, 64};
  std::vector<uint64_t> keys(lens.size());
  for (auto _ : state) {
    h.EvalPrefixes(row.data(), lens.data(), lens.size(), keys.data());
    benchmark::DoNotOptimize(keys.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_PairwisePrefixes);

void BM_PairwisePrefixesScalar(benchmark::State& state) {
  // Pre-batch equivalent: one full Eval per level, O(s) each.
  Rng rng(4);
  PairwiseVectorHash h = PairwiseVectorHash::Draw(&rng);
  std::vector<uint64_t> row(64);
  for (size_t i = 0; i < row.size(); ++i) row[i] = i * 7919;
  const std::vector<size_t> lens = {1, 2, 4, 8, 16, 32, 64, 64};
  std::vector<uint64_t> keys(lens.size());
  for (auto _ : state) {
    for (size_t t = 0; t < lens.size(); ++t) keys[t] = h.Eval(row, lens[t]);
    benchmark::DoNotOptimize(keys.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_PairwisePrefixesScalar);

void BM_PairwisePrefixesWide(benchmark::State& state) {
  // Level keys at the emd_wide_prior shape: 1024 rows of s = 3073 MLSH
  // values, 11 geometric prefixes (D2/D1 = 1024). Time is per row block.
  constexpr size_t kRows = 1024;
  constexpr size_t kS = 3073;
  Rng rng(4);
  PairwiseVectorHash h = PairwiseVectorHash::Draw(&rng);
  std::vector<uint64_t> rows(kRows * kS);
  for (uint64_t& v : rows) v = rng.Next();
  std::vector<size_t> lens;
  for (size_t level = 0; level < 11; ++level) {
    lens.push_back(std::max<size_t>(
        1, (kS * (size_t{1} << level) + 512) / 1024));
  }
  lens.back() = kS;
  std::vector<uint64_t> keys(kRows * lens.size());
  h.Reserve(kS);
  for (auto _ : state) {
    for (size_t r = 0; r < kRows; ++r) {
      h.EvalPrefixes(rows.data() + r * kS, lens.data(), lens.size(),
                     keys.data() + r * lens.size());
    }
    benchmark::DoNotOptimize(keys.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kRows));
}
BENCHMARK(BM_PairwisePrefixesWide)->Unit(benchmark::kMillisecond);

/// The level-key shapes of the three EMD workloads of bench/e2e (l2,
/// dim 16, delta 1023): the party's row count, the protocol parameters that
/// derive s and the level count, and the s and level count they must derive.
struct EmdKeyShape {
  size_t n;
  size_t k;
  double d1;
  double d2;
  bool adaptive;
  CellRounding rounding;
  size_t s;
  size_t levels;
};
constexpr EmdKeyShape kWideKeys{1024, 8, 8, 8192, false, CellRounding::kExact,
                                3073, 11};
constexpr EmdKeyShape kLargeKeys{8192, 256, 64, 256, true,
                                 CellRounding::kExact, 82, 3};
constexpr EmdKeyShape kChurnKeys{32768, 64, 16, 64, true,
                                 CellRounding::kDivisorLadder, 21, 3};

/// One party's key inputs at an EMD workload shape: uniform rows, the hashes
/// the protocol derives, and the prefix lengths. CHECK-fails if the shape no
/// longer derives its recorded s and level count.
struct EmdKeyInputs {
  PointStore points;
  EmdHashes hashes;
  std::vector<size_t> prefix_lens;
};

EmdKeyInputs MakeEmdKeyInputs(const EmdKeyShape& shape) {
  EmdProtocolParams params;
  params.metric = MetricKind::kL2;
  params.dim = 16;
  params.delta = 1023;
  params.k = shape.k;
  params.d1 = shape.d1;
  params.d2 = shape.d2;
  params.adaptive.enabled = shape.adaptive;
  params.adaptive.rounding = shape.rounding;
  params.seed = 29;
  const EmdDerived derived =
      DeriveEmdParameters(params, shape.n).ValueOrDie();
  RSR_CHECK(derived.s == shape.s && derived.levels == shape.levels);
  Rng rng(31);
  PointStore points = GenerateUniformStore(shape.n, 16, 1023, &rng);
  return EmdKeyInputs{std::move(points), MakeEmdHashes(params, derived),
                      EmdPrefixLens(derived)};
}

void BM_PairwisePrefixesWideReal(benchmark::State& state) {
  // BM_PairwisePrefixesWide's loop over the bucket ids the protocol hashes:
  // the 2-stable cells of 1024 uniform rows under the emd_wide_prior draws.
  // Uniform random words make the same code read about twice as slow, so
  // this, not BM_PairwisePrefixesWide, is the scalar walk's cost on the
  // protocol's inputs.
  const EmdKeyInputs in = MakeEmdKeyInputs(kWideKeys);
  EvalMatrix evals;
  EvaluateAllInto(in.points, in.hashes.draws, /*num_threads=*/1, &evals);
  const PairwiseVectorHash& h = in.hashes.level_key_hash;
  const std::vector<size_t>& lens = in.prefix_lens;
  const size_t s = evals.cols();
  std::vector<uint64_t> keys(evals.rows() * lens.size());
  h.Reserve(s);
  for (auto _ : state) {
    for (size_t r = 0; r < evals.rows(); ++r) {
      h.EvalPrefixes(evals.row(r), lens.data(), lens.size(),
                     keys.data() + r * lens.size());
    }
    benchmark::DoNotOptimize(keys.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(evals.rows()));
}
BENCHMARK(BM_PairwisePrefixesWideReal)->Unit(benchmark::kMillisecond);

void BM_PairwisePrefixesRowsWide(benchmark::State& state) {
  // The same keys through EvalPrefixesRows, on the dispatched arm (four rows
  // per AVX2 vector; rsr_key_dispatch in the context), written level-major
  // and masked as the protocol stores them.
  const EmdKeyInputs in = MakeEmdKeyInputs(kWideKeys);
  EvalMatrix evals;
  EvaluateAllInto(in.points, in.hashes.draws, /*num_threads=*/1, &evals);
  const PairwiseVectorHash& h = in.hashes.level_key_hash;
  const std::vector<size_t>& lens = in.prefix_lens;
  const size_t n = evals.rows();
  std::vector<uint64_t> keys(n * lens.size());
  h.Reserve(evals.cols());
  for (auto _ : state) {
    h.EvalPrefixesRows(evals.data(), n, evals.cols(), lens.data(),
                       lens.size(), kEmdLevelKeyMask, n, keys.data());
    benchmark::DoNotOptimize(keys.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_PairwisePrefixesRowsWide)->Unit(benchmark::kMillisecond);

void BM_EmdLevelKeys(benchmark::State& state, EmdKeyShape shape) {
  // One party's whole key derivation (EvaluateEmdLevelKeys: packed 2-stable
  // cells and prefix keys, one row block at a time) at an e2e EMD shape:
  // wide = emd_wide_prior, large = emd_large_diff, churn = a serve_churn
  // client's full set.
  const EmdKeyInputs in = MakeEmdKeyInputs(shape);
  for (auto _ : state) {
    std::vector<uint64_t> keys =
        EvaluateEmdLevelKeys(in.points, in.hashes, in.prefix_lens, 1);
    benchmark::DoNotOptimize(keys.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(shape.n));
}
BENCHMARK_CAPTURE(BM_EmdLevelKeys, wide, kWideKeys)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_EmdLevelKeys, large, kLargeKeys)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_EmdLevelKeys, churn, kChurnKeys)
    ->Unit(benchmark::kMillisecond);

void BM_PairwiseEvalBatchShort(benchmark::State& state) {
  // The Gap protocol's slot hashes: m = 4 entries per row out of an
  // h * m = 64-wide evaluation row, 2048 rows.
  constexpr size_t kRows = 2048;
  constexpr size_t kStride = 64;
  Rng rng(6);
  PairwiseVectorHash h = PairwiseVectorHash::Draw(&rng);
  std::vector<uint64_t> rows(kRows * kStride);
  for (uint64_t& v : rows) v = rng.Next();
  std::vector<uint64_t> keys(kRows);
  for (auto _ : state) {
    h.EvalBatch(rows.data(), kRows, kStride, 4, keys.data());
    benchmark::DoNotOptimize(keys.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kRows));
}
BENCHMARK(BM_PairwiseEvalBatchShort);

void BM_EvaluateAll(benchmark::State& state) {
  // The EMD protocol's point-hashing stage: n=4096 points x s=64 MLSH draws
  // (2-stable family, the bench_emd_l2 configuration) via the batch
  // pipeline, fed from a fresh copy of the arena every iteration, so it
  // differs from BM_StoreEvaluateAll by the copy alone.
  // Time is per full matrix; items/sec counts (point, draw) pairs.
  Rng rng(16);
  std::unique_ptr<MlshFamily> family = MakeMlshFamily(MetricKind::kL2, 8, 32.0);
  Rng draw_rng(17);
  std::vector<std::unique_ptr<LshFunction>> draws =
      DrawMany(*family, 64, &draw_rng);
  const PointStore points = GenerateUniformStore(4096, 8, 1023, &rng);
  EvalMatrix matrix;
  for (auto _ : state) {
    PointStore store = points;
    EvaluateAllInto(store, draws, /*num_threads=*/1, &matrix);
    benchmark::DoNotOptimize(matrix.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(points.size() * draws.size()));
}
BENCHMARK(BM_EvaluateAll);

void BM_EvaluateAllScalar(benchmark::State& state) {
  // The pre-batch pipeline this PR replaced, kept as the speedup baseline.
  Rng rng(16);
  std::unique_ptr<MlshFamily> family = MakeMlshFamily(MetricKind::kL2, 8, 32.0);
  Rng draw_rng(17);
  std::vector<std::unique_ptr<LshFunction>> draws =
      DrawMany(*family, 64, &draw_rng);
  const PointStore store = GenerateUniformStore(4096, 8, 1023, &rng);
  std::vector<Point> points;
  for (size_t i = 0; i < store.size(); ++i) {
    points.push_back(store.MakePoint(i));
  }
  for (auto _ : state) {
    std::vector<std::vector<uint64_t>> evals(points.size());
    for (size_t i = 0; i < points.size(); ++i) {
      evals[i].resize(draws.size());
      for (size_t g = 0; g < draws.size(); ++g) {
        evals[i][g] = draws[g]->Eval(points[i]);
      }
    }
    benchmark::DoNotOptimize(evals.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(points.size() * draws.size()));
}
BENCHMARK(BM_EvaluateAllScalar);

// ---- Columnar PointStore (bench_pointstore group) --------------------------
//
// BM_StoreEvaluateAll is the store-native protocol hot path: each block is
// transposed from the arena into doubles once and shared by all s draws.
// Compare against BM_EvaluateAll (the same fill plus a fresh arena copy per
// call) and the preserved BM_EvaluateAllScalar.

void BM_PointStoreAppend(benchmark::State& state) {
  // Per-point append rate into a reserved arena (the generator hot path).
  Rng rng(18);
  PointStore source = GenerateUniformStore(4096, 8, 1023, &rng);
  PointStore store(8);
  store.Reserve(source.size());
  for (auto _ : state) {
    store.Clear();
    store.Reserve(source.size());
    for (size_t i = 0; i < source.size(); ++i) store.Append(source.row(i));
    benchmark::DoNotOptimize(store.coord_data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(source.size()));
}
BENCHMARK(BM_PointStoreAppend);

void BM_StoreEvaluateAll(benchmark::State& state) {
  // BM_EvaluateAll's configuration (n=4096 x s=64, 2-stable) on the
  // store-native path: no flatten copy.
  Rng rng(16);
  std::unique_ptr<MlshFamily> family = MakeMlshFamily(MetricKind::kL2, 8, 32.0);
  Rng draw_rng(17);
  std::vector<std::unique_ptr<LshFunction>> draws =
      DrawMany(*family, 64, &draw_rng);
  const PointStore points = GenerateUniformStore(4096, 8, 1023, &rng);
  EvalMatrix matrix;
  for (auto _ : state) {
    EvaluateAllInto(points, draws, /*num_threads=*/1, &matrix);
    benchmark::DoNotOptimize(matrix.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(points.size() * draws.size()));
}
BENCHMARK(BM_StoreEvaluateAll);

void BM_IbltInsert(benchmark::State& state) {
  IbltParams params;
  params.num_cells = 1024;
  params.seed = 6;
  Iblt table(params);
  uint64_t key = 1;
  for (auto _ : state) {
    table.Insert(key++);
  }
}
BENCHMARK(BM_IbltInsert);

void BM_IbltUpdate(benchmark::State& state) {
  // The raw hot-path entry point (Insert/Delete are thin wrappers over it).
  IbltParams params;
  params.num_cells = 1024;
  params.seed = 6;
  Iblt table(params);
  uint64_t key = 1;
  for (auto _ : state) {
    table.Update(key++, nullptr, +1);
  }
}
BENCHMARK(BM_IbltUpdate);

void BM_IbltUpdateMany(benchmark::State& state) {
  // Batched bucket insertion of range(1) keys into a range(0)-cell table.
  // Time is per batch; the per-key rate is the items_per_second counter.
  // The second shape is the Gap reconciler's element table at gap_hamming:
  // about 7878 cells and 45k element words per side.
  IbltParams params;
  params.num_cells = static_cast<size_t>(state.range(0));
  params.seed = 6;
  Iblt table(params);
  std::vector<uint64_t> keys(static_cast<size_t>(state.range(1)));
  Rng rng(60);
  for (auto& k : keys) k = rng.Next();
  for (auto _ : state) {
    table.UpdateMany(keys, +1);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(keys.size()));
}
BENCHMARK(BM_IbltUpdateMany)->Args({1024, 512})->Args({7878, 45056});

void BM_CellsOf(benchmark::State& state) {
  // Index derivation alone: the range(0) = q cells of each of 4096 uniform
  // keys at the 7878-cell element-table shape (CellMap::CellsOf: the shared
  // key powers, one Mod61 polynomial and one FastDiv61 remainder per
  // subtable), with no cell traffic. The per-key rate is items_per_second.
  const int q = static_cast<int>(state.range(0));
  const sketch_internal::CellMap map(7878, q, /*seed=*/6, /*salt=*/1);
  std::vector<uint64_t> keys(4096);
  Rng rng(61);
  for (auto& k : keys) k = rng.Next();
  size_t cells[sketch_internal::kMaxHashes];
  for (auto _ : state) {
    size_t sink = 0;
    for (uint64_t key : keys) {
      map.CellsOf(key, cells);
      for (int j = 0; j < q; ++j) sink ^= cells[j];
    }
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(keys.size()));
}
BENCHMARK(BM_CellsOf)->Arg(3)->Arg(4);

void BM_IbltInsertKv(benchmark::State& state) {
  // Keyed-value path: 32-byte payload XORed through the raw span API.
  IbltParams params;
  params.num_cells = 1024;
  params.value_size = 32;
  params.seed = 61;
  Iblt table(params);
  uint8_t value[32];
  for (size_t i = 0; i < sizeof(value); ++i) value[i] = static_cast<uint8_t>(i);
  uint64_t key = 1;
  for (auto _ : state) {
    table.Update(key++, value, +1);
  }
}
BENCHMARK(BM_IbltInsertKv);

void BM_IbltDecode(benchmark::State& state) {
  IbltParams params;
  params.num_cells = 1024;
  params.seed = 7;
  Iblt table(params);
  Rng rng(8);
  for (int i = 0; i < 512; ++i) table.Insert(rng.Next());
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.Decode());
  }
}
BENCHMARK(BM_IbltDecode);

void BM_IbltDecodeDiff(benchmark::State& state) {
  // Strata-style peel of (A - B) without materializing the difference.
  IbltParams params;
  params.num_cells = 1024;
  params.seed = 7;
  Iblt a(params), b(params);
  Rng rng(9);
  for (int i = 0; i < 2048; ++i) {
    uint64_t key = rng.Next();
    a.Insert(key);
    b.Insert(key);
  }
  for (int i = 0; i < 256; ++i) a.Insert(rng.Next());
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.DecodeDiff(b));
  }
}
BENCHMARK(BM_IbltDecodeDiff);

void BM_RibltInsert(benchmark::State& state) {
  RibltParams params;
  params.num_cells = 288;  // 4 q^2 k with q=3, k=8
  params.dim = 8;
  params.delta = 1023;
  params.seed = 9;
  Riblt table(params);
  Rng rng(10);
  Point p = GenerateUniformStore(1, 8, 1023, &rng).MakePoint(0);
  uint64_t key = 1;
  for (auto _ : state) {
    table.Insert(key++, p);
  }
}
BENCHMARK(BM_RibltInsert);

void BM_RibltDecode(benchmark::State& state) {
  // Convenience-wrapper decode: a fresh RibltDecodeResult per call, so every
  // iteration pays the result's arena/key-vector allocations. Baseline for
  // BM_RibltDecodeStore.
  RibltParams params;
  params.num_cells = 288;
  params.dim = 8;
  params.delta = 1023;
  params.seed = 11;
  Riblt table(params);
  Rng rng(12);
  for (int i = 0; i < 16; ++i) {
    table.Insert(rng.Next(),
                 GenerateUniformStore(1, 8, 1023, &rng).MakePoint(0));
  }
  for (auto _ : state) {
    Rng decode_rng(13);
    benchmark::DoNotOptimize(table.Decode(64, 32, &decode_rng));
  }
}
BENCHMARK(BM_RibltDecode);

void BM_RibltDecodeStore(benchmark::State& state) {
  // Store-native decode on a reused result (the EMD protocol's per-level
  // loop): after the first call the arenas and key vectors are warm, so the
  // whole peel runs with zero heap allocations. Same table/coins as
  // BM_RibltDecode; the delta against it is pure allocation cost.
  RibltParams params;
  params.num_cells = 288;
  params.dim = 8;
  params.delta = 1023;
  params.seed = 11;
  Riblt table(params);
  Rng rng(12);
  for (int i = 0; i < 16; ++i) {
    table.Insert(rng.Next(),
                 GenerateUniformStore(1, 8, 1023, &rng).MakePoint(0));
  }
  RibltDecodeResult result;
  for (auto _ : state) {
    Rng decode_rng(13);
    benchmark::DoNotOptimize(table.DecodeInto(64, 32, &decode_rng, &result));
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_RibltDecodeStore);

/// Fold-down projection of a cap-size table to a ladder rung — the warm
/// adaptive serving hot path. Arg = number of keys built into the source
/// table; the fold touches CELLS, not keys, so the three timings must be
/// flat across n (that n-independence is the whole point of serving folds
/// instead of rebuilds). Cap = 9216 cells (c q^2 k at q=3, k=256), rung =
/// 1152 cells (divisor 384 of the 3072 cells per subtable).
void BM_RibltFold(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  RibltParams params;
  params.num_cells = 9216;
  params.num_hashes = 3;
  params.dim = 4;
  params.delta = 1023;
  params.seed = 31;
  static auto* sources = new std::map<size_t, Riblt>();
  auto it = sources->find(n);
  if (it == sources->end()) {
    Riblt table(params);
    Rng rng(32);
    std::vector<uint64_t> keys(n);
    for (auto& k : keys) k = rng.Next();
    PointStore values = GenerateUniformStore(n, 4, 1023, &rng);
    table.InsertMany(keys, values);
    it = sources->emplace(n, std::move(table)).first;
  }
  RibltParams rung = params;
  rung.num_cells = 1152;
  Riblt dst(rung);
  RSR_CHECK(it->second.FoldInto(&dst).ok());  // warm the destination
  for (auto _ : state) {
    Status st = it->second.FoldInto(&dst);
    benchmark::DoNotOptimize(st);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_RibltFold)
    ->Arg(1 << 10)
    ->Arg(1 << 12)
    ->Arg(1 << 14)
    ->Unit(benchmark::kMicrosecond);

/// The A->B message of the emd_large_diff workload: three level tables of
/// 9216 cells (c q^2 k at c = 4, q = 3, k = 256; 27,648 cells in all), each
/// holding all 8192 of Alice's points (dim 16, delta 1023) under random
/// keys, as a cold adaptive build at exact sizes serves them.
std::vector<Riblt> LargeDiffTables() {
  RibltParams params;
  params.num_cells = 9216;
  params.dim = 16;
  params.delta = 1023;
  Rng rng(19);
  const PointStore points = GenerateUniformStore(8192, 16, 1023, &rng);
  std::vector<uint64_t> keys(points.size());
  std::vector<Riblt> tables;
  for (uint64_t level = 1; level <= 3; ++level) {
    params.seed = level;
    for (uint64_t& key : keys) key = rng.Next();
    tables.emplace_back(params);
    tables.back().InsertMany(keys, points);
  }
  return tables;
}

/// The byte count of LargeDiffTables() under the compact codec. Both
/// compact benches CHECK it in setup, so a change to the tables or to the
/// codec's layout cannot silently change what they time.
constexpr size_t kLargeDiffCompactBytes = 982236;

void BM_RibltCompactWriteTo(benchmark::State& state) {
  // Alice's encode of the whole message into a reused writer.
  const std::vector<Riblt> tables = LargeDiffTables();
  ByteWriter out;
  for (const Riblt& table : tables) table.WriteTo(&out, WireCodec::kCompact);
  RSR_CHECK_EQ(out.size_bytes(), kLargeDiffCompactBytes);
  for (auto _ : state) {
    out.Clear();
    for (const Riblt& table : tables) {
      table.WriteTo(&out, WireCodec::kCompact);
    }
    benchmark::DoNotOptimize(out.buffer().data());
  }
  state.counters["bytes"] = static_cast<double>(out.size_bytes());
}
BENCHMARK(BM_RibltCompactWriteTo)->Unit(benchmark::kMillisecond);

void BM_RibltCompactReadFrom(benchmark::State& state) {
  // Bob's parse of the same message, one fresh table per level.
  const std::vector<Riblt> tables = LargeDiffTables();
  ByteWriter message;
  for (const Riblt& table : tables) {
    table.WriteTo(&message, WireCodec::kCompact);
  }
  RSR_CHECK_EQ(message.size_bytes(), kLargeDiffCompactBytes);
  for (auto _ : state) {
    ByteReader reader(message.buffer());
    for (const Riblt& table : tables) {
      auto parsed =
          Riblt::ReadFrom(&reader, table.params(), WireCodec::kCompact);
      if (!parsed.ok()) {
        state.SkipWithError("message did not parse");
        return;
      }
      benchmark::DoNotOptimize(parsed->params());
    }
  }
}
BENCHMARK(BM_RibltCompactReadFrom)->Unit(benchmark::kMillisecond);

void BM_EmdExact(benchmark::State& state) {
  Rng rng(14);
  size_t n = static_cast<size_t>(state.range(0));
  PointStore x = GenerateUniformStore(n, 4, 1023, &rng);
  PointStore y = GenerateUniformStore(n, 4, 1023, &rng);
  Metric metric(MetricKind::kL2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(EmdExact(x, y, metric));
  }
}
BENCHMARK(BM_EmdExact)->Arg(32)->Arg(128);

void BM_EmdKAll(benchmark::State& state) {
  Rng rng(15);
  size_t n = static_cast<size_t>(state.range(0));
  PointStore x = GenerateUniformStore(n, 4, 1023, &rng);
  PointStore y = GenerateUniformStore(n, 4, 1023, &rng);
  Metric metric(MetricKind::kL2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(EmdKAll(x, y, metric));
  }
}
BENCHMARK(BM_EmdKAll)->Arg(32)->Arg(64);

/// Algorithm 1's repair inputs at the emd_large_diff / serve_churn shapes:
/// the decoded X_B (rows, copies of S_B points as in a real exchange) and
/// all of S_B (cols), dim 16, both drawn from seed 18.
struct RepairInputs {
  PointStore s_b;
  PointStore x_b;
};

RepairInputs MakeRepairInputs(const benchmark::State& state) {
  const size_t rows = static_cast<size_t>(state.range(0));
  const size_t cols = static_cast<size_t>(state.range(1));
  Rng rng(18);
  RepairInputs in{GenerateUniformStore(cols, 16, 1023, &rng), PointStore(16)};
  for (size_t r = 0; r < rows; ++r) in.x_b.Append(in.s_b[rng.Below(cols)]);
  return in;
}

/// Whether every row of x equals a row of y, each value at most as often
/// as y holds it: then MinCostMatching's exact-copy pass assigns every row
/// and the Hungarian does not run (emd/emd.h).
bool EveryRowIsACopy(const PointStore& x, const PointStore& y) {
  for (size_t r = 0; r < x.size(); ++r) {
    size_t in_x = 0;
    size_t in_y = 0;
    for (size_t i = 0; i < x.size(); ++i) {
      if (x[i] == x[r]) ++in_x;
    }
    for (size_t j = 0; j < y.size(); ++j) {
      if (y[j] == x[r]) ++in_y;
    }
    if (in_x > in_y) return false;
  }
  return true;
}

/// MakeRepairInputs' S_B with X_B drawn without replacement, as an honest
/// decode with no value error gives it: every row a different S_B point.
RepairInputs MakeExactRepairInputs(const benchmark::State& state) {
  const size_t rows = static_cast<size_t>(state.range(0));
  const size_t cols = static_cast<size_t>(state.range(1));
  Rng rng(18);
  RepairInputs in{GenerateUniformStore(cols, 16, 1023, &rng), PointStore(16)};
  std::vector<size_t> index(cols);
  for (size_t j = 0; j < cols; ++j) index[j] = j;
  for (size_t r = 0; r < rows; ++r) {
    std::swap(index[r], index[r + rng.Below(cols - r)]);
    in.x_b.Append(in.s_b[index[r]]);
  }
  RSR_CHECK(EveryRowIsACopy(in.x_b, in.s_b));
  return in;
}

/// The whole repair step as the protocol runs it, MinCostMatching under l2.
void TimeRepairMatch(benchmark::State& state, const RepairInputs& in) {
  Metric metric(MetricKind::kL2);
  for (auto _ : state) {
    AssignmentResult assignment = MinCostMatching(in.x_b, in.s_b, metric);
    benchmark::DoNotOptimize(assignment.row_to_col.data());
    benchmark::DoNotOptimize(assignment.cost);
  }
}

void BM_RepairMatch(benchmark::State& state) {
  // X_B drawn with replacement. At 256 x 8192 some S_B point is drawn
  // twice, so the exact-copy pass gives up and the Hungarian runs, each
  // cost row computed when it is scanned; at 48 x 32768 no point is, and
  // the exact-copy pass matches every row.
  TimeRepairMatch(state, MakeRepairInputs(state));
}
BENCHMARK(BM_RepairMatch)
    ->Args({256, 8192})
    ->Args({48, 32768})
    ->Unit(benchmark::kMillisecond);

void BM_RepairMatchExact(benchmark::State& state) {
  // Every X_B row a different S_B point: the exact-copy pass alone.
  TimeRepairMatch(state, MakeExactRepairInputs(state));
}
BENCHMARK(BM_RepairMatchExact)
    ->Args({256, 8192})
    ->Args({48, 32768})
    ->Unit(benchmark::kMillisecond);

void BM_RepairMatchValueError(benchmark::State& state) {
  // BM_RepairMatchExact's rows with one coordinate each moved by 1, as
  // value error moves a decoded row: no row equals an S_B point, so the
  // exact-copy pass gives up and the Hungarian runs.
  RepairInputs in = MakeExactRepairInputs(state);
  Rng rng(19);
  PointStore moved(16);
  for (size_t r = 0; r < in.x_b.size(); ++r) {
    Coord* row = moved.AppendRow();
    std::copy_n(in.x_b.row(r), 16, row);
    const size_t c = rng.Below(16);
    row[c] = row[c] == 1023 ? 1022 : row[c] + 1;
    for (size_t j = 0; j < in.s_b.size(); ++j) RSR_CHECK(in.s_b[j] != moved[r]);
  }
  in.x_b = std::move(moved);
  TimeRepairMatch(state, in);
}
BENCHMARK(BM_RepairMatchValueError)
    ->Args({256, 8192})
    ->Args({48, 32768})
    ->Unit(benchmark::kMillisecond);

void BM_DistanceMatrix(benchmark::State& state) {
  // The matrix wrapper over the repair's distance rows.
  const RepairInputs in = MakeRepairInputs(state);
  Metric metric(MetricKind::kL2);
  for (auto _ : state) {
    CostMatrix cost = DistanceMatrix(in.x_b, in.s_b, metric);
    benchmark::DoNotOptimize(cost.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_DistanceMatrix)
    ->Args({256, 8192})
    ->Args({48, 32768})
    ->Unit(benchmark::kMillisecond);

void BM_MinCostAssignment(benchmark::State& state) {
  // The matrix wrapper over the repair's Hungarian, on a held matrix.
  const RepairInputs in = MakeRepairInputs(state);
  const CostMatrix cost =
      DistanceMatrix(in.x_b, in.s_b, Metric(MetricKind::kL2));
  for (auto _ : state) {
    AssignmentResult assignment = MinCostAssignment(cost);
    benchmark::DoNotOptimize(assignment.row_to_col.data());
    benchmark::DoNotOptimize(assignment.cost);
  }
}
BENCHMARK(BM_MinCostAssignment)
    ->Args({256, 8192})
    ->Args({48, 32768})
    ->Unit(benchmark::kMillisecond);

// ---- Gap protocol far detection (core/gap_protocol.h) ---------------------

/// The far step of RunGapProtocol at the gap_hamming key shape: 2048 keys
/// per side, h = 44 slots, each slot a 32-bit hash of one of 16 values
/// (m = 4 sampled bits), tau = 31.24 (need = 32, 13 pigeonhole groups).
/// Alice's keys are near twins of Bob's (one slot in 64 redrawn); every
/// 256th is redrawn whole and is far.
void BM_GapFarDetection(benchmark::State& state) {
  constexpr size_t kKeys = 2048;
  constexpr size_t kH = 44;
  Rng rng(19);
  auto slot_value = [&](size_t slot) {
    return static_cast<uint32_t>(Mix64((slot << 4) | rng.Below(16)));
  };
  std::vector<SlottedSet> bob(kKeys, SlottedSet(kH));
  for (auto& key : bob) {
    for (size_t slot = 0; slot < kH; ++slot) key[slot] = slot_value(slot);
  }
  std::vector<SlottedSet> alice = bob;
  for (size_t i = 0; i < kKeys; ++i) {
    for (size_t slot = 0; slot < kH; ++slot) {
      if (i % 256 == 255 || rng.Below(64) == 0) {
        alice[i][slot] = slot_value(slot);
      }
    }
  }
  size_t far_keys = 0;
  for (auto _ : state) {
    internal::FarDetection far = internal::DetectFarKeys(alice, bob, 31.24);
    far_keys = far.far_keys;
    benchmark::DoNotOptimize(far.far_rows.data());
  }
  RSR_CHECK(far_keys >= kKeys / 256);
  state.counters["far_keys"] = static_cast<double>(far_keys);
}
BENCHMARK(BM_GapFarDetection)->Unit(benchmark::kMillisecond);

/// One party's key build in RunGapProtocol at the gap_hamming shape: the
/// range check, bit-sampling evaluation and slot hashing of 2048 points of
/// dim 1024 in {0, 1} (one 16 MiB arena), h = 44 slots of m = 4 draws with
/// w = dim as MakeGapLsh picks it. The arena stays warm across iterations,
/// so the saving from reading each row block once shows only end to end.
void BM_GapKeys(benchmark::State& state) {
  constexpr size_t kDim = 1024;
  constexpr size_t kH = 44;
  constexpr size_t kM = 4;
  Rng rng(20);
  const PointStore points = GenerateUniformStore(2048, kDim, 1, &rng);
  BitSamplingFamily family(kDim, static_cast<double>(kDim));
  Rng draw_rng(21);
  std::vector<std::unique_ptr<LshFunction>> draws =
      DrawMany(family, kH * kM, &draw_rng);
  std::vector<PairwiseVectorHash> slot_hashes;
  for (size_t j = 0; j < kH; ++j) {
    slot_hashes.push_back(PairwiseVectorHash::Draw(&draw_rng));
  }
  for (auto _ : state) {
    std::vector<SlottedSet> keys = internal::BuildGapKeys(
        points, /*delta=*/1, draws, slot_hashes, kM, /*num_threads=*/1);
    benchmark::DoNotOptimize(keys.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(points.size()));
}
BENCHMARK(BM_GapKeys)->Unit(benchmark::kMillisecond);

/// The coordinate range check over one 16 MiB arena (2048 x 1024), the
/// pass RunGapProtocol made over each input before its key build.
void BM_InDomainAll(benchmark::State& state) {
  Rng rng(24);
  const PointStore points = GenerateUniformStore(2048, 1024, 1, &rng);
  for (auto _ : state) {
    bool in_domain = points.InDomainAll(1);
    benchmark::DoNotOptimize(in_domain);
    RSR_CHECK(in_domain);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(points.size() * points.dim() *
                                               sizeof(Coord)));
}
BENCHMARK(BM_InDomainAll)->Unit(benchmark::kMillisecond);

// ---- Set-of-sets reconciliation (setsets/reconciler.h) --------------------

/// Rounds 1-3 of RunGapProtocol at the gap_hamming key shape, fingerprint
/// mode with 8-bit fingerprints: 2048 keys per side, h = 44 slots of 16
/// values each. About half of Alice's keys differ from Bob's in one or two
/// slots. The sketches are sized the way RunGapProtocol sizes them,
/// 2.5 cells per expected differing set and element.
void BM_SetsOfSetsReconcile(benchmark::State& state) {
  constexpr size_t kKeys = 2048;
  constexpr size_t kH = 44;
  Rng rng(22);
  auto slot_value = [&](size_t slot) {
    return static_cast<uint32_t>(Mix64((slot << 4) | rng.Below(16)));
  };
  std::vector<SlottedSet> bob(kKeys, SlottedSet(kH));
  for (auto& key : bob) {
    for (size_t slot = 0; slot < kH; ++slot) key[slot] = slot_value(slot);
  }
  std::vector<SlottedSet> alice = bob;
  for (size_t i = 0; i < kKeys; i += 2) {
    const size_t edits = 1 + rng.Below(2);
    for (size_t e = 0; e < edits; ++e) {
      const size_t slot = rng.Below(kH);
      alice[i][slot] = slot_value(slot);
    }
  }
  SetsReconcilerParams params;
  params.mode = SetsReconcilerMode::kFingerprint;
  params.codec = WireCodec::kClassic;
  params.sig_cells = 5 * kKeys / 2;
  params.elem_cells = 15 * kKeys / 2;
  params.seed = 23;
  size_t diff_sets = 0;
  for (auto _ : state) {
    auto report = ReconcileSetsOfSets(alice, bob, params);
    RSR_CHECK(report.ok() && !report->full_transfer);
    diff_sets = report->diff_sets_bob;
    benchmark::DoNotOptimize(report->bob_sets.data());
  }
  RSR_CHECK(diff_sets > kKeys / 4);
  state.counters["diff_sets"] = static_cast<double>(diff_sets);
}
BENCHMARK(BM_SetsOfSetsReconcile)->Unit(benchmark::kMillisecond);

// ---- Maintained sketches (core/sync_dataset.h, core/sync_server.h) ------

EmdProtocolParams SyncBenchParams() {
  EmdProtocolParams params;
  params.metric = MetricKind::kL1;
  params.dim = 4;
  params.delta = 1023;
  params.k = 8;
  // d1/d2 pinned: with d2 == 0 the level ladder is derived from n, and the
  // per-mutation cost would scale with levels(n) by design. An explicit
  // ladder makes BM_SyncDatasetInsert's n-independence claim directly
  // readable off the three Arg timings.
  params.d1 = 1;
  params.d2 = 1024;
  params.seed = 42;
  return params;
}

PointStore DistinctBenchRows(size_t count, uint64_t seed) {
  Rng rng(seed);
  PointStore points = GenerateUniformStore(count * 2, 4, 1023, &rng);
  points.SortLexAndDedup();
  RSR_CHECK(points.size() >= count);  // dim 4, delta 1023: ~2^40 row space
  points.Truncate(count);
  return points;
}

struct SyncBenchState {
  std::unique_ptr<SyncDataset> dataset;
  Point spare;  // a row NOT in the dataset: inserted + deleted per cycle
};

/// One maintained dataset per n, built once per process: the benchmarks time
/// steady-state mutations, never the cold build.
SyncBenchState* CachedSyncState(size_t n) {
  static auto* cache = new std::map<size_t, SyncBenchState>();
  auto it = cache->find(n);
  if (it == cache->end()) {
    PointStore rows = DistinctBenchRows(n + 1, 0xabc0 + n);
    PointStore initial(4);
    for (size_t i = 0; i < n; ++i) initial.Append(rows[i]);
    auto ds = SyncDataset::Create(initial, SyncBenchParams());
    RSR_CHECK(ds.ok());
    SyncBenchState state{std::make_unique<SyncDataset>(std::move(*ds)),
                         rows.MakePoint(n)};
    state.dataset->Reserve(n + 2);
    it = cache->emplace(n, std::move(state)).first;
  }
  return &it->second;
}

/// One insert + one delete against a maintained dataset. The acceptance
/// claim is O(levels * k) per mutation, INDEPENDENT of n: the three Arg
/// timings (2^10, 2^14, 2^18 rows) should be flat.
void BM_SyncDatasetInsert(benchmark::State& state) {
  SyncBenchState* s = CachedSyncState(static_cast<size_t>(state.range(0)));
  SyncDataset* ds = s->dataset.get();
  PointRef spare(s->spare.coords().data(), s->spare.dim());
  {  // warm the pooled scratch outside the timed loop
    auto key = ds->Insert(spare);
    RSR_CHECK(key.ok() && ds->Delete(*key).ok());
  }
  for (auto _ : state) {
    auto key = ds->Insert(spare);
    Status st = ds->Delete(*key);
    benchmark::DoNotOptimize(st);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 2);
}
BENCHMARK(BM_SyncDatasetInsert)
    ->Arg(1 << 10)
    ->Arg(1 << 14)
    ->Arg(1 << 18)
    ->Unit(benchmark::kMicrosecond);

/// Server-side message production per sync over a maintained dataset under
/// churn: one insert + one delete between syncs, then snapshot + serialize.
/// Acceptance target: >= 10x faster than BM_SessionSyncRebuild.
void BM_SessionSyncWarm(benchmark::State& state) {
  constexpr size_t kN = 4096;
  static SyncServer* server = nullptr;
  static Point* spare = nullptr;
  if (server == nullptr) {
    PointStore rows = DistinctBenchRows(kN + 1, 0x5e55);
    PointStore initial(4);
    for (size_t i = 0; i < kN; ++i) initial.Append(rows[i]);
    auto ds = SyncDataset::Create(initial, SyncBenchParams());
    RSR_CHECK(ds.ok());
    ds->Reserve(kN + 2);
    server = new SyncServer(std::move(*ds));
    spare = new Point(rows.MakePoint(kN));
  }
  PointRef spare_ref(spare->coords().data(), spare->dim());
  for (auto _ : state) {
    auto key = server->Insert(spare_ref);
    Status st = server->Delete(*key);
    benchmark::DoNotOptimize(st);
    auto snap = server->AcquireSnapshot();
    auto sender = EmdSender::Warm(snap->sketches, snap->params,
                                  snap->sketches.derived, nullptr);
    ByteWriter message;
    RSR_CHECK(sender.ok() && sender->WriteTables(&message).ok());
    benchmark::DoNotOptimize(message.buffer().data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_SessionSyncWarm)->Unit(benchmark::kMicrosecond);

/// The pre-SyncDataset serving cost: rebuild every level sketch from scratch
/// and serialize, once per sync.
void BM_SessionSyncRebuild(benchmark::State& state) {
  constexpr size_t kN = 4096;
  static auto* rows = new PointStore(DistinctBenchRows(kN, 0x5e55));
  const EmdProtocolParams params = SyncBenchParams();
  for (auto _ : state) {
    const EmdDerived derived = DeriveEmdParameters(params, kN).ValueOrDie();
    const EmdHashes hashes = MakeEmdHashes(params, derived);
    EmdSender sender = EmdSender::Cold(*rows, params, derived, hashes);
    ByteWriter message;
    RSR_CHECK(sender.WriteTables(&message).ok());
    benchmark::DoNotOptimize(message.buffer().data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_SessionSyncRebuild)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace rsr

int main(int argc, char** argv) {
  // Every BENCH_micro.json records which hashing kernels actually ran: the
  // host's CPU feature set and the dispatcher's decision ("avx2"/"scalar",
  // including the RSR_FORCE_SCALAR override). Without this a baseline file
  // from a different host (or a forced-scalar run) would be silently
  // incomparable.
  benchmark::AddCustomContext("rsr_cpu_features", rsr::CpuFeatureString());
  benchmark::AddCustomContext("rsr_dispatch",
                              rsr::lsh_internal::ActiveBatchKernelName());
  benchmark::AddCustomContext(
      "rsr_repair_dispatch",
      rsr::emd_internal::RepairArmName(rsr::emd_internal::ActiveRepairArm()));
  benchmark::AddCustomContext(
      "rsr_key_dispatch",
      rsr::hashing_internal::KeyArmName(rsr::hashing_internal::ActiveKeyArm()));
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

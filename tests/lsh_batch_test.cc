// Exhaustive scalar-vs-batch equivalence for the LSH evaluation pipeline.
//
// The batch paths (LshFunction::EvalCoordBatch/EvalColsBatch, EvaluateAllInto,
// PairwiseVectorHash::EvalPrefixes/EvalBatch) are pure re-schedulings of the
// scalar reference implementations: every bucket id, prefix key, and protocol
// transcript must be bit-identical for every family, seed, stride, and thread
// count. These tests pin that contract.
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/emd_protocol.h"
#include "core/emd_sketch.h"
#include "core/gap_lowdim.h"
#include "core/gap_protocol.h"
#include "core/multiparty.h"
#include "hashing/pairwise.h"
#include "lsh/bit_sampling.h"
#include "lsh/eval_pipeline.h"
#include "lsh/grid.h"
#include "lsh/one_sided_grid.h"
#include "lsh/pstable.h"
#include "setsets/sethash.h"
#include "sketch/ds_bloom.h"
#include "workload/generators.h"

namespace rsr {
namespace {

// All four drawn-function families at a common dimension.
std::vector<std::unique_ptr<LshFamily>> AllFamilies(size_t dim, Coord delta) {
  std::vector<std::unique_ptr<LshFamily>> families;
  families.push_back(std::make_unique<GridFamily>(dim, 17.5));
  families.push_back(std::make_unique<OneSidedGridFamily>(dim, 64.0, 2));
  families.push_back(std::make_unique<PStableFamily>(dim, 9.25));
  families.push_back(std::make_unique<BitSamplingFamily>(
      dim, static_cast<double>(2 * dim)));
  (void)delta;
  return families;
}

TEST(LshBatchTest, EvalCoordBatchMatchesScalarForAllFamilies) {
  const size_t dim = 6;
  const Coord delta = 1023;
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed);
    PointStore points = GenerateUniformStore(129, dim, delta, &rng);
    for (const auto& family : AllFamilies(dim, delta)) {
      for (int draw = 0; draw < 8; ++draw) {
        std::unique_ptr<LshFunction> fn = family->Draw(&rng);
        std::vector<uint64_t> batch(points.size());
        fn->EvalCoordBatch(points.coord_data(), points.size(), dim,
                           batch.data(), 1);
        for (size_t i = 0; i < points.size(); ++i) {
          ASSERT_EQ(batch[i], fn->Eval(points.MakePoint(i)))
              << family->Name() << " seed " << seed << " point " << i;
        }
      }
    }
  }
}

TEST(LshBatchTest, EvalCoordBatchHonorsStride) {
  const size_t dim = 4;
  Rng rng(11);
  PointStore points = GenerateUniformStore(33, dim, 255, &rng);
  for (const auto& family : AllFamilies(dim, 255)) {
    std::unique_ptr<LshFunction> fn = family->Draw(&rng);
    const size_t stride = 7;
    std::vector<uint64_t> strided(points.size() * stride, 0xabababababababab);
    fn->EvalCoordBatch(points.coord_data(), points.size(), dim, strided.data(),
                       stride);
    for (size_t i = 0; i < points.size(); ++i) {
      EXPECT_EQ(strided[i * stride], fn->Eval(points.MakePoint(i)))
          << family->Name();
      // Untouched gap entries prove the write pattern is exactly strided.
      if (stride > 1 && i * stride + 1 < strided.size()) {
        EXPECT_EQ(strided[i * stride + 1], 0xababababababababULL);
      }
    }
  }
}

TEST(LshBatchTest, EvaluateAllIntoMatchesScalarForEveryThreadCount) {
  const size_t dim = 5;
  Rng rng(21);
  PointStore store = GenerateUniformStore(97, dim, 511, &rng);
  for (const auto& family : AllFamilies(dim, 511)) {
    Rng draw_rng(31);
    std::vector<std::unique_ptr<LshFunction>> functions =
        DrawMany(*family, 13, &draw_rng);
    // Scalar reference: the historical nested loop.
    std::vector<std::vector<uint64_t>> reference(store.size());
    for (size_t i = 0; i < store.size(); ++i) {
      reference[i].resize(functions.size());
      for (size_t g = 0; g < functions.size(); ++g) {
        reference[i][g] = functions[g]->Eval(store.MakePoint(i));
      }
    }
    for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
      EvalMatrix matrix;
      EvaluateAllInto(store, functions, threads, &matrix);
      ASSERT_EQ(matrix.rows(), store.size());
      ASSERT_EQ(matrix.cols(), functions.size());
      for (size_t i = 0; i < store.size(); ++i) {
        for (size_t g = 0; g < functions.size(); ++g) {
          ASSERT_EQ(matrix.at(i, g), reference[i][g])
              << family->Name() << " threads " << threads;
        }
      }
    }
  }
}

// Every column family at dims above 256, where a 32 KiB block holds fewer
// than 16 rows, up to one where a single row no longer fits 32 KiB: the
// pipeline must still transpose blocks of at least 4 rows and match scalar
// Eval.
TEST(LshBatchTest, EvaluateAllIntoMatchesScalarAtHighDims) {
  for (size_t dim : {size_t{257}, size_t{1024}, size_t{4100}}) {
    Rng rng(dim);
    PointStore store = GenerateUniformStore(23, dim, 1023, &rng);
    std::vector<std::unique_ptr<LshFamily>> families;
    families.push_back(std::make_unique<GridFamily>(dim, 17.5));
    families.push_back(std::make_unique<OneSidedGridFamily>(dim, 64.0, 2));
    families.push_back(std::make_unique<PStableFamily>(dim, 9.25));
    for (const auto& family : families) {
      std::vector<std::unique_ptr<LshFunction>> functions =
          DrawMany(*family, 5, &rng);
      ASSERT_TRUE(functions[0]->SupportsColsBatch()) << family->Name();
      for (size_t threads : {size_t{1}, size_t{3}}) {
        EvalMatrix matrix;
        EvaluateAllInto(store, functions, threads, &matrix);
        ASSERT_EQ(matrix.rows(), store.size());
        for (size_t i = 0; i < store.size(); ++i) {
          const Point p = store.MakePoint(i);
          for (size_t g = 0; g < functions.size(); ++g) {
            ASSERT_EQ(matrix.at(i, g), functions[g]->Eval(p))
                << family->Name() << " dim " << dim << " threads " << threads
                << " point " << i;
          }
        }
      }
    }
  }
}

TEST(LshBatchTest, EvalPrefixesMatchesPerPrefixEval) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed * 97);
    PairwiseVectorHash hash = PairwiseVectorHash::Draw(&rng);
    std::vector<uint64_t> row(64);
    for (auto& v : row) v = rng.Next();
    // Nondecreasing prefix lengths with duplicates and the full length —
    // the exact shape LevelPrefixLength produces.
    std::vector<size_t> lens = {1, 1, 2, 3, 5, 8, 16, 16, 33, 64};
    std::vector<uint64_t> keys(lens.size());
    hash.EvalPrefixes(row.data(), lens.data(), lens.size(), keys.data());
    for (size_t t = 0; t < lens.size(); ++t) {
      EXPECT_EQ(keys[t], hash.Eval(row, lens[t])) << "prefix " << lens[t];
    }
  }
}

TEST(LshBatchTest, VectorHashEvalBatchMatchesEvalOverRows) {
  Rng rng(5);
  PairwiseVectorHash hash = PairwiseVectorHash::Draw(&rng);
  const size_t n = 41, stride = 12, len = 5, offset = 3;
  std::vector<uint64_t> matrix(n * stride);
  for (auto& v : matrix) v = rng.Next();
  std::vector<uint64_t> out(n);
  hash.EvalBatch(matrix.data() + offset, n, stride, len, out.data());
  for (size_t i = 0; i < n; ++i) {
    std::vector<uint64_t> row(
        matrix.begin() + static_cast<std::ptrdiff_t>(i * stride + offset),
        matrix.begin() +
            static_cast<std::ptrdiff_t>(i * stride + offset + len));
    EXPECT_EQ(out[i], hash.Eval(row, len)) << "row " << i;
  }
}

TEST(LshBatchTest, BatchSignatureAndContentHashHelpersMatchScalar) {
  Rng rng(7);
  std::vector<SlottedSet> sets(17);
  std::vector<const SlottedSet*> ptrs(sets.size());
  for (size_t i = 0; i < sets.size(); ++i) {
    sets[i].resize(9);
    for (auto& v : sets[i]) v = static_cast<uint32_t>(rng.Next());
    ptrs[i] = &sets[i];
  }
  std::vector<uint64_t> sigs(sets.size());
  SetSignatures(ptrs.data(), ptrs.size(), 0xfeedULL, sigs.data());
  for (size_t i = 0; i < sets.size(); ++i) {
    EXPECT_EQ(sigs[i], SetSignature(sets[i], 0xfeedULL));
  }

  PointStore points = GenerateUniformStore(23, 4, 1023, &rng);
  std::vector<uint64_t> hashes(points.size());
  points.ContentHashMany(0xabcULL, hashes.data());
  for (size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(hashes[i], points.MakePoint(i).ContentHash(0xabcULL));
  }
}

TEST(LshBatchTest, DsBloomInsertManyMatchesInsert) {
  const size_t dim = 16;
  BitSamplingFamily family(dim, 32.0);
  LshParams lsh;
  lsh.p1 = 0.9;
  lsh.p2 = 0.5;
  DsBloomParams params;
  params.num_banks = 8;
  params.hashes_per_bank = 3;
  params.bits_per_bank = 256;
  params.expected_set_size = 64;
  params.seed = 99;
  DistanceSensitiveBloomFilter one_by_one(family, lsh, params);
  DistanceSensitiveBloomFilter batched(family, lsh, params);
  Rng rng(9);
  PointStore points = GenerateUniformStore(64, dim, 1, &rng);
  for (size_t i = 0; i < points.size(); ++i) {
    one_by_one.Insert(points.MakePoint(i));
  }
  batched.InsertMany(points);
  PointStore queries = GenerateUniformStore(128, dim, 1, &rng);
  for (size_t i = 0; i < queries.size(); ++i) {
    const Point q = queries.MakePoint(i);
    ASSERT_EQ(one_by_one.VoteFraction(q), batched.VoteFraction(q));
  }
}

// The same check for the families InsertMany evaluates through transposed
// column blocks.
TEST(LshBatchTest, DsBloomInsertManyMatchesInsertForColumnFamilies) {
  const size_t dim = 16;
  std::vector<std::unique_ptr<LshFamily>> families;
  families.push_back(std::make_unique<GridFamily>(dim, 64.0));
  families.push_back(std::make_unique<PStableFamily>(dim, 32.0));
  LshParams lsh;
  lsh.p1 = 0.9;
  lsh.p2 = 0.5;
  DsBloomParams params;
  params.num_banks = 8;
  params.hashes_per_bank = 3;
  params.bits_per_bank = 256;
  params.expected_set_size = 64;
  params.seed = 99;
  for (const auto& family : families) {
    DistanceSensitiveBloomFilter one_by_one(*family, lsh, params);
    DistanceSensitiveBloomFilter batched(*family, lsh, params);
    Rng rng(10);
    PointStore points = GenerateUniformStore(67, dim, 255, &rng);
    for (size_t i = 0; i < points.size(); ++i) {
      one_by_one.Insert(points.MakePoint(i));
    }
    batched.InsertMany(points);
    PointStore queries = GenerateUniformStore(128, dim, 255, &rng);
    queries.AppendStore(points);
    for (size_t i = 0; i < queries.size(); ++i) {
      const Point q = queries.MakePoint(i);
      ASSERT_EQ(one_by_one.VoteFraction(q), batched.VoteFraction(q))
          << family->Name() << " query " << i;
    }
  }
}

// ---- Protocol-level determinism across thread counts --------------------

void ExpectSameComm(const CommStats& a, const CommStats& b) {
  ASSERT_EQ(a.messages.size(), b.messages.size());
  for (size_t i = 0; i < a.messages.size(); ++i) {
    EXPECT_EQ(a.messages[i].label, b.messages[i].label);
    EXPECT_EQ(a.messages[i].bytes, b.messages[i].bytes);
  }
}

// The blocked key path must equal the full-matrix path: wide priors (s in
// the thousands: many blocks of a few rows) and narrow ones (small s: one
// block per shard), row counts that leave a partial last block, every
// metric, several thread counts.
TEST(LshBatchTest, BlockedEmdLevelKeysMatchFullMatrix) {
  for (MetricKind metric :
       {MetricKind::kL1, MetricKind::kL2, MetricKind::kHamming}) {
    const size_t dim = metric == MetricKind::kHamming ? 64 : 4;
    const Coord delta = metric == MetricKind::kHamming ? 1 : 1023;
    for (double d2 : {16.0, 8192.0}) {
      for (size_t n : {size_t{1}, size_t{37}, size_t{301}}) {
        Rng rng(n * 7 + static_cast<uint64_t>(d2));
        PointStore store = GenerateUniformStore(n, dim, delta, &rng);
        EmdProtocolParams params;
        params.metric = metric;
        params.dim = dim;
        params.delta = delta;
        params.k = 8;
        params.d1 = 8;
        params.d2 = d2;
        params.seed = 99 + n;
        auto derived = DeriveEmdParameters(params, n);
        ASSERT_TRUE(derived.ok());
        EmdHashes hashes = MakeEmdHashes(params, *derived);
        std::vector<size_t> prefix_lens = EmdPrefixLens(*derived);
        EvalMatrix matrix;
        EvaluateAllInto(store, hashes.draws, 1, &matrix);
        std::vector<uint64_t> reference =
            ComputeEmdLevelKeys(matrix, hashes.level_key_hash, prefix_lens, 1);
        for (size_t threads : {size_t{1}, size_t{3}, size_t{8}}) {
          EXPECT_EQ(EvaluateEmdLevelKeys(store, hashes, prefix_lens, threads),
                    reference)
              << "s " << derived->s << " n " << n << " threads " << threads;
        }
      }
    }
  }
}

TEST(LshBatchTest, EmdTranscriptIdenticalForEveryThreadCount) {
  for (MetricKind metric :
       {MetricKind::kL1, MetricKind::kL2, MetricKind::kHamming}) {
    const size_t dim = metric == MetricKind::kHamming ? 64 : 3;
    const Coord delta = metric == MetricKind::kHamming ? 1 : 63;
    Rng rng(42);
    PointStore alice = GenerateUniformStore(48, dim, delta, &rng);
    // Bob = Alice with row 0 replaced: one difference.
    PointStore bob = GenerateUniformStore(1, dim, delta, &rng);
    for (size_t i = 1; i < alice.size(); ++i) bob.Append(alice.row(i));
    EmdProtocolParams params;
    params.metric = metric;
    params.dim = dim;
    params.delta = delta;
    params.k = 2;
    params.d1 = 1;
    params.d2 = 16;
    params.seed = 1234;
    params.num_threads = 1;
    auto baseline = RunEmdProtocol(alice, bob, params);
    ASSERT_TRUE(baseline.ok());
    for (size_t threads : {size_t{2}, size_t{8}}) {
      params.num_threads = threads;
      auto report = RunEmdProtocol(alice, bob, params);
      ASSERT_TRUE(report.ok());
      EXPECT_EQ(report->failure, baseline->failure);
      EXPECT_EQ(report->decoded_level, baseline->decoded_level);
      EXPECT_EQ(report->s_b_prime, baseline->s_b_prime);
      EXPECT_EQ(report->x_a, baseline->x_a);
      EXPECT_EQ(report->x_b, baseline->x_b);
      ExpectSameComm(report->comm, baseline->comm);
    }
  }
}

TEST(LshBatchTest, GapTranscriptIdenticalForEveryThreadCount) {
  Rng rng(43);
  PointStore alice = GenerateUniformStore(32, 128, 1, &rng);
  PointStore bob = GenerateUniformStore(32, 128, 1, &rng);
  GapProtocolParams params;
  params.metric = MetricKind::kHamming;
  params.dim = 128;
  params.delta = 1;
  params.r1 = 2;
  params.r2 = 32;
  params.k = 2;
  params.seed = 77;
  params.num_threads = 1;
  auto baseline = RunGapProtocol(alice, bob, params);
  ASSERT_TRUE(baseline.ok());
  for (size_t threads : {size_t{2}, size_t{8}}) {
    params.num_threads = threads;
    auto report = RunGapProtocol(alice, bob, params);
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report->transmitted, baseline->transmitted);
    EXPECT_EQ(report->s_b_prime, baseline->s_b_prime);
    EXPECT_EQ(report->far_keys, baseline->far_keys);
    ExpectSameComm(report->comm, baseline->comm);
  }
}

TEST(LshBatchTest, LowDimGapTranscriptIdenticalForEveryThreadCount) {
  Rng rng(44);
  PointStore alice = GenerateUniformStore(24, 2, 255, &rng);
  PointStore bob = GenerateUniformStore(24, 2, 255, &rng);
  LowDimGapParams params;
  params.metric = MetricKind::kL1;
  params.dim = 2;
  params.delta = 255;
  params.r1 = 2;
  params.r2 = 40;
  params.k = 2;
  params.seed = 55;
  params.num_threads = 1;
  auto baseline = RunLowDimGapProtocol(alice, bob, params);
  ASSERT_TRUE(baseline.ok());
  for (size_t threads : {size_t{2}, size_t{8}}) {
    params.num_threads = threads;
    auto report = RunLowDimGapProtocol(alice, bob, params);
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report->transmitted, baseline->transmitted);
    EXPECT_EQ(report->s_b_prime, baseline->s_b_prime);
    ExpectSameComm(report->comm, baseline->comm);
  }
}

TEST(LshBatchTest, MultiPartyIdenticalForEveryThreadCount) {
  Rng rng(45);
  PointStore base = GenerateUniformStore(20, 3, 127, &rng);
  std::vector<PointStore> parties(3, base);
  parties[0].Truncate(base.size() - 1);
  parties[1].AppendStore(GenerateUniformStore(1, 3, 127, &rng));
  MultiPartyParams params;
  params.dim = 3;
  params.delta = 127;
  params.sketch_cells = 36 * 4;
  params.seed = 7;
  params.num_threads = 1;
  auto baseline = RunMultiPartyUnion(parties, params);
  ASSERT_TRUE(baseline.ok());
  for (size_t threads : {size_t{2}, size_t{8}}) {
    params.num_threads = threads;
    auto report = RunMultiPartyUnion(parties, params);
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report->all_ok, baseline->all_ok);
    ASSERT_EQ(report->final_sets.size(), baseline->final_sets.size());
    for (size_t i = 0; i < report->final_sets.size(); ++i) {
      EXPECT_EQ(report->party_ok[i], baseline->party_ok[i]);
      EXPECT_EQ(report->final_sets[i], baseline->final_sets[i]);
    }
    ExpectSameComm(report->comm, baseline->comm);
  }
}

}  // namespace
}  // namespace rsr

// Tests for the fold-down projection (Riblt::FoldInto).
//
// The load-bearing claim behind adaptive warm serving: folding a cap-size
// table down to any divisor-ladder rung is cell-for-cell (WriteTo
// byte-for-byte) identical to building the smaller table cold from the same
// update stream. Covers divisor chains, per-level seeds, fold-of-fold
// composition, rejection of non-divisor / mismatched targets, decode
// equivalence after folding, and the zero-allocation warm path.
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "sketch/riblt.h"
#include "alloc_counter.h"
#include "util/random.h"
#include "util/serialize.h"
#include "core/emd_sketch.h"
#include "workload/generators.h"

namespace rsr {
namespace {

RibltParams MakeRibltParams(size_t cells, uint64_t seed = 7, int q = 3) {
  RibltParams params;
  params.num_cells = cells;
  params.num_hashes = q;
  params.dim = 2;
  params.delta = 100;
  params.seed = seed;
  return params;
}

std::vector<uint8_t> Bytes(const Riblt& table) {
  ByteWriter w;
  table.WriteTo(&w);
  return w.buffer();
}

/// `src` folded into a fresh table of `cells` cells with `src`'s other
/// parameters, the way FoldEmdSketches folds into its scratch tables.
Riblt FoldedTo(const Riblt& src, size_t cells) {
  RibltParams params = src.params();
  params.num_cells = cells;
  Riblt dst(params);
  const Status status = src.FoldInto(&dst);
  EXPECT_TRUE(status.ok()) << status.ToString();
  return dst;
}

/// A recorded update stream replayable against tables of any size: `n`
/// inserts and `n_del` deletes of uniform points under distinct keys.
struct RibltWorkload {
  PointStore inserted, deleted;
  void ApplyTo(Riblt* table) const {
    for (size_t i = 0; i < inserted.size(); ++i) {
      table->Insert(1000 + i, inserted.MakePoint(i));
    }
    for (size_t i = 0; i < deleted.size(); ++i) {
      table->Delete(5000 + i, deleted.MakePoint(i));
    }
  }
};

RibltWorkload MakeWorkload(size_t n, size_t n_del, uint64_t seed) {
  Rng rng(seed);
  RibltWorkload w;
  w.inserted = GenerateUniformStore(n, 2, 100, &rng);
  w.deleted = GenerateUniformStore(n_del, 2, 100, &rng);
  return w;
}

TEST(RibltFoldTest, FoldMatchesColdBuildAcrossTheDivisorChain) {
  // cap = 288 cells at q = 3 -> 96 cells per subtable; every divisor of 96
  // is a rung.
  const RibltWorkload workload = MakeWorkload(40, 40, 11);
  Riblt cap(MakeRibltParams(288));
  workload.ApplyTo(&cap);
  for (size_t d : {1u, 2u, 3u, 4u, 6u, 8u, 12u, 16u, 24u, 32u, 48u, 96u}) {
    Riblt folded = FoldedTo(cap, d * 3);
    Riblt cold(MakeRibltParams(d * 3));
    workload.ApplyTo(&cold);
    EXPECT_EQ(Bytes(folded), Bytes(cold)) << "rung " << d * 3;
  }
}

TEST(RibltFoldTest, FoldMatchesColdBuildAcrossSeedsAndHashCounts) {
  // Per-level tables differ only in seed (EmdLevelRibltParams salts it); the
  // fold identity must hold for every seed and for q != 3.
  for (uint64_t seed : {0ull, 0xeb1'0001ull, 0xeb1'0007ull}) {
    for (int q : {3, 4, 5}) {
      const RibltWorkload workload = MakeWorkload(25, 25, seed ^ 99);
      Riblt cap(MakeRibltParams(static_cast<size_t>(q) * 64, seed, q));
      workload.ApplyTo(&cap);
      Riblt folded = FoldedTo(cap, static_cast<size_t>(q) * 16);
      Riblt cold(MakeRibltParams(static_cast<size_t>(q) * 16, seed, q));
      workload.ApplyTo(&cold);
      EXPECT_EQ(Bytes(folded), Bytes(cold)) << "seed " << seed << " q " << q;
    }
  }
}

TEST(RibltFoldTest, FoldOfFoldEqualsDirectFold) {
  const RibltWorkload workload = MakeWorkload(30, 30, 31);
  Riblt cap(MakeRibltParams(288));  // 96 per subtable
  workload.ApplyTo(&cap);
  Riblt mid = FoldedTo(cap, 72);  // 24 per subtable
  Riblt chained = FoldedTo(mid, 18);  // 6 per subtable
  Riblt direct = FoldedTo(cap, 18);
  EXPECT_EQ(Bytes(chained), Bytes(direct));
}

TEST(RibltFoldTest, EqualSizeFoldIsACopy) {
  const RibltWorkload workload = MakeWorkload(20, 20, 41);
  Riblt cap(MakeRibltParams(288));
  workload.ApplyTo(&cap);
  Riblt same = FoldedTo(cap, 288);
  EXPECT_EQ(Bytes(same), Bytes(cap));
}

TEST(RibltFoldTest, RejectsNonDivisorAndMismatchedTargets) {
  Riblt cap(MakeRibltParams(288));  // 96 per subtable
  // 15 cells -> 5 per subtable; 5 does not divide 96.
  Riblt non_divisor(MakeRibltParams(15));
  EXPECT_FALSE(cap.FoldInto(&non_divisor).ok());
  // Larger than the source.
  Riblt larger(MakeRibltParams(576));
  EXPECT_FALSE(cap.FoldInto(&larger).ok());
  // Parameter mismatches.
  Riblt wrong_seed(MakeRibltParams(96, /*seed=*/8));
  EXPECT_FALSE(cap.FoldInto(&wrong_seed).ok());
  Riblt wrong_q(MakeRibltParams(96, /*seed=*/7, /*q=*/4));
  EXPECT_FALSE(cap.FoldInto(&wrong_q).ok());
}

TEST(RibltFoldTest, FoldedTableDecodesTheDifference) {
  // A small symmetric difference decodes identically from a folded table and
  // from a cold-built one (same decoder coins).
  Rng rng(51);
  PointStore shared = GenerateUniformStore(50, 2, 100, &rng);
  PointStore alice_only = GenerateUniformStore(3, 2, 100, &rng);
  PointStore bob_only = GenerateUniformStore(3, 2, 100, &rng);
  auto build = [&](Riblt* table) {
    for (size_t i = 0; i < shared.size(); ++i) {
      table->Insert(100 + i, shared.MakePoint(i));
      table->Delete(100 + i, shared.MakePoint(i));
    }
    for (size_t i = 0; i < alice_only.size(); ++i) {
      table->Insert(7000 + i, alice_only.MakePoint(i));
    }
    for (size_t i = 0; i < bob_only.size(); ++i) {
      table->Delete(8000 + i, bob_only.MakePoint(i));
    }
  };
  Riblt cap(MakeRibltParams(576));
  build(&cap);
  Riblt folded = FoldedTo(cap, 144);
  Riblt cold(MakeRibltParams(144));
  build(&cold);

  Rng coins_a(77), coins_b(77);
  auto from_fold = folded.Decode(100, 100, &coins_a);
  auto from_cold = cold.Decode(100, 100, &coins_b);
  ASSERT_TRUE(from_fold.ok());
  ASSERT_TRUE(from_cold.ok());
  EXPECT_EQ(from_fold->inserted_keys, from_cold->inserted_keys);
  EXPECT_EQ(from_fold->deleted_keys, from_cold->deleted_keys);
  EXPECT_EQ(from_fold->inserted_keys.size(), alice_only.size());
  EXPECT_EQ(from_fold->deleted_keys.size(), bob_only.size());
}

TEST(RibltFoldTest, FoldIntoOverwritesAStaleTarget) {
  // FoldEmdSketches reuses its scratch tables across sessions: a fold must
  // replace the target's cells, not add to what an earlier fold left there.
  const RibltWorkload first = MakeWorkload(30, 30, 51);
  const RibltWorkload second = MakeWorkload(25, 35, 52);
  Riblt cap_first(MakeRibltParams(288)), cap_second(MakeRibltParams(288));
  first.ApplyTo(&cap_first);
  second.ApplyTo(&cap_second);
  Riblt dst(MakeRibltParams(72));
  ASSERT_TRUE(cap_first.FoldInto(&dst).ok());
  ASSERT_TRUE(cap_second.FoldInto(&dst).ok());
  Riblt cold(MakeRibltParams(72));
  second.ApplyTo(&cold);
  EXPECT_EQ(Bytes(dst), Bytes(cold));
}

TEST(RibltFoldTest, WarmFoldIntoPerformsZeroAllocations) {
  const RibltWorkload workload = MakeWorkload(40, 40, 61);
  Riblt cap(MakeRibltParams(288));
  workload.ApplyTo(&cap);
  Riblt dst(MakeRibltParams(72));
  ASSERT_TRUE(cap.FoldInto(&dst).ok());  // cold: shapes settle
  const long long before = testing::AllocationCount();
  ASSERT_TRUE(cap.FoldInto(&dst).ok());
  EXPECT_EQ(testing::AllocationCount(), before)
      << "warm FoldInto must not allocate";
}

// ---- FoldEmdSketches (the per-session projection) ---------------------------

TEST(FoldEmdSketchesTest, MatchesPerTableFoldAndReusesScratchWithoutAllocating) {
  EmdProtocolParams params;
  params.metric = MetricKind::kL1;
  params.dim = 2;
  params.delta = 100;
  params.k = 4;
  params.d1 = 1;
  params.d2 = 8;
  params.seed = 77;
  params.adaptive.enabled = true;
  params.adaptive.rounding = CellRounding::kDivisorLadder;

  Rng rng(111);
  PointStore alice = GenerateUniformStore(64, 2, 100, &rng);
  auto set = BuildEmdSketches(alice, params, /*build_estimators=*/true);
  ASSERT_TRUE(set.ok());
  const size_t cap = set->derived.cells;
  const size_t levels = set->tables.size();

  // One distinct rung per level (cycling through a few real rungs).
  std::vector<size_t> rungs;
  for (size_t l = 0; l < levels; ++l) {
    rungs.push_back(RoundUpToLadder(cap / (2 + l % 3), cap,
                                    params.num_hashes));
  }

  EmdServeScratch scratch;
  ASSERT_TRUE(FoldEmdSketches(*set, rungs, params, &scratch).ok());
  ASSERT_EQ(scratch.folded.size(), levels);
  for (size_t l = 0; l < levels; ++l) {
    EXPECT_EQ(Bytes(scratch.folded[l]),
              Bytes(FoldedTo(set->tables[l], rungs[l])))
        << "level " << l;
  }

  // Same rungs again: the pooled tables are reused in place, zero
  // allocations.
  const long long before = testing::AllocationCount();
  ASSERT_TRUE(FoldEmdSketches(*set, rungs, params, &scratch).ok());
  EXPECT_EQ(testing::AllocationCount(), before)
      << "warm same-shape FoldEmdSketches must not allocate";

  // Changing a rung reshapes only that slot and stays correct.
  rungs[0] = cap;
  ASSERT_TRUE(FoldEmdSketches(*set, rungs, params, &scratch).ok());
  EXPECT_EQ(Bytes(scratch.folded[0]), Bytes(FoldedTo(set->tables[0], cap)));

  // A non-rung size is rejected; the cap_sub here is even, so cap_sub - 1 is
  // odd and (for cap_sub > 3) not a divisor.
  std::vector<size_t> bad = rungs;
  bad[0] = cap - static_cast<size_t>(params.num_hashes);  // one row short
  if (bad[0] != RoundUpToLadder(bad[0], cap, params.num_hashes)) {
    EXPECT_FALSE(FoldEmdSketches(*set, bad, params, &scratch).ok());
  }
  // Wrong level count is rejected outright.
  std::vector<size_t> short_list(levels - 1, cap);
  EXPECT_FALSE(FoldEmdSketches(*set, short_list, params, &scratch).ok());
}

}  // namespace
}  // namespace rsr

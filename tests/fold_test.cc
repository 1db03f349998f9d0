// Tests for the fold-down projections (Riblt::FoldInto / Iblt::FoldInto).
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

#include "sketch/iblt.h"
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

std::vector<uint8_t> Bytes(const Iblt& table) {
  ByteWriter w;
  table.WriteTo(&w);
  return w.buffer();
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
    auto folded = cap.FoldTo(d * 3);
    ASSERT_TRUE(folded.ok()) << folded.status().ToString();
    Riblt cold(MakeRibltParams(d * 3));
    workload.ApplyTo(&cold);
    EXPECT_EQ(Bytes(*folded), Bytes(cold)) << "rung " << d * 3;
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
      auto folded = cap.FoldTo(static_cast<size_t>(q) * 16);
      ASSERT_TRUE(folded.ok());
      Riblt cold(MakeRibltParams(static_cast<size_t>(q) * 16, seed, q));
      workload.ApplyTo(&cold);
      EXPECT_EQ(Bytes(*folded), Bytes(cold)) << "seed " << seed << " q " << q;
    }
  }
}

TEST(RibltFoldTest, FoldOfFoldEqualsDirectFold) {
  const RibltWorkload workload = MakeWorkload(30, 30, 31);
  Riblt cap(MakeRibltParams(288));  // 96 per subtable
  workload.ApplyTo(&cap);
  auto mid = cap.FoldTo(72);  // 24 per subtable
  ASSERT_TRUE(mid.ok());
  auto chained = mid->FoldTo(18);  // 6 per subtable
  ASSERT_TRUE(chained.ok());
  auto direct = cap.FoldTo(18);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(Bytes(*chained), Bytes(*direct));
}

TEST(RibltFoldTest, EqualSizeFoldIsACopy) {
  const RibltWorkload workload = MakeWorkload(20, 20, 41);
  Riblt cap(MakeRibltParams(288));
  workload.ApplyTo(&cap);
  auto same = cap.FoldTo(288);
  ASSERT_TRUE(same.ok());
  EXPECT_EQ(Bytes(*same), Bytes(cap));
}

TEST(RibltFoldTest, RejectsNonDivisorAndMismatchedTargets) {
  Riblt cap(MakeRibltParams(288));  // 96 per subtable
  // 15 cells -> 5 per subtable; 5 does not divide 96.
  EXPECT_FALSE(cap.FoldTo(15).ok());
  // Larger than the source.
  EXPECT_FALSE(cap.FoldTo(576).ok());
  // Zero cells.
  EXPECT_FALSE(cap.FoldTo(0).ok());
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
  auto folded = cap.FoldTo(144);
  ASSERT_TRUE(folded.ok());
  Riblt cold(MakeRibltParams(144));
  build(&cold);

  Rng coins_a(77), coins_b(77);
  auto from_fold = folded->Decode(100, 100, &coins_a);
  auto from_cold = cold.Decode(100, 100, &coins_b);
  ASSERT_TRUE(from_fold.ok());
  ASSERT_TRUE(from_cold.ok());
  EXPECT_EQ(from_fold->inserted_keys, from_cold->inserted_keys);
  EXPECT_EQ(from_fold->deleted_keys, from_cold->deleted_keys);
  EXPECT_EQ(from_fold->inserted_keys.size(), alice_only.size());
  EXPECT_EQ(from_fold->deleted_keys.size(), bob_only.size());
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

// ---- Iblt ------------------------------------------------------------------

IbltParams MakeIbltParams(size_t cells, size_t value_size = 0,
                          uint64_t seed = 9, int q = 4) {
  IbltParams params;
  params.num_cells = cells;
  params.num_hashes = q;
  params.value_size = value_size;
  params.checksum_bytes = 4;
  params.seed = seed;
  return params;
}

TEST(IbltFoldTest, FoldMatchesColdBuildAcrossTheDivisorChain) {
  // cap = 256 cells at q = 4 -> 64 per subtable.
  Rng rng(71);
  std::vector<uint64_t> ins, del;
  for (int i = 0; i < 50; ++i) ins.push_back(rng.Next());
  for (int i = 0; i < 50; ++i) del.push_back(rng.Next());
  Iblt cap(MakeIbltParams(256));
  cap.InsertMany(ins);
  cap.DeleteMany(del);
  for (size_t d : {1u, 2u, 4u, 8u, 16u, 32u, 64u}) {
    auto folded = cap.FoldTo(d * 4);
    ASSERT_TRUE(folded.ok()) << folded.status().ToString();
    Iblt cold(MakeIbltParams(d * 4));
    cold.InsertMany(ins);
    cold.DeleteMany(del);
    EXPECT_EQ(Bytes(*folded), Bytes(cold)) << "rung " << d * 4;
  }
}

TEST(IbltFoldTest, FoldMatchesColdBuildWithValues) {
  // Value slabs XOR-fold; exercise a non-empty value_size.
  Rng rng(81);
  Iblt cap(MakeIbltParams(256, /*value_size=*/6));
  Iblt cold(MakeIbltParams(64, /*value_size=*/6));
  for (int i = 0; i < 40; ++i) {
    uint64_t key = rng.Next();
    std::vector<uint8_t> value(6);
    for (uint8_t& b : value) b = static_cast<uint8_t>(rng.Next());
    cap.InsertKv(key, value);
    cold.InsertKv(key, value);
  }
  auto folded = cap.FoldTo(64);
  ASSERT_TRUE(folded.ok());
  EXPECT_EQ(Bytes(*folded), Bytes(cold));
}

TEST(IbltFoldTest, FoldedDiffPeelsTheSameEntries) {
  Rng rng(91);
  std::vector<uint64_t> shared, a_only, b_only;
  for (int i = 0; i < 200; ++i) shared.push_back(rng.Next());
  for (int i = 0; i < 4; ++i) a_only.push_back(rng.Next());
  for (int i = 0; i < 4; ++i) b_only.push_back(rng.Next());
  Iblt a(MakeIbltParams(512)), b(MakeIbltParams(512));
  a.InsertMany(shared);
  a.InsertMany(a_only);
  b.InsertMany(shared);
  b.InsertMany(b_only);
  auto fa = a.FoldTo(64);
  auto fb = b.FoldTo(64);
  ASSERT_TRUE(fa.ok());
  ASSERT_TRUE(fb.ok());
  auto diff = fa->DecodeDiff(*fb);
  ASSERT_TRUE(diff.ok()) << diff.status().ToString();
  EXPECT_TRUE(diff->complete);
  EXPECT_EQ(diff->entries.size(), a_only.size() + b_only.size());
}

TEST(IbltFoldTest, RejectsNonDivisorAndMismatchedTargets) {
  Iblt cap(MakeIbltParams(256));  // 64 per subtable
  EXPECT_FALSE(cap.FoldTo(12).ok());  // 3 does not divide 64
  EXPECT_FALSE(cap.FoldTo(512).ok());
  EXPECT_FALSE(cap.FoldTo(0).ok());
  Iblt wrong_value_size(MakeIbltParams(64, /*value_size=*/2));
  EXPECT_FALSE(cap.FoldInto(&wrong_value_size).ok());
  Iblt wrong_seed(MakeIbltParams(64, 0, /*seed=*/10));
  EXPECT_FALSE(cap.FoldInto(&wrong_seed).ok());
}

TEST(IbltFoldTest, WarmFoldIntoPerformsZeroAllocations) {
  Rng rng(101);
  std::vector<uint64_t> keys;
  for (int i = 0; i < 60; ++i) keys.push_back(rng.Next());
  Iblt cap(MakeIbltParams(256, /*value_size=*/4));
  // InsertKv allocates the value vector here, not in the table.
  for (uint64_t key : keys) {
    std::vector<uint8_t> value(4, static_cast<uint8_t>(key));
    cap.InsertKv(key, value);
  }
  Iblt dst(MakeIbltParams(64, /*value_size=*/4));
  ASSERT_TRUE(cap.FoldInto(&dst).ok());
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
    auto direct = set->tables[l].FoldTo(rungs[l]);
    ASSERT_TRUE(direct.ok());
    EXPECT_EQ(Bytes(scratch.folded[l]), Bytes(*direct)) << "level " << l;
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
  auto recap = set->tables[0].FoldTo(cap);
  ASSERT_TRUE(recap.ok());
  EXPECT_EQ(Bytes(scratch.folded[0]), Bytes(*recap));

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

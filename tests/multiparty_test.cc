// Tests for multi-party union reconciliation ([23] over the sum-cell RIBLT).
#include <algorithm>

#include <gtest/gtest.h>

#include "core/multiparty.h"
#include "sketch/riblt.h"
#include "util/random.h"
#include "workload/generators.h"

namespace rsr {
namespace {

PointStore SortedUnion(const std::vector<PointStore>& parties) {
  PointStore all(2);
  for (const auto& set : parties) all.AppendStore(set);
  all.SortLexAndDedup();
  return all;
}

/// The distinct rows of `set`, sorted.
PointStore Distinct(PointStore set) {
  set.SortLexAndDedup();
  return set;
}

MultiPartyParams MakeParams(size_t cells, uint64_t seed = 9) {
  MultiPartyParams params;
  params.dim = 2;
  params.delta = 1023;
  params.sketch_cells = cells;
  params.seed = seed;
  return params;
}

std::vector<PointStore> MakeParties(size_t s, size_t shared,
                                    size_t unique_each, uint64_t seed) {
  Rng rng(seed);
  PointStore common = GenerateUniformStore(shared, 2, 1023, &rng);
  std::vector<PointStore> parties(s);
  for (auto& set : parties) {
    set = common;
    set.AppendStore(GenerateUniformStore(unique_each, 2, 1023, &rng));
  }
  return parties;
}

TEST(MultiPartyTest, RejectsDegenerateInputs) {
  EXPECT_FALSE(
      RunMultiPartyUnion(std::vector<PointStore>(1), MakeParams(32)).ok());
  MultiPartyParams bad = MakeParams(0);
  std::vector<PointStore> two(2);
  EXPECT_FALSE(RunMultiPartyUnion(two, bad).ok());
}

TEST(MultiPartyTest, IdenticalPartiesNoWork) {
  Rng rng(1);
  PointStore shared = GenerateUniformStore(50, 2, 1023, &rng);
  std::vector<PointStore> parties(4, shared);
  auto report = RunMultiPartyUnion(parties, MakeParams(36));
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->all_ok);
  for (const auto& final_set : report->final_sets) {
    EXPECT_EQ(final_set.size(), 50u);
  }
}

class MultiPartyCountTest : public ::testing::TestWithParam<size_t> {};

TEST_P(MultiPartyCountTest, EveryPartyGetsTheUnion) {
  const size_t s = GetParam();
  auto parties = MakeParties(s, 60, 3, 100 + s);
  PointStore want = SortedUnion(parties);
  // Decode load per party <= (s-1)*3 missing + own 3 surplus; size with the
  // paper's 4 q^2 margin.
  auto report = RunMultiPartyUnion(parties, MakeParams(36 * (s * 3 + 3)));
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report->all_ok);
  for (size_t i = 0; i < s; ++i) {
    EXPECT_EQ(Distinct(report->final_sets[i]), want) << "party " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(PartyCounts, MultiPartyCountTest,
                         ::testing::Values(2, 3, 5, 8));

TEST(MultiPartyTest, PartialOverlapPatterns) {
  // Element multiplicities 1..s-1 all survive cancellation correctly.
  Rng rng(2);
  PointStore base = GenerateUniformStore(40, 2, 1023, &rng);
  PointStore extras = GenerateUniformStore(6, 2, 1023, &rng);
  std::vector<PointStore> parties(4, base);
  parties[0].Append(extras[0]);                          // multiplicity 1
  parties[1].Append(extras[1]);
  parties[1].Append(extras[2]);
  parties[2].Append(extras[2]);                          // multiplicity 2
  parties[0].Append(extras[3]);
  parties[1].Append(extras[3]);
  parties[2].Append(extras[3]);                          // multiplicity 3
  auto report = RunMultiPartyUnion(parties, MakeParams(36 * 16));
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report->all_ok);
  PointStore want = SortedUnion(parties);
  for (const auto& final_set : report->final_sets) {
    EXPECT_EQ(Distinct(final_set), want);
  }
}

TEST(MultiPartyTest, EmptyPartyReceivesTheUnion) {
  // A party may join with nothing, as PointStore() or PointStore(dim); its
  // final set is the union, built with the protocol's dimension.
  Rng rng(4);
  PointStore base = GenerateUniformStore(12, 2, 1023, &rng);
  for (const PointStore& empty : {PointStore(), PointStore(2)}) {
    std::vector<PointStore> parties{base, base, empty};
    parties[1].Append(GenerateUniformStore(1, 2, 1023, &rng)[0]);
    auto report = RunMultiPartyUnion(parties, MakeParams(36 * 16));
    ASSERT_TRUE(report.ok());
    ASSERT_TRUE(report->all_ok);
    PointStore want = SortedUnion(parties);
    for (const auto& final_set : report->final_sets) {
      EXPECT_EQ(final_set.dim(), 2u);
      EXPECT_EQ(Distinct(final_set), want);
    }
  }
}

TEST(MultiPartyTest, WithinPartyDuplicatesCollapse) {
  Rng rng(3);
  PointStore base = GenerateUniformStore(10, 2, 1023, &rng);
  std::vector<PointStore> parties(3, base);
  parties[1].Append(base[0]);  // duplicate of a shared point
  parties[1].Append(base[0]);
  auto report = RunMultiPartyUnion(parties, MakeParams(36 * 4));
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->all_ok);
  for (const auto& final_set : report->final_sets) {
    EXPECT_EQ(final_set.size(), 10u);
  }
}

TEST(MultiPartyTest, UndersizedSketchFailsHonestly) {
  auto parties = MakeParties(3, 20, 30, 7);  // 90+ diff mass
  auto report = RunMultiPartyUnion(parties, MakeParams(24));
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->all_ok);
  // Failed parties keep their input sets (no garbage).
  for (size_t i = 0; i < parties.size(); ++i) {
    if (!report->party_ok[i]) {
      EXPECT_LE(report->final_sets[i].size(), parties[i].size());
    }
  }
}

TEST(MultiPartyTest, CommIsOneBroadcastPerParty) {
  auto parties = MakeParties(5, 30, 2, 11);
  auto report = RunMultiPartyUnion(parties, MakeParams(36 * 12));
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->comm.rounds(), 5);
  EXPECT_EQ(report->used_cells, 36u * 12u);
  EXPECT_FALSE(report->retried);
}

// ------------------------------------------------- adaptive sizing --

TEST(MultiPartyTest, AdaptiveShrinksSketchesAndStillReachesTheUnion) {
  auto parties = MakeParties(4, 60, 3, 21);
  PointStore want = SortedUnion(parties);

  // A deliberately generous static cap: the hub's estimated difference mass
  // (sum_j est(|S_0 delta S_j|) ~ 18) should negotiate far below it.
  MultiPartyParams static_params = MakeParams(4096, 19);
  MultiPartyParams adaptive_params = static_params;
  adaptive_params.adaptive.enabled = true;
  auto fixed = RunMultiPartyUnion(parties, static_params);
  auto adaptive = RunMultiPartyUnion(parties, adaptive_params);
  ASSERT_TRUE(fixed.ok());
  ASSERT_TRUE(adaptive.ok());
  ASSERT_TRUE(fixed->all_ok);
  ASSERT_TRUE(adaptive->all_ok);

  EXPECT_LT(adaptive->used_cells, 4096u);
  EXPECT_GE(adaptive->used_cells, adaptive_params.adaptive.floor_cells);
  EXPECT_FALSE(adaptive->retried);
  // Smaller sketches, smaller broadcasts — the estimator round included.
  // Only meaningful under the classic codec: compact's sparse mode shrinks a
  // mostly-empty cap-size table to little more than its occupied cells, so
  // the static run no longer pays for its generous cap and the estimator
  // round can outweigh adaptive's remaining edge.
  if (DefaultWireCodec() == WireCodec::kClassic) {
    EXPECT_LT(adaptive->comm.total_bits(), fixed->comm.total_bits());
  }
  // The estimator round and size broadcast are real messages.
  EXPECT_EQ(adaptive->comm.rounds(), fixed->comm.rounds() + 4);

  for (size_t i = 0; i < parties.size(); ++i) {
    EXPECT_EQ(Distinct(adaptive->final_sets[i]), want) << "party " << i;
  }
}

TEST(MultiPartyTest, AdaptiveIdenticalPartiesHitTheFloor) {
  Rng rng(23);
  PointStore shared = GenerateUniformStore(50, 2, 1023, &rng);
  std::vector<PointStore> parties(3, shared);
  MultiPartyParams params = MakeParams(4096, 27);
  params.adaptive.enabled = true;
  auto report = RunMultiPartyUnion(parties, params);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->all_ok);
  // Zero estimated difference clamps to the floor, not to zero cells.
  EXPECT_EQ(report->used_cells, params.adaptive.floor_cells);
  EXPECT_FALSE(report->retried);
  for (const auto& final_set : report->final_sets) {
    EXPECT_EQ(final_set.size(), 50u);
  }
}

TEST(MultiPartyTest, AdaptiveUndersizeRetriesAtTheStaticCap) {
  // A crippled multiplier forces the negotiated size to the (tiny) floor,
  // which cannot absorb the ~90-element per-party decode load. The one-byte
  // retry signal must re-broadcast at the static cap and succeed — adaptive
  // may never lose a union that static sizing would have reconciled.
  auto parties = MakeParties(3, 20, 30, 7);
  PointStore want = SortedUnion(parties);
  MultiPartyParams params = MakeParams(3600, 7);
  params.adaptive.enabled = true;
  params.adaptive.cell_multiplier = 0.0001;
  auto report = RunMultiPartyUnion(parties, params);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->retried);
  EXPECT_EQ(report->used_cells, 3600u);
  ASSERT_TRUE(report->all_ok);
  for (const auto& final_set : report->final_sets) {
    EXPECT_EQ(Distinct(final_set), want);
  }
}

}  // namespace
}  // namespace rsr

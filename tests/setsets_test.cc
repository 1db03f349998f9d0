// Tests for setsets/: signatures, occurrence salting, and both
// implementations of the multiset-of-sets reconciler (Theorem E.1 interface).
#include <algorithm>
#include <map>

#include <gtest/gtest.h>

#include "setsets/reconciler.h"
#include "setsets/sethash.h"
#include "util/random.h"

namespace rsr {
namespace {

// -------------------------------------------------------------- sethash --

TEST(SetHashTest, ElementEncodingRoundTrip) {
  uint64_t word = EncodeElement(3, 17, 0xdeadbeef);
  uint32_t occ, slot, value;
  DecodeElement(word, &occ, &slot, &value);
  EXPECT_EQ(occ, 3u);
  EXPECT_EQ(slot, 17u);
  EXPECT_EQ(value, 0xdeadbeefu);
}

TEST(SetHashTest, SignatureContentSensitive) {
  SlottedSet a = {1, 2, 3};
  SlottedSet b = {1, 2, 4};
  EXPECT_EQ(SetSignature(a, 9), SetSignature(a, 9));
  EXPECT_NE(SetSignature(a, 9), SetSignature(b, 9));
  EXPECT_NE(SetSignature(a, 9), SetSignature(a, 10));
}

TEST(SetHashTest, SignatureSlotSensitive) {
  // Same multiset of values in different slots must hash differently.
  SlottedSet a = {1, 2};
  SlottedSet b = {2, 1};
  EXPECT_NE(SetSignature(a, 9), SetSignature(b, 9));
}

TEST(SetHashTest, CanonicalSaltingAlignsAcrossParties) {
  // Both parties hold two copies of the same set; the salted signatures must
  // agree as multisets (so they cancel in an IBLT).
  std::vector<SlottedSet> alice = {{5, 6}, {1, 2}, {5, 6}};
  std::vector<SlottedSet> bob = {{5, 6}, {5, 6}, {1, 2}};
  auto a = CanonicalSaltedSignatures(alice, 3, nullptr);
  auto b = CanonicalSaltedSignatures(bob, 3, nullptr);
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
}

TEST(SetHashTest, CanonicalSaltingDistinguishesCopies) {
  std::vector<SlottedSet> sets = {{7, 8}, {7, 8}};
  auto sigs = CanonicalSaltedSignatures(sets, 3, nullptr);
  EXPECT_NE(sigs[0], sigs[1]);
}

TEST(SetHashTest, OrderPermutationRecoverable) {
  std::vector<SlottedSet> sets = {{9, 9}, {1, 1}, {5, 5}};
  std::vector<size_t> order;
  CanonicalSaltedSignatures(sets, 3, &order);
  // order maps sorted position -> original index; sorted is {1,1},{5,5},{9,9}.
  EXPECT_EQ(order, (std::vector<size_t>{1, 2, 0}));
}

TEST(SetHashTest, FingerprintWidth) {
  uint32_t fp = ElementFingerprint(1, 2, 3, 8);
  EXPECT_LT(fp, 256u);
  EXPECT_EQ(fp, ElementFingerprint(1, 2, 3, 8));
  EXPECT_NE(ElementFingerprint(1, 2, 3, 16), ElementFingerprint(1, 3, 3, 16));
}

// ----------------------------------------------------------- reconciler --

std::vector<SlottedSet> RandomSets(size_t count, size_t slots, Rng* rng,
                                   uint32_t value_space = 1u << 30) {
  std::vector<SlottedSet> sets(count);
  for (auto& set : sets) {
    set.resize(slots);
    for (auto& v : set) v = static_cast<uint32_t>(rng->Below(value_space));
  }
  return sets;
}

/// Canonical multiset comparison.
bool SameMultiset(std::vector<SlottedSet> a, std::vector<SlottedSet> b) {
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  return a == b;
}

SetsReconcilerParams MakeParams(SetsReconcilerMode mode, uint64_t seed = 42) {
  SetsReconcilerParams params;
  params.mode = mode;
  params.sig_cells = 64;
  params.elem_cells = 256;
  params.seed = seed;
  return params;
}

class ReconcilerModeTest
    : public ::testing::TestWithParam<SetsReconcilerMode> {};

TEST_P(ReconcilerModeTest, IdenticalCollections) {
  Rng rng(1);
  auto sets = RandomSets(50, 8, &rng);
  auto report = ReconcileSetsOfSets(sets, sets, MakeParams(GetParam()));
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(SameMultiset(report->bob_sets, sets));
  EXPECT_EQ(report->diff_sets_bob, 0u);
  EXPECT_EQ(report->diff_sets_alice, 0u);
}

TEST_P(ReconcilerModeTest, BobHasExtras) {
  Rng rng(2);
  auto shared = RandomSets(40, 6, &rng);
  auto bob_extra = RandomSets(3, 6, &rng);
  std::vector<SlottedSet> alice = shared;
  std::vector<SlottedSet> bob = shared;
  bob.insert(bob.end(), bob_extra.begin(), bob_extra.end());
  auto report = ReconcileSetsOfSets(alice, bob, MakeParams(GetParam()));
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(SameMultiset(report->bob_sets, bob));
  EXPECT_EQ(report->diff_sets_bob, 3u);
}

TEST_P(ReconcilerModeTest, AliceHasExtras) {
  Rng rng(3);
  auto shared = RandomSets(40, 6, &rng);
  auto alice_extra = RandomSets(4, 6, &rng);
  std::vector<SlottedSet> alice = shared;
  alice.insert(alice.end(), alice_extra.begin(), alice_extra.end());
  std::vector<SlottedSet> bob = shared;
  auto report = ReconcileSetsOfSets(alice, bob, MakeParams(GetParam()));
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(SameMultiset(report->bob_sets, bob));
  EXPECT_EQ(report->diff_sets_alice, 4u);
}

TEST_P(ReconcilerModeTest, CloseSetsDifferInFewSlots) {
  // The Gap regime: most sets nearly shared, differing in 1-2 slots.
  Rng rng(4);
  auto alice = RandomSets(60, 10, &rng);
  std::vector<SlottedSet> bob = alice;
  for (size_t i = 0; i < 10; ++i) {
    bob[i][rng.Below(10)] = static_cast<uint32_t>(rng.Below(1u << 30));
  }
  auto report = ReconcileSetsOfSets(alice, bob, MakeParams(GetParam()));
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(SameMultiset(report->bob_sets, bob));
}

TEST_P(ReconcilerModeTest, MultisetDuplicatesSurvive) {
  Rng rng(5);
  auto base = RandomSets(10, 5, &rng);
  std::vector<SlottedSet> alice = base;
  std::vector<SlottedSet> bob = base;
  bob.push_back(base[0]);  // Bob holds a duplicate copy
  bob.push_back(base[0]);  // and another
  auto report = ReconcileSetsOfSets(alice, bob, MakeParams(GetParam()));
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(SameMultiset(report->bob_sets, bob));
}

TEST_P(ReconcilerModeTest, DisjointCollections) {
  Rng rng(6);
  auto alice = RandomSets(12, 6, &rng);
  auto bob = RandomSets(12, 6, &rng);
  SetsReconcilerParams params = MakeParams(GetParam());
  params.sig_cells = 128;
  params.elem_cells = 1024;
  auto report = ReconcileSetsOfSets(alice, bob, params);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(SameMultiset(report->bob_sets, bob));
}

TEST_P(ReconcilerModeTest, UndersizedSketchRetriesAndSucceeds) {
  Rng rng(7);
  auto shared = RandomSets(30, 6, &rng);
  auto extra = RandomSets(20, 6, &rng);
  std::vector<SlottedSet> alice = shared;
  std::vector<SlottedSet> bob = shared;
  bob.insert(bob.end(), extra.begin(), extra.end());
  SetsReconcilerParams params = MakeParams(GetParam());
  params.sig_cells = 8;  // deliberately too small for 20 differences
  auto report = ReconcileSetsOfSets(alice, bob, params);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(SameMultiset(report->bob_sets, bob));
  EXPECT_GE(report->sig_attempts, 2);
}

TEST_P(ReconcilerModeTest, EmptyAliceReceivesEverything) {
  Rng rng(8);
  auto bob = RandomSets(10, 4, &rng);
  SetsReconcilerParams params = MakeParams(GetParam());
  params.sig_cells = 128;
  auto report = ReconcileSetsOfSets({}, bob, params);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(SameMultiset(report->bob_sets, bob));
}

TEST_P(ReconcilerModeTest, EmptyBobYieldsEmpty) {
  Rng rng(9);
  auto alice = RandomSets(10, 4, &rng);
  auto report = ReconcileSetsOfSets(alice, {}, MakeParams(GetParam()));
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->bob_sets.empty());
}

TEST_P(ReconcilerModeTest, CommunicationScalesWithDifference) {
  Rng rng(10);
  auto shared = RandomSets(200, 8, &rng);
  auto small_extra = RandomSets(2, 8, &rng);
  auto large_extra = RandomSets(40, 8, &rng);

  std::vector<SlottedSet> bob_small = shared;
  bob_small.insert(bob_small.end(), small_extra.begin(), small_extra.end());
  std::vector<SlottedSet> bob_large = shared;
  bob_large.insert(bob_large.end(), large_extra.begin(), large_extra.end());

  SetsReconcilerParams params = MakeParams(GetParam());
  params.sig_cells = 16;
  params.elem_cells = 64;
  auto small_report = ReconcileSetsOfSets(shared, bob_small, params);
  auto large_report = ReconcileSetsOfSets(shared, bob_large, params);
  ASSERT_TRUE(small_report.ok());
  ASSERT_TRUE(large_report.ok());
  EXPECT_TRUE(SameMultiset(small_report->bob_sets, bob_small));
  EXPECT_TRUE(SameMultiset(large_report->bob_sets, bob_large));
  // 20x the difference should cost clearly more than the small case, and
  // the small case must cost far less than shipping all 200 sets.
  EXPECT_GT(large_report->comm.total_bytes(),
            small_report->comm.total_bytes());
  size_t full_transfer_bytes = 202 * 8 * 4;
  EXPECT_LT(small_report->comm.total_bytes(), full_transfer_bytes / 2);
}

INSTANTIATE_TEST_SUITE_P(Modes, ReconcilerModeTest,
                         ::testing::Values(SetsReconcilerMode::kVerbatim,
                                           SetsReconcilerMode::kFingerprint));

TEST(ReconcilerTest, FingerprintCheaperThanVerbatimForSmallEdits) {
  // The fingerprint reconciler's advantage: a set differing in one slot pays
  // ~(8 + h) fingerprint bytes plus O(1) element-IBLT cells, instead of
  // verbatim h * 4 bytes. The gap widens with h (here h = 64).
  Rng rng(11);
  auto alice = RandomSets(120, 64, &rng);
  std::vector<SlottedSet> bob = alice;
  for (size_t i = 0; i < 30; ++i) {
    bob[i][rng.Below(64)] = static_cast<uint32_t>(rng.Below(1u << 30));
  }
  auto verbatim = ReconcileSetsOfSets(
      alice, bob, MakeParams(SetsReconcilerMode::kVerbatim, 50));
  auto fingerprint = ReconcileSetsOfSets(
      alice, bob, MakeParams(SetsReconcilerMode::kFingerprint, 50));
  ASSERT_TRUE(verbatim.ok());
  ASSERT_TRUE(fingerprint.ok());
  EXPECT_TRUE(SameMultiset(verbatim->bob_sets, bob));
  EXPECT_TRUE(SameMultiset(fingerprint->bob_sets, bob));
  EXPECT_LT(fingerprint->comm.total_bytes(), verbatim->comm.total_bytes());
}

TEST(ReconcilerTest, FingerprintBitsOutsideOneToThirtyTwoRejected) {
  // Widths past 32 would shift a 32-bit fingerprint by 32 on the wire and
  // negative ones reach 1ULL << bits: both are rejected up front.
  Rng rng(13);
  auto alice = RandomSets(60, 10, &rng);
  std::vector<SlottedSet> bob = alice;
  for (size_t i = 0; i < 10; ++i) {
    bob[i][rng.Below(10)] = static_cast<uint32_t>(rng.Below(1u << 30));
  }
  for (int bits : {0, -1, 33, 64}) {
    SetsReconcilerParams params = MakeParams(SetsReconcilerMode::kFingerprint);
    params.fingerprint_bits = bits;
    auto report = ReconcileSetsOfSets(alice, bob, params);
    ASSERT_FALSE(report.ok()) << "bits = " << bits;
    EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
  }
  for (int bits : {1, 32}) {
    SetsReconcilerParams params = MakeParams(SetsReconcilerMode::kFingerprint);
    params.fingerprint_bits = bits;
    auto report = ReconcileSetsOfSets(alice, bob, params);
    ASSERT_TRUE(report.ok()) << "bits = " << bits;
    EXPECT_TRUE(SameMultiset(report->bob_sets, bob)) << "bits = " << bits;
    EXPECT_EQ(report->diff_sets_bob, 10u);
    if (bits == 32) {
      EXPECT_EQ(report->fallback_sets, 0u);
    }
  }
  // Verbatim mode sends no fingerprints, so the width does not matter.
  SetsReconcilerParams verbatim = MakeParams(SetsReconcilerMode::kVerbatim);
  verbatim.fingerprint_bits = 0;
  auto report = ReconcileSetsOfSets(alice, bob, verbatim);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(SameMultiset(report->bob_sets, bob));
}

TEST(ReconcilerTest, RejectsMismatchedSlotCounts) {
  std::vector<SlottedSet> alice = {{1, 2, 3}};
  std::vector<SlottedSet> bob = {{1, 2}};
  EXPECT_DEATH(
      { auto r = ReconcileSetsOfSets(alice, bob, MakeParams(SetsReconcilerMode::kVerbatim)); (void)r; },
      "");
}

TEST(ReconcilerTest, ReportsRoundCount) {
  Rng rng(12);
  auto sets = RandomSets(20, 4, &rng);
  auto report = ReconcileSetsOfSets(
      sets, sets, MakeParams(SetsReconcilerMode::kVerbatim));
  ASSERT_TRUE(report.ok());
  // Signature IBLT, missing-sig request, diff sets: 3 messages.
  EXPECT_EQ(report->comm.rounds(), 3);
}

}  // namespace
}  // namespace rsr

// Tests for core/adaptive.h: the strata-driven size-negotiation subsystem
// and its integration into the EMD protocol, the set-of-sets reconciler, the
// exact-IBLT baseline, the Gap protocol, and the two-way wrappers.
#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/adaptive.h"
#include "core/emd_protocol.h"
#include "core/gap_protocol.h"
#include "core/naive.h"
#include "core/twoway.h"
#include "setsets/reconciler.h"
#include "workload/generators.h"

namespace rsr {
namespace {

// ------------------------------------------------------------ unit level --

TEST(AdaptiveCellCountTest, ClampsBetweenFloorAndCap) {
  // Mid-range: ceil(cells_per_diff * estimate).
  EXPECT_EQ(AdaptiveCellCount(10, 36.0, 64, 10000), 360u);
  EXPECT_EQ(AdaptiveCellCount(3, 4.5, 1, 10000), 14u);  // ceil(13.5)
  // Tiny estimates land on the floor.
  EXPECT_EQ(AdaptiveCellCount(0, 36.0, 64, 10000), 64u);
  EXPECT_EQ(AdaptiveCellCount(1, 4.0, 64, 10000), 64u);
  // Estimates at or above the cap fall back to the static sizing.
  EXPECT_EQ(AdaptiveCellCount(1000, 36.0, 64, 10000), 10000u);
  EXPECT_EQ(AdaptiveCellCount(~uint64_t{0}, 36.0, 64, 10000), 10000u);
  // A saturated estimate with a tiny multiplier must not wrap either.
  EXPECT_EQ(AdaptiveCellCount(~uint64_t{0}, 1e-6, 64, 10000), 10000u);
  // floor > cap resolves to the cap (the cap is the hard budget).
  EXPECT_EQ(AdaptiveCellCount(1, 4.0, 500, 100), 100u);
}

TEST(AdaptiveNegotiateTest, EstimatorErrorFallsBackToCap) {
  // Different seeds make EstimateDiff return InvalidArgument; negotiation
  // must fall back to the static cap, not crash or undersize.
  AdaptiveSizingParams params;
  std::vector<uint64_t> keys(64);
  for (size_t i = 0; i < keys.size(); ++i) keys[i] = 1000 + i;
  std::vector<StrataEstimator> local =
      BuildLevelEstimators(keys, 1, keys.size(), params, /*seed=*/1, 1);
  std::vector<StrataEstimator> remote =
      BuildLevelEstimators(keys, 1, keys.size(), params, /*seed=*/2, 1);
  std::vector<size_t> cells = NegotiateLevelCells(
      local, remote, 36.0, 64, 9216, CellRounding::kExact, 3, 1);
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells[0], 9216u);
}

TEST(RoundUpToLadderTest, FloorBelowSmallestRungLandsOnOneSubtableCell) {
  // cap 192 cells at q = 3 -> 64 cells per subtable; the smallest rung is
  // one cell per subtable = q cells.
  EXPECT_EQ(RoundUpToLadder(1, 192, 3), 3u);
  EXPECT_EQ(RoundUpToLadder(3, 192, 3), 3u);
  EXPECT_EQ(RoundUpToLadder(4, 192, 3), 6u);  // ceil(4/3) = 2 divides 64
}

TEST(RoundUpToLadderTest, ExactRungsAndInBetweenValues) {
  // Divisors of 64: rungs at 3, 6, 12, 24, 48, 96, and the 192 cap.
  EXPECT_EQ(RoundUpToLadder(96, 192, 3), 96u);
  EXPECT_EQ(RoundUpToLadder(97, 192, 3), 192u);  // ceil(97/3)=33 -> cap_sub
  EXPECT_EQ(RoundUpToLadder(50, 192, 3), 96u);   // ceil(50/3)=17 -> d=32
}

TEST(RoundUpToLadderTest, EstimateAtOrAboveCapClampsToCap) {
  EXPECT_EQ(RoundUpToLadder(192, 192, 3), 192u);
  EXPECT_EQ(RoundUpToLadder(10'000'000, 192, 3), 192u);
}

TEST(RoundUpToLadderTest, CapNotMultipleOfSubtablesUsesCapItselfAsTopRung) {
  // cap 100 at q = 3 -> cap_sub = 34 (divisors 1, 2, 17, 34). Rounding to
  // the top rung must return 100 — NOT 34*3 = 102, which ReadNegotiatedCells
  // would reject as beyond the cap. (Constructing a table at 100 cells
  // rounds to 102 internally on both sides; only the wire value is capped.)
  EXPECT_EQ(RoundUpToLadder(90, 100, 3), 100u);  // ceil(90/3)=30 -> 34 = cap_sub
  EXPECT_EQ(RoundUpToLadder(10, 100, 3), 51u);   // ceil(10/3)=4 -> d=17
  EXPECT_EQ(RoundUpToLadder(5, 100, 3), 6u);     // ceil(5/3)=2 -> d=2
  // Tiny cap below q: the only rung is the cap.
  EXPECT_EQ(RoundUpToLadder(1, 2, 3), 2u);
}

TEST(RoundUpToLadderTest, EveryRungIsFoldableFromTheCap) {
  // The ladder's whole point: constructing a table at the rung equals
  // folding the cap-size table down. Check divisibility across the range.
  const size_t cap = 4 * 3 * 3 * 8;  // c q^2 k with q=3, k=8 -> 288
  const size_t cap_sub = (cap + 2) / 3;
  for (size_t cells = 1; cells <= cap; ++cells) {
    const size_t rung = RoundUpToLadder(cells, cap, 3);
    ASSERT_GE(rung, cells);
    ASSERT_LE(rung, cap);
    const size_t rung_sub = (rung + 2) / 3;
    ASSERT_EQ(cap_sub % rung_sub, 0u) << "cells = " << cells;
  }
}

TEST(AdaptiveNegotiateTest, LargeDifferenceClampsToCap) {
  AdaptiveSizingParams params;
  std::vector<uint64_t> alice_keys(2000), bob_keys(2000);
  Rng rng(7);
  for (size_t i = 0; i < 2000; ++i) {
    alice_keys[i] = rng.Next();
    bob_keys[i] = rng.Next();  // disjoint: difference ~4000
  }
  std::vector<StrataEstimator> local =
      BuildLevelEstimators(alice_keys, 1, 2000, params, 3, 1);
  std::vector<StrataEstimator> remote =
      BuildLevelEstimators(bob_keys, 1, 2000, params, 3, 1);
  std::vector<size_t> cells =
      NegotiateLevelCells(local, remote, 36.0, 64, 1152, CellRounding::kExact,
                          3, 1);
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells[0], 1152u);  // 36 * ~4000 >> cap
}

TEST(AdaptiveNegotiateTest, DeterministicAcrossThreadCounts) {
  AdaptiveSizingParams params;
  const size_t levels = 6, n = 500;
  std::vector<uint64_t> alice_keys(levels * n), bob_keys(levels * n);
  Rng rng(11);
  for (size_t i = 0; i < levels * n; ++i) {
    uint64_t k = rng.Next();
    alice_keys[i] = k;
    bob_keys[i] = (i % 97 == 0) ? rng.Next() : k;  // sparse differences
  }
  std::vector<size_t> reference;
  for (size_t threads : {1u, 3u, 8u}) {
    std::vector<StrataEstimator> local =
        BuildLevelEstimators(alice_keys, levels, n, params, 5, threads);
    std::vector<StrataEstimator> remote =
        BuildLevelEstimators(bob_keys, levels, n, params, 5, threads);
    std::vector<size_t> cells =
        NegotiateLevelCells(local, remote, 36.0, 64, 4608,
                            CellRounding::kExact, 3, threads);
    if (reference.empty()) {
      reference = cells;
    } else {
      EXPECT_EQ(cells, reference) << "threads = " << threads;
    }
  }
}

TEST(AdaptiveWireTest, EstimatorsRoundTripThroughOneMessage) {
  AdaptiveSizingParams params;
  const size_t levels = 3, n = 200;
  std::vector<uint64_t> keys(levels * n);
  Rng rng(13);
  for (auto& k : keys) k = rng.Next();
  std::vector<StrataEstimator> original =
      BuildLevelEstimators(keys, levels, n, params, 9, 1);

  ByteWriter w;
  WriteEstimators(original, &w);
  ByteReader r(w.buffer());
  auto restored = ReadEstimators(&r, params, 9, levels);
  ASSERT_TRUE(restored.ok());
  EXPECT_TRUE(r.FinishAndCheckConsumed().ok());
  ASSERT_EQ(restored->size(), levels);
  // Restored estimators compare identically against fresh local ones.
  std::vector<StrataEstimator> empties;
  for (size_t l = 0; l < levels; ++l) {
    empties.emplace_back(MakeLevelStrataParams(9, l));
  }
  for (size_t l = 0; l < levels; ++l) {
    auto a = original[l].EstimateDiff(empties[l]);
    auto b = (*restored)[l].EstimateDiff(empties[l]);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(*a, *b);
  }
}

TEST(AdaptiveWireTest, NegotiatedCellsRejectOutOfRange) {
  ByteWriter w;
  WriteNegotiatedCells({100, 20000}, &w);  // second exceeds the cap below
  ByteReader r(w.buffer());
  auto parsed = ReadNegotiatedCells(&r, 2, 9216);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kCorruption);
  EXPECT_TRUE(r.failed());  // reader poisoned for downstream parses

  ByteWriter w2;
  w2.PutVarint64(0);  // zero cells is never valid
  ByteReader r2(w2.buffer());
  EXPECT_FALSE(ReadNegotiatedCells(&r2, 1, 9216).ok());

  ByteWriter w3;
  WriteNegotiatedCells({100, 9216}, &w3);
  ByteReader r3(w3.buffer());
  auto ok = ReadNegotiatedCells(&r3, 2, 9216);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ((*ok)[0], 100u);
  EXPECT_EQ((*ok)[1], 9216u);  // cap itself is legal
}

// ----------------------------------------------------------- EMD protocol --

EmdProtocolParams AdaptiveEmdParams(size_t dim, Coord delta, size_t k,
                                    uint64_t seed) {
  EmdProtocolParams params;
  params.metric = MetricKind::kL2;
  params.dim = dim;
  params.delta = delta;
  params.k = k;
  params.seed = seed;
  return params;
}

Result<NoisyPairStoreWorkload> SmallDiffWorkload(size_t n, size_t outliers,
                                                 uint64_t seed) {
  NoisyPairConfig config;
  config.metric = MetricKind::kL2;
  config.dim = 3;
  config.delta = 1023;
  config.n = n;
  config.outliers = outliers;
  config.noise = 0.0;  // exact shared ground truth: only outliers differ
  config.outlier_dist = 100;
  config.seed = seed;
  return GenerateNoisyPairStore(config);
}

TEST(EmdAdaptiveTest, OffPathIsByteIdenticalAndSingleRound) {
  auto workload = SmallDiffWorkload(128, 1, 501);
  ASSERT_TRUE(workload.ok());
  EmdProtocolParams params = AdaptiveEmdParams(3, 1023, 16, 71);
  params.d1 = 8;
  params.d2 = 512;
  auto off = RunEmdProtocol(workload->alice, workload->bob, params);
  ASSERT_TRUE(off.ok());
  EXPECT_EQ(off->comm.rounds(), 1);

  // Changing every other adaptive knob while leaving enabled == false must
  // not perturb the static transcript.
  EmdProtocolParams tweaked = params;
  tweaked.adaptive.cell_multiplier = 99.0;
  tweaked.adaptive.floor_cells = 1;
  auto off2 = RunEmdProtocol(workload->alice, workload->bob, tweaked);
  ASSERT_TRUE(off2.ok());
  EXPECT_EQ(off->comm.total_bytes(), off2->comm.total_bytes());
  EXPECT_EQ(off->s_b_prime, off2->s_b_prime);
  for (size_t cells : off->level_cells) {
    EXPECT_EQ(cells, off->derived.cells);
  }
}

TEST(EmdAdaptiveTest, SmallDiffSendsFewerBytesAndStillReconciles) {
  auto workload = SmallDiffWorkload(256, 1, 502);
  ASSERT_TRUE(workload.ok());
  EmdProtocolParams params = AdaptiveEmdParams(3, 1023, 32, 72);
  params.d1 = 8;
  params.d2 = 512;
  auto statik = RunEmdProtocol(workload->alice, workload->bob, params);
  ASSERT_TRUE(statik.ok());
  ASSERT_FALSE(statik->failure);

  params.adaptive.enabled = true;
  auto adaptive = RunEmdProtocol(workload->alice, workload->bob, params);
  ASSERT_TRUE(adaptive.ok());
  ASSERT_FALSE(adaptive->failure);
  EXPECT_EQ(adaptive->comm.rounds(), 2);  // negotiation + sketches
  EXPECT_LT(adaptive->comm.total_bytes(), statik->comm.total_bytes());
  EXPECT_EQ(adaptive->s_b_prime.size(), workload->alice.size());
  // Every negotiated level is clamped by the static sizing.
  for (size_t cells : adaptive->level_cells) {
    EXPECT_GE(cells, 1u);
    EXPECT_LE(cells, adaptive->derived.cells);
  }
  // A 2-point difference must shrink at least one level well below the cap.
  EXPECT_LT(*std::min_element(adaptive->level_cells.begin(),
                              adaptive->level_cells.end()),
            adaptive->derived.cells / 2);
}

TEST(EmdAdaptiveTest, LadderRoundingLandsOnRungsAndStillReconciles) {
  auto workload = SmallDiffWorkload(256, 1, 504);
  ASSERT_TRUE(workload.ok());
  EmdProtocolParams params = AdaptiveEmdParams(3, 1023, 32, 75);
  params.d1 = 8;
  params.d2 = 512;
  params.adaptive.enabled = true;
  auto exact = RunEmdProtocol(workload->alice, workload->bob, params);
  ASSERT_TRUE(exact.ok());
  ASSERT_FALSE(exact->failure);

  params.adaptive.rounding = CellRounding::kDivisorLadder;
  auto ladder = RunEmdProtocol(workload->alice, workload->bob, params);
  ASSERT_TRUE(ladder.ok());
  ASSERT_FALSE(ladder->failure);
  EXPECT_EQ(ladder->comm.rounds(), 2);
  EXPECT_EQ(ladder->s_b_prime.size(), workload->alice.size());

  // Every negotiated size is on the cap's divisor ladder (a fixed point of
  // RoundUpToLadder) and dominates the exact-mode size for its level —
  // rounding only ever rounds UP, never below the estimate.
  const size_t cap = ladder->derived.cells;
  ASSERT_EQ(ladder->level_cells.size(), exact->level_cells.size());
  for (size_t l = 0; l < ladder->level_cells.size(); ++l) {
    const size_t cells = ladder->level_cells[l];
    EXPECT_EQ(cells, RoundUpToLadder(cells, cap, params.num_hashes));
    EXPECT_GE(cells, exact->level_cells[l]);
    EXPECT_LE(cells, cap);
  }
  // The ladder is dense enough that a small difference still shrinks levels
  // far below the cap.
  EXPECT_LT(*std::min_element(ladder->level_cells.begin(),
                              ladder->level_cells.end()),
            cap / 2);
}

TEST(EmdAdaptiveTest, PrebuiltAdaptiveRequiresLadderAndEstimators) {
  auto workload = SmallDiffWorkload(128, 1, 505);
  ASSERT_TRUE(workload.ok());
  EmdProtocolParams params = AdaptiveEmdParams(3, 1023, 16, 76);
  params.d1 = 8;
  params.d2 = 512;
  params.adaptive.enabled = true;

  // Exact rounding cannot be served from a prebuilt cap-size set.
  auto set_exact = BuildEmdSketches(workload->alice, params,
                                    /*build_estimators=*/true);
  ASSERT_TRUE(set_exact.ok());
  EXPECT_FALSE(RunEmdProtocolPrebuilt(*set_exact, workload->bob, params).ok());

  // Ladder rounding without estimators cannot negotiate.
  params.adaptive.rounding = CellRounding::kDivisorLadder;
  auto set_blind = BuildEmdSketches(workload->alice, params,
                                    /*build_estimators=*/false);
  ASSERT_TRUE(set_blind.ok());
  EXPECT_FALSE(RunEmdProtocolPrebuilt(*set_blind, workload->bob, params).ok());

  // Ladder + estimators: byte-identical to the cold adaptive protocol.
  auto set = BuildEmdSketches(workload->alice, params,
                              /*build_estimators=*/true);
  ASSERT_TRUE(set.ok());
  auto warm = RunEmdProtocolPrebuilt(*set, workload->bob, params);
  auto cold = RunEmdProtocol(workload->alice, workload->bob, params);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(warm->level_cells, cold->level_cells);
  EXPECT_EQ(warm->comm.total_bits(), cold->comm.total_bits());
  EXPECT_EQ(warm->s_b_prime, cold->s_b_prime);
}

TEST(EmdAdaptiveTest, TranscriptDeterministicAcrossThreadCounts) {
  auto workload = SmallDiffWorkload(192, 2, 503);
  ASSERT_TRUE(workload.ok());
  EmdProtocolParams params = AdaptiveEmdParams(3, 1023, 16, 73);
  params.d1 = 8;
  params.d2 = 512;
  params.adaptive.enabled = true;

  params.num_threads = 1;
  auto one = RunEmdProtocol(workload->alice, workload->bob, params);
  ASSERT_TRUE(one.ok());
  params.num_threads = 8;
  auto eight = RunEmdProtocol(workload->alice, workload->bob, params);
  ASSERT_TRUE(eight.ok());

  EXPECT_EQ(one->level_cells, eight->level_cells);
  ASSERT_EQ(one->comm.messages.size(), eight->comm.messages.size());
  for (size_t m = 0; m < one->comm.messages.size(); ++m) {
    EXPECT_EQ(one->comm.messages[m].label, eight->comm.messages[m].label);
    EXPECT_EQ(one->comm.messages[m].bytes, eight->comm.messages[m].bytes);
  }
  EXPECT_EQ(one->failure, eight->failure);
  if (!one->failure) {
    EXPECT_EQ(one->s_b_prime, eight->s_b_prime);
  }
}

TEST(EmdAdaptiveTest, IdenticalSetsNegotiateFloorSizedLevels) {
  Rng rng(21);
  PointStore pts = GenerateUniformStore(96, 3, 255, &rng);
  EmdProtocolParams params = AdaptiveEmdParams(3, 255, 16, 74);
  params.d1 = 4;
  params.d2 = 64;
  params.adaptive.enabled = true;
  auto report = RunEmdProtocol(pts, pts, params);
  ASSERT_TRUE(report.ok());
  ASSERT_FALSE(report->failure);
  EXPECT_EQ(report->s_b_prime.size(), pts.size());
  // Zero difference: every level should sit at (or very near) the floor.
  for (size_t cells : report->level_cells) {
    EXPECT_LE(cells, params.adaptive.floor_cells * 2);
  }
}

// ------------------------------------------------------------ reconciler --

std::vector<SlottedSet> MakeSets(size_t count, size_t slots, uint64_t seed) {
  Rng rng(seed);
  std::vector<SlottedSet> sets(count);
  for (auto& set : sets) {
    set.resize(slots);
    for (auto& v : set) v = static_cast<uint32_t>(rng.Next());
  }
  return sets;
}

TEST(ReconcilerAdaptiveTest, NegotiatesSmallerSketchAndStillRecovers) {
  std::vector<SlottedSet> alice = MakeSets(60, 4, 31);
  std::vector<SlottedSet> bob = alice;
  bob[5][2] ^= 0xdead;  // two differing sets
  bob.push_back(MakeSets(1, 4, 32)[0]);

  SetsReconcilerParams params;
  params.mode = SetsReconcilerMode::kVerbatim;
  params.sig_cells = 8192;  // wildly oversized static cap
  params.seed = 99;
  auto statik = ReconcileSetsOfSets(alice, bob, params);
  ASSERT_TRUE(statik.ok());

  params.adaptive.enabled = true;
  auto adaptive = ReconcileSetsOfSets(alice, bob, params);
  ASSERT_TRUE(adaptive.ok());

  auto canonical = [](std::vector<SlottedSet> sets) {
    std::sort(sets.begin(), sets.end());
    return sets;
  };
  EXPECT_EQ(canonical(adaptive->bob_sets), canonical(bob));
  EXPECT_EQ(canonical(adaptive->bob_sets), canonical(statik->bob_sets));
  EXPECT_LT(adaptive->comm.total_bytes(), statik->comm.total_bytes());
  // One extra round: the receiver-side estimator; the negotiated size rides
  // as a prefix on the first sig-IBLT, not as a message of its own.
  EXPECT_EQ(adaptive->comm.rounds(), statik->comm.rounds() + 1);
  ASSERT_GE(adaptive->comm.messages.size(), 2u);
  EXPECT_EQ(adaptive->comm.messages[0].label, "A->B sig-strata");
  EXPECT_EQ(adaptive->comm.messages[1].label, "B->A sig-iblt");
}

TEST(ReconcilerAdaptiveTest, UndersizedNegotiationStillCorrectViaRetries) {
  // Force a pathologically low floor and a tiny multiplier so the negotiated
  // sketch is too small; the doubling retries must still converge.
  std::vector<SlottedSet> alice = MakeSets(40, 4, 41);
  std::vector<SlottedSet> bob = MakeSets(40, 4, 42);  // all 80 sets differ

  SetsReconcilerParams params;
  params.mode = SetsReconcilerMode::kVerbatim;
  params.sig_cells = 4096;
  params.seed = 77;
  params.adaptive.enabled = true;
  params.adaptive.cell_multiplier = 0.05;  // deliberate under-provisioning
  params.adaptive.floor_cells = 8;
  auto report = ReconcileSetsOfSets(alice, bob, params);
  ASSERT_TRUE(report.ok());
  auto canonical = [](std::vector<SlottedSet> sets) {
    std::sort(sets.begin(), sets.end());
    return sets;
  };
  EXPECT_EQ(canonical(report->bob_sets), canonical(bob));
  // The ladder must escalate past max_attempts rather than degrade to a full
  // transfer the static path would not have needed: starting from ~8 cells,
  // 4 doublings only reach 64 — below the ~104 cells this difference needs.
  EXPECT_FALSE(report->full_transfer);
  EXPECT_GT(report->sig_attempts, params.max_attempts);
}

TEST(ExactIbltAdaptiveTest, UndersizedNegotiationRetriesAtStaticCap) {
  // A deliberately low estimate must cost one extra exchange, not a
  // reconciliation the static parameters would have completed.
  Rng rng(52);
  PointStore alice = GenerateUniformStore(200, 3, 1023, &rng);
  PointStore bob = GenerateUniformStore(1, 3, 1023, &rng);

  ExactReconParams params;
  params.dim = 3;
  params.delta = 1023;
  params.num_cells = 1024;
  params.seed = 62;
  params.adaptive.enabled = true;
  params.adaptive.cell_multiplier = 0.05;  // ~10 cells for a ~201-key diff
  params.adaptive.floor_cells = 8;
  auto report = RunExactIbltReconciliation(alice, bob, params);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->failure);
  EXPECT_EQ(report->diff_size, 201u);
  // estimator, undersized IBLT, resize request, full-size IBLT.
  EXPECT_EQ(report->comm.rounds(), 4);
}

TEST(ReconcilerAdaptiveTest, ZeroMaxAttemptsStillMeansNoSigPhase) {
  // max_attempts = 0 historically skipped the signature phase entirely and
  // went straight to the full-transfer fallback; the extended ladder must
  // preserve that (and not shift by a negative amount), with and without
  // adaptive negotiation.
  std::vector<SlottedSet> alice = MakeSets(10, 4, 43);
  std::vector<SlottedSet> bob = MakeSets(10, 4, 44);
  SetsReconcilerParams params;
  params.mode = SetsReconcilerMode::kVerbatim;
  params.sig_cells = 64;
  params.max_attempts = 0;
  params.seed = 7;
  auto canonical = [](std::vector<SlottedSet> sets) {
    std::sort(sets.begin(), sets.end());
    return sets;
  };
  for (bool adaptive : {false, true}) {
    params.adaptive.enabled = adaptive;
    auto report = ReconcileSetsOfSets(alice, bob, params);
    ASSERT_TRUE(report.ok()) << "adaptive = " << adaptive;
    EXPECT_TRUE(report->full_transfer);
    EXPECT_EQ(canonical(report->bob_sets), canonical(bob));
  }
}

// ------------------------------------------------------------- exact IBLT --

TEST(ExactIbltAdaptiveTest, ShrinksSketchForSmallDifference) {
  Rng rng(51);
  PointStore alice = GenerateUniformStore(300, 3, 1023, &rng);
  PointStore bob = alice;
  PointStore extra = GenerateUniformStore(2, 3, 1023, &rng);
  bob.AppendStore(extra);

  ExactReconParams params;
  params.dim = 3;
  params.delta = 1023;
  params.num_cells = 4096;  // oversized static guess
  params.seed = 61;
  auto statik = RunExactIbltReconciliation(alice, bob, params);
  ASSERT_TRUE(statik.ok());
  ASSERT_FALSE(statik->failure);

  params.adaptive.enabled = true;
  auto adaptive = RunExactIbltReconciliation(alice, bob, params);
  ASSERT_TRUE(adaptive.ok());
  ASSERT_FALSE(adaptive->failure);
  EXPECT_EQ(adaptive->diff_size, statik->diff_size);
  EXPECT_EQ(adaptive->comm.rounds(), 2);
  EXPECT_LT(adaptive->comm.total_bytes(), statik->comm.total_bytes());
  // On success the output is S_A exactly (as a multiset).
  PointStore expect = alice;
  expect.SortLex();
  PointStore got_static = statik->s_b_prime;
  got_static.SortLex();
  PointStore got_adaptive = adaptive->s_b_prime;
  got_adaptive.SortLex();
  EXPECT_EQ(got_adaptive, expect);
  EXPECT_EQ(got_adaptive, got_static);
}

// ------------------------------------------------------- gap + two-way --

TEST(GapAdaptiveTest, AdaptiveReconcilerPreservesTheGuarantee) {
  NoisyPairConfig config;
  config.metric = MetricKind::kHamming;
  config.dim = 128;
  config.delta = 1;
  config.n = 48;
  config.outliers = 2;
  config.noise = 1.0;
  config.outlier_dist = 24;
  config.seed = 81;
  auto workload = GenerateNoisyPairStore(config);
  ASSERT_TRUE(workload.ok());

  GapProtocolParams params;
  params.metric = MetricKind::kHamming;
  params.dim = 128;
  params.delta = 1;
  params.r1 = 2;
  params.r2 = 24;
  params.k = 2;
  params.seed = 91;
  auto statik = RunGapProtocol(workload->alice, workload->bob, params);
  ASSERT_TRUE(statik.ok());

  params.reconciler.adaptive.enabled = true;
  auto adaptive = RunGapProtocol(workload->alice, workload->bob, params);
  ASSERT_TRUE(adaptive.ok());
  // Identical far detection: the negotiation only resizes the sig sketch.
  EXPECT_EQ(adaptive->far_keys, statik->far_keys);
  EXPECT_EQ(adaptive->transmitted.size(), statik->transmitted.size());
  bool saw_strata = false;
  for (const auto& msg : adaptive->comm.messages) {
    if (msg.label == "A->B sig-strata") saw_strata = true;
  }
  EXPECT_TRUE(saw_strata);
}

TEST(TwoWayAdaptiveTest, BothDirectionsNegotiateAndAccount) {
  auto workload = SmallDiffWorkload(96, 1, 504);
  ASSERT_TRUE(workload.ok());
  MultiscaleEmdParams params;
  params.base = AdaptiveEmdParams(3, 1023, 8, 75);
  params.base.d1 = 32;
  params.base.d2 = 512;
  params.base.adaptive.enabled = true;
  params.interval_ratio = 4.0;
  auto report = RunTwoWayEmdProtocol(workload->alice, workload->bob, params);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->comm.total_bytes(), report->a_to_b.comm.total_bytes() +
                                            report->b_to_a.comm.total_bytes());
  // Each interval of each direction carries its negotiation round: twice the
  // messages of the static path.
  EXPECT_EQ(report->comm.rounds(),
            2 * (report->a_to_b.intervals.size() +
                 report->b_to_a.intervals.size()));
}

}  // namespace
}  // namespace rsr

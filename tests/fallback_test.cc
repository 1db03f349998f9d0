// Failure-injection tests: every degraded path must stay correct.
//
// The reconciler's contract (setsets/reconciler.h) is unconditional
// correctness — retries, per-set verbatim fallback, and full-transfer
// degradation only trade communication. These tests force each path and
// verify the recovered multiset is still exact.
#include <algorithm>

#include <gtest/gtest.h>

#include "core/gap_protocol.h"
#include "setsets/reconciler.h"
#include "util/random.h"
#include "workload/generators.h"

namespace rsr {
namespace {

std::vector<SlottedSet> RandomSets(size_t count, size_t slots, Rng* rng) {
  std::vector<SlottedSet> sets(count);
  for (auto& set : sets) {
    set.resize(slots);
    for (auto& v : set) v = static_cast<uint32_t>(rng->Below(1u << 30));
  }
  return sets;
}

bool SameMultiset(std::vector<SlottedSet> a, std::vector<SlottedSet> b) {
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  return a == b;
}

TEST(FallbackTest, FullTransferWhenSigSketchCannotDecode) {
  // max_attempts = 1 with a far-undersized signature IBLT: the protocol must
  // degrade to full transfer and still hand Alice the exact multiset.
  Rng rng(1);
  auto alice = RandomSets(10, 6, &rng);
  auto bob = RandomSets(40, 6, &rng);  // 50 differing sets
  SetsReconcilerParams params;
  params.mode = SetsReconcilerMode::kFingerprint;
  params.sig_cells = 8;
  params.elem_cells = 64;
  params.max_attempts = 1;
  params.seed = 2;
  auto report = ReconcileSetsOfSets(alice, bob, params);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->full_transfer);
  EXPECT_TRUE(SameMultiset(report->bob_sets, bob));
}

TEST(FallbackTest, OneBitFingerprintsForceFallbackYetStayCorrect) {
  // 1-bit fingerprints make nearly every candidate ambiguous; the DFS either
  // resolves via the 64-bit signature or the set is fetched verbatim. Either
  // way the output must be exact.
  Rng rng(3);
  auto alice = RandomSets(40, 24, &rng);
  std::vector<SlottedSet> bob = alice;
  for (size_t i = 0; i < 12; ++i) {
    for (int edits = 0; edits < 3; ++edits) {
      bob[i][rng.Below(24)] = static_cast<uint32_t>(rng.Below(1u << 30));
    }
  }
  SetsReconcilerParams params;
  params.mode = SetsReconcilerMode::kFingerprint;
  params.sig_cells = 128;
  params.elem_cells = 512;
  params.fingerprint_bits = 1;
  params.dfs_budget = 200;  // force early DFS abandonment
  params.seed = 4;
  auto report = ReconcileSetsOfSets(alice, bob, params);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(SameMultiset(report->bob_sets, bob));
}

TEST(FallbackTest, ZeroDfsBudgetFallsBackForEverySet) {
  Rng rng(5);
  auto alice = RandomSets(20, 8, &rng);
  std::vector<SlottedSet> bob = alice;
  for (size_t i = 0; i < 5; ++i) {
    bob[i][rng.Below(8)] = static_cast<uint32_t>(rng.Below(1u << 30));
  }
  SetsReconcilerParams params;
  params.mode = SetsReconcilerMode::kFingerprint;
  params.sig_cells = 64;
  params.elem_cells = 256;
  params.dfs_budget = 0;
  params.seed = 6;
  auto report = ReconcileSetsOfSets(alice, bob, params);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->fallback_sets, report->diff_sets_bob);
  EXPECT_TRUE(SameMultiset(report->bob_sets, bob));
}

TEST(FallbackTest, ElementSketchRetriesThenSucceeds) {
  Rng rng(7);
  auto alice = RandomSets(60, 16, &rng);
  std::vector<SlottedSet> bob = alice;
  for (size_t i = 0; i < 30; ++i) {
    for (int edits = 0; edits < 4; ++edits) {
      bob[i][rng.Below(16)] = static_cast<uint32_t>(rng.Below(1u << 30));
    }
  }
  SetsReconcilerParams params;
  params.mode = SetsReconcilerMode::kFingerprint;
  params.sig_cells = 256;
  params.elem_cells = 16;  // ~240 differing elements cannot fit
  params.seed = 8;
  auto report = ReconcileSetsOfSets(alice, bob, params);
  ASSERT_TRUE(report.ok());
  EXPECT_GE(report->elem_attempts, 2);
  EXPECT_TRUE(SameMultiset(report->bob_sets, bob));
}

TEST(FallbackTest, GapProtocolSurvivesTinySketchHints) {
  // End-to-end: a user-misconfigured reconciler (absurdly small initial
  // sketches) must still yield a correct Gap outcome, just more rounds.
  NoisyPairConfig config;
  config.metric = MetricKind::kHamming;
  config.dim = 128;
  config.delta = 1;
  config.n = 32;
  config.outliers = 1;
  config.noise = 1;
  config.outlier_dist = 48;
  config.seed = 9;
  auto workload = GenerateNoisyPairStore(config);
  ASSERT_TRUE(workload.ok());

  GapProtocolParams params;
  params.metric = MetricKind::kHamming;
  params.dim = 128;
  params.delta = 1;
  params.r1 = 2;
  params.r2 = 40;
  params.k = 1;
  params.reconciler.sig_cells = 8;
  params.reconciler.elem_cells = 8;
  params.seed = 10;
  auto report = RunGapProtocol(workload->alice, workload->bob, params);
  ASSERT_TRUE(report.ok());
  Metric metric(MetricKind::kHamming);
  for (size_t i = 0; i < workload->alice.size(); ++i) {
    double best = 1e300;
    for (size_t j = 0; j < report->s_b_prime.size(); ++j) {
      best = std::min(best, metric.Distance(workload->alice[i],
                                            report->s_b_prime[j]));
    }
    EXPECT_LE(best, 40.0);
  }
  EXPECT_GT(report->comm.rounds(), 4);  // retries cost rounds, not safety
}

TEST(FallbackTest, RetryCountsSurfaceInReport) {
  Rng rng(11);
  auto shared = RandomSets(30, 6, &rng);
  auto extra = RandomSets(25, 6, &rng);
  std::vector<SlottedSet> bob = shared;
  bob.insert(bob.end(), extra.begin(), extra.end());
  SetsReconcilerParams params;
  params.mode = SetsReconcilerMode::kVerbatim;
  params.sig_cells = 8;
  params.seed = 12;
  auto report = ReconcileSetsOfSets(shared, bob, params);
  ASSERT_TRUE(report.ok());
  EXPECT_GE(report->sig_attempts, 2);
  EXPECT_TRUE(SameMultiset(report->bob_sets, bob));
}

}  // namespace
}  // namespace rsr

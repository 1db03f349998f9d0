// Tests for the comparison baselines: quadtree+IBLT ([7]), naive transfer,
// exact IBLT reconciliation, and the Theorem 4.6 lower-bound machinery.
#include <algorithm>

#include <gtest/gtest.h>

#include "core/gap_protocol.h"
#include "core/lower_bound.h"
#include "core/naive.h"
#include "core/quadtree_baseline.h"
#include "emd/emd.h"
#include "workload/generators.h"

namespace rsr {
namespace {

// ------------------------------------------------------------- quadtree --

QuadtreeEmdParams QtParams(size_t dim, Coord delta, size_t k, uint64_t seed) {
  QuadtreeEmdParams params;
  params.dim = dim;
  params.delta = delta;
  params.k = k;
  params.seed = seed;
  return params;
}

TEST(QuadtreeTest, IdenticalSetsDecodeAtFinestLevel) {
  Rng rng(1);
  PointStore pts = GenerateUniformStore(32, 2, 255, &rng);
  auto report = RunQuadtreeEmdProtocol(pts, pts, QtParams(2, 255, 2, 5));
  ASSERT_TRUE(report.ok());
  ASSERT_FALSE(report->failure);
  EXPECT_EQ(report->decoded_level, 0u);
  EXPECT_EQ(EmdExact(pts, report->s_b_prime, Metric(MetricKind::kL1)), 0.0);
}

TEST(QuadtreeTest, RepairsOutlierDifferences) {
  NoisyPairConfig config;
  config.metric = MetricKind::kL1;
  config.dim = 2;
  config.delta = 255;
  config.n = 32;
  config.outliers = 2;
  config.noise = 0;
  config.outlier_dist = 60;
  config.seed = 21;
  auto workload = GenerateNoisyPairStore(config);
  ASSERT_TRUE(workload.ok());
  auto report = RunQuadtreeEmdProtocol(workload->alice, workload->bob,
                                       QtParams(2, 255, 2, 9));
  ASSERT_TRUE(report.ok());
  ASSERT_FALSE(report->failure);
  Metric metric(MetricKind::kL1);
  double before = EmdExact(workload->alice, workload->bob, metric);
  double after = EmdExact(workload->alice, report->s_b_prime, metric);
  EXPECT_LT(after, before);
  EXPECT_EQ(report->s_b_prime.size(), workload->alice.size());
}

TEST(QuadtreeTest, RoundingErrorGrowsWithDimension) {
  // The O(d) approximation: with per-point noise, the quadtree must go to a
  // coarse level whose cell diameter scales with d. Verify the repaired EMD
  // grows with dimension while the workload's EMD_k stays comparable.
  double low_d_after = 0, high_d_after = 0;
  for (int pass = 0; pass < 2; ++pass) {
    size_t dim = pass == 0 ? 2 : 8;
    double total_after = 0;
    int successes = 0;
    for (int trial = 0; trial < 5; ++trial) {
      NoisyPairConfig config;
      config.metric = MetricKind::kL1;
      config.dim = dim;
      config.delta = 2047;  // room for the outlier-separation rejection
      config.n = 32;
      config.outliers = 1;
      config.noise = 2;
      config.outlier_dist = 120;
      config.seed = static_cast<uint64_t>(100 * pass + trial);
      auto workload = GenerateNoisyPairStore(config);
      ASSERT_TRUE(workload.ok());
      auto report = RunQuadtreeEmdProtocol(workload->alice, workload->bob,
                                           QtParams(dim, 2047, 1, static_cast<uint64_t>(7 + trial)));
      ASSERT_TRUE(report.ok());
      if (report->failure) continue;
      total_after += EmdExact(workload->alice, report->s_b_prime,
                              Metric(MetricKind::kL1));
      ++successes;
    }
    ASSERT_GT(successes, 0);
    if (pass == 0) {
      low_d_after = total_after / successes;
    } else {
      high_d_after = total_after / successes;
    }
  }
  EXPECT_GT(high_d_after, low_d_after);
}

TEST(QuadtreeTest, FailureWhenBudgetFarTooSmall) {
  Rng rng(2);
  PointStore a = GenerateUniformStore(64, 2, 255, &rng);
  PointStore b = GenerateUniformStore(64, 2, 255, &rng);
  QuadtreeEmdParams params = QtParams(2, 255, 1, 3);
  params.cell_multiplier = 4.0;  // tiny IBLTs, 64 random diffs
  auto report = RunQuadtreeEmdProtocol(a, b, params);
  ASSERT_TRUE(report.ok());
  // Coarsest level has one cell per point mass; usually decodes, but a
  // failure is also acceptable — just require a sane report either way.
  if (!report->failure) {
    EXPECT_EQ(report->s_b_prime.size(), a.size());
  }
}

// ---------------------------------------------------------------- naive --

TEST(NaiveTest, ReplaceModeYieldsAliceExactly) {
  Rng rng(3);
  PointStore a = GenerateUniformStore(16, 3, 63, &rng);
  PointStore b = GenerateUniformStore(16, 3, 63, &rng);
  NaiveReport report = RunNaiveFullTransfer(a, b, /*union_mode=*/false);
  EXPECT_EQ(report.s_b_prime, a);
  EXPECT_EQ(report.comm.rounds(), 1);
  EXPECT_GT(report.comm.total_bytes(), 16u * 3u);
}

TEST(NaiveTest, UnionModeKeepsBob) {
  Rng rng(4);
  PointStore a = GenerateUniformStore(4, 2, 15, &rng);
  PointStore b = GenerateUniformStore(5, 2, 15, &rng);
  NaiveReport report = RunNaiveFullTransfer(a, b, /*union_mode=*/true);
  EXPECT_EQ(report.s_b_prime.size(), 9u);
}

TEST(NaiveTest, EmptySideTakesTheOtherSidesDimension) {
  // Either side may be empty, as a dimensionless PointStore() or as a
  // PointStore(d); the result carries the dimension of the other side.
  Rng rng(12);
  const PointStore points = GenerateUniformStore(7, 3, 63, &rng);
  for (const PointStore& empty : {PointStore(), PointStore(3)}) {
    for (bool union_mode : {false, true}) {
      NaiveReport to_empty_bob =
          RunNaiveFullTransfer(points, empty, union_mode);
      EXPECT_EQ(to_empty_bob.s_b_prime.dim(), 3u);
      EXPECT_EQ(to_empty_bob.s_b_prime, points);

      NaiveReport from_empty_alice =
          RunNaiveFullTransfer(empty, points, union_mode);
      EXPECT_EQ(from_empty_alice.s_b_prime.dim(), 3u);
      if (union_mode) {
        EXPECT_EQ(from_empty_alice.s_b_prime, points);  // Bob kept
      } else {
        EXPECT_TRUE(from_empty_alice.s_b_prime.empty());  // replaced by {}
      }
    }
  }
  // Two dimensionless empty sides leave an empty, dimensionless result.
  NaiveReport nothing = RunNaiveFullTransfer(PointStore(), PointStore(), true);
  EXPECT_TRUE(nothing.s_b_prime.empty());
  EXPECT_EQ(nothing.s_b_prime.dim(), 0u);
}

// ------------------------------------------------------------ exact IBLT --

TEST(ExactReconTest, RecoversExactDifferences) {
  Rng rng(5);
  PointStore shared = GenerateUniformStore(60, 2, 255, &rng);
  PointStore alice = shared, bob = shared;
  alice.AppendStore(GenerateUniformStore(3, 2, 255, &rng));
  bob.AppendStore(GenerateUniformStore(3, 2, 255, &rng));

  ExactReconParams params;
  params.dim = 2;
  params.delta = 255;
  params.num_cells = 32;
  params.seed = 6;
  auto report = RunExactIbltReconciliation(alice, bob, params);
  ASSERT_TRUE(report.ok());
  ASSERT_FALSE(report->failure);
  EXPECT_EQ(report->diff_size, 6u);
  PointStore got = report->s_b_prime;
  PointStore want = alice;
  got.SortLex();
  want.SortLex();
  EXPECT_EQ(got, want);
}

TEST(ExactReconTest, NoisyPointsAllCountAsDifferences) {
  // The motivation for robust reconciliation: per-point noise makes exact
  // reconciliation pay for everything.
  NoisyPairConfig config;
  config.metric = MetricKind::kL1;
  config.dim = 2;
  config.delta = 255;
  config.n = 40;
  config.outliers = 0;
  config.noise = 2;  // every point slightly different
  config.seed = 7;
  auto workload = GenerateNoisyPairStore(config);
  ASSERT_TRUE(workload.ok());
  ExactReconParams params;
  params.dim = 2;
  params.delta = 255;
  params.num_cells = 256;
  params.seed = 8;
  auto report =
      RunExactIbltReconciliation(workload->alice, workload->bob, params);
  ASSERT_TRUE(report.ok());
  if (!report->failure) {
    EXPECT_GT(report->diff_size, 40u);  // nearly all 80 differ
  }
}

TEST(ExactReconTest, UndersizedTableReportsFailure) {
  Rng rng(9);
  PointStore a = GenerateUniformStore(50, 2, 255, &rng);
  PointStore b = GenerateUniformStore(50, 2, 255, &rng);
  ExactReconParams params;
  params.dim = 2;
  params.delta = 255;
  params.num_cells = 16;  // 100 differences cannot fit
  params.seed = 10;
  auto report = RunExactIbltReconciliation(a, b, params);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->failure);
}

TEST(ExactReconTest, DuplicatePointsHandledViaSalting) {
  PointStore alice(2);
  alice.Append(Point({1, 1}));
  alice.Append(Point({1, 1}));
  alice.Append(Point({2, 2}));
  PointStore bob(2);
  bob.Append(Point({1, 1}));
  ExactReconParams params;
  params.dim = 2;
  params.delta = 10;
  params.num_cells = 32;
  params.seed = 11;
  auto report = RunExactIbltReconciliation(alice, bob, params);
  ASSERT_TRUE(report.ok());
  ASSERT_FALSE(report->failure);
  PointStore got = report->s_b_prime;
  got.SortLex();
  PointStore want = alice;
  want.SortLex();
  EXPECT_EQ(got, want);
}

TEST(ExactReconTest, EmptySideKeepsTheParamsDimension) {
  // S'_B is built with params.dim even when an input is a dimensionless
  // PointStore(): an empty Bob receives all of Alice, an empty Alice leaves
  // Bob with nothing.
  Rng rng(13);
  const PointStore points = GenerateUniformStore(9, 2, 255, &rng);
  PointStore sorted = points;
  sorted.SortLex();
  ExactReconParams params;
  params.dim = 2;
  params.delta = 255;
  params.num_cells = 32;
  params.seed = 14;
  for (const PointStore& empty : {PointStore(), PointStore(2)}) {
    auto to_empty_bob = RunExactIbltReconciliation(points, empty, params);
    ASSERT_TRUE(to_empty_bob.ok()) << to_empty_bob.status().ToString();
    ASSERT_FALSE(to_empty_bob->failure);
    EXPECT_EQ(to_empty_bob->diff_size, 9u);
    EXPECT_EQ(to_empty_bob->s_b_prime.dim(), 2u);
    PointStore got = to_empty_bob->s_b_prime;
    got.SortLex();
    EXPECT_EQ(got, sorted);

    auto from_empty_alice = RunExactIbltReconciliation(empty, points, params);
    ASSERT_TRUE(from_empty_alice.ok())
        << from_empty_alice.status().ToString();
    ASSERT_FALSE(from_empty_alice->failure);
    EXPECT_EQ(from_empty_alice->diff_size, 9u);
    EXPECT_EQ(from_empty_alice->s_b_prime.dim(), 2u);
    EXPECT_TRUE(from_empty_alice->s_b_prime.empty());
  }
}

// ------------------------------------------------------- lower bound F --

TEST(LowerBoundTest, SeparatedCodeRespectsDistance) {
  Rng rng(12);
  auto code = MakeSeparatedCode(20, 160, 40, &rng);
  ASSERT_TRUE(code.ok());
  ASSERT_EQ(code->size(), 20u);
  for (size_t i = 0; i < code->size(); ++i) {
    for (size_t j = i + 1; j < code->size(); ++j) {
      EXPECT_GE((*code)[i].DistanceTo((*code)[j]), 40);
    }
  }
}

TEST(LowerBoundTest, ImpossibleCodeRejected) {
  Rng rng(13);
  // 100 codewords of 8 bits with distance >= 7 cannot exist.
  EXPECT_FALSE(MakeSeparatedCode(100, 8, 7, &rng, 4).ok());
}

TEST(LowerBoundTest, InstanceShapeMatchesReduction) {
  Rng rng(14);
  std::vector<bool> x = {true, false, true, true};
  auto instance = BuildIndexInstance(x, 2, 16, 128, &rng);
  ASSERT_TRUE(instance.ok());
  EXPECT_EQ(instance->alice.size(), 4u);
  EXPECT_EQ(instance->bob.size(), 4u);  // n-1 codewords + c_{n+1}
  EXPECT_EQ(instance->dim, 129u);
  EXPECT_TRUE(instance->answer);
  // Alice's queried point is >= r2 from all of Bob's points.
  PointRef queried = instance->alice[2];
  for (size_t j = 0; j < instance->bob.size(); ++j) {
    EXPECT_GE(HammingDistance(queried.data(), instance->bob.row(j),
                              instance->dim),
              16.0);
  }
}

TEST(LowerBoundTest, GapProtocolSolvesIndexInstance) {
  Rng rng(15);
  for (int trial = 0; trial < 6; ++trial) {
    std::vector<bool> x;
    for (int i = 0; i < 12; ++i) x.push_back((rng.Next() & 1) != 0);
    size_t query = rng.Below(12);
    auto instance = BuildIndexInstance(x, query, 24, 192, &rng);
    ASSERT_TRUE(instance.ok());

    GapProtocolParams params;
    params.metric = MetricKind::kHamming;
    params.dim = instance->dim;
    params.delta = 1;
    params.r1 = 1;
    params.r2 = 24;
    params.k = 12;  // every Alice point is far from Bob's set
    params.seed = static_cast<uint64_t>(1000 + trial);
    auto report = RunGapProtocol(instance->alice, instance->bob, params);
    ASSERT_TRUE(report.ok());
    auto answer = SolveIndexFromGapOutput(*instance, report->s_b_prime);
    ASSERT_TRUE(answer.ok()) << "trial " << trial;
    EXPECT_EQ(*answer, x[query]) << "trial " << trial;
  }
}

TEST(LowerBoundTest, BloomStrawmanErrsOnOneSide) {
  // With x_i = 1 the point (c_i || 1) is genuinely in Alice's set, so the
  // Bloom filter always answers true; with x_i = 0 it errs at the FP rate,
  // which is driven up by a small budget.
  Rng rng(16);
  int false_positives = 0;
  int ones_correct = 0;
  const int kTrials = 60;
  for (int trial = 0; trial < kTrials; ++trial) {
    std::vector<bool> x(16, false);
    bool bit = (trial % 2) == 1;
    size_t query = rng.Below(16);
    x[query] = bit;
    auto instance = BuildIndexInstance(x, query, 8, 96, &rng);
    ASSERT_TRUE(instance.ok());
    size_t bits_used = 0;
    bool guess = OneRoundBloomIndexGuess(*instance, /*budget_bits=*/24,
                                         static_cast<uint64_t>(777 + trial), &bits_used);
    if (bit) {
      ones_correct += (guess == bit);
    } else {
      false_positives += guess;  // guessed 1 though answer is 0
    }
  }
  EXPECT_EQ(ones_correct, kTrials / 2);  // no false negatives ever
  EXPECT_GT(false_positives, 0);         // tiny budget must err sometimes
}

}  // namespace
}  // namespace rsr

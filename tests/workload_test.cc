// Tests for workload/generators.h: domain validity, noise budgets, outlier
// separation, determinism.
#include <vector>

#include <gtest/gtest.h>

#include "geometry/metric.h"
#include "workload/generators.h"

namespace rsr {
namespace {

TEST(GenerateUniformTest, SizeDimDomain) {
  Rng rng(1);
  PointStore pts = GenerateUniformStore(50, 4, 31, &rng);
  ASSERT_EQ(pts.size(), 50u);
  ValidatePointStore(pts, 4, 31);
}

TEST(GenerateUniformTest, CoversDomainEdges) {
  Rng rng(2);
  bool saw_zero = false, saw_max = false;
  PointStore pts = GenerateUniformStore(2000, 1, 7, &rng);
  for (size_t i = 0; i < pts.size(); ++i) {
    saw_zero |= (pts[i][0] == 0);
    saw_max |= (pts[i][0] == 7);
  }
  EXPECT_TRUE(saw_zero);
  EXPECT_TRUE(saw_max);
}

TEST(GenerateUniformTest, DeterministicBySeed) {
  Rng a(3), b(3), c(4);
  PointStore first = GenerateUniformStore(64, 3, 1023, &a);
  EXPECT_EQ(first, GenerateUniformStore(64, 3, 1023, &b));
  EXPECT_FALSE(first == GenerateUniformStore(64, 3, 1023, &c));
}

class PerturbTest : public ::testing::TestWithParam<MetricKind> {};

TEST_P(PerturbTest, StaysWithinRadiusAndDomain) {
  MetricKind kind = GetParam();
  Metric metric(kind);
  Rng rng(3);
  Coord delta = kind == MetricKind::kHamming ? 1 : 100;
  for (int trial = 0; trial < 200; ++trial) {
    const PointStore p = GenerateUniformStore(1, 6, delta, &rng);
    double radius = 1.0 + static_cast<double>(rng.Below(5));
    std::vector<Coord> q(6);
    PerturbRowInto(p.row(0), 6, kind, radius, delta, &rng, q.data());
    EXPECT_LE(metric.Distance(p.row(0), q.data(), 6), radius + 1e-9);
    EXPECT_TRUE(PointRef(q.data(), 6).InDomain(delta));
  }
}

INSTANTIATE_TEST_SUITE_P(AllMetrics, PerturbTest,
                         ::testing::Values(MetricKind::kHamming,
                                           MetricKind::kL1, MetricKind::kL2));

TEST(PerturbTest, HammingBudgetIsExactAwayFromClamps) {
  Rng rng(4);
  const PointStore p = GenerateUniformStore(1, 64, 1, &rng);
  std::vector<Coord> q(64);
  PerturbRowInto(p.row(0), 64, MetricKind::kHamming, 5, 1, &rng, q.data());
  EXPECT_EQ(HammingDistance(p.row(0), q.data(), 64), 5.0);
}

TEST(NoisyPairTest, SizesAndDomains) {
  NoisyPairConfig config;
  config.metric = MetricKind::kL1;
  config.dim = 3;
  config.delta = 63;
  config.n = 20;
  config.outliers = 3;
  config.noise = 2;
  config.outlier_dist = 0;
  config.seed = 5;
  auto workload = GenerateNoisyPairStore(config);
  ASSERT_TRUE(workload.ok());
  EXPECT_EQ(workload->alice.size(), 20u);
  EXPECT_EQ(workload->bob.size(), 20u);
  EXPECT_EQ(workload->ground.size(), 17u);
  EXPECT_EQ(workload->alice_outliers.size(), 3u);
  EXPECT_EQ(workload->bob_outliers.size(), 3u);
  ValidatePointStore(workload->alice, 3, 63);
  ValidatePointStore(workload->bob, 3, 63);
}

TEST(NoisyPairTest, GroundPairsWithinTwiceNoise) {
  NoisyPairConfig config;
  config.metric = MetricKind::kL2;
  config.dim = 4;
  config.delta = 255;
  config.n = 30;
  config.outliers = 0;
  config.noise = 3;
  config.seed = 6;
  auto workload = GenerateNoisyPairStore(config);
  ASSERT_TRUE(workload.ok());
  Metric metric(MetricKind::kL2);
  for (size_t i = 0; i < workload->ground.size(); ++i) {
    EXPECT_LE(metric.Distance(workload->alice[i], workload->bob[i]),
              2 * config.noise + 1e-9);
  }
}

TEST(NoisyPairTest, OutlierSeparationEnforced) {
  NoisyPairConfig config;
  config.metric = MetricKind::kL1;
  config.dim = 2;
  config.delta = 1023;
  config.n = 16;
  config.outliers = 2;
  config.noise = 1;
  config.outlier_dist = 150;
  config.seed = 7;
  auto workload = GenerateNoisyPairStore(config);
  ASSERT_TRUE(workload.ok());
  Metric metric(MetricKind::kL1);
  for (size_t i = 0; i < workload->alice_outliers.size(); ++i) {
    for (size_t j = 0; j < workload->bob.size(); ++j) {
      EXPECT_GE(metric.Distance(workload->alice_outliers[i], workload->bob[j]),
                150.0);
    }
  }
  for (size_t i = 0; i < workload->bob_outliers.size(); ++i) {
    for (size_t j = 0; j < workload->alice.size(); ++j) {
      // Alice's own outliers were placed before Bob's with mutual checks.
      EXPECT_GE(metric.Distance(workload->bob_outliers[i], workload->alice[j]),
                150.0);
    }
  }
}

TEST(NoisyPairTest, ImpossibleSeparationFails) {
  NoisyPairConfig config;
  config.metric = MetricKind::kHamming;
  config.dim = 4;  // diameter 4
  config.delta = 1;
  config.n = 8;
  config.outliers = 2;
  config.noise = 0;
  config.outlier_dist = 10;  // impossible: beyond the diameter
  config.seed = 8;
  EXPECT_FALSE(GenerateNoisyPairStore(config).ok());
}

TEST(NoisyPairTest, DeterministicBySeed) {
  NoisyPairConfig config;
  config.metric = MetricKind::kL1;
  config.dim = 2;
  config.delta = 127;
  config.n = 12;
  config.outliers = 1;
  config.noise = 2;
  config.outlier_dist = 30;
  config.seed = 9;
  auto w1 = GenerateNoisyPairStore(config);
  auto w2 = GenerateNoisyPairStore(config);
  ASSERT_TRUE(w1.ok());
  ASSERT_TRUE(w2.ok());
  EXPECT_EQ(w1->alice, w2->alice);
  EXPECT_EQ(w1->bob, w2->bob);
}

TEST(NoisyPairTest, ValidatesConfig) {
  NoisyPairConfig config;
  EXPECT_FALSE(GenerateNoisyPairStore(config).ok());  // dim == 0
  config.dim = 2;
  config.delta = 10;
  config.n = 4;
  config.outliers = 5;  // more outliers than points
  EXPECT_FALSE(GenerateNoisyPairStore(config).ok());
}

}  // namespace
}  // namespace rsr

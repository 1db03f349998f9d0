// Tests for the extension features: two-way reconciliation (Section 1's
// discussion realized) and the distance-sensitive Bloom filter ([18]).
#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "core/twoway.h"
#include "emd/emd.h"
#include "lsh/bit_sampling.h"
#include "sketch/ds_bloom.h"
#include "workload/generators.h"

namespace rsr {
namespace {

double WorstCaseGap(const PointStore& from, const PointStore& to,
                    const Metric& metric) {
  double worst = 0;
  for (size_t i = 0; i < from.size(); ++i) {
    double best = 1e300;
    for (size_t j = 0; j < to.size(); ++j) {
      best = std::min(best, metric.Distance(from[i], to[j]));
    }
    worst = std::max(worst, best);
  }
  return worst;
}

// -------------------------------------------------------------- two-way --

TEST(TwoWayGapTest, BothDirectionsCovered) {
  NoisyPairConfig config;
  config.metric = MetricKind::kL1;
  config.dim = 4;
  config.delta = 2047;
  config.n = 40;
  config.outliers = 2;
  config.noise = 2;
  config.outlier_dist = 300;
  config.seed = 11;
  auto workload = GenerateNoisyPairStore(config);
  ASSERT_TRUE(workload.ok());

  GapProtocolParams params;
  params.metric = MetricKind::kL1;
  params.dim = 4;
  params.delta = 2047;
  params.r1 = 4;
  params.r2 = 200;
  params.k = 2;
  params.seed = 21;
  auto report = RunTwoWayGapProtocol(workload->alice, workload->bob, params);
  ASSERT_TRUE(report.ok());

  Metric metric(MetricKind::kL1);
  // Every point of BOTH original sets is near BOTH final sets.
  EXPECT_LE(WorstCaseGap(workload->alice, report->s_b_final, metric), 200.0);
  EXPECT_LE(WorstCaseGap(workload->bob, report->s_b_final, metric), 0.0);
  EXPECT_LE(WorstCaseGap(workload->bob, report->s_a_final, metric), 200.0);
  EXPECT_LE(WorstCaseGap(workload->alice, report->s_a_final, metric), 0.0);
}

TEST(TwoWayGapTest, EmptySideReceivesTheOtherSet) {
  // With Bob empty (dimensionless or not), the forward direction sends all
  // of Alice and the backward one sends nothing: both final sets hold
  // Alice's points, with the protocol's dimension.
  const size_t d = 32;
  Rng rng(15);
  const PointStore points = GenerateUniformStore(24, d, 1, &rng);
  PointStore sorted = points;
  sorted.SortLex();
  GapProtocolParams params;
  params.metric = MetricKind::kHamming;
  params.dim = d;
  params.delta = 1;
  params.r1 = 2;
  params.r2 = 12;
  params.k = 1;
  params.seed = 16;
  for (const PointStore& empty : {PointStore(), PointStore(d)}) {
    auto report = RunTwoWayGapProtocol(points, empty, params);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->s_b_final.dim(), d);
    EXPECT_EQ(report->s_a_final.dim(), d);
    PointStore got = report->s_b_final;
    got.SortLex();
    EXPECT_EQ(got, sorted);
    EXPECT_TRUE(report->b_to_a.transmitted.empty());
    EXPECT_EQ(report->s_a_final, points);
  }
}

TEST(TwoWayGapTest, CommIsSumOfDirections) {
  NoisyPairConfig config;
  config.metric = MetricKind::kHamming;
  config.dim = 128;
  config.delta = 1;
  config.n = 24;
  config.outliers = 1;
  config.noise = 1;
  config.outlier_dist = 40;
  config.seed = 12;
  auto workload = GenerateNoisyPairStore(config);
  ASSERT_TRUE(workload.ok());

  GapProtocolParams params;
  params.metric = MetricKind::kHamming;
  params.dim = 128;
  params.delta = 1;
  params.r1 = 2;
  params.r2 = 32;
  params.k = 1;
  params.seed = 22;
  auto report = RunTwoWayGapProtocol(workload->alice, workload->bob, params);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->comm.total_bytes(),
            report->a_to_b.comm.total_bytes() +
                report->b_to_a.comm.total_bytes());
  EXPECT_EQ(report->comm.rounds(),
            report->a_to_b.comm.rounds() + report->b_to_a.comm.rounds());
}

TEST(TwoWayGapTest, FinalSetsNeedNotMatch) {
  // The paper's caveat: the parties generally do NOT end with equal sets.
  NoisyPairConfig config;
  config.metric = MetricKind::kL1;
  config.dim = 3;
  config.delta = 2047;
  config.n = 30;
  config.outliers = 2;
  config.noise = 2;
  config.outlier_dist = 300;
  config.seed = 13;
  auto workload = GenerateNoisyPairStore(config);
  ASSERT_TRUE(workload.ok());

  GapProtocolParams params;
  params.metric = MetricKind::kL1;
  params.dim = 3;
  params.delta = 2047;
  params.r1 = 4;
  params.r2 = 200;
  params.k = 2;
  params.seed = 23;
  auto report = RunTwoWayGapProtocol(workload->alice, workload->bob, params);
  ASSERT_TRUE(report.ok());
  PointStore a = report->s_a_final, b = report->s_b_final;
  a.SortLex();
  b.SortLex();
  EXPECT_NE(a, b);  // noisy copies remain distinct on each side
}

TEST(TwoWayEmdTest, BothDirectionsRepair) {
  NoisyPairConfig config;
  config.metric = MetricKind::kL2;
  config.dim = 3;
  config.delta = 511;
  config.n = 32;
  config.outliers = 1;
  config.noise = 1.5;
  config.outlier_dist = 100;
  config.seed = 14;
  auto workload = GenerateNoisyPairStore(config);
  ASSERT_TRUE(workload.ok());

  MultiscaleEmdParams params;
  params.base.metric = MetricKind::kL2;
  params.base.dim = 3;
  params.base.delta = 511;
  params.base.k = 1;
  params.base.seed = 24;
  auto report = RunTwoWayEmdProtocol(workload->alice, workload->bob, params);
  ASSERT_TRUE(report.ok());
  ASSERT_FALSE(report->failure);

  Metric metric(MetricKind::kL2);
  double before = EmdExact(workload->alice, workload->bob, metric);
  EXPECT_LT(EmdExact(workload->alice, report->s_b_final, metric), before);
  EXPECT_LT(EmdExact(workload->bob, report->s_a_final, metric), before);
}

// ------------------------------------------------------------- DS-Bloom --

class DsBloomTest : public ::testing::Test {
 protected:
  static constexpr size_t kSetSize = 40;
  DsBloomTest() : family_(64, 64.0) {
    lsh_.r1 = 2;
    lsh_.r2 = 26;
    lsh_.p1 = family_.CollisionProbability(2);   // 1 - 2/64
    lsh_.p2 = family_.CollisionProbability(26);  // 1 - 26/64
  }
  DsBloomParams SetParams(uint64_t seed) const {
    DsBloomParams params;
    params.num_banks = 64;
    params.bits_per_bank = 1 << 14;  // ordinary FP rate negligible
    params.hashes_per_bank =
        DistanceSensitiveBloomFilter::RecommendedHashesPerBank(lsh_, kSetSize);
    params.expected_set_size = kSetSize;
    params.seed = seed;
    return params;
  }
  BitSamplingFamily family_;
  LshParams lsh_;
};

TEST_F(DsBloomTest, RecommendedAmplificationSeparatesRates) {
  size_t g = DistanceSensitiveBloomFilter::RecommendedHashesPerBank(lsh_, 40);
  EXPECT_GE(g, 2u);
  double close = std::pow(lsh_.p1, static_cast<double>(g));
  double far = 40.0 * std::pow(lsh_.p2, static_cast<double>(g));
  EXPECT_LE(far, close / 2.0 + 1e-12);
}

TEST_F(DsBloomTest, InsertedPointsAlwaysNear) {
  DistanceSensitiveBloomFilter filter(family_, lsh_, SetParams(31));
  Rng rng(32);
  PointStore points = GenerateUniformStore(kSetSize, 64, 1, &rng);
  for (size_t i = 0; i < points.size(); ++i) {
    filter.Insert(points.MakePoint(i));
  }
  for (size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(filter.VoteFraction(points.MakePoint(i)), 1.0);
    EXPECT_TRUE(filter.QueryNear(points.MakePoint(i)));
  }
}

TEST_F(DsBloomTest, ClosePointsUsuallyNear) {
  DistanceSensitiveBloomFilter filter(family_, lsh_, SetParams(33));
  Rng rng(34);
  PointStore points = GenerateUniformStore(kSetSize, 64, 1, &rng);
  for (size_t i = 0; i < points.size(); ++i) {
    filter.Insert(points.MakePoint(i));
  }
  int near = 0;
  std::vector<Coord> q(64);
  for (size_t i = 0; i < points.size(); ++i) {
    PerturbRowInto(points.row(i), 64, MetricKind::kHamming, 2, 1, &rng,
                   q.data());
    near += filter.QueryNear(Point(q));
  }
  EXPECT_GE(near, 36);  // >= 90%
}

TEST_F(DsBloomTest, FarPointsUsuallyRejected) {
  DistanceSensitiveBloomFilter filter(family_, lsh_, SetParams(35));
  Rng rng(36);
  PointStore points = GenerateUniformStore(kSetSize, 64, 1, &rng);
  for (size_t i = 0; i < points.size(); ++i) {
    filter.Insert(points.MakePoint(i));
  }
  // Probes at Hamming distance >= r2 from every inserted point.
  int accepted = 0, probes = 0, attempts = 0;
  while (probes < 30 && attempts < 20000) {
    ++attempts;
    Point q = GenerateUniformStore(1, 64, 1, &rng).MakePoint(0);
    bool far = true;
    for (size_t i = 0; i < points.size(); ++i) {
      if (HammingDistance(points.row(i), q.coords().data(), 64) < 26) {
        far = false;
        break;
      }
    }
    if (!far) continue;
    ++probes;
    accepted += filter.QueryNear(q);
  }
  ASSERT_GE(probes, 10);
  EXPECT_LE(accepted, probes / 4);
}

TEST_F(DsBloomTest, AmplificationSharpensSeparation) {
  // Larger g lowers both rates but the union-bounded far rate drops faster.
  DsBloomParams g1 = SetParams(37);
  g1.hashes_per_bank = 1;
  DsBloomParams g2 = SetParams(37);
  DistanceSensitiveBloomFilter f1(family_, lsh_, g1);
  DistanceSensitiveBloomFilter f2(family_, lsh_, g2);
  Rng rng(38);
  Point p = GenerateUniformStore(1, 64, 1, &rng).MakePoint(0);
  f1.Insert(p);
  f2.Insert(p);
  std::vector<Coord> far_coords = p.coords();
  for (size_t i = 0; i < 40; ++i) far_coords[i] = 1 - far_coords[i];
  Point far(std::move(far_coords));
  EXPECT_LE(f2.VoteFraction(far), f1.VoteFraction(far));
  EXPECT_LT(f2.threshold(), f1.threshold());
}

TEST_F(DsBloomTest, SizeAccounting) {
  DsBloomParams params;
  params.num_banks = 8;
  params.bits_per_bank = 1024;
  params.seed = 39;
  DistanceSensitiveBloomFilter filter(family_, lsh_, params);
  EXPECT_EQ(filter.size_bits(), 8u * 1024u);
}

}  // namespace
}  // namespace rsr

// Cross-module integration tests: full sensor-synchronization scenarios
// driving workload generation, both protocol families, and the evaluation
// oracles together; plus end-to-end determinism and accounting invariants.
#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "core/emd_multiscale.h"
#include "core/emd_protocol.h"
#include "core/gap_protocol.h"
#include "core/naive.h"
#include "core/quadtree_baseline.h"
#include "emd/emd.h"
#include "workload/generators.h"

namespace rsr {
namespace {

double WorstCaseGap(const PointStore& alice, const PointStore& s_b_prime,
                    const Metric& metric) {
  double worst = 0;
  for (size_t i = 0; i < alice.size(); ++i) {
    double best = 1e300;
    for (size_t j = 0; j < s_b_prime.size(); ++j) {
      best = std::min(best, metric.Distance(alice[i], s_b_prime[j]));
    }
    worst = std::max(worst, best);
  }
  return worst;
}

TEST(IntegrationTest, SensorScenarioEmdPipeline) {
  // The paper's motivating scenario: two sensors observe the same objects
  // with noise; Alice additionally sees k new objects. After one round of
  // Algorithm 1, Bob's set should be close to Alice's in EMD.
  NoisyPairConfig config;
  config.metric = MetricKind::kL2;
  config.dim = 3;
  config.delta = 511;
  config.n = 48;
  config.outliers = 2;
  config.noise = 2.0;
  config.outlier_dist = 120;
  config.seed = 424242;
  auto workload = GenerateNoisyPairStore(config);
  ASSERT_TRUE(workload.ok());

  Metric metric(MetricKind::kL2);
  double before = EmdExact(workload->alice, workload->bob, metric);
  double emdk = EmdK(workload->alice, workload->bob, metric, 2);

  MultiscaleEmdParams params;
  params.base.metric = MetricKind::kL2;
  params.base.dim = 3;
  params.base.delta = 511;
  params.base.k = 2;
  params.base.seed = 99;
  params.interval_ratio = 4.0;
  auto report =
      RunMultiscaleEmdProtocol(workload->alice, workload->bob, params);
  ASSERT_TRUE(report.ok());
  ASSERT_FALSE(report->failure);
  double after = EmdExact(workload->alice, report->s_b_prime, metric);
  EXPECT_LT(after, before);
  // O(log n) approximation with generous constant: log2(48) ~ 5.6.
  EXPECT_LT(after, std::max(emdk, 1.0) * 60.0);
}

TEST(IntegrationTest, EmdProtocolBeatsNaiveCommunicationForSmallK) {
  NoisyPairConfig config;
  config.metric = MetricKind::kL1;
  config.dim = 8;
  config.delta = 4095;
  config.n = 384;
  config.outliers = 1;
  config.noise = 0;
  config.outlier_dist = 500;
  config.seed = 31337;
  auto workload = GenerateNoisyPairStore(config);
  ASSERT_TRUE(workload.ok());

  EmdProtocolParams params;
  params.metric = MetricKind::kL1;
  params.dim = 8;
  params.delta = 4095;
  params.k = 1;
  params.d1 = 1000;
  params.d2 = 4000;
  params.seed = 5;
  auto report = RunEmdProtocol(workload->alice, workload->bob, params);
  ASSERT_TRUE(report.ok());

  NaiveReport naive =
      RunNaiveFullTransfer(workload->alice, workload->bob, false);
  EXPECT_LT(report->comm.total_bytes(), naive.comm.total_bytes());
}

TEST(IntegrationTest, GapAndEmdModelsComposable) {
  // Run the Gap protocol first (Bob gains Alice's far points), then verify
  // the gap property; the two models answer different questions about the
  // same workload.
  NoisyPairConfig config;
  config.metric = MetricKind::kL1;
  config.dim = 4;
  config.delta = 1023;
  config.n = 40;
  config.outliers = 2;
  config.noise = 2;
  config.outlier_dist = 250;
  config.seed = 777;
  auto workload = GenerateNoisyPairStore(config);
  ASSERT_TRUE(workload.ok());

  GapProtocolParams gap;
  gap.metric = MetricKind::kL1;
  gap.dim = 4;
  gap.delta = 1023;
  gap.r1 = 4;
  gap.r2 = 150;
  gap.k = 2;
  gap.seed = 888;
  auto report = RunGapProtocol(workload->alice, workload->bob, gap);
  ASSERT_TRUE(report.ok());
  Metric metric(MetricKind::kL1);
  EXPECT_LE(WorstCaseGap(workload->alice, report->s_b_prime, metric), 150.0);
  EXPECT_LE(WorstCaseGap(workload->bob, report->s_b_prime, metric), 0.0);
}

TEST(IntegrationTest, OursVsQuadtreeOnHighDimensionalData) {
  // The headline claim: O(log n) approximation vs the baseline's O(d).
  // In higher dimension with per-point noise, our repaired EMD should not
  // be worse than the quadtree baseline's (usually much better).
  const size_t dim = 8;
  double ours_total = 0, quadtree_total = 0;
  int both = 0;
  for (int trial = 0; trial < 5; ++trial) {
    NoisyPairConfig config;
    config.metric = MetricKind::kL1;
    config.dim = dim;
    config.delta = 255;
    config.n = 40;
    config.outliers = 1;
    config.noise = 2;
    config.outlier_dist = 300;
    config.seed = static_cast<uint64_t>(8800 + trial);
    auto workload = GenerateNoisyPairStore(config);
    ASSERT_TRUE(workload.ok());
    Metric metric(MetricKind::kL1);

    MultiscaleEmdParams ours;
    ours.base.metric = MetricKind::kL1;
    ours.base.dim = dim;
    ours.base.delta = 255;
    ours.base.k = 1;
    ours.base.seed = static_cast<uint64_t>(42 + trial);
    ours.interval_ratio = 4.0;
    auto ours_report =
        RunMultiscaleEmdProtocol(workload->alice, workload->bob, ours);
    ASSERT_TRUE(ours_report.ok());

    QuadtreeEmdParams quadtree;
    quadtree.dim = dim;
    quadtree.delta = 255;
    quadtree.k = 1;
    quadtree.seed = static_cast<uint64_t>(43 + trial);
    auto quadtree_report =
        RunQuadtreeEmdProtocol(workload->alice, workload->bob, quadtree);
    ASSERT_TRUE(quadtree_report.ok());

    if (ours_report->failure || quadtree_report->failure) continue;
    ++both;
    ours_total +=
        EmdExact(workload->alice, ours_report->s_b_prime, metric);
    quadtree_total +=
        EmdExact(workload->alice, quadtree_report->s_b_prime, metric);
  }
  ASSERT_GT(both, 2);
  EXPECT_LE(ours_total, quadtree_total * 1.25);
}

TEST(IntegrationTest, TranscriptBytesArePositiveAndAdditive) {
  Rng rng(1);
  PointStore pts = GenerateUniformStore(24, 2, 63, &rng);
  EmdProtocolParams params;
  params.metric = MetricKind::kL1;
  params.dim = 2;
  params.delta = 63;
  params.k = 2;
  params.d1 = 4;
  params.d2 = 64;
  params.seed = 3;
  auto report = RunEmdProtocol(pts, pts, params);
  ASSERT_TRUE(report.ok());
  size_t sum = 0;
  for (const auto& m : report->comm.messages) {
    EXPECT_GT(m.bytes, 0u);
    EXPECT_FALSE(m.label.empty());
    sum += m.bytes;
  }
  EXPECT_EQ(sum, report->comm.total_bytes());
  EXPECT_EQ(report->comm.total_bits(), 8 * sum);
}

TEST(IntegrationTest, StoreWorkloadDrivesWholePipelineIdentically) {
  // End-to-end build-path identity: a store rebuilt point by point from
  // owning Points must drive the multiscale EMD and Gap protocols (threads 1
  // and 8) byte-identically to the natively generated arena. However the
  // arena was built, it must be invisible on the wire.
  NoisyPairConfig config;
  config.metric = MetricKind::kL2;
  config.dim = 3;
  config.delta = 511;
  config.n = 48;
  config.outliers = 2;
  config.noise = 2.0;
  config.outlier_dist = 120;
  config.seed = 424242;
  auto stores = GenerateNoisyPairStore(config);
  ASSERT_TRUE(stores.ok());
  auto rebuild = [](const PointStore& store) {
    PointStore out(store.dim());
    for (size_t i = 0; i < store.size(); ++i) out.Append(store.MakePoint(i));
    return out;
  };
  const PointStore alice_converted = rebuild(stores->alice);
  const PointStore bob_converted = rebuild(stores->bob);
  ASSERT_EQ(alice_converted, stores->alice);
  ASSERT_EQ(bob_converted, stores->bob);

  for (size_t threads : {size_t{1}, size_t{8}}) {
    MultiscaleEmdParams emd;
    emd.base.metric = MetricKind::kL2;
    emd.base.dim = 3;
    emd.base.delta = 511;
    emd.base.k = 2;
    emd.base.seed = 99;
    emd.base.num_threads = threads;
    emd.interval_ratio = 4.0;
    auto emd_stores = RunMultiscaleEmdProtocol(stores->alice, stores->bob,
                                               emd);
    auto emd_sets =
        RunMultiscaleEmdProtocol(alice_converted, bob_converted, emd);
    ASSERT_TRUE(emd_stores.ok());
    ASSERT_TRUE(emd_sets.ok());
    EXPECT_EQ(emd_stores->failure, emd_sets->failure);
    EXPECT_EQ(emd_stores->chosen_interval, emd_sets->chosen_interval);
    EXPECT_EQ(emd_stores->s_b_prime, emd_sets->s_b_prime);
    EXPECT_EQ(emd_stores->comm.total_bytes(), emd_sets->comm.total_bytes());

    GapProtocolParams gap;
    gap.metric = MetricKind::kL2;
    gap.dim = 3;
    gap.delta = 511;
    gap.r1 = 4;
    gap.r2 = 100;
    gap.k = 2;
    gap.seed = 888;
    gap.num_threads = threads;
    auto gap_stores = RunGapProtocol(stores->alice, stores->bob, gap);
    auto gap_sets = RunGapProtocol(alice_converted, bob_converted, gap);
    ASSERT_TRUE(gap_stores.ok());
    ASSERT_TRUE(gap_sets.ok());
    EXPECT_EQ(gap_stores->s_b_prime, gap_sets->s_b_prime);
    EXPECT_EQ(gap_stores->transmitted, gap_sets->transmitted);
    EXPECT_EQ(gap_stores->comm.total_bytes(), gap_sets->comm.total_bytes());
  }

  // The evaluation oracles read either build identically.
  Metric metric(MetricKind::kL2);
  EXPECT_EQ(EmdK(stores->alice, stores->bob, metric, 2),
            EmdK(alice_converted, bob_converted, metric, 2));
}

TEST(IntegrationTest, FullyDeterministicAcrossModules) {
  NoisyPairConfig config;
  config.metric = MetricKind::kHamming;
  config.dim = 96;
  config.delta = 1;
  config.n = 24;
  config.outliers = 1;
  config.noise = 1;
  config.outlier_dist = 30;
  config.seed = 1234;
  auto w1 = GenerateNoisyPairStore(config);
  auto w2 = GenerateNoisyPairStore(config);
  ASSERT_TRUE(w1.ok());
  ASSERT_TRUE(w2.ok());

  GapProtocolParams gap;
  gap.metric = MetricKind::kHamming;
  gap.dim = 96;
  gap.delta = 1;
  gap.r1 = 2;
  gap.r2 = 24;
  gap.k = 1;
  gap.seed = 5678;
  auto r1 = RunGapProtocol(w1->alice, w1->bob, gap);
  auto r2 = RunGapProtocol(w2->alice, w2->bob, gap);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1->s_b_prime, r2->s_b_prime);
  EXPECT_EQ(r1->comm.total_bytes(), r2->comm.total_bytes());
}

}  // namespace
}  // namespace rsr

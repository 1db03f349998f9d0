// Property-based tests: invariants that must hold across parameter grids.
//
// - EMD protocol (Algorithm 1): output size, domain validity, improvement on
//   outlier workloads, exactness on identical sets — across metric x n x k.
// - Gap protocol: superset property and the r2 guarantee across grids.
// - Sketch algebra: IBLT subtraction laws, insertion-order invariance of the
//   RIBLT state, decode/extract conservation.
// - Wire robustness: corrupted or truncated sketches must fail cleanly (no
//   crashes, no bogus success).
#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "core/emd_multiscale.h"
#include "core/gap_protocol.h"
#include "emd/emd.h"
#include "sketch/iblt.h"
#include "sketch/riblt.h"
#include "util/random.h"
#include "workload/generators.h"

namespace rsr {
namespace {

// ------------------------------------------------ EMD protocol sweep --

using EmdGridParam = std::tuple<MetricKind, size_t /*n*/, size_t /*k*/>;

class EmdProtocolGridTest : public ::testing::TestWithParam<EmdGridParam> {};

TEST_P(EmdProtocolGridTest, InvariantsHold) {
  auto [metric_kind, n, k] = GetParam();
  const Coord delta = metric_kind == MetricKind::kHamming ? 1 : 1023;
  const size_t dim = metric_kind == MetricKind::kHamming ? 96 : 4;
  Metric metric(metric_kind);

  NoisyPairConfig config;
  config.metric = metric_kind;
  config.dim = dim;
  config.delta = delta;
  config.n = n;
  config.outliers = k;
  config.noise = metric_kind == MetricKind::kHamming ? 1 : 2;
  config.outlier_dist = metric_kind == MetricKind::kHamming ? 30 : 150;
  config.seed = 17 * n + k;
  auto workload = GenerateNoisyPairStore(config);
  ASSERT_TRUE(workload.ok());

  MultiscaleEmdParams params;
  params.base.metric = metric_kind;
  params.base.dim = dim;
  params.base.delta = delta;
  params.base.k = k;
  params.base.seed = 23 * n + k;
  params.interval_ratio = 4.0;
  auto report =
      RunMultiscaleEmdProtocol(workload->alice, workload->bob, params);
  ASSERT_TRUE(report.ok());
  if (report->failure) GTEST_SKIP() << "probabilistic failure (allowed)";

  // Invariant 1: |S'_B| == n and all points in the domain.
  ASSERT_EQ(report->s_b_prime.size(), n);
  ValidatePointStore(report->s_b_prime, dim, delta);
  // Invariant 2: Theorem 3.4's form — the result is never worse than both
  // the starting distance (with slack for extraction rounding) and the
  // O(log n) * EMD_k bound. (The repair CAN slightly exceed `before` on
  // noise-dominated workloads: averaging and rounding add in-bucket error.)
  double before = EmdExact(workload->alice, workload->bob, metric);
  double after = EmdExact(workload->alice, report->s_b_prime, metric);
  double emdk = EmdK(workload->alice, workload->bob, metric, k);
  double log_bound = 30.0 * std::log2(static_cast<double>(n)) *
                     std::max(emdk, 1.0);
  EXPECT_LE(after, std::max(before * 1.05 + 1.0, log_bound));
  // Invariant 3: exactly one logical round (all interval messages together).
  for (const auto& message : report->comm.messages) {
    EXPECT_TRUE(message.label.find("A->B") != std::string::npos);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, EmdProtocolGridTest,
    ::testing::Combine(::testing::Values(MetricKind::kHamming,
                                         MetricKind::kL1, MetricKind::kL2),
                       ::testing::Values(24, 48),
                       ::testing::Values(1, 3)));

// ------------------------------------------------ Gap protocol sweep --

using GapGridParam = std::tuple<MetricKind, size_t /*n*/, size_t /*k*/,
                                SetsReconcilerMode>;

class GapProtocolGridTest : public ::testing::TestWithParam<GapGridParam> {};

TEST_P(GapProtocolGridTest, GuaranteeAndSupersetHold) {
  auto [metric_kind, n, k, mode] = GetParam();
  const Coord delta = metric_kind == MetricKind::kHamming ? 1 : 2047;
  const size_t dim = metric_kind == MetricKind::kHamming ? 160 : 4;
  const double r1 = metric_kind == MetricKind::kHamming ? 2 : 4;
  const double r2 = metric_kind == MetricKind::kHamming ? 40 : 250;
  Metric metric(metric_kind);

  NoisyPairConfig config;
  config.metric = metric_kind;
  config.dim = dim;
  config.delta = delta;
  config.n = n;
  config.outliers = k;
  config.noise = r1 / 2;
  config.outlier_dist = r2 * 1.4;
  config.seed = 29 * n + k;
  auto workload = GenerateNoisyPairStore(config);
  ASSERT_TRUE(workload.ok());

  GapProtocolParams params;
  params.metric = metric_kind;
  params.dim = dim;
  params.delta = delta;
  params.r1 = r1;
  params.r2 = r2;
  params.k = k;
  params.reconciler.mode = mode;
  params.seed = 37 * n + k;
  auto report = RunGapProtocol(workload->alice, workload->bob, params);
  ASSERT_TRUE(report.ok());

  // Superset: S'_B extends S_B verbatim.
  ASSERT_GE(report->s_b_prime.size(), workload->bob.size());
  for (size_t i = 0; i < workload->bob.size(); ++i) {
    EXPECT_EQ(report->s_b_prime[i], workload->bob[i]);
  }
  // Guarantee: every Alice point within r2 of S'_B.
  for (size_t i = 0; i < workload->alice.size(); ++i) {
    double best = 1e300;
    for (size_t j = 0; j < report->s_b_prime.size(); ++j) {
      best = std::min(best, metric.Distance(workload->alice[i],
                                            report->s_b_prime[j]));
    }
    EXPECT_LE(best, r2 + 1e-9);
  }
  // Transmission never exceeds Alice's whole set.
  EXPECT_LE(report->transmitted.size(), workload->alice.size());
}

INSTANTIATE_TEST_SUITE_P(
    Grid, GapProtocolGridTest,
    ::testing::Combine(::testing::Values(MetricKind::kHamming,
                                         MetricKind::kL1, MetricKind::kL2),
                       ::testing::Values(24, 48), ::testing::Values(1, 2),
                       ::testing::Values(SetsReconcilerMode::kVerbatim,
                                         SetsReconcilerMode::kFingerprint)));

// ------------------------------------------------------ sketch algebra --

TEST(SketchAlgebraTest, IbltSelfSubtractionIsEmpty) {
  IbltParams params;
  params.num_cells = 64;
  params.seed = 5;
  Iblt a(params);
  Rng rng(6);
  for (int i = 0; i < 30; ++i) a.Insert(rng.Next());
  Iblt b = a;
  auto result = a.DecodeDiff(b);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->complete);
  EXPECT_TRUE(result->entries.empty());
}

TEST(SketchAlgebraTest, IbltInterleavingOrderIrrelevant) {
  IbltParams params;
  params.num_cells = 96;
  params.seed = 7;
  Rng rng(8);
  std::vector<uint64_t> keys(40);
  for (auto& k : keys) k = rng.Next();

  Iblt forward(params), backward(params);
  for (uint64_t k : keys) forward.Insert(k);
  for (auto it = keys.rbegin(); it != keys.rend(); ++it) {
    backward.Insert(*it);
  }
  ByteWriter wf, wb;
  forward.WriteTo(&wf);
  backward.WriteTo(&wb);
  EXPECT_EQ(wf.buffer(), wb.buffer());  // commutative cell updates
}

TEST(SketchAlgebraTest, RibltStateIsOrderInvariant) {
  RibltParams params;
  params.num_cells = 72;
  params.num_hashes = 3;
  params.dim = 3;
  params.delta = 100;
  params.seed = 9;
  Rng rng(10);
  PointStore values = GenerateUniformStore(20, 3, 100, &rng);
  std::vector<uint64_t> keys(20);
  for (auto& k : keys) k = rng.Next();

  Riblt forward(params), shuffled(params);
  for (size_t i = 0; i < keys.size(); ++i) {
    forward.Insert(keys[i], values.MakePoint(i));
  }
  std::vector<size_t> order(keys.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = order.size() - 1 - i;
  for (size_t i : order) shuffled.Insert(keys[i], values.MakePoint(i));

  ByteWriter wf, ws;
  forward.WriteTo(&wf);
  shuffled.WriteTo(&ws);
  EXPECT_EQ(wf.buffer(), ws.buffer());
}

TEST(SketchAlgebraTest, RibltDecodeConservesMultiset) {
  // Whatever was inserted minus deleted must equal extracted(+) minus
  // extracted(-) as a keyed multiset.
  RibltParams params;
  params.num_cells = 144;
  params.num_hashes = 3;
  params.dim = 2;
  params.delta = 50;
  params.seed = 11;
  Riblt table(params);
  Rng rng(12);
  std::map<uint64_t, int64_t> net;
  for (int i = 0; i < 10; ++i) {
    uint64_t key = 100 + rng.Below(12);  // deliberately collide keys
    Point value = GenerateUniformStore(1, 2, 50, &rng).MakePoint(0);
    if (rng.Bernoulli(0.5)) {
      table.Insert(key, value);
      net[key] += 1;
    } else {
      table.Delete(key, value);
      net[key] -= 1;
    }
  }
  Rng decode_rng(13);
  auto result = table.Decode(100, 100, &decode_rng);
  if (!result.ok()) GTEST_SKIP() << "mixed-sign cells can legally jam";
  std::map<uint64_t, int64_t> got;
  for (uint64_t key : result->inserted_keys) got[key] += 1;
  for (uint64_t key : result->deleted_keys) got[key] -= 1;
  for (auto& [key, count] : net) {
    if (count == 0) continue;
    EXPECT_EQ(got[key], count) << "key " << key;
  }
}

// -------------------------------------------------- wire robustness --

TEST(WireRobustnessTest, CorruptedIbltNeverCrashes) {
  IbltParams params;
  params.num_cells = 64;
  params.seed = 21;
  Iblt table(params);
  Rng rng(22);
  for (int i = 0; i < 20; ++i) table.Insert(rng.Next());
  ByteWriter w;
  table.WriteTo(&w);

  for (int trial = 0; trial < 200; ++trial) {
    std::vector<uint8_t> corrupted = w.buffer();
    size_t pos = rng.Below(corrupted.size());
    corrupted[pos] ^= static_cast<uint8_t>(1 + rng.Below(255));
    ByteReader reader(corrupted.data(), corrupted.size());
    auto restored = Iblt::ReadFrom(&reader, params);
    if (!restored.ok()) continue;  // clean parse failure
    // Decoding a corrupted table must not crash; results may be partial.
    IbltDecodeResult result = restored->Decode();
    (void)result;
  }
  SUCCEED();
}

TEST(WireRobustnessTest, TruncatedRibltFailsCleanly) {
  RibltParams params;
  params.num_cells = 36;
  params.num_hashes = 3;
  params.dim = 2;
  params.delta = 50;
  params.seed = 23;
  Riblt table(params);
  Rng rng(24);
  for (int i = 0; i < 6; ++i) {
    table.Insert(rng.Next(), GenerateUniformStore(1, 2, 50, &rng).MakePoint(0));
  }
  ByteWriter w;
  table.WriteTo(&w);
  for (size_t cut = 1; cut < w.buffer().size(); cut += 7) {
    ByteReader reader(w.buffer().data(), w.buffer().size() - cut);
    auto restored = Riblt::ReadFrom(&reader, params);
    EXPECT_FALSE(restored.ok()) << "cut=" << cut;
  }
}

TEST(WireRobustnessTest, CorruptedRibltDecodeIsSafe) {
  RibltParams params;
  params.num_cells = 36;
  params.num_hashes = 3;
  params.dim = 2;
  params.delta = 50;
  params.seed = 25;
  Riblt table(params);
  Rng rng(26);
  for (int i = 0; i < 6; ++i) {
    table.Insert(rng.Next(), GenerateUniformStore(1, 2, 50, &rng).MakePoint(0));
  }
  ByteWriter w;
  table.WriteTo(&w);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<uint8_t> corrupted = w.buffer();
    corrupted[rng.Below(corrupted.size())] ^=
        static_cast<uint8_t>(1 + rng.Below(255));
    ByteReader reader(corrupted.data(), corrupted.size());
    auto restored = Riblt::ReadFrom(&reader, params);
    if (!restored.ok()) continue;
    Rng decode_rng(static_cast<uint64_t>(trial));
    auto result = restored->Decode(100, 100, &decode_rng);
    if (result.ok()) {
      // Extracted values must still respect the domain (clamping).
      for (size_t i = 0; i < result->inserted.size(); ++i) {
        EXPECT_TRUE(result->inserted[i].InDomain(params.delta));
      }
    }
  }
  SUCCEED();
}

}  // namespace
}  // namespace rsr

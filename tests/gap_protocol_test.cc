// End-to-end tests for the Gap Guarantee protocol (Theorem 4.2) and its
// low-dimension variant (Theorem 4.5).
//
// The defining property (Definition 4.1): after the protocol, every point of
// S_A is within r2 of some point of S'_B = S_B ∪ T_A.
#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/gap_lowdim.h"
#include "core/gap_protocol.h"
#include "hashing/hash64.h"
#include "hashing/pairwise.h"
#include "workload/generators.h"

namespace rsr {
namespace {

/// Max over a in alice of min distance to s_b_prime.
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

GapProtocolParams HammingParams(size_t dim, double r1, double r2, size_t k,
                                uint64_t seed) {
  GapProtocolParams params;
  params.metric = MetricKind::kHamming;
  params.dim = dim;
  params.delta = 1;
  params.r1 = r1;
  params.r2 = r2;
  params.k = k;
  params.seed = seed;
  return params;
}

TEST(GapParamsTest, MakeGapLshValidatesRadii) {
  EXPECT_FALSE(MakeGapLsh(MetricKind::kHamming, 32, 5, 5).ok());
  EXPECT_FALSE(MakeGapLsh(MetricKind::kHamming, 32, 5, 3).ok());
  EXPECT_TRUE(MakeGapLsh(MetricKind::kHamming, 32, 1, 8).ok());
}

TEST(GapParamsTest, P2NearHalfByConstruction) {
  for (MetricKind kind :
       {MetricKind::kHamming, MetricKind::kL1, MetricKind::kL2}) {
    auto config = MakeGapLsh(kind, 16, 2.0, 24.0);
    ASSERT_TRUE(config.ok());
    EXPECT_GE(config->lsh.p2, 0.45);
    EXPECT_LE(config->lsh.p2, 0.75);
    EXPECT_GT(config->lsh.p1, config->lsh.p2);
    EXPECT_LT(config->lsh.rho(), 1.0);
  }
}

TEST(GapProtocolTest, IdenticalSetsTransmitNothing) {
  Rng rng(1);
  PointStore pts = GenerateUniformStore(64, 128, 1, &rng);
  auto report = RunGapProtocol(pts, pts, HammingParams(128, 2, 32, 1, 5));
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->transmitted.size(), 0u);
  EXPECT_EQ(report->far_keys, 0u);
  EXPECT_EQ(report->s_b_prime.size(), pts.size());
}

TEST(GapProtocolTest, EmptySideExchanges) {
  // Either side may be empty, as a dimensionless PointStore() or as a
  // PointStore(d). An empty Bob receives all of Alice; an empty Alice leaves
  // Bob's set as it is. Either way the outputs carry the protocol's d.
  const size_t d = 32;
  Rng rng(41);
  const PointStore points = GenerateUniformStore(64, d, 1, &rng);
  PointStore sorted = points;
  sorted.SortLex();
  const GapProtocolParams params = HammingParams(d, 2, 12, 1, 42);
  for (const PointStore& empty : {PointStore(), PointStore(d)}) {
    auto to_empty_bob = RunGapProtocol(points, empty, params);
    ASSERT_TRUE(to_empty_bob.ok()) << to_empty_bob.status().ToString();
    EXPECT_EQ(to_empty_bob->transmitted.dim(), d);
    EXPECT_EQ(to_empty_bob->s_b_prime.dim(), d);
    EXPECT_EQ(to_empty_bob->s_b_prime, to_empty_bob->transmitted);
    PointStore got = to_empty_bob->transmitted;
    got.SortLex();
    EXPECT_EQ(got, sorted);  // T_A = all of Alice

    auto from_empty_alice = RunGapProtocol(empty, points, params);
    ASSERT_TRUE(from_empty_alice.ok())
        << from_empty_alice.status().ToString();
    EXPECT_EQ(from_empty_alice->transmitted.dim(), d);
    EXPECT_EQ(from_empty_alice->s_b_prime.dim(), d);
    EXPECT_TRUE(from_empty_alice->transmitted.empty());
    EXPECT_EQ(from_empty_alice->s_b_prime, points);  // S'_B = S_B
  }
}

TEST(GapProtocolTest, GuaranteeHoldsWithOutliersHamming) {
  int violations = 0;
  const int kTrials = 8;
  for (int trial = 0; trial < kTrials; ++trial) {
    NoisyPairConfig config;
    config.metric = MetricKind::kHamming;
    config.dim = 256;
    config.delta = 1;
    config.n = 48;
    config.outliers = 2;
    config.noise = 2;          // close pairs within r1 = 4
    config.outlier_dist = 80;  // far points beyond r2 = 64
    config.seed = static_cast<uint64_t>(900 + trial);
    auto workload = GenerateNoisyPairStore(config);
    ASSERT_TRUE(workload.ok());

    auto report = RunGapProtocol(workload->alice, workload->bob,
                                 HammingParams(256, 4, 64, 2, static_cast<uint64_t>(40 + trial)));
    ASSERT_TRUE(report.ok());
    Metric metric(MetricKind::kHamming);
    if (WorstCaseGap(workload->alice, report->s_b_prime, metric) > 64.0) {
      ++violations;
    }
    // Alice's outliers must always be among the transmitted points.
    EXPECT_GE(report->transmitted.size(), workload->alice_outliers.size());
  }
  EXPECT_EQ(violations, 0);
}

TEST(GapProtocolTest, GuaranteeHoldsL1) {
  int violations = 0;
  for (int trial = 0; trial < 6; ++trial) {
    NoisyPairConfig config;
    config.metric = MetricKind::kL1;
    config.dim = 8;
    config.delta = 1023;
    config.n = 40;
    config.outliers = 1;
    config.noise = 3;
    config.outlier_dist = 300;
    config.seed = static_cast<uint64_t>(700 + trial);
    auto workload = GenerateNoisyPairStore(config);
    ASSERT_TRUE(workload.ok());

    GapProtocolParams params;
    params.metric = MetricKind::kL1;
    params.dim = 8;
    params.delta = 1023;
    params.r1 = 3;
    params.r2 = 200;
    params.k = 1;
    params.seed = static_cast<uint64_t>(60 + trial);
    auto report = RunGapProtocol(workload->alice, workload->bob, params);
    ASSERT_TRUE(report.ok());
    Metric metric(MetricKind::kL1);
    if (WorstCaseGap(workload->alice, report->s_b_prime, metric) > 200.0) {
      ++violations;
    }
  }
  EXPECT_EQ(violations, 0);
}

TEST(GapProtocolTest, SBPrimeIsSupersetOfBob) {
  NoisyPairConfig config;
  config.metric = MetricKind::kHamming;
  config.dim = 128;
  config.delta = 1;
  config.n = 24;
  config.outliers = 1;
  config.noise = 1;
  config.outlier_dist = 40;
  config.seed = 31;
  auto workload = GenerateNoisyPairStore(config);
  ASSERT_TRUE(workload.ok());
  auto report = RunGapProtocol(workload->alice, workload->bob,
                               HammingParams(128, 2, 32, 1, 8));
  ASSERT_TRUE(report.ok());
  ASSERT_GE(report->s_b_prime.size(), workload->bob.size());
  for (size_t i = 0; i < workload->bob.size(); ++i) {
    EXPECT_EQ(report->s_b_prime[i], workload->bob[i]);
  }
  EXPECT_EQ(report->s_b_prime.size(),
            workload->bob.size() + report->transmitted.size());
}

TEST(GapProtocolTest, CommunicationBeatsNaiveWhenFewDifferences) {
  // High-dimensional regime (Corollary 4.3 flavor): the protocol's polylog-
  // per-point cost must undercut shipping n*d raw bits.
  NoisyPairConfig config;
  config.metric = MetricKind::kHamming;
  config.dim = 1024;
  config.delta = 1;
  config.n = 96;
  config.outliers = 1;
  config.noise = 1;
  config.outlier_dist = 256;
  config.seed = 17;
  auto workload = GenerateNoisyPairStore(config);
  ASSERT_TRUE(workload.ok());
  GapProtocolParams params = HammingParams(1024, 2, 192, 1, 23);
  params.h_multiplier = 4.0;
  auto report = RunGapProtocol(workload->alice, workload->bob, params);
  ASSERT_TRUE(report.ok());
  Metric metric(MetricKind::kHamming);
  EXPECT_LE(WorstCaseGap(workload->alice, report->s_b_prime, metric), 192.0);
  size_t naive_bits = 96 * 1024;  // n*d bits for binary vectors
  EXPECT_LT(report->comm.total_bits(), naive_bits);
}

TEST(GapProtocolTest, FourRoundsPlusReconcilerRetries) {
  Rng rng(2);
  PointStore pts = GenerateUniformStore(32, 128, 1, &rng);
  auto report = RunGapProtocol(pts, pts, HammingParams(128, 2, 32, 1, 3));
  ASSERT_TRUE(report.ok());
  // 3 reconciler messages + 1 transmission when nothing retries.
  EXPECT_EQ(report->comm.rounds(), 4);
}

TEST(GapProtocolTest, WorksWithVerbatimReconciler) {
  NoisyPairConfig config;
  config.metric = MetricKind::kHamming;
  config.dim = 128;
  config.delta = 1;
  config.n = 32;
  config.outliers = 1;
  config.noise = 1;
  config.outlier_dist = 48;
  config.seed = 19;
  auto workload = GenerateNoisyPairStore(config);
  ASSERT_TRUE(workload.ok());
  GapProtocolParams params = HammingParams(128, 2, 40, 1, 29);
  params.reconciler.mode = SetsReconcilerMode::kVerbatim;
  auto report = RunGapProtocol(workload->alice, workload->bob, params);
  ASSERT_TRUE(report.ok());
  Metric metric(MetricKind::kHamming);
  EXPECT_LE(WorstCaseGap(workload->alice, report->s_b_prime, metric), 40.0);
}

TEST(GapProtocolTest, DeterministicGivenSeed) {
  Rng rng(3);
  PointStore a = GenerateUniformStore(24, 128, 1, &rng);
  PointStore b = GenerateUniformStore(24, 128, 1, &rng);
  auto r1 = RunGapProtocol(a, b, HammingParams(128, 2, 32, 2, 77));
  auto r2 = RunGapProtocol(a, b, HammingParams(128, 2, 32, 2, 77));
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1->transmitted, r2->transmitted);
  EXPECT_EQ(r1->comm.total_bytes(), r2->comm.total_bytes());
}

TEST(GapProtocolTest, DerivedParametersSane) {
  Rng rng(4);
  PointStore pts = GenerateUniformStore(16, 64, 1, &rng);
  auto report = RunGapProtocol(pts, pts, HammingParams(64, 1, 16, 1, 31));
  ASSERT_TRUE(report.ok());
  EXPECT_GE(report->derived.m, 1u);
  EXPECT_GT(report->derived.h, 0u);
  EXPECT_GT(report->derived.q1, report->derived.q2);
  EXPECT_LE(report->derived.q2, 0.5 + 1e-9);
  EXPECT_GT(report->derived.tau, 0.0);
  EXPECT_LT(report->derived.tau, static_cast<double>(report->derived.h));
}

// ------------------------------------------------------------- low-dim --

TEST(LowDimGapTest, RejectsRhoHatAboveOne) {
  Rng rng(5);
  PointStore pts = GenerateUniformStore(8, 8, 255, &rng);
  LowDimGapParams params;
  params.metric = MetricKind::kL1;
  params.dim = 8;
  params.delta = 255;
  params.r1 = 10;
  params.r2 = 20;  // rho_hat = 10*8/20 = 4 >= 1
  params.seed = 1;
  EXPECT_FALSE(RunLowDimGapProtocol(pts, pts, params).ok());
}

TEST(LowDimGapTest, GuaranteeHoldsL1) {
  int violations = 0;
  for (int trial = 0; trial < 6; ++trial) {
    NoisyPairConfig config;
    config.metric = MetricKind::kL1;
    config.dim = 2;
    config.delta = 4095;
    config.n = 40;
    config.outliers = 2;
    config.noise = 2;
    config.outlier_dist = 200;
    config.seed = static_cast<uint64_t>(500 + trial);
    auto workload = GenerateNoisyPairStore(config);
    ASSERT_TRUE(workload.ok());

    LowDimGapParams params;
    params.metric = MetricKind::kL1;
    params.dim = 2;
    params.delta = 4095;
    params.r1 = 2;
    params.r2 = 100;  // rho_hat = 2*2/100 = 0.04
    params.k = 2;
    params.h_multiplier = 2.0;
    params.seed = static_cast<uint64_t>(80 + trial);
    auto report =
        RunLowDimGapProtocol(workload->alice, workload->bob, params);
    ASSERT_TRUE(report.ok());
    Metric metric(MetricKind::kL1);
    if (WorstCaseGap(workload->alice, report->s_b_prime, metric) > 100.0) {
      ++violations;
    }
  }
  EXPECT_EQ(violations, 0);
}

TEST(LowDimGapTest, OneSidedErrorNeverMissesFarPoints) {
  // p2 = 0: a far point can never match any entry, so it is always
  // transmitted — across every trial, not just whp.
  for (int trial = 0; trial < 10; ++trial) {
    NoisyPairConfig config;
    config.metric = MetricKind::kL2;
    config.dim = 2;
    config.delta = 4095;
    config.n = 24;
    config.outliers = 1;
    config.noise = 1;
    config.outlier_dist = 400;
    config.seed = static_cast<uint64_t>(5100 + trial);
    auto workload = GenerateNoisyPairStore(config);
    ASSERT_TRUE(workload.ok());

    LowDimGapParams params;
    params.metric = MetricKind::kL2;
    params.dim = 2;
    params.delta = 4095;
    params.r1 = 3;
    params.r2 = 300;
    params.k = 1;
    params.h_multiplier = 2.0;
    params.seed = static_cast<uint64_t>(90 + trial);
    auto report =
        RunLowDimGapProtocol(workload->alice, workload->bob, params);
    ASSERT_TRUE(report.ok());
    // Alice's outlier is >= 400 > r2 away from everything of Bob's; with
    // p2 = 0 its key shares no entry with any Bob key, so it MUST be sent.
    bool found = false;
    for (size_t i = 0; i < report->transmitted.size(); ++i) {
      if (report->transmitted[i] == workload->alice_outliers[0]) found = true;
    }
    EXPECT_TRUE(found) << "trial " << trial;
  }
}

TEST(LowDimGapTest, DerivedHScalesWithRhoHat) {
  Rng rng(6);
  PointStore pts = GenerateUniformStore(16, 2, 4095, &rng);
  LowDimGapParams tight;
  tight.metric = MetricKind::kL1;
  tight.dim = 2;
  tight.delta = 4095;
  tight.r1 = 10;
  tight.r2 = 50;  // rho_hat = 0.4
  tight.seed = 7;
  LowDimGapParams loose = tight;
  loose.r2 = 2000;  // rho_hat = 0.01
  auto rt = RunLowDimGapProtocol(pts, pts, tight);
  auto rl = RunLowDimGapProtocol(pts, pts, loose);
  ASSERT_TRUE(rt.ok());
  ASSERT_TRUE(rl.ok());
  EXPECT_GT(rt->derived.h, rl->derived.h);
}

// ---- Far detection against a plain oracle ---------------------------------
//
// internal::RunGapPipeline flags an Alice key far when its best slot-match
// count against Bob's recovered keys is below tau. The oracle recomputes
// Alice's keys by the scalar definition
//   keys[i][j] = (uint32) H_j(Eval_{jm}(p_i) ... Eval_{jm+m-1}(p_i)),
// with H_j drawn from Rng(Mix64(seed) ^ 0x6a9) as the pipeline draws them,
// and compares each distinct key against every recovered Bob key, slot by
// slot. Far rows are expected grouped by key in key order, rows ascending
// within a key.

constexpr size_t kOracleDim = 64;
constexpr size_t kOracleH = 8;
constexpr size_t kOracleM = 2;
constexpr uint64_t kOracleSeed = 77;

std::vector<SlottedSet> OracleKeys(
    const PointStore& points,
    const std::vector<std::unique_ptr<LshFunction>>& functions) {
  Rng shared(Mix64(kOracleSeed) ^ 0x6a9);
  std::vector<PairwiseVectorHash> slot_hashes;
  for (size_t j = 0; j < kOracleH; ++j) {
    slot_hashes.push_back(PairwiseVectorHash::Draw(&shared));
  }
  std::vector<SlottedSet> keys(points.size(), SlottedSet(kOracleH));
  for (size_t i = 0; i < points.size(); ++i) {
    const Point p = points.MakePoint(i);
    for (size_t j = 0; j < kOracleH; ++j) {
      std::vector<uint64_t> batch(kOracleM);
      for (size_t t = 0; t < kOracleM; ++t) {
        batch[t] = functions[j * kOracleM + t]->Eval(p);
      }
      keys[i][j] = static_cast<uint32_t>(slot_hashes[j].Eval(batch));
    }
  }
  return keys;
}

// Runs the pipeline at threshold tau and checks far_keys and transmitted
// against the oracle; returns the number of transmitted rows.
size_t ExpectFarDetectionMatchesOracle(const PointStore& alice,
                                       const PointStore& bob, double tau) {
  auto lsh = MakeGapLsh(MetricKind::kHamming, kOracleDim, 2, 16);
  EXPECT_TRUE(lsh.ok());
  if (!lsh.ok()) return 0;
  Rng draw_rng(kOracleSeed);
  const std::vector<std::unique_ptr<LshFunction>> functions =
      DrawMany(*lsh->family, kOracleH * kOracleM, &draw_rng);
  internal::GapPipelineConfig config;
  config.h = kOracleH;
  config.m = kOracleM;
  config.tau = tau;
  config.reconciler.sig_cells = 64;
  config.reconciler.elem_cells = 256;
  config.reconciler.seed = 78;
  config.seed = kOracleSeed;
  auto result = internal::RunGapPipeline(alice, bob, functions, config);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (!result.ok()) return 0;

  // Bob's recovered keys are his keys by the scalar definition, as a
  // multiset.
  std::vector<SlottedSet> recovered = result->reconciliation.bob_sets;
  std::vector<SlottedSet> bob_keys = OracleKeys(bob, functions);
  std::sort(recovered.begin(), recovered.end());
  std::sort(bob_keys.begin(), bob_keys.end());
  EXPECT_EQ(recovered, bob_keys) << "tau " << tau;

  std::map<SlottedSet, std::vector<size_t>> rows_by_key;
  const std::vector<SlottedSet> alice_keys = OracleKeys(alice, functions);
  for (size_t i = 0; i < alice_keys.size(); ++i) {
    rows_by_key[alice_keys[i]].push_back(i);
  }
  size_t far_keys = 0;
  PointStore far_rows(kOracleDim);
  for (const auto& [key, rows] : rows_by_key) {
    size_t best = 0;
    for (const SlottedSet& bob_key : result->reconciliation.bob_sets) {
      size_t count = 0;
      for (size_t j = 0; j < kOracleH; ++j) count += key[j] == bob_key[j];
      best = std::max(best, count);
    }
    if (static_cast<double>(best) < tau) {
      ++far_keys;
      for (size_t i : rows) far_rows.Append(alice.row(i));
    }
  }
  EXPECT_EQ(result->far_keys, far_keys) << "tau " << tau;
  EXPECT_EQ(result->transmitted, far_rows) << "tau " << tau;
  return result->transmitted.size();
}

TEST(GapFarOracleTest, FarDetectionMatchesPlainOracle) {
  Rng rng(79);
  const PointStore bob = GenerateUniformStore(20, kOracleDim, 1, &rng);
  // Alice: 8 of Bob's rows, 8 rows one bit away from Bob's, 6 random rows,
  // and 3 duplicated rows, so some keys have several owners.
  PointStore alice(kOracleDim);
  for (size_t i = 0; i < 8; ++i) alice.Append(bob.row(i));
  for (size_t i = 8; i < 16; ++i) {
    Coord* row = alice.AppendRow();
    std::copy(bob.row(i), bob.row(i) + kOracleDim, row);
    row[i] ^= 1;
  }
  alice.AppendStore(GenerateUniformStore(6, kOracleDim, 1, &rng));
  for (size_t i : {size_t{2}, size_t{9}, size_t{17}}) {
    const Point dup = alice.MakePoint(i);
    alice.Append(dup);
  }

  const double h = static_cast<double>(kOracleH);
  size_t previous = 0;
  // tau <= 1 flags only keys sharing no slot with any Bob key; tau = h
  // flags every key without an exact match. More rows go far as tau grows.
  for (double tau : {0.0, 0.5, 1.0, h / 2 + 0.5, h - 1, h}) {
    const size_t sent = ExpectFarDetectionMatchesOracle(alice, bob, tau);
    EXPECT_GE(sent, previous) << "tau " << tau;
    previous = sent;
  }
  // Alice's copies of Bob's rows match exactly, so even tau = h keeps them.
  EXPECT_LT(previous, alice.size());
  EXPECT_GT(previous, 0u);
}

TEST(GapFarOracleTest, EmptySidesMatchPlainOracle) {
  Rng rng(80);
  const PointStore points = GenerateUniformStore(12, kOracleDim, 1, &rng);
  const PointStore empty(kOracleDim);
  const double h = static_cast<double>(kOracleH);
  for (double tau : {0.5, 1.0, h}) {
    // An empty Bob leaves every Alice key at best count 0: all far.
    EXPECT_EQ(ExpectFarDetectionMatchesOracle(points, empty, tau),
              points.size());
    // An empty Alice has nothing to flag.
    EXPECT_EQ(ExpectFarDetectionMatchesOracle(empty, points, tau), 0u);
  }
}

}  // namespace
}  // namespace rsr

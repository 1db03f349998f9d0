// End-to-end tests for the Gap Guarantee protocol (Theorem 4.2) and its
// low-dimension variant (Theorem 4.5).
//
// The defining property (Definition 4.1): after the protocol, every point of
// S_A is within r2 of some point of S'_B = S_B ∪ T_A.
#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "alloc_counter.h"
#include "core/gap_lowdim.h"
#include "core/gap_protocol.h"
#include "hashing/hash64.h"
#include "hashing/pairwise.h"
#include "lsh/bit_sampling.h"
#include "lsh/eval_pipeline.h"
#include "lsh/one_sided_grid.h"
#include "util/random.h"
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

// The gap_hamming shape (dim 1024, r1 = 4, r2 = 192, h = 4 log2 n) at two
// sizes. Both parties' keys and the recovered multiset are one heap vector
// per point, about 1.5 allocations per input row; the whole exchange
// measures 2.0 per row at n = 512 and 1.6 at n = 4096. Per-slot or
// per-candidate allocation while rebuilding Bob's differing sets, or a
// node-based map over keys or elements, put it at 14.8 and 18.0.
TEST(GapProtocolTest, AllocationsPerInputRowStayBounded) {
  for (size_t n : {size_t{512}, size_t{4096}}) {
    NoisyPairConfig config;
    config.metric = MetricKind::kHamming;
    config.dim = 1024;
    config.delta = 1;
    config.n = n;
    config.outliers = 4;
    config.noise = 2;
    config.outlier_dist = 320;
    config.seed = 31 + n;
    auto workload = GenerateNoisyPairStore(config);
    ASSERT_TRUE(workload.ok());
    GapProtocolParams params = HammingParams(1024, 4, 192, 4, 17);
    params.h_multiplier = 4;
    params.reconciler.mode = SetsReconcilerMode::kFingerprint;

    const long long before = ::rsr::testing::AllocationCount();
    auto report = RunGapProtocol(workload->alice, workload->bob, params);
    const long long allocations = ::rsr::testing::AllocationCount() - before;
    ASSERT_TRUE(report.ok());
    EXPECT_GT(report->reconciliation.diff_sets_bob, n / 8);
    const double rows =
        static_cast<double>(workload->alice.size() + workload->bob.size());
    const double per_row = static_cast<double>(allocations) / rows;
    EXPECT_LT(per_row, 3.0) << "n = " << n << ": " << allocations
                            << " allocations";
  }
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

// h = ceil(h_multiplier * ...) is checked before it becomes a size: a
// negative, NaN or infinite multiplier, or one that makes h reach kMaxSlots,
// is InvalidArgument on both entry points; 0 clamps h to its floor.
TEST(GapProtocolTest, HMultiplierOutsideRangeRejected) {
  Rng rng(6);
  const PointStore pts = GenerateUniformStore(16, 64, 1, &rng);
  GapProtocolParams general = HammingParams(64, 1, 16, 1, 31);
  LowDimGapParams low;
  low.metric = MetricKind::kL1;
  low.dim = 64;
  low.delta = 1;
  low.r1 = 1;
  low.r2 = 256;  // rho_hat = 1/4
  low.seed = 32;
  for (double multiplier : {-1.0, std::numeric_limits<double>::quiet_NaN(),
                            std::numeric_limits<double>::infinity(), 1e7}) {
    general.h_multiplier = multiplier;
    low.h_multiplier = multiplier;
    auto general_report = RunGapProtocol(pts, pts, general);
    ASSERT_FALSE(general_report.ok()) << multiplier;
    EXPECT_EQ(general_report.status().code(), StatusCode::kInvalidArgument);
    auto low_report = RunLowDimGapProtocol(pts, pts, low);
    ASSERT_FALSE(low_report.ok()) << multiplier;
    EXPECT_EQ(low_report.status().code(), StatusCode::kInvalidArgument);
  }
  general.h_multiplier = 0;
  low.h_multiplier = 0;
  auto general_report = RunGapProtocol(pts, pts, general);
  ASSERT_TRUE(general_report.ok()) << general_report.status().ToString();
  EXPECT_EQ(general_report->derived.h, 2u);
  auto low_report = RunLowDimGapProtocol(pts, pts, low);
  ASSERT_TRUE(low_report.ok()) << low_report.status().ToString();
  EXPECT_EQ(low_report->derived.h, 1u);
}

// ---- Input checks: dims up front, coordinates block by block -------------
//
// Both entry points range-check every coordinate inside the blocked key
// build, before any LSH function reads it. A coordinate of delta + 1 or -1
// must abort wherever it sits: in Alice's first row, in a middle block, or
// in Bob's last row, with n = 37 not a multiple of the 16-row block at
// dim 1024, at 1 and 3 threads.

constexpr size_t kCheckDim = 1024;
constexpr size_t kCheckRows = 37;

/// A copy of `points` with coordinate `coord` of row `row` set to `value`.
PointStore WithCoordinate(const PointStore& points, size_t row, size_t coord,
                          Coord value) {
  PointStore out(points.dim());
  for (size_t i = 0; i < points.size(); ++i) {
    Coord* dst = out.AppendRow();
    std::copy(points.row(i), points.row(i) + points.dim(), dst);
    if (i == row) dst[coord] = value;
  }
  return out;
}

GapProtocolParams CheckGapParams(size_t threads) {
  GapProtocolParams params = HammingParams(kCheckDim, 4, 192, 2, 91);
  params.num_threads = threads;
  return params;
}

LowDimGapParams CheckLowDimParams(size_t threads) {
  LowDimGapParams params;
  params.metric = MetricKind::kL1;
  params.dim = kCheckDim;
  params.delta = 1;
  params.r1 = 1;
  params.r2 = 4096;  // rho_hat = 1/4
  params.seed = 92;
  params.num_threads = threads;
  return params;
}

TEST(GapInputCheckDeathTest, OutOfDomainCoordinateAborts) {
  Rng rng(93);
  const PointStore alice = GenerateUniformStore(kCheckRows, kCheckDim, 1, &rng);
  const PointStore bob = GenerateUniformStore(kCheckRows, kCheckDim, 1, &rng);
  for (size_t threads : {size_t{1}, size_t{3}}) {
    // The unedited inputs run through.
    ASSERT_TRUE(RunGapProtocol(alice, bob, CheckGapParams(threads)).ok());
    ASSERT_TRUE(
        RunLowDimGapProtocol(alice, bob, CheckLowDimParams(threads)).ok());
  }
  struct Place {
    bool bob;
    size_t row;
    size_t coord;
  };
  const Place places[] = {
      {false, 0, 0},                         // Alice's first row
      {false, 20, 517},                      // the middle block [16, 32)
      {true, kCheckRows - 1, kCheckDim - 1},  // Bob's last row, short block
  };
  for (const Place& place : places) {
    for (Coord value : {Coord{2}, Coord{-1}}) {  // delta + 1 and -1
      const PointStore& source = place.bob ? bob : alice;
      const PointStore bad =
          WithCoordinate(source, place.row, place.coord, value);
      const PointStore& a = place.bob ? alice : bad;
      const PointStore& b = place.bob ? bad : bob;
      for (size_t threads : {size_t{1}, size_t{3}}) {
        SCOPED_TRACE(::testing::Message()
                     << (place.bob ? "bob" : "alice") << " row "
                     << place.row << " value " << value << " threads "
                     << threads);
        EXPECT_DEATH(
            { (void)RunGapProtocol(a, b, CheckGapParams(threads)); },
            "RowInDomain");
        EXPECT_DEATH(
            {
              (void)RunLowDimGapProtocol(a, b, CheckLowDimParams(threads));
            },
            "RowInDomain");
      }
    }
  }
}

// A store of the wrong dim aborts at the entry point's own check, before
// any key is built (a later check would abort only after the exchange).
TEST(GapInputCheckDeathTest, DimMismatchAborts) {
  const char* const kDimCheck = "dim\\(\\) == params\\.dim";
  Rng rng(94);
  const PointStore points = GenerateUniformStore(8, kCheckDim, 1, &rng);
  const PointStore narrow = GenerateUniformStore(8, kCheckDim - 1, 1, &rng);
  for (size_t threads : {size_t{1}, size_t{3}}) {
    EXPECT_DEATH(
        { (void)RunGapProtocol(points, narrow, CheckGapParams(threads)); },
        kDimCheck);
    EXPECT_DEATH(
        { (void)RunGapProtocol(narrow, points, CheckGapParams(threads)); },
        kDimCheck);
    EXPECT_DEATH(
        {
          (void)RunLowDimGapProtocol(points, narrow,
                                     CheckLowDimParams(threads));
        },
        kDimCheck);
    EXPECT_DEATH(
        {
          (void)RunLowDimGapProtocol(narrow, points,
                                     CheckLowDimParams(threads));
        },
        kDimCheck);
  }
}

// ---- internal::BuildGapKeys against the matrix build ----------------------
//
// The blocked key build must give exactly the keys of the plain two-step
// build: one whole-store EvaluateAllInto matrix, then per slot j one
// EvalBatch over its columns [j*m, (j+1)*m) and a 32-bit truncation.

std::vector<SlottedSet> MatrixGapKeys(
    const PointStore& points,
    const std::vector<std::unique_ptr<LshFunction>>& functions,
    const std::vector<PairwiseVectorHash>& slot_hashes, size_t m) {
  const size_t h = slot_hashes.size();
  const size_t cols = h * m;
  EvalMatrix evals;
  EvaluateAllInto(points, functions, 1, &evals);
  std::vector<SlottedSet> keys(points.size(), SlottedSet(h));
  std::vector<uint64_t> slot_keys(points.size());
  for (size_t j = 0; j < h; ++j) {
    slot_hashes[j].EvalBatch(evals.data() + j * m, points.size(), cols, m,
                             slot_keys.data());
    for (size_t i = 0; i < points.size(); ++i) {
      keys[i][j] = static_cast<uint32_t>(slot_keys[i]);
    }
  }
  return keys;
}

TEST(GapKeysTest, BlockedBuildMatchesMatrixBuild) {
  for (size_t dim : {size_t{1}, size_t{7}, size_t{1024}, size_t{1025}}) {
    // Bit sampling at the gap_hamming key shape (h = 44, m = 4: 186 rows
    // per block at small dim, 16 at dim 1024) and the one-sided grid of the
    // low-dimension variant (m = 1, column-transposed evaluation).
    const BitSamplingFamily bits(dim, static_cast<double>(dim));
    const OneSidedGridFamily grid(dim, 8.0 * static_cast<double>(dim), 1);
    struct Case {
      const LshFamily* family;
      Coord delta;
      size_t h;
      size_t m;
    };
    for (const Case& c : {Case{&bits, 1, 44, 4}, Case{&grid, 255, 9, 1}}) {
      Rng draw_rng(100 + dim);
      const std::vector<std::unique_ptr<LshFunction>> functions =
          DrawMany(*c.family, c.h * c.m, &draw_rng);
      Rng hash_rng(200 + dim);
      std::vector<PairwiseVectorHash> slot_hashes;
      for (size_t j = 0; j < c.h; ++j) {
        slot_hashes.push_back(PairwiseVectorHash::Draw(&hash_rng));
      }
      for (size_t n : {size_t{0}, size_t{1}, size_t{15}, size_t{16},
                       size_t{17}, size_t{301}}) {
        Rng rng(300 + 7 * n + dim);
        const PointStore points = GenerateUniformStore(n, dim, c.delta, &rng);
        const std::vector<SlottedSet> expected =
            MatrixGapKeys(points, functions, slot_hashes, c.m);
        for (size_t threads : {size_t{1}, size_t{3}}) {
          EXPECT_EQ(internal::BuildGapKeys(points, c.delta, functions,
                                           slot_hashes, c.m, threads),
                    expected)
              << c.family->Name() << " dim " << dim << " n " << n
              << " threads " << threads;
        }
      }
    }
  }
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

// ---- internal::DetectFarKeys against a plain all-pairs count -------------
//
// The pigeonhole filter must return exactly what counting matching slots of
// every Alice key against every Bob key returns: the same far keys, in key
// order, rows ascending within a key.

internal::FarDetection PlainFarDetection(
    const std::vector<SlottedSet>& alice_keys,
    const std::vector<SlottedSet>& bob_keys, double tau) {
  std::map<SlottedSet, std::vector<size_t>> rows_by_key;
  for (size_t i = 0; i < alice_keys.size(); ++i) {
    rows_by_key[alice_keys[i]].push_back(i);
  }
  internal::FarDetection far;
  for (const auto& [key, rows] : rows_by_key) {
    size_t best = 0;
    for (const SlottedSet& bob_key : bob_keys) {
      size_t count = 0;
      for (size_t j = 0; j < key.size(); ++j) count += key[j] == bob_key[j];
      best = std::max(best, count);
    }
    if (static_cast<double>(best) < tau) {
      ++far.far_keys;
      far.far_rows.insert(far.far_rows.end(), rows.begin(), rows.end());
    }
  }
  return far;
}

void ExpectSameAsPlain(const std::vector<SlottedSet>& alice_keys,
                       const std::vector<SlottedSet>& bob_keys, double tau) {
  const internal::FarDetection got =
      internal::DetectFarKeys(alice_keys, bob_keys, tau);
  const internal::FarDetection want =
      PlainFarDetection(alice_keys, bob_keys, tau);
  EXPECT_EQ(got.far_keys, want.far_keys) << "tau " << tau;
  EXPECT_EQ(got.far_rows, want.far_rows) << "tau " << tau;
}

// Group g of G = h - need + 1 spans slots [g*h/G, (g+1)*h/G).
size_t GroupBegin(size_t g, size_t h, size_t need) {
  return g * h / (h - need + 1);
}

// h = 10, tau = 7: need = 7 gives G = 4 groups of sizes 2, 3, 2, 3 (h not
// divisible by G). A Bob key differing in one slot of every group but one
// matches in exactly need slots and keeps Alice's key close; one more
// difference, in the group left intact, makes it far.
TEST(GapFarFilterTest, PigeonholeBoundaryAtExactlyNeedMatches) {
  constexpr size_t kH = 10;
  constexpr size_t kNeed = 7;
  constexpr size_t kGroups = kH - kNeed + 1;
  const SlottedSet alice_key = {11, 12, 13, 14, 15, 16, 17, 18, 19, 20};
  for (double tau : {7.0, 6.5, 6.01}) {  // ceil(tau) = need
    for (size_t intact = 0; intact < kGroups; ++intact) {
      // Vary which slot of each changed group differs: first or last.
      for (bool last : {false, true}) {
        SlottedSet close = alice_key;
        for (size_t g = 0; g < kGroups; ++g) {
          if (g == intact) continue;
          const size_t slot = last ? GroupBegin(g + 1, kH, kNeed) - 1
                                   : GroupBegin(g, kH, kNeed);
          close[slot] += 100;
        }
        SlottedSet far = close;
        far[GroupBegin(intact, kH, kNeed)] += 100;

        const internal::FarDetection kept =
            internal::DetectFarKeys({alice_key}, {far, close}, tau);
        EXPECT_EQ(kept.far_keys, 0u) << "tau " << tau << " intact " << intact;
        ExpectSameAsPlain({alice_key}, {far, close}, tau);

        const internal::FarDetection flagged =
            internal::DetectFarKeys({alice_key}, {far}, tau);
        EXPECT_EQ(flagged.far_keys, 1u)
            << "tau " << tau << " intact " << intact;
        EXPECT_EQ(flagged.far_rows, std::vector<size_t>{0});
        ExpectSameAsPlain({alice_key}, {far}, tau);
      }
    }
  }
}

TEST(GapFarFilterTest, ThresholdsOutsideTheFilteredRange) {
  const std::vector<SlottedSet> alice = {{1, 2, 3, 4}, {5, 6, 7, 8},
                                         {1, 2, 3, 4}};
  const std::vector<SlottedSet> bob = {{1, 2, 3, 4}, {9, 9, 9, 9}};
  // tau <= 0: nothing is far, not even a key sharing no slot with Bob.
  for (double tau : {0.0, -1.0, -0.5}) {
    EXPECT_EQ(internal::DetectFarKeys(alice, bob, tau).far_keys, 0u);
    ExpectSameAsPlain(alice, bob, tau);
  }
  // tau > h: every key is far, an exact match included. tau = h keeps only
  // exact matches.
  for (double tau : {4.5, 5.0, 100.0}) {
    const internal::FarDetection far = internal::DetectFarKeys(alice, bob, tau);
    EXPECT_EQ(far.far_keys, 2u) << "tau " << tau;
    EXPECT_EQ(far.far_rows, (std::vector<size_t>{0, 2, 1})) << "tau " << tau;
    ExpectSameAsPlain(alice, bob, tau);
  }
  EXPECT_EQ(internal::DetectFarKeys(alice, bob, 4.0).far_rows,
            std::vector<size_t>{1});
  ExpectSameAsPlain(alice, bob, 4.0);
  // tau = 1, the low-dimension threshold: far iff no slot matches any Bob
  // key (G = h one-slot groups).
  const std::vector<SlottedSet> one_shared = {{0, 0, 3, 0}, {0, 0, 0, 0}};
  const internal::FarDetection low =
      internal::DetectFarKeys(one_shared, bob, 1.0);
  EXPECT_EQ(low.far_rows, std::vector<size_t>{1});
  ExpectSameAsPlain(one_shared, bob, 1.0);
  ExpectSameAsPlain(one_shared, bob, 0.5);
}

TEST(GapFarFilterTest, EmptySides) {
  const std::vector<SlottedSet> keys = {{3, 1, 2}, {1, 1, 1}, {3, 1, 2}};
  const std::vector<SlottedSet> none;
  // An empty Bob leaves every best count at 0: far iff tau > 0.
  const internal::FarDetection all = internal::DetectFarKeys(keys, none, 0.5);
  EXPECT_EQ(all.far_keys, 2u);
  EXPECT_EQ(all.far_rows, (std::vector<size_t>{1, 0, 2}));
  for (double tau : {0.0, 0.5, 1.0, 3.0, 4.0}) {
    ExpectSameAsPlain(keys, none, tau);
    ExpectSameAsPlain(none, keys, tau);
    EXPECT_TRUE(internal::DetectFarKeys(none, keys, tau).far_rows.empty());
  }
  EXPECT_EQ(internal::DetectFarKeys(keys, none, 0.0).far_keys, 0u);
}

TEST(GapFarFilterTest, DuplicateKeysAndSharedSubKeys) {
  // 12 slots, tau = 9: G = 4 groups of 3. Every key holds 7 in slots 0-2,
  // so each Bob key is a candidate of every Alice key through group 0, and
  // again through a later group whenever the two also agree there. Bob's
  // keys, each present twice, share one group-1 sub-key among themselves.
  // The last Bob key is Alice's key 3 with one slot changed.
  constexpr size_t kH = 12;
  Rng rng(81);
  auto random_key = [&] {
    SlottedSet key(kH);
    for (auto& v : key) v = static_cast<uint32_t>(rng.Below(4));
    key[0] = key[1] = key[2] = 7;
    return key;
  };
  std::vector<SlottedSet> alice;
  for (size_t i = 0; i < 20; ++i) alice.push_back(random_key());
  // Duplicate Alice rows at scattered positions: rows ascend within a key.
  alice.push_back(alice[3]);
  alice.push_back(alice[0]);
  alice.insert(alice.begin() + 5, alice[3]);
  std::vector<SlottedSet> bob;
  for (size_t i = 0; i < 300; ++i) {
    SlottedSet key = random_key();
    key[3] = key[4] = key[5] = 9;  // shared group-1 sub-key
    bob.push_back(key);
    bob.push_back(key);  // duplicate Bob keys
  }
  SlottedSet near = alice[3];
  near[11] += 1;
  bob.push_back(near);
  for (double tau : {1.0, 3.5, 6.0, 9.0, 11.0, 12.0}) {
    ExpectSameAsPlain(alice, bob, tau);
  }
}

TEST(GapFarFilterTest, RandomKeysMatchPlainCount) {
  // Small alphabets make partial matches common, so every threshold sees
  // close keys, far keys and candidates that fail verification.
  Rng rng(82);
  const size_t slot_counts[] = {1, 2, 5, 7, 13, 44};
  const uint64_t alphabets[] = {2, 3, 16};
  for (size_t h : slot_counts) {
    for (uint64_t alphabet : alphabets) {
      std::vector<SlottedSet> bob(40, SlottedSet(h));
      for (auto& key : bob) {
        for (auto& v : key) v = static_cast<uint32_t>(rng.Below(alphabet));
      }
      std::vector<SlottedSet> alice;
      for (size_t i = 0; i < 40; ++i) {
        SlottedSet key = bob[rng.Below(bob.size())];
        for (auto& v : key) {
          if (rng.Below(4) == 0) v = static_cast<uint32_t>(rng.Below(alphabet));
        }
        alice.push_back(key);
      }
      const double hd = static_cast<double>(h);
      for (double tau : {0.5, 1.0, hd / 3, hd / 2 + 0.25, hd - 1, hd, hd + 1}) {
        ExpectSameAsPlain(alice, bob, tau);
      }
    }
  }
}

// Keys of the gap_hamming shape: h = 44 slots of 16 values, Alice's keys
// near twins of Bob's (about one slot in 64 changed), every 64th one far.
std::vector<SlottedSet> NearTwinKeys(const std::vector<SlottedSet>& bob,
                                     Rng* rng) {
  std::vector<SlottedSet> alice = bob;
  for (size_t i = 0; i < alice.size(); ++i) {
    for (auto& v : alice[i]) {
      if (i % 64 == 63 || rng->Below(64) == 0) {
        v = static_cast<uint32_t>(rng->Below(16));
      }
    }
  }
  return alice;
}

TEST(GapFarFilterTest, AllocationsDoNotGrowWithKeyCount) {
  constexpr size_t kH = 44;
  constexpr double kTau = 31.24;
  Rng rng(83);
  long long allocations[2] = {0, 0};
  size_t far_keys[2] = {0, 0};
  const size_t sizes[2] = {512, 4096};
  for (size_t s = 0; s < 2; ++s) {
    std::vector<SlottedSet> bob(sizes[s], SlottedSet(kH));
    for (auto& key : bob) {
      for (auto& v : key) v = static_cast<uint32_t>(rng.Below(16));
    }
    const std::vector<SlottedSet> alice = NearTwinKeys(bob, &rng);
    const long long before = ::rsr::testing::AllocationCount();
    const internal::FarDetection far =
        internal::DetectFarKeys(alice, bob, kTau);
    allocations[s] = ::rsr::testing::AllocationCount() - before;
    far_keys[s] = far.far_keys;
  }
  EXPECT_GT(far_keys[0], 0u);
  EXPECT_GT(far_keys[1], far_keys[0]);
  // A handful of flat buffers, whatever the key count: no per-key map node,
  // key copy or posting list.
  EXPECT_EQ(allocations[1], allocations[0]);
  EXPECT_LE(allocations[1], 8);
}

}  // namespace
}  // namespace rsr

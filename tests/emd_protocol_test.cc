// End-to-end tests for the EMD protocol (Algorithm 1 / Theorem 3.4) and the
// multiscale runner (Corollaries 3.5/3.6).
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "alloc_counter.h"
#include "core/emd_multiscale.h"
#include "core/emd_protocol.h"
#include "core/emd_sketch.h"
#include "emd/emd.h"
#include "hashing/hash64.h"
#include "workload/generators.h"

namespace rsr {
namespace {

EmdProtocolParams BaseParams(MetricKind metric, size_t dim, Coord delta,
                             size_t k, uint64_t seed) {
  EmdProtocolParams params;
  params.metric = metric;
  params.dim = dim;
  params.delta = delta;
  params.k = k;
  params.seed = seed;
  return params;
}

TEST(EmdParamsTest, DeriveValidatesInputs) {
  EmdProtocolParams params = BaseParams(MetricKind::kL1, 0, 10, 1, 1);
  EXPECT_FALSE(DeriveEmdParameters(params, 10).ok());
  params = BaseParams(MetricKind::kL1, 4, 10, 1, 1);
  params.num_hashes = 2;
  EXPECT_FALSE(DeriveEmdParameters(params, 10).ok());
  params.num_hashes = 3;
  params.d1 = 100;
  params.d2 = 10;
  EXPECT_FALSE(DeriveEmdParameters(params, 10).ok());
}

TEST(EmdParamsTest, DerivedQuantitiesFollowTheorem34) {
  EmdProtocolParams params = BaseParams(MetricKind::kL1, 4, 100, 8, 1);
  params.d1 = 10;
  params.d2 = 40;
  auto derived = DeriveEmdParameters(params, 64);
  ASSERT_TRUE(derived.ok());
  // p >= e^{-k/(24 D2)}.
  EXPECT_GE(derived->p, std::exp(-8.0 / (24.0 * 40.0)) - 1e-12);
  // t = ceil(log2(D2/D1)) + 1 = 3.
  EXPECT_EQ(derived->levels, 3u);
  // m = 4 q^2 k = 4*9*8.
  EXPECT_EQ(derived->cells, 4u * 9u * 8u);
  // Prefix lengths double per level and cap at s.
  size_t prev = 0;
  for (size_t level = 1; level <= derived->levels; ++level) {
    size_t len = LevelPrefixLength(*derived, level);
    EXPECT_GE(len, prev);
    EXPECT_LE(len, derived->s);
    prev = len;
  }
  EXPECT_EQ(LevelPrefixLength(*derived, derived->levels), derived->s);
}

TEST(EmdProtocolTest, RejectsMismatchedSizes) {
  Rng rng(1);
  PointStore a = GenerateUniformStore(4, 2, 10, &rng);
  PointStore b = GenerateUniformStore(5, 2, 10, &rng);
  auto report =
      RunEmdProtocol(a, b, BaseParams(MetricKind::kL1, 2, 10, 1, 1));
  EXPECT_FALSE(report.ok());
}

// A sketch set served under parameters that derive another layout would
// put undecodable bytes on the wire; the serving entry point refuses it
// before any message is written.
TEST(EmdProtocolTest, PrebuiltRejectsSketchSetFromOtherDerivedParameters) {
  Rng rng(12);
  PointStore alice = GenerateUniformStore(40, 3, 63, &rng);
  PointStore bob = GenerateUniformStore(40, 3, 63, &rng);
  EmdProtocolParams built = BaseParams(MetricKind::kL1, 3, 63, 2, 5);
  built.d1 = 1;
  built.d2 = 8;
  auto set = BuildEmdSketches(alice, built, /*build_estimators=*/false);
  ASSERT_TRUE(set.ok());
  ASSERT_TRUE(RunEmdProtocolPrebuilt(*set, bob, built).ok());

  EmdProtocolParams other_k = built;
  other_k.k = 4;  // derived.cells = 4 q^2 k moves
  auto derived_k = DeriveEmdParameters(other_k, alice.size());
  ASSERT_TRUE(derived_k.ok());
  ASSERT_NE(derived_k->cells, set->derived.cells);
  auto report = RunEmdProtocolPrebuilt(*set, bob, other_k);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);

  EmdProtocolParams other_d2 = built;
  other_d2.d2 = 64;  // t = ceil(log2(D2/D1)) + 1 moves
  auto derived_d2 = DeriveEmdParameters(other_d2, alice.size());
  ASSERT_TRUE(derived_d2.ok());
  ASSERT_NE(derived_d2->levels, set->derived.levels);
  report = RunEmdProtocolPrebuilt(*set, bob, other_d2);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
}

// The two steps need nothing from each other but bytes: each party derives
// its own public-coin state from (params, its own n), and only copies of the
// serialized messages cross. The report and the transcript match the
// one-shot protocol's, which carries the same messages in-process.
TEST(EmdStepTest, MessagesAloneCarryAnAdaptiveExchange) {
  NoisyPairConfig config;
  config.metric = MetricKind::kL2;
  config.dim = 8;
  config.delta = 1023;
  config.n = 160;
  config.outliers = 6;
  config.noise = 2.0;
  config.outlier_dist = 150;
  config.seed = 77;
  auto in = GenerateNoisyPairStore(config);
  ASSERT_TRUE(in.ok());
  for (WireCodec codec : {WireCodec::kClassic, WireCodec::kCompact}) {
    EmdProtocolParams params = BaseParams(MetricKind::kL2, 8, 1023, 6, 78);
    params.d1 = 4;
    params.d2 = 1024;
    params.adaptive.enabled = true;
    params.adaptive.rounding = CellRounding::kExact;
    params.codec = codec;

    auto bob_derived = DeriveEmdParameters(params, in->bob.size());
    ASSERT_TRUE(bob_derived.ok());
    const EmdHashes bob_hashes = MakeEmdHashes(params, *bob_derived);
    const EmdReceiver bob(in->bob, params, *bob_derived, bob_hashes);

    auto alice_derived = DeriveEmdParameters(params, in->alice.size());
    ASSERT_TRUE(alice_derived.ok());
    const EmdHashes alice_hashes = MakeEmdHashes(params, *alice_derived);
    EmdSender alice =
        EmdSender::Cold(in->alice, params, *alice_derived, alice_hashes);

    ByteWriter to_alice;
    bob.WriteEstimatorMessage(&to_alice);
    const std::vector<uint8_t> estimators = to_alice.buffer();
    ASSERT_TRUE(alice.ReadEstimatorMessage(estimators).ok());
    ByteWriter to_bob;
    ASSERT_TRUE(alice.WriteTables(&to_bob).ok());
    const std::vector<uint8_t> sketches = to_bob.buffer();
    auto stepped = bob.Reconcile(sketches);
    ASSERT_TRUE(stepped.ok()) << stepped.status().ToString();

    auto one_shot = RunEmdProtocol(in->alice, in->bob, params);
    ASSERT_TRUE(one_shot.ok());
    ASSERT_FALSE(one_shot->failure);
    const std::vector<MessageRecord>& sent = one_shot->comm.messages;
    ASSERT_EQ(sent.size(), 2u);
    EXPECT_EQ(sent[0].label, "B->A level strata");
    EXPECT_EQ(sent[0].bytes, estimators.size());
    EXPECT_EQ(sent[0].codec, codec);
    EXPECT_EQ(sent[1].label, "A->B level RIBLTs");
    EXPECT_EQ(sent[1].bytes, sketches.size());
    EXPECT_EQ(sent[1].codec, codec);
    EXPECT_TRUE(stepped->comm.messages.empty());

    EXPECT_EQ(stepped->failure, one_shot->failure);
    EXPECT_EQ(stepped->decoded_level, one_shot->decoded_level);
    EXPECT_EQ(stepped->level_cells, one_shot->level_cells);
    ASSERT_EQ(stepped->levels.size(), one_shot->levels.size());
    for (size_t l = 0; l < stepped->levels.size(); ++l) {
      EXPECT_EQ(stepped->levels[l].prefix_len, one_shot->levels[l].prefix_len);
      EXPECT_EQ(stepped->levels[l].decoded, one_shot->levels[l].decoded);
      EXPECT_EQ(stepped->levels[l].pairs_alice,
                one_shot->levels[l].pairs_alice);
      EXPECT_EQ(stepped->levels[l].pairs_bob, one_shot->levels[l].pairs_bob);
    }
    EXPECT_EQ(stepped->x_a, one_shot->x_a);
    EXPECT_EQ(stepped->x_b, one_shot->x_b);
    EXPECT_EQ(stepped->s_b_prime, one_shot->s_b_prime);
    EXPECT_EQ(stepped->trimmed_from_x_a, one_shot->trimmed_from_x_a);
    EXPECT_EQ(stepped->kept_in_y_b, one_shot->kept_in_y_b);
    // The exchange really negotiated: some level is below the static cap.
    EXPECT_LT(*std::min_element(stepped->level_cells.begin(),
                                stepped->level_cells.end()),
              stepped->derived.cells);
  }
}

TEST(EmdProtocolTest, IdenticalSetsReconcileToThemselves) {
  Rng rng(2);
  PointStore pts = GenerateUniformStore(32, 3, 63, &rng);
  EmdProtocolParams params = BaseParams(MetricKind::kL1, 3, 63, 2, 7);
  params.d1 = 1;
  params.d2 = 8;
  auto report = RunEmdProtocol(pts, pts, params);
  ASSERT_TRUE(report.ok());
  ASSERT_FALSE(report->failure);
  EXPECT_EQ(report->s_b_prime.size(), pts.size());
  EXPECT_EQ(EmdExact(pts, report->s_b_prime, Metric(MetricKind::kL1)), 0.0);
}

TEST(EmdProtocolTest, SingleRoundAndCommMatchesFormulaShape) {
  Rng rng(3);
  PointStore pts = GenerateUniformStore(64, 4, 127, &rng);
  EmdProtocolParams params = BaseParams(MetricKind::kL1, 4, 127, 4, 9);
  params.d1 = 4;
  params.d2 = 64;
  auto report = RunEmdProtocol(pts, pts, params);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->comm.rounds(), 1);  // one-way protocol
  // Bits should scale like t * cells * d * log(n Delta): sanity-bound it
  // within a generous constant factor window.
  double cells = static_cast<double>(report->derived.cells);
  double t = static_cast<double>(report->derived.levels);
  double per_cell_bits = 4.0 * 64.0;  // d coords, generous per-coord bits
  EXPECT_LT(static_cast<double>(report->comm.total_bits()),
            t * cells * (per_cell_bits + 384.0) * 2.0);
  EXPECT_GT(static_cast<double>(report->comm.total_bits()),
            t * cells * 8.0);
}

TEST(EmdProtocolTest, RecoversOutlierDifferences) {
  // Bob's set = Alice's set except k points replaced by far outliers: the
  // protocol should bring Bob's set within O(log n)*EMD_k of Alice's.
  const size_t n = 48, k = 2;
  int successes = 0;
  const int kTrials = 10;
  double ratio_sum = 0;
  int ratio_count = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    NoisyPairConfig config;
    config.metric = MetricKind::kL1;
    config.dim = 2;
    config.delta = 2047;  // l1 balls of radius 60 need room for rejection
    config.n = n;
    config.outliers = k;
    config.noise = 0;  // exact shared ground truth; only outliers differ
    config.outlier_dist = 60;
    config.seed = static_cast<uint64_t>(1000 + trial);
    auto workload = GenerateNoisyPairStore(config);
    ASSERT_TRUE(workload.ok());

    EmdProtocolParams params =
        BaseParams(MetricKind::kL1, 2, 2047, k, static_cast<uint64_t>(2000 + trial));
    Metric metric(MetricKind::kL1);
    double emdk = EmdK(workload->alice, workload->bob, metric, k);
    params.d1 = 1;
    params.d2 = 2048;
    auto report = RunEmdProtocol(workload->alice, workload->bob, params);
    ASSERT_TRUE(report.ok());
    if (report->failure) continue;
    ++successes;
    double before = EmdExact(workload->alice, workload->bob, metric);
    double after = EmdExact(workload->alice, report->s_b_prime, metric);
    EXPECT_LT(after, before) << "protocol should improve EMD";
    if (emdk > 0) {
      ratio_sum += after / std::max(emdk, 1.0);
      ++ratio_count;
    } else {
      // EMD_k == 0: after should be small relative to before.
      EXPECT_LT(after, before / 2);
    }
  }
  EXPECT_GE(successes, 7);  // paper: failure prob <= 1/8 per run
  if (ratio_count > 0) {
    EXPECT_LT(ratio_sum / ratio_count, 50.0) << "approx ratio out of range";
  }
}

TEST(EmdProtocolTest, FailureReportedWhenD2TooSmall) {
  // Sets differing by far more than D2 allows: every level overloads, and
  // the protocol must report failure honestly rather than emit garbage.
  Rng rng(4);
  PointStore a = GenerateUniformStore(64, 2, 255, &rng);
  PointStore b = GenerateUniformStore(64, 2, 255, &rng);
  EmdProtocolParams params = BaseParams(MetricKind::kL1, 2, 255, 1, 11);
  params.d1 = 1;
  params.d2 = 2;  // absurdly tight
  auto report = RunEmdProtocol(a, b, params);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->failure);
  EXPECT_EQ(report->decoded_level, 0u);
}

TEST(EmdProtocolTest, OutputSizeAlwaysN) {
  Rng rng(5);
  for (int trial = 0; trial < 5; ++trial) {
    NoisyPairConfig config;
    config.metric = MetricKind::kL2;
    config.dim = 3;
    config.delta = 127;
    config.n = 40;
    config.outliers = 2;
    config.noise = 1.0;
    config.outlier_dist = 40;
    config.seed = static_cast<uint64_t>(3000 + trial);
    auto workload = GenerateNoisyPairStore(config);
    ASSERT_TRUE(workload.ok());
    EmdProtocolParams params =
        BaseParams(MetricKind::kL2, 3, 127, 2, static_cast<uint64_t>(4000 + trial));
    params.d1 = 8;
    params.d2 = 512;
    auto report = RunEmdProtocol(workload->alice, workload->bob, params);
    ASSERT_TRUE(report.ok());
    if (!report->failure) {
      EXPECT_EQ(report->s_b_prime.size(), workload->alice.size());
      ValidatePointStore(report->s_b_prime, 3, 127);
    }
  }
}

TEST(EmdProtocolTest, DeterministicGivenSeed) {
  Rng rng(6);
  PointStore a = GenerateUniformStore(24, 2, 63, &rng);
  PointStore b = GenerateUniformStore(24, 2, 63, &rng);
  EmdProtocolParams params = BaseParams(MetricKind::kL1, 2, 63, 4, 42);
  params.d1 = 16;
  params.d2 = 256;
  auto r1 = RunEmdProtocol(a, b, params);
  auto r2 = RunEmdProtocol(a, b, params);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1->failure, r2->failure);
  EXPECT_EQ(r1->decoded_level, r2->decoded_level);
  EXPECT_EQ(r1->comm.total_bytes(), r2->comm.total_bytes());
  if (!r1->failure) {
    EXPECT_EQ(r1->s_b_prime, r2->s_b_prime);
  }
}

// --------------------------------------------------------- multiscale --

/// One (sizing, codec) configuration of the thread-count identity check.
struct ThreadIdentityCase {
  const char* name;
  bool adaptive;
  CellRounding rounding;
  WireCodec codec;
};

void PrintTo(const ThreadIdentityCase& c, std::ostream* os) { *os << c.name; }

class EmdThreadCountTest : public ::testing::TestWithParam<ThreadIdentityCase> {
};

TEST_P(EmdThreadCountTest, TranscriptAndOutputIdenticalAcrossThreadCounts) {
  // RunEmdProtocol spreads key derivation, the level estimators and their
  // negotiation, Alice's table builds and Bob's deletes over num_threads.
  // None of that may reach the wire or the output.
  const ThreadIdentityCase& c = GetParam();
  Rng rng(42);
  PointStore alice = GenerateUniformStore(96, 3, 1023, &rng);
  // Bob = Alice with rows 0-2 replaced by fresh points: three differences.
  PointStore bob = GenerateUniformStore(3, 3, 1023, &rng);
  for (size_t i = 3; i < alice.size(); ++i) bob.Append(alice.row(i));
  EmdProtocolParams params = BaseParams(MetricKind::kL2, 3, 1023, 4, 1234);
  params.d1 = 1;
  params.d2 = 64;
  params.adaptive.enabled = c.adaptive;
  params.adaptive.rounding = c.rounding;
  params.codec = c.codec;
  params.num_threads = 1;
  auto baseline = RunEmdProtocol(alice, bob, params);
  ASSERT_TRUE(baseline.ok());
  ASSERT_FALSE(baseline->failure);
  ASSERT_GE(baseline->level_cells.size(), 4u);
  EXPECT_EQ(baseline->comm.rounds(), c.adaptive ? 2 : 1);
  for (size_t threads : {size_t{2}, size_t{8}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    params.num_threads = threads;
    auto report = RunEmdProtocol(alice, bob, params);
    ASSERT_TRUE(report.ok());
    const auto& want = baseline->comm.messages;
    const auto& got = report->comm.messages;
    ASSERT_EQ(got.size(), want.size());
    for (size_t m = 0; m < want.size(); ++m) {
      EXPECT_EQ(got[m].label, want[m].label);
      EXPECT_EQ(got[m].bytes, want[m].bytes);
      EXPECT_EQ(got[m].codec, want[m].codec);
    }
    EXPECT_EQ(report->level_cells, baseline->level_cells);
    ASSERT_EQ(report->levels.size(), baseline->levels.size());
    for (size_t l = 0; l < baseline->levels.size(); ++l) {
      const EmdLevelOutcome& a = report->levels[l];
      const EmdLevelOutcome& b = baseline->levels[l];
      EXPECT_EQ(a.decoded, b.decoded) << "level " << l;
      EXPECT_EQ(a.pairs_alice, b.pairs_alice) << "level " << l;
      EXPECT_EQ(a.pairs_bob, b.pairs_bob) << "level " << l;
    }
    EXPECT_EQ(report->failure, baseline->failure);
    EXPECT_EQ(report->decoded_level, baseline->decoded_level);
    EXPECT_EQ(report->x_a, baseline->x_a);
    EXPECT_EQ(report->x_b, baseline->x_b);
    EXPECT_EQ(report->s_b_prime, baseline->s_b_prime);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SizingByCodec, EmdThreadCountTest,
    ::testing::Values(
        ThreadIdentityCase{"StaticClassic", false, CellRounding::kExact,
                           WireCodec::kClassic},
        ThreadIdentityCase{"StaticCompact", false, CellRounding::kExact,
                           WireCodec::kCompact},
        ThreadIdentityCase{"ExactClassic", true, CellRounding::kExact,
                           WireCodec::kClassic},
        ThreadIdentityCase{"ExactCompact", true, CellRounding::kExact,
                           WireCodec::kCompact},
        ThreadIdentityCase{"LadderClassic", true, CellRounding::kDivisorLadder,
                           WireCodec::kClassic},
        ThreadIdentityCase{"LadderCompact", true, CellRounding::kDivisorLadder,
                           WireCodec::kCompact}),
    [](const ::testing::TestParamInfo<ThreadIdentityCase>& param_info) {
      return std::string(param_info.param.name);
    });

TEST(MultiscaleTest, RejectsBadRatio) {
  Rng rng(7);
  PointStore pts = GenerateUniformStore(8, 2, 15, &rng);
  MultiscaleEmdParams params;
  params.base = BaseParams(MetricKind::kL1, 2, 15, 1, 1);
  params.interval_ratio = 1.0;
  EXPECT_FALSE(RunMultiscaleEmdProtocol(pts, pts, params).ok());
}

TEST(MultiscaleTest, NearOneRatioRejectedInsteadOfLooping) {
  // interval_ratio = 1 + 1e-15 passes the legacy `> 1.0` guard but implies
  // ~10^16 intervals; the derived-count validation must reject it instantly.
  Rng rng(10);
  PointStore pts = GenerateUniformStore(8, 2, 255, &rng);
  MultiscaleEmdParams params;
  params.base = BaseParams(MetricKind::kL1, 2, 255, 1, 1);
  params.base.d1 = 1.0;
  params.base.d2 = 1e6;
  params.interval_ratio = 1.0 + 1e-15;
  auto report = RunMultiscaleEmdProtocol(pts, pts, params);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
}

TEST(MultiscaleTest, NearOneRatioWithinBoundStillRuns) {
  // A near-1 ratio whose derived interval count fits the bound is legal and
  // must produce exactly that many intervals.
  Rng rng(11);
  PointStore pts = GenerateUniformStore(8, 2, 255, &rng);
  MultiscaleEmdParams params;
  params.base = BaseParams(MetricKind::kL1, 2, 255, 1, 3);
  params.base.d1 = 1.0;
  params.base.d2 = 1.01;
  params.interval_ratio = 1.001;  // ceil(log(1.01)/log(1.001)) = 10
  auto report = RunMultiscaleEmdProtocol(pts, pts, params);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->intervals.size(), 10u);
}

TEST(MultiscaleTest, MaxIntervalsOverrideTightensRejection) {
  Rng rng(12);
  PointStore pts = GenerateUniformStore(8, 2, 255, &rng);
  MultiscaleEmdParams params;
  params.base = BaseParams(MetricKind::kL1, 2, 255, 1, 5);
  params.base.d1 = 1.0;
  params.base.d2 = 1024.0;
  params.interval_ratio = 2.0;  // 10 intervals
  params.max_intervals = 4;
  EXPECT_FALSE(RunMultiscaleEmdProtocol(pts, pts, params).ok());
}

TEST(MultiscaleTest, CoversWideRangeWithoutPriorBounds) {
  // No prior [D1, D2] knowledge: defaults span up to n * diameter, yet the
  // protocol still reconciles because some interval brackets the true EMD_k.
  NoisyPairConfig config;
  config.metric = MetricKind::kL1;
  config.dim = 2;
  config.delta = 255;
  config.n = 32;
  config.outliers = 1;
  config.noise = 0;
  config.outlier_dist = 50;
  config.seed = 77;
  auto workload = GenerateNoisyPairStore(config);
  ASSERT_TRUE(workload.ok());

  MultiscaleEmdParams params;
  params.base = BaseParams(MetricKind::kL1, 2, 255, 1, 13);
  params.interval_ratio = 4.0;
  auto report =
      RunMultiscaleEmdProtocol(workload->alice, workload->bob, params);
  ASSERT_TRUE(report.ok());
  ASSERT_FALSE(report->failure);
  Metric metric(MetricKind::kL1);
  double before = EmdExact(workload->alice, workload->bob, metric);
  double after = EmdExact(workload->alice, report->s_b_prime, metric);
  EXPECT_LT(after, before);
}

TEST(MultiscaleTest, ChoosesFinerIntervalForSmallerDifferences) {
  // Identical sets: the very first (finest) interval must decode.
  Rng rng(8);
  PointStore pts = GenerateUniformStore(32, 2, 255, &rng);
  MultiscaleEmdParams params;
  params.base = BaseParams(MetricKind::kL1, 2, 255, 2, 21);
  params.interval_ratio = 4.0;
  auto report = RunMultiscaleEmdProtocol(pts, pts, params);
  ASSERT_TRUE(report.ok());
  ASSERT_FALSE(report->failure);
  EXPECT_EQ(report->chosen_interval, 0u);
}

TEST(MultiscaleTest, CommIsSumOfIntervalMessages) {
  Rng rng(9);
  PointStore pts = GenerateUniformStore(16, 2, 63, &rng);
  MultiscaleEmdParams params;
  params.base = BaseParams(MetricKind::kL1, 2, 63, 1, 23);
  params.interval_ratio = 2.0;
  auto report = RunMultiscaleEmdProtocol(pts, pts, params);
  ASSERT_TRUE(report.ok());
  size_t sum = 0;
  for (const auto& sub : report->intervals) sum += sub.comm.total_bytes();
  EXPECT_EQ(report->comm.total_bytes(), sum);
  EXPECT_EQ(report->intervals.size(),
            static_cast<size_t>(report->comm.rounds()));
}

/// Interval j of a multiscale run over [lo, hi], run directly: the
/// per-interval salt is HashCombine(seed, 0x5ca1e000 + j).
Result<EmdProtocolReport> DirectInterval(const PointStore& alice,
                                         const PointStore& bob,
                                         const EmdProtocolParams& base,
                                         size_t j, double lo, double hi) {
  EmdProtocolParams interval = base;
  interval.d1 = lo;
  interval.d2 = hi;
  interval.seed = HashCombine(base.seed, 0x5ca1e000ULL + j);
  return RunEmdProtocol(alice, bob, interval);
}

TEST(MultiscaleTest, EqualBoundsRunOneInterval) {
  // d1 == d2 is the degenerate range: exactly one interval [d1, d1], run
  // with interval 0's salt, in one round.
  Rng rng(14);
  PointStore pts = GenerateUniformStore(16, 2, 63, &rng);
  MultiscaleEmdParams params;
  params.base = BaseParams(MetricKind::kL1, 2, 63, 1, 25);
  params.base.d1 = 8.0;
  params.base.d2 = 8.0;
  params.interval_ratio = 2.0;
  auto report = RunMultiscaleEmdProtocol(pts, pts, params);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->intervals.size(), 1u);
  EXPECT_EQ(report->comm.rounds(), 1);
  ASSERT_FALSE(report->failure);
  EXPECT_EQ(report->chosen_interval, 0u);

  auto direct = DirectInterval(pts, pts, params.base, 0, 8.0, 8.0);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(report->intervals[0].comm.total_bytes(),
            direct->comm.total_bytes());
  EXPECT_EQ(report->intervals[0].level_cells, direct->level_cells);
  EXPECT_EQ(report->s_b_prime, direct->s_b_prime);
}

TEST(MultiscaleTest, EachIntervalIsADirectRunOverItsRange) {
  // [4, 100] at ratio 4 splits into [4, 16], [16, 64], [64, 100]; each
  // interval's report is the direct protocol over that range and salt.
  NoisyPairConfig config;
  config.metric = MetricKind::kL1;
  config.dim = 2;
  config.delta = 255;
  config.n = 24;
  config.outliers = 1;
  config.noise = 1.0;
  config.outlier_dist = 60;
  config.seed = 78;
  auto workload = GenerateNoisyPairStore(config);
  ASSERT_TRUE(workload.ok());

  MultiscaleEmdParams params;
  params.base = BaseParams(MetricKind::kL1, 2, 255, 1, 27);
  params.base.d1 = 4.0;
  params.base.d2 = 100.0;
  params.interval_ratio = 4.0;
  auto report =
      RunMultiscaleEmdProtocol(workload->alice, workload->bob, params);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->intervals.size(), 3u);
  double lo = params.base.d1;
  for (size_t j = 0; j < report->intervals.size(); ++j) {
    const double hi = std::min(lo * params.interval_ratio, params.base.d2);
    auto direct =
        DirectInterval(workload->alice, workload->bob, params.base, j, lo, hi);
    ASSERT_TRUE(direct.ok()) << "interval " << j;
    const EmdProtocolReport& sub = report->intervals[j];
    EXPECT_EQ(sub.failure, direct->failure) << "interval " << j;
    EXPECT_EQ(sub.decoded_level, direct->decoded_level) << "interval " << j;
    EXPECT_EQ(sub.level_cells, direct->level_cells) << "interval " << j;
    EXPECT_EQ(sub.comm.total_bytes(), direct->comm.total_bytes())
        << "interval " << j;
    EXPECT_EQ(sub.s_b_prime, direct->s_b_prime) << "interval " << j;
    lo *= params.interval_ratio;
  }
}

// ---- Output assembly allocations --

/// Heap allocations of one warm RunEmdProtocol over an n-point noisy pair
/// (L2, dim 16, 8 outliers, D1 = 8, D2 = 8192); -1 if the exchange fails.
/// The first run warms the thread-local pools, the second is counted.
long long WarmEmdAllocations(size_t n) {
  NoisyPairConfig config;
  config.metric = MetricKind::kL2;
  config.dim = 16;
  config.delta = 1023;
  config.n = n;
  config.outliers = 8;
  config.noise = 2.0;
  config.outlier_dist = 200;
  config.seed = 515;
  auto workload = GenerateNoisyPairStore(config);
  if (!workload.ok()) return -1;
  EmdProtocolParams params = BaseParams(MetricKind::kL2, 16, 1023, 8, 516);
  params.d1 = 8;
  params.d2 = 8192;
  auto warm = RunEmdProtocol(workload->alice, workload->bob, params);
  if (!warm.ok() || warm->failure) return -1;
  const long long before = testing::AllocationCount();
  auto report = RunEmdProtocol(workload->alice, workload->bob, params);
  const long long count = testing::AllocationCount() - before;
  if (!report.ok() || report->failure) return -1;
  EXPECT_EQ(report->s_b_prime.size(), n);
  return count;
}

TEST(EmdProtocolTest, OutputAssemblyAllocationsDoNotGrowWithN) {
  // S'_B is assembled into one reserved arena: an 8x larger exchange may
  // not cost one allocation per output row.
  const long long small = WarmEmdAllocations(512);
  const long long large = WarmEmdAllocations(4096);
  ASSERT_GT(small, 0);
  ASSERT_GT(large, 0);
  EXPECT_LT(large - small, 64) << "n=512: " << small << ", n=4096: " << large;
}

}  // namespace
}  // namespace rsr

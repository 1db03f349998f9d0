// Golden digests of the Gap protocols' end-to-end output (Theorem 4.2 and
// the low-dimension variant of Theorem 4.5). The transcript-identity and
// far-oracle tests compare the library against itself or against a plain
// far count, so a change to how the set-of-sets reconciler rebuilds Bob's
// differing sets, or to the order it returns them in, would pass both.
// These constants were recorded from fixed seeds and pin, per case:
//   - the transcript: every message's label, size and codec, in order,
//   - the reconciler's bob_sets, in order,
//   - its counters (diff_sets_*, diff_elements, fallback_sets,
//     sig_attempts / elem_attempts, full_transfer) and far_keys,
//   - the rows of T_A (transmitted) and of S'_B, in output order.
// Every case pins the classic codec, so the compact CI leg's
// RSR_WIRE_CODEC=compact run checks the same bytes. A mismatch means the
// exchange's observable output changed; regenerating these values is a
// protocol change, not a refresh.
#include <cinttypes>
#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "core/gap_lowdim.h"
#include "core/gap_protocol.h"
#include "golden_digest.h"
#include "workload/generators.h"

namespace rsr {
namespace {

using ::rsr::testing::Digest;
using ::rsr::testing::DigestOf;

struct GapGolden {
  uint64_t transcript;
  uint64_t bob_sets;
  uint64_t counters;
  uint64_t transmitted;
  uint64_t s_b_prime;
};

GapGolden Observe(const GapProtocolReport& report) {
  GapGolden got{};
  Digest transcript;
  transcript.Word(report.comm.messages.size());
  for (const MessageRecord& m : report.comm.messages) {
    transcript.String(m.label);
    transcript.Word(m.bytes);
    transcript.Word(static_cast<uint64_t>(m.codec));
  }
  got.transcript = transcript.Value();

  const SetsReconcilerReport& rec = report.reconciliation;
  Digest sets;
  sets.Word(rec.bob_sets.size());
  for (const SlottedSet& set : rec.bob_sets) {
    sets.Word(set.size());
    for (uint32_t v : set) sets.Word(v);
  }
  got.bob_sets = sets.Value();

  Digest counters;
  counters.Word(rec.diff_sets_bob);
  counters.Word(rec.diff_sets_alice);
  counters.Word(rec.diff_elements);
  counters.Word(rec.fallback_sets);
  counters.Word(static_cast<uint64_t>(rec.sig_attempts));
  counters.Word(static_cast<uint64_t>(rec.elem_attempts));
  counters.Word(rec.full_transfer ? 1 : 0);
  counters.Word(report.far_keys);
  got.counters = counters.Value();

  got.transmitted = DigestOf(report.transmitted);
  got.s_b_prime = DigestOf(report.s_b_prime);
  return got;
}

void ExpectGolden(const GapGolden& got, const GapGolden& want) {
  EXPECT_EQ(got.transcript, want.transcript);
  EXPECT_EQ(got.bob_sets, want.bob_sets);
  EXPECT_EQ(got.counters, want.counters);
  EXPECT_EQ(got.transmitted, want.transmitted);
  EXPECT_EQ(got.s_b_prime, want.s_b_prime);
  if (::testing::Test::HasFailure()) {
    std::printf("observed GapGolden{0x%016" PRIx64 "ULL, 0x%016" PRIx64
                "ULL, 0x%016" PRIx64 "ULL, 0x%016" PRIx64 "ULL, 0x%016" PRIx64
                "ULL}\n",
                got.transcript, got.bob_sets, got.counters, got.transmitted,
                got.s_b_prime);
  }
}

/// The gap_hamming shape at 256 points per side: dim 1024, close pairs
/// within r1 = 4, four outliers per side beyond r2 = 192. Bit sampling with
/// m = 4 gives each slot at most 16 values, so a reconciled set's slots
/// carry several candidates each.
NoisyPairStoreWorkload HammingInputs() {
  NoisyPairConfig config;
  config.metric = MetricKind::kHamming;
  config.dim = 1024;
  config.delta = 1;
  config.n = 256;
  config.outliers = 4;
  config.noise = 2;
  config.outlier_dist = 320;
  config.seed = 0x901d;
  auto inputs = GenerateNoisyPairStore(config);
  RSR_CHECK(inputs.ok());
  return std::move(*inputs);
}

GapProtocolParams HammingParams() {
  GapProtocolParams params;
  params.metric = MetricKind::kHamming;
  params.dim = 1024;
  params.delta = 1;
  params.r1 = 4;
  params.r2 = 192;
  params.k = 4;
  params.h_multiplier = 4;
  params.reconciler.mode = SetsReconcilerMode::kFingerprint;
  params.reconciler.codec = WireCodec::kClassic;
  params.seed = 0x6a9'0001;
  return params;
}

GapProtocolReport RunHamming(const GapProtocolParams& params) {
  const NoisyPairStoreWorkload in = HammingInputs();
  auto report = RunGapProtocol(in.alice, in.bob, params);
  RSR_CHECK(report.ok());
  // Every case must reconcile real differences and flag the outliers, or it
  // would pin nothing of the reconstruction or of far detection.
  EXPECT_GT(report->reconciliation.diff_sets_bob, 8u);
  EXPECT_GE(report->far_keys, 4u);
  EXPECT_FALSE(report->reconciliation.full_transfer);
  return std::move(*report);
}

GapProtocolReport RunFingerprint(int bits) {
  GapProtocolParams params = HammingParams();
  params.reconciler.fingerprint_bits = bits;
  return RunHamming(params);
}

TEST(GapGoldenTest, FingerprintOneBit) {
  const GapProtocolReport report = RunFingerprint(1);
  // One bit leaves about half of each slot's candidates: the DFS budget runs
  // out and every set comes verbatim in the fallback round.
  EXPECT_EQ(report.reconciliation.fallback_sets,
            report.reconciliation.diff_sets_bob);
  ExpectGolden(Observe(report), GapGolden{
                         0x31e672bad6e9b84eULL,
                         0x51109d925f891a7dULL,
                         0x8b87d83f5ba0f940ULL,
                         0xa2bb69a6a33b016dULL,
                         0x3e5fcef731c32f23ULL});
}

TEST(GapGoldenTest, FingerprintFiveBits) {
  const GapProtocolReport report = RunFingerprint(5);
  // Five bits sit at the DFS budget's edge: some sets are rebuilt and the
  // rest fall back, so this case pins which ones and their order.
  EXPECT_GT(report.reconciliation.fallback_sets, 0u);
  EXPECT_LT(report.reconciliation.fallback_sets,
            report.reconciliation.diff_sets_bob);
  ExpectGolden(Observe(report), GapGolden{
                         0x100dc86e25d96a1eULL,
                         0xe08dfd1ff1c06805ULL,
                         0xa7f990ba8a32acfbULL,
                         0xa2bb69a6a33b016dULL,
                         0x3e5fcef731c32f23ULL});
}

TEST(GapGoldenTest, FingerprintEightBits) {
  const GapProtocolReport report = RunFingerprint(8);
  EXPECT_GT(report.reconciliation.diff_elements, 0u);
  ExpectGolden(Observe(report), GapGolden{
                         0x52fc68c5191aa433ULL,
                         0x51109d925f891a7dULL,
                         0xdd3d85e13c551b49ULL,
                         0xa2bb69a6a33b016dULL,
                         0x3e5fcef731c32f23ULL});
}

TEST(GapGoldenTest, FingerprintThirtyTwoBits) {
  const GapProtocolReport report = RunFingerprint(32);
  // A 32-bit fingerprint singles out one candidate per slot.
  EXPECT_EQ(report.reconciliation.fallback_sets, 0u);
  ExpectGolden(Observe(report), GapGolden{
                         0x5dba8d237716f5b5ULL,
                         0x51109d925f891a7dULL,
                         0xdd3d85e13c551b49ULL,
                         0xa2bb69a6a33b016dULL,
                         0x3e5fcef731c32f23ULL});
}

TEST(GapGoldenTest, Verbatim) {
  GapProtocolParams params = HammingParams();
  params.reconciler.mode = SetsReconcilerMode::kVerbatim;
  const GapProtocolReport report = RunHamming(params);
  EXPECT_EQ(report.reconciliation.elem_attempts, 0);
  ExpectGolden(Observe(report), GapGolden{
                         0xbff09613bd800225ULL,
                         0x51109d925f891a7dULL,
                         0x41df26ac5d19be69ULL,
                         0xa2bb69a6a33b016dULL,
                         0x3e5fcef731c32f23ULL});
}

TEST(GapGoldenTest, AdaptiveSignatureSizing) {
  GapProtocolParams params = HammingParams();
  params.reconciler.adaptive.enabled = true;
  const GapProtocolReport report = RunHamming(params);
  EXPECT_EQ(report.comm.messages.front().label, "A->B sig-strata");
  ExpectGolden(Observe(report), GapGolden{
                         0x40045e4d77ec05cfULL,
                         0x51109d925f891a7dULL,
                         0xdd3d85e13c551b49ULL,
                         0xa2bb69a6a33b016dULL,
                         0x3e5fcef731c32f23ULL});
}

TEST(GapGoldenTest, LowDimL1) {
  NoisyPairConfig config;
  config.metric = MetricKind::kL1;
  config.dim = 2;
  config.delta = 4095;
  config.n = 256;
  config.outliers = 4;
  config.noise = 2;
  config.outlier_dist = 200;
  config.seed = 0x10d1;
  auto in = GenerateNoisyPairStore(config);
  ASSERT_TRUE(in.ok());
  LowDimGapParams params;
  params.metric = MetricKind::kL1;
  params.dim = 2;
  params.delta = 4095;
  params.r1 = 2;
  params.r2 = 100;
  params.k = 4;
  params.h_multiplier = 2.0;
  params.reconciler.codec = WireCodec::kClassic;
  params.seed = 0x10d1'0002;
  auto report = RunLowDimGapProtocol(in->alice, in->bob, params);
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->reconciliation.diff_sets_bob, 0u);
  EXPECT_GE(report->far_keys, 4u);
  ExpectGolden(Observe(*report), GapGolden{
                         0x904216041c01681aULL,
                         0x7b83feef12664240ULL,
                         0x6205853d5273a0c1ULL,
                         0x1aa60db7515f19fcULL,
                         0x9f5d988dc5780499ULL});
}

}  // namespace
}  // namespace rsr

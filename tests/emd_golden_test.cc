// Golden digests of Algorithm 1's end-to-end output. The wire-format
// fixtures (golden_classic_test) pin hand-built sketches, and the
// transcript-identity tests compare two runs of the same library code, so a
// change to the level-key hash or to the repair matching's tie-break would
// pass both. These constants were recorded from fixed seeds and pin, per
// case:
//   - both parties' level keys (EvaluateEmdLevelKeys),
//   - the A->B sketch message (rebuilt from the public sketch API and
//     checked against the transcript's recorded size; the prebuilt case
//     reads the served message itself),
//   - the decoded X_A and X_B in extraction order,
//   - S'_B in output order,
//   - for the compact cases, the transcript: every message's label, size
//     and codec, which pins the estimator round and which message carries
//     the wire header.
// The multiscale cases pin RunMultiscaleEmdProtocol's chosen interval, its
// S'_B and every interval's transcript.
// Every case pins its codec explicitly: the classic cases and their
// `Compact` twins check the same bytes on the compact CI leg
// (RSR_WIRE_CODEC=compact) as on the default one.
// A mismatch means the exchange's observable output changed; regenerating
// these values is a protocol change, not a refresh.
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "core/adaptive.h"
#include "core/emd_multiscale.h"
#include "core/emd_protocol.h"
#include "core/emd_sketch.h"
#include "core/sync_server.h"
#include "golden_digest.h"
#include "workload/generators.h"

namespace rsr {
namespace {

using ::rsr::testing::DigestOf;

struct Golden {
  uint64_t alice_keys;
  uint64_t bob_keys;
  uint64_t message;
  uint64_t x_a;
  uint64_t x_b;
  uint64_t s_b_prime;
  /// Pinned by the compact cases only; the classic cases predate it.
  uint64_t transcript = 0;
};

struct Observed {
  Golden digests{};
  size_t decoded_level = 0;
  size_t x_b_rows = 0;
};

/// Workload with a handful of far outliers on each side, so the decoded
/// level carries several X_B rows and the repair matching has real choices.
NoisyPairStoreWorkload MakeInputs(MetricKind metric, uint64_t seed) {
  NoisyPairConfig config;
  config.metric = metric;
  config.dim = metric == MetricKind::kHamming ? 64 : 4;
  config.delta = metric == MetricKind::kHamming ? 1 : 255;
  config.n = 96;
  config.outliers = 5;
  config.noise = metric == MetricKind::kHamming ? 1 : 2;
  config.outlier_dist = metric == MetricKind::kHamming ? 16 : 40;
  config.seed = seed;
  auto inputs = GenerateNoisyPairStore(config);
  RSR_CHECK(inputs.ok());
  return std::move(*inputs);
}

EmdProtocolParams MakeParams(
    MetricKind metric, size_t dim, Coord delta, bool adaptive,
    WireCodec codec = WireCodec::kClassic,
    CellRounding rounding = CellRounding::kDivisorLadder) {
  EmdProtocolParams params;
  params.metric = metric;
  params.dim = dim;
  params.delta = delta;
  params.k = 6;
  params.d1 = 2;
  params.d2 = 512;
  params.seed = uint64_t{0x5eed'0000} + static_cast<uint64_t>(metric);
  params.codec = codec;
  params.adaptive.enabled = adaptive;
  params.adaptive.rounding = rounding;
  return params;
}

void ExpectGolden(const Observed& got, const Golden& want) {
  EXPECT_EQ(got.digests.alice_keys, want.alice_keys);
  EXPECT_EQ(got.digests.bob_keys, want.bob_keys);
  EXPECT_EQ(got.digests.message, want.message);
  EXPECT_EQ(got.digests.x_a, want.x_a);
  EXPECT_EQ(got.digests.x_b, want.x_b);
  EXPECT_EQ(got.digests.s_b_prime, want.s_b_prime);
  if (want.transcript != 0) {
    EXPECT_EQ(got.digests.transcript, want.transcript);
  }
  if (::testing::Test::HasFailure()) {
    std::printf("observed Golden{0x%016" PRIx64 "ULL, 0x%016" PRIx64
                "ULL, 0x%016" PRIx64 "ULL, 0x%016" PRIx64 "ULL, 0x%016" PRIx64
                "ULL, 0x%016" PRIx64 "ULL, 0x%016" PRIx64 "ULL}\n",
                got.digests.alice_keys, got.digests.bob_keys,
                got.digests.message, got.digests.x_a, got.digests.x_b,
                got.digests.s_b_prime, got.digests.transcript);
  }
  // A golden that never decodes, or decodes nothing for Bob, would not pin
  // the repair matching.
  EXPECT_GT(got.decoded_level, 0u);
  EXPECT_GT(got.x_b_rows, 1u);
}

void FillReportDigests(const EmdProtocolReport& report, Observed* out) {
  out->digests.x_a = DigestOf(report.x_a);
  out->digests.x_b = DigestOf(report.x_b);
  out->digests.s_b_prime = DigestOf(report.s_b_prime);
  out->digests.transcript = DigestOf(report.comm);
  out->decoded_level = report.decoded_level;
  out->x_b_rows = report.x_b.size();
}

Observed RunOneShot(MetricKind metric, bool adaptive,
                    WireCodec codec = WireCodec::kClassic,
                    CellRounding rounding = CellRounding::kDivisorLadder) {
  NoisyPairStoreWorkload in = MakeInputs(metric, adaptive ? 9 : 7);
  const EmdProtocolParams params =
      MakeParams(metric, in.alice.dim(),
                 metric == MetricKind::kHamming ? 1 : 255, adaptive, codec,
                 rounding);
  auto report = RunEmdProtocol(in.alice, in.bob, params);
  RSR_CHECK(report.ok());
  RSR_CHECK(!report->failure);

  const size_t n = in.alice.size();
  EmdHashes hashes = MakeEmdHashes(params, report->derived);
  const std::vector<size_t> prefix_lens = EmdPrefixLens(report->derived);
  // The level ladder must reach past one 8-entry block, so the keys pin the
  // multi-block accumulation and not only short prefixes.
  EXPECT_GT(prefix_lens.back(), 16u);
  const std::vector<uint64_t> alice_keys =
      EvaluateEmdLevelKeys(in.alice, hashes, prefix_lens, 1);
  const std::vector<uint64_t> bob_keys =
      EvaluateEmdLevelKeys(in.bob, hashes, prefix_lens, 1);

  // Alice's message: the sizes prefix on an adaptive exchange, the wire
  // header on a static compact one (an adaptive exchange's header went on
  // the estimator round), then one table per level.
  ByteWriter message;
  if (adaptive) WriteNegotiatedCells(report->level_cells, &message);
  if (!adaptive && codec != WireCodec::kClassic) {
    WriteWireHeader(codec, &message);
  }
  for (size_t l = 0; l < prefix_lens.size(); ++l) {
    Riblt table(EmdLevelRibltParams(params, report->level_cells[l], l + 1));
    table.InsertMany(std::span<const uint64_t>(alice_keys.data() + l * n, n),
                     in.alice);
    table.WriteTo(&message, codec);
  }
  EXPECT_EQ(message.size_bytes(), report->comm.messages.back().bytes);

  Observed out;
  out.digests.alice_keys = DigestOf(alice_keys);
  out.digests.bob_keys = DigestOf(bob_keys);
  out.digests.message = DigestOf(message.buffer());
  FillReportDigests(*report, &out);
  return out;
}

Observed RunPrebuilt(WireCodec codec = WireCodec::kClassic) {
  const MetricKind metric = MetricKind::kL2;
  NoisyPairStoreWorkload in = MakeInputs(metric, 11);
  const EmdProtocolParams params =
      MakeParams(metric, in.alice.dim(), 255, /*adaptive=*/true, codec);
  auto set = BuildEmdSketches(in.alice, params, /*build_estimators=*/true);
  RSR_CHECK(set.ok());
  EmdServeScratch scratch;
  auto report = RunEmdProtocolPrebuilt(*set, in.bob, params, &scratch);
  RSR_CHECK(report.ok());
  RSR_CHECK(!report->failure);

  EmdHashes hashes = MakeEmdHashes(params, report->derived);
  Observed out;
  out.digests.alice_keys = DigestOf(
      EvaluateEmdLevelKeys(in.alice, hashes, set->prefix_lens, 1));
  out.digests.bob_keys =
      DigestOf(EvaluateEmdLevelKeys(in.bob, hashes, set->prefix_lens, 1));
  out.digests.message = DigestOf(scratch.message.buffer());
  EXPECT_EQ(scratch.message.size_bytes(), report->comm.messages.back().bytes);
  FillReportDigests(*report, &out);
  return out;
}

/// A static exchange served by SyncSession::Run off a maintained dataset.
/// Under compact its one message opens the exchange, so it carries the wire
/// header ahead of the snapshot's tables.
Observed RunStaticSession(WireCodec codec) {
  const MetricKind metric = MetricKind::kL2;
  NoisyPairStoreWorkload in = MakeInputs(metric, 13);
  const EmdProtocolParams params =
      MakeParams(metric, in.alice.dim(), 255, /*adaptive=*/false, codec);
  auto dataset = SyncDataset::Create(in.alice, params);
  RSR_CHECK(dataset.ok());
  SyncServer server(std::move(*dataset));
  SyncSession session = server.OpenSession();
  auto report = session.Run(in.bob);
  RSR_CHECK(report.ok());
  RSR_CHECK(!report->failure);

  const EmdSketchSet& served = session.snapshot().sketches;
  EmdHashes hashes = MakeEmdHashes(params, report->derived);
  ByteWriter message;
  if (codec != WireCodec::kClassic) WriteWireHeader(codec, &message);
  for (const Riblt& table : served.tables) table.WriteTo(&message, codec);
  EXPECT_EQ(message.size_bytes(), report->comm.messages.back().bytes);

  Observed out;
  out.digests.alice_keys = DigestOf(
      EvaluateEmdLevelKeys(in.alice, hashes, served.prefix_lens, 1));
  out.digests.bob_keys =
      DigestOf(EvaluateEmdLevelKeys(in.bob, hashes, served.prefix_lens, 1));
  out.digests.message = DigestOf(message.buffer());
  FillReportDigests(*report, &out);
  return out;
}

TEST(EmdGoldenTest, StaticL1) {
  ExpectGolden(RunOneShot(MetricKind::kL1, false),
               Golden{
                   0xf709d50df595c45dULL,
                   0x055bc2e7a62c7813ULL,
                   0xcef13bee6b298ba6ULL,
                   0x67e197a15d7cca88ULL,
                   0xfa986b2a5b8f7db5ULL,
                   0x18b1d016688aa521ULL});
}

TEST(EmdGoldenTest, StaticL2) {
  ExpectGolden(RunOneShot(MetricKind::kL2, false),
               Golden{
                   0xe117bc1b83421922ULL,
                   0xafaf22902297c8b6ULL,
                   0x2ffca214101c8d09ULL,
                   0x1e1cbcfc93bc94a2ULL,
                   0xf84534188ead2eafULL,
                   0xff2f1a1d7b664d3eULL});
}

TEST(EmdGoldenTest, StaticHamming) {
  ExpectGolden(RunOneShot(MetricKind::kHamming, false),
               Golden{
                   0xfa36d0861dd1f57bULL,
                   0x7eb423252682fdb9ULL,
                   0xd2bf7a4964481b4fULL,
                   0xb79a92e2bb79e30dULL,
                   0xcdb0ad2eaede13f2ULL,
                   0x133b161359fa6b7dULL});
}

TEST(EmdGoldenTest, AdaptiveL1) {
  ExpectGolden(RunOneShot(MetricKind::kL1, true),
               Golden{
                   0x351f20a2eb78bdcdULL,
                   0xc252423eae01b0b6ULL,
                   0x59a5e21f0da4683eULL,
                   0x26d5df7dfa0db2a3ULL,
                   0xa735d5bd215b9cadULL,
                   0x50f7c70ef008faacULL});
}

TEST(EmdGoldenTest, AdaptiveL2) {
  ExpectGolden(RunOneShot(MetricKind::kL2, true),
               Golden{
                   0x6f2c86f93f9e0934ULL,
                   0x2f868d4fe21e7aacULL,
                   0xea8021cc1a802095ULL,
                   0x55b5cd34ee8b3724ULL,
                   0x1b9de03f6499f4afULL,
                   0x0f18541ee4d67e5fULL});
}

TEST(EmdGoldenTest, AdaptiveHamming) {
  ExpectGolden(RunOneShot(MetricKind::kHamming, true),
               Golden{
                   0x5699da9c5b1adb32ULL,
                   0x78938db62d40e314ULL,
                   0xd7ac141f16f119a8ULL,
                   0x81ff0b45bb7091f9ULL,
                   0xb69e814a24c82e7dULL,
                   0x8f203a4fe4b0f8a6ULL});
}

TEST(EmdGoldenTest, PrebuiltAdaptiveL2) {
  ExpectGolden(RunPrebuilt(),
               Golden{
                   0xe805b90d2dc0483eULL,
                   0x97e0df39083e1d2fULL,
                   0x57a0d3d06e6b6f2bULL,
                   0x4f5112e4df371c50ULL,
                   0x34a7685d38bba23fULL,
                   0xc93c9de647f88993ULL});
}

TEST(EmdGoldenTest, StaticL1Compact) {
  ExpectGolden(RunOneShot(MetricKind::kL1, false, WireCodec::kCompact),
               Golden{
                   0xf709d50df595c45dULL,
                   0x055bc2e7a62c7813ULL,
                   0x0913d478d218083cULL,
                   0x67e197a15d7cca88ULL,
                   0xfa986b2a5b8f7db5ULL,
                   0x18b1d016688aa521ULL,
                   0xe6f969d463850c48ULL});
}

TEST(EmdGoldenTest, StaticL2Compact) {
  ExpectGolden(RunOneShot(MetricKind::kL2, false, WireCodec::kCompact),
               Golden{
                   0xe117bc1b83421922ULL,
                   0xafaf22902297c8b6ULL,
                   0x9c25e3c81da51398ULL,
                   0x1e1cbcfc93bc94a2ULL,
                   0xf84534188ead2eafULL,
                   0xff2f1a1d7b664d3eULL,
                   0xc10ab5b303caa580ULL});
}

TEST(EmdGoldenTest, StaticHammingCompact) {
  ExpectGolden(RunOneShot(MetricKind::kHamming, false, WireCodec::kCompact),
               Golden{
                   0xfa36d0861dd1f57bULL,
                   0x7eb423252682fdb9ULL,
                   0xd4a35a359974cc22ULL,
                   0xb79a92e2bb79e30dULL,
                   0xcdb0ad2eaede13f2ULL,
                   0x133b161359fa6b7dULL,
                   0x5b3ff1b7d24396f6ULL});
}

TEST(EmdGoldenTest, AdaptiveL1Compact) {
  ExpectGolden(RunOneShot(MetricKind::kL1, true, WireCodec::kCompact),
               Golden{
                   0x351f20a2eb78bdcdULL,
                   0xc252423eae01b0b6ULL,
                   0xea00816d496ab1c7ULL,
                   0x26d5df7dfa0db2a3ULL,
                   0xa735d5bd215b9cadULL,
                   0x50f7c70ef008faacULL,
                   0x1a9fdd5029d66021ULL});
}

TEST(EmdGoldenTest, AdaptiveL2Compact) {
  ExpectGolden(RunOneShot(MetricKind::kL2, true, WireCodec::kCompact),
               Golden{
                   0x6f2c86f93f9e0934ULL,
                   0x2f868d4fe21e7aacULL,
                   0x65e2abfab879e52aULL,
                   0x55b5cd34ee8b3724ULL,
                   0x1b9de03f6499f4afULL,
                   0x0f18541ee4d67e5fULL,
                   0x82f44bca41836442ULL});
}

TEST(EmdGoldenTest, AdaptiveHammingCompact) {
  ExpectGolden(RunOneShot(MetricKind::kHamming, true, WireCodec::kCompact),
               Golden{
                   0x5699da9c5b1adb32ULL,
                   0x78938db62d40e314ULL,
                   0x5197e09417da4f38ULL,
                   0x81ff0b45bb7091f9ULL,
                   0xb69e814a24c82e7dULL,
                   0x8f203a4fe4b0f8a6ULL,
                   0x2dd5e51f9aa795ceULL});
}

TEST(EmdGoldenTest, PrebuiltAdaptiveL2Compact) {
  ExpectGolden(RunPrebuilt(WireCodec::kCompact),
               Golden{
                   0xe805b90d2dc0483eULL,
                   0x97e0df39083e1d2fULL,
                   0x691a805b57955d74ULL,
                   0x4f5112e4df371c50ULL,
                   0x34a7685d38bba23fULL,
                   0xc93c9de647f88993ULL,
                   0x5de9223554497674ULL});
}

// The cold adaptive exchange at exact negotiated sizes under compact: the
// configuration of the emd_large_diff benchmark workload, which only a cold
// build can serve (exact sizes are not fold targets).
TEST(EmdGoldenTest, ExactAdaptiveL2Compact) {
  ExpectGolden(RunOneShot(MetricKind::kL2, true, WireCodec::kCompact,
                          CellRounding::kExact),
               Golden{
                   0x6f2c86f93f9e0934ULL,
                   0x2f868d4fe21e7aacULL,
                   0xbab1a59ed4718326ULL,
                   0x55b5cd34ee8b3724ULL,
                   0x1b9de03f6499f4afULL,
                   0x0f18541ee4d67e5fULL,
                   0x82f44bca41836442ULL});
}

TEST(EmdGoldenTest, StaticSessionL2Compact) {
  ExpectGolden(RunStaticSession(WireCodec::kCompact),
               Golden{
                   0x5a83c34992880ac0ULL,
                   0xef70b6740d6e9864ULL,
                   0x2bd99cf26777bc8cULL,
                   0x10cbe26248411873ULL,
                   0xb0601bd35520398fULL,
                   0x44b86eb9025ac510ULL,
                   0xa23a1f0e8c536683ULL});
}

/// RunMultiscaleEmdProtocol over [d1, d2] with interval ratio 4: the chosen
/// interval, S'_B and every interval's transcript in order.
uint64_t MultiscaleDigest(double d1, double d2, size_t k,
                          size_t expect_intervals) {
  const MetricKind metric = MetricKind::kL2;
  NoisyPairStoreWorkload in = MakeInputs(metric, 17);
  MultiscaleEmdParams params;
  params.base = MakeParams(metric, in.alice.dim(), 255, /*adaptive=*/false);
  params.base.k = k;
  params.base.d1 = d1;
  params.base.d2 = d2;
  params.interval_ratio = 4.0;
  auto report = RunMultiscaleEmdProtocol(in.alice, in.bob, params);
  RSR_CHECK(report.ok());
  EXPECT_FALSE(report->failure);
  EXPECT_EQ(report->intervals.size(), expect_intervals);
  ::rsr::testing::Digest d;
  d.Word(report->chosen_interval);
  d.Word(DigestOf(report->s_b_prime));
  d.Word(report->intervals.size());
  for (const EmdProtocolReport& sub : report->intervals) {
    d.Word(DigestOf(sub.comm));
  }
  return d.Value();
}

// d1 == d2: a single interval [d1, d1].
TEST(EmdGoldenTest, MultiscaleSingleValueRange) {
  const uint64_t got = MultiscaleDigest(64, 64, 6, 1);
  EXPECT_EQ(got, 0x4634ce8411d8c635ULL) << "observed 0x" << std::hex << got;
}

// Six intervals; at k = 1 the first two fail, so interval 2 is chosen.
TEST(EmdGoldenTest, MultiscaleSixIntervals) {
  const uint64_t got = MultiscaleDigest(1, 4096, 1, 6);
  EXPECT_EQ(got, 0xbaad0df57f351363ULL) << "observed 0x" << std::hex << got;
}

}  // namespace
}  // namespace rsr

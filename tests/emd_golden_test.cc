// Golden digests of Algorithm 1's end-to-end output. The wire-format
// fixtures (golden_classic_test) pin hand-built sketches, and the
// transcript-identity tests compare two runs of the same library code, so a
// change to the level-key hash or to the repair matching's tie-break would
// pass both. These constants were recorded from fixed seeds and pin, per
// case:
//   - both parties' level keys (EvaluateEmdLevelKeys),
//   - the classic-codec A->B sketch message (rebuilt from the public sketch
//     API and checked against the transcript's recorded size; the prebuilt
//     case reads the served message itself),
//   - the decoded X_A and X_B in extraction order,
//   - S'_B in output order.
// A mismatch means the exchange's observable output changed; regenerating
// these values is a protocol change, not a refresh.
#include <cstdint>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "core/adaptive.h"
#include "core/emd_protocol.h"
#include "core/emd_sketch.h"
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

EmdProtocolParams MakeParams(MetricKind metric, size_t dim, Coord delta,
                             bool adaptive) {
  EmdProtocolParams params;
  params.metric = metric;
  params.dim = dim;
  params.delta = delta;
  params.k = 6;
  params.d1 = 2;
  params.d2 = 512;
  params.seed = uint64_t{0x5eed'0000} + static_cast<uint64_t>(metric);
  params.codec = WireCodec::kClassic;
  params.adaptive.enabled = adaptive;
  params.adaptive.rounding = CellRounding::kDivisorLadder;
  return params;
}

void ExpectGolden(const Observed& got, const Golden& want) {
  EXPECT_EQ(got.digests.alice_keys, want.alice_keys);
  EXPECT_EQ(got.digests.bob_keys, want.bob_keys);
  EXPECT_EQ(got.digests.message, want.message);
  EXPECT_EQ(got.digests.x_a, want.x_a);
  EXPECT_EQ(got.digests.x_b, want.x_b);
  EXPECT_EQ(got.digests.s_b_prime, want.s_b_prime);
  // A golden that never decodes, or decodes nothing for Bob, would not pin
  // the repair matching.
  EXPECT_GT(got.decoded_level, 0u);
  EXPECT_GT(got.x_b_rows, 1u);
}

void FillReportDigests(const EmdProtocolReport& report, Observed* out) {
  out->digests.x_a = DigestOf(report.x_a);
  out->digests.x_b = DigestOf(report.x_b);
  out->digests.s_b_prime = DigestOf(report.s_b_prime);
  out->decoded_level = report.decoded_level;
  out->x_b_rows = report.x_b.size();
}

Observed RunOneShot(MetricKind metric, bool adaptive) {
  NoisyPairStoreWorkload in = MakeInputs(metric, adaptive ? 9 : 7);
  const EmdProtocolParams params =
      MakeParams(metric, in.alice.dim(),
                 metric == MetricKind::kHamming ? 1 : 255, adaptive);
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

  // Alice's message as FinishEmdProtocol writes it under kClassic.
  ByteWriter message;
  if (adaptive) WriteNegotiatedCells(report->level_cells, &message);
  for (size_t l = 0; l < prefix_lens.size(); ++l) {
    Riblt table(EmdLevelRibltParams(params, report->level_cells[l], l + 1));
    table.InsertMany(std::span<const uint64_t>(alice_keys.data() + l * n, n),
                     in.alice);
    table.WriteTo(&message, WireCodec::kClassic);
  }
  EXPECT_EQ(message.size_bytes(), report->comm.messages.back().bytes);

  Observed out;
  out.digests.alice_keys = DigestOf(alice_keys);
  out.digests.bob_keys = DigestOf(bob_keys);
  out.digests.message = DigestOf(message.buffer());
  FillReportDigests(*report, &out);
  return out;
}

Observed RunPrebuilt() {
  const MetricKind metric = MetricKind::kL2;
  NoisyPairStoreWorkload in = MakeInputs(metric, 11);
  const EmdProtocolParams params =
      MakeParams(metric, in.alice.dim(), 255, /*adaptive=*/true);
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

}  // namespace
}  // namespace rsr

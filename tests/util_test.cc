// Unit tests for util/: Status, Result, Rng, serialization.
#include <cmath>
#include <cstdint>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "util/random.h"
#include "util/serialize.h"
#include "util/status.h"

namespace rsr {
namespace {

// ---------------------------------------------------------------- Status --

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::InvalidArgument("bad k");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(st.message(), "bad k");
  EXPECT_EQ(st.ToString(), "InvalidArgument: bad k");
}

TEST(StatusTest, DecodeFailureDistinctFromProtocolFailure) {
  EXPECT_NE(Status::DecodeFailure("x").code(),
            Status::ProtocolFailure("x").code());
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsStatus) {
  Result<int> r(Status::OutOfRange("too big"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::vector<int>> r(std::vector<int>{1, 2, 3});
  std::vector<int> v = std::move(r).ValueOrDie();
  EXPECT_EQ(v.size(), 3u);
}

Status FailingHelper() { return Status::Corruption("boom"); }

Status PropagatesHelper() {
  RSR_RETURN_NOT_OK(FailingHelper());
  return Status::OK();
}

TEST(ResultTest, ReturnNotOkMacroPropagates) {
  EXPECT_EQ(PropagatesHelper().code(), StatusCode::kCorruption);
}

Result<int> GivesSeven() { return 7; }

Result<int> UsesAssignOrReturn() {
  int v = 0;
  RSR_ASSIGN_OR_RETURN(v, GivesSeven());
  return v + 1;
}

TEST(ResultTest, AssignOrReturnMacro) {
  Result<int> r = UsesAssignOrReturn();
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 8);
}

// ------------------------------------------------------------------- Rng --

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.Next() == b.Next());
  EXPECT_LT(same, 2);
}

TEST(RngTest, BelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    EXPECT_LT(rng.Below(17), 17u);
  }
}

TEST(RngTest, BelowCoversAllResidues) {
  Rng rng(11);
  std::set<uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.Below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(RngTest, UniformIntInclusiveBounds) {
  Rng rng(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    int64_t v = rng.UniformInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(9);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double v = rng.UniformDouble();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, BernoulliMatchesProbability) {
  Rng rng(13);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(14);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, GaussianMomentsApproximatelyStandard) {
  Rng rng(17);
  double sum = 0, sum_sq = 0;
  const int kSamples = 50000;
  for (int i = 0; i < kSamples; ++i) {
    double g = rng.Gaussian();
    sum += g;
    sum_sq += g * g;
  }
  EXPECT_NEAR(sum / kSamples, 0.0, 0.03);
  EXPECT_NEAR(sum_sq / kSamples, 1.0, 0.05);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng parent(21);
  Rng child = parent.Fork();
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (parent.Next() == child.Next());
  EXPECT_LT(same, 2);
}

TEST(RngTest, SplitMix64KnownGood) {
  // Reference values from the public-domain SplitMix64 implementation.
  uint64_t state = 0;
  uint64_t first = SplitMix64(&state);
  EXPECT_EQ(first, 0xe220a8397b1dcdafULL);
}

// ------------------------------------------------------------- Serialize --

TEST(SerializeTest, FixedWidthRoundTrip) {
  ByteWriter w;
  w.PutU8(0xab);
  w.PutU16(0xbeef);
  w.PutU32(0xdeadbeef);
  w.PutU64(0x0123456789abcdefULL);
  ByteReader r(w.buffer());
  EXPECT_EQ(r.GetU8(), 0xab);
  EXPECT_EQ(r.GetU16(), 0xbeef);
  EXPECT_EQ(r.GetU32(), 0xdeadbeefu);
  EXPECT_EQ(r.GetU64(), 0x0123456789abcdefULL);
  EXPECT_TRUE(r.FinishAndCheckConsumed().ok());
}

TEST(SerializeTest, FixedWidthIsLittleEndian) {
  // The wire's fixed-width fields are little-endian on every host.
  ByteWriter w;
  w.PutU16(0x0102);
  w.PutU32(0x03040506);
  w.PutU64(0x0708090a0b0c0d0eULL);
  EXPECT_EQ(w.buffer(),
            (std::vector<uint8_t>{0x02, 0x01, 0x06, 0x05, 0x04, 0x03, 0x0e,
                                  0x0d, 0x0c, 0x0b, 0x0a, 0x09, 0x08, 0x07}));
}

TEST(SerializeTest, VarintRoundTripBoundaries) {
  std::vector<uint64_t> values = {0,    1,    127,  128,   16383, 16384,
                                  1u << 30, ~uint64_t{0}, 300, 1234567890123ULL};
  ByteWriter w;
  for (uint64_t v : values) w.PutVarint64(v);
  ByteReader r(w.buffer());
  for (uint64_t v : values) EXPECT_EQ(r.GetVarint64(), v);
  EXPECT_TRUE(r.FinishAndCheckConsumed().ok());
}

TEST(SerializeTest, VarintIsCompactForSmallValues) {
  ByteWriter w;
  w.PutVarint64(5);
  EXPECT_EQ(w.size_bytes(), 1u);
  w.PutVarint64(300);
  EXPECT_EQ(w.size_bytes(), 3u);  // 1 + 2
}

TEST(SerializeTest, SignedVarintRoundTrip) {
  std::vector<int64_t> values = {0, 1, -1, 63, -64, 64, -65,
                                 INT64_MAX, INT64_MIN, -1234567};
  ByteWriter w;
  for (int64_t v : values) w.PutSignedVarint64(v);
  ByteReader r(w.buffer());
  for (int64_t v : values) EXPECT_EQ(r.GetSignedVarint64(), v);
  EXPECT_TRUE(r.FinishAndCheckConsumed().ok());
}

TEST(SerializeTest, ZigzagIsCompactNearZero) {
  ByteWriter w;
  w.PutSignedVarint64(-1);
  w.PutSignedVarint64(1);
  EXPECT_EQ(w.size_bytes(), 2u);
}

TEST(SerializeTest, BytesRoundTrip) {
  std::vector<uint8_t> payload = {1, 2, 3, 4, 5};
  ByteWriter w;
  w.PutBytes(payload.data(), payload.size());
  ByteReader r(w.buffer());
  std::vector<uint8_t> out(5);
  r.GetBytes(out.data(), out.size());
  EXPECT_EQ(out, payload);
}

TEST(SerializeTest, ReadPastEndIsStickyFailure) {
  ByteWriter w;
  w.PutU8(1);
  ByteReader r(w.buffer());
  EXPECT_EQ(r.GetU8(), 1);
  EXPECT_EQ(r.GetU32(), 0u);  // fails: only 0 bytes left
  EXPECT_TRUE(r.failed());
  EXPECT_EQ(r.GetU8(), 0);  // sticky
  EXPECT_FALSE(r.status().ok());
}

TEST(SerializeTest, TrailingBytesDetected) {
  ByteWriter w;
  w.PutU32(7);
  w.PutU8(9);
  ByteReader r(w.buffer());
  EXPECT_EQ(r.GetU32(), 7u);
  EXPECT_FALSE(r.FinishAndCheckConsumed().ok());
}

TEST(SerializeTest, TruncatedVarintFails) {
  ByteWriter w;
  w.PutU8(0x80);  // continuation bit with no next byte
  ByteReader r(w.buffer());
  r.GetVarint64();
  EXPECT_TRUE(r.failed());
}

TEST(SerializeTest, OverlongVarintFails) {
  ByteWriter w;
  for (int i = 0; i < 11; ++i) w.PutU8(0x80);
  w.PutU8(0x01);
  ByteReader r(w.buffer());
  r.GetVarint64();
  EXPECT_TRUE(r.failed());
}

TEST(SerializeTest, MaxVarint64IsTenBytesAndDecodes) {
  // The legitimate ten-byte encoding (final byte 0x01 at shift 63) must keep
  // decoding after the overlong-final-byte rejection.
  ByteWriter w;
  w.PutVarint64(~uint64_t{0});
  EXPECT_EQ(w.size_bytes(), 10u);
  ByteReader r(w.buffer());
  EXPECT_EQ(r.GetVarint64(), ~uint64_t{0});
  EXPECT_TRUE(r.FinishAndCheckConsumed().ok());
}

TEST(SerializeTest, OverlongFinalByteBitsPoisonVarint64) {
  // Ten-byte stream whose final byte carries payload bits beyond bit 63: the
  // legacy decoder OR-ed in only the low bit and returned a wrong value with
  // no error. A corrupted stream must poison the reader instead.
  ByteWriter w;
  for (int i = 0; i < 9; ++i) w.PutU8(0x80);
  w.PutU8(0x02);  // payload bit 64 — outside the word
  ByteReader r(w.buffer());
  EXPECT_EQ(r.GetVarint64(), 0u);
  EXPECT_TRUE(r.failed());
  EXPECT_FALSE(r.status().ok());
}

TEST(SerializeTest, Varint128RoundTripBoundaries) {
  unsigned __int128 max128 = ~static_cast<unsigned __int128>(0);
  std::vector<unsigned __int128> values = {
      0, 1, 127, 128, static_cast<unsigned __int128>(~uint64_t{0}),
      static_cast<unsigned __int128>(~uint64_t{0}) + 1, max128 - 1, max128};
  ByteWriter w;
  for (auto v : values) w.PutVarint128(v);
  ByteReader r(w.buffer());
  for (auto v : values) EXPECT_TRUE(r.GetVarint128() == v);
  EXPECT_TRUE(r.FinishAndCheckConsumed().ok());
}

TEST(SerializeTest, OverlongFinalByteBitsPoisonVarint128) {
  // Nineteen-byte stream: the final byte sits at shift 126 where only two
  // payload bits fit; 0x04 sets bit 128.
  ByteWriter w;
  for (int i = 0; i < 18; ++i) w.PutU8(0x80);
  w.PutU8(0x04);
  ByteReader r(w.buffer());
  EXPECT_TRUE(r.GetVarint128() == 0);
  EXPECT_TRUE(r.failed());
}

}  // namespace
}  // namespace rsr

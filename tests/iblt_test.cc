// Tests for sketch/iblt.h: insert/delete symmetry, set-difference decoding,
// key-value payloads, subtraction, serialization, load thresholds.
#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "sketch/iblt.h"
#include "util/random.h"

namespace rsr {
namespace {

IbltParams MakeParams(size_t cells, int q = 4, size_t value_size = 0,
                      uint64_t seed = 99) {
  IbltParams params;
  params.num_cells = cells;
  params.num_hashes = q;
  params.value_size = value_size;
  params.seed = seed;
  return params;
}

TEST(IbltTest, EmptyTableDecodesToNothing) {
  Iblt table(MakeParams(64));
  IbltDecodeResult result = table.Decode();
  EXPECT_TRUE(result.complete);
  EXPECT_TRUE(result.entries.empty());
}

TEST(IbltTest, InsertThenDeleteCancels) {
  Iblt table(MakeParams(64));
  for (uint64_t k = 0; k < 50; ++k) table.Insert(k * 977 + 13);
  for (uint64_t k = 0; k < 50; ++k) table.Delete(k * 977 + 13);
  IbltDecodeResult result = table.Decode();
  EXPECT_TRUE(result.complete);
  EXPECT_TRUE(result.entries.empty());
}

TEST(IbltTest, RecoverInsertedKeys) {
  Iblt table(MakeParams(64));
  std::set<uint64_t> keys;
  Rng rng(1);
  while (keys.size() < 20) keys.insert(rng.Next());
  for (uint64_t k : keys) table.Insert(k);
  IbltDecodeResult result = table.Decode();
  ASSERT_TRUE(result.complete);
  std::set<uint64_t> recovered;
  for (const auto& e : result.entries) {
    EXPECT_EQ(e.count, 1);
    recovered.insert(e.key);
  }
  EXPECT_EQ(recovered, keys);
}

TEST(IbltTest, SetDifferenceSignsAreDirectional) {
  Iblt table(MakeParams(64));
  table.Insert(111);   // only Alice
  table.Insert(222);   // shared
  table.Delete(222);
  table.Delete(333);   // only Bob
  IbltDecodeResult result = table.Decode();
  ASSERT_TRUE(result.complete);
  std::map<uint64_t, int64_t> got;
  for (const auto& e : result.entries) got[e.key] = e.count;
  EXPECT_EQ(got.size(), 2u);
  EXPECT_EQ(got[111], 1);
  EXPECT_EQ(got[333], -1);
}

TEST(IbltTest, KeyValuePayloadRoundTrip) {
  Iblt table(MakeParams(64, 4, 3));
  std::vector<uint8_t> v1 = {1, 2, 3};
  std::vector<uint8_t> v2 = {9, 8, 7};
  table.InsertKv(1001, v1);
  table.InsertKv(1002, v2);
  IbltDecodeResult result = table.Decode();
  ASSERT_TRUE(result.complete);
  std::map<uint64_t, std::vector<uint8_t>> got;
  for (const auto& e : result.entries) got[e.key] = e.value;
  EXPECT_EQ(got[1001], v1);
  EXPECT_EQ(got[1002], v2);
}

TEST(IbltTest, OverloadedTableReportsIncomplete) {
  Iblt table(MakeParams(24, 4));
  Rng rng(2);
  for (int i = 0; i < 200; ++i) table.Insert(rng.Next());
  IbltDecodeResult result = table.Decode();
  EXPECT_FALSE(result.complete);
}

TEST(IbltTest, SubtractComputesDifference) {
  IbltParams params = MakeParams(96);
  Iblt alice(params), bob(params);
  Rng rng(3);
  std::vector<uint64_t> shared(40), alice_only(5), bob_only(7);
  for (auto& k : shared) k = rng.Next();
  for (auto& k : alice_only) k = rng.Next();
  for (auto& k : bob_only) k = rng.Next();
  for (uint64_t k : shared) {
    alice.Insert(k);
    bob.Insert(k);
  }
  for (uint64_t k : alice_only) alice.Insert(k);
  for (uint64_t k : bob_only) bob.Insert(k);
  auto result = alice.DecodeDiff(bob);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->complete);
  std::set<uint64_t> plus, minus;
  for (const auto& e : result->entries) {
    (e.count > 0 ? plus : minus).insert(e.key);
  }
  EXPECT_EQ(plus, std::set<uint64_t>(alice_only.begin(), alice_only.end()));
  EXPECT_EQ(minus, std::set<uint64_t>(bob_only.begin(), bob_only.end()));
}

TEST(IbltTest, SubtractRejectsParameterMismatch) {
  Iblt a(MakeParams(64, 4, 0, 1));
  Iblt b(MakeParams(64, 4, 0, 2));  // different seed
  EXPECT_FALSE(a.DecodeDiff(b).ok());
}

TEST(IbltTest, DecodeDiffRejectsEveryParameterMismatch) {
  const IbltParams base = MakeParams(64, 4, 2);
  Iblt a(base);
  IbltParams cells = base, hashes = base, value_size = base, checksum = base;
  cells.num_cells = 128;
  hashes.num_hashes = 3;
  value_size.value_size = 3;
  checksum.checksum_bytes = base.checksum_bytes == 4 ? 2 : 4;
  for (const IbltParams& other : {cells, hashes, value_size, checksum}) {
    EXPECT_FALSE(a.DecodeDiff(Iblt(other)).ok());
  }
  EXPECT_TRUE(a.DecodeDiff(Iblt(base)).ok());
}

/// Decoded entries as key -> (count, value), independent of peel order.
std::map<uint64_t, std::pair<int64_t, std::vector<uint8_t>>> EntryMap(
    const IbltDecodeResult& result) {
  std::map<uint64_t, std::pair<int64_t, std::vector<uint8_t>>> out;
  for (const auto& e : result.entries) out[e.key] = {e.count, e.value};
  return out;
}

TEST(IbltTest, DecodeDiffIsAntisymmetric) {
  IbltParams params = MakeParams(96);
  Iblt alice(params), bob(params);
  Rng rng(5);
  for (int i = 0; i < 60; ++i) {
    const uint64_t key = rng.Next();
    alice.Insert(key);
    bob.Insert(key);
  }
  for (int i = 0; i < 6; ++i) alice.Insert(rng.Next());
  for (int i = 0; i < 4; ++i) bob.Insert(rng.Next());
  auto ab = alice.DecodeDiff(bob);
  auto ba = bob.DecodeDiff(alice);
  ASSERT_TRUE(ab.ok());
  ASSERT_TRUE(ba.ok());
  ASSERT_TRUE(ab->complete);
  ASSERT_TRUE(ba->complete);
  auto flipped = EntryMap(*ba);
  for (auto& [key, entry] : flipped) entry.first = -entry.first;
  EXPECT_EQ(EntryMap(*ab), flipped);
  EXPECT_EQ(ab->entries.size(), 10u);
}

TEST(IbltTest, DecodeDiffMatchesOneTableHoldingBothSides) {
  // A - B peeled across two tables equals one table that inserts A's
  // key-value pairs and deletes B's: the same entries, counts and values.
  IbltParams params = MakeParams(96, 4, 5);
  Iblt alice(params), bob(params), both(params);
  Rng rng(6);
  auto value_of = [](uint64_t key) {
    std::vector<uint8_t> value(5);
    for (size_t i = 0; i < value.size(); ++i) {
      value[i] = static_cast<uint8_t>(key >> (8 * i));
    }
    return value;
  };
  for (int i = 0; i < 50; ++i) {
    const uint64_t key = rng.Next();
    alice.InsertKv(key, value_of(key));
    bob.InsertKv(key, value_of(key));
    both.InsertKv(key, value_of(key));
    both.DeleteKv(key, value_of(key));
  }
  for (int i = 0; i < 5; ++i) {
    const uint64_t key = rng.Next();
    alice.InsertKv(key, value_of(key));
    both.InsertKv(key, value_of(key));
  }
  for (int i = 0; i < 5; ++i) {
    const uint64_t key = rng.Next();
    bob.InsertKv(key, value_of(key));
    both.DeleteKv(key, value_of(key));
  }
  auto diff = alice.DecodeDiff(bob);
  ASSERT_TRUE(diff.ok());
  ASSERT_TRUE(diff->complete);
  IbltDecodeResult single = both.Decode();
  ASSERT_TRUE(single.complete);
  EXPECT_EQ(EntryMap(*diff), EntryMap(single));
  EXPECT_EQ(diff->entries.size(), 10u);
  for (const auto& e : diff->entries) EXPECT_EQ(e.value, value_of(e.key));
}

TEST(IbltTest, SerializationRoundTrip) {
  IbltParams params = MakeParams(48, 3, 2);
  Iblt table(params);
  table.InsertKv(5, {10, 20});
  table.InsertKv(6, {30, 40});
  table.DeleteKv(7, {50, 60});
  ByteWriter w;
  table.WriteTo(&w);
  ByteReader r(w.buffer());
  auto restored = Iblt::ReadFrom(&r, params);
  ASSERT_TRUE(restored.ok());
  IbltDecodeResult a = table.Decode();
  IbltDecodeResult b = restored->Decode();
  EXPECT_EQ(a.complete, b.complete);
  EXPECT_EQ(a.entries.size(), b.entries.size());
}

TEST(IbltTest, UpdateManyMatchesPerKeyUpdate) {
  // The batch path the reconcilers and estimators use must leave exactly
  // the cells of a plain per-key Update loop, down to the WriteTo bytes.
  Rng rng(4);
  std::vector<uint64_t> ins_keys(300), del_keys(111);
  for (auto& k : ins_keys) k = rng.Next();
  for (auto& k : del_keys) k = rng.Next();

  Iblt per_key(MakeParams(257, 4, 0, 17));
  for (uint64_t k : ins_keys) per_key.Update(k, nullptr, +1);
  for (uint64_t k : del_keys) per_key.Update(k, nullptr, -1);
  Iblt batch(MakeParams(257, 4, 0, 17));
  batch.InsertMany(ins_keys);
  batch.DeleteMany(del_keys);

  ByteWriter want, got;
  per_key.WriteTo(&want);
  batch.WriteTo(&got);
  EXPECT_EQ(got.buffer(), want.buffer());
}

TEST(IbltTest, SerializationDetectsTruncation) {
  IbltParams params = MakeParams(48);
  Iblt table(params);
  ByteWriter w;
  table.WriteTo(&w);
  std::vector<uint8_t> truncated(w.buffer().begin(), w.buffer().end() - 4);
  ByteReader r(truncated.data(), truncated.size());
  auto restored = Iblt::ReadFrom(&r, params);
  EXPECT_FALSE(restored.ok());
}

TEST(IbltTest, CellCountRoundsUpToMultipleOfQ) {
  Iblt table(MakeParams(10, 4));
  EXPECT_EQ(table.num_cells() % 4, 0u);
  EXPECT_GE(table.num_cells(), 10u);
}

// Parameterized sweep: decode success across difference sizes with the
// standard ~1.5x headroom (Theorem 2.6 regime: cm keys in m cells, c < c*_q).
class IbltLoadTest : public ::testing::TestWithParam<size_t> {};

TEST_P(IbltLoadTest, DecodesDifferencesWithHeadroom) {
  const size_t diff = GetParam();
  // 2x headroom plus a floor: tiny tables lack the concentration the
  // asymptotic threshold c*_q promises (see bench_iblt_threshold).
  const size_t cells = std::max<size_t>(
      static_cast<size_t>(static_cast<double>(diff) * 2.0), 32);
  int failures = 0;
  const int kTrials = 30;
  for (int trial = 0; trial < kTrials; ++trial) {
    Iblt table(MakeParams(cells, 4, 0, static_cast<uint64_t>(1000 + trial)));
    Rng rng(static_cast<uint64_t>(7000 + trial));
    for (size_t i = 0; i < diff; ++i) {
      uint64_t k = rng.Next();
      if (i % 2 == 0) {
        table.Insert(k);
      } else {
        table.Delete(k);
      }
    }
    IbltDecodeResult result = table.Decode();
    if (!result.complete || result.entries.size() != diff) ++failures;
  }
  EXPECT_LE(failures, 1) << "diff=" << diff << " cells=" << cells;
}

INSTANTIATE_TEST_SUITE_P(Loads, IbltLoadTest,
                         ::testing::Values(4, 8, 16, 32, 64, 128, 256));

TEST(IbltTest, DuplicateKeySameSideBreaksDecodeWithoutSalting) {
  // Documents the XOR multiset limitation that motivates occurrence salting
  // (and the RIBLT's sum cells).
  Iblt table(MakeParams(64));
  table.Insert(42);
  table.Insert(42);  // cancels in every XOR cell, counts become 2
  IbltDecodeResult result = table.Decode();
  EXPECT_FALSE(result.complete);
}

}  // namespace
}  // namespace rsr

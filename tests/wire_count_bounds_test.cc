// Counts parsed off the wire must be bounded by the bytes that remain before
// they size a loop or an allocation. Each case forges a huge count (2^40
// items, or a 2^24-coordinate point) in front of a 10-byte tail: an unbounded
// parser would throw on the reservation or grow memory until it runs out,
// while a bounded one poisons the reader and reports Corruption without
// allocating anything. Honest messages still round-trip.
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "alloc_counter.h"
#include "geometry/point.h"
#include "geometry/point_store.h"
#include "setsets/reconciler.h"
#include "util/serialize.h"

namespace rsr {
namespace {

using ::rsr::testing::AllocationCount;

constexpr uint64_t kForgedCount = uint64_t{1} << 40;

/// varint(count) followed by a 10-byte tail of ones.
std::vector<uint8_t> ForgedMessage(uint64_t count) {
  ByteWriter w;
  w.PutVarint64(count);
  for (int i = 0; i < 10; ++i) w.PutU8(1);
  return w.buffer();
}

TEST(WireCountBoundsTest, CountFitsBoundsByRemainingBytes) {
  const std::vector<uint8_t> bytes(10, 0);
  ByteReader ok(bytes);
  EXPECT_TRUE(ok.CountFits(5, 2));
  EXPECT_TRUE(ok.CountFits(0, 8));
  EXPECT_FALSE(ok.failed());

  ByteReader too_many(bytes);
  EXPECT_FALSE(too_many.CountFits(6, 2));
  EXPECT_TRUE(too_many.failed());
  EXPECT_FALSE(too_many.status().ok());

  ByteReader already_failed(bytes);
  already_failed.Invalidate();
  EXPECT_FALSE(already_failed.CountFits(0, 1));
}

TEST(WireCountBoundsTest, PointStoreReadFromRejectsForgedCountBeforeReserving) {
  const std::vector<uint8_t> bytes(10, 1);
  ByteReader r(bytes);
  const long long before = AllocationCount();
  PointStore store = PointStore::ReadFrom(&r, /*dim=*/4, kForgedCount);
  EXPECT_EQ(AllocationCount(), before);
  EXPECT_TRUE(r.failed());
  EXPECT_EQ(store.size(), 0u);
}

TEST(WireCountBoundsTest, PointReadFromRejectsForgedDimensionWithoutAllocating) {
  const std::vector<uint8_t> bytes = ForgedMessage(uint64_t{1} << 24);
  ByteReader r(bytes);
  const long long before = AllocationCount();
  Point p = Point::ReadFrom(&r);
  EXPECT_EQ(AllocationCount(), before);
  EXPECT_TRUE(r.failed());
  EXPECT_EQ(p.dim(), 0u);
}

TEST(WireCountBoundsTest, ReadSetsRejectsForgedCount) {
  const std::vector<uint8_t> bytes = ForgedMessage(kForgedCount);
  ByteReader r(bytes);
  std::vector<SlottedSet> out;
  Status status = internal::ReadSets(&r, /*slots=*/2, &out);
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
  EXPECT_TRUE(r.failed());
  EXPECT_TRUE(out.empty());
}

TEST(WireCountBoundsTest, HonestMessagesStillParse) {
  ByteWriter w;
  const std::vector<Point> points = {Point({1, 2, 3}), Point({4, 5, 6})};
  PointStore store(3);
  for (const Point& p : points) store.Append(p);
  w.PutVarint64(points.size());
  for (const Point& p : points) p.WriteTo(&w);
  // Two 2-slot sets, one u32 per slot.
  w.PutVarint64(2);
  for (uint32_t v : {7u, 8u, 9u, 10u}) w.PutU32(v);
  store.WriteTo(&w);

  // Per-Point bytes parse as a store, and store bytes as Points.
  ByteReader r(w.buffer());
  const uint64_t count = r.GetVarint64();
  ASSERT_EQ(count, points.size());
  EXPECT_EQ(PointStore::ReadFrom(&r, 3, points.size()), store);
  std::vector<SlottedSet> sets;
  ASSERT_TRUE(internal::ReadSets(&r, 2, &sets).ok());
  EXPECT_EQ(sets, (std::vector<SlottedSet>{{7, 8}, {9, 10}}));
  for (const Point& p : points) EXPECT_EQ(Point::ReadFrom(&r), p);
  EXPECT_TRUE(r.FinishAndCheckConsumed().ok());
}

}  // namespace
}  // namespace rsr

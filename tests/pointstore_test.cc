// PointStore contract tests: a store row must be indistinguishable from the
// single-point Point type everywhere it matters — wire bytes, content
// hashes, ordering — while the hot paths (AppendStore, EvaluateAllInto,
// Riblt::InsertMany) perform zero per-point allocations (counted via the
// shared operator-new overrides in alloc_counter.cc).
#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "alloc_counter.h"
#include "geometry/point_store.h"
#include "lsh/bit_sampling.h"
#include "lsh/eval_pipeline.h"
#include "lsh/pstable.h"
#include "sketch/riblt.h"
#include "util/random.h"
#include "util/serialize.h"
#include "workload/generators.h"

namespace rsr {
namespace {

using ::rsr::testing::AllocationCount;

/// A reference vector of owning Points, with many duplicate rows.
std::vector<Point> WithDuplicatesAndNegatives(size_t n, size_t dim, Rng* rng) {
  std::vector<Point> points;
  for (size_t i = 0; i < n; ++i) {
    std::vector<Coord> coords(dim);
    for (auto& c : coords) {
      c = rng->UniformInt(-3, 3);  // small alphabet => many duplicates
    }
    points.push_back(Point(std::move(coords)));
  }
  return points;
}

PointStore StoreOf(size_t dim, const std::vector<Point>& points) {
  PointStore store(dim);
  for (const Point& p : points) store.Append(p);
  return store;
}

TEST(PointStoreTest, SerializationByteIdenticalToLegacyPointFormat) {
  Rng rng(1);
  std::vector<Point> points = WithDuplicatesAndNegatives(65, 5, &rng);
  PointStore store = StoreOf(5, points);

  ByteWriter legacy;
  for (const Point& p : points) p.WriteTo(&legacy);
  ByteWriter columnar;
  store.WriteTo(&columnar);
  ASSERT_EQ(legacy.buffer(), columnar.buffer());

  // Per-row writer matches too (protocols interleave rows with other data).
  ByteWriter row_wise;
  for (size_t i = 0; i < store.size(); ++i) store.WritePointTo(&row_wise, i);
  EXPECT_EQ(legacy.buffer(), row_wise.buffer());

  // Round trip through both readers.
  ByteReader store_reader(columnar.buffer());
  PointStore parsed = PointStore::ReadFrom(&store_reader, 5, points.size());
  ASSERT_TRUE(store_reader.FinishAndCheckConsumed().ok());
  ASSERT_EQ(parsed.size(), points.size());
  for (size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(parsed.MakePoint(i), points[i]) << i;
  }

  // Point's reader parses the store's bytes.
  ByteReader point_reader(columnar.buffer());
  for (size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(Point::ReadFrom(&point_reader), points[i]) << i;
  }
  EXPECT_TRUE(point_reader.FinishAndCheckConsumed().ok());
}

TEST(PointStoreTest, ReadFromRejectsDimensionMismatch) {
  Rng rng(2);
  PointStore store = GenerateUniformStore(4, 3, 7, &rng);
  ByteWriter w;
  store.WriteTo(&w);
  ByteReader r(w.buffer());
  PointStore parsed = PointStore::ReadFrom(&r, 4, 4);  // wrong dim
  EXPECT_FALSE(r.status().ok());
}

TEST(PointStoreTest, ContentHashManyMatchesPerPointContentHash) {
  Rng rng(3);
  PointStore store = GenerateUniformStore(57, 6, 1023, &rng);
  std::vector<uint64_t> store_hashes(store.size());
  store.ContentHashMany(0xabcULL, store_hashes.data());
  for (size_t i = 0; i < store.size(); ++i) {
    ASSERT_EQ(store_hashes[i], store.MakePoint(i).ContentHash(0xabcULL)) << i;
    ASSERT_EQ(store_hashes[i], store[i].ContentHash(0xabcULL)) << i;
  }
}

TEST(PointStoreTest, SortAndDedupMatchStdSortOnPointSet) {
  Rng rng(4);
  std::vector<Point> points = WithDuplicatesAndNegatives(120, 3, &rng);
  PointStore store = StoreOf(3, points);

  std::vector<Point> sorted = points;
  std::sort(sorted.begin(), sorted.end());
  PointStore store_sorted = store;
  store_sorted.SortLex();
  ASSERT_EQ(store_sorted.size(), sorted.size());
  for (size_t i = 0; i < sorted.size(); ++i) {
    ASSERT_EQ(store_sorted.MakePoint(i), sorted[i]) << i;
  }

  std::vector<Point> deduped = sorted;
  deduped.erase(std::unique(deduped.begin(), deduped.end()), deduped.end());
  store.SortLexAndDedup();
  ASSERT_EQ(store.size(), deduped.size());
  for (size_t i = 0; i < deduped.size(); ++i) {
    ASSERT_EQ(store.MakePoint(i), deduped[i]) << i;
  }
}

TEST(PointStoreTest, PointRefComparisonsMatchPointSemantics) {
  Rng rng(5);
  std::vector<Point> points = WithDuplicatesAndNegatives(40, 4, &rng);
  PointStore store = StoreOf(4, points);
  for (size_t i = 0; i < points.size(); ++i) {
    for (size_t j = 0; j < points.size(); ++j) {
      ASSERT_EQ(store[i] == store[j], points[i] == points[j]);
      ASSERT_EQ(store[i] < store[j], points[i] < points[j]);
    }
  }
}

TEST(PointStoreTest, InDomainAllMatchesPerPointInDomain) {
  Rng rng(6);
  PointStore store = GenerateUniformStore(32, 4, 255, &rng);
  EXPECT_TRUE(store.InDomainAll(255));
  EXPECT_FALSE(store.InDomainAll(254 / 2));  // some coordinate exceeds
  for (size_t i = 0; i < store.size(); ++i) {
    EXPECT_EQ(store[i].InDomain(100), store.MakePoint(i).InDomain(100));
  }
  ValidatePointStore(store, 4, 255);
}

TEST(PointStoreTest, AppendManyAfterReserveDoesNotAllocate) {
  Rng rng(8);
  const PointStore points = GenerateUniformStore(512, 4, 255, &rng);
  PointStore store(4);
  store.Reserve(points.size());
  long long before = AllocationCount();
  store.AppendStore(points);
  EXPECT_EQ(AllocationCount(), before);
  EXPECT_EQ(store, points);
  // Raw-row appends are allocation-free too.
  long long before_rows = AllocationCount();
  PointStore copy(4);
  // (construction itself may not allocate; the arena grab below may — so
  // reserve first, outside the measured window)
  copy.Reserve(store.size());
  before_rows = AllocationCount();
  for (size_t i = 0; i < store.size(); ++i) copy.Append(store.row(i));
  EXPECT_EQ(AllocationCount(), before_rows);
  EXPECT_EQ(copy.size(), store.size());
}

TEST(PointStoreTest, WarmEvaluateAllIntoAndInsertManyDoNotAllocate) {
  // The EMD protocol hot path over a store: LSH matrix fill + keyed RIBLT
  // insertion. After one warm-up run (matrix sized, the thread's transpose
  // buffer grown, store arena final) the whole pipeline must perform ZERO
  // allocations — this is the "per-run flatten copy eliminated" acceptance
  // check.
  Rng rng(9);
  PointStore store = GenerateUniformStore(256, 8, 1023, &rng);
  PStableFamily family(8, 32.0);
  Rng draw_rng(10);
  std::vector<std::unique_ptr<LshFunction>> draws =
      DrawMany(family, 16, &draw_rng);

  EvalMatrix matrix;
  EvaluateAllInto(store, draws, /*num_threads=*/1, &matrix);  // warm-up

  RibltParams params;
  params.num_cells = 288;
  params.num_hashes = 3;
  params.dim = 8;
  params.delta = 1023;
  params.seed = 11;
  Riblt table(params);
  std::vector<uint64_t> keys(store.size());
  store.ContentHashMany(0x5eed, keys.data());

  long long before = AllocationCount();
  EvaluateAllInto(store, draws, /*num_threads=*/1, &matrix);
  store.ContentHashMany(0x5eed, keys.data());
  table.InsertMany(keys, store);
  table.DeleteMany(keys, store);
  EXPECT_EQ(AllocationCount(), before);

  // The integer-coordinate (bit sampling) path is allocation-free too.
  BitSamplingFamily hamming(8, 16.0);
  std::vector<std::unique_ptr<LshFunction>> bit_draws =
      DrawMany(hamming, 16, &draw_rng);
  EvaluateAllInto(store, bit_draws, /*num_threads=*/1, &matrix);  // warm-up
  before = AllocationCount();
  EvaluateAllInto(store, bit_draws, /*num_threads=*/1, &matrix);
  EXPECT_EQ(AllocationCount(), before);
}

// ------------------------------------------------ in-place row edits --

TEST(PointStoreTest, RemoveRowSwapAndTruncateKeepRowOrder) {
  Rng rng(32);
  PointStore store = GenerateUniformStore(8, 2, 500, &rng);
  const PointStore original = store;

  // Swap-remove moves the last row into the vacated slot; every other row
  // stays where it was.
  store.RemoveRowSwap(2);
  ASSERT_EQ(store.size(), 7u);
  for (size_t i = 0; i < store.size(); ++i) {
    EXPECT_EQ(store.MakePoint(i), original.MakePoint(i == 2 ? 7 : i)) << i;
  }

  // Removing the last row just shrinks the store.
  store.RemoveRowSwap(store.size() - 1);
  EXPECT_EQ(store.size(), 6u);

  // Rows appended after earlier removals move the same way.
  Coord a[2] = {11, -3};
  Coord b[2] = {21, 9};
  store.Append(a);
  store.Append(b);
  store.RemoveRowSwap(0);
  EXPECT_EQ(store.MakePoint(0), Point({21, 9}));
  EXPECT_EQ(store.MakePoint(store.size() - 1), Point({11, -3}));

  // Truncate keeps the surviving prefix in order, is a no-op past the end,
  // and later appends land right after the prefix.
  const PointStore before_trim = store;
  store.Truncate(3);
  ASSERT_EQ(store.size(), 3u);
  for (size_t i = 0; i < store.size(); ++i) {
    EXPECT_EQ(store.MakePoint(i), before_trim.MakePoint(i)) << i;
  }
  store.Truncate(5);
  EXPECT_EQ(store.size(), 3u);
  store.Append(a);
  EXPECT_EQ(store.MakePoint(3), Point({11, -3}));
}

}  // namespace
}  // namespace rsr

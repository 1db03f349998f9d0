// Enforces the sketch-layer engineering invariants (see sketch/README.md):
// Iblt/Riblt updates and batched updates perform ZERO heap allocations, and
// Decode's scratch pool stops allocating after its first use. The global
// operator new/delete overrides below count every allocation in the binary,
// so these tests fail loudly if someone reintroduces a std::vector (or any
// other allocation) into the hot path.
//
// Also covers the decode-completeness semantics the hot path must preserve:
// residual value XORs with zeroed counts/keys must report complete = false.
//
// The global operator new/delete counting overrides live in alloc_counter.cc
// (one definition for the whole combined test binary; pointstore_test reads
// the same counter).
#include <vector>

#include <gtest/gtest.h>

#include "alloc_counter.h"
#include "sketch/iblt.h"
#include "sketch/riblt.h"
#include "sketch/strata.h"
#include "util/random.h"
#include "workload/generators.h"

namespace rsr {
namespace {

using ::rsr::testing::AllocationCount;

TEST(SketchHotPathTest, IbltUpdateDoesNotAllocate) {
  IbltParams params;
  params.num_cells = 1024;
  params.seed = 1;
  Iblt table(params);
  Rng rng(2);
  long long before = AllocationCount();
  for (int i = 0; i < 10000; ++i) {
    table.Update(rng.Next(), nullptr, i % 2 == 0 ? +1 : -1);
  }
  EXPECT_EQ(AllocationCount(), before);
}

TEST(SketchHotPathTest, IbltValuedUpdateDoesNotAllocate) {
  IbltParams params;
  params.num_cells = 256;
  params.value_size = 32;
  params.seed = 3;
  Iblt table(params);
  uint8_t value[32] = {0};
  Rng rng(4);
  long long before = AllocationCount();
  for (int i = 0; i < 10000; ++i) {
    value[0] = static_cast<uint8_t>(i);
    table.Update(rng.Next(), value, +1);
  }
  EXPECT_EQ(AllocationCount(), before);
}

TEST(SketchHotPathTest, IbltUpdateManyDoesNotAllocate) {
  IbltParams params;
  params.num_cells = 1024;
  params.seed = 5;
  Iblt table(params);
  std::vector<uint64_t> keys(4096);
  Rng rng(6);
  for (auto& k : keys) k = rng.Next();
  long long before = AllocationCount();
  table.UpdateMany(keys, +1);
  table.UpdateMany(keys, -1);
  EXPECT_EQ(AllocationCount(), before);
}

TEST(SketchHotPathTest, IbltDecodeScratchPoolStopsAllocating) {
  IbltParams params;
  params.num_cells = 512;
  params.seed = 7;
  Iblt table(params);
  // First decode sizes the scratch pool.
  (void)table.Decode();
  // An empty table decodes to zero entries: with the pool warm there is
  // nothing left to allocate.
  long long before = AllocationCount();
  IbltDecodeResult result = table.Decode();
  EXPECT_EQ(AllocationCount(), before);
  EXPECT_TRUE(result.complete);
  EXPECT_TRUE(result.entries.empty());
}

TEST(SketchHotPathTest, RibltUpdateDoesNotAllocate) {
  RibltParams params;
  params.num_cells = 288;
  params.dim = 8;
  params.delta = 1023;
  params.seed = 8;
  Riblt table(params);
  Rng rng(9);
  Point p = GenerateUniformStore(1, 8, 1023, &rng).MakePoint(0);
  long long before = AllocationCount();
  for (int i = 0; i < 10000; ++i) {
    table.Update(rng.Next(), p.coords().data(), +1);
  }
  EXPECT_EQ(AllocationCount(), before);
}

TEST(SketchHotPathTest, RibltUpdateManyDoesNotAllocate) {
  RibltParams params;
  params.num_cells = 288;
  params.dim = 4;
  params.delta = 255;
  params.seed = 10;
  Riblt table(params);
  Rng rng(11);
  PointStore points = GenerateUniformStore(256, 4, 255, &rng);
  std::vector<uint64_t> keys(points.size());
  for (auto& k : keys) k = rng.Next();
  long long before = AllocationCount();
  table.InsertMany(keys, points);
  table.DeleteMany(keys, points);
  EXPECT_EQ(AllocationCount(), before);
}

TEST(SketchHotPathTest, RibltWarmDecodeIntoDoesNotAllocate) {
  // The store-native decode contract: with a warm scratch pool AND a warm
  // (previously decoded into) result, DecodeInto performs zero heap
  // allocations end-to-end — the extracted rows go straight into the
  // result's reused arenas.
  RibltParams params;
  params.num_cells = 288;
  params.dim = 8;
  params.delta = 1023;
  params.seed = 15;
  Riblt table(params);
  Rng rng(16);
  PointStore points = GenerateUniformStore(16, 8, 1023, &rng);
  std::vector<uint64_t> keys(points.size());
  for (auto& k : keys) k = rng.Next();
  table.InsertMany(keys, points);

  RibltDecodeResult result;
  Rng warmup_rng(17);
  ASSERT_TRUE(table.DecodeInto(64, 32, &warmup_rng, &result).ok());
  ASSERT_EQ(result.inserted.size(), points.size());

  long long before = AllocationCount();
  Rng decode_rng(17);
  Status status = table.DecodeInto(64, 32, &decode_rng, &result);
  EXPECT_EQ(AllocationCount(), before);
  ASSERT_TRUE(status.ok());
  EXPECT_TRUE(result.complete);
  EXPECT_EQ(result.inserted.size(), points.size());
  EXPECT_EQ(result.inserted_keys.size(), points.size());
}

TEST(SketchHotPathTest, StrataInsertDoesNotAllocate) {
  StrataParams params;
  params.seed = 12;
  StrataEstimator estimator(params);
  std::vector<uint64_t> keys(4096);
  Rng rng(13);
  for (auto& k : keys) k = rng.Next();
  long long before = AllocationCount();
  estimator.InsertMany(keys);
  EXPECT_EQ(AllocationCount(), before);
}

TEST(SketchHotPathTest, ValueResidueReportsIncomplete) {
  // Same key inserted and deleted with different payloads: counts and key
  // XORs cancel, but the value slab keeps the disagreement. Decode must not
  // claim completeness (it used to, silently dropping the difference).
  IbltParams params;
  params.num_cells = 64;
  params.value_size = 4;
  params.seed = 14;
  Iblt table(params);
  table.InsertKv(42, {1, 2, 3, 4});
  table.DeleteKv(42, {4, 3, 2, 1});
  IbltDecodeResult result = table.Decode();
  EXPECT_TRUE(result.entries.empty());
  EXPECT_FALSE(result.complete);

  // Matching payloads cancel exactly and stay complete.
  Iblt clean(params);
  clean.InsertKv(42, {1, 2, 3, 4});
  clean.DeleteKv(42, {1, 2, 3, 4});
  EXPECT_TRUE(clean.Decode().complete);
}

}  // namespace
}  // namespace rsr

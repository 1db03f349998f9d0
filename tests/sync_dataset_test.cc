// Pins the SyncDataset maintenance contract (core/sync_dataset.h): after ANY
// interleaving of inserts and deletes, every maintained RIBLT and strata
// estimator is WriteTo byte-identical to a cold BuildEmdSketches over the
// surviving rows — across level ladders and thread counts — and warm
// mutations perform zero heap allocations (alloc_counter.cc).
#include <algorithm>
#include <numeric>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "alloc_counter.h"
#include "core/emd_sketch.h"
#include "core/sync_dataset.h"
#include "util/random.h"
#include "util/serialize.h"
#include "workload/generators.h"

namespace rsr {
namespace {

using ::rsr::testing::AllocationCount;

EmdProtocolParams MakeParams(size_t d2, size_t threads, uint64_t seed = 77) {
  EmdProtocolParams params;
  params.metric = MetricKind::kL1;
  params.dim = 3;
  params.delta = 1023;
  params.k = 2;
  params.d1 = 1;
  params.d2 = static_cast<double>(d2);
  params.num_threads = threads;
  params.seed = seed;
  return params;
}

/// `count` distinct rows in a deterministic shuffled order (distinct rows =>
/// distinct content-hash keys, which Create requires).
PointStore DistinctPool(size_t count, uint64_t seed) {
  Rng rng(seed);
  PointStore points = GenerateUniformStore(count * 2, 3, 1023, &rng);
  points.SortLexAndDedup();
  RSR_CHECK(points.size() >= count);
  std::vector<size_t> order(count);
  std::iota(order.begin(), order.end(), size_t{0});
  for (size_t i = count; i > 1; --i) {
    std::swap(order[i - 1], order[rng.Below(i)]);
  }
  PointStore pool(3);
  pool.Reserve(count);
  for (size_t i : order) pool.Append(points.row(i));
  return pool;
}

/// The core invariant: maintained cells == cold-build cells, byte for byte.
void ExpectMatchesColdBuild(const SyncDataset& ds,
                            const EmdProtocolParams& params) {
  auto cold = BuildEmdSketches(ds.rows(), params, /*build_estimators=*/true);
  ASSERT_TRUE(cold.ok());
  const EmdSketchSet& live = ds.sketches();
  EXPECT_EQ(live.n, ds.rows().size());
  ASSERT_EQ(live.tables.size(), cold->tables.size());
  for (size_t l = 0; l < live.tables.size(); ++l) {
    ByteWriter maintained, rebuilt;
    live.tables[l].WriteTo(&maintained);
    cold->tables[l].WriteTo(&rebuilt);
    EXPECT_EQ(maintained.buffer(), rebuilt.buffer()) << "table level " << l;
  }
  ASSERT_EQ(live.estimators.size(), cold->estimators.size());
  for (size_t l = 0; l < live.estimators.size(); ++l) {
    ByteWriter maintained, rebuilt;
    live.estimators[l].WriteTo(&maintained);
    cold->estimators[l].WriteTo(&rebuilt);
    EXPECT_EQ(maintained.buffer(), rebuilt.buffer())
        << "estimator level " << l;
  }
}

TEST(SyncDatasetTest, IncrementalMatchesColdBuildAcrossConfigs) {
  PointStore pool = DistinctPool(140, 5);
  for (size_t d2 : std::vector<size_t>{8, 256}) {
    for (size_t threads : std::vector<size_t>{1, 4}) {
      SCOPED_TRACE("d2=" + std::to_string(d2) +
                   " threads=" + std::to_string(threads));
      EmdProtocolParams params = MakeParams(d2, threads);
      PointStore initial(3);
      for (size_t i = 0; i < 96; ++i) initial.Append(pool[i]);
      auto ds = SyncDataset::Create(initial, params);
      ASSERT_TRUE(ds.ok());
      ExpectMatchesColdBuild(*ds, params);

      // Singleton inserts...
      for (size_t i = 96; i < 116; ++i) {
        auto key = ds->Insert(pool[i]);
        ASSERT_TRUE(key.ok());
        EXPECT_EQ(*key, ds->KeyOf(pool[i]));
      }
      // ...singleton deletes of original rows...
      for (size_t i = 0; i < 10; ++i) {
        ASSERT_TRUE(ds->Delete(ds->KeyOf(pool[i])).ok());
      }
      // ...and one batch whose deletes span original rows, a previous
      // singleton insert, and rows inserted by this very batch.
      PointStore batch(3);
      for (size_t i = 116; i < 136; ++i) batch.Append(pool[i]);
      std::vector<uint64_t> dels;
      for (size_t i = 10; i < 18; ++i) dels.push_back(ds->KeyOf(pool[i]));
      dels.push_back(ds->KeyOf(pool[100]));
      dels.push_back(ds->KeyOf(pool[116]));
      dels.push_back(ds->KeyOf(pool[117]));
      ASSERT_TRUE(ds->ApplyBatch(batch, dels).ok());
      ASSERT_EQ(ds->size(), 115u);

      ExpectMatchesColdBuild(*ds, params);

      // The surviving rows are exactly (initial u inserts) \ deletions.
      PointStore want(3);
      for (size_t i = 18; i < 116; ++i) {
        if (i == 100) continue;
        want.Append(pool[i]);
      }
      for (size_t i = 118; i < 136; ++i) want.Append(pool[i]);
      want.SortLex();
      PointStore got = ds->rows();
      got.SortLex();
      EXPECT_EQ(got, want);
    }
  }
}

TEST(SyncDatasetTest, ColdBuildIdenticalAcrossThreadCounts) {
  // Levels and key rows fan out over worker threads in Create; the tables
  // and estimators must not depend on how many.
  PointStore pool = DistinctPool(96, 10);
  auto one = SyncDataset::Create(pool, MakeParams(256, 1));
  auto four = SyncDataset::Create(pool, MakeParams(256, 4));
  ASSERT_TRUE(one.ok());
  ASSERT_TRUE(four.ok());
  const EmdSketchSet& a = one->sketches();
  const EmdSketchSet& b = four->sketches();
  ASSERT_GE(a.tables.size(), 4u);
  ASSERT_EQ(a.tables.size(), b.tables.size());
  for (size_t l = 0; l < a.tables.size(); ++l) {
    ByteWriter wa, wb;
    a.tables[l].WriteTo(&wa);
    b.tables[l].WriteTo(&wb);
    EXPECT_EQ(wa.buffer(), wb.buffer()) << "table level " << l;
  }
  ASSERT_EQ(a.estimators.size(), b.estimators.size());
  for (size_t l = 0; l < a.estimators.size(); ++l) {
    ByteWriter wa, wb;
    a.estimators[l].WriteTo(&wa);
    b.estimators[l].WriteTo(&wb);
    EXPECT_EQ(wa.buffer(), wb.buffer()) << "estimator level " << l;
  }
}

TEST(EmdSketchTest, LevelTablesMatchPlainPerLevelInsertMany) {
  // BuildEmdLevelTables, with a different cell count on every level and its
  // levels spread over 3 threads, against one plain InsertMany per level.
  PointStore points = DistinctPool(64, 11);
  const EmdProtocolParams params = MakeParams(8, 3);
  const std::vector<size_t> level_cells = {36, 90, 15, 48};
  const size_t n = points.size();
  std::vector<uint64_t> keys(level_cells.size() * n);
  Rng rng(12);
  for (auto& k : keys) k = rng.Next() & kEmdLevelKeyMask;

  std::vector<Riblt> tables =
      BuildEmdLevelTables(keys, points, level_cells, params);
  ASSERT_EQ(tables.size(), level_cells.size());
  for (size_t l = 0; l < level_cells.size(); ++l) {
    Riblt plain(EmdLevelRibltParams(params, level_cells[l], l + 1));
    plain.InsertMany(std::span<const uint64_t>(keys.data() + l * n, n),
                     points);
    ByteWriter want, got;
    plain.WriteTo(&want);
    tables[l].WriteTo(&got);
    EXPECT_EQ(got.buffer(), want.buffer()) << "level " << l;
    EXPECT_EQ(tables[l].num_cells(), plain.num_cells());
  }
}

TEST(SyncDatasetTest, CreateRejectsUnsupportedConfigs) {
  PointStore pool = DistinctPool(8, 6);
  EmdProtocolParams params = MakeParams(8, 1);

  EmdProtocolParams no_d2 = params;
  no_d2.d2 = 0;
  EXPECT_FALSE(SyncDataset::Create(pool, no_d2).ok());

  // Adaptive is accepted only with divisor-ladder rounding (the maintained
  // cap tables serve adaptive exchanges by folding, which needs ladder
  // rungs); exact rounding is rejected.
  EmdProtocolParams adaptive = params;
  adaptive.adaptive.enabled = true;
  EXPECT_FALSE(SyncDataset::Create(pool, adaptive).ok());
  adaptive.adaptive.rounding = CellRounding::kDivisorLadder;
  EXPECT_TRUE(SyncDataset::Create(pool, adaptive).ok());

  EXPECT_FALSE(SyncDataset::Create(PointStore(3), params).ok());

  PointStore dup(3);
  dup.Append(pool[0]);
  dup.Append(pool[1]);
  dup.Append(pool[0]);
  EXPECT_FALSE(SyncDataset::Create(dup, params).ok());
}

TEST(SyncDatasetTest, MutationErrorsLeaveDatasetUntouched) {
  PointStore pool = DistinctPool(40, 7);
  EmdProtocolParams params = MakeParams(8, 1);
  PointStore initial(3);
  for (size_t i = 0; i < 16; ++i) initial.Append(pool[i]);
  auto ds = SyncDataset::Create(initial, params);
  ASSERT_TRUE(ds.ok());
  const uint64_t gen = ds->generation();

  // Duplicate singleton insert / absent singleton delete.
  EXPECT_FALSE(ds->Insert(pool[3]).ok());
  EXPECT_FALSE(ds->Delete(ds->KeyOf(pool[30])).ok());

  // Batch rejections: duplicate rows within the batch, row already present,
  // absent delete key, duplicate delete keys.
  PointStore twice(3);
  twice.Append(pool[20]);
  twice.Append(pool[20]);
  EXPECT_FALSE(ds->ApplyBatch(twice, {}).ok());

  PointStore present(3);
  present.Append(pool[5]);
  EXPECT_FALSE(ds->ApplyBatch(present, {}).ok());

  PointStore fresh(3);
  fresh.Append(pool[21]);
  std::vector<uint64_t> absent = {ds->KeyOf(pool[31])};
  EXPECT_FALSE(ds->ApplyBatch(fresh, absent).ok());
  std::vector<uint64_t> twice_deleted = {ds->KeyOf(pool[4]),
                                         ds->KeyOf(pool[4])};
  EXPECT_FALSE(ds->ApplyBatch(fresh, twice_deleted).ok());

  // Every rejection left the dataset byte-identical and the generation
  // unmoved.
  EXPECT_EQ(ds->generation(), gen);
  EXPECT_EQ(ds->size(), 16u);
  ExpectMatchesColdBuild(*ds, params);
}

TEST(SyncDatasetTest, GenerationBumpsOncePerMutationCall) {
  PointStore pool = DistinctPool(24, 8);
  PointStore initial(3);
  for (size_t i = 0; i < 8; ++i) initial.Append(pool[i]);
  auto ds = SyncDataset::Create(initial, MakeParams(8, 1));
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->generation(), 0u);
  auto key = ds->Insert(pool[10]);
  ASSERT_TRUE(key.ok());
  EXPECT_EQ(ds->generation(), 1u);
  ASSERT_TRUE(ds->Delete(*key).ok());
  EXPECT_EQ(ds->generation(), 2u);
  PointStore batch(3);
  batch.Append(pool[11]);
  batch.Append(pool[12]);
  ASSERT_TRUE(ds->ApplyBatch(batch, {}).ok());
  EXPECT_EQ(ds->generation(), 3u);  // one bump for the whole batch
}

TEST(SyncDatasetTest, WarmMutationsDoNotAllocate) {
  // num_threads = 1 (worker fan-out allocates futures), capacity Reserved,
  // one warm-up of each mutation shape: after that, Insert / Delete /
  // ApplyBatch must not touch the heap — the O(levels * k) incremental
  // update is pure arithmetic on maintained cells.
  EmdProtocolParams params = MakeParams(64, 1);
  PointStore pool = DistinctPool(160, 9);
  PointStore initial(3);
  for (size_t i = 0; i < 128; ++i) initial.Append(pool[i]);
  auto ds = SyncDataset::Create(initial, params);
  ASSERT_TRUE(ds.ok());
  ds->Reserve(160);

  // Warm-up: sizes the eval matrix, level-key buffers, and batch scratch for
  // both mutation shapes used below.
  auto warm_key = ds->Insert(pool[128]);
  ASSERT_TRUE(warm_key.ok());
  ASSERT_TRUE(ds->Delete(*warm_key).ok());
  PointStore warm_batch(3);
  std::vector<uint64_t> warm_dels;
  for (size_t i = 130; i < 138; ++i) {
    warm_batch.Append(pool[i]);
    warm_dels.push_back(ds->KeyOf(pool[i]));
  }
  ASSERT_TRUE(ds->ApplyBatch(warm_batch, warm_dels).ok());

  // Measured: same shapes, different rows; each cycle nets to zero rows so
  // the dataset state is identical every iteration.
  PointStore batch(3);
  std::vector<uint64_t> batch_dels;
  for (size_t i = 140; i < 148; ++i) {
    batch.Append(pool[i]);
    batch_dels.push_back(ds->KeyOf(pool[i]));
  }
  bool all_ok = true;
  long long before = AllocationCount();
  for (int round = 0; round < 50; ++round) {
    auto key = ds->Insert(pool[129]);
    all_ok &= key.ok();
    all_ok &= ds->Delete(key.ok() ? *key : 0).ok();
    all_ok &= ds->ApplyBatch(batch, batch_dels).ok();
  }
  long long after = AllocationCount();
  EXPECT_TRUE(all_ok);
  EXPECT_EQ(after, before);
  EXPECT_EQ(ds->size(), 128u);
  ExpectMatchesColdBuild(*ds, params);
}

}  // namespace
}  // namespace rsr

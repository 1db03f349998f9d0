// Concurrency contract of the sketch layer's scratch model (see
// sketch/cell_table.h): no table owns scratch, so
//   - Riblt::DecodeInto on one const table is reentrant: concurrent decodes,
//     each into its own result (peeling on per-thread pools), reproduce a
//     single-threaded decode exactly (pairs, keys, peel steps), given the
//     same rounding coins;
//   - BuildEmdSketches running on several threads at once over one const
//     store, each with its own worker threads, stays byte-identical to a
//     single-threaded build.
// The ThreadSanitizer CI leg runs this suite (-R 'Sync|Reentrancy').
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/emd_sketch.h"
#include "sketch/riblt.h"
#include "util/random.h"
#include "util/serialize.h"
#include "workload/generators.h"

namespace rsr {
namespace {

constexpr size_t kThreads = 4;
constexpr int kRepeats = 100;
constexpr size_t kDim = 3;
constexpr Coord kDelta = 1023;

RibltParams Params(size_t cells) {
  RibltParams params;
  params.num_cells = cells;
  params.dim = kDim;
  params.delta = kDelta;
  params.seed = 31;
  return params;
}

bool SameDecode(const RibltDecodeResult& a, const RibltDecodeResult& b) {
  return a.complete == b.complete && a.peel_steps == b.peel_steps &&
         a.inserted_keys == b.inserted_keys &&
         a.deleted_keys == b.deleted_keys && a.inserted == b.inserted &&
         a.deleted == b.deleted;
}

template <typename Sketch>
std::vector<uint8_t> Bytes(const Sketch& sketch) {
  ByteWriter w;
  sketch.WriteTo(&w);
  return w.buffer();
}

TEST(SketchReentrancyTest, ConcurrentRibltDecodeIntoMatchesSingleThreaded) {
  // A difference with repeated keys: multi-copy cells extract averaged
  // values, so the randomized rounding consumes each decoder's coins.
  Rng rng(32);
  const size_t n = 600;
  std::vector<uint64_t> keys(n);
  for (size_t i = 0; i < n; ++i) keys[i] = i % 3 == 0 && i > 0 ? keys[i - 1]
                                                               : rng.Next();
  PointStore inserted = GenerateUniformStore(n, kDim, kDelta, &rng);
  std::vector<uint64_t> deleted_keys(40);
  for (auto& k : deleted_keys) k = rng.Next();
  PointStore deleted =
      GenerateUniformStore(deleted_keys.size(), kDim, kDelta, &rng);
  Riblt built(Params(9 * 4 * (n + deleted_keys.size())));
  built.InsertMany(keys, inserted);
  built.DeleteMany(deleted_keys, deleted);
  const Riblt& table = built;

  std::vector<RibltDecodeResult> want(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    Rng coins(100 + t);
    ASSERT_TRUE(table.DecodeInto(10 * n, 10 * n, &coins, &want[t]).ok());
    ASSERT_TRUE(want[t].complete);
    ASSERT_EQ(want[t].inserted.size(), n);
    ASSERT_EQ(want[t].deleted.size(), deleted_keys.size());
  }

  std::vector<int> matches(kThreads, 0);
  std::vector<std::thread> workers;
  for (size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      RibltDecodeResult got;
      for (int rep = 0; rep < kRepeats; ++rep) {
        Rng coins(100 + t);
        if (table.DecodeInto(10 * n, 10 * n, &coins, &got).ok() &&
            SameDecode(got, want[t])) {
          ++matches[t];
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  for (size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(matches[t], kRepeats) << "thread " << t;
  }
}

TEST(SketchReentrancyTest, ConcurrentLevelTableBuildsMatchSequentialBytes) {
  // Several threads build the whole sketch set over one const store at once,
  // each fanning its levels and key rows out to 2 more workers; every table
  // and estimator must match a single-threaded build byte for byte.
  Rng rng(33);
  const PointStore store = GenerateUniformStore(128, kDim, kDelta, &rng);
  EmdProtocolParams params;
  params.metric = MetricKind::kL2;
  params.dim = kDim;
  params.delta = kDelta;
  params.k = 2;
  params.d1 = 1;
  params.d2 = 16;
  params.seed = 34;
  params.num_threads = 1;
  auto reference = BuildEmdSketches(store, params, /*build_estimators=*/true);
  ASSERT_TRUE(reference.ok());
  ASSERT_GE(reference->tables.size(), 2u);
  std::vector<std::vector<uint8_t>> want;
  for (const Riblt& table : reference->tables) want.push_back(Bytes(table));
  for (const StrataEstimator& estimator : reference->estimators) {
    want.push_back(Bytes(estimator));
  }

  params.num_threads = 2;
  std::vector<int> matches(kThreads, 0);
  std::vector<std::thread> workers;
  for (size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int rep = 0; rep < 3; ++rep) {
        auto built = BuildEmdSketches(store, params, /*build_estimators=*/true);
        if (!built.ok()) continue;
        std::vector<std::vector<uint8_t>> got;
        for (const Riblt& table : built->tables) got.push_back(Bytes(table));
        for (const StrataEstimator& estimator : built->estimators) {
          got.push_back(Bytes(estimator));
        }
        if (got == want) ++matches[t];
      }
    });
  }
  for (auto& w : workers) w.join();
  for (size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(matches[t], 3) << "thread " << t;
  }
}

}  // namespace
}  // namespace rsr

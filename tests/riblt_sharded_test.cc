// Sharded-vs-sequential byte-identity for the intra-table RIBLT/IBLT build.
//
// Riblt::UpdateManySharded and Iblt::UpdateManySharded are pure
// re-schedulings of the sequential UpdateMany: every cell sees its updates
// in global key order, so the cell slabs — and therefore the WriteTo wire
// bytes — must match exactly for every (num_shards, num_threads)
// combination, on cold and warm (pooled-scratch) calls alike. The protocol
// tests pin the stronger end-to-end form: full EMD and Gap transcripts are
// independent of the sketch_shards knob.
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/emd_protocol.h"
#include "core/gap_protocol.h"
#include "sketch/iblt.h"
#include "sketch/riblt.h"
#include "util/random.h"
#include "util/serialize.h"
#include "workload/generators.h"

namespace rsr {
namespace {

constexpr size_t kShardCounts[] = {1, 2, 7, 64};
constexpr size_t kThreadCounts[] = {1, 2, 4};

std::vector<uint8_t> Bytes(const Riblt& table) {
  ByteWriter w;
  table.WriteTo(&w);
  return std::vector<uint8_t>(w.buffer().begin(), w.buffer().end());
}

std::vector<uint8_t> Bytes(const Iblt& table) {
  ByteWriter w;
  table.WriteTo(&w);
  return std::vector<uint8_t>(w.buffer().begin(), w.buffer().end());
}

RibltParams MakeRibltParams(size_t cells, size_t dim) {
  RibltParams params;
  params.num_cells = cells;
  params.dim = dim;
  params.delta = 1023;
  params.seed = 99;
  return params;
}

TEST(RibltShardedTest, InsertDeleteMixMatchesSequentialBytes) {
  const size_t dim = 5;
  Rng rng(1);
  const size_t n = 513;  // not a multiple of any shard count
  std::vector<uint64_t> ins_keys(n), del_keys(n / 2);
  for (auto& k : ins_keys) k = rng.Next();
  for (auto& k : del_keys) k = rng.Next();
  PointStore ins_values = GenerateUniformStore(ins_keys.size(), dim, 1023, &rng);
  PointStore del_values = GenerateUniformStore(del_keys.size(), dim, 1023, &rng);

  Riblt reference(MakeRibltParams(384, dim));
  reference.InsertMany(ins_keys, ins_values);
  reference.DeleteMany(del_keys, del_values);
  const std::vector<uint8_t> want = Bytes(reference);

  for (size_t shards : kShardCounts) {
    for (size_t threads : kThreadCounts) {
      Riblt table(MakeRibltParams(384, dim));
      table.InsertManySharded(ins_keys, ins_values, shards, threads);
      table.DeleteManySharded(del_keys, del_values, shards, threads);
      EXPECT_EQ(Bytes(table), want) << "shards " << shards << " threads "
                                    << threads;
    }
  }
}

TEST(RibltShardedTest, WarmReuseAndShardCountSwitchesStayIdentical) {
  // One instance driven through several batches with different shard
  // counts: pooled scratch from a previous call must never leak into the
  // next result.
  const size_t dim = 3;
  Rng rng(2);
  Riblt reference(MakeRibltParams(144, dim));
  Riblt table(MakeRibltParams(144, dim));
  for (size_t round = 0; round < 4; ++round) {
    const size_t n = 100 + 37 * round;
    std::vector<uint64_t> keys(n);
    for (auto& k : keys) k = rng.Next();
    PointStore values = GenerateUniformStore(n, dim, 1023, &rng);
    reference.InsertMany(keys, values);
    table.InsertManySharded(keys, values, kShardCounts[round % 4],
                            kThreadCounts[round % 3]);
    ASSERT_EQ(Bytes(table), Bytes(reference)) << "round " << round;
  }
}

TEST(RibltShardedTest, ShardCountsBeyondCellsClampSafely) {
  const size_t dim = 2;
  Rng rng(3);
  std::vector<uint64_t> keys(41);
  for (auto& k : keys) k = rng.Next();
  PointStore values = GenerateUniformStore(keys.size(), dim, 1023, &rng);
  Riblt reference(MakeRibltParams(9, dim));
  reference.InsertMany(keys, values);
  Riblt table(MakeRibltParams(9, dim));
  table.InsertManySharded(keys, values, /*num_shards=*/1024,
                          /*num_threads=*/4);
  EXPECT_EQ(Bytes(table), Bytes(reference));
}

TEST(IbltShardedTest, InsertDeleteMixMatchesSequentialBytes) {
  IbltParams params;
  params.num_cells = 257;
  params.seed = 17;
  Rng rng(4);
  std::vector<uint64_t> ins_keys(300), del_keys(111);
  for (auto& k : ins_keys) k = rng.Next();
  for (auto& k : del_keys) k = rng.Next();

  Iblt reference(params);
  reference.InsertMany(ins_keys);
  reference.DeleteMany(del_keys);
  const std::vector<uint8_t> want = Bytes(reference);

  for (size_t shards : kShardCounts) {
    for (size_t threads : kThreadCounts) {
      Iblt table(params);
      table.InsertManySharded(ins_keys, shards, threads);
      table.DeleteManySharded(del_keys, shards, threads);
      EXPECT_EQ(Bytes(table), want) << "shards " << shards << " threads "
                                    << threads;
    }
  }
}

TEST(IbltShardedTest, ShardedTableDecodesTheSameDiff) {
  IbltParams params;
  params.num_cells = 128;
  params.seed = 23;
  Rng rng(5);
  std::vector<uint64_t> shared(64), only_a(5), only_b(3);
  for (auto& k : shared) k = rng.Next();
  for (auto& k : only_a) k = rng.Next();
  for (auto& k : only_b) k = rng.Next();
  std::vector<uint64_t> a_keys = shared, b_keys = shared;
  a_keys.insert(a_keys.end(), only_a.begin(), only_a.end());
  b_keys.insert(b_keys.end(), only_b.begin(), only_b.end());

  Iblt a(params), b(params);
  a.InsertManySharded(a_keys, /*num_shards=*/7, /*num_threads=*/2);
  b.InsertManySharded(b_keys, /*num_shards=*/64, /*num_threads=*/1);
  auto diff = a.DecodeDiff(b);
  ASSERT_TRUE(diff.ok());
  EXPECT_TRUE(diff->complete);
  EXPECT_EQ(diff->entries.size(), only_a.size() + only_b.size());
}

void ExpectSameComm(const CommStats& a, const CommStats& b) {
  ASSERT_EQ(a.messages.size(), b.messages.size());
  for (size_t i = 0; i < a.messages.size(); ++i) {
    EXPECT_EQ(a.messages[i].label, b.messages[i].label);
    EXPECT_EQ(a.messages[i].bytes, b.messages[i].bytes);
  }
}

TEST(RibltShardedTest, EmdTranscriptIdenticalForEveryShardCount) {
  const size_t dim = 3;
  const Coord delta = 63;
  Rng rng(42);
  PointStore alice = GenerateUniformStore(48, dim, delta, &rng);
  // Bob = Alice with row 0 replaced by a fresh point.
  PointStore bob = GenerateUniformStore(1, dim, delta, &rng);
  for (size_t i = 1; i < alice.size(); ++i) bob.Append(alice.row(i));
  EmdProtocolParams params;
  params.metric = MetricKind::kL2;
  params.dim = dim;
  params.delta = delta;
  params.k = 2;
  params.d1 = 1;
  params.d2 = 16;
  params.seed = 1234;
  auto baseline = RunEmdProtocol(alice, bob, params);
  ASSERT_TRUE(baseline.ok());
  for (size_t shards : {size_t{2}, size_t{7}, size_t{64}}) {
    for (size_t threads : {size_t{1}, size_t{4}}) {
      params.sketch_shards = shards;
      params.num_threads = threads;
      auto report = RunEmdProtocol(alice, bob, params);
      ASSERT_TRUE(report.ok());
      EXPECT_EQ(report->failure, baseline->failure);
      EXPECT_EQ(report->decoded_level, baseline->decoded_level);
      EXPECT_EQ(report->x_a, baseline->x_a);
      EXPECT_EQ(report->x_b, baseline->x_b);
      ExpectSameComm(report->comm, baseline->comm);
    }
  }
}

TEST(RibltShardedTest, GapTranscriptIdenticalForEveryShardCount) {
  Rng rng(43);
  PointStore alice = GenerateUniformStore(32, 128, 1, &rng);
  PointStore bob = GenerateUniformStore(32, 128, 1, &rng);
  GapProtocolParams params;
  params.metric = MetricKind::kHamming;
  params.dim = 128;
  params.delta = 1;
  params.r1 = 2;
  params.r2 = 32;
  params.k = 2;
  params.seed = 77;
  auto baseline = RunGapProtocol(alice, bob, params);
  ASSERT_TRUE(baseline.ok());
  for (size_t shards : {size_t{2}, size_t{7}, size_t{64}}) {
    params.reconciler.sketch_shards = shards;
    params.reconciler.num_threads = 2;
    auto report = RunGapProtocol(alice, bob, params);
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report->transmitted, baseline->transmitted);
    EXPECT_EQ(report->s_b_prime, baseline->s_b_prime);
    ExpectSameComm(report->comm, baseline->comm);
  }
}

}  // namespace
}  // namespace rsr

// SyncServer / SyncSession (core/sync_server.h): prebuilt serving must match
// the one-shot protocol, snapshots must cache per generation and keep serving
// their pinned state across mutations, and concurrent mutate-while-sync must
// be race-free (this file is the CI TSan gate: ctest -R 'Sync').
#include <algorithm>
#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "alloc_counter.h"
#include "core/emd_protocol.h"
#include "core/sync_server.h"
#include "util/random.h"
#include "util/serialize.h"
#include "workload/generators.h"

namespace rsr {
namespace {

EmdProtocolParams ServerParams(uint64_t seed = 31) {
  EmdProtocolParams params;
  params.metric = MetricKind::kL1;
  params.dim = 3;
  params.delta = 1023;
  params.k = 4;
  params.d1 = 1;
  params.d2 = 8;
  params.seed = seed;
  return params;
}

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

TEST(SyncServerTest, SessionMatchesOneShotProtocol) {
  EmdProtocolParams params = ServerParams();
  PointStore pool = DistinctPool(80, 11);
  PointStore alice(3), bob(3);
  for (size_t i = 0; i < 64; ++i) alice.Append(pool[i]);
  for (size_t i = 2; i < 66; ++i) bob.Append(pool[i]);  // 2 rows differ

  auto ds = SyncDataset::Create(alice, params);
  ASSERT_TRUE(ds.ok());
  SyncServer server(std::move(*ds));
  SyncSession session = server.OpenSession();
  auto served = session.Run(bob);
  auto one_shot = RunEmdProtocol(alice, bob, params);
  ASSERT_TRUE(served.ok());
  ASSERT_TRUE(one_shot.ok());

  EXPECT_EQ(served->failure, one_shot->failure);
  EXPECT_EQ(served->decoded_level, one_shot->decoded_level);
  EXPECT_EQ(served->s_b_prime, one_shot->s_b_prime);
  EXPECT_EQ(served->level_cells, one_shot->level_cells);
  EXPECT_EQ(served->comm.total_bits(), one_shot->comm.total_bits());
  EXPECT_EQ(served->comm.rounds(), one_shot->comm.rounds());
}

// Heap allocations of one warm SyncSession::Run against an n-point noisy
// pair (L2, dim 16, 8 outliers, D1 = 8, D2 = 8192); -1 if the exchange
// fails. The first run warms the session's scratch, the second is counted.
long long WarmSessionAllocations(size_t n) {
  NoisyPairConfig config;
  config.metric = MetricKind::kL2;
  config.dim = 16;
  config.delta = 1023;
  config.n = n;
  config.outliers = 8;
  config.noise = 2.0;
  config.outlier_dist = 200;
  config.seed = 515;
  auto workload = GenerateNoisyPairStore(config);
  if (!workload.ok()) return -1;
  EmdProtocolParams params;
  params.metric = MetricKind::kL2;
  params.dim = 16;
  params.delta = 1023;
  params.k = 8;
  params.d1 = 8;
  params.d2 = 8192;
  params.seed = 516;
  auto ds = SyncDataset::Create(workload->alice, params);
  if (!ds.ok()) return -1;
  SyncServer server(std::move(*ds));
  SyncSession session = server.OpenSession();
  auto warm = session.Run(workload->bob);
  if (!warm.ok() || warm->failure) return -1;
  const long long before = testing::AllocationCount();
  auto report = session.Run(workload->bob);
  const long long count = testing::AllocationCount() - before;
  if (!report.ok() || report->failure) return -1;
  EXPECT_EQ(report->s_b_prime.size(), n);
  return count;
}

TEST(SyncServerTest, WarmSessionAllocationsDoNotGrowWithN) {
  // Like the one-shot protocol, a served exchange assembles S'_B into one
  // reserved arena: no allocation per output row.
  const long long small = WarmSessionAllocations(512);
  const long long large = WarmSessionAllocations(4096);
  ASSERT_GT(small, 0);
  ASSERT_GT(large, 0);
  EXPECT_LT(large - small, 64) << "n=512: " << small << ", n=4096: " << large;
}

// Heap allocations of Alice's warm adaptive step over an n-row maintained
// dataset (the WarmSessionAllocations shape, ladder rounding): read the
// client's estimators, negotiate, fold, write. The first step warms the
// scratch and the pooled message; the second is counted. -1 on failure.
long long WarmSenderAllocations(size_t n) {
  NoisyPairConfig config;
  config.metric = MetricKind::kL2;
  config.dim = 16;
  config.delta = 1023;
  config.n = n;
  config.outliers = 8;
  config.noise = 2.0;
  config.outlier_dist = 200;
  config.seed = 515;
  auto workload = GenerateNoisyPairStore(config);
  if (!workload.ok()) return -1;
  EmdProtocolParams params;
  params.metric = MetricKind::kL2;
  params.dim = 16;
  params.delta = 1023;
  params.k = 8;
  params.d1 = 8;
  params.d2 = 8192;
  params.seed = 516;
  params.adaptive.enabled = true;
  params.adaptive.rounding = CellRounding::kDivisorLadder;
  auto ds = SyncDataset::Create(workload->alice, params);
  if (!ds.ok()) return -1;
  const EmdSketchSet& sketches = ds->sketches();
  const EmdHashes hashes = MakeEmdHashes(params, sketches.derived);
  const EmdReceiver client(workload->bob, params, sketches.derived, hashes);
  ByteWriter estimators;
  client.WriteEstimatorMessage(&estimators);

  EmdServeScratch scratch;
  auto serve = [&] {
    auto sender = EmdSender::Warm(sketches, params, sketches.derived,
                                  &scratch);
    return sender.ok() && sender->ReadEstimatorMessage(estimators.buffer())
                              .ok() &&
           sender->WriteTables(&scratch.message).ok();
  };
  if (!serve()) return -1;
  const long long before = testing::AllocationCount();
  const bool served = serve();
  const long long count = testing::AllocationCount() - before;
  return served ? count : -1;
}

TEST(SyncServerTest, WarmSenderAllocationsDoNotGrowWithN) {
  // Alice's warm step touches levels and cells, never a row: an 8x larger
  // dataset may not cost an allocation per row. (The counts differ by a
  // few: the estimators' peels depend on the estimated difference.)
  const long long small = WarmSenderAllocations(512);
  const long long large = WarmSenderAllocations(4096);
  ASSERT_GT(small, 0);
  ASSERT_GT(large, 0);
  EXPECT_LT(large - small, 64) << "n=512: " << small << ", n=4096: " << large;
}

TEST(SyncServerTest, SnapshotSerializesIdenticalSketchMessage) {
  EmdProtocolParams params = ServerParams();
  PointStore pool = DistinctPool(48, 12);
  PointStore alice(3);
  for (size_t i = 0; i < 48; ++i) alice.Append(pool[i]);

  auto ds = SyncDataset::Create(alice, params);
  ASSERT_TRUE(ds.ok());
  SyncServer server(std::move(*ds));
  auto snap = server.AcquireSnapshot();
  auto sender = EmdSender::Warm(snap->sketches, snap->params,
                                snap->sketches.derived, nullptr);
  ASSERT_TRUE(sender.ok());
  ByteWriter from_snapshot;
  ASSERT_TRUE(sender->WriteTables(&from_snapshot).ok());

  auto cold = BuildEmdSketches(alice, params, /*build_estimators=*/false);
  ASSERT_TRUE(cold.ok());
  ByteWriter from_cold;
  // A static compact exchange's one message opens it with the wire header.
  if (params.codec != WireCodec::kClassic) {
    WriteWireHeader(params.codec, &from_cold);
  }
  for (const Riblt& table : cold->tables) table.WriteTo(&from_cold);
  EXPECT_EQ(from_snapshot.buffer(), from_cold.buffer());
}

TEST(SyncServerTest, PooledSketchSerializeIsAllocationFreeWhenWarm) {
  for (WireCodec codec : {WireCodec::kClassic, WireCodec::kCompact}) {
    EmdProtocolParams params = ServerParams();
    params.codec = codec;
    PointStore pool = DistinctPool(48, 13);
    PointStore alice(3);
    for (size_t i = 0; i < 48; ++i) alice.Append(pool[i]);

    auto ds = SyncDataset::Create(alice, params);
    ASSERT_TRUE(ds.ok());
    SyncServer server(std::move(*ds));
    auto snap = server.AcquireSnapshot();
    auto sender = EmdSender::Warm(snap->sketches, snap->params,
                                  snap->sketches.derived, nullptr);
    ASSERT_TRUE(sender.ok());
    // Warm serve: the first serialize sizes the pooled buffer (the compact
    // writers reserve their exact candidate size up front) and primes the
    // encoders' thread-local scratch.
    ByteWriter pooled;
    ASSERT_TRUE(sender->WriteTables(&pooled).ok());
    const size_t warm_bytes = pooled.size_bytes();

    const long long before = testing::AllocationCount();
    // WriteTables clears the buffer, which keeps its capacity — the
    // EmdServeScratch::message reset.
    Status st = sender->WriteTables(&pooled);
    EXPECT_EQ(testing::AllocationCount(), before)
        << "codec " << static_cast<int>(codec)
        << " serialize allocated while warm";
    EXPECT_TRUE(st.ok());
    EXPECT_EQ(pooled.size_bytes(), warm_bytes);
  }
}

TEST(SyncServerTest, SnapshotsCachePerGenerationAndPinTheirState) {
  EmdProtocolParams params = ServerParams();
  PointStore pool = DistinctPool(80, 13);
  PointStore alice(3), bob(3);
  for (size_t i = 0; i < 40; ++i) alice.Append(pool[i]);
  for (size_t i = 1; i < 41; ++i) bob.Append(pool[i]);

  auto ds = SyncDataset::Create(alice, params);
  ASSERT_TRUE(ds.ok());
  SyncServer server(std::move(*ds));

  // Unchanged generation: repeat acquisitions share one snapshot object.
  auto snap1 = server.AcquireSnapshot();
  auto snap2 = server.AcquireSnapshot();
  EXPECT_EQ(snap1.get(), snap2.get());
  const uint64_t gen = server.generation();
  EXPECT_EQ(snap1->generation, gen);

  // A mutation invalidates the cache...
  ASSERT_TRUE(server.Insert(pool[60]).ok());
  EXPECT_EQ(server.generation(), gen + 1);
  auto snap3 = server.AcquireSnapshot();
  EXPECT_NE(snap3.get(), snap1.get());
  EXPECT_EQ(snap3->generation, gen + 1);

  // ...but the old snapshot keeps serving its pinned pre-mutation state.
  SyncSession old_session(snap1);
  auto served = old_session.Run(bob);
  auto one_shot = RunEmdProtocol(alice, bob, params);
  ASSERT_TRUE(served.ok());
  ASSERT_TRUE(one_shot.ok());
  EXPECT_EQ(served->s_b_prime, one_shot->s_b_prime);
  EXPECT_EQ(served->comm.total_bits(), one_shot->comm.total_bits());

  // The new snapshot's n moved; a stale-sized client is rejected.
  EXPECT_FALSE(SyncSession(snap3).Run(bob).ok());
}

TEST(SyncServerTest, ServedStateTracksBatchedChurn) {
  EmdProtocolParams params = ServerParams();
  PointStore pool = DistinctPool(96, 14);
  PointStore alice(3);
  for (size_t i = 0; i < 48; ++i) alice.Append(pool[i]);
  auto ds = SyncDataset::Create(alice, params);
  ASSERT_TRUE(ds.ok());
  SyncServer server(std::move(*ds));

  // Replace rows 0..7 with rows 48..55 in one atomic batch (n unchanged).
  PointStore ins(3);
  std::vector<uint64_t> dels;
  for (size_t i = 0; i < 8; ++i) {
    ins.Append(pool[48 + i]);
    dels.push_back(server.KeyOf(pool[i]));
  }
  ASSERT_TRUE(server.ApplyBatch(ins, dels).ok());

  PointStore survivors(3);
  for (size_t i = 8; i < 56; ++i) survivors.Append(pool[i]);
  auto served = server.OpenSession().Run(survivors);
  auto one_shot = RunEmdProtocol(survivors, survivors, params);
  ASSERT_TRUE(served.ok());
  ASSERT_TRUE(one_shot.ok());
  EXPECT_FALSE(served->failure);
  EXPECT_EQ(served->s_b_prime, one_shot->s_b_prime);
  EXPECT_EQ(served->comm.total_bits(), one_shot->comm.total_bits());
}

TEST(SyncServerTest, ConcurrentChurnAndSync) {
  // One writer thread churns the dataset through the server while reader
  // threads continuously open sessions and run full syncs. n is held
  // constant (each batch nets to zero) so every session's client size
  // matches; decode failures are acceptable outcomes, data races are not —
  // this is the test the TSan CI leg gates on.
  EmdProtocolParams params = ServerParams();
  params.k = 8;
  PointStore pool = DistinctPool(260, 15);
  PointStore initial(3), client(3);
  for (size_t i = 0; i < 128; ++i) initial.Append(pool[i]);
  for (size_t i = 0; i < 128; ++i) client.Append(pool[i]);

  auto ds = SyncDataset::Create(initial, params);
  ASSERT_TRUE(ds.ok());
  SyncServer server(std::move(*ds));

  std::atomic<bool> writer_ok{true};
  std::thread writer([&] {
    for (size_t r = 0; r < 60; ++r) {
      PointStore ins(3);
      ins.Append(pool[128 + r]);
      std::vector<uint64_t> dels = {server.KeyOf(pool[r])};
      if (!server.ApplyBatch(ins, dels).ok()) writer_ok = false;
    }
  });

  std::atomic<bool> readers_ok{true};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      // Each simulated client owns its PointStore (sharing one is pinned by
      // SyncServerTest.ConcurrentSessionsShareOneClientStore).
      PointStore my_client(3);
      my_client.AppendStore(client);
      for (int r = 0; r < 25; ++r) {
        SyncSession session = server.OpenSession();
        auto report = session.Run(my_client);
        if (!report.ok()) readers_ok = false;  // decode failure is still ok()
      }
    });
  }
  writer.join();
  for (std::thread& t : readers) t.join();
  EXPECT_TRUE(writer_ok);
  EXPECT_TRUE(readers_ok);
  EXPECT_EQ(server.size(), 128u);
  EXPECT_EQ(server.generation(), 60u);
}

// ---- Adaptive warm serving (fold-down projection) ---------------------------

EmdProtocolParams AdaptiveServerParams(uint64_t seed = 31) {
  EmdProtocolParams params = ServerParams(seed);
  params.adaptive.enabled = true;
  params.adaptive.rounding = CellRounding::kDivisorLadder;
  return params;
}

TEST(SyncServerAdaptiveTest, SessionMatchesOneShotAdaptiveProtocol) {
  // The tentpole identity: a warm adaptive session — negotiation off
  // maintained estimators, tables FOLDED from the maintained cap — must be
  // transcript byte-identical to the cold adaptive one-shot protocol under
  // the same ladder rounding.
  EmdProtocolParams params = AdaptiveServerParams();
  PointStore pool = DistinctPool(80, 21);
  PointStore alice(3), bob(3);
  // 1 row differs per side: estimate 2 * 36 cells/diff = 72 cells, a proper
  // rung below the 144-cell cap (diff 2 per side would land exactly ON it).
  for (size_t i = 0; i < 64; ++i) alice.Append(pool[i]);
  for (size_t i = 1; i < 65; ++i) bob.Append(pool[i]);

  auto ds = SyncDataset::Create(alice, params);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  SyncServer server(std::move(*ds));
  SyncSession session = server.OpenSession();
  auto served = session.Run(bob);
  auto one_shot = RunEmdProtocol(alice, bob, params);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  ASSERT_TRUE(one_shot.ok());

  EXPECT_EQ(served->failure, one_shot->failure);
  EXPECT_EQ(served->decoded_level, one_shot->decoded_level);
  EXPECT_EQ(served->s_b_prime, one_shot->s_b_prime);
  EXPECT_EQ(served->level_cells, one_shot->level_cells);
  EXPECT_EQ(served->comm.total_bits(), one_shot->comm.total_bits());
  EXPECT_EQ(served->comm.rounds(), one_shot->comm.rounds());

  // The negotiation actually shrank something: a 2-row difference must not
  // provision the static cap at every level.
  const size_t cap = served->derived.cells;
  bool any_below_cap = false;
  for (size_t cells : served->level_cells) {
    EXPECT_LE(cells, cap);
    if (cells < cap) any_below_cap = true;
  }
  EXPECT_TRUE(any_below_cap);

  // Re-serving from the same session reuses the pooled fold scratch and
  // stays deterministic.
  auto again = session.Run(bob);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->comm.total_bits(), served->comm.total_bits());
  EXPECT_EQ(again->s_b_prime, served->s_b_prime);
}

TEST(SyncServerAdaptiveTest, AdaptiveSessionShipsFewerBytesThanStatic) {
  // At a realistic k the negotiated rungs undercut the static cap by far
  // more than the estimator round costs.
  EmdProtocolParams params = AdaptiveServerParams(33);
  params.k = 32;
  PointStore pool = DistinctPool(140, 22);
  PointStore alice(3), bob(3);
  for (size_t i = 0; i < 128; ++i) alice.Append(pool[i]);
  for (size_t i = 2; i < 130; ++i) bob.Append(pool[i]);

  EmdProtocolParams static_params = params;
  static_params.adaptive.enabled = false;

  auto adaptive_ds = SyncDataset::Create(alice, params);
  auto static_ds = SyncDataset::Create(alice, static_params);
  ASSERT_TRUE(adaptive_ds.ok());
  ASSERT_TRUE(static_ds.ok());
  SyncServer adaptive_server(std::move(*adaptive_ds));
  SyncServer static_server(std::move(*static_ds));

  auto adaptive_report = adaptive_server.OpenSession().Run(bob);
  auto static_report = static_server.OpenSession().Run(bob);
  ASSERT_TRUE(adaptive_report.ok()) << adaptive_report.status().ToString();
  ASSERT_TRUE(static_report.ok());
  EXPECT_FALSE(adaptive_report->failure);
  EXPECT_LT(adaptive_report->comm.total_bits(),
            static_report->comm.total_bits());
}

TEST(SyncServerAdaptiveTest, ConcurrentAdaptiveSessions) {
  // The adaptive analogue of ConcurrentChurnAndSync — and the reason
  // StrataEstimator::EstimateDiff had to become reentrant: concurrent
  // sessions negotiate against ONE shared snapshot's estimators while a
  // writer churns the live dataset. Each reader owns its session (the fold
  // scratch is per-session state); the snapshot underneath is shared.
  EmdProtocolParams params = AdaptiveServerParams(35);
  params.k = 8;
  PointStore pool = DistinctPool(260, 23);
  PointStore initial(3), client(3);
  for (size_t i = 0; i < 128; ++i) initial.Append(pool[i]);
  for (size_t i = 0; i < 128; ++i) client.Append(pool[i]);

  auto ds = SyncDataset::Create(initial, params);
  ASSERT_TRUE(ds.ok());
  SyncServer server(std::move(*ds));

  std::atomic<bool> writer_ok{true};
  std::thread writer([&] {
    for (size_t r = 0; r < 60; ++r) {
      PointStore ins(3);
      ins.Append(pool[128 + r]);
      std::vector<uint64_t> dels = {server.KeyOf(pool[r])};
      if (!server.ApplyBatch(ins, dels).ok()) writer_ok = false;
    }
  });

  std::atomic<bool> readers_ok{true};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      PointStore my_client(3);
      my_client.AppendStore(client);
      // One long-lived session per reader: repeated Runs exercise the warm
      // fold-scratch reuse; fresh sessions exercise snapshot sharing.
      SyncSession pinned = server.OpenSession();
      for (int r = 0; r < 25; ++r) {
        auto warm = pinned.Run(my_client);
        if (!warm.ok()) readers_ok = false;
        SyncSession fresh = server.OpenSession();
        auto cold = fresh.Run(my_client);
        if (!cold.ok()) readers_ok = false;
      }
    });
  }
  writer.join();
  for (std::thread& t : readers) t.join();
  EXPECT_TRUE(writer_ok);
  EXPECT_TRUE(readers_ok);
  EXPECT_EQ(server.size(), 128u);
  EXPECT_EQ(server.generation(), 60u);
}

TEST(SyncServerTest, ConcurrentSessionsShareOneClientStore) {
  // Run only reads the client store, so sessions on two threads may run
  // against one const store that no evaluation has touched yet. Under TSan
  // this pins that the LSH pipeline keeps no lazily built state in it.
  EmdProtocolParams params = AdaptiveServerParams(37);
  PointStore pool = DistinctPool(80, 25);
  PointStore alice(3), bob(3);
  for (size_t i = 0; i < 64; ++i) alice.Append(pool[i]);
  for (size_t i = 1; i < 65; ++i) bob.Append(pool[i]);
  const PointStore& client = bob;

  auto ds = SyncDataset::Create(alice, params);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  SyncServer server(std::move(*ds));

  std::vector<Result<EmdProtocolReport>> reports(
      2, Status::InvalidArgument("not run"));
  std::vector<std::thread> threads;
  for (size_t t = 0; t < reports.size(); ++t) {
    threads.emplace_back([&server, &client, &reports, t] {
      SyncSession session = server.OpenSession();
      reports[t] = session.Run(client);
    });
  }
  for (std::thread& t : threads) t.join();

  ASSERT_TRUE(reports[0].ok()) << reports[0].status().ToString();
  ASSERT_TRUE(reports[1].ok()) << reports[1].status().ToString();
  EXPECT_EQ(reports[0]->failure, reports[1]->failure);
  EXPECT_EQ(reports[0]->decoded_level, reports[1]->decoded_level);
  EXPECT_EQ(reports[0]->s_b_prime, reports[1]->s_b_prime);
  EXPECT_EQ(reports[0]->level_cells, reports[1]->level_cells);
  EXPECT_EQ(reports[0]->comm.total_bits(), reports[1]->comm.total_bits());
}

}  // namespace
}  // namespace rsr

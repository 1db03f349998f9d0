// A long-running sync server under churn: maintained sketches vs rebuilds.
//
// A replica holds 2048 sensor records and keeps syncing clients while
// records arrive and expire. The historical architecture rebuilt every
// per-level RIBLT from scratch for each sync — O(n * levels) hashing no
// matter how little changed. A SyncDataset instead folds each insert/delete
// into the standing sketches as signed cell updates (O(levels * k) per
// mutation, independent of n), and a SyncServer hands concurrent sessions
// immutable generation-stamped snapshots, so serving a sync is just
// "serialize the maintained cells".
//
// The demo runs the same churn-and-serve loop both ways and prints the
// wall-clock totals side by side, then runs one full ADAPTIVE client sync
// off a maintained snapshot: the session compares the snapshot's maintained
// strata estimators against the client's, negotiates per-level sizes on the
// divisor ladder, and folds the standing cap-size tables down to them —
// small diffs ship a fraction of the full-width sketch message without any
// O(n) rebuild (the fold is O(levels * cap) cell adds).
//
// Build & run:  cmake -B build -DRSR_BUILD_EXAMPLES=ON && cmake --build build
//               && ./build/example_sync_server
#include <chrono>
#include <cstdio>
#include <vector>

#include "core/emd_protocol.h"
#include "core/sync_server.h"
#include "util/random.h"
#include "util/serialize.h"
#include "workload/generators.h"

int main() {
  using namespace rsr;
  using Clock = std::chrono::steady_clock;

  constexpr size_t kRecords = 2048;
  constexpr int kRounds = 200;  // churn cycles, one sync each

  EmdProtocolParams params;
  params.metric = MetricKind::kL1;
  params.dim = 3;
  params.delta = 1023;
  params.k = 8;
  params.d1 = 1;
  params.d2 = 1024;  // explicit ladder: levels must not drift with n
  params.seed = 7;
  // Adaptive warm serving: sessions negotiate per-level sizes and serve
  // them by folding the maintained cap-size tables (divisor-ladder rounding
  // is what makes every negotiated size a fold target).
  params.adaptive.enabled = true;
  params.adaptive.rounding = CellRounding::kDivisorLadder;
  // The churn loops below time the full-width static message: the same
  // tables, sent without a negotiation round.
  EmdProtocolParams static_params = params;
  static_params.adaptive.enabled = false;

  // kRecords resident rows plus kRounds future arrivals, all distinct.
  Rng rng(99);
  PointStore pool =
      GenerateUniformStore(2 * (kRecords + kRounds), 3, 1023, &rng);
  pool.SortLexAndDedup();
  if (pool.size() < kRecords + kRounds) {
    std::printf("not enough distinct rows generated\n");
    return 1;
  }
  pool.Truncate(kRecords + kRounds);
  PointStore initial(3);
  for (size_t i = 0; i < kRecords; ++i) initial.Append(pool[i]);

  std::printf("sync server demo: n = %zu records, %d churn+sync rounds\n",
              kRecords, kRounds);

  // ---- Maintained: SyncDataset + SyncServer --------------------------------
  auto dataset = SyncDataset::Create(initial, params);
  if (!dataset.ok()) {
    std::printf("dataset build failed: %s\n",
                dataset.status().ToString().c_str());
    return 1;
  }
  dataset->Reserve(kRecords + 2);
  SyncServer server(std::move(*dataset));

  size_t maintained_bytes = 0;
  const auto maintained_start = Clock::now();
  for (int round = 0; round < kRounds; ++round) {
    // One record arrives, the oldest resident one expires (n stays fixed)...
    PointStore arrival(3);
    arrival.Append(pool[kRecords + static_cast<size_t>(round)]);
    std::vector<uint64_t> expired = {
        server.KeyOf(pool[static_cast<size_t>(round)])};
    if (!server.ApplyBatch(arrival, expired).ok()) {
      std::printf("churn failed at round %d\n", round);
      return 1;
    }
    // ...and a client sync is served from the maintained cells.
    auto snapshot = server.AcquireSnapshot();
    auto sender = EmdSender::Warm(snapshot->sketches, static_params,
                                  snapshot->sketches.derived, nullptr);
    ByteWriter message;
    if (!sender.ok() || !sender->WriteTables(&message).ok()) return 1;
    maintained_bytes = message.buffer().size();
  }
  const double maintained_sec =
      std::chrono::duration<double>(Clock::now() - maintained_start).count();

  // ---- Rebuilt: the historical per-sync cold build -------------------------
  PointStore rebuilt_rows(3);
  for (size_t i = 0; i < kRecords; ++i) rebuilt_rows.Append(pool[i]);
  const EmdDerived derived =
      DeriveEmdParameters(static_params, kRecords).ValueOrDie();
  size_t rebuilt_bytes = 0;
  const auto rebuilt_start = Clock::now();
  for (int round = 0; round < kRounds; ++round) {
    // Same churn volume, raw row edits only (which resident row expires is
    // irrelevant to the timing — every sync rebuilds everything anyway)...
    rebuilt_rows.RemoveRowSwap(0);
    rebuilt_rows.Append(pool[kRecords + static_cast<size_t>(round)]);
    // ...then the sync pays the full rebuild: Alice's cold step hashes
    // every row and builds every level table.
    const EmdHashes hashes = MakeEmdHashes(static_params, derived);
    EmdSender sender =
        EmdSender::Cold(rebuilt_rows, static_params, derived, hashes);
    ByteWriter message;
    if (!sender.WriteTables(&message).ok()) return 1;
    rebuilt_bytes = message.buffer().size();
  }
  const double rebuilt_sec =
      std::chrono::duration<double>(Clock::now() - rebuilt_start).count();

  std::printf("\n  maintained (SyncServer): %8.1f ms total, %6.3f ms/round\n",
              maintained_sec * 1e3, maintained_sec * 1e3 / kRounds);
  std::printf("  rebuilt per sync:        %8.1f ms total, %6.3f ms/round\n",
              rebuilt_sec * 1e3, rebuilt_sec * 1e3 / kRounds);
  std::printf("  speedup: %.1fx  (sketch message: %zu vs %zu bytes)\n",
              rebuilt_sec / maintained_sec, maintained_bytes, rebuilt_bytes);

  // ---- One real ADAPTIVE exchange off a maintained snapshot ----------------
  // The server now holds pool rows [kRounds, kRecords + kRounds). A client
  // that missed the latest arrival (and still holds the latest expired
  // record) syncs against it: same size, symmetric difference 2. The session
  // negotiates sizes off the snapshot's maintained estimators and folds the
  // cap-size tables down — the exchange ships difference-proportional bytes,
  // not the full-width message the churn loop above serialized. (At k = 8
  // the per-level cap is small, so the negotiated savings shows on small
  // diffs; bench_server sweeps the full diff range at k = 256.)
  PointStore client(3);
  for (size_t i = kRounds - 1; i < kRecords + kRounds - 1; ++i) {
    client.Append(pool[i]);
  }
  SyncSession session = server.OpenSession();
  auto report = session.Run(client);
  if (!report.ok()) {
    std::printf("sync failed: %s\n", report.status().ToString().c_str());
    return 1;
  }
  std::printf(
      "\n  adaptive client sync via snapshot generation %llu: %s (level %zu, "
      "|X_A| = %zu)\n",
      static_cast<unsigned long long>(session.generation()),
      report->failure ? "FAILED" : "reconciled", report->decoded_level,
      static_cast<size_t>(report->x_a.size()));
  for (const auto& m : report->comm.messages) {
    std::printf("    %-22s %7zu bytes\n", m.label.c_str(), m.bytes);
  }
  std::printf(
      "  folded sketch message vs the %zu-byte full-width one the static "
      "loop above shipped\n",
      maintained_bytes);
  return report->failure ? 1 : 0;
}

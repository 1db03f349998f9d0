// Serving throughput: maintained sketches vs rebuild-per-sync.
//
// A sync server answers a stream of sync requests while its dataset churns.
// Two architectures:
//
//   maintained: a SyncServer over a SyncDataset — each mutation folds into
//               the standing per-level RIBLTs (O(levels * k)); a sync is
//               snapshot + serialize, with the snapshot cached per
//               generation (core/sync_server.h).
//   rebuilt:    the pre-SyncDataset architecture — mutations edit the raw
//               row store (O(dim) each); every sync rebuilds all level
//               sketches from scratch (O(n * levels) hashing) and
//               serializes them.
//
// Table: syncs/sec for both at n = 4096 across churn rates r (row
// replacements applied between consecutive syncs). Expected shape: rebuilt
// is flat in r and bounded by the O(n * levels) rebuild; maintained is
// orders of magnitude faster at low churn and degrades only linearly in r,
// crossing over (if at all) near r ~ n.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "core/adaptive.h"
#include "core/emd_protocol.h"
#include "core/emd_sketch.h"
#include "core/sync_dataset.h"
#include "core/sync_server.h"
#include "util/random.h"
#include "util/serialize.h"
#include "workload/generators.h"

namespace rsr {
namespace {

constexpr size_t kN = 4096;
constexpr size_t kDim = 4;
constexpr double kBudgetSec = 0.4;  // per measured cell
constexpr int kMaxSyncs = 4000;

EmdProtocolParams ServerParams() {
  EmdProtocolParams params;
  params.metric = MetricKind::kL1;
  params.dim = kDim;
  params.delta = 1023;
  params.k = 8;
  params.d1 = 1;
  params.d2 = 1024;  // pinned ladder: levels stay fixed under churn
  params.seed = 42;
  return params;
}

/// 2n distinct rows: the first n seed the dataset, the second n rotate in
/// and out as churn (each replacement swaps a pair's resident half).
PointStore DistinctRows(size_t count, uint64_t seed) {
  Rng rng(seed);
  PointStore points = GenerateUniformStore(count * 2, kDim, 1023, &rng);
  points.SortLexAndDedup();
  RSR_CHECK(points.size() >= count);
  points.Truncate(count);
  return points;
}

/// Runs `sync` cycles until the time budget is spent; returns syncs/sec.
template <typename SyncFn>
double MeasureSyncsPerSec(SyncFn&& sync) {
  using Clock = std::chrono::steady_clock;
  const auto start = Clock::now();
  int count = 0;
  double elapsed = 0;
  while (count < kMaxSyncs) {
    sync();
    ++count;
    elapsed = std::chrono::duration<double>(Clock::now() - start).count();
    if (elapsed >= kBudgetSec && count >= 3) break;
  }
  return static_cast<double>(count) / elapsed;
}

double MeasureMaintained(const PointStore& pool, size_t churn) {
  PointStore initial(kDim);
  for (size_t i = 0; i < kN; ++i) initial.Append(pool[i]);
  auto ds = SyncDataset::Create(initial, ServerParams());
  RSR_CHECK(ds.ok());
  ds->Reserve(kN + 2);
  SyncServer server(std::move(*ds));

  // pair p: rows p and kN + p; in_front[p] says which half is resident.
  std::vector<uint8_t> in_front(kN, 1);
  size_t next_pair = 0;
  PointStore ins(kDim);
  auto replace_one_row = [&] {
    const size_t p = next_pair++ % kN;
    const size_t incoming = in_front[p] ? kN + p : p;
    const size_t outgoing = in_front[p] ? p : kN + p;
    in_front[p] = !in_front[p];
    ins.Clear();
    ins.Append(pool[incoming]);
    std::vector<uint64_t> dels = {server.KeyOf(pool[outgoing])};
    RSR_CHECK(server.ApplyBatch(ins, dels).ok());
  };

  return MeasureSyncsPerSec([&] {
    for (size_t m = 0; m < churn; ++m) replace_one_row();
    auto snap = server.AcquireSnapshot();
    auto sender = EmdSender::Warm(snap->sketches, snap->params,
                                  snap->sketches.derived, nullptr);
    ByteWriter message;
    RSR_CHECK(sender.ok() && sender->WriteTables(&message).ok());
    RSR_CHECK(!message.buffer().empty());
  });
}

double MeasureRebuilt(const PointStore& pool, size_t churn) {
  PointStore rows(kDim);
  for (size_t i = 0; i < kN; ++i) rows.Append(pool[i]);
  const EmdProtocolParams params = ServerParams();
  const EmdDerived derived = DeriveEmdParameters(params, kN).ValueOrDie();

  std::vector<uint8_t> in_front(kN, 1);
  size_t next_pair = 0;
  // Raw row edits only — this architecture defers ALL sketch work to the
  // rebuild at sync time. slot_of[p] tracks where pair p's resident row
  // lives after swap-removals shuffle the store.
  std::vector<size_t> slot_of(kN);
  std::vector<size_t> pair_at(kN);
  for (size_t p = 0; p < kN; ++p) slot_of[p] = pair_at[p] = p;
  auto replace_one_row = [&] {
    const size_t p = next_pair++ % kN;
    const size_t incoming = in_front[p] ? kN + p : p;
    in_front[p] = !in_front[p];
    const size_t slot = slot_of[p];
    const size_t last = rows.size() - 1;
    rows.RemoveRowSwap(slot);
    if (slot != last) {
      slot_of[pair_at[last]] = slot;
      pair_at[slot] = pair_at[last];
    }
    rows.Append(pool[incoming]);
    slot_of[p] = last;
    pair_at[last] = p;
  };

  return MeasureSyncsPerSec([&] {
    for (size_t m = 0; m < churn; ++m) replace_one_row();
    const EmdHashes hashes = MakeEmdHashes(params, derived);
    EmdSender sender = EmdSender::Cold(rows, params, derived, hashes);
    ByteWriter message;
    RSR_CHECK(sender.WriteTables(&message).ok());
    RSR_CHECK(!message.buffer().empty());
  });
}

// ---- Adaptive warm serving sweep --------------------------------------------
//
// Three server architectures answering the same client, measured server-side
// only (client hashing/decoding excluded), at k = 256 across difference
// sizes. The client's per-level strata message is precomputed once (the
// client is fixed); each measured sync covers everything the server does
// with it.
//
//   static-warm:    snapshot + serialize the cap-size maintained tables.
//                   Bytes are flat in the difference — the static tax.
//   adaptive-warm:  snapshot + parse the client estimators + negotiate
//                   ladder rungs + FOLD the maintained cap tables down +
//                   serialize prefix and folded tables. O(levels*cap) cell
//                   work, no point rehashing.
//   cold-adaptive:  no maintained state — evaluate all n rows, build
//                   estimators, negotiate, build the negotiated tables from
//                   the points, serialize. The O(n*levels) price adaptive
//                   serving used to require.

EmdProtocolParams AdaptiveSweepParams() {
  EmdProtocolParams params = ServerParams();
  params.k = 256;
  params.adaptive.enabled = true;
  params.adaptive.rounding = CellRounding::kDivisorLadder;
  return params;
}

struct SweepResult {
  double syncs_per_sec = 0;
  size_t sketch_bytes = 0;
};

/// The fixed client: rows diff..n-1 of the server's pool plus `diff` fresh
/// rows — symmetric difference 2*diff. Returns its estimator message.
std::vector<uint8_t> ClientEstimatorMessage(const PointStore& pool,
                                            size_t diff,
                                            const EmdProtocolParams& params,
                                            const EmdDerived& derived) {
  PointStore client(kDim);
  for (size_t i = diff; i < kN; ++i) client.Append(pool[i]);
  for (size_t i = 0; i < diff; ++i) client.Append(pool[kN + i]);
  const EmdHashes hashes = MakeEmdHashes(params, derived);
  const EmdReceiver client_step(client, params, derived, hashes);
  ByteWriter msg;
  client_step.WriteEstimatorMessage(&msg);
  return msg.buffer();
}

SweepResult MeasureStaticWarm(const PointStore& pool) {
  EmdProtocolParams params = AdaptiveSweepParams();
  params.adaptive.enabled = false;
  PointStore initial(kDim);
  for (size_t i = 0; i < kN; ++i) initial.Append(pool[i]);
  auto ds = SyncDataset::Create(initial, params);
  RSR_CHECK(ds.ok());
  SyncServer server(std::move(*ds));

  SweepResult result;
  result.syncs_per_sec = MeasureSyncsPerSec([&] {
    auto snap = server.AcquireSnapshot();
    auto sender = EmdSender::Warm(snap->sketches, params,
                                  snap->sketches.derived, nullptr);
    ByteWriter message;
    RSR_CHECK(sender.ok() && sender->WriteTables(&message).ok());
    result.sketch_bytes = message.buffer().size();
  });
  return result;
}

SweepResult MeasureAdaptiveWarm(const PointStore& pool, size_t diff) {
  const EmdProtocolParams params = AdaptiveSweepParams();
  PointStore initial(kDim);
  for (size_t i = 0; i < kN; ++i) initial.Append(pool[i]);
  auto ds = SyncDataset::Create(initial, params);
  RSR_CHECK(ds.ok());
  const EmdDerived derived = ds->sketches().derived;
  SyncServer server(std::move(*ds));
  const std::vector<uint8_t> est_msg =
      ClientEstimatorMessage(pool, diff, params, derived);

  EmdServeScratch scratch;
  SweepResult result;
  result.syncs_per_sec = MeasureSyncsPerSec([&] {
    auto snap = server.AcquireSnapshot();
    auto sender = EmdSender::Warm(snap->sketches, params, derived, &scratch);
    RSR_CHECK(sender.ok());
    RSR_CHECK(sender->ReadEstimatorMessage(est_msg).ok());
    ByteWriter message;
    RSR_CHECK(sender->WriteTables(&message).ok());
    result.sketch_bytes = message.buffer().size();
  });
  return result;
}

SweepResult MeasureColdAdaptive(const PointStore& pool, size_t diff) {
  const EmdProtocolParams params = AdaptiveSweepParams();
  PointStore rows(kDim);
  for (size_t i = 0; i < kN; ++i) rows.Append(pool[i]);
  const EmdDerived derived = DeriveEmdParameters(params, kN).ValueOrDie();
  const std::vector<uint8_t> est_msg =
      ClientEstimatorMessage(pool, diff, params, derived);

  SweepResult result;
  result.syncs_per_sec = MeasureSyncsPerSec([&] {
    // Everything from the points up, every sync.
    const EmdHashes hashes = MakeEmdHashes(params, derived);
    EmdSender sender = EmdSender::Cold(rows, params, derived, hashes);
    RSR_CHECK(sender.ReadEstimatorMessage(est_msg).ok());
    ByteWriter message;
    RSR_CHECK(sender.WriteTables(&message).ok());
    result.sketch_bytes = message.buffer().size();
  });
  return result;
}

// ---- Wire-codec breakdown on the warm serving path --------------------------

/// One full adaptive-warm exchange (SyncSession::Run) at diff = 16 under
/// each codec: per-message bytes, classic vs compact, plus a decoded-results
/// identity check. The client store matches ClientEstimatorMessage's.
void ServerCodecBreakdown(const PointStore& pool) {
  bench::Banner(
      "Wire codec — E-ADAPTIVE-WARM diff=16 per-message bytes",
      "one warm fold-down exchange per codec; compact packs counts, "
      "truncates checksums, and ships sparse or mod-2^w cells");

  const size_t diff = 16;
  PointStore client(kDim);
  for (size_t i = diff; i < kN; ++i) client.Append(pool[i]);
  for (size_t i = 0; i < diff; ++i) client.Append(pool[kN + i]);

  auto varint_size = [](size_t v) {
    size_t bytes = 1;
    while (v >= 0x80) { v >>= 7; ++bytes; }
    return bytes;
  };

  std::map<std::string, size_t> sizes[2];
  std::vector<std::string> order;
  bool identical = true;
  PointStore decoded_classic;
  for (int which = 0; which < 2; ++which) {
    EmdProtocolParams params = AdaptiveSweepParams();
    params.codec = which == 0 ? WireCodec::kClassic : WireCodec::kCompact;
    PointStore initial(kDim);
    for (size_t i = 0; i < kN; ++i) initial.Append(pool[i]);
    auto ds = SyncDataset::Create(initial, params);
    RSR_CHECK(ds.ok());
    SyncServer server(std::move(*ds));
    SyncSession session = server.OpenSession();
    auto report = session.Run(client);
    if (!report.ok() || report->failure) {
      std::printf("%s warm exchange failed\n", WireCodecName(params.codec));
      return;
    }
    size_t prefix = 0;
    for (size_t cells : report->level_cells) prefix += varint_size(cells);
    for (const MessageRecord& m : report->comm.messages) {
      size_t body = m.bytes;
      if (m.label == "A->B level RIBLTs") {
        sizes[which]["A->B sizes prefix"] += prefix;
        body -= prefix;
        if (which == 0) order.push_back("A->B sizes prefix");
        sizes[which]["A->B folded RIBLT cells"] += body;
        if (which == 0) order.push_back("A->B folded RIBLT cells");
        continue;
      }
      sizes[which][m.label] += body;
      if (which == 0) order.push_back(m.label);
    }
    PointStore repaired = report->s_b_prime;
    repaired.SortLex();
    if (which == 0) {
      decoded_classic = std::move(repaired);
    } else {
      identical = decoded_classic == repaired;
    }
  }

  bench::Header("  message                      classic-B    compact-B  saved");
  size_t totals[2] = {0, 0};
  for (const std::string& label : order) {
    size_t c = sizes[0][label];
    size_t z = sizes[1][label];
    totals[0] += c;
    totals[1] += z;
    std::printf("  %-28s %9zu    %9zu  %4.0f%%\n", label.c_str(), c, z,
                c > 0 ? 100.0 * (1.0 - static_cast<double>(z) /
                                           static_cast<double>(c))
                      : 0.0);
  }
  std::printf("  %-28s %9zu    %9zu  %4.0f%%\n", "TOTAL", totals[0], totals[1],
              totals[0] > 0
                  ? 100.0 * (1.0 - static_cast<double>(totals[1]) /
                                       static_cast<double>(totals[0]))
                  : 0.0);
  std::printf(
      "\nDecoded repaired sets identical across codecs: %s\n"
      "\nNote: the warm fold-down tables here are FULL tables over all "
      "n=%zu rows\n(~8-11 keys/cell at the diff=16 rungs), not difference "
      "tables, so their\nper-cell field entropy — key sums ~44 bits, "
      "truncated checksum ~25,\ncoordinate sums ~13/dim — floors what any "
      "faithful cell encoding can\nship (see docs/WIRE.md). Compact lands at "
      "that floor; the sparse and\nmod-2^w modes only pay off on the "
      "lightly-loaded small-diff tables of\nthe bench_adaptive sweep.\n",
      identical ? "yes" : "NO — INVESTIGATE", kN);
}

}  // namespace
}  // namespace rsr

int main() {
  using namespace rsr;
  bench::Banner("E-SYNC-SERVER: maintained vs rebuild-per-sync throughput",
                "Maintained sketches answer syncs in O(serialize) after "
                "O(levels*k) per mutation; rebuilding pays O(n*levels) "
                "hashing on every sync.");
  std::printf("n = %zu, pinned ladder d1=1 d2=1024, k=8, dim=%zu\n\n",
              kN, kDim);

  const PointStore pool = DistinctRows(2 * kN, 0xbe9c);
  bench::Header(
      "  churn/sync   maintained sync/s     rebuilt sync/s    speedup");
  for (size_t churn : {size_t{1}, size_t{16}, size_t{256}}) {
    const double maintained = MeasureMaintained(pool, churn);
    const double rebuilt = MeasureRebuilt(pool, churn);
    std::printf("  %10zu   %17.1f   %16.1f   %7.1fx\n", churn, maintained,
                rebuilt, maintained / rebuilt);
  }
  std::printf(
      "\nmaintained = SyncServer mutations + cached snapshot + serialize;\n"
      "rebuilt = raw row edits + Alice's cold step (hash, build, serialize)\n"
      "per sync.\n");

  bench::Banner("E-ADAPTIVE-WARM: fold-down serving vs static-warm and "
                "cold-adaptive",
                "Adaptive warm serving negotiates ladder rungs off maintained "
                "estimators and folds the cap-size tables down — per-sync "
                "cost O(levels*cap), bytes tracking the difference.");
  std::printf("n = %zu, k = 256, dim = %zu, ladder rounding; per-side diff "
              "swept below\n\n", kN, kDim);
  const SweepResult static_warm = MeasureStaticWarm(pool);
  bench::Header(
      "  diff   mode            sketch KB     sync/s    vs static bytes");
  for (size_t diff : {size_t{2}, size_t{16}, size_t{256}}) {
    const SweepResult warm = MeasureAdaptiveWarm(pool, diff);
    const SweepResult cold = MeasureColdAdaptive(pool, diff);
    std::printf("  %4zu   static-warm   %11.1f   %8.1f   %14s\n", diff,
                static_cast<double>(static_warm.sketch_bytes) / 1024.0,
                static_warm.syncs_per_sec,
                "1.00x");
    std::printf("  %4zu   adaptive-warm %11.1f   %8.1f   %13.2fx\n", diff,
                static_cast<double>(warm.sketch_bytes) / 1024.0, warm.syncs_per_sec,
                static_cast<double>(warm.sketch_bytes) /
                    static_cast<double>(static_warm.sketch_bytes));
    std::printf("  %4zu   cold-adaptive %11.1f   %8.1f   %13.2fx\n\n", diff,
                static_cast<double>(cold.sketch_bytes) / 1024.0, cold.syncs_per_sec,
                static_cast<double>(cold.sketch_bytes) /
                    static_cast<double>(static_warm.sketch_bytes));
  }
  std::printf(
      "static-warm = snapshot + serialize cap tables (bytes flat in diff);\n"
      "adaptive-warm = snapshot + negotiate + fold + serialize (maintained);\n"
      "cold-adaptive = evaluate + estimators + negotiate + build + serialize\n"
      "per sync. Sketch KB excludes the client's estimator upload, which is\n"
      "identical for both adaptive modes.\n");
  ServerCodecBreakdown(pool);
  return 0;
}

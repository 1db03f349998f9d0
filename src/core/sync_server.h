// Multi-session sync serving over a maintained SyncDataset.
//
// The server owns one SyncDataset and hands out immutable snapshots of its
// maintained sketch set so many concurrent sessions can serve syncs while
// mutations continue:
//
//   - Mutations (Insert/Delete/ApplyBatch) run under the server mutex, one
//     writer at a time, delegating to the dataset's incremental updates.
//   - AcquireSnapshot() returns a shared_ptr<const SyncSnapshot>: a deep
//     copy of the level tables' cell arrays (~levels x cells x cell bytes,
//     no rebuild, no hashing). The copy is cached and
//     tagged with the dataset's generation counter: repeat acquisitions
//     between mutations share one snapshot, so the steady-state cost of a
//     sync under low churn is zero copies.
//   - A SyncSession pins one snapshot for its whole exchange. Sessions never
//     touch the live dataset, so a mutation between a session's messages
//     cannot tear its view — the generation stamps exactly which state the
//     session serves. Snapshot reads are const and scratch-free
//     (serialization + protocol runs decode RECEIVED copies, never the
//     snapshot's own tables; adaptive negotiation's EstimateDiff is
//     reentrant via thread_local peel scratch), so any number of sessions
//     share one snapshot across threads without locks — each session keeps
//     its own fold scratch. The mutate-while-sync interleaving is gated
//     under TSan in CI (SyncServerTest.ConcurrentChurnAndSync and
//     SyncServerAdaptiveTest.ConcurrentAdaptiveSessions).
//
// Per-sync cost: the dataset absorbed the hashing at mutation time, so the
// server's half (EmdSender::Warm over the snapshot) serializes maintained
// cells (BM_SessionSyncWarm vs BM_SessionSyncRebuild in bench_micro). With
// adaptive params (divisor-ladder rounding), it negotiates per-level sizes
// off the snapshot's estimators and FOLDS the cap-size tables down to the
// negotiated rungs (Riblt::FoldInto) — O(levels * cap) cell additions per
// sync, still independent of n.
#ifndef RSR_CORE_SYNC_SERVER_H_
#define RSR_CORE_SYNC_SERVER_H_

#include <memory>
#include <mutex>

#include "core/emd_protocol.h"
#include "core/sync_dataset.h"
#include "util/status.h"

namespace rsr {

/// An immutable, shareable view of the maintained sketch set at one
/// generation. Safe for concurrent use from any number of threads.
struct SyncSnapshot {
  /// Dataset generation this snapshot reflects.
  uint64_t generation = 0;
  /// Build-time protocol parameters (what RunEmdProtocolPrebuilt consumes).
  EmdProtocolParams params;
  /// Deep copy of the maintained tables AND per-level estimators.
  /// StrataEstimator::EstimateDiff is const and reentrant (the IBLT peel
  /// scratch is thread_local), so snapshot estimators serve concurrent
  /// adaptive negotiations without locks.
  EmdSketchSet sketches;
};

/// One client exchange pinned to one snapshot. Copyable (shares the
/// snapshot); cheap to create per request. Owns the fold scratch for
/// adaptive serving, so a session is single-threaded state — share the
/// SNAPSHOT across threads, not the session.
class SyncSession {
 public:
  explicit SyncSession(std::shared_ptr<const SyncSnapshot> snapshot)
      : snapshot_(std::move(snapshot)) {}

  const SyncSnapshot& snapshot() const { return *snapshot_; }
  uint64_t generation() const { return snapshot_->generation; }

  /// Runs the full EMD exchange against `client` (Bob's side) from the
  /// pinned sketch set. Requires |client| == snapshot size. Transcript and
  /// report are byte-identical to RunEmdProtocol over (server rows, client).
  /// With adaptive params (CellRounding::kDivisorLadder), the negotiation
  /// runs off the snapshot's estimators and the negotiated tables are folded
  /// from the snapshot's cap-size tables into this session's pooled scratch —
  /// O(levels * cap) per sync regardless of n, and allocation-free once the
  /// scratch shapes are warm. The snapshot side stays shared and read-only,
  /// and so does `client`: Run only reads it, so concurrent sessions may
  /// run against one const store.
  Result<EmdProtocolReport> Run(const PointStore& client) {
    return RunEmdProtocolPrebuilt(snapshot_->sketches, client,
                                  snapshot_->params, &scratch_);
  }

 private:
  std::shared_ptr<const SyncSnapshot> snapshot_;
  EmdServeScratch scratch_;
};

/// Thread-safe owner: serialized mutations, shared snapshots.
class SyncServer {
 public:
  explicit SyncServer(SyncDataset dataset) : dataset_(std::move(dataset)) {}

  /// Mutations — the dataset's entry points under the server mutex.
  Result<uint64_t> Insert(PointRef row) {
    std::lock_guard<std::mutex> lock(mu_);
    return dataset_.Insert(row);
  }
  Status Delete(uint64_t key) {
    std::lock_guard<std::mutex> lock(mu_);
    return dataset_.Delete(key);
  }
  Status ApplyBatch(const PointStore& inserts,
                    std::span<const uint64_t> delete_keys) {
    std::lock_guard<std::mutex> lock(mu_);
    return dataset_.ApplyBatch(inserts, delete_keys);
  }
  uint64_t KeyOf(PointRef row) const {
    std::lock_guard<std::mutex> lock(mu_);
    return dataset_.KeyOf(row);
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return dataset_.size();
  }
  uint64_t generation() const {
    std::lock_guard<std::mutex> lock(mu_);
    return dataset_.generation();
  }

  /// The current snapshot — cached: a copy of the cell arrays is made only
  /// when the generation moved since the last acquisition.
  std::shared_ptr<const SyncSnapshot> AcquireSnapshot();

  /// Convenience: a session pinned to the current snapshot.
  SyncSession OpenSession() { return SyncSession(AcquireSnapshot()); }

 private:
  mutable std::mutex mu_;
  SyncDataset dataset_;
  std::shared_ptr<const SyncSnapshot> cached_;
};

}  // namespace rsr

#endif  // RSR_CORE_SYNC_SERVER_H_

#include "core/sync_server.h"

namespace rsr {

std::shared_ptr<const SyncSnapshot> SyncServer::AcquireSnapshot() {
  std::lock_guard<std::mutex> lock(mu_);
  if (cached_ && cached_->generation == dataset_.generation()) {
    return cached_;
  }
  auto snap = std::make_shared<SyncSnapshot>();
  snap->generation = dataset_.generation();
  snap->params = dataset_.params();
  const EmdSketchSet& live = dataset_.sketches();
  snap->sketches.n = live.n;
  snap->sketches.derived = live.derived;
  snap->sketches.prefix_lens = live.prefix_lens;
  // Deep copy of the cell arrays and the per-level estimators — the
  // estimators are tiny next to the tables and let adaptive sessions
  // negotiate off the pinned state (EstimateDiff is const + reentrant, so
  // the snapshot stays lock-free).
  snap->sketches.tables = live.tables;
  snap->sketches.estimators = live.estimators;
  cached_ = std::move(snap);
  return cached_;
}

}  // namespace rsr

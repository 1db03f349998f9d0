// Traced replays of the shipped protocol entry points.
//
// Each replay performs the same sequence of calls into the layers' public
// functions as its library counterpart, with a span around every call, so
// the traced pass can attribute an exchange's time to layers without
// instrumenting src/. A replay is a copy of the entry point's body and can
// drift from it; SameExchange is the guard: the traced pass compares every
// replayed exchange with the shipped call on the same inputs and seed
// (messages, decoded level, report counters, sorted S'_B) and fails the run
// on any difference.
//
// Only the configurations the workloads run are replayed: the cold
// RunEmdProtocol (static or adaptive, sketch_shards <= 1), the adaptive
// RunEmdProtocolPrebuilt path SyncSession::Run takes, and RunGapProtocol.
#ifndef RSR_BENCH_E2E_REPLAY_H_
#define RSR_BENCH_E2E_REPLAY_H_

#include <string>
#include <type_traits>

#include "core/emd_protocol.h"
#include "core/emd_sketch.h"
#include "core/gap_protocol.h"
#include "geometry/point_store.h"
#include "trace.h"
#include "util/status.h"

namespace rsr::e2e {

/// RunEmdProtocol, traced.
Result<EmdProtocolReport> ReplayEmdProtocol(const PointStore& alice,
                                            const PointStore& bob,
                                            const EmdProtocolParams& params,
                                            Tracer& tracer);

/// RunEmdProtocolPrebuilt with adaptive sizing (what SyncSession::Run does
/// with a fresh session), traced.
Result<EmdProtocolReport> ReplayEmdPrebuilt(const EmdSketchSet& alice,
                                            const PointStore& bob,
                                            const EmdProtocolParams& params,
                                            Tracer& tracer);

/// RunGapProtocol, traced.
Result<GapProtocolReport> ReplayGapProtocol(const PointStore& alice,
                                            const PointStore& bob,
                                            const GapProtocolParams& params,
                                            Tracer& tracer);

/// Empty when the two reports describe the same exchange over `dim`-wide
/// points; otherwise the first difference found.
std::string SameExchange(const EmdProtocolReport& shipped,
                         const EmdProtocolReport& replayed, size_t dim);
std::string SameExchange(const GapProtocolReport& shipped,
                         const GapProtocolReport& replayed, size_t dim);

/// The rows of a report's point set (whatever container the report uses),
/// sorted lexicographically.
template <typename Rows>
PointStore SortedRows(const Rows& rows, size_t dim) {
  PointStore out(dim);
  if constexpr (std::is_same_v<Rows, PointStore>) {
    out = rows;
  } else {
    for (const auto& row : rows) out.Append(row);
  }
  out.SortLex();
  return out;
}

}  // namespace rsr::e2e

#endif  // RSR_BENCH_E2E_REPLAY_H_

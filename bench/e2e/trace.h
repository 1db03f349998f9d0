// Span recorder for the traced pass of bench_e2e.
//
// Spans are recorded from the benchmark's own files, around calls into the
// library's public layer functions (replay.h); nothing inside src/ is
// instrumented. Each Tracer belongs to one thread and appends to a
// pre-reserved buffer, so recording a span is two clock reads and a store.
// A span's parent is the innermost span open when it started; spans of one
// operation share an op id. Self time is a span's duration minus the
// durations of its direct children.
#ifndef RSR_BENCH_E2E_TRACE_H_
#define RSR_BENCH_E2E_TRACE_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <vector>

namespace rsr::e2e {

/// Layers are named after the library modules whose functions they wrap.
enum class Layer : uint8_t {
  kOp,                  // one whole replayed operation (the root span)
  kLshEval,             // EvaluateAllInto
  kEmdHashes,           // DeriveEmdParameters + MakeEmdHashes
  kEmdKeys,             // ComputeEmdLevelKeys
  kAdaptiveEstimators,  // BuildLevelEstimators
  kAdaptiveNegotiate,   // Write/ReadEstimators + NegotiateLevelCells
  kRibltBuild,          // Riblt::InsertMany
  kRibltFold,           // FoldEmdSketches
  kRibltEncode,         // WriteNegotiatedCells + Riblt::WriteTo
  kRibltParse,          // ReadNegotiatedCells + Riblt::ReadFrom
  kRibltSubtract,       // Riblt::DeleteMany
  kRibltPeel,           // Riblt::DecodeInto
  kEmdMatch,            // DistanceMatrix + MinCostAssignment
  kGeometryAssemble,    // building S'_B row by row
  kSyncSnapshot,        // SyncServer::AcquireSnapshot
  kSyncApply,           // SyncServer::ApplyBatch
  kGapHashes,           // MakeGapLsh + DrawMany + batch-hash draws
  kGapKeys,             // PairwiseVectorHash::EvalBatch key slots
  kSetsetsReconcile,    // ReconcileSetsOfSets
  kGapFar,              // far detection + far-element message
  kCount,
};
constexpr size_t kLayerCount = static_cast<size_t>(Layer::kCount);

/// Metric-name stem of a layer ("lsh.eval", "riblt.peel", ...).
const char* LayerName(Layer layer);

struct Span {
  Layer layer = Layer::kOp;
  uint32_t parent = 0;  // index into the same buffer, or kNoParent
  uint32_t op = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};
constexpr uint32_t kNoParent = UINT32_MAX;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One thread's span buffer.
class Tracer {
 public:
  explicit Tracer(size_t capacity) {
    spans_.reserve(capacity);
    open_.reserve(32);
  }

  void BeginOp(uint32_t op) { op_ = op; }

  uint32_t Open(Layer layer) {
    const uint32_t index = static_cast<uint32_t>(spans_.size());
    spans_.push_back(
        Span{layer, open_.empty() ? kNoParent : open_.back(), op_, NowNs(), 0});
    open_.push_back(index);
    return index;
  }
  void Close(uint32_t index) {
    spans_[index].end_ns = NowNs();
    open_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<uint32_t> open_;
  uint32_t op_ = 0;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, Layer layer)
      : tracer_(tracer), index_(tracer.Open(layer)) {}
  ~ScopedSpan() { tracer_.Close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  uint32_t index_;
};

/// Per-op view of one root (kOp) span: its duration, the share of it that
/// child spans cover, and the self time of every layer inside it.
struct OpBreakdown {
  double total_ms = 0;
  double covered_ms = 0;
  std::array<double, kLayerCount> self_ms{};
};

/// Breaks every kOp root span of `spans` down by layer.
std::vector<OpBreakdown> BreakDownOps(const std::vector<Span>& spans);

/// Appends the spans as JSON objects (comma-separated, no brackets) to `out`,
/// tagging each with `thread`. Returns false on a write error.
bool WriteSpansJson(const std::vector<Span>& spans, int thread, bool first,
                    std::FILE* out);

}  // namespace rsr::e2e

#endif  // RSR_BENCH_E2E_TRACE_H_

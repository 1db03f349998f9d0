#include "trace.h"

namespace rsr::e2e {

const char* LayerName(Layer layer) {
  static constexpr std::array<const char*, kLayerCount> kNames = {
      "op",           "lsh.eval",          "emd_sketch.hashes",
      "emd_sketch.keys", "adaptive.estimators", "adaptive.negotiate",
      "riblt.build",  "riblt.fold",        "riblt.encode",
      "riblt.parse",  "riblt.subtract",    "riblt.peel",
      "emd.match",    "geometry.assemble", "sync_server.snapshot",
      "sync_dataset.apply", "gap.hashes",  "gap.keys",
      "setsets.reconcile", "gap.far",
  };
  return kNames[static_cast<size_t>(layer)];
}

std::vector<OpBreakdown> BreakDownOps(const std::vector<Span>& spans) {
  // A parent always precedes its children in the buffer, so one pass that
  // charges each span's duration to its parent's child total suffices.
  std::vector<double> child_ms(spans.size(), 0.0);
  std::vector<uint32_t> root_of(spans.size(), kNoParent);
  std::vector<OpBreakdown> ops;
  std::vector<size_t> op_index(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    const double ms = static_cast<double>(span.end_ns - span.start_ns) * 1e-6;
    if (span.parent == kNoParent) {
      root_of[i] = static_cast<uint32_t>(i);
      if (span.layer == Layer::kOp) {
        op_index[i] = ops.size();
        ops.push_back(OpBreakdown{ms, 0.0, {}});
      }
      continue;
    }
    child_ms[span.parent] += ms;
    root_of[i] = root_of[span.parent];
    const uint32_t root = root_of[i];
    if (spans[root].layer == Layer::kOp && span.parent == root) {
      ops[op_index[root]].covered_ms += ms;
    }
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    const uint32_t root = root_of[i];
    if (spans[root].layer != Layer::kOp) continue;
    const double ms =
        static_cast<double>(spans[i].end_ns - spans[i].start_ns) * 1e-6;
    ops[op_index[root]].self_ms[static_cast<size_t>(spans[i].layer)] +=
        ms - child_ms[i];
  }
  return ops;
}

bool WriteSpansJson(const std::vector<Span>& spans, int thread, bool first,
                    std::FILE* out) {
  for (const Span& span : spans) {
    const long long parent =
        span.parent == kNoParent ? -1 : static_cast<long long>(span.parent);
    if (std::fprintf(out,
                     "%s\n{\"name\":\"%s\",\"thread\":%d,\"op\":%u,"
                     "\"parent\":%lld,\"start_ns\":%lld,\"end_ns\":%lld}",
                     first ? "" : ",", LayerName(span.layer), thread, span.op,
                     parent, static_cast<long long>(span.start_ns),
                     static_cast<long long>(span.end_ns)) < 0) {
      return false;
    }
    first = false;
  }
  return true;
}

}  // namespace rsr::e2e

// Adaptive vs static RIBLT sizing (core/adaptive.h).
//
// The static EMD protocol provisions cells = c q^2 k per level regardless of
// how different the sets actually are, so a sync whose true difference is a
// handful of pairs pays the same communication as one that saturates the
// k budget. The adaptive path spends one extra B->A round on per-level
// strata estimators and sizes every level to
// clamp(c q^2 estimate, floor, c q^2 k).
//
// Table: sweep the true difference (symmetric-difference size, 2 outlier
// points per differing pair — one per side) at fixed n = 4096, k = 256, and
// report success rate and total transcript bytes for both paths. Expected
// shape: adaptive bytes grow with the actual difference and are a small
// fraction of static at tiny differences (<= half at diff 8, per the
// "tiny diff, huge k budget" motivation), while success never drops.
// At diff > 4k = max decodable pairs both paths fail by design (the k budget
// itself is exceeded); the estimators clamp to the cap, so adaptive pays
// only the estimator overhead there.
#include <cstdio>
#include <map>
#include <string>

#include "bench_util.h"
#include "core/emd_protocol.h"
#include "util/wire.h"
#include "workload/generators.h"

namespace rsr {
namespace {

struct Outcome {
  int successes = 0;
  int trials = 0;  // trials whose protocol actually ran
  int skipped = 0; // workload-generation failures: not protocol failures
  bench::Stats bytes;
  size_t min_level_cells = 0;
  size_t max_level_cells = 0;
};

Outcome RunSetting(size_t n, size_t true_diff, size_t k, bool adaptive,
                   int trials, uint64_t seed_base) {
  const size_t dim = 4;
  const Coord delta = 1023;
  Outcome outcome;
  std::vector<double> bytes;
  for (int trial = 0; trial < trials; ++trial) {
    NoisyPairConfig config;
    config.metric = MetricKind::kL2;
    config.dim = dim;
    config.delta = delta;
    config.n = n;
    config.outliers = true_diff / 2;  // per side; symmetric diff = true_diff
    config.noise = 0.0;  // shared ground truth is exact: only outliers differ
    // Modest separation: large enough that outliers are genuinely far, small
    // enough that thousands of them still pack into [0,1023]^4 alongside the
    // ground truth (rejection sampling fails for ~150 at diff >= 128).
    config.outlier_dist = 60;
    config.seed = seed_base + static_cast<uint64_t>(trial);
    auto workload = GenerateNoisyPairStore(config);
    if (!workload.ok()) {
      // The generator's rejection sampling gave up (outlier packing): the
      // protocol never ran, so scoring this as a reconciliation failure
      // would corrupt the success column.
      ++outcome.skipped;
      continue;
    }
    ++outcome.trials;

    EmdProtocolParams params;
    params.metric = MetricKind::kL2;
    params.dim = dim;
    params.delta = delta;
    params.k = k;
    params.d1 = 32;
    params.d2 = 8192;
    params.seed = seed_base * 131 + static_cast<uint64_t>(trial);
    params.adaptive.enabled = adaptive;
    auto report = RunEmdProtocol(workload->alice, workload->bob, params);
    if (!report.ok()) continue;
    bytes.push_back(static_cast<double>(report->comm.total_bytes()));
    if (!report->level_cells.empty()) {
      outcome.min_level_cells = report->level_cells.front();
      outcome.max_level_cells = outcome.min_level_cells;
      for (size_t cells : report->level_cells) {
        outcome.min_level_cells = std::min(outcome.min_level_cells, cells);
        outcome.max_level_cells = std::max(outcome.max_level_cells, cells);
      }
    }
    if (report->failure) continue;
    ++outcome.successes;
  }
  outcome.bytes = bench::Summarize(bytes);
  return outcome;
}

void Run() {
  bench::Banner(
      "Adaptive RIBLT sizing — strata-driven size negotiation",
      "clamp(c q^2 est, floor, c q^2 k) cells per level vs static c q^2 k; "
      "one extra B->A estimator round, bytes ~ actual difference");

  const size_t n = 4096;
  const size_t k = 256;

  std::printf("\nn=%zu, k=%zu, d1=32, d2=8192 (9 levels, cap 4*q^2*k=9216 "
              "cells/level)\n", n, k);
  bench::Header(
      "   diff   static-ok  static-KB  adaptive-ok  adaptive-KB  saved  "
      "cells[min..max]");
  for (size_t diff : {2u, 8u, 32u, 128u, 1024u, 4096u}) {
    const int trials = diff >= 1024 ? 2 : 5;
    Outcome statik = RunSetting(n, diff, k, false, trials, 42000 + diff);
    Outcome adaptive = RunSetting(n, diff, k, true, trials, 42000 + diff);
    double saved = statik.bytes.median > 0
                       ? 1.0 - adaptive.bytes.median / statik.bytes.median
                       : 0.0;
    std::printf("%7zu   %4d/%-4d  %9.1f  %6d/%-4d  %11.1f  %4.0f%%  "
                "[%zu..%zu]\n",
                diff, statik.successes, statik.trials,
                statik.bytes.median / 1024.0, adaptive.successes,
                adaptive.trials, adaptive.bytes.median / 1024.0, 100.0 * saved,
                adaptive.min_level_cells, adaptive.max_level_cells);
    if (statik.skipped + adaptive.skipped > 0) {
      std::printf("          (skipped %d static / %d adaptive trials: "
                  "workload generation failed)\n",
                  statik.skipped, adaptive.skipped);
    }
  }
  std::printf(
      "\nExpectation: success never drops; adaptive bytes <= half of static\n"
      "at diff 8 and track the true difference until the cap, where the two\n"
      "paths converge (adaptive pays only the estimator round).\n");
}

/// Per-message-type byte breakdown of one adaptive diff-8 exchange under
/// both wire codecs: estimator round vs the sizes prefix vs the RIBLT cells
/// themselves, with a classic-vs-compact column (docs/WIRE.md).
void CodecBreakdown() {
  bench::Banner(
      "Wire codec — per-message bytes, classic vs compact",
      "one adaptive diff-8 exchange (n=4096, k=256); compact packs counts, "
      "truncates checksums, and drops empty cells behind a bitmap");

  const size_t n = 4096;
  const size_t diff = 8;
  NoisyPairConfig config;
  config.metric = MetricKind::kL2;
  config.dim = 4;
  config.delta = 1023;
  config.n = n;
  config.outliers = diff / 2;
  config.noise = 0.0;
  config.outlier_dist = 60;
  config.seed = 42008;
  auto workload = GenerateNoisyPairStore(config);
  if (!workload.ok()) {
    std::printf("workload generation failed: %s\n",
                workload.status().message().c_str());
    return;
  }

  auto varint_size = [](size_t v) {
    size_t bytes = 1;
    while (v >= 0x80) { v >>= 7; ++bytes; }
    return bytes;
  };

  // label -> [classic bytes, compact bytes]; ordered rows for printing.
  std::map<std::string, size_t> sizes[2];
  std::vector<std::string> order;
  bool identical = true;
  PointStore decoded_classic;
  for (int which = 0; which < 2; ++which) {
    EmdProtocolParams params;
    params.metric = MetricKind::kL2;
    params.dim = 4;
    params.delta = 1023;
    params.k = 256;
    params.d1 = 32;
    params.d2 = 8192;
    params.seed = 42008 * 131;
    params.adaptive.enabled = true;
    params.codec = which == 0 ? WireCodec::kClassic : WireCodec::kCompact;
    auto report = RunEmdProtocol(workload->alice, workload->bob, params);
    if (!report.ok() || report->failure) {
      std::printf("%s run failed\n", WireCodecName(params.codec));
      return;
    }
    size_t prefix = 0;
    for (size_t cells : report->level_cells) prefix += varint_size(cells);
    for (const MessageRecord& m : report->comm.messages) {
      size_t body = m.bytes;
      if (m.label == "A->B level RIBLTs") {
        // Split the sketch message into its negotiated-sizes prefix and the
        // cells themselves (the codec header rides the estimator message).
        sizes[which]["A->B sizes prefix"] += prefix;
        body -= prefix;
        if (which == 0) order.push_back("A->B sizes prefix");
        sizes[which]["A->B RIBLT cells"] += body;
        if (which == 0) order.push_back("A->B RIBLT cells");
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
  std::printf("\nDecoded repaired sets identical across codecs: %s\n",
              identical ? "yes" : "NO — INVESTIGATE");
}

}  // namespace
}  // namespace rsr

int main() {
  rsr::Run();
  rsr::CodecBreakdown();
  return 0;
}

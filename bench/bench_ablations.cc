// Experiment E10: ablations over the protocol's tunable design choices.
//
// (a) RIBLT shape: q and the cell multiplier (paper: q >= 3, m = 4 q^2 k).
//     Sparser tables than 4q^2k risk 2-cores; larger q inflates comm.
// (b) Fingerprint width in the set-of-sets reconciler: too narrow forces
//     DFS/fallbacks, too wide wastes bytes.
// (c) Strata estimator accuracy (the adaptive-sizing substrate).
#include <cmath>
#include <cstdio>

#include "bench_util.h"
#include "core/emd_protocol.h"
#include "emd/emd.h"
#include "setsets/reconciler.h"
#include "sketch/strata.h"
#include "util/random.h"
#include "workload/generators.h"

namespace rsr {
namespace {

void RibltShapeAblation() {
  std::printf("\n(a) RIBLT shape on a fixed EMD workload (n=64, k=2, l1)\n");
  bench::Header("   q   cell-mult   cells   success    med-bits");
  for (int q : {3, 4, 5}) {
    for (double mult : {1.0, 2.0, 4.0, 6.0}) {
      int successes = 0, trials = 0;
      std::vector<double> bits;
      for (int trial = 0; trial < 10; ++trial) {
        NoisyPairConfig config;
        config.metric = MetricKind::kL1;
        config.dim = 2;
        config.delta = 2047;
        config.n = 64;
        config.outliers = 2;
        config.noise = 0;
        config.outlier_dist = 100;
        config.seed = static_cast<uint64_t>(500 + trial);
        auto workload = GenerateNoisyPairStore(config);
        if (!workload.ok()) continue;
        ++trials;
        EmdProtocolParams params;
        params.metric = MetricKind::kL1;
        params.dim = 2;
        params.delta = 2047;
        params.k = 2;
        params.d1 = 1;
        params.d2 = 1024;
        params.num_hashes = q;
        params.cell_multiplier = mult;
        params.seed = static_cast<uint64_t>(31 * q) +
                      static_cast<uint64_t>(mult * 100) +
                      static_cast<uint64_t>(trial);
        auto report =
            RunEmdProtocol(workload->alice, workload->bob, params);
        if (!report.ok() || report->failure) continue;
        ++successes;
        bits.push_back(static_cast<double>(report->comm.total_bits()));
      }
      size_t cells = static_cast<size_t>(mult * q * q * 2);
      std::printf("%4d   %9.1f   %5zu   %3d/%-5d %10.0f\n", q, mult, cells,
                  successes, trials, bench::Summarize(bits).median);
    }
  }
  std::printf("paper setting: q=3, mult=4 -> reliable decode at minimal comm\n");
}

void FingerprintWidthAblation() {
  std::printf("\n(b) fingerprint width in the sets reconciler (h=48 slots)\n");
  bench::Header("  fp-bits   recovered   fallback-sets    med-bytes");
  Rng rng(77);
  for (int bits : {4, 8, 16, 24}) {
    int recovered = 0, trials = 0;
    double fallbacks = 0;
    std::vector<double> bytes;
    for (int trial = 0; trial < 8; ++trial) {
      std::vector<SlottedSet> alice(80);
      for (auto& set : alice) {
        set.resize(48);
        for (auto& v : set) v = static_cast<uint32_t>(rng.Below(1u << 30));
      }
      std::vector<SlottedSet> bob = alice;
      for (size_t i = 0; i < 20; ++i) {
        bob[i][rng.Below(48)] = static_cast<uint32_t>(rng.Below(1u << 30));
      }
      SetsReconcilerParams params;
      params.mode = SetsReconcilerMode::kFingerprint;
      params.sig_cells = 128;
      params.elem_cells = 256;
      params.fingerprint_bits = bits;
      params.seed = static_cast<uint64_t>(900 + 10 * bits + trial);
      auto report = ReconcileSetsOfSets(alice, bob, params);
      if (!report.ok()) continue;
      ++trials;
      std::vector<SlottedSet> got = report->bob_sets, want = bob;
      std::sort(got.begin(), got.end());
      std::sort(want.begin(), want.end());
      recovered += (got == want);
      fallbacks += static_cast<double>(report->fallback_sets);
      bytes.push_back(static_cast<double>(report->comm.total_bytes()));
    }
    std::printf("%9d   %4d/%-5d  %13.1f   %10.0f\n", bits, recovered, trials,
                trials ? fallbacks / trials : 0.0,
                bench::Summarize(bytes).median);
  }
  std::printf("narrow fingerprints stay correct (DFS + signature verify) but\n"
              "may trigger fallbacks; 8 bits is the sweet spot.\n");
}

void StrataAblation() {
  std::printf("\n(c) strata estimator accuracy\n");
  bench::Header("  true-diff    med-estimate    med-est/true");
  Rng rng(99);
  for (size_t diff : {16u, 64u, 256u, 1024u, 4096u, 16384u}) {
    std::vector<double> estimates, ratios;
    for (int trial = 0; trial < 10; ++trial) {
      StrataParams params;
      params.seed = static_cast<uint64_t>(3000 + trial);
      StrataEstimator a(params), b(params);
      for (size_t i = 0; i < 2000; ++i) {
        uint64_t key = rng.Next();
        a.Insert(key);
        b.Insert(key);
      }
      for (size_t i = 0; i < diff; ++i) a.Insert(rng.Next());
      auto estimate = a.EstimateDiff(b);
      if (!estimate.ok()) continue;
      estimates.push_back(static_cast<double>(*estimate));
      ratios.push_back(static_cast<double>(*estimate) /
                       static_cast<double>(diff));
    }
    std::printf("%11zu   %13.0f   %13.2f\n", diff,
                bench::Summarize(estimates).median,
                bench::Summarize(ratios).median);
  }
  std::printf("estimates should track the truth within ~2x at every scale.\n");
}

void Run() {
  bench::Banner("E10 — ablations",
                "RIBLT shape (q, cell multiplier); fingerprint width; strata "
                "estimator accuracy");
  RibltShapeAblation();
  FingerprintWidthAblation();
  StrataAblation();
}

}  // namespace
}  // namespace rsr

int main() {
  rsr::Run();
  return 0;
}

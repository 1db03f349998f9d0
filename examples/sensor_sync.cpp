// Sensor-network synchronization under the Gap Guarantee model (Section 4).
//
// Two sensor stations observe mostly the same objects: measurements of the
// same object land within r1 of each other, distinct objects are at least r2
// apart. Station B wants a set that covers every object station A knows —
// without shipping every (noisy) measurement. The Gap protocol transmits
// essentially only the objects B is missing, at polylog cost per shared
// object.
//
// This example walks the full 4-round protocol, prints the derived LSH
// parameters, and verifies the guarantee of Definition 4.1.
#include <algorithm>
#include <cstdio>

#include "core/gap_protocol.h"
#include "workload/generators.h"

namespace {

// Max over rows of `from` of the distance to the nearest row of `to`, read
// through row views without materializing any Point.
double WorstGap(const rsr::PointStore& from, const rsr::PointStore& to,
                const rsr::Metric& metric) {
  double worst = 0;
  for (size_t i = 0; i < from.size(); ++i) {
    double best = 1e300;
    for (size_t j = 0; j < to.size(); ++j) {
      best = std::min(best, metric.Distance(from[i], to[j]));
    }
    worst = std::max(worst, best);
  }
  return worst;
}

}  // namespace

int main() {
  using namespace rsr;
  const double r1 = 4.0;    // same object => within r1
  const double r2 = 250.0;  // distinct objects => at least r2 apart
  const size_t kNewObjects = 3;

  NoisyPairConfig config;
  config.metric = MetricKind::kL1;
  config.dim = 4;                    // e.g. (x, y, z, intensity)
  config.delta = 4095;
  config.n = 120;
  config.outliers = kNewObjects;
  config.noise = 2.0;                // within r1/2 per side
  config.outlier_dist = 400.0;       // comfortably beyond r2
  config.seed = 99;
  auto workload = GenerateNoisyPairStore(config);
  if (!workload.ok()) {
    std::printf("workload failed: %s\n", workload.status().ToString().c_str());
    return 1;
  }

  GapProtocolParams params;
  params.metric = MetricKind::kL1;
  params.dim = 4;
  params.delta = 4095;
  params.r1 = r1;
  params.r2 = r2;
  params.k = kNewObjects;
  params.seed = 1234;  // public coins shared by both stations
  auto report = RunGapProtocol(workload->alice, workload->bob, params);
  if (!report.ok()) {
    std::printf("protocol error: %s\n", report.status().ToString().c_str());
    return 1;
  }

  std::printf("derived parameters (Theorem 4.2):\n");
  std::printf("  key entries h        : %zu\n", report->derived.h);
  std::printf("  LSH evals per entry m: %zu\n", report->derived.m);
  std::printf("  (p1, p2)             : (%.4f, %.4f)\n", report->derived.p1,
              report->derived.p2);
  std::printf("  rho                  : %.4f\n", report->derived.rho);
  std::printf("  match threshold tau  : %.1f of %zu entries\n",
              report->derived.tau, report->derived.h);

  std::printf("\nprotocol transcript:\n");
  for (const auto& message : report->comm.messages) {
    std::printf("  %-28s %8zu bytes\n", message.label.c_str(), message.bytes);
  }
  std::printf("  total: %zu bytes over %d rounds\n",
              report->comm.total_bytes(), report->comm.rounds());

  Metric metric(MetricKind::kL1);
  std::printf("\noutcome:\n");
  std::printf("  station A points missing from B before: worst gap %.0f\n",
              WorstGap(workload->alice, workload->bob, metric));
  std::printf("  transmitted objects |T_A|             : %zu (k = %zu)\n",
              report->transmitted.size(), kNewObjects);
  double gap = WorstGap(workload->alice, report->s_b_prime, metric);
  std::printf("  worst gap after protocol              : %.0f (guarantee %.0f)\n",
              gap, r2);
  std::printf("  guarantee %s\n", gap <= r2 ? "HOLDS" : "VIOLATED");
  return gap <= r2 ? 0 : 1;
}

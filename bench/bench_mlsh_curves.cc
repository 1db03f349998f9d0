// Experiment E6 (Lemmas 2.3-2.5): MLSH collision-probability curves.
//
// Claim (Definition 2.2): for each family there are (r, p, alpha) with
//   p^f <= Pr[h(x)=h(y)] <= p^{alpha f}   for all distances f <= r.
// Table per family: distance, empirical collision rate, analytic value, and
// the two bounds. Every row must satisfy lower <= empirical <= upper within
// sampling noise — this is the paper's Figure-equivalent for its LSH lemmas.
#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_util.h"
#include "lsh/mlsh.h"
#include "util/random.h"
#include "workload/generators.h"

namespace rsr {
namespace {

void RunFamily(MetricKind kind, size_t dim, Coord delta, double w) {
  auto family = MakeMlshFamily(kind, dim, w);
  MlshParams params = family->mlsh_params();
  Metric metric(kind);
  std::printf("\nfamily=%s  dim=%zu  w=%.1f  (r=%.2f, p=%.5f, alpha=%.4f)\n",
              family->Name().c_str(), dim, w, params.r, params.p,
              params.alpha);
  bench::Header(
      "  distance    empirical    analytic    lower p^f    upper p^(af)   sandwich");

  const int kDraws = 4000;
  Rng workload_rng(kind == MetricKind::kHamming ? 11 : 22);
  for (int step = 1; step <= 7; ++step) {
    double target = params.r * 0.13 * step;
    Point x = GenerateUniformStore(1, dim, delta, &workload_rng).MakePoint(0);
    std::vector<Coord> perturbed(dim);
    PerturbRowInto(x.coords().data(), dim, kind, target, delta, &workload_rng,
                   perturbed.data());
    Point y(std::move(perturbed));
    double f = metric.Distance(x, y);
    if (f <= 0 || f > params.r) continue;

    Rng draw_rng(static_cast<uint64_t>(1000 + step));
    int hits = 0;
    for (int i = 0; i < kDraws; ++i) {
      auto h = family->Draw(&draw_rng);
      hits += (h->Eval(x) == h->Eval(y));
    }
    double empirical = static_cast<double>(hits) / kDraws;
    double analytic = family->CollisionProbability(f);
    double lower = std::pow(params.p, f);
    double upper = std::pow(params.p, params.alpha * f);
    double slack = 5.0 * std::sqrt(0.25 / kDraws);
    bool ok = empirical + slack >= lower && empirical - slack <= upper;
    std::printf("%10.2f   %10.4f  %10.4f   %10.4f     %10.4f   %8s\n", f,
                empirical, analytic, lower, upper, ok ? "OK" : "VIOLATED");
  }
}

void Run() {
  bench::Banner("E6 / Lemmas 2.3-2.5 — MLSH collision curves",
                "p^f <= Pr[collision] <= p^{alpha f} for f <= r, all families");
  RunFamily(MetricKind::kHamming, 64, 1, 128.0);   // Lemma 2.3 (w >= d)
  RunFamily(MetricKind::kL1, 6, 500, 80.0);        // Lemma 2.4 (grid)
  RunFamily(MetricKind::kL2, 6, 500, 60.0);        // Lemma 2.5 (2-stable)
  std::printf("\nExpectation: every row reports sandwich OK.\n");
}

}  // namespace
}  // namespace rsr

int main() {
  rsr::Run();
  return 0;
}

// Experiment E13 (extensions): two-way reconciliation and the
// distance-sensitive Bloom filter.
//
// (a) Two-way Gap reconciliation (Section 1's discussion): both directions
//     cost ~2x one direction, both parties end covered, and the final sets
//     genuinely differ (the paper's caveat).
// (b) Distance-sensitive Bloom filter [18]: acceptance rate vs distance —
//     the "soft membership" curve separating r1 from r2 at the recommended
//     amplification.
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "core/twoway.h"
#include "lsh/bit_sampling.h"
#include "sketch/ds_bloom.h"
#include "workload/generators.h"

namespace rsr {
namespace {

void TwoWayTable() {
  std::printf("\n(a) two-way Gap reconciliation (l1, d=4, n sweep, k=2)\n");
  bench::Header(
      "      n   covered-A  covered-B   oneway-bits   twoway-bits   ratio");
  for (size_t n : {32u, 64u, 128u}) {
    int covered_a = 0, covered_b = 0, trials = 0;
    std::vector<double> oneway, twoway;
    for (int trial = 0; trial < 6; ++trial) {
      NoisyPairConfig config;
      config.metric = MetricKind::kL1;
      config.dim = 4;
      config.delta = 2047;
      config.n = n;
      config.outliers = 2;
      config.noise = 2;
      config.outlier_dist = 300;
      config.seed = 60 * n + static_cast<uint64_t>(trial);
      auto workload = GenerateNoisyPairStore(config);
      if (!workload.ok()) continue;
      ++trials;

      GapProtocolParams params;
      params.metric = MetricKind::kL1;
      params.dim = 4;
      params.delta = 2047;
      params.r1 = 4;
      params.r2 = 200;
      params.k = 2;
      params.seed = 61 * n + static_cast<uint64_t>(trial);
      auto both = RunTwoWayGapProtocol(workload->alice, workload->bob, params);
      if (!both.ok()) continue;
      Metric metric(MetricKind::kL1);
      covered_b += (bench::WorstCaseGap(workload->alice, both->s_b_final,
                                        metric) <= 200.0);
      covered_a += (bench::WorstCaseGap(workload->bob, both->s_a_final,
                                        metric) <= 200.0);
      oneway.push_back(static_cast<double>(both->a_to_b.comm.total_bits()));
      twoway.push_back(static_cast<double>(both->comm.total_bits()));
    }
    double ow = bench::Summarize(oneway).median;
    double tw = bench::Summarize(twoway).median;
    std::printf("%7zu   %4d/%-5d %4d/%-5d  %11.0f  %12.0f  %6.2f\n", n,
                covered_a, trials, covered_b, trials, ow, tw,
                ow > 0 ? tw / ow : 0.0);
  }
  std::printf("expectation: both covered; two-way ~2x one-way bits.\n");
}

void DsBloomCurve() {
  std::printf("\n(b) distance-sensitive Bloom filter acceptance curve\n");
  const size_t dim = 64, set_size = 50;
  BitSamplingFamily family(dim, static_cast<double>(dim));
  LshParams lsh;
  lsh.r1 = 2;
  lsh.r2 = 26;
  lsh.p1 = family.CollisionProbability(lsh.r1);
  lsh.p2 = family.CollisionProbability(lsh.r2);
  DsBloomParams params;
  params.num_banks = 64;
  params.bits_per_bank = 1 << 14;
  params.hashes_per_bank =
      DistanceSensitiveBloomFilter::RecommendedHashesPerBank(lsh, set_size);
  params.expected_set_size = set_size;
  params.seed = 777;
  DistanceSensitiveBloomFilter filter(family, lsh, params);
  std::printf("g=%zu banks=%zu threshold=%.3f (r1=%g, r2=%g)\n",
              params.hashes_per_bank, params.num_banks, filter.threshold(),
              lsh.r1, lsh.r2);

  Rng rng(778);
  PointStore points = GenerateUniformStore(set_size, dim, 1, &rng);
  filter.InsertMany(points);

  bench::Header("  distance   accept-rate   mean-votes");
  for (int dist : {0, 1, 2, 4, 8, 16, 26, 40}) {
    int accepted = 0;
    double votes = 0;
    const int kProbes = 200;
    std::vector<Coord> probe(dim);
    for (int i = 0; i < kProbes; ++i) {
      const Coord* base = points.row(rng.Below(points.size()));
      PerturbRowInto(base, dim, MetricKind::kHamming,
                     static_cast<double>(dist), 1, &rng, probe.data());
      const Point q(probe);
      accepted += filter.QueryNear(q);
      votes += filter.VoteFraction(q);
    }
    std::printf("%10d   %11.2f   %10.2f\n", dist,
                static_cast<double>(accepted) / kProbes, votes / kProbes);
  }
  std::printf(
      "expectation: acceptance ~1 at distances <= r1, decaying through the\n"
      "gap, ~0 beyond r2 (probes near other set points add a small floor).\n");
}

void Run() {
  bench::Banner("E13 (extensions) — two-way reconciliation & DS-Bloom [18]",
                "Section 1's two-way composition; Kirsch-Mitzenmacher soft "
                "membership");
  TwoWayTable();
  DsBloomCurve();
}

}  // namespace
}  // namespace rsr

int main() {
  rsr::Run();
  return 0;
}

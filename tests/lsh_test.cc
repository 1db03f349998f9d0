// Tests for lsh/: the three MLSH families of Lemmas 2.3-2.5, the one-sided
// grid of Appendix E.1, and the MLSH sandwich property
//   p^f <= Pr[h(x)=h(y)] <= p^{alpha f}   (Definition 2.2),
// verified empirically against the analytic parameters.
#include <cmath>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "geometry/metric.h"
#include "lsh/bit_sampling.h"
#include "lsh/grid.h"
#include "lsh/mlsh.h"
#include "lsh/one_sided_grid.h"
#include "lsh/pstable.h"
#include "util/random.h"
#include "workload/generators.h"

namespace rsr {
namespace {

constexpr int kDraws = 6000;

/// Empirical collision probability between two fixed points.
double EmpiricalCollision(const LshFamily& family, const Point& x,
                          const Point& y, int draws, uint64_t seed) {
  Rng rng(seed);
  int hits = 0;
  for (int i = 0; i < draws; ++i) {
    auto h = family.Draw(&rng);
    hits += (h->Eval(x) == h->Eval(y));
  }
  return static_cast<double>(hits) / draws;
}

/// One uniform point: the single row of a one-row generator draw.
Point UniformPoint(size_t dim, Coord delta, Rng* rng) {
  return GenerateUniformStore(1, dim, delta, rng).MakePoint(0);
}

/// x perturbed within `radius` under `metric` (PerturbRowInto on one row).
Point Perturbed(const Point& x, MetricKind metric, double radius, Coord delta,
                Rng* rng) {
  std::vector<Coord> out(x.dim());
  PerturbRowInto(x.coords().data(), x.dim(), metric, radius, delta, rng,
                 out.data());
  return Point(std::move(out));
}

/// Margin: 5 sigma of a binomial proportion estimate.
double Margin(double p, int draws) {
  return 5.0 * std::sqrt(std::max(p * (1 - p), 1e-4) / draws) + 0.01;
}

// --------------------------------------------------------- Bit sampling --

TEST(BitSamplingTest, EqualPointsAlwaysCollide) {
  BitSamplingFamily family(16, 32.0);
  Rng rng(1);
  Point x = UniformPoint(16, 1, &rng);
  EXPECT_EQ(EmpiricalCollision(family, x, x, 500, 2), 1.0);
}

TEST(BitSamplingTest, CollisionMatchesAnalytic) {
  const size_t d = 32;
  const double w = 64.0;
  BitSamplingFamily family(d, w);
  Rng rng(3);
  Point x = UniformPoint(d, 1, &rng);
  for (int dist : {1, 4, 8, 16}) {
    Point y = Perturbed(x, MetricKind::kHamming, dist, 1, &rng);
    ASSERT_EQ(HammingDistance(x, y), dist);
    double expect = family.CollisionProbability(dist);
    double got = EmpiricalCollision(family, x, y, kDraws,
                                    static_cast<uint64_t>(100 + dist));
    EXPECT_NEAR(got, expect, Margin(expect, kDraws)) << "dist=" << dist;
  }
}

TEST(BitSamplingTest, MlshParamsMatchLemma23) {
  BitSamplingFamily family(16, 48.0);
  MlshParams params = family.mlsh_params();
  EXPECT_DOUBLE_EQ(params.r, 0.79 * 48.0);
  EXPECT_DOUBLE_EQ(params.p, std::exp(-2.0 / 48.0));
  EXPECT_DOUBLE_EQ(params.alpha, 0.5);
}

TEST(BitSamplingTest, RequiresWidthAtLeastDim) {
  EXPECT_DEATH(BitSamplingFamily(16, 8.0), "");
}

// ----------------------------------------------------------------- Grid --

TEST(GridTest, EqualPointsAlwaysCollide) {
  GridFamily family(4, 10.0);
  Rng rng(4);
  Point x = UniformPoint(4, 100, &rng);
  EXPECT_EQ(EmpiricalCollision(family, x, x, 500, 5), 1.0);
}

TEST(GridTest, SingleCoordinateCollisionIsExact) {
  // Points differing by t in one coordinate collide w.p. exactly 1 - t/w.
  const double w = 20.0;
  GridFamily family(3, w);
  Point x(std::vector<Coord>{50, 50, 50});
  for (Coord t : {2, 5, 10}) {
    Point y(std::vector<Coord>{50 + t, 50, 50});
    double expect = 1.0 - static_cast<double>(t) / w;
    double got = EmpiricalCollision(family, x, y, kDraws,
                                    static_cast<uint64_t>(200 + t));
    EXPECT_NEAR(got, expect, Margin(expect, kDraws)) << "t=" << t;
  }
}

TEST(GridTest, SpreadLayoutCollidesMoreThanConcentrated) {
  const double w = 24.0;
  GridFamily family(4, w);
  Point x(std::vector<Coord>{50, 50, 50, 50});
  Point concentrated(std::vector<Coord>{62, 50, 50, 50});  // l1 = 12
  Point spread(std::vector<Coord>{53, 53, 53, 53});        // l1 = 12
  double pc = EmpiricalCollision(family, x, concentrated, kDraws, 7);
  double ps = EmpiricalCollision(family, x, spread, kDraws, 8);
  EXPECT_GT(ps, pc);
}

// -------------------------------------------------------------- P-stable --

TEST(PStableTest, CollisionDecreasesWithDistance) {
  PStableFamily family(3, 8.0);
  EXPECT_GT(family.CollisionProbability(1.0),
            family.CollisionProbability(4.0));
  EXPECT_GT(family.CollisionProbability(4.0),
            family.CollisionProbability(16.0));
}

TEST(PStableTest, AnalyticLimits) {
  PStableFamily family(3, 8.0);
  EXPECT_NEAR(family.CollisionProbability(0.0), 1.0, 1e-9);
  EXPECT_LT(family.CollisionProbability(1000.0), 0.02);
}

TEST(PStableTest, EmpiricalMatchesAnalytic) {
  const double w = 12.0;
  PStableFamily family(4, w);
  Point x(std::vector<Coord>{100, 100, 100, 100});
  for (Coord t : {2, 6, 12}) {
    Point y(std::vector<Coord>{100 + t, 100, 100, 100});
    double dist = L2Distance(x, y);
    double expect = family.CollisionProbability(dist);
    double got = EmpiricalCollision(family, x, y, kDraws,
                                    static_cast<uint64_t>(300 + t));
    EXPECT_NEAR(got, expect, Margin(expect, kDraws)) << "t=" << t;
  }
}

// ------------------------------------------------- MLSH sandwich (2.2) --

struct SandwichCase {
  MetricKind metric;
  size_t dim;
  Coord delta;
  double w;
};

class MlshSandwichTest : public ::testing::TestWithParam<SandwichCase> {};

TEST_P(MlshSandwichTest, CollisionProbabilityIsSandwiched) {
  const SandwichCase& c = GetParam();
  auto family = MakeMlshFamily(c.metric, c.dim, c.w);
  MlshParams params = family->mlsh_params();
  Metric metric(c.metric);
  Rng rng(1234);

  for (int trial = 0; trial < 6; ++trial) {
    Point x = UniformPoint(c.dim, c.delta, &rng);
    double radius = params.r * (0.1 + 0.13 * trial);
    Point y = Perturbed(x, c.metric, radius, c.delta, &rng);
    double f = metric.Distance(x, y);
    if (f <= 0 || f > params.r) continue;
    double lower = std::pow(params.p, f);
    double upper = std::pow(params.p, params.alpha * f);
    double got = EmpiricalCollision(*family, x, y, kDraws,
                                    static_cast<uint64_t>(9000 + trial));
    double margin = Margin(got, kDraws);
    EXPECT_GE(got + margin, lower) << "f=" << f;
    EXPECT_LE(got - margin, upper) << "f=" << f;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Families, MlshSandwichTest,
    ::testing::Values(SandwichCase{MetricKind::kHamming, 32, 1, 64.0},
                      SandwichCase{MetricKind::kHamming, 64, 1, 64.0},
                      SandwichCase{MetricKind::kL1, 4, 200, 60.0},
                      SandwichCase{MetricKind::kL1, 8, 100, 120.0},
                      SandwichCase{MetricKind::kL2, 4, 200, 40.0},
                      SandwichCase{MetricKind::kL2, 8, 100, 60.0}));

// -------------------------------------------------------- One-sided grid --

TEST(OneSidedGridTest, NeverCollidesBeyondR2) {
  const size_t d = 3;
  const double r2 = 30.0;
  OneSidedGridFamily family(d, r2, 1);
  Rng rng(55);
  // Property: points at l1 distance > r2 never share a bucket.
  for (int trial = 0; trial < 40; ++trial) {
    Point x = UniformPoint(d, 500, &rng);
    Point y = UniformPoint(d, 500, &rng);
    if (L1Distance(x, y) <= r2) continue;
    for (int draw = 0; draw < 50; ++draw) {
      auto h = family.Draw(&rng);
      ASSERT_NE(h->Eval(x), h->Eval(y))
          << "far points collided: " << x.ToString() << " " << y.ToString();
    }
  }
}

TEST(OneSidedGridTest, ClosePointsCollideOften) {
  const size_t d = 2;
  const double r2 = 40.0;
  OneSidedGridFamily family(d, r2, 1);
  Rng rng(56);
  Point x(std::vector<Coord>{100, 100});
  Point y(std::vector<Coord>{101, 101});  // l1 = 2, rho_hat = 2*2/40 = 0.1
  double got = EmpiricalCollision(family, x, y, kDraws, 57);
  EXPECT_GE(got, 1.0 - family.RhoHat(2.0) - 0.05);
}

TEST(OneSidedGridTest, RhoHatFormula) {
  OneSidedGridFamily family(5, 50.0, 1);
  EXPECT_DOUBLE_EQ(family.RhoHat(2.0), 0.2);
}

TEST(OneSidedGridTest, L2CellWidthUsesSqrtD) {
  OneSidedGridFamily family(4, 10.0, 2);
  EXPECT_DOUBLE_EQ(family.cell_width(), 5.0);
}

TEST(OneSidedGridTest, L2NeverCollidesBeyondR2) {
  // The cell diameter under l2 is w sqrt(d) = r2, so p2 = 0 holds for l2 too.
  const size_t d = 4;
  const double r2 = 24.0;
  OneSidedGridFamily family(d, r2, 2);
  Rng rng(58);
  int far_pairs = 0;
  for (int trial = 0; trial < 60; ++trial) {
    Point x = UniformPoint(d, 40, &rng);
    Point y = UniformPoint(d, 40, &rng);
    if (L2Distance(x, y) <= r2) continue;
    ++far_pairs;
    for (int draw = 0; draw < 50; ++draw) {
      auto h = family.Draw(&rng);
      ASSERT_NE(h->Eval(x), h->Eval(y))
          << "far points collided: " << x.ToString() << " " << y.ToString();
    }
  }
  EXPECT_GT(far_pairs, 0);
}

TEST(OneSidedGridTest, DrawIsTheGridFunctionAtCellWidth) {
  // Same stream in, same function out: the one-sided family draws the
  // shifted grid of Lemma 2.4 at width r2 / d^{1/p}, consuming the same
  // randomness, so the low-dim Gap transcripts depend only on that grid.
  for (int p_exponent : {1, 2}) {
    const size_t d = 3;
    OneSidedGridFamily one_sided(d, 27.0, p_exponent);
    GridFamily grid(d, one_sided.cell_width());
    const uint64_t seed = 59 + static_cast<uint64_t>(p_exponent);
    Rng rng_a(seed), rng_b(seed);
    Rng points(61);
    for (int draw = 0; draw < 20; ++draw) {
      auto h_a = one_sided.Draw(&rng_a);
      auto h_b = grid.Draw(&rng_b);
      for (int i = 0; i < 25; ++i) {
        Point x = UniformPoint(d, 1000, &points);
        ASSERT_EQ(h_a->Eval(x), h_b->Eval(x))
            << "p " << p_exponent << " draw " << draw;
      }
    }
    EXPECT_EQ(rng_a.Next(), rng_b.Next()) << "p " << p_exponent;
  }
}

// ---------------------------------------------------------------- Utils --

TEST(MlshFactoryTest, PicksFamilyByMetric) {
  EXPECT_EQ(MakeMlshFamily(MetricKind::kHamming, 8, 16.0)->Name(),
            "bit_sampling");
  EXPECT_EQ(MakeMlshFamily(MetricKind::kL1, 8, 16.0)->Name(), "grid_l1");
  EXPECT_EQ(MakeMlshFamily(MetricKind::kL2, 8, 16.0)->Name(), "pstable_l2");
}

TEST(MlshFactoryTest, ChooseScaleSatisfiesTheorem34Constraints) {
  // p >= e^{-k/(24 D2)} and r >= min(M, D2).
  for (MetricKind kind :
       {MetricKind::kHamming, MetricKind::kL1, MetricKind::kL2}) {
    double k = 4, d2 = 1000, m_bound = 64;
    double w = ChooseScaleForEmd(kind, k, d2, m_bound);
    auto family = MakeMlshFamily(kind, 16, w);
    MlshParams params = family->mlsh_params();
    EXPECT_GE(params.p, std::exp(-k / (24.0 * d2)) - 1e-12);
    EXPECT_GE(params.r, std::min(m_bound, d2) - 1e-9);
  }
}

TEST(DrawManyTest, CountAndIndependence) {
  BitSamplingFamily family(8, 16.0);
  Rng rng(77);
  auto fns = DrawMany(family, 10, &rng);
  EXPECT_EQ(fns.size(), 10u);
}

TEST(LshParamsTest, RhoDefinition) {
  LshParams params{1, 2, 0.8, 0.5};
  EXPECT_NEAR(params.rho(), std::log(1 / 0.8) / std::log(2.0), 1e-12);
}

}  // namespace
}  // namespace rsr

// Unit and property tests for geometry/: Point, metrics, BitVec.
#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "geometry/bitvec.h"
#include "geometry/metric.h"
#include "geometry/point.h"
#include "util/random.h"
#include "util/serialize.h"
#include "workload/generators.h"

namespace rsr {
namespace {

// ---------------------------------------------------------------- Point --

TEST(PointTest, BasicAccessors) {
  Point p(std::vector<Coord>{1, 2, 3});
  EXPECT_EQ(p.dim(), 3u);
  EXPECT_EQ(p[0], 1);
  EXPECT_EQ(p[2], 3);
}

TEST(PointTest, ZeroFactory) {
  Point p = Point::Zero(4);
  EXPECT_EQ(p.dim(), 4u);
  for (size_t i = 0; i < 4; ++i) EXPECT_EQ(p[i], 0);
}

TEST(PointTest, EqualityAndOrdering) {
  Point a(std::vector<Coord>{1, 2});
  Point b(std::vector<Coord>{1, 2});
  Point c(std::vector<Coord>{1, 3});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_LT(a, c);
}

TEST(PointTest, InDomain) {
  Point p(std::vector<Coord>{0, 5, 10});
  EXPECT_TRUE(p.InDomain(10));
  EXPECT_FALSE(p.InDomain(9));
  Point neg(std::vector<Coord>{-1});
  EXPECT_FALSE(neg.InDomain(10));
}

// RowInDomain (branch-free over 512-coordinate chunks) against the plain
// per-coordinate loop: extreme values and deltas, lengths around the chunk
// size, and the one odd coordinate first, last, and on each side of every
// chunk boundary.
TEST(PointTest, RowInDomainMatchesPlainLoop) {
  constexpr Coord kMin = std::numeric_limits<Coord>::min();
  constexpr Coord kMax = std::numeric_limits<Coord>::max();
  auto plain = [](const std::vector<Coord>& row, size_t n, Coord delta) {
    for (size_t j = 0; j < n; ++j) {
      if (row[j] < 0 || row[j] > delta) return false;
    }
    return true;
  };
  size_t in_domain = 0;
  size_t outside = 0;
  for (Coord delta : {kMin, Coord{-1}, Coord{0}, Coord{1}, Coord{1023}, kMax}) {
    std::vector<Coord> values = {kMin, -1, 0, 1, delta, kMax};
    if (delta < kMax) values.push_back(delta + 1);
    // Rows are filled with a value inside [0, delta] when there is one.
    const Coord fill = delta < 0 ? 0 : delta / 2;
    for (size_t n : {size_t{0}, size_t{1}, size_t{511}, size_t{512},
                     size_t{513}, size_t{4103}}) {
      std::vector<Coord> row(n, fill);
      EXPECT_EQ(geometry_internal::RowInDomain(row.data(), n, delta),
                plain(row, n, delta))
          << "delta " << delta << " n " << n;
      std::vector<size_t> positions = {0, n - 1};
      for (size_t edge = 512; edge < n; edge += 512) {
        positions.push_back(edge - 1);
        positions.push_back(edge);
      }
      for (size_t pos : positions) {
        if (pos >= n) continue;
        for (Coord value : values) {
          row[pos] = value;
          const bool expected = plain(row, n, delta);
          EXPECT_EQ(geometry_internal::RowInDomain(row.data(), n, delta),
                    expected)
              << "delta " << delta << " n " << n << " row[" << pos
              << "] = " << value;
          ++(expected ? in_domain : outside);
          row[pos] = fill;
        }
      }
    }
  }
  EXPECT_GT(in_domain, 100u);
  EXPECT_GT(outside, 100u);
}

TEST(PointTest, ContentHashStableAndSaltSensitive) {
  Point p(std::vector<Coord>{4, 5});
  EXPECT_EQ(p.ContentHash(1), p.ContentHash(1));
  EXPECT_NE(p.ContentHash(1), p.ContentHash(2));
  Point q(std::vector<Coord>{5, 4});
  EXPECT_NE(p.ContentHash(1), q.ContentHash(1));
}

TEST(PointTest, SerializationRoundTrip) {
  Point p(std::vector<Coord>{0, 7, -0 + 123456, 3});
  ByteWriter w;
  p.WriteTo(&w);
  ByteReader r(w.buffer());
  Point q = Point::ReadFrom(&r);
  EXPECT_TRUE(r.FinishAndCheckConsumed().ok());
  EXPECT_EQ(p, q);
}

TEST(PointTest, ToStringReadable) {
  Point p(std::vector<Coord>{1, 2});
  EXPECT_EQ(p.ToString(), "(1,2)");
}

// -------------------------------------------------------------- Metrics --

TEST(MetricTest, HammingBasics) {
  Point a(std::vector<Coord>{0, 1, 0, 1});
  Point b(std::vector<Coord>{0, 1, 1, 0});
  EXPECT_EQ(HammingDistance(a, b), 2.0);
  EXPECT_EQ(HammingDistance(a, a), 0.0);
}

TEST(MetricTest, L1Basics) {
  Point a(std::vector<Coord>{0, 0});
  Point b(std::vector<Coord>{3, -4 + 8});
  EXPECT_EQ(L1Distance(a, b), 7.0);
}

TEST(MetricTest, L2Basics) {
  Point a(std::vector<Coord>{0, 0});
  Point b(std::vector<Coord>{3, 4});
  EXPECT_DOUBLE_EQ(L2Distance(a, b), 5.0);
}

TEST(MetricTest, DispatcherMatchesDirectFunctions) {
  Point a(std::vector<Coord>{1, 2, 3});
  Point b(std::vector<Coord>{3, 2, 1});
  EXPECT_EQ(Metric(MetricKind::kHamming).Distance(a, b), HammingDistance(a, b));
  EXPECT_EQ(Metric(MetricKind::kL1).Distance(a, b), L1Distance(a, b));
  EXPECT_EQ(Metric(MetricKind::kL2).Distance(a, b), L2Distance(a, b));
}

TEST(MetricTest, Diameters) {
  EXPECT_EQ(Metric(MetricKind::kHamming).Diameter(8, 1), 8.0);
  EXPECT_EQ(Metric(MetricKind::kL1).Diameter(3, 10), 30.0);
  EXPECT_DOUBLE_EQ(Metric(MetricKind::kL2).Diameter(4, 10), 20.0);
}

TEST(MetricTest, Names) {
  EXPECT_EQ(Metric(MetricKind::kHamming).Name(), "hamming");
  EXPECT_EQ(Metric(MetricKind::kL1).Name(), "l1");
  EXPECT_EQ(Metric(MetricKind::kL2).Name(), "l2");
}

// Property tests: metric axioms on random triples.
class MetricAxiomsTest : public ::testing::TestWithParam<MetricKind> {};

TEST_P(MetricAxiomsTest, SymmetryIdentityTriangle) {
  Metric metric(GetParam());
  Rng rng(42);
  for (int trial = 0; trial < 300; ++trial) {
    PointStore pts = GenerateUniformStore(3, 6, 50, &rng);
    const Point x = pts.MakePoint(0), y = pts.MakePoint(1);
    const Point z = pts.MakePoint(2);
    EXPECT_DOUBLE_EQ(metric.Distance(x, y), metric.Distance(y, x));
    EXPECT_EQ(metric.Distance(x, x), 0.0);
    EXPECT_GE(metric.Distance(x, y), 0.0);
    EXPECT_LE(metric.Distance(x, z),
              metric.Distance(x, y) + metric.Distance(y, z) + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(AllMetrics, MetricAxiomsTest,
                         ::testing::Values(MetricKind::kHamming,
                                           MetricKind::kL1, MetricKind::kL2));

// --------------------------------------------------------------- BitVec --

TEST(BitVecTest, SetGetFlip) {
  BitVec bv(130);
  EXPECT_FALSE(bv.Get(129));
  bv.Set(129, true);
  EXPECT_TRUE(bv.Get(129));
  bv.Flip(129);
  EXPECT_FALSE(bv.Get(129));
  bv.Flip(0);
  EXPECT_TRUE(bv.Get(0));
}

TEST(BitVecTest, DistanceMatchesPointHamming) {
  Rng rng(7);
  for (int trial = 0; trial < 100; ++trial) {
    size_t bits = 1 + rng.Below(200);
    BitVec a(bits), b(bits);
    for (size_t i = 0; i < bits; ++i) {
      a.Set(i, (rng.Next() & 1) != 0);
      b.Set(i, (rng.Next() & 1) != 0);
    }
    EXPECT_EQ(static_cast<double>(a.DistanceTo(b)),
              HammingDistance(a.ToPoint(), b.ToPoint()));
  }
}

TEST(BitVecTest, PointRoundTrip) {
  Rng rng(8);
  BitVec bv(77);
  for (size_t i = 0; i < 77; ++i) bv.Set(i, (rng.Next() & 1) != 0);
  EXPECT_EQ(BitVec::FromPoint(bv.ToPoint()), bv);
}

TEST(BitVecTest, EqualityRequiresSameLength) {
  BitVec a(10), b(11);
  EXPECT_FALSE(a == b);
}

}  // namespace
}  // namespace rsr

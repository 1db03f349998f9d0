#include "geometry/metric.h"

#include <cmath>

#include "geometry/distance_kernels.h"

namespace rsr {

double HammingDistance(const Coord* a, const Coord* b, size_t dim) {
  return geometry_internal::PairDistance<geometry_internal::HammingPair>(
      a, b, dim);
}

double L1Distance(const Coord* a, const Coord* b, size_t dim) {
  return geometry_internal::PairDistance<geometry_internal::L1Pair>(a, b,
                                                                    dim);
}

double L2Distance(const Coord* a, const Coord* b, size_t dim) {
  return geometry_internal::PairDistance<geometry_internal::L2Pair>(a, b,
                                                                    dim);
}

double HammingDistance(const Point& a, const Point& b) {
  RSR_DCHECK(a.dim() == b.dim());
  return HammingDistance(a.coords().data(), b.coords().data(), a.dim());
}

double L1Distance(const Point& a, const Point& b) {
  RSR_DCHECK(a.dim() == b.dim());
  return L1Distance(a.coords().data(), b.coords().data(), a.dim());
}

double L2Distance(const Point& a, const Point& b) {
  RSR_DCHECK(a.dim() == b.dim());
  return L2Distance(a.coords().data(), b.coords().data(), a.dim());
}

double Metric::Distance(const Point& a, const Point& b) const {
  RSR_DCHECK(a.dim() == b.dim());
  return Distance(a.coords().data(), b.coords().data(), a.dim());
}

double Metric::Distance(const Coord* a, const Coord* b, size_t dim) const {
  switch (kind_) {
    case MetricKind::kHamming:
      return HammingDistance(a, b, dim);
    case MetricKind::kL1:
      return L1Distance(a, b, dim);
    case MetricKind::kL2:
      return L2Distance(a, b, dim);
  }
  RSR_CHECK(false);
  return 0.0;
}

double Metric::Diameter(size_t dim, Coord delta) const {
  switch (kind_) {
    case MetricKind::kHamming:
      return static_cast<double>(dim);
    case MetricKind::kL1:
      return static_cast<double>(dim) * static_cast<double>(delta);
    case MetricKind::kL2:
      return std::sqrt(static_cast<double>(dim)) * static_cast<double>(delta);
  }
  RSR_CHECK(false);
  return 0.0;
}

std::string Metric::Name() const {
  switch (kind_) {
    case MetricKind::kHamming:
      return "hamming";
    case MetricKind::kL1:
      return "l1";
    case MetricKind::kL2:
      return "l2";
  }
  return "unknown";
}

}  // namespace rsr

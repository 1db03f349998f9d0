#include "geometry/point.h"

#include <sstream>

namespace rsr {

Point Point::ReadFrom(ByteReader* r) {
  uint64_t dim = r->GetVarint64();
  // Guard against corrupt dimension values blowing up memory: each
  // coordinate takes at least one byte.
  if (dim > (1u << 24) || !r->CountFits(dim, 1)) {
    r->Invalidate();
    return Point();
  }
  std::vector<Coord> coords(static_cast<size_t>(dim));
  for (auto& c : coords) c = r->GetSignedVarint64();
  return Point(std::move(coords));
}

Status ReadPoints(ByteReader* r, PointSet* out) {
  const uint64_t count = r->GetVarint64();
  if (!r->CountFits(count, 1)) {
    return Status::Corruption("point count exceeds the message");
  }
  for (uint64_t i = 0; i < count; ++i) out->push_back(Point::ReadFrom(r));
  return r->status();
}

std::string Point::ToString() const {
  std::ostringstream os;
  os << "(";
  for (size_t i = 0; i < coords_.size(); ++i) {
    if (i > 0) os << ",";
    os << coords_[i];
  }
  os << ")";
  return os.str();
}

void ContentHashMany(const Point* points, size_t n, uint64_t salt,
                     uint64_t* out) {
  for (size_t i = 0; i < n; ++i) {
    const std::vector<Coord>& coords = points[i].coords();
    out[i] = geometry_internal::RowContentHash(coords.data(), coords.size(),
                                               salt);
  }
}

void ValidatePointSet(const PointSet& points, size_t dim, Coord delta) {
  for (const Point& p : points) {
    RSR_CHECK_EQ(p.dim(), dim);
    RSR_CHECK(geometry_internal::RowInDomain(p.coords().data(), dim, delta));
  }
}

}  // namespace rsr

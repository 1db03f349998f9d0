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

}  // namespace rsr

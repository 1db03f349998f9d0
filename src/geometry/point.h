// Points of the discretized metric space [Delta]^d.
//
// Coordinates are integers in {0, ..., Delta} (inclusive), matching the
// paper's clamping of extracted RIBLT values into [0, Delta]. Binary Hamming
// space {0,1}^d is the special case Delta = 1.
//
// Point is the owning single-point value type (one heap row). Every bulk
// point set -- protocol inputs, sketch values, decode results and report
// fields -- is a columnar PointStore (point_store.h), which shares the
// row-level primitives below, so a Point and a store row hash, validate and
// serialize identically by construction.
#ifndef RSR_GEOMETRY_POINT_H_
#define RSR_GEOMETRY_POINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "hashing/hash64.h"
#include "util/logging.h"
#include "util/serialize.h"

namespace rsr {

using Coord = int64_t;

namespace geometry_internal {

/// Shared row primitives: Point, PointRef, and PointStore all delegate here,
/// so a single point and a store row cannot drift.

/// True iff every coordinate in [row, row + n) lies in [0, delta] (never
/// for a negative delta unless n == 0). Branch-free within chunks of 512
/// coordinates so the compiler vectorizes it at the baseline ISA (full
/// chunks have a constant trip count, which -O2 needs too): for delta >= 0,
/// x lies in [0, delta] iff neither x nor delta - x is negative, i.e. iff
/// the sign bit of x | (delta - x) is clear. The difference is taken in
/// uint64_t; it can wrap only for x < 0, whose own sign bit already rejects
/// it. A chunk holding a bad coordinate ends the scan.
inline bool RowInDomain(const Coord* row, size_t n, Coord delta) {
  if (delta < 0) return n == 0;
  const uint64_t bound = static_cast<uint64_t>(delta);
  auto sign_bits = [bound](const Coord* chunk, size_t len) {
    uint64_t bits = 0;
    for (size_t j = 0; j < len; ++j) {
      const uint64_t x = static_cast<uint64_t>(chunk[j]);
      bits |= x | (bound - x);
    }
    return bits >> 63;
  };
  constexpr size_t kChunk = 512;
  size_t begin = 0;
  for (; n - begin >= kChunk; begin += kChunk) {
    if (sign_bits(row + begin, kChunk) != 0) return false;
  }
  return sign_bits(row + begin, n - begin) == 0;
}

/// Stable 64-bit content hash of one row (shared across parties).
inline uint64_t RowContentHash(const Coord* row, size_t dim, uint64_t salt) {
  uint64_t h = salt ^ (dim * 0x9ddfea08eb382d69ULL);
  for (size_t j = 0; j < dim; ++j) {
    h = HashCombine(h, static_cast<uint64_t>(row[j]));
  }
  return Mix64(h);
}

/// Wire format of one point: dim as varint, then zigzag varints per
/// coordinate.
inline void WriteRowTo(ByteWriter* w, const Coord* row, size_t dim) {
  w->PutVarint64(dim);
  for (size_t j = 0; j < dim; ++j) w->PutSignedVarint64(row[j]);
}

}  // namespace geometry_internal

/// An immutable d-dimensional integer point: coordinates are fixed at
/// construction (no mutable accessors), so views into shared storage and
/// cached derived data stay valid.
class Point {
 public:
  Point() = default;
  explicit Point(std::vector<Coord> coords) : coords_(std::move(coords)) {}

  static Point Zero(size_t dim) { return Point(std::vector<Coord>(dim, 0)); }

  size_t dim() const { return coords_.size(); }
  Coord operator[](size_t i) const {
    RSR_DCHECK(i < coords_.size());
    return coords_[i];
  }
  const std::vector<Coord>& coords() const { return coords_; }

  bool operator==(const Point& other) const { return coords_ == other.coords_; }
  bool operator!=(const Point& other) const { return !(*this == other); }
  /// Lexicographic order (canonical ordering for occurrence salting).
  bool operator<(const Point& other) const { return coords_ < other.coords_; }

  /// True iff every coordinate lies in [0, delta].
  bool InDomain(Coord delta) const {
    return geometry_internal::RowInDomain(coords_.data(), coords_.size(),
                                          delta);
  }

  /// Stable 64-bit content hash (shared across parties).
  uint64_t ContentHash(uint64_t salt) const {
    return geometry_internal::RowContentHash(coords_.data(), coords_.size(),
                                             salt);
  }

  /// Serialization: dim as varint then zigzag varints per coordinate.
  void WriteTo(ByteWriter* w) const {
    geometry_internal::WriteRowTo(w, coords_.data(), coords_.size());
  }
  static Point ReadFrom(ByteReader* r);

  std::string ToString() const;

 private:
  std::vector<Coord> coords_;
};

}  // namespace rsr

#endif  // RSR_GEOMETRY_POINT_H_

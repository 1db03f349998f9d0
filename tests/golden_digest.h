// Digest helpers shared by the whole-exchange golden tests
// (emd_golden_test, gap_golden_test): FNV-1a over a little-endian stream of
// 64-bit words, finalized by Mix64.
#ifndef RSR_TESTS_GOLDEN_DIGEST_H_
#define RSR_TESTS_GOLDEN_DIGEST_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "geometry/point_store.h"
#include "hashing/hash64.h"

namespace rsr {
namespace testing {

class Digest {
 public:
  void Word(uint64_t v) {
    for (int b = 0; b < 8; ++b) Byte(static_cast<uint8_t>(v >> (8 * b)));
  }
  void Byte(uint8_t b) {
    h_ ^= b;
    h_ *= 0x100000001b3ULL;
  }
  /// Length-prefixed, so adjacent strings cannot alias.
  void String(std::string_view s) {
    Word(s.size());
    for (char c : s) Byte(static_cast<uint8_t>(c));
  }
  /// Row count, then every coordinate in row order.
  void Store(const PointStore& points) {
    Word(points.size());
    for (size_t i = 0; i < points.size(); ++i) {
      for (size_t c = 0; c < points.dim(); ++c) {
        Word(static_cast<uint64_t>(points.row(i)[c]));
      }
    }
  }
  uint64_t Value() const { return Mix64(h_); }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

inline uint64_t DigestOf(const PointStore& points) {
  Digest d;
  d.Store(points);
  return d.Value();
}

inline uint64_t DigestOf(const std::vector<uint64_t>& words) {
  Digest d;
  d.Word(words.size());
  for (uint64_t w : words) d.Word(w);
  return d.Value();
}

inline uint64_t DigestOf(const std::vector<uint8_t>& bytes) {
  Digest d;
  d.Word(bytes.size());
  for (uint8_t b : bytes) d.Byte(b);
  return d.Value();
}

}  // namespace testing
}  // namespace rsr

#endif  // RSR_TESTS_GOLDEN_DIGEST_H_

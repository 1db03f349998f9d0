// k-independent polynomial hashing over the Mersenne prime 2^61 - 1.
//
// h(x) = (c_{k-1} x^{k-1} + ... + c_1 x + c_0) mod p. A degree-(k-1)
// polynomial with random coefficients is k-wise independent. The IBLT cell
// index functions use this family (q cell choices per key must behave
// independently for the peeling analysis to apply).
//
// Coefficients are stored inline (no heap allocation): Eval is a Horner loop
// over a fixed-capacity flat array, instances pack contiguously inside
// containers, and evaluating a hash never touches memory outside the object.
#ifndef RSR_HASHING_KINDEPENDENT_H_
#define RSR_HASHING_KINDEPENDENT_H_

#include <array>
#include <cstdint>

#include "hashing/pairwise.h"
#include "util/random.h"

namespace rsr {

class KIndependentHash {
 public:
  /// Maximum supported independence. Inline storage keeps the hot path
  /// allocation-free; raise the cap if a caller ever needs deeper families.
  static constexpr int kMaxIndependence = 8;

  /// Draws a random degree-(k-1) polynomial; requires 1 <= k <= cap.
  static KIndependentHash Draw(int k, Rng* rng);

  /// 61-bit output. Horner's rule with modular steps; no allocation, no
  /// dispatch — this is the innermost loop of every sketch update.
  uint64_t Eval(uint64_t x) const {
    uint64_t xr = Mod61(x);
    uint64_t acc = 0;
    for (int i = k_; i-- > 0;) {
      // acc, xr < 2^61 so the product fits 122 bits.
      acc = Mod61(static_cast<unsigned __int128>(acc) * xr +
                  coeffs_[static_cast<size_t>(i)]);
    }
    return acc;
  }

  int independence() const { return k_; }

  /// coeffs()[i] multiplies x^i. Exposed so sketch hot paths can copy the
  /// polynomial into their own flat arrays and specialize evaluation.
  const uint64_t* coeffs() const { return coeffs_.data(); }

 private:
  KIndependentHash() = default;

  std::array<uint64_t, kMaxIndependence> coeffs_{};  // coeffs_[i] * x^i
  int k_ = 0;
};

}  // namespace rsr

#endif  // RSR_HASHING_KINDEPENDENT_H_

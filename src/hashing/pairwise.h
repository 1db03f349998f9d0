// Pairwise-independent hash families over the Mersenne prime p = 2^61 - 1.
//
// PairwiseHash:     h(x) = ((a*x + b) mod p) mod 2^out_bits,  a != 0.
// PairwiseVectorHash: h(v) = (b + sum_i a_i * v_i) mod p, folded to 64 bits,
//   pairwise independent over fixed-length vectors (per-coordinate random
//   multipliers). Algorithm 1's level keys and the Gap protocol's batch
//   hashes are drawn from this family, matching the paper's "2-wise
//   independent class of hash functions with range {0,1}^Theta(log n)".
#ifndef RSR_HASHING_PAIRWISE_H_
#define RSR_HASHING_PAIRWISE_H_

#include <cstdint>
#include <vector>

#include "util/random.h"

namespace rsr {

/// The Mersenne prime 2^61 - 1 used for modular hashing.
constexpr uint64_t kMersenne61 = (uint64_t{1} << 61) - 1;

/// x mod 2^61-1, exact for every x < 2^125. Inline: this is the innermost
/// step of every hash evaluation in the library.
/// Proof: write x = hi * 2^61 + lo with lo < 2^61; x < 2^125 makes hi < 2^64,
/// so the cast below keeps all of it. Since 2^61 = 1 (mod p),
/// x = hi + lo = (hi >> 61) + (hi & p) + lo (mod p), and that sum r is at most
/// 7 + 2p < 3p, so two conditional subtractions leave the canonical residue.
/// For x >= 2^125 the cast drops 8 * (x >> 125) (mod p), which is never 0,
/// so the result is wrong.
inline uint64_t Mod61(unsigned __int128 x) {
  // Fold twice: each fold removes 61 bits.
  uint64_t lo = static_cast<uint64_t>(x & kMersenne61);
  uint64_t hi = static_cast<uint64_t>(x >> 61);
  uint64_t r = lo + (hi & kMersenne61) + (hi >> 61);
  if (r >= kMersenne61) r -= kMersenne61;
  if (r >= kMersenne61) r -= kMersenne61;
  return r;
}

/// (a*x + b) mod 2^61-1, computed with 128-bit intermediates.
inline uint64_t MulAddMod61(uint64_t a, uint64_t x, uint64_t b) {
  // Reduce x first so the product fits in 122 bits.
  unsigned __int128 prod = static_cast<unsigned __int128>(a) * Mod61(x) + b;
  return Mod61(prod);
}

/// Pairwise-independent hash of a single 64-bit input.
class PairwiseHash {
 public:
  /// Draws a = Uniform[1, p-1], b = Uniform[0, p-1].
  static PairwiseHash Draw(Rng* rng);
  PairwiseHash(uint64_t a, uint64_t b) : a_(a), b_(b) {}

  /// Full 61-bit output.
  uint64_t Eval(uint64_t x) const { return MulAddMod61(a_, x, b_); }

  /// Output truncated to out_bits low bits (out_bits <= 61).
  uint64_t EvalBits(uint64_t x, int out_bits) const {
    return Eval(x) & ((out_bits >= 61) ? kMersenne61
                                       : ((uint64_t{1} << out_bits) - 1));
  }

  /// Batch full-width eval: out[i] = Eval(xs[i]). The (a, b) parameters are
  /// loaded once for the whole batch.
  void EvalMany(const uint64_t* xs, size_t n, uint64_t* out) const;

  /// Batch truncated eval: out[i] = EvalBits(xs[i], out_bits). The output
  /// mask is derived once instead of per call.
  void EvalBitsMany(const uint64_t* xs, size_t n, int out_bits,
                    uint64_t* out) const;

 private:
  uint64_t a_;
  uint64_t b_;
};

/// Pairwise-independent hash of fixed-length vectors of 64-bit values.
/// Lazily extends the multiplier list so one instance can hash prefixes of
/// any length (used by the EMD protocol's per-level prefix keys).
class PairwiseVectorHash {
 public:
  /// The instance owns a forked RNG stream so multipliers are reproducible.
  static PairwiseVectorHash Draw(Rng* rng);

  /// Hash the first `len` entries of v. Distinct (vector, len) pairs collide
  /// with probability ~2^-61. Output is 61 bits. Eval, EvalPrefixes and
  /// EvalBatch share one accumulation core (interleaved 128-bit lanes, see
  /// pairwise.cc) and agree bit for bit.
  uint64_t Eval(const std::vector<uint64_t>& v, size_t len) const;
  uint64_t Eval(const std::vector<uint64_t>& v) const {
    return Eval(v, v.size());
  }

  /// All prefix keys of one row in a single pass: out[t] = Eval(v, lens[t])
  /// for t in [0, num_prefixes), where lens is nondecreasing (duplicates
  /// allowed). The coefficient sum is accumulated incrementally along the
  /// prefix chain and a key is emitted whenever the walk reaches a requested
  /// length — O(lens[last]) total instead of O(sum of lens) — with results
  /// bit-identical to per-prefix Eval.
  void EvalPrefixes(const uint64_t* v, const size_t* lens, size_t num_prefixes,
                    uint64_t* out) const;

  /// Batch fixed-length eval over rows of a flat row-major matrix:
  /// out[i] = Eval(rows + i * row_stride, len) (first `len` entries of each
  /// row). Multipliers and the length term are prepared once per batch.
  void EvalBatch(const uint64_t* rows, size_t n, size_t row_stride, size_t len,
                 uint64_t* out) const;

  /// Pre-draws multipliers for prefixes up to `len`. The Eval* methods are
  /// const but lazily extend the multiplier list, which is not thread-safe;
  /// call this once before sharing the instance across threads.
  void Reserve(size_t len) const { EnsureMultipliers(len); }

 private:
  explicit PairwiseVectorHash(Rng rng) : rng_(rng) {}
  void EnsureMultipliers(size_t len) const;

  mutable Rng rng_;
  mutable std::vector<uint64_t> coeffs_;
  uint64_t b_ = 0;
  uint64_t length_salt_ = 0;
};

}  // namespace rsr

#endif  // RSR_HASHING_PAIRWISE_H_

// Pairwise-independent hashing over the Mersenne prime p = 2^61 - 1.
//
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
/// step of every hash evaluation in the library, and it has no
/// data-dependent branch (on uniform hash inputs a conditional subtract is
/// a coin flip the predictor loses half the time).
/// Proof: write x = hi * 2^61 + lo with lo < 2^61; x < 2^125 makes hi < 2^64,
/// so the cast below keeps all of it. Since 2^61 = 1 (mod p),
/// x = hi + lo = (hi >> 61) + (hi & p) + lo (mod p), and that first fold r is
/// at most 7 + 2p = 2^62 + 5. Folding r again the same way keeps it congruent
/// and leaves r <= p + 1: if r < 2^61 it is unchanged and at most p; if
/// 2^61 <= r < 2^62 it becomes (r - 2^61) + 1 <= p + 1; if r >= 2^62 it
/// becomes (r - 2^62) + 2 <= 7. So r is p or p + 1 exactly when r + 1 has
/// bit 61 set, and (r + ((r + 1) >> 61)) & p maps p to 0, p + 1 to 1 and
/// every r < p to itself: the canonical residue.
/// For x >= 2^125 the cast drops 8 * (x >> 125) (mod p), which is never 0,
/// so the result is wrong.
inline uint64_t Mod61(unsigned __int128 x) {
  uint64_t lo = static_cast<uint64_t>(x & kMersenne61);
  uint64_t hi = static_cast<uint64_t>(x >> 61);
  uint64_t r = lo + (hi & kMersenne61) + (hi >> 61);
  r = (r & kMersenne61) + (r >> 61);
  return (r + ((r + 1) >> 61)) & kMersenne61;
}

namespace hashing_internal {

/// The arm that computes PairwiseVectorHash::EvalPrefixesRows. kAvx2 iff
/// pairwise_avx2.cc was compiled with AVX2 codegen, CPUID reports AVX2 and
/// RSR_FORCE_SCALAR is unset (util/cpu_features.h); decided once per
/// process. Both arms write the same keys bit for bit.
enum class KeyArm { kScalar, kAvx2 };
KeyArm ActiveKeyArm();
/// "avx2" or "scalar".
const char* KeyArmName(KeyArm arm);

}  // namespace hashing_internal

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

  /// Every prefix key of `count` rows (row r at rows + r * row_stride),
  /// written level-major: out[l * out_n + r] = EvalPrefixes(row r)[l] & mask
  /// for l < num_prefixes, with lens as in EvalPrefixes. The active arm
  /// (hashing_internal::ActiveKeyArm) hashes four rows per AVX2 vector; rows
  /// left after the last group of four, and every row on the scalar arm, run
  /// EvalPrefixes' own walk. No scratch is allocated.
  void EvalPrefixesRows(const uint64_t* rows, size_t count, size_t row_stride,
                        const size_t* lens, size_t num_prefixes, uint64_t mask,
                        size_t out_n, uint64_t* out) const {
    EvalPrefixesRowsOn(hashing_internal::ActiveKeyArm(), rows, count,
                       row_stride, lens, num_prefixes, mask, out_n, out);
  }
  /// EvalPrefixesRows on a chosen arm (the tests pin arm against arm).
  void EvalPrefixesRowsOn(hashing_internal::KeyArm arm, const uint64_t* rows,
                          size_t count, size_t row_stride, const size_t* lens,
                          size_t num_prefixes, uint64_t mask, size_t out_n,
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

#include "hashing/pairwise.h"

#include "hashing/hash64.h"
#include "hashing/pairwise_avx2.h"
#include "util/cpu_features.h"

namespace rsr {

namespace {

/// The accumulation core of every PairwiseVectorHash evaluation:
/// (s + sum_{j<count} a_j * (x_j mod p)) mod p, for s < p. Whole 8-entry
/// blocks spread their terms over four independent 128-bit lanes (term j to
/// lane j % 4), so consecutive multiply-adds do not wait on each other, and
/// end with one Mod61 per lane; the tail of at most 7 entries accumulates on
/// lane 0, so a short row (the Gap protocol's 4 entries) stays one plain
/// chain. One more Mod61 reduces the four-lane sum. The sum is exact modular
/// arithmetic and Mod61 returns the canonical residue, so neither the lane
/// split nor the fold schedule can reach the result. A key of length len is
/// Mod61(Accumulate(..., b) + salt * (len mod p)), and EvalPrefixes extends
/// one prefix's sum to the next by passing it back in as s.
///
/// Magnitudes (p = 2^61 - 1; coefficients and residues are at most p - 1,
/// so each term is at most (p-1)^2 = 2^122 - 2^63 + 4): lanes start at most
/// p - 1 (s or 0); inside a block a lane gains 2 terms, so it stays at most
/// (p-1) + 2(p-1)^2 < 2^123 before its fold back to at most p - 1; the tail
/// leaves lane 0 at most (p-1) + 7(p-1)^2. The final four-lane sum is at
/// most 4(p-1) + 7(p-1)^2 = 7 * 2^122 - 6 * 2^63 + 20 < 2^125, and a key's
/// Mod61(sum + salt * (len mod p)) input is below 2^123: every Mod61 input is
/// inside its exact range.
///
/// Forced inline: as an out-of-line call per row it doubled the cost of the
/// Gap protocol's 4-entry rows.
[[gnu::always_inline]] inline uint64_t Accumulate(const uint64_t* a,
                                                  const uint64_t* x,
                                                  size_t count, uint64_t s) {
  // a_j * (x_j mod p): x_j = hi * 2^61 + lo with hi <= 7, so lo + hi < 2p
  // and one conditional subtraction gives Mod61's canonical residue without
  // 128-bit shifts on the per-entry path.
  auto term = [a, x](size_t j) {
    uint64_t r = (x[j] & kMersenne61) + (x[j] >> 61);
    if (r >= kMersenne61) r -= kMersenne61;
    return static_cast<unsigned __int128>(a[j]) * r;
  };
  unsigned __int128 l0 = s, l1 = 0, l2 = 0, l3 = 0;
  size_t j = 0;
  for (; j + 8 <= count; j += 8) {
    l0 += term(j);
    l1 += term(j + 1);
    l2 += term(j + 2);
    l3 += term(j + 3);
    l0 += term(j + 4);
    l1 += term(j + 5);
    l2 += term(j + 6);
    l3 += term(j + 7);
    l0 = Mod61(l0);
    l1 = Mod61(l1);
    l2 = Mod61(l2);
    l3 = Mod61(l3);
  }
  for (; j < count; ++j) l0 += term(j);
  return Mod61(l0 + l1 + l2 + l3);
}

/// salt * (len mod p) < 2^122: the length term mixed into every key.
unsigned __int128 LengthTerm(uint64_t salt, size_t len) {
  return static_cast<unsigned __int128>(salt) * Mod61(len);
}

/// The scalar prefix walk shared by EvalPrefixes and the scalar rows of
/// EvalPrefixesRows: one pass along row v, where sum holds b plus the terms
/// of the first `done` entries, and each requested length extends it and
/// calls emit(l, key of prefix l).
template <typename Emit>
[[gnu::always_inline]] inline void WalkPrefixes(const uint64_t* coeffs,
                                                uint64_t b, uint64_t salt,
                                                const uint64_t* v,
                                                const size_t* lens,
                                                size_t num_prefixes,
                                                Emit emit) {
  uint64_t sum = b;
  size_t done = 0;
  for (size_t l = 0; l < num_prefixes; ++l) {
    RSR_DCHECK(lens[l] >= done);  // lens must be nondecreasing
    sum = Accumulate(coeffs + done, v + done, lens[l] - done, sum);
    done = lens[l];
    emit(l, Mod61(sum + LengthTerm(salt, done)));
  }
}

}  // namespace

namespace hashing_internal {

KeyArm ActiveKeyArm() {
  static const KeyArm arm =
      kAvx2PairwiseCompiled && CpuSupportsAvx2() && !ForceScalarKernels()
          ? KeyArm::kAvx2
          : KeyArm::kScalar;
  return arm;
}

const char* KeyArmName(KeyArm arm) {
  return arm == KeyArm::kAvx2 ? "avx2" : "scalar";
}

}  // namespace hashing_internal

PairwiseVectorHash PairwiseVectorHash::Draw(Rng* rng) {
  PairwiseVectorHash h(rng->Fork());
  h.b_ = h.rng_.Below(kMersenne61);
  h.length_salt_ = 1 + h.rng_.Below(kMersenne61 - 1);
  return h;
}

void PairwiseVectorHash::EnsureMultipliers(size_t len) const {
  while (coeffs_.size() < len) {
    coeffs_.push_back(1 + rng_.Below(kMersenne61 - 1));
  }
}

uint64_t PairwiseVectorHash::Eval(const std::vector<uint64_t>& v,
                                  size_t len) const {
  RSR_DCHECK(len <= v.size());
  EnsureMultipliers(len);
  return Mod61(Accumulate(coeffs_.data(), v.data(), len, b_) +
               LengthTerm(length_salt_, len));
}

void PairwiseVectorHash::EvalPrefixes(const uint64_t* v, const size_t* lens,
                                      size_t num_prefixes,
                                      uint64_t* out) const {
  if (num_prefixes == 0) return;
  EnsureMultipliers(lens[num_prefixes - 1]);
  WalkPrefixes(coeffs_.data(), b_, length_salt_, v, lens, num_prefixes,
               [out](size_t l, uint64_t key) { out[l] = key; });
}

void PairwiseVectorHash::EvalPrefixesRowsOn(hashing_internal::KeyArm arm,
                                            const uint64_t* rows, size_t count,
                                            size_t row_stride,
                                            const size_t* lens,
                                            size_t num_prefixes, uint64_t mask,
                                            size_t out_n, uint64_t* out) const {
  if (num_prefixes == 0 || count == 0) return;
  EnsureMultipliers(lens[num_prefixes - 1]);
  const uint64_t* coeffs = coeffs_.data();
  size_t r = 0;
  if (arm == hashing_internal::KeyArm::kAvx2) {
    r = hashing_internal::PrefixRowsAvx2(coeffs, b_, length_salt_, rows,
                                         count, row_stride, lens, num_prefixes,
                                         mask, out_n, out);
  }
  for (; r < count; ++r) {
    uint64_t* row_out = out + r;
    WalkPrefixes(coeffs, b_, length_salt_, rows + r * row_stride, lens,
                 num_prefixes, [row_out, mask, out_n](size_t l, uint64_t key) {
                   row_out[l * out_n] = key & mask;
                 });
  }
}

void PairwiseVectorHash::EvalBatch(const uint64_t* rows, size_t n,
                                   size_t row_stride, size_t len,
                                   uint64_t* out) const {
  EnsureMultipliers(len);
  const uint64_t* coeffs = coeffs_.data();
  const unsigned __int128 length_term = LengthTerm(length_salt_, len);
  // A local copy: stores to out[] could alias b_, which would otherwise be
  // reloaded for every row.
  const uint64_t b = b_;
  for (size_t i = 0; i < n; ++i) {
    out[i] = Mod61(Accumulate(coeffs, rows + i * row_stride, len, b) +
                   length_term);
  }
}

}  // namespace rsr

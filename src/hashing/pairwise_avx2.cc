// AVX2 arm of PairwiseVectorHash::EvalPrefixesRows (see pairwise_avx2.h).
//
// Compiled with -mavx2 (see CMakeLists.txt). One 64-bit lane is one row:
// four rows walk their prefix chains side by side, and each lane computes
// the exact integer value of its running sum, so every key is the canonical
// residue the scalar walk in pairwise.cc produces, bit for bit. Four
// consecutive entries of the four rows come in as 4 loads and a 4 x 4
// in-register transpose, and a_j is broadcast to all lanes.
//
// With p = 2^61 - 1 (so 2^61 = 1 mod p), per entry x of a lane:
//
//   r = (x & p) + (x >> 61) <= 2^61 + 6, congruent to x. No conditional
//   subtract is needed: the limb products below stay exact for r this size.
//   a <= p - 1 and r split into 32-bit limbs (a_hi < 2^29, r_hi <= 2^29)
//   give four vpmuludq products
//     p00 = a_lo r_lo  < 2^64,
//     mid = a_lo r_hi + a_hi r_lo  < 2^61 + 2^61 = 2^62,
//     p11 = a_hi r_hi  < 2^58,
//   and a r = p00 + mid 2^32 + p11 2^64. The lane keeps three accumulators,
//     L += p00 & (2^32 - 1),  M += p00 >> 32,  H += p11,
//   and the mids of a group of at most 4 consecutive entries are summed
//   first (D < 4 * 2^62 = 2^64) and then split once per group:
//     M += D & (2^32 - 1),  H += D >> 32.
//   So L + M 2^32 + H 2^64 is the exact integer sum of the terms, and per
//   entry L gains < 2^32, M < 2^33 and H < 2^58 + 2^32.
//
// Fold after every run of at most 32 entries (kFoldSteps), keeping the
// residue of L + M 2^32 + H 2^64:
//   L <- (L & p) + (L >> 61) + (M >> 29)   (M 2^32 = (M & (2^29 - 1)) 2^32
//   M <- M & (2^29 - 1)                      + (M >> 29) 2^61)
//   H <- (H & p) + (H >> 61)
// After a fold L <= 2^61 + 2^10, M < 2^29, H <= 2^61 + 6. Within the next
// run L < 2^61 + 2^10 + 32 * 2^32 < 2^62, M < 2^29 + 32 * 2^33 < 2^39 (so
// the next fold's L >> 61 <= 1 and M >> 29 < 2^10), and
// H < 2^61 + 6 + 32 (2^58 + 2^32) = 2^63 + 2^61 + 2^37 + 6 < 2^64: no lane
// ever wraps.
//
// At each prefix length, right after a fold, the sum is absorbed into the
// running base (canonical, < p; it starts at b) and the accumulators reset:
//   S = base + L + (M << 32) + ((H << 3) & p) + (H >> 58),
// where M << 32 < 2^61 is M 2^32 exactly and H 2^64 = 8H (mod p) =
// ((H << 3) & p) + (H >> 58) 2^61 with H >> 58 <= 8. So
// S < 2^61 + (2^61 + 2^10) + 2^61 + (2^61 + 8) < 2^64, and one fold
// (S & p) + (S >> 61) <= p + 4 plus one compare-subtract leaves the
// canonical residue. The key is that residue plus salt (len mod p) reduced
// mod p (LengthKeyTerm, < p), so one more compare-subtract makes it
// canonical; it is masked and stored as 4 contiguous keys of level-major
// output. Every lane value compared is below 2^63, so the signed vpcmpgtq
// compares it exactly.
//
// The functions here take raw pointers and call nothing outside this file,
// so no inline function shared with the portable translation units is ever
// instantiated with AVX2 code generation.
#include "hashing/pairwise_avx2.h"

#if defined(__AVX2__)

#include <immintrin.h>

#include <cstring>

namespace rsr {
namespace hashing_internal {

const bool kAvx2PairwiseCompiled = true;

namespace {

constexpr uint64_t kP = (uint64_t{1} << 61) - 1;
constexpr size_t kFoldSteps = 32;

/// salt * (len mod p) mod p, canonical. salt < p and len mod p < p make the
/// product below 2^122; its two 61-bit halves sum to r < 2^62, and
/// (r & p) + (r >> 61) <= p + 1 needs one conditional subtraction.
uint64_t LengthKeyTerm(uint64_t salt, size_t len) {
  uint64_t len_mod = (len & kP) + (len >> 61);
  if (len_mod >= kP) len_mod -= kP;
  const unsigned __int128 x = static_cast<unsigned __int128>(salt) * len_mod;
  uint64_t r = static_cast<uint64_t>(x & kP) + static_cast<uint64_t>(x >> 61);
  r = (r & kP) + (r >> 61);
  if (r >= kP) r -= kP;
  return r;
}

struct Consts {
  __m256i p = _mm256_set1_epi64x(static_cast<int64_t>(kP));
  __m256i p_minus_1 = _mm256_set1_epi64x(static_cast<int64_t>(kP - 1));
  __m256i low32 = _mm256_set1_epi64x(0xffffffffLL);
  __m256i low29 = _mm256_set1_epi64x((1LL << 29) - 1);
};

/// x - p in the lanes where x >= p; lanes must be below 2^63.
inline __m256i CondSubP(__m256i x, const Consts& c) {
  return _mm256_sub_epi64(
      x, _mm256_and_si256(_mm256_cmpgt_epi64(x, c.p_minus_1), c.p));
}

/// a's high 32 bits in the low half of every lane (vpmuludq reads only that
/// half), as one broadcast load of a's upper word: x86 is little-endian.
inline __m256i BroadcastHigh32(const uint64_t* a) {
  int32_t hi;
  std::memcpy(&hi, reinterpret_cast<const char*>(a) + 4, sizeof(hi));
  return _mm256_set1_epi32(hi);
}

/// The running sum of one four-row lane group (bounds in the file comment).
struct Acc {
  __m256i l = _mm256_setzero_si256();
  __m256i m = _mm256_setzero_si256();
  __m256i h = _mm256_setzero_si256();

  /// Adds sum_k a_k e_k for k < kCount <= 4 to every lane, where a_k =
  /// coeffs[k] and e_k holds entry k of each row. The middle products are
  /// summed before they are split: each is below 2^62, so kCount of them
  /// stay below 2^64.
  template <size_t kCount>
  inline void Add(const uint64_t* coeffs, const __m256i* e, const Consts& c) {
    __m256i mids = _mm256_setzero_si256();
    for (size_t k = 0; k < kCount; ++k) {
      const __m256i r = _mm256_add_epi64(_mm256_and_si256(e[k], c.p),
                                         _mm256_srli_epi64(e[k], 61));
      const __m256i r_hi = _mm256_srli_epi64(r, 32);
      const __m256i a = _mm256_set1_epi64x(static_cast<int64_t>(coeffs[k]));
      const __m256i a_hi = BroadcastHigh32(coeffs + k);
      const __m256i p00 = _mm256_mul_epu32(a, r);
      mids = _mm256_add_epi64(mids, _mm256_add_epi64(_mm256_mul_epu32(a, r_hi),
                                                     _mm256_mul_epu32(a_hi, r)));
      l = _mm256_add_epi64(l, _mm256_and_si256(p00, c.low32));
      m = _mm256_add_epi64(m, _mm256_srli_epi64(p00, 32));
      h = _mm256_add_epi64(h, _mm256_mul_epu32(a_hi, r_hi));
    }
    m = _mm256_add_epi64(m, _mm256_and_si256(mids, c.low32));
    h = _mm256_add_epi64(h, _mm256_srli_epi64(mids, 32));
  }

  inline void Fold(const Consts& c) {
    l = _mm256_add_epi64(
        _mm256_add_epi64(_mm256_and_si256(l, c.p), _mm256_srli_epi64(l, 61)),
        _mm256_srli_epi64(m, 29));
    m = _mm256_and_si256(m, c.low29);
    h = _mm256_add_epi64(_mm256_and_si256(h, c.p), _mm256_srli_epi64(h, 61));
  }

  /// Returns the canonical residue of base + the sum (base canonical) and
  /// resets the sum; call right after Fold.
  inline __m256i Absorb(__m256i base, const Consts& c) {
    __m256i s = _mm256_add_epi64(base, l);
    s = _mm256_add_epi64(s, _mm256_slli_epi64(m, 32));
    s = _mm256_add_epi64(
        s, _mm256_and_si256(_mm256_slli_epi64(h, 3), c.p));
    s = _mm256_add_epi64(s, _mm256_srli_epi64(h, 58));
    s = _mm256_add_epi64(_mm256_and_si256(s, c.p), _mm256_srli_epi64(s, 61));
    l = m = h = _mm256_setzero_si256();
    return CondSubP(s, c);
  }
};

}  // namespace

size_t PrefixRowsAvx2(const uint64_t* coeffs, uint64_t b, uint64_t salt,
                      const uint64_t* rows, size_t count, size_t row_stride,
                      const size_t* lens, size_t num_prefixes, uint64_t mask,
                      size_t out_n, uint64_t* out) {
  const Consts c;
  const __m256i vmask = _mm256_set1_epi64x(static_cast<int64_t>(mask));
  const size_t groups_end = count / 4 * 4;
  for (size_t g = 0; g < groups_end; g += 4) {
    const uint64_t* r0 = rows + g * row_stride;
    const uint64_t* r1 = r0 + row_stride;
    const uint64_t* r2 = r1 + row_stride;
    const uint64_t* r3 = r2 + row_stride;
    __m256i base = _mm256_set1_epi64x(static_cast<int64_t>(b));
    Acc acc;
    size_t j = 0;
    for (size_t l = 0; l < num_prefixes; ++l) {
      const size_t end = lens[l];
      while (j < end) {
        const size_t run_end = j + (end - j < kFoldSteps ? end - j : kFoldSteps);
        for (; j + 4 <= run_end; j += 4) {
          const __m256i x0 =
              _mm256_loadu_si256(reinterpret_cast<const __m256i*>(r0 + j));
          const __m256i x1 =
              _mm256_loadu_si256(reinterpret_cast<const __m256i*>(r1 + j));
          const __m256i x2 =
              _mm256_loadu_si256(reinterpret_cast<const __m256i*>(r2 + j));
          const __m256i x3 =
              _mm256_loadu_si256(reinterpret_cast<const __m256i*>(r3 + j));
          // 4 x 4 transpose: e_k holds entry j + k of rows 0..3.
          const __m256i t0 = _mm256_unpacklo_epi64(x0, x1);
          const __m256i t1 = _mm256_unpackhi_epi64(x0, x1);
          const __m256i t2 = _mm256_unpacklo_epi64(x2, x3);
          const __m256i t3 = _mm256_unpackhi_epi64(x2, x3);
          const __m256i e[4] = {_mm256_permute2x128_si256(t0, t2, 0x20),
                                _mm256_permute2x128_si256(t1, t3, 0x20),
                                _mm256_permute2x128_si256(t0, t2, 0x31),
                                _mm256_permute2x128_si256(t1, t3, 0x31)};
          acc.Add<4>(coeffs + j, e, c);
        }
        for (; j < run_end; ++j) {
          const __m256i e = _mm256_set_epi64x(
              static_cast<int64_t>(r3[j]), static_cast<int64_t>(r2[j]),
              static_cast<int64_t>(r1[j]), static_cast<int64_t>(r0[j]));
          acc.Add<1>(coeffs + j, &e, c);
        }
        acc.Fold(c);
      }
      base = acc.Absorb(base, c);
      const __m256i key = CondSubP(
          _mm256_add_epi64(base, _mm256_set1_epi64x(static_cast<int64_t>(
                                     LengthKeyTerm(salt, end)))),
          c);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + l * out_n + g),
                          _mm256_and_si256(key, vmask));
    }
  }
  return groups_end;
}

}  // namespace hashing_internal
}  // namespace rsr

#else  // !defined(__AVX2__)

// Built without AVX2 code generation: the dispatcher never selects this arm
// (kAvx2PairwiseCompiled is false), and a direct call hashes no row, so the
// caller's scalar walk covers them all.
namespace rsr {
namespace hashing_internal {

const bool kAvx2PairwiseCompiled = false;

size_t PrefixRowsAvx2(const uint64_t*, uint64_t, uint64_t, const uint64_t*,
                      size_t, size_t, const size_t*, size_t, uint64_t, size_t,
                      uint64_t*) {
  return 0;
}

}  // namespace hashing_internal
}  // namespace rsr

#endif  // defined(__AVX2__)
